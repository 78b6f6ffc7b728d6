import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import ucnprec as u

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"

# Adding public API means adding its name here: the package exports only what a
# solver, the CLI or a test oracle uses.
EXPORTS = [
    "BisectionError", "BlockLayout", "ChannelSet", "ClusterMap", "ComplexityReport",
    "LineSearchConfig", "ObjectiveEval", "PowerBudget", "PrecoderState", "RateTerms",
    "RsrpTable", "RunRow", "RunSummary", "ScenarioConfig",
    "SolveResult", "SolverConfig", "SolverDivergence", "StepRecord", "Topology", "Weights",
    "WmmseState", "WsrObjective", "bisect_power", "bs_block_norms", "build_clusters",
    "central_difference", "complexity_probe", "compute_rsrp", "constraint_apply_G",
    "dbm_to_watt", "fd_gradient", "flow_multiplier", "gd_solve", "generate_channels",
    "generate_topology", "gradcheck", "load_channels", "load_config", "load_precoder",
    "nagd_solve", "newton_multiplier", "rattle_step", "renormalize_power", "run_experiment",
    "rzf_init", "save_channels", "save_precoder", "solve", "step_controller",
    "velocity_multiplier", "wmmse_iterate", "wmmse_step", "write_trace_csv",
]


# Adding a config key means adding its name here: every field is a value that a
# shipped preset, the benchmark or a test sets; the rest of the model is fixed.
CONFIG_FIELDS = [
    "B_sc", "K", "M_t", "carrier_freq_hz", "deployment_radius_m", "gamma", "gnb_count",
    "h0", "h_max", "init", "max_iters", "noise_dbm", "r_ctrl", "rel_tol", "sectors_per_gnb",
    "seeds", "theta", "tx_power_dbm", "wmmse_iters",
]


def test_exports_are_pinned():
    assert sorted(u.__all__) == EXPORTS
    assert all(hasattr(u, name) for name in EXPORTS)


def test_config_fields_are_pinned():
    assert sorted(f.name for f in dataclasses.fields(u.ScenarioConfig)) == CONFIG_FIELDS


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    converged, iterations, wsr_bits = capsys.readouterr().out.split()
    assert converged == "True"
    assert int(iterations) > 0
    assert float(wsr_bits) > 0.0


def test_import_loads_no_heavy_module_and_starts_no_thread():
    # import-time RSS: scipy alone adds about 27 MB; the WMMSE eigh worker and
    # concurrent.futures are loaded by the first sweep at M_t >= 48, and a
    # desk-scale sweep stays single-threaded
    script = (
        "import sys, threading\n"
        "import ucnprec as u\n"
        "from ucnprec.harness import build_instance\n"
        "def report():\n"
        "    loaded = [m for m in ('scipy', 'concurrent.futures') if m in sys.modules]\n"
        "    print(loaded, threading.enumerate() == [threading.main_thread()])\n"
        "report()\n"
        "cfg = u.load_config('configs/desk.cfg')\n"
        "_, ch, clusters = build_instance(cfg, 0)\n"
        "rho = cfg.power_budget()\n"
        "u.wmmse_step(u.rzf_init(ch, clusters, rho), ch, rho, cfg.weights())\n"
        "report()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[] True", "[] True"]
