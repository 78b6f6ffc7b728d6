import dataclasses
import re
from pathlib import Path

import ucnprec as u
from conftest import run_python

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
    # import-time RSS: scipy alone adds about 27 MB. The helper thread, concurrent.futures
    # and the BLAS thread-count query are loaded by the first call at M_t >= 48, and a
    # desk-scale run stays single-threaded. numpy imports ctypes itself, so the query's
    # ctypes use shows as the looked-up function, not in sys.modules.
    script = (
        "import dataclasses, sys, tempfile, threading\n"
        "import ucnprec as u\n"
        "from ucnprec import helper\n"
        "def report():\n"
        "    loaded = [m for m in ('scipy', 'concurrent.futures') if m in sys.modules]\n"
        "    print(loaded, helper._blas_threads_fn is None, threading.active_count())\n"
        "report()\n"
        "cfg = dataclasses.replace(u.load_config('configs/desk.cfg'), seeds=(0,))\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    u.run_experiment(cfg, ['symplectic', 'wmmse', 'rzf', 'gd', 'nagd'], out)\n"
        "report()\n"
    )
    assert run_python(script).splitlines() == ["[] True 1", "[] True 1"]


def test_full_scale_work_starts_one_helper_thread():
    # the objective's GEMM split and WMMSE's eigh hand-off share one helper
    script = (
        "import threading\n"
        "import ucnprec as u\n"
        "from ucnprec import helper\n"
        "import conftest\n"
        "helper._cpus = lambda: 2\n"
        "ch, clusters, state = conftest.table1_shaped_instance()\n"
        "w = u.Weights.uniform(ch.n_ut)\n"
        "u.WsrObjective(ch, clusters, w).evaluate(state)\n"
        "u.wmmse_step(state, ch, u.PowerBudget.uniform(ch.n_bs, 1.0), w)\n"
        "print(sorted(t.name for t in threading.enumerate()))\n"
    )
    threads = run_python(script, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    assert threads.splitlines() == ["['MainThread', 'ucnprec-helper_0']"]
