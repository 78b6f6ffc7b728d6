import re
from pathlib import Path

import ucnprec as u

README = Path(__file__).resolve().parent.parent / "README.md"

# Adding public API means adding its name here: the package exports only what a
# solver, the CLI or a test oracle uses.
EXPORTS = [
    "BisectionError", "BlockLayout", "ChannelSet", "ClusterMap", "ComplexityReport",
    "LineSearchConfig", "ObjectiveEval", "OpCounter", "PathlossParams", "PowerBudget",
    "PrecoderState", "RateTerms", "RsrpTable", "RunRow", "RunSummary", "ScenarioConfig",
    "SolveResult", "SolverConfig", "SolverDivergence", "StepRecord", "Topology", "Weights",
    "WmmseState", "WsrObjective", "bisect_power", "bs_block_norms", "build_clusters",
    "central_difference", "complexity_probe", "compute_rsrp", "constraint_apply_G",
    "dbm_to_watt", "fd_gradient", "flow_multiplier", "gd_solve", "generate_channels",
    "generate_topology", "gradcheck", "load_channels", "load_config", "load_precoder",
    "nagd_solve", "newton_multiplier", "rattle_step", "renormalize_power", "run_experiment",
    "rzf_init", "save_channels", "save_precoder", "solve", "step_controller",
    "velocity_multiplier", "wmmse_iterate", "wmmse_step", "write_trace_csv",
]


def test_exports_are_pinned():
    assert sorted(u.__all__) == EXPORTS
    assert all(hasattr(u, name) for name in EXPORTS)


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    converged, iterations, wsr_bits = capsys.readouterr().out.split()
    assert converged == "True"
    assert int(iterations) > 0
    assert float(wsr_bits) > 0.0
