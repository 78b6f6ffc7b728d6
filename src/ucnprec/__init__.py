"""Downlink precoder design for user-centric network massive MIMO.

A library and CLI that solves the per-BS-power-constrained weighted sum-rate
problem with a dissipative constrained-Hamiltonian iteration and benchmarks it
against RZF, WMMSE, GD and NAGD on synthetic multi-cell channels.
"""

from types import ModuleType as _ModuleType

from .baselines import (
    BisectionError,
    WmmseState,
    bisect_power,
    gd_solve,
    nagd_solve,
    newton_multiplier,
    rzf_init,
    wmmse_iterate,
    wmmse_step,
)
from .channel import (
    ChannelSet,
    ClusterMap,
    RsrpTable,
    Topology,
    build_clusters,
    compute_rsrp,
    dbm_to_watt,
    generate_channels,
    generate_topology,
    load_channels,
    save_channels,
)
from .embedding import (
    BlockLayout,
    PowerBudget,
    PrecoderState,
    bs_block_norms,
    load_precoder,
    renormalize_power,
    save_precoder,
)
from .harness import (
    ComplexityReport,
    RunRow,
    RunSummary,
    ScenarioConfig,
    complexity_probe,
    gradcheck,
    load_config,
    run_experiment,
)
from .objective import (
    ObjectiveEval,
    RateTerms,
    Weights,
    WsrObjective,
    central_difference,
    fd_gradient,
)
from .symplectic import (
    SolveResult,
    SolverConfig,
    SolverDivergence,
    StepRecord,
    constraint_apply_G,
    flow_multiplier,
    rattle_step,
    solve,
    step_controller,
    velocity_multiplier,
    write_trace_csv,
)

# the submodules themselves are importable but not star-exported
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
