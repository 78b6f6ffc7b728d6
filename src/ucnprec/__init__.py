"""Downlink precoder design for user-centric network massive MIMO.

A library and CLI that solves the per-BS-power-constrained weighted sum-rate
problem with a dissipative constrained-Hamiltonian iteration and benchmarks it
against RZF, WMMSE, GD and NAGD on synthetic multi-cell channels.
"""

from .baselines import (
    BisectionError,
    LineSearchConfig,
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
    PathlossParams,
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
    RealChannel,
    bs_block_norms,
    embed_channel,
    embed_precoder,
    extract_precoder,
    load_precoder,
    renormalize_power,
    save_precoder,
    stack,
    unstack,
)
from .harness import (
    ComplexityReport,
    OpCounter,
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
    g_value,
    gradient,
    rate_terms,
    wsr,
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

__all__ = [name for name in dir() if not name.startswith("_")]
