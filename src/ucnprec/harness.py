"""Experiment harness: scenario config, seeded batch runs, and the CLI.

Configuration files are flat `key = value` text with `#` comments; unknown
and repeated keys are rejected. A run generates topology, channels and
clusters once per seed, executes each requested solver from a common initial
precoder, and writes per-run trace CSVs plus a deterministic summary CSV
(wall-clock times go to a separate timings CSV so summary bytes depend only
on config and seeds).
"""

import argparse
import dataclasses
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import baselines, symplectic
from .channel import build_clusters, compute_rsrp, generate_channels, generate_topology
from .embedding import BlockLayout, PowerBudget, PrecoderState, renormalize_power
from .objective import Weights, WsrObjective, fd_gradient
from .symplectic import SolverConfig, SolveResult, write_trace_csv

_INIT_STREAM = 2

KNOWN_SOLVERS = ("symplectic", "wmmse", "rzf", "gd", "nagd")


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment scenario; defaults are the desk-scale preset.

    Each field but `solver` is a `key = value` line in the config file, e.g.
    `gnb_count = 7` or `seeds = 0,1,2,3,4`, with its default here. The solver
    settings and their defaults live in `solver`, a SolverConfig, whose keys
    are listed in _SOLVER_KEYS. Construction checks every range.
    The rest of the system model (carrier, noise, heights, site spacing,
    pathloss, weights, the step controller's exponent theta, the GD/NAGD line
    search and momentum) is fixed where it is used.
    """

    # layout / population
    gnb_count: int = 7
    sectors_per_gnb: int = 1
    M_t: int = 16
    K: int = 20
    B_sc: int = 3
    deployment_radius_m: float = 300.0
    # radio
    tx_power_dbm: float = 12.0
    # experiment
    seeds: tuple = (0, 1, 2, 3, 4)
    # iteration budget and the dissipative solver's settings (SolverConfig checks them)
    solver: SolverConfig = SolverConfig()

    @property
    def n_bs(self) -> int:
        return self.gnb_count * self.sectors_per_gnb

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("gnb_count", "sectors_per_gnb", "M_t", "K"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 1 <= self.B_sc <= self.n_bs:
            raise ValueError(f"B_sc must lie in [1, {self.n_bs}], got {self.B_sc}")
        if self.deployment_radius_m <= 0:
            raise ValueError("deployment_radius_m must be > 0")
        if len(self.seeds) < 1:
            raise ValueError("seeds must list at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be nonnegative")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct: each seed writes its own trace files")

    def power_budget(self) -> PowerBudget:
        return PowerBudget.uniform_dbm(self.n_bs, self.tx_power_dbm)

    def weights(self) -> Weights:
        return Weights.uniform(self.K)


def _parse_seeds(text: str) -> tuple:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


# The config-file keys that load_config sends into ScenarioConfig.solver;
# SolverConfig's theta and project_positions are no keys
_SOLVER_KEYS = ("max_iters", "rel_tol", "gamma", "h0", "r_ctrl", "h_max")

_FIELD_PARSERS = {
    f.name: _parse_seeds if f.type is tuple else f.type
    for f in dataclasses.fields(ScenarioConfig)
    if f.name != "solver"
} | {f.name: f.type for f in dataclasses.fields(SolverConfig) if f.name in _SOLVER_KEYS}


def load_config(path) -> ScenarioConfig:
    """Parse a flat key=value config file; unknown or repeated keys and bad values are errors."""
    values = {}
    first_line = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _FIELD_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first_line:
                raise ValueError(
                    f"{path}:{lineno}: key {key!r} already set on line {first_line[key]}"
                )
            first_line[key] = lineno
            try:
                values[key] = _FIELD_PARSERS[key](text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    solver = {key: values.pop(key) for key in _SOLVER_KEYS if key in values}
    try:
        return ScenarioConfig(**values, solver=SolverConfig(**solver))
    except ValueError as exc:  # each message starts with the key it rejects
        key = str(exc).split(" ", 1)[0]
        if key not in first_line:
            raise
        raise ValueError(f"{path}:{first_line[key]}: {exc}") from None


@dataclass
class RunRow:
    """Summary of one (solver, seed) run."""

    solver: str
    seed: int
    wsr_bits: float
    iterations: int
    wall_time_s: float
    grad_evals: int
    multiply_adds: int
    converged: bool
    error: str = ""


@dataclass
class RunSummary:
    rows: list = field(default_factory=list)


# summary.csv holds every RunRow field but the wall time, which timings.csv holds
_SUMMARY_COLUMNS = tuple(f.name for f in dataclasses.fields(RunRow) if f.name != "wall_time_s")


def _summary_cell(value) -> str:
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ")
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr would name its type
    return str(int(value))  # converged as 0/1


def _write_summary(path, rows) -> None:
    lines = [",".join(_SUMMARY_COLUMNS)]
    for r in rows:
        lines.append(",".join(_summary_cell(getattr(r, name)) for name in _SUMMARY_COLUMNS))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _write_timings(path, rows) -> None:
    lines = ["solver,seed,wall_time_s"]
    for r in rows:
        lines.append(f"{r.solver},{r.seed},{r.wall_time_s:.6f}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def random_precoder(layout: BlockLayout, rho: PowerBudget, seed: int) -> PrecoderState:
    """Standard-normal real blocks renormalized to full per-BS power."""
    rng = np.random.default_rng([_INIT_STREAM, seed])
    blocks = rng.standard_normal((layout.n_blocks, layout.block_len))
    return renormalize_power(PrecoderState(layout, blocks, copy=False), rho)


def initial_precoder(config: ScenarioConfig, ch, clusters, rho, seed: int) -> PrecoderState:
    """Every solver's common start: the RZF precoder.

    config and seed are unused; the five parameters stay because
    perfbench/worker.py calls this and perfbench/tracer.py wraps it.
    """
    return baselines.rzf_init(ch, clusters, rho)


def build_instance(config: ScenarioConfig, seed: int):
    """Generate (topology, channels, clusters) for one seed of a scenario."""
    topo = generate_topology(config, seed)
    ch = generate_channels(topo, seed)
    clusters = build_clusters(compute_rsrp(ch), config.B_sc)
    return topo, ch, clusters


# Each iterative solver's module and function name. The function is looked up
# at call time, so one replaced on its module (as perfbench's tracer does) runs.
_SOLVERS = {
    "symplectic": (symplectic, "solve"),
    "wmmse": (baselines, "wmmse_iterate"),
    "gd": (baselines, "gd_solve"),
    "nagd": (baselines, "nagd_solve"),
}


def _dispatch(name, init, objective, rho, config: SolverConfig) -> SolveResult:
    if name == "rzf":  # the common start is the RZF precoder
        return SolveResult(precoder=init, trace=[], converged=True)
    module, attr = _SOLVERS[name]
    return getattr(module, attr)(init, objective, rho, config)


def run_experiment(config: ScenarioConfig, solvers, out_dir) -> RunSummary:
    """Run every requested solver on every seed and write trace + summary CSVs.

    Solver failures are recorded in their summary row, with no trace file,
    and do not abort the batch. Deterministic given (config, solvers): summary
    and trace bytes contain no timing data.
    """
    solvers = list(solvers)
    if not solvers:
        raise ValueError("need at least one solver")
    for name in solvers:
        if name not in KNOWN_SOLVERS:
            raise ValueError(f"unknown solver {name!r}; known: {', '.join(KNOWN_SOLVERS)}")
    if len(set(solvers)) != len(solvers):
        raise ValueError("solvers must be distinct: each solver writes its own trace files")
    os.makedirs(out_dir, exist_ok=True)

    summary = RunSummary()
    for seed in config.seeds:
        _, ch, clusters = build_instance(config, seed)
        rho = config.power_budget()
        weights = config.weights()
        init = initial_precoder(config, ch, clusters, rho, seed)
        for name in solvers:
            objective = WsrObjective(ch, clusters, weights)
            start = time.perf_counter()
            try:
                result = _dispatch(name, init, objective, rho, config.solver)
            except Exception as exc:  # recorded per row; the batch continues
                result, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            trace = os.path.join(out_dir, f"trace_{name}_seed{seed}.csv")
            if result is None:
                wsr, iterations, converged = float("nan"), 0, False
                if os.path.exists(trace):  # an earlier run's, which this row would contradict
                    os.remove(trace)
            else:
                wsr = objective.wsr_bits(result.precoder)
                iterations, converged, error = result.iterations, result.converged, ""
                write_trace_csv(trace, result.trace)
            summary.rows.append(
                RunRow(
                    solver=name,
                    seed=seed,
                    wsr_bits=wsr,
                    iterations=iterations,
                    wall_time_s=wall,
                    grad_evals=objective.grad_evals,
                    multiply_adds=objective.multiply_adds,
                    converged=converged,
                    error=error,
                )
            )
    _write_summary(os.path.join(out_dir, "summary.csv"), summary.rows)
    _write_timings(os.path.join(out_dir, "timings.csv"), summary.rows)
    return summary


def predicted_gradient_macs(clusters, M_t: int) -> float:
    """Nominal multiply-add count of one gradient evaluation.

    sum_l sum_{k in U_l} K |B_k| M_t for the per-pair terms plus
    M_t (K - 1) sum_t |B_t| for the interference energies.
    """
    K = clusters.n_ut
    sizes = clusters.cluster_sizes()
    per_pair = K * M_t * float(np.sum(sizes**2))
    interference = M_t * (K - 1) * float(np.sum(sizes))
    return per_pair + interference


@dataclass
class ProbeRow:
    M_t: int
    K: int
    B_sc: int
    measured: int
    predicted: float

    @property
    def ratio(self) -> float:
        return self.measured / self.predicted


@dataclass
class ComplexityReport:
    rows: list
    mt_doubling: list  # (K, B_sc, M_t_small, measured ratio) per adjacent M_t pair

    @property
    def min_ratio(self) -> float:
        return min(r.ratio for r in self.rows)

    @property
    def max_ratio(self) -> float:
        return max(r.ratio for r in self.rows)

    @property
    def max_mt_deviation(self) -> float:
        return max(abs(r[3] / 2.0 - 1.0) for r in self.mt_doubling)


def complexity_probe(
    config: ScenarioConfig,
    m_t_grid=(4, 8, 16),
    k_grid=(5, 10, 20),
    b_sc_grid=(1, 2, 3),
    seed: int = 0,
) -> ComplexityReport:
    """Measure multiply-adds per gradient evaluation over a (M_t, K, B_sc) grid.

    Compares instrumented counts against the nominal per-gradient count and
    reports the doubling factor between adjacent M_t values at fixed (K, B_sc).
    Cluster sizes above config's BS count are left out.
    """
    b_sc_grid = [b_sc for b_sc in b_sc_grid if b_sc <= config.n_bs]
    rows = []
    measured_at = {}
    for m_t in m_t_grid:
        for k_ut in k_grid:
            for b_sc in b_sc_grid:
                cfg = dataclasses.replace(config, M_t=m_t, K=k_ut, B_sc=b_sc)
                _, ch, clusters = build_instance(cfg, seed)
                rho = cfg.power_budget()
                state = random_precoder(BlockLayout(clusters, m_t), rho, seed)
                objective = WsrObjective(ch, clusters, cfg.weights())
                objective.evaluate(state)
                row = ProbeRow(
                    M_t=m_t,
                    K=k_ut,
                    B_sc=b_sc,
                    measured=objective.multiply_adds,
                    predicted=predicted_gradient_macs(clusters, m_t),
                )
                rows.append(row)
                measured_at[(m_t, k_ut, b_sc)] = objective.multiply_adds
    doubling = []
    for small, large in zip(m_t_grid[:-1], m_t_grid[1:]):
        if large != 2 * small:
            continue
        for k_ut in k_grid:
            for b_sc in b_sc_grid:
                ratio = measured_at[(large, k_ut, b_sc)] / measured_at[(small, k_ut, b_sc)]
                doubling.append((k_ut, b_sc, small, ratio))
    return ComplexityReport(rows=rows, mt_doubling=doubling)


def gradcheck(trials: int = 20) -> float:
    """Max relative L2 error between analytic and finite-difference gradients.

    Uses small instances (3 BSs, M_t = 4, K = 5, clusters of 2) seeded 0 to
    trials - 1, and central differences with step 1e-5.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst = 0.0
    cfg = ScenarioConfig(gnb_count=3, sectors_per_gnb=1, M_t=4, K=5, B_sc=2)
    for seed in range(trials):
        _, ch, clusters = build_instance(cfg, seed)
        rho = cfg.power_budget()
        state = random_precoder(BlockLayout(clusters, cfg.M_t), rho, seed)
        weights = cfg.weights()
        analytic = WsrObjective(ch, clusters, weights).evaluate(state).grad.blocks.ravel()
        numeric = fd_gradient(state, ch, clusters, weights, 1e-5).blocks.ravel()
        err = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        worst = max(worst, float(err))
    return worst


def _cmd_run(args) -> int:
    config = load_config(args.config)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    summary = run_experiment(config, solvers, args.out)
    failed = [r for r in summary.rows if r.error]
    print(f"wrote {len(summary.rows)} runs to {args.out}")
    for r in failed:
        print(f"error: solver {r.solver} seed {r.seed}: {r.error}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_probe(args) -> int:
    config = load_config(args.config) if args.config else ScenarioConfig()
    report = complexity_probe(config)
    print("M_t,K,B_sc,measured,predicted,ratio")
    for row in report.rows:
        print(f"{row.M_t},{row.K},{row.B_sc},{row.measured},{row.predicted:.0f},{row.ratio:.3f}")
    print(f"ratio range [{report.min_ratio:.3f}, {report.max_ratio:.3f}]")
    print(f"max M_t-doubling deviation from 2x: {report.max_mt_deviation * 100:.2f}%")
    return 0


def _cmd_gradcheck(args) -> int:
    worst = gradcheck(trials=args.trials)
    print(f"max relative gradient error over {args.trials} trials: {worst:.3e}")
    return 0 if worst < 1e-6 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ucnprec",
        description="Multi-cell downlink precoder experiments on synthetic channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run solvers over the configured seeds")
    run_p.add_argument("--config", required=True, help="path to a key=value config file")
    run_p.add_argument(
        "--solvers",
        default="symplectic,wmmse,rzf",
        help=f"comma-separated subset of: {', '.join(KNOWN_SOLVERS)}",
    )
    run_p.add_argument("--out", default="runs", help="output directory for CSV files")
    run_p.set_defaults(func=_cmd_run)

    probe_p = sub.add_parser("probe-complexity", help="instrument gradient cost scaling")
    probe_p.add_argument("--config", default=None, help="optional config file")
    probe_p.set_defaults(func=_cmd_probe)

    gc_p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    gc_p.add_argument("--trials", type=int, default=20)
    gc_p.set_defaults(func=_cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
