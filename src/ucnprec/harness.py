"""Experiment harness: scenario config, seeded batch runs, and the CLI.

Configuration files are flat `key = value` text with `#` comments; unknown
keys are rejected. A run generates topology, channels and clusters once per
seed, executes each requested solver from a common initial precoder, and
writes per-run trace CSVs plus a deterministic summary CSV (wall-clock times
go to a separate timings CSV so summary bytes depend only on config and
seeds).
"""

import argparse
import dataclasses
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import baselines, symplectic
from .channel import PathlossParams, build_clusters, compute_rsrp, generate_channels, generate_topology
from .embedding import BlockLayout, PowerBudget, PrecoderState, renormalize_power
from .objective import OpCounter, Weights, WsrObjective, gradient, fd_gradient
from .symplectic import SolverConfig, SolveResult, write_trace_csv

_INIT_STREAM = 2

KNOWN_SOLVERS = ("symplectic", "wmmse", "rzf", "gd", "nagd")


@dataclass
class ScenarioConfig:
    """One experiment scenario; defaults are the desk-scale preset.

    Every field is a `key = value` line in the config file, e.g.
    `gnb_count = 7` or `seeds = 0,1,2,3,4`. Optional fields accept `none`.
    """

    # layout / population
    gnb_count: int = 7
    sectors_per_gnb: int = 1
    M_t: int = 16
    K: int = 20
    B_sc: int = 3
    deployment_radius_m: float = 300.0
    isd_m: float | None = None  # default: deployment_radius_m / 2
    carrier_freq_hz: float = 6.7e9
    bs_height_m: float = 25.0
    ut_height_m: float = 1.5
    # radio
    noise_dbm: float = -104.0
    tx_power_dbm: float = 12.0
    uniform_weight: float = 1.0
    pl_exponent: float = 3.0
    pl0_db: float | None = None  # default: 32.4 + 20 log10(f / 1 GHz)
    sector_phi3db_deg: float = 65.0
    sector_backlobe_db: float = 30.0
    # experiment
    seeds: tuple = (0, 1, 2, 3, 4)
    init: str = "rzf"  # rzf | random
    max_iters: int = 200
    rel_tol: float = 1e-4
    # dissipative solver (desk-calibrated; see configs/ for other presets)
    gamma: float = 20.0
    h0: float = 0.002
    r_ctrl: float = 0.25
    theta: float = 0.5
    h_min: float = 1e-5
    h_max: float = 0.005
    project_positions: bool = True
    # baselines
    wmmse_iters: int | None = None  # default: max_iters
    armijo_alpha0: float = 1.0
    armijo_backtrack: float = 0.5
    armijo_c1: float = 1e-4
    armijo_max_backtracks: int = 30
    nagd_momentum: float = 0.9

    @property
    def n_bs(self) -> int:
        return self.gnb_count * self.sectors_per_gnb

    def validate(self) -> None:
        for name in ("gnb_count", "sectors_per_gnb", "M_t", "K", "max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 1 <= self.B_sc <= self.n_bs:
            raise ValueError(f"B_sc must lie in [1, {self.n_bs}], got {self.B_sc}")
        if self.deployment_radius_m <= 0:
            raise ValueError("deployment_radius_m must be > 0")
        if self.isd_m is not None and self.isd_m <= 0:
            raise ValueError("isd_m must be > 0")
        if self.carrier_freq_hz <= 0:
            raise ValueError("carrier_freq_hz must be > 0")
        if self.uniform_weight <= 0:
            raise ValueError("uniform_weight must be > 0")
        if self.init not in ("rzf", "random"):
            raise ValueError(f"init must be 'rzf' or 'random', got {self.init!r}")
        if len(self.seeds) < 1:
            raise ValueError("need at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be nonnegative")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct: each seed writes its own trace files")
        if self.wmmse_iters is not None and self.wmmse_iters < 1:
            raise ValueError("wmmse_iters must be >= 1")
        if not 0.0 <= self.nagd_momentum < 1.0:
            raise ValueError("nagd_momentum must lie in [0, 1)")
        # delegate the remaining range checks to the dataclasses they feed
        self.solver_config()
        self.line_search_config()

    def pathloss_params(self) -> PathlossParams:
        return PathlossParams(
            exponent=self.pl_exponent,
            pl0_db=self.pl0_db,
            phi_3db_deg=self.sector_phi3db_deg,
            backlobe_db=self.sector_backlobe_db,
        )

    def power_budget(self) -> PowerBudget:
        return PowerBudget.uniform_dbm(self.n_bs, self.tx_power_dbm)

    def weights(self) -> Weights:
        return Weights.uniform(self.K, self.uniform_weight)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            gamma=self.gamma,
            h0=self.h0,
            r_ctrl=self.r_ctrl,
            theta=self.theta,
            max_iters=self.max_iters,
            rel_tol=self.rel_tol,
            project_positions=self.project_positions,
            h_min=self.h_min,
            h_max=self.h_max,
        )

    def line_search_config(self) -> baselines.LineSearchConfig:
        return baselines.LineSearchConfig(
            alpha0=self.armijo_alpha0,
            backtrack=self.armijo_backtrack,
            c1=self.armijo_c1,
            max_backtracks=self.armijo_max_backtracks,
        )


def high_power_preset(**overrides) -> ScenarioConfig:
    """Interference-limited comparison preset: 24 dBm with an edge-riding controller.

    Used for the solver head-to-head runs; the stopping rule is effectively
    disabled so every solver spends its full iteration budget.
    """
    params = dict(
        tx_power_dbm=24.0,
        gamma=8.0,
        h0=0.01,
        r_ctrl=1.0,
        theta=0.5,
        h_max=1.0,
        rel_tol=1e-12,
        max_iters=50,
    )
    params.update(overrides)
    return dataclasses.replace(ScenarioConfig(), **params)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_seeds(text: str) -> tuple:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _optional(parser):
    def parse(text):
        if text.lower() in ("none", ""):
            return None
        return parser(text)

    return parse


_FIELD_PARSERS = {
    "gnb_count": int,
    "sectors_per_gnb": int,
    "M_t": int,
    "K": int,
    "B_sc": int,
    "deployment_radius_m": float,
    "isd_m": _optional(float),
    "carrier_freq_hz": float,
    "bs_height_m": float,
    "ut_height_m": float,
    "noise_dbm": float,
    "tx_power_dbm": float,
    "uniform_weight": float,
    "pl_exponent": float,
    "pl0_db": _optional(float),
    "sector_phi3db_deg": float,
    "sector_backlobe_db": float,
    "seeds": _parse_seeds,
    "init": str,
    "max_iters": int,
    "rel_tol": float,
    "gamma": float,
    "h0": float,
    "r_ctrl": float,
    "theta": float,
    "h_min": float,
    "h_max": float,
    "project_positions": _parse_bool,
    "wmmse_iters": _optional(int),
    "armijo_alpha0": float,
    "armijo_backtrack": float,
    "armijo_c1": float,
    "armijo_max_backtracks": int,
    "nagd_momentum": float,
}


def load_config(path) -> ScenarioConfig:
    """Parse a flat key=value config file; unknown keys and bad values are errors."""
    values = {}
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
            try:
                values[key] = _FIELD_PARSERS[key](text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    config = ScenarioConfig(**values)
    config.validate()
    return config


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

    def row(self, solver: str, seed: int) -> RunRow:
        for r in self.rows:
            if r.solver == solver and r.seed == seed:
                return r
        raise KeyError(f"no row for ({solver}, {seed})")


_SUMMARY_COLUMNS = (
    "solver",
    "seed",
    "wsr_bits",
    "iterations",
    "grad_evals",
    "multiply_adds",
    "converged",
    "error",
)


def _write_summary(path, rows) -> None:
    lines = [",".join(_SUMMARY_COLUMNS)]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.solver,
                    str(r.seed),
                    repr(float(r.wsr_bits)),
                    str(r.iterations),
                    str(r.grad_evals),
                    str(r.multiply_adds),
                    str(int(r.converged)),
                    r.error.replace(",", ";").replace("\n", " "),
                ]
            )
        )
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
    if config.init == "rzf":
        return baselines.rzf_init(ch, clusters, rho)
    return random_precoder(BlockLayout(clusters, ch.M_t), rho, seed)


def build_instance(config: ScenarioConfig, seed: int):
    """Generate (topology, channels, clusters) for one seed of a scenario."""
    topo = generate_topology(config, seed)
    ch = generate_channels(topo, seed, config.pathloss_params(), config.noise_dbm)
    clusters = build_clusters(compute_rsrp(ch), config.B_sc)
    return topo, ch, clusters


def _dispatch(name, config, ch, clusters, rho, weights, init, objective) -> SolveResult:
    if name == "rzf":
        state = init if config.init == "rzf" else baselines.rzf_init(ch, clusters, rho)
        return SolveResult(precoder=state, trace=[], converged=True, iterations=0)
    if name == "symplectic":
        return symplectic.solve(
            ch, clusters, rho, weights, init, config.solver_config(), objective=objective
        )
    if name == "wmmse":
        n_iters = config.wmmse_iters if config.wmmse_iters is not None else config.max_iters
        state, wsr_trace = baselines.wmmse_iterate(init, ch, clusters, rho, weights, n_iters)
        trace = [
            symplectic.SymplecticStepRecord(
                lam=None,
                mu=None,
                delta=None,
                h_used=None,
                hamiltonian=None,
                wsr_bits=float(v),
                constraint_residual=None,
                hidden_residual=None,
            )
            for v in wsr_trace
        ]
        return SolveResult(precoder=state, trace=trace, converged=True, iterations=len(trace))
    if name == "gd":
        return baselines.gd_solve(
            init, objective, rho, config.line_search_config(), config.max_iters, config.rel_tol
        )
    if name == "nagd":
        return baselines.nagd_solve(
            init,
            objective,
            rho,
            config.nagd_momentum,
            config.line_search_config(),
            config.max_iters,
            config.rel_tol,
        )
    raise ValueError(f"unknown solver {name!r}")


def run_experiment(config: ScenarioConfig, solvers, out_dir) -> RunSummary:
    """Run every requested solver on every seed and write trace + summary CSVs.

    Solver failures are recorded in their summary row and do not abort the
    batch. Deterministic given (config, solvers): summary and trace bytes
    contain no timing data.
    """
    config.validate()
    solvers = list(solvers)
    for name in solvers:
        if name not in KNOWN_SOLVERS:
            raise ValueError(f"unknown solver {name!r}; known: {', '.join(KNOWN_SOLVERS)}")
    os.makedirs(out_dir, exist_ok=True)

    summary = RunSummary()
    for seed in config.seeds:
        _, ch, clusters = build_instance(config, seed)
        rho = config.power_budget()
        weights = config.weights()
        init = initial_precoder(config, ch, clusters, rho, seed)
        for name in solvers:
            counter = OpCounter()
            objective = WsrObjective(ch, clusters, weights, counter)
            start = time.perf_counter()
            try:
                result = _dispatch(name, config, ch, clusters, rho, weights, init, objective)
            except Exception as exc:  # recorded per row; the batch continues
                summary.rows.append(
                    RunRow(
                        solver=name,
                        seed=seed,
                        wsr_bits=float("nan"),
                        iterations=0,
                        wall_time_s=time.perf_counter() - start,
                        grad_evals=objective.grad_evals,
                        multiply_adds=counter.multiply_adds,
                        converged=False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            wall = time.perf_counter() - start
            final_wsr = objective.wsr_bits(result.precoder)
            write_trace_csv(os.path.join(out_dir, f"trace_{name}_seed{seed}.csv"), result.trace)
            summary.rows.append(
                RunRow(
                    solver=name,
                    seed=seed,
                    wsr_bits=final_wsr,
                    iterations=result.iterations,
                    wall_time_s=wall,
                    grad_evals=objective.grad_evals,
                    multiply_adds=counter.multiply_adds,
                    converged=result.converged,
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
    max_ratio: float
    min_ratio: float
    mt_doubling: list  # (K, B_sc, M_t_small, measured ratio) per adjacent M_t pair

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
    """
    rows = []
    measured_at = {}
    for m_t in m_t_grid:
        for k_ut in k_grid:
            for b_sc in b_sc_grid:
                cfg = dataclasses.replace(config, M_t=m_t, K=k_ut, B_sc=b_sc)
                cfg.validate()
                _, ch, clusters = build_instance(cfg, seed)
                rho = cfg.power_budget()
                counter = OpCounter()
                state = random_precoder(BlockLayout(clusters, m_t), rho, seed)
                gradient(state, ch, clusters, cfg.weights(), counter)
                row = ProbeRow(
                    M_t=m_t,
                    K=k_ut,
                    B_sc=b_sc,
                    measured=counter.multiply_adds,
                    predicted=predicted_gradient_macs(clusters, m_t),
                )
                rows.append(row)
                measured_at[(m_t, k_ut, b_sc)] = counter.multiply_adds
    doubling = []
    for small, large in zip(m_t_grid[:-1], m_t_grid[1:]):
        if large != 2 * small:
            continue
        for k_ut in k_grid:
            for b_sc in b_sc_grid:
                ratio = measured_at[(large, k_ut, b_sc)] / measured_at[(small, k_ut, b_sc)]
                doubling.append((k_ut, b_sc, small, ratio))
    ratios = [r.ratio for r in rows]
    return ComplexityReport(
        rows=rows, max_ratio=max(ratios), min_ratio=min(ratios), mt_doubling=doubling
    )


def gradcheck(trials: int = 20, seed0: int = 0, eps: float = 1e-5) -> float:
    """Max relative L2 error between analytic and finite-difference gradients.

    Uses seeded small instances (3 BSs, M_t = 4, K = 5, clusters of 2).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst = 0.0
    cfg = ScenarioConfig(gnb_count=3, sectors_per_gnb=1, M_t=4, K=5, B_sc=2)
    for i in range(trials):
        seed = seed0 + i
        _, ch, clusters = build_instance(cfg, seed)
        rho = cfg.power_budget()
        state = random_precoder(BlockLayout(clusters, cfg.M_t), rho, seed)
        weights = cfg.weights()
        analytic = gradient(state, ch, clusters, weights).blocks.ravel()
        numeric = fd_gradient(state, ch, clusters, weights, eps).blocks.ravel()
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
