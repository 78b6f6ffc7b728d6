"""Dissipative constrained-Hamiltonian precoder solver.

The iteration integrates the flow of H(p_hat, q_hat) = ||q_hat||^2 / 2 +
g(p_hat) restricted to the per-BS full-power manifold phi(p_hat) = rho, with a
conformal momentum decay exp(-gamma h / 2) applied around each step. Each step
is one RATTLE update: a multiplier-corrected half kick, a drift, an optional
closed-form projection back to the power spheres, and a second half kick whose
multiplier re-establishes the velocity-level constraint p_hat_l . q_hat_l = 0
exactly. A proportional controller adapts the step size from a local
integration-error estimate.

The constraint Jacobian G has one row per BS containing that BS's stacked
precoder block (the 1/2-scaled Jacobian of the quadratic constraint; the
multipliers absorb the constant). G is never materialized: both G v and
G^T lam are per-BS block operations.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, ClusterMap
from .embedding import PowerBudget, PrecoderState, renormalize_power
from .objective import ObjectiveEval, Weights, WsrObjective

_HIDDEN_FLOOR = 1e-30


class SolverDivergence(RuntimeError):
    """Raised when an iterate stops being finite."""


@dataclass
class SolverConfig:
    """Hyper-parameters of the dissipative constrained solver."""

    gamma: float = 1.0  # dissipation coefficient, 1/time
    h0: float = 0.01  # initial step size
    r_ctrl: float = 1e-2  # controller reference error
    theta: float = 0.5  # controller exponent; 0 freezes the step size
    max_iters: int = 200
    rel_tol: float = 1e-5  # relative WSR-change stopping threshold
    project_positions: bool = True
    h_min: float = 1e-5
    h_max: float = 1.0
    delta_floor: float = 1e-30

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        if not self.h0 > 0:
            raise ValueError("h0 must be > 0")
        if not self.r_ctrl > 0:
            raise ValueError("r_ctrl must be > 0")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if not 0 < self.h_min <= self.h_max:
            raise ValueError("need 0 < h_min <= h_max")


@dataclass
class SymplecticStepRecord:
    """Diagnostics of one solver iteration.

    Baseline solvers reuse this record with the fields they do not produce set
    to None so all trace files share one schema.
    """

    lam: np.ndarray | None
    mu: np.ndarray | None
    delta: float | None
    h_used: float | None
    hamiltonian: float | None
    wsr_bits: float
    constraint_residual: float | None
    hidden_residual: float | None


@dataclass
class SolveResult:
    """Final precoder plus the full per-iteration trace."""

    precoder: PrecoderState
    trace: list
    converged: bool
    iterations: int


def constraint_apply_G(p: PrecoderState, v: PrecoderState) -> np.ndarray:
    """Apply the constraint Jacobian: entry l is p_hat_l . v_hat_l."""
    if not p.layout.same_as(v.layout):
        raise ValueError("states must share one layout")
    return _bs_dots(p.layout, p.blocks, v.blocks)


def flow_multiplier(
    p: PrecoderState, q: PrecoderState, grad: PrecoderState, rho: PowerBudget
) -> np.ndarray:
    """Continuous-time multiplier that keeps the flow tangent to the manifold.

    With unit mass: lam_l = (q_hat_l . q_hat_l - p_hat_l . grad_l) / rho_l,
    valid on the manifold where p_hat_l . p_hat_l = rho_l.
    """
    if rho.n_bs != p.layout.n_bs:
        raise ValueError("power budget length must match the number of BSs")
    return (constraint_apply_G(q, q) - constraint_apply_G(p, grad)) / rho.rho


def velocity_multiplier(
    p_next: PrecoderState,
    q_half: PrecoderState,
    grad_next: PrecoderState,
    rho: PowerBudget,
    h: float,
) -> np.ndarray:
    """Multiplier of the closing half kick, chosen so p_hat_l . q_hat_l = 0 after it.

    mu_l = (2 p_hat_l . q_half_l - h p_hat_l . grad_l) / (h rho_l).
    """
    if not h > 0:
        raise ValueError("h must be > 0")
    if rho.n_bs != p_next.layout.n_bs:
        raise ValueError("power budget length must match the number of BSs")
    num = 2.0 * constraint_apply_G(p_next, q_half) - h * constraint_apply_G(p_next, grad_next)
    return num / (h * rho.rho)


def _bs_dots(layout, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.add.reduce is what np.sum runs, without its Python-level dispatch
    return np.bincount(layout.row_bs, weights=np.add.reduce(a * b, axis=1), minlength=layout.n_bs)


def _bs_powers(layout, blocks: np.ndarray) -> np.ndarray:
    return _bs_dots(layout, blocks, blocks)


def _project_rows(layout, blocks: np.ndarray, rho: np.ndarray) -> np.ndarray:
    powers = _bs_powers(layout, blocks)
    scale = np.ones(layout.n_bs)
    mask = layout.nonempty_bs & (powers > 0)
    scale[mask] = np.sqrt(rho[mask] / powers[mask])
    return scale[layout.row_bs][:, None] * blocks


def rattle_step(
    p: PrecoderState,
    q: PrecoderState,
    config: SolverConfig,
    rho: PowerBudget,
    objective,
    h: float | None = None,
    grad_eval: ObjectiveEval | None = None,
    iteration: int | None = None,
):
    """One dissipative constrained step.

    Returns (p_next, q_next, record, eval_next); eval_next is the objective
    evaluation at p_next so the caller can feed it back as grad_eval and pay
    for a single gradient per iteration.
    """
    lay = p.layout
    if h is None:
        h = config.h0
    ev0 = grad_eval if grad_eval is not None else objective.evaluate(p)
    lam = flow_multiplier(p, q, ev0.grad, rho)
    decay = math.exp(-config.gamma * h / 2.0)
    row_bs = lay.row_bs

    force0 = ev0.grad.blocks + lam[row_bs][:, None] * p.blocks
    q_half_blocks = decay * q.blocks - 0.5 * h * force0
    p_next_blocks = p.blocks + h * q_half_blocks
    if config.project_positions:
        p_next_blocks = _project_rows(lay, p_next_blocks, rho.rho)
    if not np.isfinite(p_next_blocks).all():
        raise SolverDivergence(f"non-finite precoder at iteration {iteration}")
    # q_half is finite too: p_next = p + h * q_half (then rescaled) would not be
    p_next = PrecoderState.trusted(lay, p_next_blocks)
    q_half = PrecoderState.trusted(lay, q_half_blocks)

    ev1 = objective.evaluate(p_next)
    mu = velocity_multiplier(p_next, q_half, ev1.grad, rho, h)
    force1 = ev1.grad.blocks + mu[row_bs][:, None] * p_next.blocks
    q_next_blocks = decay * (q_half.blocks - 0.5 * h * force1)
    if not np.isfinite(q_next_blocks).all():
        raise SolverDivergence(f"non-finite momentum at iteration {iteration}")
    q_next = PrecoderState.trusted(lay, q_next_blocks)

    delta = float(
        np.linalg.norm(p.blocks - p_next.blocks - 0.5 * h * (ev0.grad.blocks + ev1.grad.blocks))
    )

    powers = _bs_powers(lay, p_next.blocks)
    mask = lay.nonempty_bs
    constraint_residual = (
        float(np.max(np.abs(powers[mask] - rho.rho[mask]) / rho.rho[mask])) if mask.any() else 0.0
    )
    dots = np.abs(constraint_apply_G(p_next, q_next))
    q_norms = np.sqrt(_bs_powers(lay, q_next.blocks))
    hidden = dots / (np.sqrt(powers) * q_norms + _HIDDEN_FLOOR)
    hidden_residual = float(hidden.max()) if hidden.size else 0.0

    record = SymplecticStepRecord(
        lam=lam,
        mu=mu,
        delta=delta,
        h_used=float(h),
        hamiltonian=0.5 * float(np.sum(q_next.blocks**2)) + ev1.g_value,
        wsr_bits=ev1.wsr_bits,
        constraint_residual=constraint_residual,
        hidden_residual=hidden_residual,
    )
    return p_next, q_next, record, ev1


def step_controller(delta: float, h: float, config: SolverConfig) -> float:
    """Proportional step-size update h' = (r / delta)^(theta/2) * h, clamped."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if not h > 0:
        raise ValueError("h must be > 0")
    if delta <= config.delta_floor:
        return config.h_max
    h_new = (config.r_ctrl / delta) ** (config.theta / 2.0) * h
    return float(np.clip(h_new, config.h_min, config.h_max))


def solve(
    ch: ChannelSet,
    clusters: ClusterMap,
    rho: PowerBudget,
    weights: Weights,
    init: PrecoderState,
    config: SolverConfig,
    objective: WsrObjective | None = None,
) -> SolveResult:
    """Run the dissipative constrained iteration from a full-power start.

    Stops once the relative WSR change stays below rel_tol for 3 consecutive
    iterations or the iteration cap is hit; returns the best iterate by WSR
    (the initial point included) together with the full trace.
    """
    if objective is None:
        objective = WsrObjective(ch, clusters, weights)
    p = renormalize_power(init, rho)
    q = PrecoderState.zeros(p.layout)

    ev = objective.evaluate(p)
    best_wsr = ev.wsr_bits
    best_state = p
    prev_wsr = ev.wsr_bits

    h = config.h0
    trace = []
    recent = deque(maxlen=3)
    converged = False
    for n in range(config.max_iters):
        p, q, record, ev = rattle_step(
            p, q, config, rho, objective, h=h, grad_eval=ev, iteration=n
        )
        trace.append(record)
        if record.wsr_bits > best_wsr:
            best_wsr = record.wsr_bits
            best_state = p
        rel = abs(record.wsr_bits - prev_wsr) / max(abs(prev_wsr), 1e-300)
        prev_wsr = record.wsr_bits
        recent.append(rel)
        if len(recent) == 3 and all(x < config.rel_tol for x in recent):
            converged = True
            break
        h = step_controller(record.delta, h, config)
    return SolveResult(
        precoder=best_state, trace=trace, converged=converged, iterations=len(trace)
    )


TRACE_COLUMNS = (
    "iter",
    "wsr_bits",
    "hamiltonian",
    "h_used",
    "delta",
    "constraint_residual",
    "hidden_residual",
    "lambda_min",
    "lambda_max",
)


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def write_trace_csv(path, trace: list) -> None:
    """Write one iteration per line in the shared trace schema.

    Columns a solver does not produce are left empty.
    """
    lines = [",".join(TRACE_COLUMNS)]
    for i, rec in enumerate(trace):
        lam_min = None if rec.lam is None else float(np.min(rec.lam))
        lam_max = None if rec.lam is None else float(np.max(rec.lam))
        cells = [
            str(i),
            _cell(rec.wsr_bits),
            _cell(rec.hamiltonian),
            _cell(rec.h_used),
            _cell(rec.delta),
            _cell(rec.constraint_residual),
            _cell(rec.hidden_residual),
            _cell(lam_min),
            _cell(lam_max),
        ]
        lines.append(",".join(cells))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
