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

iterate() is the loop this solver, GD and NAGD share: the stopping rule,
the best-iterate choice, the trace and the stall rule exist only there.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, ClusterMap
from .embedding import PowerBudget, PrecoderState, power_residual, renormalize_power
from .objective import ObjectiveEval, Weights, WsrObjective

_HIDDEN_FLOOR = 1e-30
_DELTA_FLOOR = 1e-30  # error estimates at or below this take the largest step
_MAX_STALLS = 10  # failed line searches in a row that end a run


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


@dataclass(kw_only=True)
class StepRecord:
    """Diagnostics of one solver iteration; one trace schema for every solver.

    A solver leaves the fields it does not produce at None.
    """

    lam: np.ndarray | None = None
    mu: np.ndarray | None = None
    delta: float | None = None
    h_used: float | None = None
    hamiltonian: float | None = None
    wsr_bits: float
    constraint_residual: float | None = None
    hidden_residual: float | None = None


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
    dots = np.abs(constraint_apply_G(p_next, q_next))
    q_norms = np.sqrt(_bs_powers(lay, q_next.blocks))
    hidden = dots / (np.sqrt(powers) * q_norms + _HIDDEN_FLOOR)
    hidden_residual = float(hidden.max()) if hidden.size else 0.0

    record = StepRecord(
        lam=lam,
        mu=mu,
        delta=delta,
        h_used=float(h),
        hamiltonian=0.5 * float(np.sum(q_next.blocks**2)) + ev1.g_value,
        wsr_bits=ev1.wsr_bits,
        constraint_residual=power_residual(lay, powers, rho),
        hidden_residual=hidden_residual,
    )
    return p_next, q_next, record, ev1


def step_controller(delta: float, h: float, config: SolverConfig) -> float:
    """Proportional step-size update h' = (r / delta)^(theta/2) * h, clamped."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if not h > 0:
        raise ValueError("h must be > 0")
    if delta <= _DELTA_FLOOR:
        return config.h_max
    h_new = (config.r_ctrl / delta) ** (config.theta / 2.0) * h
    return float(np.clip(h_new, config.h_min, config.h_max))


def settled(wsrs, rel_tol: float) -> bool:
    """The stopping rule: the last three relative changes in wsrs are all below rel_tol."""
    last = wsrs[-4:]
    return len(last) == 4 and all(
        abs(b - a) / max(abs(a), 1e-300) < rel_tol for a, b in zip(last[:-1], last[1:])
    )


def iterate(step, p, wsr: float, max_iters: int, rel_tol: float) -> SolveResult:
    """The iteration loop every gradient-based solver shares.

    step(p, wsr) returns (p_next, record), with record.wsr_bits the WSR at
    p_next, or None once the gradient vanishes (converged). Returning p itself
    marks a failed line search: it empties the stopping rule's window, and
    _MAX_STALLS in a row end the run unconverged. The run converges when
    settled() holds for the WSRs since the last failure or the start. Returns
    the best iterate by WSR (the start included) and one record per step.
    """
    best, best_wsr = p, wsr
    window = [wsr]
    trace = []
    stalls = 0
    converged = False
    for _ in range(max_iters):
        out = step(p, wsr)
        if out is None:
            converged = True
            break
        p_next, record = out
        trace.append(record)
        if p_next is p:
            stalls += 1
            window = [wsr]
            if stalls == _MAX_STALLS:
                break
            continue
        stalls = 0
        p, wsr = p_next, record.wsr_bits
        if wsr > best_wsr:
            best, best_wsr = p, wsr
        window.append(wsr)
        if settled(window, rel_tol):
            converged = True
            break
    return SolveResult(precoder=best, trace=trace, converged=converged, iterations=len(trace))


def solve(
    ch: ChannelSet,
    clusters: ClusterMap,
    rho: PowerBudget,
    weights: Weights,
    init: PrecoderState,
    config: SolverConfig,
    objective: WsrObjective | None = None,
) -> SolveResult:
    """Run the dissipative constrained iteration from a full-power start through iterate()."""
    if objective is None:
        objective = WsrObjective(ch, clusters, weights)
    start = [renormalize_power(init, rho)]
    q = PrecoderState.zeros(init.layout)
    ev = objective.evaluate(start[0])
    h = config.h0
    n = 0

    def step(p, wsr):
        nonlocal q, ev, h, n
        p, q, record, ev = rattle_step(p, q, config, rho, objective, h=h, grad_eval=ev, iteration=n)
        n += 1
        h = step_controller(record.delta, h, config)
        return p, record

    # popped, not named: this frame must not keep the start alive once iterate() drops it
    return iterate(step, start.pop(), ev.wsr_bits, config.max_iters, config.rel_tol)


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
