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

Apart from its two evaluations and four reductions over all BSs (the error
estimate's norm, the Hamiltonian's sum of q_hat^2, the largest hidden residual
and the power residual), a step is local to each BS's contiguous rows, so
rattle_step writes that row work as two closures over a slice of BSs and
their rows, kick_drift before evaluate(p_next) and kick_close after it, and
hands each to helper.split_bs_loop; helper.py has its gate and objective.py
why both routes give the same bits. solve() carries G(q, q) and
G(p, grad) from step to step: they equal the previous step's G(q_next, q_next)
and G(p_next, grad_next) bit for bit.

iterate() is the loop this solver, GD and NAGD share: the stopping rule,
the best-iterate choice, the trace and the stall rule exist only there.
solve() and the baselines' wmmse_iterate, gd_solve and nagd_solve share one
call shape, solver(init, objective, rho, config) -> SolveResult.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import helper
from .embedding import PowerBudget, PrecoderState, power_residual, renormalize_power
from .objective import ObjectiveEval, WsrObjective

_HIDDEN_FLOOR = 1e-30
_DELTA_FLOOR = 1e-30  # error estimates at or below this take the largest step
_MAX_STALLS = 10  # failed line searches in a row that end a run
_H_MIN = 1e-5  # smallest step the controller takes


class SolverDivergence(RuntimeError):
    """Raised when an iterate stops being finite."""


@dataclass(frozen=True)
class SolverConfig:
    """Hyper-parameters of the dissipative constrained solver; defaults are the desk preset.

    The one declaration of these settings, their defaults and their checks:
    ScenarioConfig.solver holds one, and a config file sets each field but
    theta and project_positions. max_iters and rel_tol bound GD and NAGD too;
    WMMSE always runs max_iters sweeps, and rel_tol only sets its converged flag.
    """

    gamma: float = 20.0  # dissipation coefficient, 1/time
    h0: float = 0.002  # initial step size
    r_ctrl: float = 0.25  # controller reference error
    theta: float = 0.5  # controller exponent; 0 freezes the step size
    max_iters: int = 200
    rel_tol: float = 1e-4  # relative WSR-change stopping threshold
    project_positions: bool = True
    h_max: float = 0.005  # largest step the controller takes; at least _H_MIN

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
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
        if not self.h_max >= _H_MIN:
            raise ValueError(f"h_max must be >= {_H_MIN}")


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

    @property
    def iterations(self) -> int:
        return len(self.trace)


def _bs_dots(row_bs, a: np.ndarray, b: np.ndarray, n: int, work) -> np.ndarray:
    """Per-BS sums of the row dots of a and b, for the first n BSs; row_bs names each row's BS.

    work receives the elementwise products.
    """
    # np.add.reduce is what np.sum runs, without its Python-level dispatch
    rows = np.add.reduce(np.multiply(a, b, out=work), axis=1)
    return np.bincount(row_bs, weights=rows, minlength=n)


def rattle_step(
    p: PrecoderState,
    q: PrecoderState,
    config: SolverConfig,
    rho: PowerBudget,
    objective,
    h: float | None = None,
    grad_eval: ObjectiveEval | None = None,
    iteration: int | None = None,
    carry: list | None = None,
):
    """One dissipative constrained step.

    Returns (p_next, q_next, record, eval_next); eval_next is the objective
    evaluation at p_next so the caller can feed it back as grad_eval and pay
    for a single gradient per iteration.

    carry passes two per-BS dots from one step to the next. A list that is
    empty or holds [G(q, q), G(p, grad_eval.grad)] on entry holds
    [G(q_next, q_next), G(p_next, eval_next.grad)] on return; the step uses
    the values it holds instead of recomputing them, with the same bits.
    solve() passes one list to all its steps.

    The row work runs through helper.split_bs_loop in two closures, around
    evaluate(p_next); see the module docstring.
    """
    lay = p.layout
    if h is None:
        h = config.h0
    if not h > 0:
        raise ValueError("h must be > 0")
    if rho.n_bs != lay.n_bs:
        raise ValueError("power budget length must match the number of BSs")
    ev0 = grad_eval if grad_eval is not None else objective.evaluate(p)
    if not (q.layout.same_as(lay) and ev0.grad.layout.same_as(lay)):
        raise ValueError("states must share one layout")
    decay = math.exp(-config.gamma * h / 2.0)
    n_bs, shape = lay.n_bs, p.blocks.shape
    qq, pg = carry if carry else (np.empty(n_bs), np.empty(n_bs))
    lam = np.empty(n_bs)
    # q_next holds q_half, the half-kicked momentum, until the closing kick
    p_next, q_next = np.empty(shape), np.empty(shape)

    # The step's two halves for the BSs bs and their rows. Each writes only those
    # rows and BSs' entries, with the one-thread step's operations in the same
    # order, so helper.split_bs_loop may run them split or inline.

    def kick_drift(bs, rows):
        """lam, the half kick to q_half, the drift to p_next and its projection."""
        n, row_bs, qh, p1 = bs.stop, lay.row_bs[rows], q_next[rows], p_next[rows]
        p0, q0, g0 = p.blocks[rows], q.blocks[rows], ev0.grad.blocks[rows]
        w = np.empty(p0.shape)  # scratch, freed before evaluate(p_next)
        if not carry:  # G(q, q) and G(p, g0)
            qq[bs] = _bs_dots(row_bs, q0, q0, n, w)[bs]
            pg[bs] = _bs_dots(row_bs, p0, g0, n, w)[bs]
        lam[bs] = (qq[bs] - pg[bs]) / rho.rho[bs]
        force = np.multiply(lam[row_bs][:, None], p0, out=w)
        force += g0
        force *= 0.5 * h
        np.multiply(q0, decay, out=qh)
        qh -= force
        np.multiply(qh, h, out=p1)
        p1 += p0
        if config.project_positions:
            drifted = _bs_dots(row_bs, p1, p1, n, w)
            # 1 where a BS has no power to scale (no rows, or all of them zero)
            scale = np.sqrt(np.divide(rho.rho[:n], drifted, out=np.ones(n), where=drifted > 0))
            p1 *= scale[row_bs][:, None]
        if not np.isfinite(p1).all():
            raise SolverDivergence(f"non-finite precoder at iteration {iteration}")

    helper.split_bs_loop(lay, kick_drift)
    # q_half is finite too: p_next = p + h * q_half (then rescaled) would not be
    p_state = PrecoderState.trusted(lay, p_next)

    ev1 = objective.evaluate(p_state)
    pg1, mu, powers, pq_next, qq_next = np.empty((5, n_bs))
    work, delta_rows = np.empty(shape), np.empty(shape)

    def kick_close(bs, rows):
        """mu, the closing half kick to q_next, the error-estimate rows and the residual dots."""
        n, row_bs, w, q1 = bs.stop, lay.row_bs[rows], work[rows], q_next[rows]
        p0, p1, delta = p.blocks[rows], p_next[rows], delta_rows[rows]
        g0, g1 = ev0.grad.blocks[rows], ev1.grad.blocks[rows]
        pq = _bs_dots(row_bs, p1, q1, n, w)[bs]  # q1 holds q_half until the kick
        pg1[bs] = _bs_dots(row_bs, p1, g1, n, w)[bs]
        mu[bs] = (2.0 * pq - h * pg1[bs]) / (h * rho.rho[bs])
        force = np.multiply(mu[row_bs][:, None], p1, out=w)
        force += g1
        force *= 0.5 * h
        q1 -= force
        q1 *= decay
        if not np.isfinite(q1).all():
            raise SolverDivergence(f"non-finite momentum at iteration {iteration}")
        # p - p_next - h/2 (g0 + g1), the error estimate's rows
        np.add(g0, g1, out=delta)
        delta *= 0.5 * h
        np.subtract(np.subtract(p0, p1, out=w), delta, out=delta)
        powers[bs] = _bs_dots(row_bs, p1, p1, n, w)[bs]
        pq_next[bs] = _bs_dots(row_bs, p1, q1, n, w)[bs]
        qq_next[bs] = _bs_dots(row_bs, q1, q1, n, w)[bs]

    helper.split_bs_loop(lay, kick_close)
    if carry is not None:
        carry[:] = (qq_next, pg1)

    hidden = np.abs(pq_next) / (np.sqrt(powers) * np.sqrt(qq_next) + _HIDDEN_FLOOR)
    flat_delta = delta_rows.ravel()
    record = StepRecord(
        lam=lam,
        mu=mu,
        # np.linalg.norm's sqrt(x . x), without its Python-level checks
        delta=math.sqrt(flat_delta.dot(flat_delta)),
        h_used=float(h),
        # work holds q_next**2, the products of kick_close's last dots
        hamiltonian=0.5 * float(np.add.reduce(work, axis=None)) + ev1.g_value,
        wsr_bits=ev1.wsr_bits,
        constraint_residual=power_residual(lay, powers, rho),
        hidden_residual=float(np.maximum.reduce(hidden)) if n_bs else 0.0,
    )
    return p_state, PrecoderState.trusted(lay, q_next), record, ev1


def step_controller(delta: float, h: float, config: SolverConfig) -> float:
    """Proportional step-size update h' = (r / delta)^(theta/2) * h, clamped."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if not h > 0:
        raise ValueError("h must be > 0")
    if delta <= _DELTA_FLOOR:
        return config.h_max
    h_new = (config.r_ctrl / delta) ** (config.theta / 2.0) * h
    return float(min(max(h_new, _H_MIN), config.h_max))


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
    return SolveResult(precoder=best, trace=trace, converged=converged)


def solve(
    init: PrecoderState, objective: WsrObjective, rho: PowerBudget, config: SolverConfig
) -> SolveResult:
    """Run the dissipative constrained iteration from a full-power start through iterate()."""
    start = [renormalize_power(init, rho)]
    q = PrecoderState.zeros(init.layout)
    ev = objective.evaluate(start[0])
    h = config.h0
    n = 0
    carry = []  # per-BS dots each step hands to the next

    def step(p, wsr):
        nonlocal q, ev, h, n
        p, q, record, ev = rattle_step(
            p, q, config, rho, objective, h=h, grad_eval=ev, iteration=n, carry=carry
        )
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
        lam_min = None if rec.lam is None else rec.lam.min()
        lam_max = None if rec.lam is None else rec.lam.max()
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
