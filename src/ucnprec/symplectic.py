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

Apart from its one evaluation and four reductions over all BSs (the error
estimate's norm, the Hamiltonian's sum of q_hat^2, the largest hidden residual
and the power residual), a step is local to each BS's contiguous rows, so
rattle_step writes that row work as two closures over a slice of BSs and
their rows, kick_drift before evaluate(p_next) and kick_close after it, and
hands each to helper.split_bs_loop; helper.py has its gate and objective.py
why both routes give the same bits. A RattleState is what one step hands the
next: p, q, the evaluation at p, and G(q, q) and G(p, grad), which the step
before computed at its end, and its step size h. RattleState.start takes
the dots with one bincount over all rows: each BS gets per-slice sums' bits.

iterate(x, step, max_iters, rel_tol) is the loop this solver, GD and NAGD
share, each a frozen state plus a step(x) -> (x_next, record): the stopping
rule, the best-iterate choice, the trace and the stall rule exist only there.
solve() and the baselines' wmmse_iterate, gd_solve and nagd_solve share one
call shape, solver(init, objective, rho, config) -> SolveResult.

write_csv is the package's one CSV writer and cell rule: write_trace_csv writes
each solver's trace through it, and the harness its summary and timings.
"""

import math
import os
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

    A solver leaves the fields it does not produce at None. The scalar fields
    are the trace's columns, in this order; the trace keeps lam's min and max.
    """

    wsr_bits: float
    hamiltonian: float | None = None
    h_used: float | None = None
    delta: float | None = None
    constraint_residual: float | None = None
    hidden_residual: float | None = None
    lam: np.ndarray | None = None  # per-BS multipliers of the first kick
    mu: np.ndarray | None = None  # and of the closing kick


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


@dataclass(frozen=True, slots=True)
class RattleState:
    """One point of the RATTLE iteration: what a step reads, and what the next reuses.

    h is the size of its step (step_controller's choice after the first), ev the
    objective evaluation at p, qq = G(q, q) and pg = G(p, ev.grad) the per-BS
    dots of the step's first multiplier, and n the number of steps taken.
    """

    p: PrecoderState
    q: PrecoderState
    h: float
    ev: ObjectiveEval
    qq: np.ndarray
    pg: np.ndarray
    n: int

    @property
    def wsr(self) -> float:
        return self.ev.wsr_bits

    @classmethod
    def start(cls, p: PrecoderState, q: PrecoderState, h: float, objective) -> "RattleState":
        """The state at step 0, whose step has size h: evaluates p and takes both dots."""
        lay = p.layout
        ev = objective.evaluate(p)
        if not (q.layout.same_as(lay) and ev.grad.layout.same_as(lay)):
            raise ValueError("states must share one layout")
        w = np.empty(p.blocks.shape)  # scratch, freed on return
        qq = _bs_dots(lay.row_bs, q.blocks, q.blocks, lay.n_bs, w)
        pg = _bs_dots(lay.row_bs, p.blocks, ev.grad.blocks, lay.n_bs, w)
        return cls(p, q, h, ev, qq, pg, 0)


def rattle_step(x: RattleState, config: SolverConfig, rho: PowerBudget, objective):
    """One dissipative constrained step of size x.h from x; returns (next state, record).

    The one evaluation of a step is at the next state's p, which the step
    after reuses. The row work runs through helper.split_bs_loop in two
    closures, around evaluate(p_next); see the module docstring.
    """
    p, q, h, ev0 = x.p, x.q, x.h, x.ev
    lay = p.layout
    if not h > 0:
        raise ValueError("h must be > 0")
    if rho.n_bs != lay.n_bs:
        raise ValueError("power budget length must match the number of BSs")
    decay = math.exp(-config.gamma * h / 2.0)
    n_bs, shape = lay.n_bs, p.blocks.shape
    lam = (x.qq - x.pg) / rho.rho
    # q_next holds q_half, the half-kicked momentum, until the closing kick
    p_next, q_next = np.empty(shape), np.empty(shape)

    # The step's two halves for the BSs bs and their rows. Each writes only those
    # rows and BSs' entries, with the one-thread step's operations in the same
    # order, so helper.split_bs_loop may run them split or inline.

    def kick_drift(bs, rows):
        """The half kick to q_half, the drift to p_next and its projection."""
        n, row_bs, qh, p1 = bs.stop, lay.row_bs[rows], q_next[rows], p_next[rows]
        p0, q0, g0 = p.blocks[rows], q.blocks[rows], ev0.grad.blocks[rows]
        w = np.empty(p0.shape)  # scratch, freed before evaluate(p_next)
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
            raise SolverDivergence(f"non-finite precoder at iteration {x.n}")

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
            raise SolverDivergence(f"non-finite momentum at iteration {x.n}")
        # p - p_next - h/2 (g0 + g1), the error estimate's rows
        np.add(g0, g1, out=delta)
        delta *= 0.5 * h
        np.subtract(np.subtract(p0, p1, out=w), delta, out=delta)
        powers[bs] = _bs_dots(row_bs, p1, p1, n, w)[bs]
        pq_next[bs] = _bs_dots(row_bs, p1, q1, n, w)[bs]
        qq_next[bs] = _bs_dots(row_bs, q1, q1, n, w)[bs]

    helper.split_bs_loop(lay, kick_close)

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
    q_state = PrecoderState.trusted(lay, q_next)
    h_next = step_controller(record.delta, h, config)
    return RattleState(p_state, q_state, h_next, ev1, qq_next, pg1, x.n + 1), record


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


def iterate(x, step, max_iters: int, rel_tol: float) -> SolveResult:
    """The iteration loop every gradient-based solver shares, from the state x.

    A state has p and wsr, the WSR at p. step(x) returns (x_next, record), or
    None once the gradient vanishes (converged). An x_next with x's own p marks
    a failed line search: it empties the stopping rule's window, and _MAX_STALLS
    in a row end the run unconverged. The run converges when settled() holds for
    the WSRs since the last failure or the start. Returns the best iterate by
    WSR (the start included) and one record per step.
    """
    best, best_wsr = x.p, x.wsr
    window = [best_wsr]
    trace = []
    stalls = 0
    for _ in range(max_iters):
        out = step(x)
        if out is None:
            return SolveResult(precoder=best, trace=trace, converged=True)
        x_next, record = out
        trace.append(record)
        stalled, x = x_next.p is x.p, x_next  # x_next is adopted either way
        if stalled:
            stalls += 1
            window = [x.wsr]
            if stalls == _MAX_STALLS:
                break
            continue
        stalls = 0
        if x.wsr > best_wsr:
            best, best_wsr = x.p, x.wsr
        window.append(x.wsr)
        if settled(window, rel_tol):
            return SolveResult(precoder=best, trace=trace, converged=True)
    return SolveResult(precoder=best, trace=trace, converged=False)


def solve(
    init: PrecoderState, objective: WsrObjective, rho: PowerBudget, config: SolverConfig
) -> SolveResult:
    """Run the dissipative constrained iteration from a full-power start through iterate()."""
    return iterate(
        RattleState.start(
            renormalize_power(init, rho), PrecoderState.zeros(init.layout), config.h0, objective
        ),
        lambda x: rattle_step(x, config, rho, objective), config.max_iters, config.rel_tol
    )


_TRACE_SCALARS = tuple(f.name for f in fields(StepRecord) if f.name not in ("lam", "mu"))
TRACE_COLUMNS = ("iter", *_TRACE_SCALARS, "lambda_min", "lambda_max")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):  # first: nearly every cell is one
        return repr(float(value))  # a numpy float's repr would name its type
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ")
    return str(int(value))  # ints, and flags as 0/1


def write_csv(path, header, rows) -> None:
    """Write header and rows, one cell rule for all, as path's whole new content.

    Every line is formatted before path.tmp is opened, so a bad cell raises with
    no file touched; os.replace then swaps path.tmp in, so path always holds one
    run's complete file. The package opens no other file for writing.
    """
    lines = [",".join(header)]
    lines += [",".join([_cell(v) for v in row]) for row in rows]
    with open(f"{path}.tmp", "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(f"{path}.tmp", path)


def write_trace_csv(path, trace: list) -> None:
    """Write one iteration per line in the shared trace schema, through write_csv.

    Columns a solver does not produce are left empty.
    """
    rows = []
    for i, rec in enumerate(trace):
        lam = (None, None) if rec.lam is None else (rec.lam.min(), rec.lam.max())
        rows.append([i, *[getattr(rec, name) for name in _TRACE_SCALARS], *lam])
    write_csv(path, TRACE_COLUMNS, rows)
