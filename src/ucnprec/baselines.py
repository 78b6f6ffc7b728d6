"""Reference solvers: RZF initialization, iterative WMMSE, and GD/NAGD.

WMMSE alternates closed-form receiver and weight updates with a Gauss-Seidel
sweep of per-BS precoder solves; each BS shares one nonnegative power
multiplier. One eigendecomposition of the BS's weighted gram gives the power
as a closed-form secular function of the multiplier, whose root is found by
safeguarded Newton steps on 1/sqrt(power) (newton_multiplier), started from
the multiplier of the previous sweep.

A sweep keeps one (K, n_blocks + 1) buffer of per-pair channel products
conj(H_l) @ p_{l,k}, which the objective's amplitude_matrix gathers from, and
carries it to the next sweep: each BS update reads its old columns to take its
own signal out of the amplitudes and overwrites them with the product of its
new blocks, the GEMM the update needs anyway. So only a run's first sweep
computes amplitude products; every later amplitude matrix is a gather.

A BS's gram and its eigendecomposition depend only on the receivers and
weights. A small sweep (below split_bs_loop's SPLIT_MIN_MACS and the helper's
gate: desk, high_power) builds each BS's operands once, as slices of stacks,
and decomposes all grams in one eigh call. A big one makes each gram and its
eigh one job of helper.ordered_bs_jobs, which past the helper's gate both
threads run, up to _GRAMS_AHEAD BSs ahead of the in-order updates; stacked
operands held with each result would cost memory there. One update body
serves both routes. numpy's stacked matmul and eigh make the same zgemm and
zheevd call per slice, on slices with the per-BS operands' values and memory
layout, so the route, like the thread that runs a job, changes no bit. The
sweep calls the objective only outside the jobs, so its GEMM split never
waits behind one.

bisect_power solves the same equation for any decreasing scalar power
function by bracketing and false position. No solver calls it; it stays only
because perfbench/tracer.py wraps it by name.

GD and NAGD run Armijo backtracking on the negated objective and renormalize
to the per-BS power budget after every accepted step so all solvers are
compared on the same feasible set. GD is NAGD without momentum: both are one
step function run by symplectic.iterate.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import helper
from .channel import ChannelSet, ClusterMap
from .embedding import (
    BlockLayout,
    PowerBudget,
    PrecoderState,
    bs_block_norms,
    power_residual,
    renormalize_power,
)
from .objective import (
    Weights,
    WsrObjective,
    _pair_products,
    amplitude_matrix,
    terms_from_amplitudes,
)
from .symplectic import SolveResult, StepRecord, iterate

_POWER_TOL = 1e-10  # relative per-BS power error at which a WMMSE multiplier search stops
_GRAMS_AHEAD = 8  # decomposed grams a sweep holds at most: at table1, 8 beat 4 and matched 12
# GD/NAGD: Armijo's first step, backtracking factor, sufficient-decrease constant
# and backtracks per search, and NAGD's momentum
_ALPHA0, _BACKTRACK, _C1, _MAX_BACKTRACKS = 1.0, 0.5, 1e-4, 30
_MOMENTUM = 0.9


class BisectionError(RuntimeError):
    """Raised when the power multiplier cannot be bracketed or is ill-posed."""


@dataclass
class WmmseState:
    """MMSE weights, per-BS power multipliers and the new precoder's pair products."""

    W: np.ndarray  # (K,) MMSE weights, >= 1
    lam: np.ndarray  # (B,) multipliers from newton_multiplier, >= 0; warm-start the next sweep
    power_evals: np.ndarray  # (B,) power evaluations each BS's multiplier search took, 0 if empty
    products: np.ndarray  # (K, n_blocks + 1) pair products of the new precoder; see wmmse_step

    def __post_init__(self):
        # fmin skips NaN entries, as the elementwise comparisons do
        if np.fmin.reduce(self.W) < 1.0 - 1e-9:
            raise ValueError("MMSE weights must be >= 1")
        if np.fmin.reduce(self.lam) < 0:
            raise ValueError("power multipliers must be nonnegative")


def rzf_init(ch: ChannelSet, clusters: ClusterMap, rho: PowerBudget) -> PrecoderState:
    """Per-BS regularized zero-forcing directions scaled to full power.

    p_{l,k} ~ (sum_{j in U_l} h_{l,j} h_{l,j}^H + alpha_l I)^(-1) h_{l,k}, each
    BS block group scaled so its power equals rho_l, with the regularizer
    alpha_l = |U_l| * sigma_z^2 / rho_l.
    """
    layout = BlockLayout(clusters, ch.M_t)
    cblocks = np.zeros((layout.n_blocks, ch.M_t), dtype=complex)
    for l, rows in enumerate(layout.bs_rows):
        n_l = rows.stop - rows.start
        if n_l == 0:
            continue
        cols = layout.bs_uts[l]
        h_cols = ch.entries[l][cols].T  # (M_t, n_l), columns h_{l,k}
        reg = n_l * ch.noise_power / rho.rho[l]
        gram = h_cols @ h_cols.conj().T
        dirs = np.linalg.solve(gram + reg * np.eye(ch.M_t), h_cols)
        power = float(np.sum(np.abs(dirs) ** 2))
        cblocks[rows] = (dirs * math.sqrt(rho.rho[l] / power)).T
    return PrecoderState.from_complex(layout, cblocks)


def bisect_power(power_fn, rho_l: float, tol: float = 1e-10, max_doublings: int = 64) -> float:
    """Find lam >= 0 with |power(lam) - rho_l| <= tol * rho_l.

    power must be strictly decreasing in lam; returns 0 when the unconstrained
    point is already feasible. The root is bracketed by doubling from lam = 1
    and then refined by false position with the Illinois modification on
    psi(lam) = 1/sqrt(power(lam)) - 1/sqrt(rho_l), which is nearly linear in
    lam for power = sum_i s_i / (e_i + lam)^2 (More & Sorensen, 1983). A step
    that leaves the open bracket, or comes after three steps that together
    failed to halve it, falls back to the midpoint.
    """
    if not rho_l > 0:
        raise ValueError("rho_l must be > 0")
    p0 = power_fn(0.0)
    if p0 <= rho_l * (1.0 + tol):
        return 0.0
    lo, p_lo = 0.0, p0
    hi = 1.0
    increases = 0
    for _ in range(max_doublings):
        p_hi = power_fn(hi)
        if np.isfinite(p_lo) and p_hi > p_lo * (1.0 + 1e-9):
            increases += 1
            if increases >= 2:
                raise BisectionError(
                    f"power is not decreasing: power({lo}) = {p_lo}, power({hi}) = {p_hi}"
                )
        if p_hi <= rho_l:
            break
        lo, p_lo = hi, p_hi
        hi *= 2.0
    else:
        raise BisectionError(
            f"failed to bracket the power multiplier within {max_doublings} doublings: "
            f"power({hi / 2.0}) = {p_lo}, target {rho_l}"
        )
    if rho_l - p_hi <= tol * rho_l:
        return hi

    inv_sqrt_rho = 1.0 / math.sqrt(rho_l)

    def psi(p):
        # power(lo) = inf (a zero eigenvalue with nonzero weight) gives psi = -1/sqrt(rho_l)
        return (1.0 / math.sqrt(p) if p > 0.0 else math.inf) - inv_sqrt_rho

    f_lo, f_hi = psi(p_lo), psi(p_hi)
    side = 0  # +1 after hi moved, -1 after lo moved
    widths = deque([math.inf] * 3, maxlen=3)  # bracket widths of the last three steps
    for _ in range(200):
        width = hi - lo
        x = hi - f_hi * width / (f_hi - f_lo)
        if not lo < x < hi or width > 0.5 * widths[0]:
            x = 0.5 * (lo + hi)
        widths.append(width)
        pm = power_fn(x)
        if abs(pm - rho_l) <= tol * rho_l:
            return x
        if pm > rho_l:
            lo, f_lo = x, psi(pm)
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = x, psi(pm)
            if side > 0:
                f_lo *= 0.5
            side = 1
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return hi  # bracket collapsed; hi is on the feasible side


def newton_multiplier(
    e: np.ndarray,
    s: np.ndarray,
    rho_l: float,
    tol: float = 1e-10,
    lam0: float | None = None,
):
    """Find lam >= 0 with |P(lam) - rho_l| <= tol * rho_l, P(lam) = sum_i s_i / (e_i + lam)^2.

    e holds eigenvalues in ascending order, clamped at 0, as np.linalg.eigh
    returns them; s >= 0 is the power weight of each eigendirection. Returns
    (lam, number of evaluations of P). lam = 0 is returned when the
    unconstrained point is already feasible, including the hard case where
    every zero eigenvalue carries zero weight.

    Newton's method runs on psi(lam) = 1/sqrt(P(lam)) - 1/sqrt(rho_l), which
    is concave and nearly linear in lam (More & Sorensen, 1983), so steps
    from below the root stay below it. The bracket starts as [0, hi] with
    hi = sqrt(sum(s) / rho_l) - e_0, feasible because P(lam) <= sum(s) /
    (e_0 + lam)^2. The search starts from lam0, normally the previous sweep's
    multiplier, or else from the geometric mean of hi and the lower bound
    max_i sqrt(s_i / rho_l) - e_i on the root (from 0 if that bound is not
    positive). A step that leaves the bracket tries an end not yet evaluated,
    else bisects; if the bracket collapses, its feasible upper end is
    returned.
    """
    if not rho_l > 0:
        raise ValueError("rho_l must be > 0")
    e_min = float(e[0])
    hi = math.sqrt(float(np.add.reduce(s)) / rho_l) - e_min
    if hi <= 0.0:
        return 0.0, 0  # P(0) <= sum(s) / e_0^2 <= rho_l
    lo = 0.0
    lo_tried = hi_tried = False  # P(lo) > rho_l and P(hi) <= rho_l once evaluated
    if lam0 is None:
        low = float(np.max(np.sqrt(s / rho_l) - e))  # P(lam) >= s_i / (e_i + lam)^2
        lam0 = math.sqrt(low * hi) if low > 0.0 else 0.0
    lam = min(max(float(lam0), 0.0), hi)
    for n in range(1, 101):
        if lam == 0.0 and e_min == 0.0:
            zero = e == 0.0
            s_zero = float(np.add.reduce(s[zero]))
            if s_zero > 0.0:  # P(0) is infinite
                lo, lo_tried = 0.0, True
                lam = math.sqrt(s_zero / rho_l)  # psi's Newton step from 0
                continue
            inv = 1.0 / e[~zero]  # the hard case: zero eigenvalues without weight
            t = s[~zero] * inv * inv
        else:
            inv = 1.0 / (e + lam)
            t = s * inv * inv
        p = float(np.add.reduce(t))
        if abs(p - rho_l) <= tol * rho_l or (lam == 0.0 and p <= rho_l):
            return lam, n
        if p > rho_l:
            lo, lo_tried = lam, True
        else:
            hi, hi_tried = lam, True
        if lo_tried and hi - lo <= 4e-16 * hi:
            return hi, n  # bracket collapsed to a few ulps; hi is on the feasible side
        # psi / psi' with psi' = P^(-3/2) sum_i s_i / (e_i + lam)^3
        x = lam + p / float(t @ inv) * (math.sqrt(p / rho_l) - 1.0)
        if lo < x < hi:
            lam = x
        elif x >= hi and not hi_tried:
            lam = hi
        elif x <= lo and not lo_tried:
            lam = lo
        else:
            lam = 0.5 * (lo + hi)
    raise BisectionError("power multiplier not found within 100 evaluations")


def wmmse_step(
    state: PrecoderState,
    ch: ChannelSet,
    rho: PowerBudget,
    weights: Weights,
    lam0: np.ndarray | None = None,
    products: np.ndarray | None = None,
):
    """One WMMSE outer iteration.

    Returns (new_state, WmmseState, wsr_bits) with wsr_bits evaluated at the
    new precoder. Receiver coefficients and weights are held fixed while the
    per-BS solves sweep in ascending BS order using the latest precoders.
    lam0 holds each BS's starting multiplier, normally the previous sweep's
    WmmseState.lam; without it every multiplier search starts cold (see
    newton_multiplier). products holds state's per-pair channel products,
    normally the previous sweep's WmmseState.products: a complex (K, n_blocks
    + 1) array whose column i is conj(H_l) @ p_{l,k} for pair i and whose last
    column is zero. The sweep overwrites it in place with new_state's products
    and returns it as WmmseState.products (after an error its contents are
    undefined); without it one is built from state.
    """
    if products is None:
        products = _pair_products(state, ch)
    blocks, ws = _wmmse_sweep(state, ch, rho, weights.w, lam0, products)
    # the sweep's K x K and per-BS arrays are released before the closing amplitudes
    new_state = PrecoderState(state.layout, blocks, copy=False)
    terms = terms_from_amplitudes(amplitude_matrix(new_state, ch, products), ch.noise_power)
    wsr_bits = float(np.dot(weights.w, terms.rate_bits))
    return new_state, ws, wsr_bits


def _wmmse_sweep(state, ch, rho, w, lam0, products):
    """Receiver and weight update plus the per-BS sweep; returns (real blocks, WmmseState).

    products holds state's pair products on entry and the new blocks' on return.
    """
    layout = state.layout
    m = layout.M_t
    sigma2 = ch.noise_power
    entries = ch.entries

    amps = amplitude_matrix(state, ch, products)  # updated in place by the sweep
    diag = amps.diagonal()
    a = diag.real**2 + diag.imag**2
    total = np.add.reduce(amps.real**2 + amps.imag**2, axis=1)
    r = total - a + sigma2
    u = np.conj(diag) / (total + sigma2)  # full received energy
    big_w = 1.0 + a / r
    w_big_w = w * big_w
    coef = w_big_w * (u.real**2 + u.imag**2)
    # desired-signal term of the pair (l, k): w_k W_k conj(u_k) h_{l,k}
    desired_coef = w_big_w * np.conj(u)

    blocks = np.empty((layout.n_blocks, layout.block_len))
    lam_out = np.zeros(layout.n_bs)
    evals_out = np.zeros(layout.n_bs, dtype=int)
    todo = [l for l, rows in enumerate(layout.bs_rows) if rows.start != rows.stop]
    # a small sweep stacks each operand over the nonempty BSs (see the module docstring)
    stacked = layout.n_ut * m * layout.n_blocks < helper.SPLIT_MIN_MACS
    stacked = stacked and helper.executor_for(m) is None
    if stacked:
        h = entries.take(todo, axis=0)  # (n, K, M_t)
        hc = h.transpose(0, 2, 1) * coef  # slice i: h_l.T * coef, Fortran-ordered as in decompose
        h_conj = h.conj()
        e_all, vecs_all = np.linalg.eigh(hc @ h_conj)
        np.maximum(e_all, 0.0, out=e_all)
        vecs_h = vecs_all.conj().transpose(0, 2, 1)
        h_pairs = entries.reshape(-1, m).take(layout.pair_index, axis=0)  # row i: pair i's h_{l,k}
        desired = desired_coef[layout.row_ut, None] * h_pairs

    def decompose(l):
        """Eigendecomposition of BS l's gram with its eigenvalues clamped at 0 (a big sweep's job).

        h_l.T * coef is (M_t, K) with columns coef_k h_{l,k}. eigh reads only the
        lower triangle, so the gram needs no hermitization; it is freed on return.
        A small sweep takes the same products, eigh and clamp on its stacks.
        """
        h_l = entries[l]  # (K, M_t)
        e, vecs = np.linalg.eigh((h_l.T * coef) @ h_l.conj())  # looked up per call: wrappers run
        np.maximum(e, 0.0, out=e)
        return e, vecs

    def update(l, e, vecs, i=None):
        """Update BS l's blocks, amplitudes and pair products; e, vecs decompose its gram.

        Stacked, the operands are slice i of the sweep's stacks. Otherwise each
        is built where it is used and dies once used, so a sweep's peak memory
        stays low.
        """
        h_l = entries[l]
        rows, cols = layout.bs_rows[l], layout.bs_uts[l]
        pair_products = products[:, rows]  # conj(H_l) @ P_l^T of the old blocks
        cross = amps.take(cols, axis=1) - pair_products  # amplitudes excluding BS l
        if stacked:
            z = vecs_h[i] @ (desired[rows].T - hc[i] @ cross)
        else:
            rhs = (desired_coef[cols, None] * h_l[cols]).T - (h_l.T * coef) @ cross  # (M_t, n_l)
            z = vecs.conj().T @ rhs  # (M_t, n_l)
        z_ri = z.view(np.float64)
        s = np.add.reduce(z_ri * z_ri, axis=1)  # power weight of each eigendirection
        lam_l, n_evals = newton_multiplier(
            e, s, float(rho.rho[l]), _POWER_TOL, None if lam0 is None else lam0[l]
        )
        d = e + lam_l
        if lam_l == 0.0 and e[0] == 0.0:
            d[d == 0.0] = np.inf  # hard case: the minimum-norm solution leaves these out
        new_blocks = vecs @ (z / d[:, None])  # (M_t, n_l)
        np.matmul(h_conj[i] if stacked else h_l.conj(), new_blocks, out=pair_products)
        cross += pair_products
        amps[:, cols] = cross
        blocks[rows, :m] = new_blocks.real.T
        blocks[rows, m:] = new_blocks.imag.T
        lam_out[l], evals_out[l] = lam_l, n_evals

    if stacked:
        for i, l in enumerate(todo):
            update(l, e_all[i], vecs_all[i], i)
    else:
        helper.ordered_bs_jobs(m, todo, decompose, lambda l, ev: update(l, *ev), _GRAMS_AHEAD)
    ws = WmmseState(W=big_w, lam=lam_out, power_evals=evals_out, products=products)
    return blocks, ws


def wmmse_iterate(
    state: PrecoderState,
    ch: ChannelSet,
    rho: PowerBudget,
    weights: Weights,
    n_iters: int,
):
    """Run n_iters WMMSE outer iterations; returns (state, per-iteration WSR).

    Each sweep's multiplier searches start from the previous sweep's
    multipliers, and each sweep reads and updates the previous sweep's pair
    products.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    wsr_trace = np.zeros(n_iters)
    lam = products = None
    for i in range(n_iters):
        state, ws, wsr_bits = wmmse_step(state, ch, rho, weights, lam, products)
        lam, products = ws.lam, ws.products
        wsr_trace[i] = wsr_bits
    return state, wsr_trace


def _armijo(objective, layout, base_blocks, f0, grad_blocks, gnorm2, start, rho):
    """Backtracking search along -grad; returns (alpha, state) or (None, None).

    With a power budget the sufficient-decrease test is applied to the
    renormalized candidate (projection-arc search), so every accepted iterate
    itself satisfies g(p_new) <= g(p) - _C1 * alpha * ||grad||^2; testing the
    raw candidate lets renormalization undo the guaranteed decrease and
    destabilizes the momentum variant. The search starts from the caller's
    warm-started step, never above it.
    """
    alpha = start
    for _ in range(_MAX_BACKTRACKS):
        cand = PrecoderState.trusted(layout, base_blocks - alpha * grad_blocks)
        # the constructor's one check that can fail here; the shape is the base's
        if not np.isfinite(cand.blocks).all():
            raise ValueError("precoder blocks must be finite")
        if rho is not None:
            cand = renormalize_power(cand, rho)
        if objective.value(cand) <= f0 - _C1 * alpha * gnorm2:
            return alpha, cand
        alpha *= _BACKTRACK
    return None, None


def _descent_record(wsr_bits, alpha, state, rho):
    residual = None if rho is None else power_residual(state.layout, bs_block_norms(state), rho)
    return StepRecord(h_used=alpha, wsr_bits=wsr_bits, constraint_residual=residual)


def gd_solve(
    init: PrecoderState,
    objective: WsrObjective,
    rho: PowerBudget | None = None,
    max_iters: int = 100,
    rel_tol: float = 1e-5,
) -> SolveResult:
    """Steepest descent with Armijo backtracking: the momentum-free descent.

    With a power budget, every accepted step is renormalized to full per-BS
    power; rho=None runs the plain unconstrained descent (used by the
    quadratic convergence checks).
    """
    return _descent(init, objective, rho, 0.0, max_iters, rel_tol)


def nagd_solve(
    init: PrecoderState,
    objective: WsrObjective,
    rho: PowerBudget | None = None,
    max_iters: int = 100,
    rel_tol: float = 1e-5,
) -> SolveResult:
    """Momentum extrapolation followed by an Armijo gradient step.

    The gradient and the Armijo condition are taken at the extrapolated point
    p + _MOMENTUM (p - p_prev); the first iteration has no predecessor so it
    matches gd_solve. An extrapolated step that would lower the WSR triggers
    an adaptive restart: the momentum memory is dropped and the iteration
    falls back to a plain gradient step from the current point, so the trace
    stays monotone.
    """
    return _descent(init, objective, rho, _MOMENTUM, max_iters, rel_tol)


def _descent(init, objective, rho, momentum, max_iters, rel_tol) -> SolveResult:
    """GD (momentum = 0) and NAGD as one step for symplectic.iterate.

    The gradient at an iterate is taken when a step first needs it, so none is
    taken at the final iterate.
    """
    layout = init.layout
    p_prev = None  # the previous iterate, while momentum may extrapolate from it
    ev_p = None  # evaluation at the current iterate, kept across failed line searches
    start = _ALPHA0

    def step(p, wsr):
        nonlocal p_prev, ev_p, start
        found = None  # (alpha, state, wsr)
        if p_prev is not None:
            y_blocks = p.blocks + momentum * (p.blocks - p_prev.blocks)
            p_prev = None  # not held through the line search; an accepted step sets it again
            y = PrecoderState(layout, y_blocks, copy=False)
            ev_y = objective.evaluate(y)
            grad_blocks = ev_y.grad.blocks
            gnorm2 = float(np.add.reduce(grad_blocks**2, axis=None))
            if gnorm2 > 0.0:
                alpha, cand = _armijo(
                    objective, layout, y.blocks, ev_y.g_value, grad_blocks, gnorm2, start, rho
                )
                if cand is not None:
                    wsr_cand = objective.wsr_bits(cand)
                    if wsr_cand >= wsr - 1e-12 * max(1.0, abs(wsr)):
                        found = (alpha, cand, wsr_cand)
        if found is None:
            # plain descent, first iteration, failed extrapolation or adaptive restart
            if ev_p is None:
                ev_p = objective.evaluate(p)
            grad_blocks = ev_p.grad.blocks
            gnorm2 = float(np.add.reduce(grad_blocks**2, axis=None))
            if gnorm2 == 0.0:
                return None
            alpha, cand = _armijo(
                objective, layout, p.blocks, ev_p.g_value, grad_blocks, gnorm2, start, rho
            )
            if cand is None:
                start *= 0.5
                return p, _descent_record(wsr, 0.0, p, rho)
            found = (alpha, cand, objective.wsr_bits(cand))
        alpha, cand, wsr_now = found
        start = min(_ALPHA0, alpha / _BACKTRACK)  # warm start, one notch above
        p_prev = p if momentum > 0.0 else None
        ev_p = None
        return cand, _descent_record(wsr_now, alpha, cand, rho)

    p0 = [renormalize_power(init, rho) if rho is not None else init]
    wsr0 = objective.wsr_bits(p0[0])
    # popped, not named: this frame must not keep the start alive once iterate() drops it
    return iterate(step, p0.pop(), wsr0, max_iters, rel_tol)
