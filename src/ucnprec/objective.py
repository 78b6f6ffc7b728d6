"""Per-UT rates, the weighted sum-rate objective and its analytic gradient.

WsrObjective is the one evaluator, and the one place that counts multiply-adds:
the solvers, the CLI and fd_gradient all go through it.
Optimization runs on the negated objective in nats; reported sum rates are in
bits. Desired and interfering amplitudes are accumulated in the complex domain
(one K x |U_l| product per BS), which is numerically identical to evaluating
the real-embedded forms; the test suite cross-checks both routes and validates
the gradient against central finite differences.

The per-BS products H_l @ conj(P_l)^T land in the columns of one buffer, which is
conjugated once before each UT's amplitudes are summed from zero in ascending BS
order into a C-contiguous array. IEEE negation is exact and a GEMM's operation
sequence does not depend on operand signs, so this is a per-BS scatter loop of
conj(H_l) @ P_l^T products bit for bit, signed zeros included (conjugating after the
gather would make an unserved UT's zeros -0), and so are the gradient GEMMs on it.
That buffer of pair products (_pair_products) is also what a WMMSE sweep carries
and updates from sweep to sweep, its column for pair (l, k) being exactly the
conj(H_l) @ p_{l,k} the sweep's update computes; amplitude_matrix given such a
buffer only gathers.
This must stay so: the dissipative solver amplifies a last-bit change into a
visibly different WSR within 50 steps, and the tests pin trace bytes. (A
padded batched GEMM over all BSs is faster but not bit-identical: OpenBLAS's
zgemm changes the last bits of the first columns once the padded width
crosses a multiple of 4.)

Both per-BS GEMM loops go through helper.split_bs_loop: at full scale (M_t >= 48,
at least 5M multiply-adds, more than one CPU, one-thread OpenBLAS) the helper
thread runs the tail of the BSs, about half the columns, while this thread runs
the rest, then both finish before the gather or the diagonal term. Every GEMM
is the same one-thread call writing to its own columns or rows, so the result
is the same bits; below that gate the loops run inline. The helper holds its
own BLAS buffers, a few MB at table1 scale.

WsrObjective memoizes the amplitude matrix and rate terms of the last state it
saw, so each iterate's amplitudes are computed once even when a line search's
value() is followed by evaluate() or wsr_bits() at the accepted candidate.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import helper
from .channel import ChannelSet, ClusterMap
from .embedding import PrecoderState

_LN2 = math.log(2.0)


@dataclass
class Weights:
    """Nonnegative per-UT rate weights, at least one positive."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 1:
            raise ValueError("weights must be a vector of length K")
        if not np.all(np.isfinite(self.w)) or np.any(self.w < 0):
            raise ValueError("weights must be finite and nonnegative")
        if not np.any(self.w > 0):
            raise ValueError("at least one weight must be positive")

    @classmethod
    def uniform(cls, n_ut: int) -> "Weights":
        return cls(w=np.ones(n_ut))


@dataclass
class RateTerms:
    """Per-UT signal power a, interference-plus-noise r, and derived rates."""

    a: np.ndarray
    r: np.ndarray
    b: np.ndarray  # (1 + a/r)^(-1)
    rate_nats: np.ndarray
    rate_bits: np.ndarray

    def __post_init__(self):
        # fmin/fmax skip NaN entries, as the elementwise comparisons do
        if np.fmin.reduce(self.a) < 0 or np.fmin.reduce(self.r) <= 0:
            raise ValueError("signal power must be >= 0 and interference+noise > 0")
        if np.fmin.reduce(self.b) <= 0 or np.fmax.reduce(self.b) > 1.0 + 1e-12:
            raise ValueError("b must lie in (0, 1]")
        for arr in (self.a, self.r, self.b, self.rate_nats, self.rate_bits):
            arr.setflags(write=False)  # WsrObjective hands one instance to many callers


def _amplitude_products(start, stop, bs_rows, entries, cblocks, buf):
    """buf[:, rows of BS l] = H_l @ cblocks[rows of BS l]^T for the BSs l in [start, stop)."""
    for l in range(start, stop):
        rows = bs_rows[l]
        if rows.stop != rows.start:
            np.matmul(entries[l], cblocks[rows].T, out=buf[:, rows])


def _pair_products(state: PrecoderState, ch: ChannelSet) -> np.ndarray:
    """(K, n_blocks + 1) buffer whose column i holds pair i's conj(H_l) @ p_{l,k}; the last is zero.

    Built as conj(H_l @ conj(P_l)^T), which is conj(H_l) @ P_l^T bit for bit.
    """
    lay = state.layout
    if lay.n_bs != ch.n_bs or lay.n_ut != ch.n_ut:
        raise ValueError("state layout does not match the channel set")
    cblocks = state.complex_blocks()
    np.conjugate(cblocks, out=cblocks)
    buf = np.empty((ch.n_ut, lay.n_blocks + 1), dtype=complex)
    buf[:, -1] = 0.0
    helper.split_bs_loop(lay, _amplitude_products, lay.bs_rows, ch.entries, cblocks, buf)
    del cblocks  # freed before the caller's gather allocates
    np.conjugate(buf, out=buf)  # before the gather: the zero start absorbs the -0 parts
    return buf


def amplitude_matrix(
    state: PrecoderState, ch: ChannelSet, products: np.ndarray | None = None
) -> np.ndarray:
    """A[k, t] = sum_{m in B_t} h_{m,k}^H p_{m,t} for the current precoder.

    products, if given, must hold state's pair products laid out as _pair_products
    builds them (a WMMSE sweep carries such a buffer); the matrix is then only
    gathered from it.
    """
    lay = state.layout
    if products is None:
        products = _pair_products(state, ch)
    elif (
        lay.n_bs != ch.n_bs
        or lay.n_ut != ch.n_ut
        or products.shape != (ch.n_ut, lay.n_blocks + 1)
        or products.dtype != complex
    ):
        raise ValueError("pair products do not fit the state layout and the channel set")
    # add each UT's columns in ascending BS order, as a per-BS scatter would;
    # take() keeps the result C-contiguous, which the gradient's BLAS path expects
    amps = np.zeros((ch.n_ut, ch.n_ut), dtype=complex)
    for rank_rows in lay.serving_rows:
        amps += products.take(rank_rows, axis=1)
    return amps


def terms_from_amplitudes(amps: np.ndarray, noise_power: float) -> RateTerms:
    a = np.abs(np.diagonal(amps)) ** 2
    total = np.add.reduce(np.abs(amps) ** 2, axis=1)
    r = total - a + noise_power
    b = r / (r + a)
    rate_nats = np.log1p(a / r)
    return RateTerms(a=a, r=r, b=b, rate_nats=rate_nats, rate_bits=rate_nats / _LN2)


def _cross_products(start, stop, bs_rows, bs_uts, entries, beta_amps, grad_c):
    """grad_c[rows of BS l] = (H_l^T @ beta_amps[:, U_l])^T for the BSs l in [start, stop)."""
    for l in range(start, stop):
        rows = bs_rows[l]
        if rows.stop != rows.start:
            grad_c[rows] = (entries[l].T @ beta_amps[:, bs_uts[l]]).T


def _gradient_blocks(
    state: PrecoderState,
    ch: ChannelSet,
    weights: Weights,
    amps: np.ndarray,
    terms: RateTerms,
) -> np.ndarray:
    """Real gradient blocks of g_value, shaped like state.blocks.

    Per active pair (l, k) the complex form is
        -(alpha_k + beta_k) * A[k,k] * h_{l,k} + sum_t beta_t * A[t,k] * h_{l,t}
    with alpha = 2 w b / r and beta = 2 w a b / r^2; the real block is its
    [Re; Im] stacking. The factor 2 makes this the exact gradient of the
    real-embedded objective (validated against finite differences).

    The cross sum is one product per BS; the h_{l,k} gather, the diagonal
    term and the real/imag split run once over all pairs, with the same
    floating-point operations in the same order as a per-BS evaluation, so the
    result is bit-identical to it (solver runs amplify any last-bit change).
    """
    lay = state.layout
    w = weights.w
    alpha = 2.0 * w * terms.b / terms.r
    beta = 2.0 * w * terms.a * terms.b / terms.r**2
    m = lay.M_t
    grad_c = np.empty((lay.n_blocks, m), dtype=complex)
    out = np.empty((lay.n_blocks, lay.block_len))
    h_pair = out.view(complex)  # h_{l,k} per pair, kept in out's storage until the split
    ch.entries.reshape(-1, m).take(lay.pair_index, axis=0, out=h_pair, mode="clip")
    beta_amps = beta[:, None] * amps
    helper.split_bs_loop(
        lay, _cross_products, lay.bs_rows, lay.bs_uts, ch.entries, beta_amps, grad_c
    )
    ut = lay.row_ut
    diag_coef = (alpha[ut] + beta[ut]) * amps[ut, ut]
    grad_c -= np.multiply(diag_coef[:, None], h_pair, out=h_pair)
    out[:, :m] = grad_c.real
    out[:, m:] = grad_c.imag
    return out


def central_difference(f, x: np.ndarray, eps: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a flat vector."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = eps
        grad[j] = (f(x + step) - f(x - step)) / (2.0 * eps)
    return grad


def fd_gradient(
    state: PrecoderState,
    ch: ChannelSet,
    clusters: ClusterMap,
    weights: Weights,
    eps: float = 1e-5,
) -> PrecoderState:
    """Finite-difference oracle for the gradient, independent of the analytic path."""
    lay = state.layout
    objective = WsrObjective(ch, clusters, weights)

    def f(vec):
        return objective.value(PrecoderState(lay, vec.reshape(lay.n_blocks, lay.block_len)))

    grad = central_difference(f, state.blocks.ravel(), eps)
    return PrecoderState(lay, grad.reshape(lay.n_blocks, lay.block_len), copy=False)


@dataclass
class ObjectiveEval:
    """One full objective evaluation at a state."""

    g_value: float  # negated weighted sum rate, nats
    wsr_bits: float
    grad: PrecoderState
    terms: RateTerms


class WsrObjective:
    """Bundles channels, clusters and weights for repeated solver evaluations.

    evaluate() shares one amplitude matrix between the rate terms and the
    gradient, increments grad_evals and adds the complex multiply-adds of the
    amplitudes and the gradient to multiply_adds; value() is the cheap
    rate-only path used by line searches.

    The amplitude matrix and rate terms of the last state seen are memoized,
    keyed by the state's identity (states are frozen value objects), so an
    Armijo candidate accepted by value() is not recomputed by the evaluate()
    or wsr_bits() that follows. The memo holds a strong reference to its
    state, so a recycled id() never matches. evaluate() then keeps only the
    rate terms, since no solver evaluates one state twice. A hit changes no
    count: evaluate() always counts the multiply-adds of the amplitudes and the
    gradient, and value() never does.

    evaluate() wraps the gradient with PrecoderState.trusted, without a
    finiteness scan: a non-finite gradient is caught where an iterate is
    built from it (rattle_step's check, the Armijo candidates' constructor).
    """

    def __init__(self, ch: ChannelSet, clusters: ClusterMap, weights: Weights):
        if weights.w.size != ch.n_ut:
            raise ValueError("need one weight per UT")
        if clusters.n_bs != ch.n_bs or clusters.n_ut != ch.n_ut:
            raise ValueError("cluster map does not match the channel set")
        self.ch = ch
        self.weights = weights
        self.grad_evals = 0
        self.multiply_adds = 0
        self._memo = None  # (state, amplitude matrix, RateTerms) of the last state seen

    def _entry(self, state: PrecoderState, need_amps: bool):
        memo = self._memo
        if memo is not None and memo[0] is state and (memo[1] is not None or not need_amps):
            return memo
        # release the old entry (its state and amplitudes) before allocating the new one
        memo = self._memo = None
        amps = amplitude_matrix(state, self.ch)
        self._memo = (state, amps, terms_from_amplitudes(amps, self.ch.noise_power))
        return self._memo

    def terms(self, state: PrecoderState) -> RateTerms:
        return self._entry(state, need_amps=False)[2]

    def value(self, state: PrecoderState) -> float:
        return -float(np.dot(self.weights.w, self.terms(state).rate_nats))

    def wsr_bits(self, state: PrecoderState) -> float:
        return float(np.dot(self.weights.w, self.terms(state).rate_bits))

    def evaluate(self, state: PrecoderState) -> ObjectiveEval:
        _, amps, terms = self._entry(state, need_amps=True)
        # amplitude products, the |A|^2 energies feeding a, r, b, and the gradient's
        # cross products plus diagonal term
        lay, n_ut = state.layout, self.ch.n_ut
        pair_macs = lay.M_t * lay.n_blocks
        self.multiply_adds += n_ut * (pair_macs + n_ut) + (n_ut + 1) * pair_macs
        blocks = _gradient_blocks(state, self.ch, self.weights, amps, terms)
        self._memo = (state, None, terms)  # later hits need only the rates
        self.grad_evals += 1
        return ObjectiveEval(
            g_value=-float(np.dot(self.weights.w, terms.rate_nats)),
            wsr_bits=float(np.dot(self.weights.w, terms.rate_bits)),
            grad=PrecoderState.trusted(state.layout, blocks),
            terms=terms,
        )
