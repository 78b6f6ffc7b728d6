"""Per-UT rates, the weighted sum-rate objective and its analytic gradient.

Optimization runs on the negated objective in nats; reported sum rates are in
bits. Desired and interfering amplitudes are accumulated in the complex domain
(one K x |U_l| product per BS), which is numerically identical to evaluating
the real-embedded forms; the test suite cross-checks both routes and validates
the gradient against central finite differences.

The per-BS products land in the columns of one buffer, and each UT's
amplitudes are then summed from zero in ascending BS order, into a C-contiguous
array. That is the order and memory layout of a per-BS scatter loop, so the
amplitudes and the gradient GEMMs that read them are bit-identical to it.
This must stay so: the dissipative solver amplifies a last-bit change into a
visibly different WSR within 50 steps, and the tests pin trace bytes. (A
padded batched GEMM over all BSs is faster but not bit-identical: OpenBLAS's
zgemm changes the last bits of the first columns once the padded width
crosses a multiple of 4.)

WsrObjective memoizes the amplitude matrix and rate terms of the last state it
saw, so each iterate's amplitudes are computed once even when a line search's
value() is followed by evaluate() or wsr_bits() at the accepted candidate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, ClusterMap
from .embedding import PrecoderState, unstack

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
    def uniform(cls, n_ut: int, value: float = 1.0) -> "Weights":
        return cls(w=np.full(n_ut, float(value)))


@dataclass
class OpCounter:
    """Complex multiply-add counter attributable to gradient evaluation."""

    multiply_adds: int = 0

    def add(self, n: int) -> None:
        self.multiply_adds += int(n)

    def reset(self) -> None:
        self.multiply_adds = 0


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


def amplitude_matrix(
    state: PrecoderState,
    ch: ChannelSet,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """A[k, t] = sum_{m in B_t} h_{m,k}^H p_{m,t} for the current precoder."""
    lay = state.layout
    n_ut = ch.n_ut
    if lay.n_bs != ch.n_bs or lay.n_ut != n_ut:
        raise ValueError("state layout does not match the channel set")
    cblocks = state.complex_blocks()
    # column i of buf holds pair i's amplitudes h_{l,.}^H p_{l,k}; the last is zero
    buf = np.empty((n_ut, lay.n_blocks + 1), dtype=complex)
    buf[:, -1] = 0.0
    for l, rows in enumerate(lay.bs_rows):
        if rows.stop == rows.start:
            continue
        np.matmul(ch.entries[l].conj(), cblocks[rows].T, out=buf[:, rows])
    del cblocks  # freed before the gather allocates
    if counter is not None:
        counter.add(n_ut * lay.M_t * lay.n_blocks)
    # add each UT's columns in ascending BS order, as a per-BS scatter would;
    # take() keeps the result C-contiguous, which the gradient's BLAS path expects
    amps = np.zeros((n_ut, n_ut), dtype=complex)
    for rank_rows in lay.serving_rows:
        amps += buf.take(rank_rows, axis=1)
    return amps


def terms_from_amplitudes(amps: np.ndarray, noise_power: float) -> RateTerms:
    a = np.abs(np.diag(amps)) ** 2
    total = np.sum(np.abs(amps) ** 2, axis=1)
    r = total - a + noise_power
    b = r / (r + a)
    rate_nats = np.log1p(a / r)
    return RateTerms(a=a, r=r, b=b, rate_nats=rate_nats, rate_bits=rate_nats / _LN2)


def rate_terms(state: PrecoderState, ch: ChannelSet, clusters: ClusterMap) -> RateTerms:
    """Evaluate a_k, r_k, b_k and the per-UT rates for a precoder."""
    _check_clusters(state, clusters)
    return terms_from_amplitudes(amplitude_matrix(state, ch), ch.noise_power)


def wsr(state: PrecoderState, ch: ChannelSet, clusters: ClusterMap, weights: Weights) -> float:
    """Weighted sum rate in bits."""
    terms = rate_terms(state, ch, clusters)
    return float(np.dot(weights.w, terms.rate_bits))


def g_value(state: PrecoderState, ch: ChannelSet, clusters: ClusterMap, weights: Weights) -> float:
    """Negated weighted sum rate in nats; the quantity every solver minimizes."""
    terms = rate_terms(state, ch, clusters)
    return -float(np.dot(weights.w, terms.rate_nats))


def _gradient_blocks(
    state: PrecoderState,
    ch: ChannelSet,
    weights: Weights,
    amps: np.ndarray,
    terms: RateTerms,
    counter: OpCounter | None,
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
    for l, rows in enumerate(lay.bs_rows):
        if rows.stop == rows.start:
            continue
        h_l = ch.entries[l]
        grad_c[rows] = (h_l.T @ (beta[:, None] * amps[:, lay.bs_uts[l]])).T
    ut = lay.row_ut
    diag_coef = (alpha[ut] + beta[ut]) * amps[ut, ut]
    grad_c -= np.multiply(diag_coef[:, None], h_pair, out=h_pair)
    out[:, :m] = grad_c.real
    out[:, m:] = grad_c.imag
    if counter is not None:
        counter.add((ch.n_ut + 1) * m * lay.n_blocks)
    return out


def gradient(
    state: PrecoderState,
    ch: ChannelSet,
    clusters: ClusterMap,
    weights: Weights,
    counter: OpCounter | None = None,
) -> PrecoderState:
    """Analytic gradient of g_value with respect to the stacked real precoder."""
    _check_clusters(state, clusters)
    amps = amplitude_matrix(state, ch, counter)
    if counter is not None:
        counter.add(ch.n_ut * ch.n_ut)  # |A|^2 energies feeding a, r, b
    terms = terms_from_amplitudes(amps, ch.noise_power)
    blocks = _gradient_blocks(state, ch, weights, amps, terms, counter)
    return PrecoderState(state.layout, blocks, copy=False)


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

    def f(vec):
        return g_value(unstack(vec, lay), ch, clusters, weights)

    grad = central_difference(f, state.blocks.ravel(), eps)
    return PrecoderState(lay, grad.reshape(lay.n_blocks, lay.block_len), copy=False)


def _check_clusters(state: PrecoderState, clusters: ClusterMap) -> None:
    if state.layout.n_bs != clusters.n_bs or state.layout.n_ut != clusters.n_ut:
        raise ValueError("state layout does not match the cluster map")


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
    gradient and increments grad_evals; value() is the cheap rate-only path
    used by line searches.

    The amplitude matrix and rate terms of the last state seen are memoized,
    keyed by the state's identity (states are frozen value objects), so an
    Armijo candidate accepted by value() is not recomputed by the evaluate()
    or wsr_bits() that follows. The memo holds a strong reference to its
    state, so a recycled id() never matches. evaluate() then keeps only the
    rate terms, since no solver evaluates one state twice. A hit changes no
    count: evaluate() always charges the counter for the amplitudes and the
    gradient, and value() never does.

    evaluate() wraps the gradient with PrecoderState.trusted, without a
    finiteness scan: a non-finite gradient is caught where an iterate is
    built from it (rattle_step's check, the Armijo candidates' constructor).
    """

    def __init__(
        self,
        ch: ChannelSet,
        clusters: ClusterMap,
        weights: Weights,
        counter: OpCounter | None = None,
    ):
        if weights.w.size != ch.n_ut:
            raise ValueError("need one weight per UT")
        self.ch = ch
        self.clusters = clusters
        self.weights = weights
        self.counter = counter
        self.grad_evals = 0
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
        terms = self.terms(state)
        return -float(np.dot(self.weights.w, terms.rate_nats))

    def wsr_bits(self, state: PrecoderState) -> float:
        terms = self.terms(state)
        return float(np.dot(self.weights.w, terms.rate_bits))

    def evaluate(self, state: PrecoderState) -> ObjectiveEval:
        _, amps, terms = self._entry(state, need_amps=True)
        lay = state.layout
        if self.counter is not None:
            # amplitude products plus the |A|^2 energies feeding a, r, b
            self.counter.add(self.ch.n_ut * (lay.M_t * lay.n_blocks + self.ch.n_ut))
        blocks = _gradient_blocks(state, self.ch, self.weights, amps, terms, self.counter)
        self._memo = (state, None, terms)  # later hits need only the rates
        self.grad_evals += 1
        return ObjectiveEval(
            g_value=-float(np.dot(self.weights.w, terms.rate_nats)),
            wsr_bits=float(np.dot(self.weights.w, terms.rate_bits)),
            grad=PrecoderState.trusted(state.layout, blocks),
            terms=terms,
        )
