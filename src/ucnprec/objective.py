"""Per-UT rates, the weighted sum-rate objective and its analytic gradient.

WsrObjective is the one evaluator, and the one place that charges the
multiply-add counter: the solvers, the CLI and fd_gradient all go through it.
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
    def uniform(cls, n_ut: int, value: float = 1.0) -> "Weights":
        return cls(w=np.full(n_ut, float(value)))


@dataclass
class OpCounter:
    """Complex multiply-add counter attributable to gradient evaluation."""

    multiply_adds: int = 0

    def add(self, n: int) -> None:
        self.multiply_adds += int(n)


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


def amplitude_matrix(state: PrecoderState, ch: ChannelSet) -> np.ndarray:
    """A[k, t] = sum_{m in B_t} h_{m,k}^H p_{m,t} for the current precoder."""
    lay = state.layout
    n_ut = ch.n_ut
    if lay.n_bs != ch.n_bs or lay.n_ut != n_ut:
        raise ValueError("state layout does not match the channel set")
    cblocks = state.complex_blocks()
    np.conjugate(cblocks, out=cblocks)
    # column i of buf holds pair i's conjugated amplitudes h_{l,.}^H p_{l,k}; the last is zero
    buf = np.empty((n_ut, lay.n_blocks + 1), dtype=complex)
    buf[:, -1] = 0.0
    for l, rows in enumerate(lay.bs_rows):
        if rows.stop == rows.start:
            continue
        np.matmul(ch.entries[l], cblocks[rows].T, out=buf[:, rows])
    del cblocks  # freed before the gather allocates
    np.conjugate(buf, out=buf)  # before the gather: the zero start absorbs the -0 parts
    # add each UT's columns in ascending BS order, as a per-BS scatter would;
    # take() keeps the result C-contiguous, which the gradient's BLAS path expects
    amps = np.zeros((n_ut, n_ut), dtype=complex)
    for rank_rows in lay.serving_rows:
        amps += buf.take(rank_rows, axis=1)
    return amps


def terms_from_amplitudes(amps: np.ndarray, noise_power: float) -> RateTerms:
    a = np.abs(np.diagonal(amps)) ** 2
    total = np.add.reduce(np.abs(amps) ** 2, axis=1)
    r = total - a + noise_power
    b = r / (r + a)
    rate_nats = np.log1p(a / r)
    return RateTerms(a=a, r=r, b=b, rate_nats=rate_nats, rate_bits=rate_nats / _LN2)


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
    for l, rows in enumerate(lay.bs_rows):
        if rows.stop == rows.start:
            continue
        grad_c[rows] = (ch.entries[l].T @ beta_amps[:, lay.bs_uts[l]]).T
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
        if clusters.n_bs != ch.n_bs or clusters.n_ut != ch.n_ut:
            raise ValueError("cluster map does not match the channel set")
        self.ch = ch
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
        return -float(np.dot(self.weights.w, self.terms(state).rate_nats))

    def wsr_bits(self, state: PrecoderState) -> float:
        return float(np.dot(self.weights.w, self.terms(state).rate_bits))

    def evaluate(self, state: PrecoderState) -> ObjectiveEval:
        _, amps, terms = self._entry(state, need_amps=True)
        if self.counter is not None:
            # amplitude products, the |A|^2 energies feeding a, r, b, and the gradient's
            # cross products plus diagonal term
            lay, n_ut = state.layout, self.ch.n_ut
            pair_macs = lay.M_t * lay.n_blocks
            self.counter.add(n_ut * (pair_macs + n_ut) + (n_ut + 1) * pair_macs)
        blocks = _gradient_blocks(state, self.ch, self.weights, amps, terms)
        self._memo = (state, None, terms)  # later hits need only the rates
        self.grad_evals += 1
        return ObjectiveEval(
            g_value=-float(np.dot(self.weights.w, terms.rate_nats)),
            wsr_bits=float(np.dot(self.weights.w, terms.rate_bits)),
            grad=PrecoderState.trusted(state.layout, blocks),
            terms=terms,
        )
