"""Per-UT rates, the weighted sum-rate objective and its analytic gradient.

WsrObjective is the one evaluator, and the one place that counts multiply-adds:
the solvers, the CLI and fd_gradient all go through it.
Optimization runs on the negated objective in nats; reported sum rates are in
bits. Desired and interfering amplitudes are accumulated in the complex domain
(one K x |U_l| product per BS), which is numerically identical to evaluating
the real-embedded forms; the test suite cross-checks both routes and validates
the gradient against central finite differences. WsrObjective memoizes the
amplitude matrix and rate terms of the last state it saw, so each iterate's
amplitudes are computed once even when a line search's value() is followed by
evaluate() or wsr_bits() at the accepted candidate.

Bit identity. Every fast path in the package gives the bits of the plain per-BS
loop it replaced, and must stay so: the dissipative solver amplifies a last-bit
change into a visibly different WSR within 50 steps, and the tests pin trace
bytes.
- The per-BS products H_l @ conj(P_l)^T land in the columns of one buffer
  (_pair_products), which is conjugated once before each UT's amplitudes are
  summed from zero in ascending BS order into a C-contiguous array. IEEE
  negation is exact and a GEMM's operation sequence does not depend on operand
  signs, so this is a per-BS scatter loop of conj(H_l) @ P_l^T products bit for
  bit, signed zeros included (conjugating after the gather would make an
  unserved UT's zeros -0), and so are the gradient GEMMs on it. conj(P_l) is
  built directly as Re - i Im: that differs from conjugating P_l only in the
  sign of zero parts, which reaches a product only where the product is zero,
  and the zero-started sums make every zero +0. A WMMSE sweep carries that
  buffer and overwrites a BS's columns with the product its update computes
  anyway; amplitude_matrix given such a buffer only gathers.
- A GEMM's bits depend on its operands' memory order as well as their values:
  numpy passes BLAS a transpose flag per operand, and the kernels differ. The
  gradient's (beta A)[:, U_l] is F-ordered, as the fancy gather makes it (here
  a row take of (beta A)^T). Gathered in C order by take(axis=1), it changed
  the gradient's last bits on 42 of 2000 random small layouts (1-7 BSs, K and
  M_t of 1-40). The output's place does not matter: the gradient's GEMMs write
  through out= into the columns of one (M_t, n_blocks) buffer.
- numpy's complex multiply may round a one-element array in place
  differently from any other array (numpy 2.4 on an AVX-512 Xeon skips the
  fused multiply-add there), so the gradient's diagonal term is multiplied
  into a fresh array: in place, its bits would depend on the number of pairs.
- Work split over the helper thread (helper.py), such as both per-BS GEMM
  loops here, is the same one-thread BLAS, LAPACK or elementwise call on the
  same operands, writing its own rows or columns, and both shares finish
  before anything reads them. Elementwise operations and per-row sums give
  the same bits over any rows, a bincount over whole BSs' rows gives the same
  per-BS sums, and every reduction over all BSs runs on the calling thread,
  so both routes give the one-thread bits.
- A padded batched GEMM over all BSs is neither faster nor bit-identical. At
  table1, seed 0 (BSs of 16 to 67 UTs; one-thread OpenBLAS on a 2-core Xeon),
  one np.matmul of the (L, K, M_t) channel stack with zero-padded precoders took
  15.7 ms, the per-BS loop 11.8 ms inline and 7.3 ms split over the helper, and
  the batched products kept the loop's bits on only 10 of the 21 BSs.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import helper
from .channel import ChannelSet
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


def _pair_products(state: PrecoderState, ch: ChannelSet) -> np.ndarray:
    """(K, n_blocks + 1) buffer whose column i holds pair i's conj(H_l) @ p_{l,k}; the last is zero.

    Built as conj(H_l @ conj(P_l)^T), which is conj(H_l) @ P_l^T bit for bit.
    """
    lay = state.layout
    if lay.n_bs != ch.n_bs or lay.n_ut != ch.n_ut:
        raise ValueError("state layout does not match the channel set")
    m = lay.M_t
    conj_p = np.empty((lay.n_blocks, m), dtype=complex)
    conj_p.real = state.blocks[:, :m]
    np.negative(state.blocks[:, m:], out=conj_p.imag)
    buf = np.empty((ch.n_ut, lay.n_blocks + 1), dtype=complex)
    buf[:, -1] = 0.0

    def products(bs, _):
        for l in range(bs.start, bs.stop):
            rows = lay.bs_rows[l]
            if rows.stop != rows.start:
                np.matmul(ch.entries[l], conj_p[rows].T, out=buf[:, rows])

    helper.split_bs_loop(lay, products)
    del conj_p  # freed before the caller's gather allocates
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
    energy = np.abs(amps)
    np.multiply(energy, energy, out=energy)  # |A|^2: x**2 runs the same x * x
    a = energy.diagonal().copy()
    total = np.add.reduce(energy, axis=1)
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

    The cross sum is one product per BS, written into its pairs' columns of an
    (M_t, n_blocks) buffer; the h_{l,k} gather, the diagonal term and the
    real/imag split run once over all pairs, with the same floating-point
    operations in the same order as a per-BS evaluation, so the result is
    bit-identical to it (solver runs amplify any last-bit change).
    """
    lay = state.layout
    w2 = 2.0 * weights.w
    alpha = w2 * terms.b / terms.r
    beta = w2 * terms.a * terms.b / terms.r**2
    m, n = lay.M_t, lay.n_blocks
    cross_t = np.empty((m, n), dtype=complex)  # column i: pair i's cross sum
    # beta A, stored transposed: a row take of BS l's UTs is (beta A)[:, U_l] in F order,
    # the operand layout the fancy gather (beta A)[:, U_l] gives the GEMM
    beta_amps_t = np.empty_like(amps)
    np.multiply(beta[:, None], amps, out=beta_amps_t.T)

    def cross_products(bs, _):
        for l in range(bs.start, bs.stop):
            rows = lay.bs_rows[l]
            if rows.stop != rows.start:
                cols = beta_amps_t.take(lay.bs_uts[l], axis=0).T
                np.matmul(ch.entries[l].T, cols, out=cross_t[:, rows])
                del cols  # before the next BS's gather allocates

    helper.split_bs_loop(lay, cross_products)
    del beta_amps_t
    # (alpha_k + beta_k) A[k,k] per UT, gathered per pair: the per-pair products' values
    diag_coef = ((alpha + beta) * amps.diagonal())[lay.row_ut]
    out = np.empty((n, lay.block_len))
    cross = out.view(complex)  # row i: h_{l,k} of pair i, then its cross sum
    ch.entries.reshape(-1, m).take(lay.pair_index, axis=0, out=cross, mode="clip")
    grad_c = diag_coef[:, None] * cross  # the diagonal term, fresh (see the module docstring)
    np.copyto(cross, cross_t.T)  # transposed in one read
    np.subtract(cross, grad_c, out=grad_c)
    # the real/imag split: out[i] = [Re grad_c[i], Im grad_c[i]]
    np.copyto(out.reshape(n, 2, m), grad_c.view(float).reshape(n, m, 2).transpose(0, 2, 1))
    return out


def _central_diff(f, x: np.ndarray, eps: float) -> np.ndarray:
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
    state: PrecoderState, ch: ChannelSet, weights: Weights, eps: float = 1e-5
) -> PrecoderState:
    """Finite-difference oracle for the gradient, independent of the analytic path."""
    lay = state.layout
    objective = WsrObjective(ch, weights)

    def f(vec):
        return objective.value(PrecoderState(lay, vec.reshape(lay.n_blocks, lay.block_len)))

    grad = _central_diff(f, state.blocks.ravel(), eps)
    return PrecoderState(lay, grad.reshape(lay.n_blocks, lay.block_len), copy=False)


@dataclass
class ObjectiveEval:
    """One full objective evaluation at a state."""

    g_value: float  # negated weighted sum rate, nats
    wsr_bits: float
    grad: PrecoderState


class WsrObjective:
    """Bundles channels and weights for repeated solver evaluations.

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

    def __init__(self, ch: ChannelSet, weights: Weights):
        if weights.w.size != ch.n_ut:
            raise ValueError("need one weight per UT")
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
        )
