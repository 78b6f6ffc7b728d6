"""Independent reference computations used to validate the fast paths.

Everything here is written as plain loops over the defining formulas,
deliberately sharing no code with the package internals: complex-domain rates
and powers, the real embedding of channels and precoders that the objective's
complex evaluation must agree with, the pre-Newton WMMSE sweep, the per-BS
amplitude scatter, and the constraint Jacobian and RATTLE multipliers that
rattle_step computes inline.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class RealChannel:
    """Real block form of one complex channel vector."""

    mat: np.ndarray  # (2*M_t, 2)

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=float)
        if self.mat.ndim != 2 or self.mat.shape[1] != 2 or self.mat.shape[0] % 2:
            raise ValueError("RealChannel.mat must have shape (2*M_t, 2)")

    def to_complex(self) -> np.ndarray:
        m = self.mat.shape[0] // 2
        return self.mat[:m, 0] + 1j * self.mat[m:, 0]


def embed_channel(h: np.ndarray) -> RealChannel:
    """Embed a complex channel vector h as [[Re h, -Im h], [Im h, Re h]], (2*M_t) x 2.

    mat.T @ embed_precoder(p) is then the embedding of the scalar h^H p, and
    both maps preserve Euclidean norms.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 1:
        raise ValueError("expected a 1-D complex channel vector")
    re, im = h.real, h.imag
    top = np.column_stack([re, -im])
    bottom = np.column_stack([im, re])
    return RealChannel(mat=np.vstack([top, bottom]))


def embed_precoder(p: np.ndarray) -> np.ndarray:
    """Stack real over imaginary parts of a complex vector."""
    p = np.asarray(p, dtype=complex)
    if p.ndim != 1:
        raise ValueError("expected a 1-D complex vector")
    return np.concatenate([p.real, p.imag])


def extract_precoder(v: np.ndarray) -> np.ndarray:
    """Inverse of embed_precoder."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size % 2:
        raise ValueError("real vector must have even length")
    m = v.size // 2
    return v[:m] + 1j * v[m:]


def complex_blocks(state):
    """The (n_blocks, M_t) complex precoder blocks of a real state."""
    m = state.layout.M_t
    return state.blocks[:, :m] + 1j * state.blocks[:, m:]


def complex_blocks_dict(state):
    cb = complex_blocks(state)
    return {pair: cb[i] for i, pair in enumerate(state.layout.pairs)}


def naive_signal_and_interference(ch, clusters, state):
    """Per-UT desired power a_k and interference-plus-noise r_k, by loops."""
    p = complex_blocks_dict(state)
    n_ut = ch.n_ut
    a = np.zeros(n_ut)
    r = np.zeros(n_ut)
    for k in range(n_ut):
        sig = sum(np.vdot(ch.entries[m, k], p[(m, k)]) for m in clusters.serving_bs[k])
        a[k] = abs(sig) ** 2
        interference = 0.0
        for t in range(n_ut):
            if t == k:
                continue
            amp = sum(np.vdot(ch.entries[m, k], p[(m, t)]) for m in clusters.serving_bs[t])
            interference += abs(amp) ** 2
        r[k] = interference + ch.noise_power
    return a, r


def naive_wsr_bits(ch, clusters, state, weights):
    a, r = naive_signal_and_interference(ch, clusters, state)
    return float(np.sum(weights.w * np.log2(1.0 + a / r)))


def naive_bs_powers(state):
    """Per-BS sum of |p|^2 evaluated from the complex blocks."""
    p = complex_blocks_dict(state)
    out = np.zeros(state.layout.n_bs)
    for (l, _), vec in p.items():
        out[l] += float(np.sum(np.abs(vec) ** 2))
    return out


def dense_constraint_jacobian(state):
    """The never-materialized constraint Jacobian as an explicit (B, dim) matrix."""
    lay = state.layout
    mat = np.zeros((lay.n_bs, lay.n_blocks * lay.block_len))
    for i, (l, _) in enumerate(lay.pairs):
        mat[l, i * lay.block_len : (i + 1) * lay.block_len] = state.blocks[i]
    return mat


def reference_wmmse_step(state, ch, clusters, rho, weights, power_tol=1e-10):
    """One WMMSE sweep with a cold eigh + bisect_power multiplier search per BS.

    The per-BS solve that wmmse_step ran before its Newton search: the gram
    is hermitized, every multiplier is found from scratch by bisect_power,
    and the amplitudes are kept by loops over the active pairs. Returns
    (new_state, per-BS multipliers, WSR in bits at the new precoder).
    """
    from ucnprec.baselines import bisect_power
    from ucnprec.embedding import PrecoderState

    layout = state.layout
    n_ut = ch.n_ut
    cblocks = complex_blocks(state).copy()
    amps = np.zeros((n_ut, n_ut), dtype=complex)
    for i, (l, t) in enumerate(layout.pairs):
        amps[:, t] += ch.entries[l].conj() @ cblocks[i]
    a = np.abs(np.diag(amps)) ** 2
    total = np.sum(np.abs(amps) ** 2, axis=1)
    u = np.conj(np.diag(amps)) / (total + ch.noise_power)
    big_w = 1.0 + a / (total - a + ch.noise_power)
    coef = weights.w * big_w * np.abs(u) ** 2
    lam = np.zeros(layout.n_bs)
    for l, rows in enumerate(layout.bs_rows):
        cols = layout.bs_uts[l]
        if len(cols) == 0:
            continue
        h_l = ch.entries[l]
        own = h_l.conj() @ cblocks[rows].T
        cross = amps[:, cols] - own
        rhs = weights.w[cols] * big_w[cols] * np.conj(u[cols]) * h_l[cols].T
        rhs = rhs - h_l.T @ (coef[:, None] * cross)
        gram = (h_l.T * coef) @ h_l.conj()
        evals, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
        evals = np.maximum(evals, 0.0)
        z = vecs.conj().T @ rhs
        s = np.sum(np.abs(z) ** 2, axis=1)
        live = s > 0.0
        e_live, s_live = evals[live], s[live]
        singular = bool(np.any(e_live == 0.0))

        def power(x):
            if singular and x == 0.0:
                return np.inf
            return float(np.sum(s_live / (e_live + x) ** 2))

        lam[l] = bisect_power(power, float(rho.rho[l]), power_tol)
        new = vecs @ (z / (evals + lam[l])[:, None])
        amps[:, cols] = cross + h_l.conj() @ new
        cblocks[rows] = new.T
    new_state = PrecoderState.from_complex(layout, cblocks)
    return new_state, lam, naive_wsr_bits(ch, clusters, new_state, weights)


def reference_amplitude_matrix(state, ch):
    """The per-BS scatter loop amplitude_matrix must match bit for bit.

    One conj(H_l) @ P_l^T product per BS, added into the columns of the UTs
    that BS serves, in ascending BS order.
    """
    lay = state.layout
    amps = np.zeros((ch.n_ut, ch.n_ut), dtype=complex)
    cblocks = complex_blocks(state)
    for l, rows in enumerate(lay.bs_rows):
        if rows.stop == rows.start:
            continue
        amps[:, lay.bs_uts[l]] += ch.entries[l].conj() @ cblocks[rows].T
    return amps


# The constraint Jacobian G and the RATTLE multipliers, as whole-array operations.
# rattle_step computes both multipliers inline over row ranges; these keep its
# arithmetic (an elementwise product, a per-row np.add.reduce, a bincount of the
# rows by BS), so they give its bits.


def constraint_apply_G(p, v):
    """Apply the constraint Jacobian: entry l is p_hat_l . v_hat_l."""
    if not p.layout.same_as(v.layout):
        raise ValueError("states must share one layout")
    rows = np.add.reduce(np.multiply(p.blocks, v.blocks), axis=1)
    return np.bincount(p.layout.row_bs, weights=rows, minlength=p.layout.n_bs)


def flow_multiplier(p, q, grad, rho):
    """Continuous-time multiplier that keeps the flow tangent to the manifold.

    With unit mass: lam_l = (q_hat_l . q_hat_l - p_hat_l . grad_l) / rho_l,
    valid on the manifold where p_hat_l . p_hat_l = rho_l.
    """
    if rho.n_bs != p.layout.n_bs:
        raise ValueError("power budget length must match the number of BSs")
    return (constraint_apply_G(q, q) - constraint_apply_G(p, grad)) / rho.rho


def velocity_multiplier(p_next, q_half, grad_next, rho, h):
    """Multiplier of the closing half kick, chosen so p_hat_l . q_hat_l = 0 after it.

    mu_l = (2 p_hat_l . q_half_l - h p_hat_l . grad_l) / (h rho_l).
    """
    if not h > 0:
        raise ValueError("h must be > 0")
    if rho.n_bs != p_next.layout.n_bs:
        raise ValueError("power budget length must match the number of BSs")
    num = 2.0 * constraint_apply_G(p_next, q_half) - h * constraint_apply_G(p_next, grad_next)
    return num / (h * rho.rho)
