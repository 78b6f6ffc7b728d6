"""Independent reference computations used to validate the fast paths.

Everything here is written as plain loops over the defining formulas in the
complex domain, deliberately sharing no code with the package internals.
"""

import numpy as np


def complex_blocks_dict(state):
    cb = state.complex_blocks()
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
    mat = np.zeros((lay.n_bs, lay.dim))
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
    from ucnprec import PrecoderState, bisect_power

    layout = state.layout
    n_ut = ch.n_ut
    cblocks = state.complex_blocks().copy()
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
    cblocks = state.complex_blocks()
    for l, rows in enumerate(lay.bs_rows):
        if rows.stop == rows.start:
            continue
        amps[:, lay.bs_uts[l]] += ch.entries[l].conj() @ cblocks[rows].T
    return amps
