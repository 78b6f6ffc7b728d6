"""The block-sparse real precoder model and its per-BS power budget.

A complex precoder block p maps to the real block p_hat = [Re p; Im p], which
preserves Euclidean norms; the solvers work on p_hat, and the objective turns
it back into complex blocks to evaluate channel products.

Precoders live only on the active (BS, UT) pairs selected by the serving
clusters; inactive pairs are implicitly zero. The canonical stacking order is
BS-major with ascending UT index inside each BS, which every solver in this
package relies on.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ClusterMap, dbm_to_watt


@dataclass
class PowerBudget:
    """Per-BS transmit power limits in linear watts."""

    rho: np.ndarray  # (B,)

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.ndim != 1:
            raise ValueError("rho must be a vector of length B")
        if not np.all((self.rho > 0) & (self.rho < np.inf)):
            raise ValueError("all power limits must be finite and > 0")

    @classmethod
    def uniform(cls, n_bs: int, watts: float) -> "PowerBudget":
        return cls(rho=np.full(n_bs, float(watts)))

    @classmethod
    def uniform_dbm(cls, n_bs: int, dbm: float) -> "PowerBudget":
        return cls.uniform(n_bs, dbm_to_watt(dbm))

    @property
    def n_bs(self) -> int:
        return self.rho.size


class BlockLayout:
    """Canonical ordering of the active (BS, UT) blocks of a cluster map.

    The order is a pure function of the ClusterMap: ascending BS index, then
    ascending UT index within each BS, regardless of how the serving lists
    were supplied. Rows of a state array follow this order, so each BS owns a
    contiguous row range.
    """

    def __init__(self, clusters: ClusterMap, M_t: int):
        if M_t < 1:
            raise ValueError("M_t must be >= 1")
        self.M_t = int(M_t)
        self.block_len = 2 * self.M_t
        self.n_bs = clusters.n_bs
        self.n_ut = clusters.n_ut
        self.bs_uts = [np.array(u, dtype=int) for u in clusters.served_ut]
        self.pairs = [(l, int(k)) for l in range(self.n_bs) for k in self.bs_uts[l]]
        self.bs_rows = []
        start = 0
        for l in range(self.n_bs):
            n = len(self.bs_uts[l])
            self.bs_rows.append(slice(start, start + n))
            start += n
        self.n_blocks = len(self.pairs)
        self.row_bs = np.array([l for l, _ in self.pairs], dtype=int)
        self.row_ut = np.array([k for _, k in self.pairs], dtype=int)
        self.nonempty_bs = np.array([len(u) > 0 for u in self.bs_uts], dtype=bool)

    # the objective's gather indices are built on first use, so a layout that
    # never reaches an objective does not pay for them

    @functools.cached_property
    def pair_index(self) -> np.ndarray:
        """Row of each pair in a (B*K, ...) array indexed by l * K + k."""
        return self.row_bs * self.n_ut + self.row_ut

    @functools.cached_property
    def serving_rows(self) -> np.ndarray:
        """serving_rows[r, k]: row of UT k's r-th serving BS in ascending BS order.

        A UT served by fewer than r + 1 BSs gets n_blocks, one past the last row.
        """
        n_serving = np.bincount(self.row_ut, minlength=self.n_ut)
        by_ut = np.argsort(self.row_ut, kind="stable")
        rank = np.arange(self.n_blocks) - np.repeat(np.cumsum(n_serving) - n_serving, n_serving)
        rows = np.full((n_serving.max(initial=0), self.n_ut), self.n_blocks, dtype=np.intp)
        rows[rank, self.row_ut[by_ut]] = by_ut
        return rows

    @functools.cached_property
    def nonempty_index(self) -> np.ndarray:
        """The nonempty BSs, ascending."""
        return np.flatnonzero(self.nonempty_bs)

    def same_as(self, other: "BlockLayout") -> bool:
        return self is other or (self.M_t == other.M_t and self.pairs == other.pairs)


class PrecoderState:
    """Stacked real precoder restricted to the active (BS, UT) pairs.

    blocks has shape (n_blocks, 2*M_t) with rows in the canonical layout
    order. Instances are value objects: the array is frozen on construction so
    states can be shared across threads read-only.

    The constructor checks shape and finiteness. trusted() neither copies nor
    re-scans; internal paths use it for fresh arrays of the right shape that
    are finite by construction or checked where they are consumed: rattle_step
    tests its iterates itself, and the gradient reaches the iterates only
    through that test or through the checked Armijo candidates.
    """

    def __init__(self, layout: BlockLayout, blocks: np.ndarray, copy: bool = True):
        arr = np.array(blocks, dtype=float, copy=copy)
        if arr.shape != (layout.n_blocks, layout.block_len):
            raise ValueError(
                f"blocks must have shape {(layout.n_blocks, layout.block_len)}, "
                f"got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("precoder blocks must be finite")
        arr.setflags(write=False)
        self.layout = layout
        self.blocks = arr

    @classmethod
    def trusted(cls, layout: BlockLayout, blocks: np.ndarray) -> "PrecoderState":
        """Freeze and wrap a float array, skipping the constructor's copy and checks."""
        blocks.setflags(write=False)
        state = cls.__new__(cls)
        state.layout = layout
        state.blocks = blocks
        return state

    @classmethod
    def zeros(cls, layout: BlockLayout) -> "PrecoderState":
        return cls(layout, np.zeros((layout.n_blocks, layout.block_len)), copy=False)

    @classmethod
    def from_complex(cls, layout: BlockLayout, cblocks: np.ndarray) -> "PrecoderState":
        cblocks = np.asarray(cblocks, dtype=complex)
        if cblocks.shape != (layout.n_blocks, layout.M_t):
            raise ValueError("complex blocks must have shape (n_blocks, M_t)")
        return cls(layout, np.hstack([cblocks.real, cblocks.imag]), copy=False)


def bs_block_norms(state: PrecoderState) -> np.ndarray:
    """Per-BS transmit power: entry l is sum_{k in U_l} ||p_hat_{l,k}||^2.

    Each BS's row powers are summed by np.add.reduce over their slice, one call
    per BS: the solvers' traces pin those bits, and neither one-call form gives
    them. On the 6900 nonempty-BS sums of 50 scaled random precoders per
    desk.cfg seed 0-19, np.add.reduceat differed in the last bit on 2411 and
    np.bincount (a running sum) on 1147.
    """
    # np.add.reduce is what np.sum and ndarray.sum run, without their Python-level dispatch
    row_power = np.add.reduce(state.blocks**2, axis=1)
    return np.array([np.add.reduce(row_power[rows]) for rows in state.layout.bs_rows])


def power_residual(layout: BlockLayout, powers: np.ndarray, budget: PowerBudget) -> float:
    """Largest |P_l - rho_l| / rho_l over the nonempty BSs, 0 if there are none."""
    nonempty = layout.nonempty_index
    if not nonempty.size:
        return 0.0
    rho = budget.rho[nonempty]
    return float(np.maximum.reduce(np.abs(powers[nonempty] - rho) / rho))


def renormalize_power(state: PrecoderState, budget: PowerBudget) -> PrecoderState:
    """Scale each nonempty BS block group to exactly its power limit."""
    lay = state.layout
    if budget.n_bs != lay.n_bs:
        raise ValueError("power budget length must match the number of BSs")
    powers = bs_block_norms(state)
    nonempty = lay.nonempty_bs
    # powers are sums of squares, so a nonempty BS is dead exactly where its power is 0
    if np.fmin.reduce(powers, where=nonempty, initial=np.inf) <= 0.0:
        dead = np.flatnonzero(nonempty & (powers <= 0.0))
        raise ValueError(f"cannot renormalize zero-power blocks of BS {dead[0]}")
    scale = np.sqrt(np.divide(budget.rho, powers, out=np.ones(lay.n_bs), where=nonempty))
    # a finite scale leaves every entry of a finite state below about sqrt(rho_l),
    # so the product needs no finiteness scan
    if not np.isfinite(scale).all():
        raise ValueError("precoder blocks must be finite")
    return PrecoderState.trusted(lay, scale[lay.row_bs][:, None] * state.blocks)
