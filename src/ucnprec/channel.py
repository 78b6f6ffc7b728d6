"""Synthetic multi-cell layout, channel generation, RSRP and serving clusters.

The system model is fixed: gNB sites on a hexagonal grid with an inter-site
distance of half the deployment radius, BS antennas 25 m and UTs 1.5 m above
ground, a 6.7 GHz carrier and -104 dBm noise. Large-scale fading is a
log-distance pathloss with the 1 m free-space intercept and exponent 3,

    pathloss_db = 32.4 + 20 log10(f / 1 GHz) + 30 log10(d_3d / 1 m) + sector_db,

where sector_db = min(12 (dphi / 65 deg)^2, 30 dB) and dphi is the azimuth
offset from the sector boresight. Small-scale fading is i.i.d. Rayleigh.
Everything is a pure function of the scenario parameters and an integer seed,
so independent seeds can be generated in parallel without shared state.
"""

import math
from dataclasses import dataclass

import numpy as np

# Sub-stream tags so topology and fading draws never share an RNG stream even
# when the caller hands both operations the same seed.
_TOPOLOGY_STREAM = 0
_CHANNEL_STREAM = 1

_CARRIER_FREQ_HZ = 6.7e9
_NOISE_DBM = -104.0
_BS_HEIGHT_M = 25.0
_UT_HEIGHT_M = 1.5
_PL_EXPONENT = 3.0
_SECTOR_PHI3DB_DEG = 65.0
_SECTOR_BACKLOBE_DB = 30.0


def dbm_to_watt(dbm: float) -> float:
    """Convert a dBm level to linear watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class Topology:
    """BS/UT geometry of one drop. Positions are metres in the horizontal plane."""

    bs_positions: np.ndarray  # (B, 2)
    bs_orientations: np.ndarray  # (B,) sector boresight azimuth, radians
    ut_positions: np.ndarray  # (K, 2)
    M_t: int

    def __post_init__(self):
        self.bs_positions = np.asarray(self.bs_positions, dtype=float)
        self.bs_orientations = np.asarray(self.bs_orientations, dtype=float)
        self.ut_positions = np.asarray(self.ut_positions, dtype=float)
        if self.bs_positions.ndim != 2 or self.bs_positions.shape[1] != 2:
            raise ValueError("bs_positions must have shape (B, 2)")
        if self.ut_positions.ndim != 2 or self.ut_positions.shape[1] != 2:
            raise ValueError("ut_positions must have shape (K, 2)")
        if self.bs_positions.shape[0] < 1:
            raise ValueError("need at least one BS")
        if self.ut_positions.shape[0] < 1:
            raise ValueError("need at least one UT")
        if self.bs_orientations.shape != (self.bs_positions.shape[0],):
            raise ValueError("one boresight azimuth per BS required")
        if self.M_t < 1:
            raise ValueError("M_t must be a positive integer")

    @property
    def n_bs(self) -> int:
        return self.bs_positions.shape[0]

    @property
    def n_ut(self) -> int:
        return self.ut_positions.shape[0]


def _gnb_centers(count: int, isd: float) -> np.ndarray:
    """Hexagonal site grid: a centre site, then rings of 6*r sites at radius r*isd."""
    pts = [(0.0, 0.0)]
    ring = 1
    while len(pts) < count:
        n = 6 * ring
        for i in range(n):
            ang = 2.0 * math.pi * i / n
            pts.append((ring * isd * math.cos(ang), ring * isd * math.sin(ang)))
        ring += 1
    return np.array(pts[:count], dtype=float)


def generate_topology(scenario, seed: int) -> Topology:
    """Lay out gNB sites with co-located sectors and drop UTs uniformly in the disk.

    Each gNB contributes `sectors_per_gnb` BSs at the same coordinates with
    boresights spaced 360/sectors degrees apart. Deterministic given the seed.
    """
    radius = scenario.deployment_radius_m
    centers = _gnb_centers(scenario.gnb_count, radius / 2.0)
    sectors = scenario.sectors_per_gnb
    bs_positions = np.repeat(centers, sectors, axis=0)
    boresights = np.array([2.0 * math.pi * s / sectors for s in range(sectors)])
    bs_orientations = np.tile(boresights, scenario.gnb_count)

    rng = np.random.default_rng([_TOPOLOGY_STREAM, seed])
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, scenario.K))
    ang = rng.uniform(0.0, 2.0 * math.pi, scenario.K)
    ut_positions = np.column_stack([r * np.cos(ang), r * np.sin(ang)])

    return Topology(
        bs_positions=bs_positions,
        bs_orientations=bs_orientations,
        ut_positions=ut_positions,
        M_t=scenario.M_t,
    )


@dataclass
class ChannelSet:
    """Complex channel vectors h[l, k] (length M_t) for every BS-UT pair."""

    entries: np.ndarray  # (B, K, M_t) complex128
    noise_power: float  # sigma_z^2, linear watts

    def __post_init__(self):
        self.entries = np.ascontiguousarray(self.entries, dtype=complex)
        if self.entries.ndim != 3:
            raise ValueError("entries must have shape (B, K, M_t)")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("channel entries must be finite")
        if not 0 < self.noise_power < math.inf:
            raise ValueError("noise_power must be finite and > 0")

    @property
    def n_bs(self) -> int:
        return self.entries.shape[0]

    @property
    def n_ut(self) -> int:
        return self.entries.shape[1]

    @property
    def M_t(self) -> int:
        return self.entries.shape[2]


def path_gains(topo: Topology) -> np.ndarray:
    """Linear power gain g[l, k] from the documented pathloss + sector pattern."""
    delta = topo.ut_positions[None, :, :] - topo.bs_positions[:, None, :]
    d2 = np.hypot(delta[..., 0], delta[..., 1])
    # the height gap keeps d3 > 0, so the pathloss is defined for every pair
    d3 = np.sqrt(d2**2 + (_BS_HEIGHT_M - _UT_HEIGHT_M) ** 2)
    az = np.arctan2(delta[..., 1], delta[..., 0])
    dphi = np.mod(az - topo.bs_orientations[:, None] + math.pi, 2.0 * math.pi) - math.pi
    phi3 = math.radians(_SECTOR_PHI3DB_DEG)
    sector_db = np.minimum(12.0 * (dphi / phi3) ** 2, _SECTOR_BACKLOBE_DB)
    intercept_db = 32.4 + 20.0 * math.log10(_CARRIER_FREQ_HZ / 1e9)
    pl_db = intercept_db + 10.0 * _PL_EXPONENT * np.log10(d3) + sector_db
    return 10.0 ** (-pl_db / 10.0)


def generate_channels(topo: Topology, seed: int) -> ChannelSet:
    """Draw h[l, k] = sqrt(g[l, k]) * c[l, k] with c ~ CN(0, I_Mt), i.i.d. over pairs.

    Deterministic given the seed; the fading stream is independent of the
    topology stream even when both use the same seed value.
    """
    gains = path_gains(topo)
    rng = np.random.default_rng([_CHANNEL_STREAM, seed])
    shape = (topo.n_bs, topo.n_ut, topo.M_t)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    entries = np.sqrt(gains)[:, :, None] * c
    return ChannelSet(entries=entries, noise_power=dbm_to_watt(_NOISE_DBM))


@dataclass
class RsrpTable:
    """Per-pair RSRP in dB; delta is each pair's gap to its UT's strongest BS."""

    values: np.ndarray  # (B, K) dB

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must have shape (B, K)")
        self.delta = self.values.max(axis=0, keepdims=True) - self.values


def compute_rsrp(ch: ChannelSet) -> RsrpTable:
    """RSRP[l, k] = 10 log10(h^H h)."""
    energy = np.sum(np.abs(ch.entries) ** 2, axis=2)
    if np.any(energy <= 0.0):
        raise ValueError("zero-norm channel has undefined RSRP")
    return RsrpTable(values=10.0 * np.log10(energy))


@dataclass
class ClusterMap:
    """Serving sets B_k = BSs serving UT k; served_ut[l] is their dual U_l, ascending."""

    serving_bs: list  # per UT: list of BS indices
    n_bs: int

    def __post_init__(self):
        self.serving_bs = [list(bss) for bss in self.serving_bs]
        self.served_ut = [[] for _ in range(self.n_bs)]
        for k, bss in enumerate(self.serving_bs):
            if len(set(bss)) != len(bss):
                raise ValueError(f"duplicate BS index in serving set of UT {k}")
            for l in bss:
                if not 0 <= l < self.n_bs:
                    raise ValueError(f"BS index {l} out of range for UT {k}")
                self.served_ut[l].append(k)

    @property
    def n_ut(self) -> int:
        return len(self.serving_bs)

    def cluster_sizes(self) -> np.ndarray:
        return np.array([len(b) for b in self.serving_bs], dtype=int)


def build_clusters(rsrp: RsrpTable, b_sc: int) -> ClusterMap:
    """Serve each UT by the b_sc BSs with smallest RSRP gap (ties: lower BS index)."""
    n_bs, n_ut = rsrp.values.shape
    if not 1 <= b_sc <= n_bs:
        raise ValueError(f"B_sc must lie in [1, {n_bs}], got {b_sc}")
    serving = []
    for k in range(n_ut):
        order = np.argsort(rsrp.delta[:, k], kind="stable")
        serving.append(sorted(int(l) for l in order[:b_sc]))
    return ClusterMap(serving, n_bs)
