"""Synthetic multi-cell layout, channel generation, RSRP and serving clusters.

Large-scale fading is a log-distance pathloss with a parabolic sector pattern;
small-scale fading is i.i.d. Rayleigh. Everything is a pure function of the
scenario parameters and an integer seed, so independent seeds can be generated
in parallel without shared state.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

# Sub-stream tags so topology and fading draws never share an RNG stream even
# when the caller hands both operations the same seed.
_TOPOLOGY_STREAM = 0
_CHANNEL_STREAM = 1


def dbm_to_watt(dbm: float) -> float:
    """Convert a dBm level to linear watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class PathlossParams:
    """Log-distance pathloss plus parabolic sector attenuation.

    pathloss_db = pl0_db + 10 * exponent * log10(d_3d / 1 m) + sector_db with
    sector_db = min(12 * (dphi / phi_3db)^2, backlobe_db), dphi the azimuth
    offset from the sector boresight. pl0_db = None selects the 1 m free-space
    intercept 32.4 + 20 * log10(f / 1 GHz).
    """

    exponent: float = 3.0
    pl0_db: float | None = None
    phi_3db_deg: float = 65.0
    backlobe_db: float = 30.0

    def intercept_db(self, carrier_freq_hz: float) -> float:
        if self.pl0_db is not None:
            return float(self.pl0_db)
        return 32.4 + 20.0 * math.log10(carrier_freq_hz / 1e9)


@dataclass
class Topology:
    """BS/UT geometry of one drop. Positions are metres in the horizontal plane."""

    bs_positions: np.ndarray  # (B, 2)
    bs_orientations: np.ndarray  # (B,) sector boresight azimuth, radians
    ut_positions: np.ndarray  # (K, 2)
    bs_height: float
    ut_height: float
    M_t: int
    carrier_freq_hz: float

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
    if scenario.gnb_count < 1:
        raise ValueError("gnb_count must be >= 1")
    if scenario.sectors_per_gnb < 1:
        raise ValueError("sectors_per_gnb must be >= 1")
    if scenario.K < 1:
        raise ValueError("K must be >= 1")
    if scenario.M_t < 1:
        raise ValueError("M_t must be >= 1")
    radius = scenario.deployment_radius_m
    if radius <= 0:
        raise ValueError("deployment_radius_m must be > 0")

    isd = scenario.isd_m if scenario.isd_m is not None else radius / 2.0
    centers = _gnb_centers(scenario.gnb_count, isd)
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
        bs_height=scenario.bs_height_m,
        ut_height=scenario.ut_height_m,
        M_t=scenario.M_t,
        carrier_freq_hz=scenario.carrier_freq_hz,
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
        if not self.noise_power > 0:
            raise ValueError("noise_power must be > 0")

    @property
    def n_bs(self) -> int:
        return self.entries.shape[0]

    @property
    def n_ut(self) -> int:
        return self.entries.shape[1]

    @property
    def M_t(self) -> int:
        return self.entries.shape[2]

    def entry(self, l: int, k: int) -> np.ndarray:
        return self.entries[l, k]


def path_gains(topo: Topology, pathloss: PathlossParams) -> np.ndarray:
    """Linear power gain g[l, k] from the documented pathloss + sector pattern."""
    delta = topo.ut_positions[None, :, :] - topo.bs_positions[:, None, :]
    d2 = np.hypot(delta[..., 0], delta[..., 1])
    dz = topo.bs_height - topo.ut_height
    d3 = np.sqrt(d2**2 + dz**2)
    if np.any(d3 == 0.0):
        raise ValueError("UT coincides with a BS in 3-D; pathloss undefined")
    az = np.arctan2(delta[..., 1], delta[..., 0])
    dphi = np.mod(az - topo.bs_orientations[:, None] + math.pi, 2.0 * math.pi) - math.pi
    phi3 = math.radians(pathloss.phi_3db_deg)
    sector_db = np.minimum(12.0 * (dphi / phi3) ** 2, pathloss.backlobe_db)
    pl_db = (
        pathloss.intercept_db(topo.carrier_freq_hz)
        + 10.0 * pathloss.exponent * np.log10(d3)
        + sector_db
    )
    return 10.0 ** (-pl_db / 10.0)


def generate_channels(
    topo: Topology,
    seed: int,
    pathloss: PathlossParams | None = None,
    noise_dbm: float = -104.0,
) -> ChannelSet:
    """Draw h[l, k] = sqrt(g[l, k]) * c[l, k] with c ~ CN(0, I_Mt), i.i.d. over pairs.

    Deterministic given the seed; the fading stream is independent of the
    topology stream even when both use the same seed value.
    """
    gains = path_gains(topo, pathloss if pathloss is not None else PathlossParams())
    rng = np.random.default_rng([_CHANNEL_STREAM, seed])
    shape = (topo.n_bs, topo.n_ut, topo.M_t)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    entries = np.sqrt(gains)[:, :, None] * c
    return ChannelSet(entries=entries, noise_power=dbm_to_watt(noise_dbm))


@dataclass
class RsrpTable:
    """Per-pair RSRP in dB and the gap to each UT's strongest BS."""

    values: np.ndarray  # (B, K) dB
    delta: np.ndarray  # (B, K) dB, >= 0, min over BSs is 0 for every UT

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.delta = np.asarray(self.delta, dtype=float)
        if self.values.shape != self.delta.shape or self.values.ndim != 2:
            raise ValueError("values and delta must share shape (B, K)")
        if np.any(self.delta < -1e-9):
            raise ValueError("delta entries must be nonnegative")
        if np.any(np.abs(self.delta.min(axis=0)) > 1e-9):
            raise ValueError("every UT needs a zero-gap primary BS")


def compute_rsrp(ch: ChannelSet) -> RsrpTable:
    """RSRP[l, k] = 10 log10(h^H h) and its gap to the per-UT maximum."""
    energy = np.sum(np.abs(ch.entries) ** 2, axis=2)
    if np.any(energy <= 0.0):
        raise ValueError("zero-norm channel has undefined RSRP")
    values = 10.0 * np.log10(energy)
    delta = values.max(axis=0, keepdims=True) - values
    return RsrpTable(values=values, delta=delta)


@dataclass
class ClusterMap:
    """Serving sets: B_k = BSs serving UT k, U_l = UTs served by BS l."""

    serving_bs: list  # per UT: list of BS indices
    served_ut: list  # per BS: list of UT indices

    def __post_init__(self):
        n_bs = len(self.served_ut)
        n_ut = len(self.serving_bs)
        pairs_from_ut = set()
        for k, bss in enumerate(self.serving_bs):
            if len(set(bss)) != len(bss):
                raise ValueError(f"duplicate BS index in serving set of UT {k}")
            for l in bss:
                if not 0 <= l < n_bs:
                    raise ValueError(f"BS index {l} out of range for UT {k}")
                pairs_from_ut.add((l, k))
        pairs_from_bs = set()
        for l, uts in enumerate(self.served_ut):
            if len(set(uts)) != len(uts):
                raise ValueError(f"duplicate UT index in served set of BS {l}")
            for k in uts:
                if not 0 <= k < n_ut:
                    raise ValueError(f"UT index {k} out of range for BS {l}")
                pairs_from_bs.add((l, k))
        if pairs_from_ut != pairs_from_bs:
            raise ValueError("serving_bs and served_ut are not duals of each other")

    @classmethod
    def from_serving(cls, serving_bs: list, n_bs: int) -> "ClusterMap":
        served = [[] for _ in range(n_bs)]
        for k, bss in enumerate(serving_bs):
            for l in bss:
                served[l].append(k)
        return cls(serving_bs=[list(b) for b in serving_bs], served_ut=served)

    @property
    def n_bs(self) -> int:
        return len(self.served_ut)

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
    return ClusterMap.from_serving(serving, n_bs)


def save_channels(path, ch: ChannelSet) -> None:
    """Dump a ChannelSet as flat binary.

    Layout: int64 B, K, M_t; float64 noise_power; then row-major over (l, k):
    int64 l, int64 k, 2*M_t float64 (re, im interleaved per antenna).
    """
    b, k_ut, m = ch.entries.shape
    with open(path, "wb") as f:
        np.array([b, k_ut, m], dtype=np.int64).tofile(f)
        np.array([ch.noise_power], dtype=np.float64).tofile(f)
        for l in range(b):
            for k in range(k_ut):
                np.array([l, k], dtype=np.int64).tofile(f)
                row = np.empty(2 * m, dtype=np.float64)
                row[0::2] = ch.entries[l, k].real
                row[1::2] = ch.entries[l, k].imag
                row.tofile(f)


def check_file_size(f, what: str, dims: tuple, size: int) -> None:
    """Reject a header with a negative dimension or a size other than the file's.

    size is the file size in bytes that the header's dims imply; loaders call
    this before they allocate anything from the header.
    """
    if min(dims) < 0:
        raise ValueError(f"corrupt {what} file header: negative dimension in {dims}")
    actual = os.fstat(f.fileno()).st_size
    if actual < size:
        raise ValueError(f"truncated {what} file body: header implies {size} bytes, file has {actual}")
    if actual > size:
        raise ValueError(f"{actual - size} trailing bytes after the {what} file body")


def load_channels(path) -> ChannelSet:
    """Inverse of save_channels."""
    with open(path, "rb") as f:
        header = np.fromfile(f, dtype=np.int64, count=3)
        if header.size != 3:
            raise ValueError("truncated channel file header")
        b, k_ut, m = (int(x) for x in header)
        noise = np.fromfile(f, dtype=np.float64, count=1)
        if noise.size != 1:
            raise ValueError("truncated channel file header")
        check_file_size(f, "channel", (b, k_ut, m), 32 + b * k_ut * 16 * (1 + m))
        entries = np.zeros((b, k_ut, m), dtype=complex)
        for l in range(b):
            for k in range(k_ut):
                idx = np.fromfile(f, dtype=np.int64, count=2)
                row = np.fromfile(f, dtype=np.float64, count=2 * m)
                if idx.size != 2 or row.size != 2 * m:
                    raise ValueError("truncated channel file body")
                if (int(idx[0]), int(idx[1])) != (l, k):
                    raise ValueError("channel file rows out of canonical order")
                entries[l, k] = row[0::2] + 1j * row[1::2]
    return ChannelSet(entries=entries, noise_power=float(noise[0]))
