import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ucnprec.channel import (
    _BS_HEIGHT_M,
    _UT_HEIGHT_M,
    ChannelSet,
    ClusterMap,
    RsrpTable,
    Topology,
    build_clusters,
    compute_rsrp,
    generate_channels,
    path_gains,
)
from ucnprec.embedding import BlockLayout
from conftest import make_instance


class TestTopology:
    def test_single_gnb_three_sectors(self):
        inst = make_instance(gnb_count=1, sectors_per_gnb=3, K=4)
        topo = inst["topo"]
        assert topo.n_bs == 3
        assert np.allclose(topo.bs_positions, topo.bs_positions[0])
        expected = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
        assert np.allclose(topo.bs_orientations, expected)

    def test_seven_gnbs_three_sectors_gives_21_bs(self):
        inst = make_instance(gnb_count=7, sectors_per_gnb=3, K=5)
        assert inst["topo"].n_bs == 21

    def test_same_seed_identical(self):
        a = make_instance(seed=3)["topo"]
        b = make_instance(seed=3)["topo"]
        assert np.array_equal(a.bs_positions, b.bs_positions)
        assert np.array_equal(a.ut_positions, b.ut_positions)

    def test_different_seed_differs(self):
        a = make_instance(seed=3)["topo"]
        b = make_instance(seed=4)["topo"]
        assert not np.array_equal(a.ut_positions, b.ut_positions)

    def test_uts_inside_deployment_radius(self):
        inst = make_instance(seed=7, K=50, deployment_radius_m=120.0)
        radii = np.linalg.norm(inst["topo"].ut_positions, axis=1)
        assert np.all(radii <= 120.0 + 1e-9)

    @pytest.mark.parametrize(
        "overrides",
        [dict(K=0), dict(gnb_count=0), dict(deployment_radius_m=0.0), dict(M_t=0)],
    )
    def test_rejects_degenerate_scenarios(self, overrides):
        with pytest.raises(ValueError):
            make_instance(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(bs_positions=[0.0, 0.0]), "bs_positions must have shape (B, 2)"),
            (dict(bs_positions=[[0.0, 0.0, 0.0]]), "bs_positions must have shape (B, 2)"),
            (dict(ut_positions=[[1.0, 2.0, 3.0]]), "ut_positions must have shape (K, 2)"),
            (dict(bs_positions=np.zeros((0, 2)), bs_orientations=[]), "need at least one BS"),
            (dict(ut_positions=np.zeros((0, 2))), "need at least one UT"),
            (dict(bs_orientations=[0.0, 1.0]), "one boresight azimuth per BS required"),
            (dict(M_t=0), "M_t must be a positive integer"),
        ],
        ids=["bs_flat", "bs_3d", "ut_3d", "no_bs", "no_ut", "azimuths", "M_t"],
    )
    def test_constructor_names_each_bad_field(self, overrides, message):
        fields = dict(
            bs_positions=[[0.0, 0.0]], bs_orientations=[0.0], ut_positions=[[1.0, 2.0]], M_t=4
        )
        Topology(**fields)  # the base case is valid
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Topology(**{**fields, **overrides})


class TestChannels:
    def test_pathloss_doubles_distance_9dB(self):
        # 10 * 3 * log10(2) = 9.03 dB under exponent 3, both UTs on boresight at
        # 3-D distances of 100 m and 200 m over the fixed 23.5 m height gap
        dz = _BS_HEIGHT_M - _UT_HEIGHT_M
        topo = Topology(
            bs_positions=[[0.0, 0.0]],
            bs_orientations=[0.0],
            ut_positions=[[math.sqrt(d**2 - dz**2), 0.0] for d in (100.0, 200.0)],
            M_t=2,
        )
        g = path_gains(topo)
        drop_db = 10.0 * np.log10(g[0, 0] / g[0, 1])
        assert drop_db == pytest.approx(10.0 * 3.0 * math.log10(2.0), abs=1e-9)

    def test_noise_dbm_conversion(self):
        # the noise is fixed at -104 dBm
        assert make_instance()["ch"].noise_power == pytest.approx(10.0 ** (-13.4), rel=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
    def test_rejects_non_finite_or_zero_noise_power(self, bad):
        with pytest.raises(ValueError, match="^noise_power must be finite and > 0$"):
            ChannelSet(entries=np.ones((1, 1, 2)), noise_power=bad)

    def test_same_seed_bit_identical(self):
        a = make_instance(seed=9)["ch"]
        b = make_instance(seed=9)["ch"]
        assert np.array_equal(a.entries, b.entries)

    def test_mean_energy_matches_path_gain(self):
        # Two UTs at the same boresight distance: empirical E||h||^2 must match
        # the configured linear gain times M_t, and each other, within 5%.
        topo = Topology(
            bs_positions=[[0.0, 0.0]],
            bs_orientations=[0.0],
            ut_positions=[[150.0, 0.0], [150.0, 0.0]],
            M_t=64,
        )
        expected = path_gains(topo)[0, 0] * topo.M_t
        sums = np.zeros(2)
        n_draws = 1000
        for seed in range(n_draws):
            ch = generate_channels(topo, seed)
            sums += np.sum(np.abs(ch.entries[0]) ** 2, axis=1)
        means = sums / n_draws
        assert means[0] == pytest.approx(expected, rel=0.05)
        assert means[1] == pytest.approx(expected, rel=0.05)
        assert means[0] == pytest.approx(means[1], rel=0.05)

    def test_sector_backlobe_floor(self):
        topo = Topology(
            bs_positions=[[0.0, 0.0]],
            bs_orientations=[0.0],
            ut_positions=[[100.0, 0.0], [-100.0, 0.0]],
            M_t=1,
        )
        g = path_gains(topo)
        assert 10.0 * np.log10(g[0, 0] / g[0, 1]) == pytest.approx(30.0, abs=1e-9)


class TestRsrp:
    def _channel_with_norms(self, norms2):
        # one UT, len(norms2) BSs, channel energy fixed per BS
        entries = np.zeros((len(norms2), 1, 2), dtype=complex)
        for l, n2 in enumerate(norms2):
            entries[l, 0, 0] = math.sqrt(n2)
        return ChannelSet(entries=entries, noise_power=1.0)

    def test_unit_norm_gives_zero_db(self):
        table = compute_rsrp(self._channel_with_norms([1.0]))
        assert table.values[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_hundred_gives_twenty_db(self):
        table = compute_rsrp(self._channel_with_norms([100.0]))
        assert table.values[0, 0] == pytest.approx(20.0, rel=1e-12)

    def test_delta_gap(self):
        table = compute_rsrp(self._channel_with_norms([4.0, 1.0]))
        assert table.delta[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert table.delta[1, 0] == pytest.approx(10.0 * math.log10(4.0), rel=1e-12)

    def test_zero_norm_rejected(self):
        entries = np.zeros((1, 1, 2), dtype=complex)
        ch = ChannelSet(entries=entries, noise_power=1.0)
        with pytest.raises(ValueError):
            compute_rsrp(ch)

    def test_primary_bs_has_zero_delta_everywhere(self):
        table = compute_rsrp(make_instance(seed=2)["ch"])
        assert np.allclose(table.delta.min(axis=0), 0.0)
        assert np.all(table.delta >= 0.0)


@st.composite
def serving_sets(draw):
    """(serving sets, n_bs): UTs served by 0-3 BSs each, and BSs that serve no UT."""
    n_bs = draw(st.integers(1, 6))
    serving_bss = draw(st.lists(st.integers(0, n_bs - 1), min_size=1, unique=True))
    uts = st.lists(st.sampled_from(serving_bss), max_size=3, unique=True)
    return draw(st.lists(uts, min_size=1, max_size=12)), n_bs


class TestClusters:
    def _table(self, values):
        values = np.asarray(values, dtype=float)
        return RsrpTable(values=values)

    def test_full_cluster_uses_all_bs(self):
        inst = make_instance(seed=0)
        table = compute_rsrp(inst["ch"])
        cm = build_clusters(table, inst["topo"].n_bs)
        assert all(bs == list(range(inst["topo"].n_bs)) for bs in cm.serving_bs)

    def test_single_cluster_is_argmax(self):
        inst = make_instance(seed=0)
        table = compute_rsrp(inst["ch"])
        cm = build_clusters(table, 1)
        for k, bs in enumerate(cm.serving_bs):
            assert bs == [int(np.argmax(table.values[:, k]))]

    def test_sort_selection(self):
        # delta column {0, 3, 1} with clusters of 2 selects BSs 0 and 2
        table = self._table([[10.0], [7.0], [9.0]])
        cm = build_clusters(table, 2)
        assert cm.serving_bs[0] == [0, 2]

    def test_tie_breaks_to_lower_index(self):
        table = self._table([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0]])
        cm = build_clusters(table, 2)
        assert cm.serving_bs[0] == [0, 1]

    def test_duality(self):
        inst = make_instance(seed=5, K=30)
        cm = inst["clusters"]
        for k, bss in enumerate(cm.serving_bs):
            for l in bss:
                assert k in cm.served_ut[l]
        for l, uts in enumerate(cm.served_ut):
            for k in uts:
                assert l in cm.serving_bs[k]

    def test_monotone_in_cluster_size(self):
        inst = make_instance(seed=11)
        table = compute_rsrp(inst["ch"])
        prev = build_clusters(table, 1)
        for size in range(2, inst["topo"].n_bs + 1):
            cur = build_clusters(table, size)
            for k in range(inst["topo"].n_ut):
                assert set(prev.serving_bs[k]) <= set(cur.serving_bs[k])
            prev = cur

    def test_rejects_bad_cluster_size(self):
        table = self._table([[1.0], [2.0]])
        with pytest.raises(ValueError):
            build_clusters(table, 0)
        with pytest.raises(ValueError):
            build_clusters(table, 3)

    @given(drawn=serving_sets(), rnd=st.randoms(use_true_random=False))
    def test_served_ut_is_the_exact_dual(self, drawn, rnd):
        serving, n_bs = drawn
        cm = ClusterMap(serving, n_bs)
        assert cm.serving_bs == serving
        assert cm.served_ut == [
            [k for k, bss in enumerate(serving) if l in bss] for l in range(n_bs)
        ]
        shuffled = ClusterMap([rnd.sample(bss, len(bss)) for bss in serving], n_bs)
        assert BlockLayout(shuffled, 2).pairs == BlockLayout(cm, 2).pairs

    def test_cluster_map_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate BS index in serving set of UT 0"):
            ClusterMap(serving_bs=[[0, 0]], n_bs=1)

    def test_cluster_map_rejects_out_of_range_bs(self):
        with pytest.raises(ValueError, match="BS index 2 out of range for UT 1"):
            ClusterMap(serving_bs=[[0], [2]], n_bs=2)
