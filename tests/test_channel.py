import math

import numpy as np
import pytest

import ucnprec as u
from ucnprec.channel import PathlossParams, path_gains
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


class TestChannels:
    def test_pathloss_doubles_distance_9dB(self):
        # 10 * 3 * log10(2) = 9.03 dB under exponent 3, both UTs on boresight
        topo = u.Topology(
            bs_positions=[[0.0, 0.0]],
            bs_orientations=[0.0],
            ut_positions=[[100.0, 0.0], [200.0, 0.0]],
            bs_height=25.0,
            ut_height=25.0,
            M_t=2,
            carrier_freq_hz=6.7e9,
        )
        g = path_gains(topo, PathlossParams())
        drop_db = 10.0 * np.log10(g[0, 0] / g[0, 1])
        assert drop_db == pytest.approx(10.0 * 3.0 * math.log10(2.0), abs=1e-9)

    def test_noise_dbm_conversion(self):
        inst = make_instance(noise_dbm=-104.0)
        assert inst["ch"].noise_power == pytest.approx(10.0 ** (-13.4), rel=1e-12)

    def test_same_seed_bit_identical(self):
        a = make_instance(seed=9)["ch"]
        b = make_instance(seed=9)["ch"]
        assert np.array_equal(a.entries, b.entries)

    def test_mean_energy_matches_path_gain(self):
        # Two UTs at the same boresight distance: empirical E||h||^2 must match
        # the configured linear gain times M_t, and each other, within 5%.
        topo = u.Topology(
            bs_positions=[[0.0, 0.0]],
            bs_orientations=[0.0],
            ut_positions=[[150.0, 0.0], [150.0, 0.0]],
            bs_height=25.0,
            ut_height=1.5,
            M_t=64,
            carrier_freq_hz=6.7e9,
        )
        expected = path_gains(topo, PathlossParams())[0, 0] * topo.M_t
        sums = np.zeros(2)
        n_draws = 1000
        for seed in range(n_draws):
            ch = u.generate_channels(topo, seed)
            sums += np.sum(np.abs(ch.entries[0]) ** 2, axis=1)
        means = sums / n_draws
        assert means[0] == pytest.approx(expected, rel=0.05)
        assert means[1] == pytest.approx(expected, rel=0.05)
        assert means[0] == pytest.approx(means[1], rel=0.05)

    def test_rejects_ut_coincident_with_bs(self):
        topo = u.Topology(
            bs_positions=[[0.0, 0.0]],
            bs_orientations=[0.0],
            ut_positions=[[0.0, 0.0]],
            bs_height=1.5,
            ut_height=1.5,
            M_t=2,
            carrier_freq_hz=6.7e9,
        )
        with pytest.raises(ValueError):
            u.generate_channels(topo, 0)

    def test_sector_backlobe_floor(self):
        topo = u.Topology(
            bs_positions=[[0.0, 0.0]],
            bs_orientations=[0.0],
            ut_positions=[[100.0, 0.0], [-100.0, 0.0]],
            bs_height=25.0,
            ut_height=25.0,
            M_t=1,
            carrier_freq_hz=6.7e9,
        )
        g = path_gains(topo, PathlossParams())
        assert 10.0 * np.log10(g[0, 0] / g[0, 1]) == pytest.approx(30.0, abs=1e-9)


class TestRsrp:
    def _channel_with_norms(self, norms2):
        # one UT, len(norms2) BSs, channel energy fixed per BS
        entries = np.zeros((len(norms2), 1, 2), dtype=complex)
        for l, n2 in enumerate(norms2):
            entries[l, 0, 0] = math.sqrt(n2)
        return u.ChannelSet(entries=entries, noise_power=1.0)

    def test_unit_norm_gives_zero_db(self):
        table = u.compute_rsrp(self._channel_with_norms([1.0]))
        assert table.values[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_hundred_gives_twenty_db(self):
        table = u.compute_rsrp(self._channel_with_norms([100.0]))
        assert table.values[0, 0] == pytest.approx(20.0, rel=1e-12)

    def test_delta_gap(self):
        table = u.compute_rsrp(self._channel_with_norms([4.0, 1.0]))
        assert table.delta[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert table.delta[1, 0] == pytest.approx(10.0 * math.log10(4.0), rel=1e-12)

    def test_zero_norm_rejected(self):
        entries = np.zeros((1, 1, 2), dtype=complex)
        ch = u.ChannelSet(entries=entries, noise_power=1.0)
        with pytest.raises(ValueError):
            u.compute_rsrp(ch)

    def test_primary_bs_has_zero_delta_everywhere(self):
        table = u.compute_rsrp(make_instance(seed=2)["ch"])
        assert np.allclose(table.delta.min(axis=0), 0.0)
        assert np.all(table.delta >= 0.0)


class TestClusters:
    def _table(self, values):
        values = np.asarray(values, dtype=float)
        return u.RsrpTable(values=values, delta=values.max(axis=0) - values)

    def test_full_cluster_uses_all_bs(self):
        inst = make_instance(seed=0)
        table = u.compute_rsrp(inst["ch"])
        cm = u.build_clusters(table, inst["topo"].n_bs)
        assert all(bs == list(range(inst["topo"].n_bs)) for bs in cm.serving_bs)

    def test_single_cluster_is_argmax(self):
        inst = make_instance(seed=0)
        table = u.compute_rsrp(inst["ch"])
        cm = u.build_clusters(table, 1)
        for k, bs in enumerate(cm.serving_bs):
            assert bs == [int(np.argmax(table.values[:, k]))]

    def test_sort_selection(self):
        # delta column {0, 3, 1} with clusters of 2 selects BSs 0 and 2
        table = self._table([[10.0], [7.0], [9.0]])
        cm = u.build_clusters(table, 2)
        assert cm.serving_bs[0] == [0, 2]

    def test_tie_breaks_to_lower_index(self):
        table = self._table([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0]])
        cm = u.build_clusters(table, 2)
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
        table = u.compute_rsrp(inst["ch"])
        prev = u.build_clusters(table, 1)
        for size in range(2, inst["topo"].n_bs + 1):
            cur = u.build_clusters(table, size)
            for k in range(inst["topo"].n_ut):
                assert set(prev.serving_bs[k]) <= set(cur.serving_bs[k])
            prev = cur

    def test_rejects_bad_cluster_size(self):
        table = self._table([[1.0], [2.0]])
        with pytest.raises(ValueError):
            u.build_clusters(table, 0)
        with pytest.raises(ValueError):
            u.build_clusters(table, 3)

    def test_cluster_map_rejects_broken_duality(self):
        with pytest.raises(ValueError):
            u.ClusterMap(serving_bs=[[0]], served_ut=[[]])

    def test_cluster_map_rejects_duplicates(self):
        with pytest.raises(ValueError):
            u.ClusterMap(serving_bs=[[0, 0]], served_ut=[[0]])


def test_channel_file_roundtrip(tmp_path):
    ch = make_instance(seed=13, K=6, M_t=4)["ch"]
    path = tmp_path / "channels.bin"
    u.save_channels(path, ch)
    loaded = u.load_channels(path)
    assert np.array_equal(loaded.entries, ch.entries)
    assert loaded.noise_power == ch.noise_power


def test_channel_file_truncation_detected(tmp_path):
    ch = make_instance(seed=13, K=3, M_t=2)["ch"]
    path = tmp_path / "channels.bin"
    u.save_channels(path, ch)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError):
        u.load_channels(path)


def _channel_header(b, k_ut, m):
    return np.array([b, k_ut, m], dtype=np.int64).tobytes() + np.array([1e-13]).tobytes()


def test_channel_file_huge_header_rejected(tmp_path):
    path = tmp_path / "channels.bin"
    path.write_bytes(_channel_header(2**20, 2**20, 4))  # 2^40 channel vectors
    with pytest.raises(ValueError, match="truncated"):
        u.load_channels(path)


def test_channel_file_negative_dimension_rejected(tmp_path):
    path = tmp_path / "channels.bin"
    path.write_bytes(_channel_header(-1, 2, 2))
    with pytest.raises(ValueError, match="negative dimension"):
        u.load_channels(path)


def test_channel_file_trailing_byte_rejected(tmp_path):
    ch = make_instance(seed=13, K=3, M_t=2)["ch"]
    path = tmp_path / "channels.bin"
    u.save_channels(path, ch)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        u.load_channels(path)
