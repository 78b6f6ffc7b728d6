import numpy as np
import pytest

import ucnprec as u
from conftest import make_instance, random_state
from oracles import naive_bs_powers


def _rng(seed=0):
    return np.random.default_rng(seed)


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestChannelEmbedding:
    def test_identity_embedding(self):
        mat = u.embed_channel(np.array([1.0 + 0.0j])).mat
        assert np.array_equal(mat, np.eye(2))

    def test_rotation_embedding(self):
        mat = u.embed_channel(np.array([1.0j])).mat
        assert np.array_equal(mat, np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_roundtrip(self):
        h = random_complex(_rng(1), 5)
        assert np.array_equal(u.embed_channel(h).to_complex(), h)

    def test_quadratic_form_matches_complex(self):
        rng = _rng(2)
        for _ in range(20):
            h = random_complex(rng, 6)
            p = random_complex(rng, 6)
            real_form = u.embed_channel(h).mat.T @ u.embed_precoder(p)
            assert np.sum(real_form**2) == pytest.approx(
                abs(np.vdot(h, p)) ** 2, rel=1e-12
            )

    def test_homomorphism(self):
        # the real block matrix applied to p_hat is the embedding of h^H p
        rng = _rng(3)
        h = random_complex(rng, 4)
        p = random_complex(rng, 4)
        lhs = u.embed_channel(h).mat.T @ u.embed_precoder(p)
        rhs = u.embed_precoder(np.array([np.vdot(h, p)]))
        assert np.allclose(lhs, rhs, atol=1e-14)


class TestPrecoderEmbedding:
    def test_example(self):
        assert np.array_equal(u.embed_precoder(np.array([2.0 - 3.0j])), [2.0, -3.0])

    def test_roundtrip_and_isometry(self):
        rng = _rng(4)
        for _ in range(10):
            p = random_complex(rng, 7)
            v = u.embed_precoder(p)
            assert np.array_equal(u.extract_precoder(v), p)
            assert np.sum(v**2) == pytest.approx(np.sum(np.abs(p) ** 2), rel=1e-14)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            u.extract_precoder(np.ones(5))


class TestLayoutAndState:
    def test_single_pair_stack(self):
        cm = u.ClusterMap.from_serving([[0]], 1)
        layout = u.BlockLayout(cm, 3)
        state = u.PrecoderState(layout, np.arange(6.0).reshape(1, 6))
        assert np.array_equal(u.stack(state), np.arange(6.0))

    def test_stacked_length(self, small_instance):
        layout = small_instance["layout"]
        state = u.PrecoderState.zeros(layout)
        expected = sum(len(uts) for uts in small_instance["clusters"].served_ut)
        assert u.stack(state).size == expected * 2 * small_instance["cfg"].M_t

    def test_stack_roundtrip(self, small_instance):
        state = random_state(small_instance["layout"], small_instance["rho"], 5)
        back = u.unstack(u.stack(state), state.layout)
        assert np.array_equal(back.blocks, state.blocks)

    def test_unstack_length_mismatch(self, small_instance):
        with pytest.raises(ValueError):
            u.unstack(np.zeros(3), small_instance["layout"])

    def test_layout_is_insertion_order_independent(self):
        a = u.ClusterMap(serving_bs=[[2, 0], [1]], served_ut=[[0], [1], [0]])
        b = u.ClusterMap(serving_bs=[[0, 2], [1]], served_ut=[[0], [1], [0]])
        la, lb = u.BlockLayout(a, 2), u.BlockLayout(b, 2)
        assert la.same_as(lb)
        assert la.pairs == [(0, 0), (1, 1), (2, 0)]

    def test_block_access(self, small_instance):
        state = random_state(small_instance["layout"], small_instance["rho"], 6)
        l, k = state.layout.pairs[3]
        assert np.array_equal(state.block(l, k), state.blocks[3])
        with pytest.raises(KeyError):
            state.block(10, 10)

    def test_state_is_frozen(self, small_instance):
        state = u.PrecoderState.zeros(small_instance["layout"])
        with pytest.raises(ValueError):
            state.blocks[0, 0] = 1.0

    def test_state_requires_finite(self, small_instance):
        layout = small_instance["layout"]
        blocks = np.zeros((layout.n_blocks, layout.block_len))
        blocks[0, 0] = np.nan
        with pytest.raises(ValueError):
            u.PrecoderState(layout, blocks)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_state_rejects_infinite(self, small_instance, bad):
        layout = small_instance["layout"]
        blocks = np.zeros((layout.n_blocks, layout.block_len))
        blocks[-1, -1] = bad
        with pytest.raises(ValueError, match="finite"):
            u.PrecoderState(layout, blocks, copy=False)

    def test_state_rejects_wrong_shape(self, small_instance):
        layout = small_instance["layout"]
        with pytest.raises(ValueError, match="shape"):
            u.PrecoderState(layout, np.zeros((layout.n_blocks, layout.block_len + 1)))
        with pytest.raises(ValueError, match="shape"):
            u.PrecoderState(layout, np.zeros(layout.dim))

    def test_renormalize_rejects_underflowing_power(self):
        layout = u.BlockLayout(u.ClusterMap.from_serving([[0]], 1), 1)
        tiny = u.PrecoderState(layout, np.array([[1e-160, 0.0]]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            u.renormalize_power(tiny, u.PowerBudget.uniform(1, 1.0))


class TestPower:
    def test_zero_state_zero_norms(self, small_instance):
        state = u.PrecoderState.zeros(small_instance["layout"])
        assert np.array_equal(u.bs_block_norms(state), np.zeros(state.layout.n_bs))

    def test_unit_block(self):
        cm = u.ClusterMap.from_serving([[0], [1]], 2)
        layout = u.BlockLayout(cm, 2)
        blocks = np.zeros((2, 4))
        blocks[1, 2] = 1.0  # UT 1 at BS 1
        norms = u.bs_block_norms(u.PrecoderState(layout, blocks))
        assert np.array_equal(norms, [0.0, 1.0])

    def test_matches_complex_oracle(self, small_instance):
        state = random_state(small_instance["layout"], small_instance["rho"], 7)
        assert np.allclose(u.bs_block_norms(state), naive_bs_powers(state), rtol=1e-12)

    def test_renormalize_hits_budget_exactly(self, small_instance):
        layout, rho = small_instance["layout"], small_instance["rho"]
        state = u.PrecoderState(
            layout, np.random.default_rng(8).standard_normal((layout.n_blocks, layout.block_len))
        )
        out = u.renormalize_power(state, rho)
        powers = u.bs_block_norms(out)
        mask = layout.nonempty_bs
        assert np.allclose(powers[mask], rho.rho[mask], rtol=1e-14)

    def test_renormalize_rejects_zero_power_bs(self, small_instance):
        state = u.PrecoderState.zeros(small_instance["layout"])
        with pytest.raises(ValueError):
            u.renormalize_power(state, small_instance["rho"])

    def test_power_budget_validation(self):
        with pytest.raises(ValueError):
            u.PowerBudget(rho=np.array([1.0, 0.0]))
        assert u.PowerBudget.uniform_dbm(2, 30.0).rho == pytest.approx([1.0, 1.0])


def test_precoder_file_roundtrip(tmp_path, small_instance):
    state = random_state(small_instance["layout"], small_instance["rho"], 9)
    path = tmp_path / "precoder.bin"
    u.save_precoder(path, state)
    loaded = u.load_precoder(path)
    assert loaded.layout.same_as(state.layout)
    assert np.array_equal(loaded.blocks, state.blocks)


def test_renormalize_matches_per_bs_loop_bitwise(small_instance):
    layout, rho = small_instance["layout"], small_instance["rho"]
    rng = np.random.default_rng(10)
    state = u.PrecoderState(layout, rng.standard_normal((layout.n_blocks, layout.block_len)))
    powers = u.bs_block_norms(state)
    ref = np.array(state.blocks)
    for l, rows in enumerate(layout.bs_rows):
        if rows.stop > rows.start:
            ref[rows] *= np.sqrt(rho.rho[l] / powers[l])
    assert np.array_equal(u.renormalize_power(state, rho).blocks, ref)


def _precoder_header(n_bs, n_ut, m_t, n_blocks):
    return np.array([n_bs, n_ut, m_t, n_blocks], dtype=np.int64).tobytes()


def test_precoder_file_huge_block_count_rejected(tmp_path):
    path = tmp_path / "precoder.bin"
    path.write_bytes(_precoder_header(2, 3, 4, 2**40))
    with pytest.raises(ValueError, match="truncated"):
        u.load_precoder(path)


def test_precoder_file_negative_dimension_rejected(tmp_path):
    path = tmp_path / "precoder.bin"
    path.write_bytes(_precoder_header(2, -3, 4, 0))
    with pytest.raises(ValueError, match="negative dimension"):
        u.load_precoder(path)


def test_precoder_file_trailing_byte_rejected(tmp_path, small_instance):
    path = tmp_path / "precoder.bin"
    u.save_precoder(path, random_state(small_instance["layout"], small_instance["rho"], 4))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        u.load_precoder(path)


def test_precoder_file_pair_out_of_range_rejected(tmp_path):
    path = tmp_path / "precoder.bin"
    body = np.array([0, -1], dtype=np.int64).tobytes() + np.zeros(2).tobytes()
    path.write_bytes(_precoder_header(1, 2, 1, 1) + body)
    with pytest.raises(ValueError, match="out of range"):
        u.load_precoder(path)
