import numpy as np
import pytest

from ucnprec.channel import ClusterMap
from ucnprec.embedding import (
    BlockLayout,
    PowerBudget,
    PrecoderState,
    bs_block_norms,
    power_residual,
    renormalize_power,
)
from conftest import random_state
from oracles import (
    embed_channel,
    embed_precoder,
    extract_precoder,
    naive_bs_powers,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestChannelEmbedding:
    """The real embedding lives in tests/oracles.py; these tests pin the oracle."""

    def test_identity_embedding(self):
        mat = embed_channel(np.array([1.0 + 0.0j])).mat
        assert np.array_equal(mat, np.eye(2))

    def test_rotation_embedding(self):
        mat = embed_channel(np.array([1.0j])).mat
        assert np.array_equal(mat, np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_roundtrip(self):
        h = random_complex(_rng(1), 5)
        assert np.array_equal(embed_channel(h).to_complex(), h)

    def test_quadratic_form_matches_complex(self):
        rng = _rng(2)
        for _ in range(20):
            h = random_complex(rng, 6)
            p = random_complex(rng, 6)
            real_form = embed_channel(h).mat.T @ embed_precoder(p)
            assert np.sum(real_form**2) == pytest.approx(
                abs(np.vdot(h, p)) ** 2, rel=1e-12
            )

    def test_homomorphism(self):
        # the real block matrix applied to p_hat is the embedding of h^H p
        rng = _rng(3)
        h = random_complex(rng, 4)
        p = random_complex(rng, 4)
        lhs = embed_channel(h).mat.T @ embed_precoder(p)
        rhs = embed_precoder(np.array([np.vdot(h, p)]))
        assert np.allclose(lhs, rhs, atol=1e-14)


class TestPrecoderEmbedding:
    def test_example(self):
        assert np.array_equal(embed_precoder(np.array([2.0 - 3.0j])), [2.0, -3.0])

    def test_roundtrip_and_isometry(self):
        rng = _rng(4)
        for _ in range(10):
            p = random_complex(rng, 7)
            v = embed_precoder(p)
            assert np.array_equal(extract_precoder(v), p)
            assert np.sum(v**2) == pytest.approx(np.sum(np.abs(p) ** 2), rel=1e-14)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            extract_precoder(np.ones(5))


class TestLayoutAndState:
    def test_stacked_length(self, small_instance):
        layout = small_instance["layout"]
        state = PrecoderState.zeros(layout)
        expected = sum(len(uts) for uts in small_instance["clusters"].served_ut)
        size = layout.n_blocks * layout.block_len
        assert state.blocks.size == size == expected * 2 * small_instance["cfg"].M_t

    def test_layout_is_insertion_order_independent(self):
        a = ClusterMap(serving_bs=[[2, 0], [1]], served_ut=[[0], [1], [0]])
        b = ClusterMap(serving_bs=[[0, 2], [1]], served_ut=[[0], [1], [0]])
        la, lb = BlockLayout(a, 2), BlockLayout(b, 2)
        assert la.same_as(lb)
        assert la.pairs == [(0, 0), (1, 1), (2, 0)]

    def test_state_is_frozen(self, small_instance):
        state = PrecoderState.zeros(small_instance["layout"])
        with pytest.raises(ValueError):
            state.blocks[0, 0] = 1.0

    def test_state_requires_finite(self, small_instance):
        layout = small_instance["layout"]
        blocks = np.zeros((layout.n_blocks, layout.block_len))
        blocks[0, 0] = np.nan
        with pytest.raises(ValueError):
            PrecoderState(layout, blocks)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_state_rejects_infinite(self, small_instance, bad):
        layout = small_instance["layout"]
        blocks = np.zeros((layout.n_blocks, layout.block_len))
        blocks[-1, -1] = bad
        with pytest.raises(ValueError, match="finite"):
            PrecoderState(layout, blocks, copy=False)

    def test_state_rejects_wrong_shape(self, small_instance):
        layout = small_instance["layout"]
        with pytest.raises(ValueError, match="shape"):
            PrecoderState(layout, np.zeros((layout.n_blocks, layout.block_len + 1)))
        with pytest.raises(ValueError, match="shape"):
            PrecoderState(layout, np.zeros(layout.n_blocks * layout.block_len))

    def test_renormalize_rejects_underflowing_power(self):
        layout = BlockLayout(ClusterMap.from_serving([[0]], 1), 1)
        tiny = PrecoderState(layout, np.array([[1e-160, 0.0]]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            renormalize_power(tiny, PowerBudget.uniform(1, 1.0))


class TestPower:
    def test_zero_state_zero_norms(self, small_instance):
        state = PrecoderState.zeros(small_instance["layout"])
        assert np.array_equal(bs_block_norms(state), np.zeros(state.layout.n_bs))

    def test_unit_block(self):
        cm = ClusterMap.from_serving([[0], [1]], 2)
        layout = BlockLayout(cm, 2)
        blocks = np.zeros((2, 4))
        blocks[1, 2] = 1.0  # UT 1 at BS 1
        norms = bs_block_norms(PrecoderState(layout, blocks))
        assert np.array_equal(norms, [0.0, 1.0])

    def test_matches_complex_oracle(self, small_instance):
        state = random_state(small_instance["layout"], small_instance["rho"], 7)
        assert np.allclose(bs_block_norms(state), naive_bs_powers(state), rtol=1e-12)

    def test_renormalize_hits_budget_exactly(self, small_instance):
        layout, rho = small_instance["layout"], small_instance["rho"]
        state = PrecoderState(
            layout, np.random.default_rng(8).standard_normal((layout.n_blocks, layout.block_len))
        )
        out = renormalize_power(state, rho)
        powers = bs_block_norms(out)
        mask = layout.nonempty_bs
        assert np.allclose(powers[mask], rho.rho[mask], rtol=1e-14)

    def test_renormalize_rejects_zero_power_bs(self, small_instance):
        state = PrecoderState.zeros(small_instance["layout"])
        with pytest.raises(ValueError):
            renormalize_power(state, small_instance["rho"])

    def test_renormalize_names_first_dead_bs(self):
        # BS 0 serves no UT, BS 1 has power, BSs 2 and 3 have none: BS 2 is named
        layout = BlockLayout(ClusterMap.from_serving([[1, 2], [3], [2, 3]], 4), 2)
        blocks = np.zeros((layout.n_blocks, layout.block_len))
        blocks[layout.bs_rows[1].start, 0] = 1.0
        with pytest.raises(ValueError, match=r"^cannot renormalize zero-power blocks of BS 2$"):
            renormalize_power(PrecoderState(layout, blocks), PowerBudget.uniform(4, 1.0))

    def test_renormalize_rejects_infinite_scale(self, small_instance):
        layout = small_instance["layout"]
        state = random_state(layout, small_instance["rho"], 9)
        rho = small_instance["rho"].rho.copy()
        rho[layout.row_bs[-1]] = np.inf
        with pytest.raises(ValueError, match="^precoder blocks must be finite$"):
            renormalize_power(state, PowerBudget(rho))

    def test_residual_without_nonempty_bs_is_zero(self):
        layout = BlockLayout(ClusterMap.from_serving([[], []], 3), 2)
        residual = power_residual(layout, np.zeros(3), PowerBudget.uniform(3, 2.0))
        assert type(residual) is float and residual == 0.0

    def test_power_budget_validation(self):
        with pytest.raises(ValueError):
            PowerBudget(rho=np.array([1.0, 0.0]))
        assert PowerBudget.uniform_dbm(2, 30.0).rho == pytest.approx([1.0, 1.0])


def test_renormalize_matches_per_bs_loop_bitwise(small_instance):
    layout, rho = small_instance["layout"], small_instance["rho"]
    rng = np.random.default_rng(10)
    state = PrecoderState(layout, rng.standard_normal((layout.n_blocks, layout.block_len)))
    powers = bs_block_norms(state)
    ref = np.array(state.blocks)
    for l, rows in enumerate(layout.bs_rows):
        if rows.stop > rows.start:
            ref[rows] *= np.sqrt(rho.rho[l] / powers[l])
    assert np.array_equal(renormalize_power(state, rho).blocks, ref)
