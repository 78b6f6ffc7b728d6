import numpy as np
import pytest
from hypothesis import given

from ucnprec.channel import ChannelSet, ClusterMap
from ucnprec.embedding import BlockLayout, PrecoderState
from ucnprec.objective import Weights, WsrObjective, _central_diff, amplitude_matrix, fd_gradient
from conftest import (
    TABLE1_WIDTHS,
    make_instance,
    random_served_instance,
    random_state,
    small_layouts,
    table1_shaped_instance,
)
from oracles import (
    complex_blocks_dict,
    embed_precoder,
    naive_signal_and_interference,
    naive_wsr_bits,
    reference_amplitude_matrix,
)


def scalar_world():
    """One BS with one antenna, one UT, h = 1, p = 1, noise 1."""
    ch = ChannelSet(entries=np.ones((1, 1, 1), dtype=complex), noise_power=1.0)
    cm = ClusterMap.from_serving([[0]], 1)
    layout = BlockLayout(cm, 1)
    state = PrecoderState(layout, np.array([[1.0, 0.0]]))
    return ch, cm, state


class TestRateTerms:
    def test_single_user_noise_only(self):
        inst = make_instance(seed=0, K=1, B_sc=2)
        state = random_state(inst["layout"], inst["rho"], 0)
        terms = WsrObjective(inst["ch"], inst["clusters"], inst["w"]).terms(state)
        assert terms.r[0] == pytest.approx(inst["ch"].noise_power, rel=1e-12)

    def test_scalar_example(self):
        ch, cm, state = scalar_world()
        terms = WsrObjective(ch, cm, Weights(np.ones(1))).terms(state)
        assert terms.a[0] == pytest.approx(1.0)
        assert terms.r[0] == pytest.approx(1.0)
        assert terms.b[0] == pytest.approx(0.5)
        assert terms.rate_bits[0] == pytest.approx(1.0)

    def test_matches_complex_oracle(self):
        for seed in range(5):
            inst = make_instance(seed=seed, gnb_count=3, M_t=3, K=4, B_sc=2)
            state = random_state(inst["layout"], inst["rho"], seed + 100)
            terms = WsrObjective(inst["ch"], inst["clusters"], inst["w"]).terms(state)
            a, r = naive_signal_and_interference(inst["ch"], inst["clusters"], state)
            assert np.allclose(terms.a, a, rtol=1e-12)
            assert np.allclose(terms.r, r, rtol=1e-12)

    def test_two_user_interference(self):
        inst = make_instance(seed=3, K=2, B_sc=2)
        state = random_state(inst["layout"], inst["rho"], 42)
        terms = WsrObjective(inst["ch"], inst["clusters"], inst["w"]).terms(state)
        a, r = naive_signal_and_interference(inst["ch"], inst["clusters"], state)
        assert np.allclose(terms.r, r, rtol=1e-12)
        assert np.all(terms.r > inst["ch"].noise_power)


class TestWsr:
    def test_single_positive_weight(self):
        inst = make_instance(seed=1, K=3)
        state = random_state(inst["layout"], inst["rho"], 1)
        terms = WsrObjective(inst["ch"], inst["clusters"], inst["w"]).terms(state)
        w = Weights(np.array([0.0, 1.0, 0.0]))
        assert WsrObjective(inst["ch"], inst["clusters"], w).wsr_bits(state) == pytest.approx(
            terms.rate_bits[1], rel=1e-12
        )

    def test_zero_precoder_zero_wsr(self, small_instance):
        state = PrecoderState.zeros(small_instance["layout"])
        obj = WsrObjective(small_instance["ch"], small_instance["clusters"], small_instance["w"])
        val = obj.wsr_bits(state)
        assert val == 0.0

    def test_weight_scaling_linearity(self, small_instance):
        state = random_state(small_instance["layout"], small_instance["rho"], 2)
        base = WsrObjective(
            small_instance["ch"], small_instance["clusters"], small_instance["w"]
        ).wsr_bits(state)
        scaled = WsrObjective(
            small_instance["ch"],
            small_instance["clusters"],
            Weights(3.5 * small_instance["w"].w),
        ).wsr_bits(state)
        assert scaled == pytest.approx(3.5 * base, rel=1e-12)

    def test_matches_oracle(self, small_instance):
        state = random_state(small_instance["layout"], small_instance["rho"], 3)
        obj = WsrObjective(small_instance["ch"], small_instance["clusters"], small_instance["w"])
        got = obj.wsr_bits(state)
        want = naive_wsr_bits(
            small_instance["ch"], small_instance["clusters"], state, small_instance["w"]
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_g_value_is_negated_nats(self, small_instance):
        state = random_state(small_instance["layout"], small_instance["rho"], 4)
        obj = WsrObjective(small_instance["ch"], small_instance["clusters"], small_instance["w"])
        g = obj.value(state)
        bits = obj.wsr_bits(state)
        assert g == pytest.approx(-bits * np.log(2.0), rel=1e-12)


class TestGradient:
    def test_scalar_case(self):
        ch, cm, state = scalar_world()
        grad = WsrObjective(ch, cm, Weights(np.ones(1))).evaluate(state).grad
        assert np.allclose(grad.blocks, [[-1.0, 0.0]], atol=1e-14)

    def test_zero_precoder_stationary(self, small_instance):
        state = PrecoderState.zeros(small_instance["layout"])
        obj = WsrObjective(small_instance["ch"], small_instance["clusters"], small_instance["w"])
        grad = obj.evaluate(state).grad
        assert np.array_equal(grad.blocks, np.zeros_like(state.blocks))

    def test_matches_finite_differences(self, small_instance):
        state = random_state(small_instance["layout"], small_instance["rho"], 5)
        obj = WsrObjective(small_instance["ch"], small_instance["clusters"], small_instance["w"])
        grad = obj.evaluate(state).grad
        fd = fd_gradient(
            state, small_instance["ch"], small_instance["clusters"], small_instance["w"], 1e-5
        )
        err = np.linalg.norm(grad.blocks - fd.blocks) / np.linalg.norm(fd.blocks)
        assert err < 1e-6

    def test_single_user_reduces_to_signal_term(self):
        inst = make_instance(seed=6, K=1, B_sc=3)
        state = random_state(inst["layout"], inst["rho"], 6)
        ev = WsrObjective(inst["ch"], inst["clusters"], inst["w"]).evaluate(state)
        grad, terms = ev.grad, ev.terms
        amps = amplitude_matrix(state, inst["ch"])
        coef = 2.0 * inst["w"].w[0] * terms.b[0] / terms.r[0]
        for l in inst["clusters"].serving_bs[0]:
            expected = embed_precoder(-coef * amps[0, 0] * inst["ch"].entries[l, 0])
            assert np.allclose(grad.blocks[grad.layout.pairs.index((l, 0))], expected, rtol=1e-12)

    def test_rotation_invariance(self, small_instance):
        state = random_state(small_instance["layout"], small_instance["rho"], 7)
        obj = WsrObjective(small_instance["ch"], small_instance["clusters"], small_instance["w"])
        terms = obj.terms(state)
        cblocks = state.complex_blocks().copy()
        phase = np.exp(1.3j)
        for i, (_, k) in enumerate(state.layout.pairs):
            if k == 1:
                cblocks[i] *= phase
        rotated = PrecoderState.from_complex(state.layout, cblocks)
        terms_rot = obj.terms(rotated)
        assert np.allclose(terms_rot.a, terms.a, rtol=1e-12)
        assert np.allclose(terms_rot.r, terms.r, rtol=1e-12)
        assert np.allclose(terms_rot.rate_bits, terms.rate_bits, rtol=1e-12)

    def test_ut_permutation_invariance(self, small_instance):
        ch, clusters, layout = (
            small_instance["ch"],
            small_instance["clusters"],
            small_instance["layout"],
        )
        state = random_state(layout, small_instance["rho"], 8)
        base = WsrObjective(ch, clusters, small_instance["w"]).wsr_bits(state)

        n_ut = ch.n_ut
        perm = np.roll(np.arange(n_ut), 2)  # new index of old UT k is perm[k]
        entries = np.zeros_like(ch.entries)
        entries[:, perm, :] = ch.entries
        ch_p = ChannelSet(entries=entries, noise_power=ch.noise_power)
        serving = [None] * n_ut
        for k in range(n_ut):
            serving[perm[k]] = list(clusters.serving_bs[k])
        clusters_p = ClusterMap.from_serving(serving, ch.n_bs)
        layout_p = BlockLayout(clusters_p, layout.M_t)
        blocks = np.zeros_like(state.blocks)
        for i, (l, k) in enumerate(layout.pairs):
            blocks[layout_p.pairs.index((l, perm[k]))] = state.blocks[i]
        state_p = PrecoderState(layout_p, blocks)
        w_p = Weights(small_instance["w"].w[np.argsort(perm)])
        assert WsrObjective(ch_p, clusters_p, w_p).wsr_bits(state_p) == pytest.approx(
            base, rel=1e-12
        )


class TestFiniteDifferences:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6))
        quad = a @ a.T + np.eye(6)
        b = rng.standard_normal(6)
        x0 = rng.standard_normal(6)

        def f(x):
            return 0.5 * x @ quad @ x + b @ x

        grad = _central_diff(f, x0, 1e-4)
        assert np.allclose(grad, quad @ x0 + b, atol=1e-8)

    def test_error_drops_four_fold_with_half_eps(self):
        x0 = np.array([0.7, -0.3, 1.1])

        def f(x):
            return float(np.sum(x**4))

        exact = 4.0 * x0**3
        err1 = np.linalg.norm(_central_diff(f, x0, 1e-2) - exact)
        err2 = np.linalg.norm(_central_diff(f, x0, 5e-3) - exact)
        assert err1 / err2 == pytest.approx(4.0, rel=0.05)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            _central_diff(lambda x: 0.0, np.zeros(2), 0.0)


class TestWeightsAndCounter:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            Weights(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            Weights(np.array([-1.0, 1.0]))

    def test_objective_rejects_mismatched_inputs(self, small_instance):
        # the channel set has 3 BSs and 5 UTs
        for n_bs, n_ut in [(4, 5), (2, 5), (3, 4), (3, 6)]:
            clusters = ClusterMap.from_serving([[0]] * n_ut, n_bs)
            with pytest.raises(ValueError, match="cluster map does not match"):
                WsrObjective(small_instance["ch"], clusters, Weights.uniform(5))
        with pytest.raises(ValueError, match="one weight per UT"):
            WsrObjective(small_instance["ch"], small_instance["clusters"], Weights.uniform(4))

    def test_counter_counts_gradient_work(self, small_instance):
        state = random_state(small_instance["layout"], small_instance["rho"], 10)
        obj = WsrObjective(small_instance["ch"], small_instance["clusters"], small_instance["w"])
        assert obj.multiply_adds == 0
        obj.evaluate(state)
        n_active = small_instance["layout"].n_blocks
        n_ut = small_instance["ch"].n_ut
        m_t = small_instance["cfg"].M_t
        expected = 2 * n_ut * m_t * n_active + m_t * n_active + n_ut * n_ut
        assert obj.multiply_adds == expected

    def test_objective_bundle_consistency(self, small_instance):
        ch, clusters, w = small_instance["ch"], small_instance["clusters"], small_instance["w"]
        obj = WsrObjective(ch, clusters, w)
        state = random_state(small_instance["layout"], small_instance["rho"], 11)
        ev = obj.evaluate(state)
        assert ev.g_value == WsrObjective(ch, clusters, w).value(state)
        assert ev.g_value == pytest.approx(
            -naive_wsr_bits(ch, clusters, state, w) * np.log(2.0), rel=1e-12
        )
        ref = loop_gradient_blocks(state, ch, w, reference_amplitude_matrix(state, ch), ev.terms)
        assert np.array_equal(ev.grad.blocks, ref)
        assert obj.grad_evals == 1


def loop_gradient_blocks(state, ch, weights, amps, terms):
    """The per-BS loop the flattened _gradient_blocks must match bit for bit."""
    lay = state.layout
    alpha = 2.0 * weights.w * terms.b / terms.r
    beta = 2.0 * weights.w * terms.a * terms.b / terms.r**2
    out = np.zeros((lay.n_blocks, lay.block_len))
    m = lay.M_t
    for l, rows in enumerate(lay.bs_rows):
        if rows.stop == rows.start:
            continue
        cols = lay.bs_uts[l]
        h_l = ch.entries[l]
        cross = h_l.T @ (beta[:, None] * amps[:, cols])
        diag_coef = (alpha[cols] + beta[cols]) * amps[cols, cols]
        grad_c = (cross - diag_coef[None, :] * h_l[cols].T).T
        out[rows, :m] = grad_c.real
        out[rows, m:] = grad_c.imag
    return out


def evaluation_fields(ev):
    return (ev.g_value, ev.wsr_bits, ev.grad.blocks, ev.terms.a, ev.terms.r, ev.terms.rate_nats)


def assert_same_evaluation(ev, ref):
    for x, y in zip(evaluation_fields(ev), evaluation_fields(ref)):
        assert np.array_equal(x, y)


class TestObjectiveMemo:
    def _objective(self, inst):
        return WsrObjective(inst["ch"], inst["clusters"], inst["w"])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_gradient_matches_loop_bitwise(self, seed):
        # B_sc = 1 over 7 BSs leaves some BSs without UTs
        inst = make_instance(seed=seed, M_t=4, K=6, B_sc=1 + seed % 3)
        state = random_state(inst["layout"], inst["rho"], seed)
        ev = WsrObjective(inst["ch"], inst["clusters"], inst["w"]).evaluate(state)
        amps = amplitude_matrix(state, inst["ch"])
        ref = loop_gradient_blocks(state, inst["ch"], inst["w"], amps, ev.terms)
        assert np.array_equal(ev.grad.blocks, ref)

    @given(instance=small_layouts())
    def test_evaluate_matches_per_bs_loops_bytewise(self, instance):
        # byte for byte, signed zeros included, on layouts with empty BSs, unserved UTs and
        # M_t or K down to 1, where the GEMMs' shapes take numpy's and OpenBLAS's special paths
        ch, clusters, state, w = instance
        ev = WsrObjective(ch, clusters, w).evaluate(state)
        amps = reference_amplitude_matrix(state, ch)
        assert amplitude_matrix(state, ch).tobytes() == amps.tobytes()
        loop = loop_gradient_blocks(state, ch, w, amps, ev.terms)
        assert ev.grad.blocks.tobytes() == loop.tobytes()

    def test_evaluate_after_value_matches_fresh(self, small_instance):
        state = random_state(small_instance["layout"], small_instance["rho"], 20)
        obj = self._objective(small_instance)
        obj.value(state)
        ev = obj.evaluate(state)
        fresh = self._objective(small_instance)
        ref = fresh.evaluate(state)
        assert_same_evaluation(ev, ref)
        assert obj.grad_evals == fresh.grad_evals == 1
        assert obj.multiply_adds == fresh.multiply_adds > 0

    def test_one_amplitude_matrix_per_state(self, small_instance, monkeypatch):
        from ucnprec import objective

        calls = []

        def counted(state, ch):
            calls.append(state)
            return amplitude_matrix(state, ch)

        monkeypatch.setattr(objective, "amplitude_matrix", counted)
        state = random_state(small_instance["layout"], small_instance["rho"], 21)
        obj = self._objective(small_instance)
        f = obj.value(state)
        ev = obj.evaluate(state)
        assert obj.wsr_bits(state) == ev.wsr_bits
        assert obj.value(state) == f == ev.g_value
        assert len(calls) == 1
        # an equal but distinct state is a new key
        obj.value(PrecoderState(state.layout, state.blocks))
        assert len(calls) == 2

    def test_value_then_evaluate_other_state(self, small_instance):
        s1 = random_state(small_instance["layout"], small_instance["rho"], 22)
        s2 = random_state(small_instance["layout"], small_instance["rho"], 23)
        obj = self._objective(small_instance)
        f1 = obj.value(s1)
        ev2 = obj.evaluate(s2)
        fresh = self._objective(small_instance)
        assert_same_evaluation(ev2, fresh.evaluate(s2))
        assert obj.multiply_adds == fresh.multiply_adds
        assert f1 != ev2.g_value
        assert obj.value(s1) == f1

    def test_memo_key_is_frozen(self, small_instance):
        # the memo trusts that a state's blocks never change after construction
        state = random_state(small_instance["layout"], small_instance["rho"], 24)
        obj = self._objective(small_instance)
        f = obj.value(state)
        with pytest.raises(ValueError):
            state.blocks[0, 0] = 1.0
        with pytest.raises(ValueError):
            obj.terms(state).rate_nats[0] = 0.0
        assert obj.value(state) == f


def served_instance(seed):
    """random_served_instance(seed), or table1_shaped_instance() for seed "table1"."""
    return table1_shaped_instance() if seed == "table1" else random_served_instance(seed)


class TestAmplitudeMatrix:
    @pytest.mark.parametrize("seed", [*range(8), "table1"])
    def test_matches_scatter_loop_bitwise(self, seed):
        ch, _, state = served_instance(seed)
        lay = state.layout
        assert not lay.nonempty_bs.all()
        n_serving = set(np.bincount(lay.row_ut, minlength=lay.n_ut))
        if seed == "table1":
            assert (ch.n_ut, lay.M_t) == (300, 128)
            assert [r.stop - r.start for r in lay.bs_rows] == list(TABLE1_WIDTHS)
            assert {0, 1, 2, 3} <= n_serving
        else:
            assert n_serving == {0, 1, 2, 3}
            assert ch.n_ut < lay.M_t
        amps = amplitude_matrix(state, ch)
        assert amps.flags.c_contiguous
        ref = reference_amplitude_matrix(state, ch)
        # equal bit patterns, so signed zeros count too
        assert np.array_equal(amps.view(np.int64), ref.view(np.int64))

    def test_counts_one_product_per_pair(self):
        # an empty BS and an unserved UT add no products to an evaluation's charge
        ch, clusters, state = random_served_instance(0)
        obj = WsrObjective(ch, clusters, Weights(np.ones(ch.n_ut)))
        obj.evaluate(state)
        n_ut, pair_macs = ch.n_ut, state.layout.M_t * state.layout.n_blocks
        assert obj.multiply_adds == n_ut * (pair_macs + n_ut) + (n_ut + 1) * pair_macs

    @pytest.mark.parametrize("seed", [*range(4), "table1"])
    def test_gradient_matches_loop_on_uneven_clusters(self, seed):
        ch, clusters, state = served_instance(seed)
        rng = np.random.default_rng(4 if seed == "table1" else seed)
        w = Weights(rng.uniform(0.5, 2.0, ch.n_ut))
        ev = WsrObjective(ch, clusters, w).evaluate(state)
        ref = loop_gradient_blocks(state, ch, w, reference_amplitude_matrix(state, ch), ev.terms)
        assert np.array_equal(ev.grad.blocks, ref)
