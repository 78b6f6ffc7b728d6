import math

import numpy as np
import pytest

import ucnprec as u
from ucnprec.objective import ObjectiveEval
from conftest import make_instance, random_state
from oracles import dense_constraint_jacobian


class ZeroObjective:
    """Flat potential: free constrained motion for dynamics-only tests."""

    def __init__(self, layout):
        self.layout = layout
        self.grad_evals = 0

    def evaluate(self, state):
        self.grad_evals += 1
        return ObjectiveEval(
            g_value=0.0,
            wsr_bits=0.0,
            grad=u.PrecoderState.zeros(state.layout),
            terms=None,
        )


def sphere_world(rho_val=1.0, m_t=1):
    """One BS serving one UT: the manifold is a single sphere."""
    cm = u.ClusterMap.from_serving([[0]], 1)
    layout = u.BlockLayout(cm, m_t)
    rho = u.PowerBudget(np.array([rho_val]))
    return layout, rho


def apply_gt(p, lam):
    """G^T lam as rattle_step forms it: block (l, k) becomes lam_l * p_hat_{l,k}."""
    return lam[p.layout.row_bs][:, None] * p.blocks


def tangent_momentum(p, seed=0):
    """Random momentum projected per BS onto the tangent space of p."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal(p.blocks.shape)
    powers = u.bs_block_norms(p)
    dots = u.constraint_apply_G(p, u.PrecoderState(p.layout, blocks))
    coef = np.where(powers > 0, dots / np.maximum(powers, 1e-300), 0.0)
    blocks = blocks - coef[p.layout.row_bs][:, None] * p.blocks
    return u.PrecoderState(p.layout, blocks)


class TestConstraintOperators:
    def test_apply_to_self_gives_norms(self, small_instance):
        p = random_state(small_instance["layout"], small_instance["rho"], 0)
        assert np.allclose(u.constraint_apply_G(p, p), u.bs_block_norms(p), rtol=1e-13)

    def test_orthogonal_gives_zero(self, small_instance):
        p = random_state(small_instance["layout"], small_instance["rho"], 1)
        q = tangent_momentum(p, 2)
        assert np.allclose(u.constraint_apply_G(p, q), 0.0, atol=1e-12)

    def test_matches_dense_jacobian(self, tiny_instance):
        p = random_state(tiny_instance["layout"], tiny_instance["rho"], 3)
        v = random_state(tiny_instance["layout"], tiny_instance["rho"], 4)
        dense = dense_constraint_jacobian(p) @ v.blocks.ravel()
        assert np.allclose(u.constraint_apply_G(p, v), dense, rtol=1e-12)

    def test_transpose_zero(self, small_instance):
        p = random_state(small_instance["layout"], small_instance["rho"], 5)
        out = apply_gt(p, np.zeros(p.layout.n_bs))
        assert np.array_equal(out, np.zeros_like(p.blocks))

    def test_transpose_selects_one_bs(self, small_instance):
        p = random_state(small_instance["layout"], small_instance["rho"], 6)
        lam = np.zeros(p.layout.n_bs)
        lam[1] = 2.0
        out = apply_gt(p, lam)
        for i, (l, _) in enumerate(p.layout.pairs):
            expected = 2.0 * p.blocks[i] if l == 1 else np.zeros(p.layout.block_len)
            assert np.allclose(out[i], expected)

    def test_transpose_matches_dense(self, tiny_instance):
        p = random_state(tiny_instance["layout"], tiny_instance["rho"], 7)
        lam = np.array([0.3, -1.2])
        dense = dense_constraint_jacobian(p).T @ lam
        out = apply_gt(p, lam)
        assert np.allclose(out.ravel(), dense, rtol=1e-12)

    def test_composition_matches_dense(self, tiny_instance):
        # G applied after G^T equals the dense G G^T = diag(per-BS powers)
        p = random_state(tiny_instance["layout"], tiny_instance["rho"], 7)
        lam = np.array([0.3, -1.2])
        composed = u.constraint_apply_G(p, u.PrecoderState(p.layout, apply_gt(p, lam)))
        g_mat = dense_constraint_jacobian(p)
        assert np.allclose(composed, g_mat @ g_mat.T @ lam, rtol=1e-12)


class TestFlowMultiplier:
    def test_zero_momentum_zero_gradient(self, small_instance):
        p = random_state(small_instance["layout"], small_instance["rho"], 8)
        q = u.PrecoderState.zeros(p.layout)
        lam = u.flow_multiplier(p, q, u.PrecoderState.zeros(p.layout), small_instance["rho"])
        assert np.allclose(lam, 0.0)

    def test_gradient_equal_to_position(self, small_instance):
        # On the manifold, grad = p gives lam_l = -p.p / rho = -1
        p = random_state(small_instance["layout"], small_instance["rho"], 9)
        q = u.PrecoderState.zeros(p.layout)
        lam = u.flow_multiplier(p, q, p, small_instance["rho"])
        mask = p.layout.nonempty_bs
        assert np.allclose(lam[mask], -1.0, rtol=1e-12)

    def test_keeps_flow_tangent_to_first_order(self, small_instance):
        # Euler-integrate the continuous dynamics for one step of size dt: the
        # hidden-constraint violation with the multiplier is O(dt^2) versus
        # O(dt) without it.
        inst = small_instance
        p = random_state(inst["layout"], inst["rho"], 10)
        q = tangent_momentum(p, 11)
        obj = u.WsrObjective(inst["ch"], inst["clusters"], inst["w"])
        grad = obj.evaluate(p).grad
        lam = u.flow_multiplier(p, q, grad, inst["rho"])

        def violation(dt, lam_vec):
            force = grad.blocks + apply_gt(p, lam_vec)
            p1 = u.PrecoderState(p.layout, p.blocks + dt * q.blocks)
            q1 = u.PrecoderState(p.layout, q.blocks - dt * force)
            return np.max(np.abs(u.constraint_apply_G(p1, q1)))

        zero = np.zeros(p.layout.n_bs)
        for dt in (1e-3, 1e-4):
            assert violation(dt, lam) < violation(dt, zero)
        # corrected: second order; uncorrected: first order
        assert violation(1e-3, lam) / violation(1e-4, lam) == pytest.approx(100.0, rel=0.25)
        assert violation(1e-3, zero) / violation(1e-4, zero) == pytest.approx(10.0, rel=0.25)


class TestVelocityMultiplier:
    def test_orthogonal_inputs_give_zero(self, small_instance):
        p = random_state(small_instance["layout"], small_instance["rho"], 12)
        q_half = tangent_momentum(p, 13)
        grad_t = tangent_momentum(p, 14)
        mu = u.velocity_multiplier(p, q_half, grad_t, small_instance["rho"], 0.05)
        assert np.allclose(mu, 0.0, atol=1e-10)

    def test_enforces_hidden_constraint(self, small_instance):
        rng = np.random.default_rng(15)
        layout, rho = small_instance["layout"], small_instance["rho"]
        p = random_state(layout, rho, 16)
        q_half = u.PrecoderState(layout, rng.standard_normal(p.blocks.shape))
        grad = u.PrecoderState(layout, rng.standard_normal(p.blocks.shape))
        h = 0.02
        mu = u.velocity_multiplier(p, q_half, grad, rho, h)
        q_next_blocks = 0.9 * (
            q_half.blocks - 0.5 * h * (grad.blocks + mu[layout.row_bs][:, None] * p.blocks)
        )
        q_next = u.PrecoderState(layout, q_next_blocks)
        dots = u.constraint_apply_G(p, q_next)
        scale = u.bs_block_norms(p) * np.sqrt(np.sum(q_next_blocks**2))
        assert np.max(np.abs(dots) / np.maximum(scale, 1e-300)) < 1e-10

    def test_matches_dense_solve(self, tiny_instance):
        rng = np.random.default_rng(17)
        layout, rho = tiny_instance["layout"], tiny_instance["rho"]
        p = random_state(layout, rho, 18)
        q_half = u.PrecoderState(layout, rng.standard_normal(p.blocks.shape))
        grad = u.PrecoderState(layout, rng.standard_normal(p.blocks.shape))
        h = 0.01
        mu = u.velocity_multiplier(p, q_half, grad, rho, h)
        g_mat = dense_constraint_jacobian(p)
        rhs = (2.0 * g_mat @ q_half.blocks.ravel() - h * g_mat @ grad.blocks.ravel()) / h
        mu_dense = np.linalg.solve(np.diag(rho.rho), rhs)
        assert np.allclose(mu, mu_dense, rtol=1e-12)

    def test_rejects_bad_step(self, small_instance):
        p = random_state(small_instance["layout"], small_instance["rho"], 19)
        with pytest.raises(ValueError):
            u.velocity_multiplier(p, p, p, small_instance["rho"], 0.0)


class TestRattleStep:
    def test_free_motion_preserves_speed(self):
        layout, rho = sphere_world(rho_val=2.0, m_t=1)
        p = u.PrecoderState(layout, np.array([[math.sqrt(2.0), 0.0]]))
        q = u.PrecoderState(layout, np.array([[0.0, 0.7]]))
        config = u.SolverConfig(gamma=1e-300, h0=0.01)
        obj = ZeroObjective(layout)
        speed0 = 0.7
        for n in range(10):
            p, q, record, _ = u.rattle_step(p, q, config, rho, obj, iteration=n)
            assert record.constraint_residual < 1e-12
        assert np.linalg.norm(q.blocks) == pytest.approx(speed0, rel=1e-5)
        assert p.blocks[0, 1] != 0.0  # it actually moved along the sphere

    def test_hidden_residual_tiny(self, small_instance):
        inst = small_instance
        p = random_state(inst["layout"], inst["rho"], 20)
        q = u.PrecoderState.zeros(inst["layout"])
        config = u.SolverConfig(gamma=2.0, h0=0.01)
        obj = u.WsrObjective(inst["ch"], inst["clusters"], inst["w"])
        for n in range(25):
            p, q, record, _ = u.rattle_step(p, q, config, rho=inst["rho"], objective=obj, iteration=n)
            assert record.hidden_residual < 1e-10

    def test_projection_keeps_manifold_exact(self, small_instance):
        inst = small_instance
        p = random_state(inst["layout"], inst["rho"], 21)
        q = u.PrecoderState.zeros(inst["layout"])
        config = u.SolverConfig(gamma=2.0, h0=0.02, project_positions=True)
        obj = u.WsrObjective(inst["ch"], inst["clusters"], inst["w"])
        for n in range(25):
            p, q, record, _ = u.rattle_step(p, q, config, rho=inst["rho"], objective=obj, iteration=n)
            assert record.constraint_residual <= 1e-12

    def test_nonfinite_diagnostic_carries_iteration(self):
        layout, rho = sphere_world()
        p = u.PrecoderState(layout, np.array([[1.0, 0.0]]))
        q = u.PrecoderState(layout, np.array([[0.0, 1e200]]))
        config = u.SolverConfig(gamma=1.0, h0=0.01)
        with np.errstate(all="ignore"), pytest.raises(u.SolverDivergence, match="iteration 7"):
            u.rattle_step(p, q, config, rho, ZeroObjective(layout), iteration=7)

    def test_dissipation_decays_momentum(self):
        layout, rho = sphere_world(rho_val=1.0)
        p = u.PrecoderState(layout, np.array([[1.0, 0.0]]))
        q = u.PrecoderState(layout, np.array([[0.0, 1.0]]))
        gamma, h = 2.0, 0.01
        config = u.SolverConfig(gamma=gamma, h0=h)
        obj = ZeroObjective(layout)
        norms = [1.0]
        for n in range(50):
            p, q, _, _ = u.rattle_step(p, q, config, rho, obj, iteration=n)
            norms.append(float(np.linalg.norm(q.blocks)))
        norms = np.array(norms)
        assert np.all(np.diff(norms) < 0.0)
        assert norms[-1] == pytest.approx(math.exp(-gamma * 50 * h), rel=0.05)


class TestStepController:
    def _config(self, **kw):
        defaults = dict(gamma=1.0, h0=0.01, r_ctrl=0.1, theta=0.5, h_min=1e-5, h_max=1.0)
        defaults.update(kw)
        return u.SolverConfig(**defaults)

    def test_theta_zero_keeps_step(self):
        config = self._config(theta=0.0)
        assert u.step_controller(37.0, 0.42, config) == pytest.approx(0.42)

    def test_unit_ratio_keeps_step(self):
        config = self._config(r_ctrl=0.25)
        assert u.step_controller(0.25, 0.03, config) == pytest.approx(0.03)

    def test_theta_one_quarter_ratio_halves(self):
        config = self._config(theta=1.0, r_ctrl=0.1)
        assert u.step_controller(0.4, 0.2, config) == pytest.approx(0.1)

    def test_zero_error_returns_max_step(self):
        config = self._config(h_max=0.7)
        assert u.step_controller(0.0, 0.01, config) == 0.7

    def test_clamping(self):
        config = self._config(theta=2.0, r_ctrl=1e-6, h_min=1e-3, h_max=0.5)
        assert u.step_controller(1e6, 0.1, config) == pytest.approx(1e-3)
        config2 = self._config(theta=2.0, r_ctrl=1e6, h_min=1e-3, h_max=0.5)
        assert u.step_controller(1e-6, 0.1, config2) == pytest.approx(0.5)

    def test_rejects_bad_inputs(self):
        config = self._config()
        with pytest.raises(ValueError):
            u.step_controller(-1.0, 0.1, config)
        with pytest.raises(ValueError):
            u.step_controller(0.1, 0.0, config)


class TestSolve:
    def test_desk_run_converges(self):
        inst = make_instance(seed=0)
        init = u.rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        result = u.solve(
            inst["ch"], inst["clusters"], inst["rho"], inst["w"], init,
            inst["cfg"].solver_config(),
        )
        assert result.converged
        assert result.iterations <= 200
        assert len(result.trace) == result.iterations

    def test_returned_precoder_is_best(self):
        inst = make_instance(seed=1)
        init = u.rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        result = u.solve(
            inst["ch"], inst["clusters"], inst["rho"], inst["w"], init,
            inst["cfg"].solver_config(),
        )
        final = u.wsr(result.precoder, inst["ch"], inst["clusters"], inst["w"])
        trace_best = max(rec.wsr_bits for rec in result.trace)
        init_wsr = u.wsr(
            u.renormalize_power(init, inst["rho"]), inst["ch"], inst["clusters"], inst["w"]
        )
        assert final >= trace_best - 1e-12
        assert final >= init_wsr - 1e-12

    def test_single_user_hits_matched_filter_rate(self):
        inst = make_instance(seed=2, K=1, tx_power_dbm=24.0)
        init = u.rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        config = u.SolverConfig(
            gamma=8.0, h0=0.01, r_ctrl=1.0, theta=0.5, max_iters=400, rel_tol=1e-12
        )
        result = u.solve(inst["ch"], inst["clusters"], inst["rho"], inst["w"], init, config)
        got = max(rec.wsr_bits for rec in result.trace)
        amp = sum(
            math.sqrt(inst["rho"].rho[l]) * np.linalg.norm(inst["ch"].entries[l, 0])
            for l in inst["clusters"].serving_bs[0]
        )
        optimum = math.log2(1.0 + amp**2 / inst["ch"].noise_power)
        assert got == pytest.approx(optimum, rel=1e-3)

    def test_time_rescaling_invariance(self, tiny_instance):
        # scaling all weights by c and the step by 1/sqrt(c) with q0 = 0,
        # no dissipation and a frozen controller leaves iterates unchanged
        inst = tiny_instance
        init = random_state(inst["layout"], inst["rho"], 22)
        c = 9.0
        base = u.SolverConfig(
            gamma=1e-300, h0=0.004, theta=0.0, max_iters=6, rel_tol=1e-300
        )
        scaled = u.SolverConfig(
            gamma=1e-300, h0=0.004 / math.sqrt(c), theta=0.0, max_iters=6, rel_tol=1e-300
        )
        res_a = u.solve(inst["ch"], inst["clusters"], inst["rho"], inst["w"], init, base)
        res_b = u.solve(
            inst["ch"], inst["clusters"], inst["rho"],
            u.Weights(c * inst["w"].w), init, scaled,
        )
        assert np.allclose(res_a.precoder.blocks, res_b.precoder.blocks, rtol=1e-9)

    def test_propagates_divergence(self):
        layout, rho = sphere_world()
        cm = u.ClusterMap.from_serving([[0]], 1)
        ch = u.ChannelSet(entries=np.full((1, 1, 1), 1e150, dtype=complex), noise_power=1e-300)
        init = u.PrecoderState(layout, np.array([[1e150, 0.0]]))
        config = u.SolverConfig(gamma=1.0, h0=1.0, max_iters=50, rel_tol=1e-12)
        with np.errstate(all="ignore"), pytest.raises((u.SolverDivergence, ValueError)):
            u.solve(ch, cm, rho, u.Weights(np.ones(1)), init, config)


class TestTraceCsv:
    def test_schema_and_empty_cells(self, tmp_path):
        inst = make_instance(seed=0)
        init = u.rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        config = u.SolverConfig(
            gamma=20.0, h0=0.002, r_ctrl=0.25, theta=0.5, max_iters=5, rel_tol=1e-12,
            h_max=0.005,
        )
        result = u.solve(inst["ch"], inst["clusters"], inst["rho"], inst["w"], init, config)
        baseline_record = u.SymplecticStepRecord(
            lam=None, mu=None, delta=None, h_used=None, hamiltonian=None,
            wsr_bits=1.5, constraint_residual=None, hidden_residual=None,
        )
        path = tmp_path / "trace.csv"
        u.write_trace_csv(path, result.trace + [baseline_record])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,wsr_bits,hamiltonian,h_used,delta,constraint_residual,hidden_residual,lambda_min,lambda_max"
        assert len(lines) == 7
        last = lines[-1].split(",")
        assert last[1] == repr(1.5)
        assert last[2] == "" and last[-1] == ""
        # symplectic rows are fully populated
        assert all(cell != "" for cell in lines[1].split(","))
