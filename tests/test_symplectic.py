import dataclasses
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ucnprec import helper, symplectic
from ucnprec.baselines import rzf_init
from ucnprec.channel import ChannelSet, ClusterMap
from ucnprec.embedding import (
    BlockLayout,
    PowerBudget,
    PrecoderState,
    bs_block_norms,
    power_residual,
    renormalize_power,
)
from ucnprec.objective import ObjectiveEval, Weights, WsrObjective
from ucnprec.symplectic import (
    SolverConfig,
    SolverDivergence,
    StepRecord,
    iterate,
    rattle_step,
    solve,
    step_controller,
    write_trace_csv,
)
from conftest import (
    REPO, make_instance, random_state, run_python, small_layouts, table1_shaped_instance,
    watch_split_loops,
)
from oracles import (
    constraint_apply_G,
    dense_constraint_jacobian,
    flow_multiplier,
    velocity_multiplier,
)

SYMPLECTIC_DIGEST = json.loads((REPO / "tests" / "data" / "symplectic_table1_digest.json").read_text())


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
            grad=PrecoderState.zeros(state.layout),
            terms=None,
        )


def sphere_world(rho_val=1.0, m_t=1):
    """One BS serving one UT: the manifold is a single sphere."""
    cm = ClusterMap.from_serving([[0]], 1)
    layout = BlockLayout(cm, m_t)
    rho = PowerBudget(np.array([rho_val]))
    return layout, rho


def apply_gt(p, lam):
    """G^T lam as rattle_step forms it: block (l, k) becomes lam_l * p_hat_{l,k}."""
    return lam[p.layout.row_bs][:, None] * p.blocks


def tangent_momentum(p, seed=0):
    """Random momentum projected per BS onto the tangent space of p."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal(p.blocks.shape)
    powers = bs_block_norms(p)
    dots = constraint_apply_G(p, PrecoderState(p.layout, blocks))
    coef = np.where(powers > 0, dots / np.maximum(powers, 1e-300), 0.0)
    blocks = blocks - coef[p.layout.row_bs][:, None] * p.blocks
    return PrecoderState(p.layout, blocks)


class TestConstraintOperators:
    def test_apply_to_self_gives_norms(self, small_instance):
        p = random_state(small_instance["layout"], small_instance["rho"], 0)
        assert np.allclose(constraint_apply_G(p, p), bs_block_norms(p), rtol=1e-13)

    def test_orthogonal_gives_zero(self, small_instance):
        p = random_state(small_instance["layout"], small_instance["rho"], 1)
        q = tangent_momentum(p, 2)
        assert np.allclose(constraint_apply_G(p, q), 0.0, atol=1e-12)

    def test_matches_dense_jacobian(self, tiny_instance):
        p = random_state(tiny_instance["layout"], tiny_instance["rho"], 3)
        v = random_state(tiny_instance["layout"], tiny_instance["rho"], 4)
        dense = dense_constraint_jacobian(p) @ v.blocks.ravel()
        assert np.allclose(constraint_apply_G(p, v), dense, rtol=1e-12)

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
        composed = constraint_apply_G(p, PrecoderState(p.layout, apply_gt(p, lam)))
        g_mat = dense_constraint_jacobian(p)
        assert np.allclose(composed, g_mat @ g_mat.T @ lam, rtol=1e-12)


class TestFlowMultiplier:
    def test_zero_momentum_zero_gradient(self, small_instance):
        p = random_state(small_instance["layout"], small_instance["rho"], 8)
        q = PrecoderState.zeros(p.layout)
        lam = flow_multiplier(p, q, PrecoderState.zeros(p.layout), small_instance["rho"])
        assert np.allclose(lam, 0.0)

    def test_gradient_equal_to_position(self, small_instance):
        # On the manifold, grad = p gives lam_l = -p.p / rho = -1
        p = random_state(small_instance["layout"], small_instance["rho"], 9)
        q = PrecoderState.zeros(p.layout)
        lam = flow_multiplier(p, q, p, small_instance["rho"])
        mask = p.layout.nonempty_bs
        assert np.allclose(lam[mask], -1.0, rtol=1e-12)

    def test_keeps_flow_tangent_to_first_order(self, small_instance):
        # Euler-integrate the continuous dynamics for one step of size dt: the
        # hidden-constraint violation with the multiplier is O(dt^2) versus
        # O(dt) without it.
        inst = small_instance
        p = random_state(inst["layout"], inst["rho"], 10)
        q = tangent_momentum(p, 11)
        obj = WsrObjective(inst["ch"], inst["clusters"], inst["w"])
        grad = obj.evaluate(p).grad
        lam = flow_multiplier(p, q, grad, inst["rho"])

        def violation(dt, lam_vec):
            force = grad.blocks + apply_gt(p, lam_vec)
            p1 = PrecoderState(p.layout, p.blocks + dt * q.blocks)
            q1 = PrecoderState(p.layout, q.blocks - dt * force)
            return np.max(np.abs(constraint_apply_G(p1, q1)))

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
        mu = velocity_multiplier(p, q_half, grad_t, small_instance["rho"], 0.05)
        assert np.allclose(mu, 0.0, atol=1e-10)

    def test_enforces_hidden_constraint(self, small_instance):
        rng = np.random.default_rng(15)
        layout, rho = small_instance["layout"], small_instance["rho"]
        p = random_state(layout, rho, 16)
        q_half = PrecoderState(layout, rng.standard_normal(p.blocks.shape))
        grad = PrecoderState(layout, rng.standard_normal(p.blocks.shape))
        h = 0.02
        mu = velocity_multiplier(p, q_half, grad, rho, h)
        q_next_blocks = 0.9 * (
            q_half.blocks - 0.5 * h * (grad.blocks + mu[layout.row_bs][:, None] * p.blocks)
        )
        q_next = PrecoderState(layout, q_next_blocks)
        dots = constraint_apply_G(p, q_next)
        scale = bs_block_norms(p) * np.sqrt(np.sum(q_next_blocks**2))
        assert np.max(np.abs(dots) / np.maximum(scale, 1e-300)) < 1e-10

    def test_matches_dense_solve(self, tiny_instance):
        rng = np.random.default_rng(17)
        layout, rho = tiny_instance["layout"], tiny_instance["rho"]
        p = random_state(layout, rho, 18)
        q_half = PrecoderState(layout, rng.standard_normal(p.blocks.shape))
        grad = PrecoderState(layout, rng.standard_normal(p.blocks.shape))
        h = 0.01
        mu = velocity_multiplier(p, q_half, grad, rho, h)
        g_mat = dense_constraint_jacobian(p)
        rhs = (2.0 * g_mat @ q_half.blocks.ravel() - h * g_mat @ grad.blocks.ravel()) / h
        mu_dense = np.linalg.solve(np.diag(rho.rho), rhs)
        assert np.allclose(mu, mu_dense, rtol=1e-12)

    def test_rejects_bad_step(self, small_instance):
        p = random_state(small_instance["layout"], small_instance["rho"], 19)
        with pytest.raises(ValueError):
            velocity_multiplier(p, p, p, small_instance["rho"], 0.0)


class TestRattleStep:
    def test_free_motion_preserves_speed(self):
        layout, rho = sphere_world(rho_val=2.0, m_t=1)
        p = PrecoderState(layout, np.array([[math.sqrt(2.0), 0.0]]))
        q = PrecoderState(layout, np.array([[0.0, 0.7]]))
        config = SolverConfig(gamma=1e-300, h0=0.01)
        obj = ZeroObjective(layout)
        speed0 = 0.7
        for n in range(10):
            p, q, record, _ = rattle_step(p, q, config, rho, obj, iteration=n)
            assert record.constraint_residual < 1e-12
        assert np.linalg.norm(q.blocks) == pytest.approx(speed0, rel=1e-5)
        assert p.blocks[0, 1] != 0.0  # it actually moved along the sphere

    def test_hidden_residual_tiny(self, small_instance):
        inst = small_instance
        p = random_state(inst["layout"], inst["rho"], 20)
        q = PrecoderState.zeros(inst["layout"])
        config = SolverConfig(gamma=2.0, h0=0.01)
        obj = WsrObjective(inst["ch"], inst["clusters"], inst["w"])
        for n in range(25):
            p, q, record, _ = rattle_step(p, q, config, rho=inst["rho"], objective=obj, iteration=n)
            assert record.hidden_residual < 1e-10

    def test_projection_keeps_manifold_exact(self, small_instance):
        inst = small_instance
        p = random_state(inst["layout"], inst["rho"], 21)
        q = PrecoderState.zeros(inst["layout"])
        config = SolverConfig(gamma=2.0, h0=0.02, project_positions=True)
        obj = WsrObjective(inst["ch"], inst["clusters"], inst["w"])
        for n in range(25):
            p, q, record, _ = rattle_step(p, q, config, rho=inst["rho"], objective=obj, iteration=n)
            assert record.constraint_residual <= 1e-12

    def test_nonfinite_diagnostic_carries_iteration(self):
        layout, rho = sphere_world()
        p = PrecoderState(layout, np.array([[1.0, 0.0]]))
        q = PrecoderState(layout, np.array([[0.0, 1e200]]))
        config = SolverConfig(gamma=1.0, h0=0.01)
        with np.errstate(all="ignore"), pytest.raises(SolverDivergence, match="iteration 7"):
            rattle_step(p, q, config, rho, ZeroObjective(layout), iteration=7)

    def test_dissipation_decays_momentum(self):
        layout, rho = sphere_world(rho_val=1.0)
        p = PrecoderState(layout, np.array([[1.0, 0.0]]))
        q = PrecoderState(layout, np.array([[0.0, 1.0]]))
        gamma, h = 2.0, 0.01
        config = SolverConfig(gamma=gamma, h0=h)
        obj = ZeroObjective(layout)
        norms = [1.0]
        for n in range(50):
            p, q, _, _ = rattle_step(p, q, config, rho, obj, iteration=n)
            norms.append(float(np.linalg.norm(q.blocks)))
        norms = np.array(norms)
        assert np.all(np.diff(norms) < 0.0)
        assert norms[-1] == pytest.approx(math.exp(-gamma * 50 * h), rel=0.05)


class TestStepController:
    def _config(self, **kw):
        defaults = dict(gamma=1.0, h0=0.01, r_ctrl=0.1, theta=0.5, h_max=1.0)
        defaults.update(kw)
        return SolverConfig(**defaults)

    def test_theta_zero_keeps_step(self):
        config = self._config(theta=0.0)
        assert step_controller(37.0, 0.42, config) == pytest.approx(0.42)

    def test_unit_ratio_keeps_step(self):
        config = self._config(r_ctrl=0.25)
        assert step_controller(0.25, 0.03, config) == pytest.approx(0.03)

    def test_theta_one_quarter_ratio_halves(self):
        config = self._config(theta=1.0, r_ctrl=0.1)
        assert step_controller(0.4, 0.2, config) == pytest.approx(0.1)

    def test_zero_error_returns_max_step(self):
        config = self._config(h_max=0.7)
        assert step_controller(0.0, 0.01, config) == 0.7

    def test_clamping(self):
        # (1e-6 / 1e6) * 0.1 = 1e-13 lies far below the floor, (1e6 / 1e-6) * 0.1 above h_max
        config = self._config(theta=2.0, r_ctrl=1e-6, h_max=0.5)
        assert step_controller(1e6, 0.1, config) == symplectic._H_MIN == 1e-5
        config2 = self._config(theta=2.0, r_ctrl=1e6, h_max=0.5)
        assert step_controller(1e-6, 0.1, config2) == 0.5
        # a ceiling below the floor is rejected; one at the floor pins every step to it
        with pytest.raises(ValueError, match="h_max"):
            self._config(h_max=0.5 * symplectic._H_MIN)
        config3 = self._config(theta=2.0, r_ctrl=1e6, h_max=symplectic._H_MIN)
        assert step_controller(1e-6, 0.1, config3) == symplectic._H_MIN

    def test_rejects_bad_inputs(self):
        config = self._config()
        with pytest.raises(ValueError):
            step_controller(-1.0, 0.1, config)
        with pytest.raises(ValueError):
            step_controller(0.1, 0.0, config)


class TestSolve:
    def test_desk_run_converges(self):
        inst = make_instance(seed=0)
        init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        result = solve(
            inst["ch"], inst["clusters"], inst["rho"], inst["w"], init,
            inst["cfg"].solver_config(),
        )
        assert result.converged
        assert result.iterations <= 200
        assert len(result.trace) == result.iterations

    def test_returned_precoder_is_best(self):
        inst = make_instance(seed=1)
        init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        result = solve(
            inst["ch"], inst["clusters"], inst["rho"], inst["w"], init,
            inst["cfg"].solver_config(),
        )
        obj = WsrObjective(inst["ch"], inst["clusters"], inst["w"])
        final = obj.wsr_bits(result.precoder)
        trace_best = max(rec.wsr_bits for rec in result.trace)
        init_wsr = obj.wsr_bits(renormalize_power(init, inst["rho"]))
        assert final >= trace_best - 1e-12
        assert final >= init_wsr - 1e-12

    def test_single_user_hits_matched_filter_rate(self):
        inst = make_instance(seed=2, K=1, tx_power_dbm=24.0)
        init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        config = SolverConfig(
            gamma=8.0, h0=0.01, r_ctrl=1.0, theta=0.5, max_iters=400, rel_tol=1e-12
        )
        result = solve(inst["ch"], inst["clusters"], inst["rho"], inst["w"], init, config)
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
        base = SolverConfig(
            gamma=1e-300, h0=0.004, theta=0.0, max_iters=6, rel_tol=1e-300
        )
        scaled = SolverConfig(
            gamma=1e-300, h0=0.004 / math.sqrt(c), theta=0.0, max_iters=6, rel_tol=1e-300
        )
        res_a = solve(inst["ch"], inst["clusters"], inst["rho"], inst["w"], init, base)
        res_b = solve(
            inst["ch"], inst["clusters"], inst["rho"],
            Weights(c * inst["w"].w), init, scaled,
        )
        assert np.allclose(res_a.precoder.blocks, res_b.precoder.blocks, rtol=1e-9)

    def test_propagates_divergence(self):
        layout, rho = sphere_world()
        cm = ClusterMap.from_serving([[0]], 1)
        ch = ChannelSet(entries=np.full((1, 1, 1), 1e150, dtype=complex), noise_power=1e-300)
        init = PrecoderState(layout, np.array([[1e150, 0.0]]))
        config = SolverConfig(gamma=1.0, h0=1.0, max_iters=50, rel_tol=1e-12)
        with np.errstate(all="ignore"), pytest.raises((SolverDivergence, ValueError)):
            solve(ch, cm, rho, Weights(np.ones(1)), init, config)


STALL = "stall"


class Point:
    """Stand-in iterate: the driver only compares iterates by identity."""

    def __init__(self, n):
        self.n = n  # the step that produced it, 0 for the start


def scripted_step(script):
    """A fake step that plays script: a WSR accepts a new iterate, STALL fails, None ends."""
    moves = enumerate(script, start=1)

    def step(p, wsr):
        n, move = next(moves)
        if move is None:
            return None
        if move == STALL:
            return p, StepRecord(wsr_bits=wsr, h_used=0.0)
        return Point(n), StepRecord(wsr_bits=move)

    return step


def run_script(script, start_wsr=1.0, max_iters=50, rel_tol=1e-6):
    return iterate(scripted_step(script), Point(0), start_wsr, max_iters, rel_tol)


class TestIterate:
    def test_stops_at_third_small_change(self):
        # changes 1, 0, 0, 1, 0, 0, 0: the third small change in a row is step 7
        result = run_script([2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0, 8.0])
        assert result.converged
        assert result.iterations == 7
        assert [r.wsr_bits for r in result.trace] == [2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0]

    def test_change_at_tolerance_is_not_small(self):
        # each relative change is exactly 2**-10 in floating point
        result = run_script([(1 + 2**-10) ** k for k in (1, 2, 3)], rel_tol=2**-10, max_iters=3)
        assert not result.converged
        assert result.iterations == 3

    def test_stall_clears_window(self):
        # without the clear, the small changes of steps 2, 3 and 5 would stop the run at step 5
        result = run_script([2.0, 2.0, 2.0, STALL, 2.0, 2.0, 2.0, 9.0])
        assert result.converged
        assert result.iterations == 7
        assert result.trace[3].h_used == 0.0

    def test_ten_stalls_end_unconverged(self):
        result = run_script([STALL] * 10 + [2.0])
        assert not result.converged
        assert result.iterations == 10

    def test_accepted_step_resets_stall_count(self):
        result = run_script([STALL] * 9 + [2.0] + [STALL] * 10 + [3.0])
        assert not result.converged
        assert result.iterations == 20
        assert result.trace[9].wsr_bits == 2.0

    def test_vanished_gradient_on_first_step(self):
        result = run_script([None])
        assert result.converged
        assert result.iterations == 0
        assert result.trace == []
        assert result.precoder.n == 0

    def test_best_iterate_can_be_start(self):
        result = run_script([4.0, 3.0, 3.0, 3.0, 3.0], start_wsr=5.0)
        assert result.converged
        assert result.iterations == 5
        assert result.precoder.n == 0

    def test_best_iterate_is_first_of_equals(self):
        result = run_script([2.0, 3.0, 1.0, 3.0], max_iters=4)
        assert not result.converged
        assert result.precoder.n == 2

    def test_cap_ends_unconverged(self):
        result = run_script([2.0, 3.0, 4.0], max_iters=3)
        assert not result.converged
        assert result.iterations == 3


class TestTraceCsv:
    def test_schema_and_empty_cells(self, tmp_path):
        inst = make_instance(seed=0)
        init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        config = SolverConfig(
            gamma=20.0, h0=0.002, r_ctrl=0.25, theta=0.5, max_iters=5, rel_tol=1e-12,
            h_max=0.005,
        )
        result = solve(inst["ch"], inst["clusters"], inst["rho"], inst["w"], init, config)
        baseline_record = StepRecord(wsr_bits=1.5)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.trace + [baseline_record])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,wsr_bits,hamiltonian,h_used,delta,constraint_residual,hidden_residual,lambda_min,lambda_max"
        assert len(lines) == 7
        last = lines[-1].split(",")
        assert last[1] == repr(1.5)
        assert last[2] == "" and last[-1] == ""
        # symplectic rows are fully populated
        assert all(cell != "" for cell in lines[1].split(","))


def reference_step(p, q, config, rho, h, ev0, evaluate):
    """rattle_step as one pass over whole arrays with the oracles' operators, the oracle of its bits.

    evaluate(p_next) gives the evaluation at p_next. Returns (p_next, q_next, record).
    """
    lay = p.layout
    lam = flow_multiplier(p, q, ev0.grad, rho)
    decay = math.exp(-config.gamma * h / 2.0)
    q_half = PrecoderState(lay, decay * q.blocks - 0.5 * h * (ev0.grad.blocks + apply_gt(p, lam)))
    p_next = p.blocks + h * q_half.blocks
    if config.project_positions:
        drifted = PrecoderState(lay, p_next)
        powers = constraint_apply_G(drifted, drifted)
        scale = np.ones(lay.n_bs)
        mask = lay.nonempty_bs & (powers > 0)
        scale[mask] = np.sqrt(rho.rho[mask] / powers[mask])
        p_next = scale[lay.row_bs][:, None] * p_next
    p_next = PrecoderState(lay, p_next)
    ev1 = evaluate(p_next)
    mu = velocity_multiplier(p_next, q_half, ev1.grad, rho, h)
    q_next = PrecoderState(
        lay, decay * (q_half.blocks - 0.5 * h * (ev1.grad.blocks + apply_gt(p_next, mu)))
    )
    powers = constraint_apply_G(p_next, p_next)
    q_norms = np.sqrt(constraint_apply_G(q_next, q_next))
    hidden = np.abs(constraint_apply_G(p_next, q_next)) / (np.sqrt(powers) * q_norms + 1e-30)
    delta = p.blocks - p_next.blocks - 0.5 * h * (ev0.grad.blocks + ev1.grad.blocks)
    record = StepRecord(
        lam=lam,
        mu=mu,
        delta=float(np.linalg.norm(delta)),
        h_used=float(h),
        hamiltonian=0.5 * float(np.sum(q_next.blocks**2)) + ev1.g_value,
        wsr_bits=ev1.wsr_bits,
        constraint_residual=power_residual(lay, powers, rho),
        hidden_residual=float(hidden.max()),
    )
    return p_next, q_next, record


def assert_same_bits(a, b):
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def record_fields(record):
    return [getattr(record, field) for field in (
        "lam", "mu", "delta", "h_used", "hamiltonian", "wsr_bits",
        "constraint_residual", "hidden_residual",
    )]


def assert_same_records(got, want):
    for a, b in zip(record_fields(got), record_fields(want)):
        assert_same_bits(a, b)


class ReplayObjective:
    """WsrObjective that evaluates each distinct state once and replays that evaluation.

    Two runs that reach bit-identical iterates then see bit-identical gradients,
    however the BLAS in this process splits its threads.
    """

    def __init__(self, objective):
        self.objective = objective
        self.seen = {}

    def evaluate(self, state):
        key = state.blocks.tobytes()
        if key not in self.seen:
            self.seen[key] = self.objective.evaluate(state)
        return self.seen[key]


class FixedObjective:
    """Returns one evaluation for every state: steps without any GEMM."""

    def __init__(self, ev):
        self.ev = ev

    def evaluate(self, state):
        return self.ev


def step_problem(shape):
    """(p, q, rho, objective, config) at desk.cfg's or table1_shaped_instance's shape."""
    if shape == "desk":
        inst = make_instance(seed=0)
        ch, clusters, w = inst["ch"], inst["clusters"], inst["w"]
        rho = inst["rho"]
        p = random_state(inst["layout"], rho, 30)
    else:
        ch, clusters, state = table1_shaped_instance()
        w = Weights(np.random.default_rng(2).uniform(0.5, 1.5, ch.n_ut))
        rho = PowerBudget.uniform(ch.n_bs, 1.0)
        p = renormalize_power(state, rho)
    q = tangent_momentum(p, 31)
    config = SolverConfig(gamma=8.0, h0=0.01, r_ctrl=1.0, h_max=1.0)
    return p, q, rho, ReplayObjective(WsrObjective(ch, clusters, w)), config


def set_step_route(mp, route):
    """Through the monkeypatch mp, split every per-BS loop with the helper or keep all inline.

    The helper's gate must be open (open_helper_gate). Returns the set of thread
    names that run the step's row loops.
    """
    if route == "split":
        mp.setattr(helper, "MIN_MT", 1)
        mp.setattr(helper, "SPLIT_MIN_MACS", 0)
    else:
        mp.setattr(helper, "MIN_MT", 10**9)
    return watch_split_loops("rattle_step", mp.setattr)


@pytest.fixture(params=["split", "inline"])
def step_route(request, monkeypatch, open_helper_gate):
    """Split the step's row loops with the helper at every shape, or keep them inline.

    Returns the route and the set of thread names that ran the loops.
    """
    return request.param, set_step_route(monkeypatch, request.param)


def assert_route(route, threads):
    assert threads == ({"MainThread", "ucnprec-helper_0"} if route == "split" else {"MainThread"})


class TestStepSplit:
    def test_table1_digest_matches_inline_record(self):
        # one-thread BLAS as perfbench runs it; the digest was recorded with the row work inline.
        # Switching threads as often as the interpreter can would expose a lost write.
        script = (
            "import sys\n"
            "import conftest\n"
            "from ucnprec import helper\n"
            "sys.setswitchinterval(1e-6)\n"
            "helper._cpus = lambda: 2\n"
            "threads = conftest.watch_split_loops('rattle_step')\n"
            f"print(conftest.table1_symplectic_digest({SYMPLECTIC_DIGEST['steps']}))\n"
            "print(','.join(sorted(threads)))\n"
            "helper.MIN_MT = 10**9\n"
            f"print(conftest.table1_symplectic_digest({SYMPLECTIC_DIGEST['steps']}))\n"
        )
        blas = str(SYMPLECTIC_DIGEST["blas_threads"])
        env = {name: blas for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        split, threads, inline = run_python(script, **env).split()
        assert threads == "MainThread,ucnprec-helper_0"
        assert split == SYMPLECTIC_DIGEST["sha256"]
        assert inline == SYMPLECTIC_DIGEST["sha256"]

    @pytest.mark.parametrize("shape", ["desk", "table1"])
    def test_step_matches_public_definitions(self, step_route, shape):
        p, q, rho, objective, config = step_problem(shape)
        ev = objective.evaluate(p)
        h = config.h0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in range(3):
                p_next, q_next, record, ev_next = rattle_step(
                    p, q, config, rho, objective, h=h, grad_eval=ev, iteration=n
                )
                want_p, want_q, want = reference_step(p, q, config, rho, h, ev, objective.evaluate)
                assert_same_bits(p_next.blocks, want_p.blocks)
                assert_same_bits(q_next.blocks, want_q.blocks)
                assert_same_records(record, want)
                assert ev_next is objective.evaluate(p_next)
                p, q, ev = p_next, q_next, ev_next
                h = step_controller(record.delta, h, config)
        finally:
            sys.setswitchinterval(interval)
        assert_route(*step_route)

    @pytest.mark.parametrize("shape", ["desk", "table1"])
    def test_carried_dots_match_uncarried_steps(self, step_route, shape):
        init, _, rho, objective, config = step_problem(shape)
        p = renormalize_power(init, rho)  # solve()'s start
        q = PrecoderState.zeros(p.layout)
        ev = objective.evaluate(p)
        h = config.h0
        trace = []
        for n in range(4):
            p, q, record, ev = rattle_step(p, q, config, rho, objective, h=h, grad_eval=ev, iteration=n)
            trace.append(record)
            h = step_controller(record.delta, h, config)
        config = dataclasses.replace(config, max_iters=4, rel_tol=1e-300)
        result = symplectic.solve(None, None, rho, None, init, config, objective=objective)
        assert result.iterations == 4
        for got, want in zip(result.trace, trace):
            assert_same_records(got, want)
        assert_route(*step_route)

    @given(instance=small_layouts(), project=st.booleans())
    def test_routes_give_the_same_bytes_on_small_layouts(self, instance, project):
        # three steps from an uncarried start, objective loops split or inline with the step's
        ch, clusters, state, w = instance
        rng = np.random.default_rng(state.layout.n_blocks)
        rho = PowerBudget(rng.uniform(0.5, 2.0, ch.n_bs))
        live = np.all(bs_block_norms(state)[state.layout.nonempty_bs] > 0)
        p = renormalize_power(state, rho) if live else state  # a zero row may leave a BS dead
        q = PrecoderState(p.layout, rng.standard_normal(p.blocks.shape))
        config = SolverConfig(gamma=8.0, h0=0.01, r_ctrl=1.0, project_positions=project)
        out = {}
        for route in ("split", "inline"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(helper, "_cpus", lambda: 2)
                mp.setattr(helper, "_blas_threads", lambda: 1)
                threads = set_step_route(mp, route)
                objective = WsrObjective(ch, clusters, w)
                p_n, q_n, ev, h, carry = p, q, objective.evaluate(p), config.h0, []
                steps = []
                for n in range(3):
                    p_n, q_n, rec, ev = rattle_step(
                        p_n, q_n, config, rho, objective,
                        h=h, grad_eval=ev, iteration=n, carry=carry,
                    )
                    steps.append((p_n.blocks, q_n.blocks, ev.grad.blocks, *record_fields(rec)))
                    h = step_controller(rec.delta, h, config)
                assert_route(route, threads)
            out[route] = [np.asarray(x).tobytes() for step in steps for x in step]
        assert out["split"] == out["inline"]

    @pytest.mark.parametrize("fail", [(1, True), (1, False), (2, True), (2, False)])
    def test_share_error_raises_from_step(self, split_guard, fail):
        p, q, rho, objective, config = step_problem("table1")
        objective = FixedObjective(objective.evaluate(p))
        expected = rattle_step(p, q, config, rho, objective)
        # a failing main-thread share first waits for the helper's to start
        guard = split_guard(fail=fail, helper_delay=0.0 if fail[1] else 0.3)
        with pytest.raises(RuntimeError, match="injected"):
            rattle_step(p, q, config, rho, objective)
        ended = guard.ended
        guard.close()
        assert guard.splits == fail[0]
        assert guard.late == 0
        assert ended == len(guard.shares)  # no share of the call ran after it returned
        guard.fail = None
        guard.helper_delay = 0.0
        guard.closed = False
        got = rattle_step(p, q, config, rho, objective)  # the next step succeeds
        assert {on_helper for _, on_helper, _, _ in guard.shares} == {False, True}
        assert_same_bits(got[0].blocks, expected[0].blocks)
        assert_same_bits(got[1].blocks, expected[1].blocks)
        assert_same_records(got[2], expected[2])

    @pytest.mark.parametrize("half", ["precoder", "momentum"])
    @pytest.mark.parametrize("row", [1, -1])  # in the main thread's share, in the helper's
    def test_nonfinite_gradient_names_iteration_on_both_routes(
        self, open_helper_gate, monkeypatch, half, row
    ):
        p, q, rho, objective, config = step_problem("table1")
        ev = objective.evaluate(p)
        blocks = ev.grad.blocks.copy()
        blocks[row, 3] = np.inf
        bad = ObjectiveEval(
            g_value=ev.g_value, wsr_bits=ev.wsr_bits,
            grad=PrecoderState.trusted(p.layout, blocks), terms=None,
        )
        ev0, ev1 = (bad, ev) if half == "precoder" else (ev, bad)
        messages = []
        for min_mt in (helper.MIN_MT, 10**9):  # split, then inline
            monkeypatch.setattr(helper, "MIN_MT", min_mt)
            # both shares run under the caller's errstate, so no warning escapes either route
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("error")
                with pytest.raises(SolverDivergence) as err:
                    rattle_step(p, q, config, rho, FixedObjective(ev1), grad_eval=ev0, iteration=7)
            messages.append(str(err.value))
        assert messages == [f"non-finite {half} at iteration 7"] * 2
