"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <nn> <name>: PASS|FAIL` line (run pytest
with -s to see them). Solver head-to-head checks share the interference-
limited 24 dBm preset; everything else runs the desk default scenario.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from ucnprec.baselines import (
    WmmseState,
    gd_solve,
    nagd_solve,
    rzf_init,
    wmmse_iterate,
    wmmse_step,
)
from ucnprec.embedding import PrecoderState, bs_block_norms, renormalize_power
from ucnprec.harness import ScenarioConfig, build_instance, complexity_probe
from ucnprec.objective import WsrObjective, fd_gradient
from ucnprec.symplectic import SolverConfig, solve
from conftest import load_preset, make_instance, objective_for

N_SEEDS = 20


def _report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def _to95(wsr_trace):
    ws = np.asarray(wsr_trace)
    return int(np.argmax(ws >= 0.95 * ws[-1])) + 1


@pytest.fixture(scope="module")
def hp_instances():
    cfg = load_preset("high_power.cfg")
    out = []
    for seed in range(N_SEEDS):
        _, ch, clusters = build_instance(cfg, seed)
        rho = cfg.power_budget()
        w = cfg.weights()
        init = rzf_init(ch, clusters, rho)
        out.append(dict(ch=ch, clusters=clusters, rho=rho, w=w, init=init))
    return cfg, out


@pytest.fixture(scope="module")
def hp_head_to_head(hp_instances):
    """Criterion 5 runs: dissipative solver and WMMSE, 50 iterations each."""
    cfg, insts = hp_instances
    solver_cfg = cfg.solver
    wm_cfg = dataclasses.replace(solver_cfg, max_iters=50)
    sym, wm = [], []
    start = time.perf_counter()
    for inst in insts:
        res = solve(inst["init"], objective_for(inst), inst["rho"], solver_cfg)
        sym.append(max(rec.wsr_bits for rec in res.trace))
        wm_res = wmmse_iterate(inst["init"], objective_for(inst), inst["rho"], wm_cfg)
        wm.append(wm_res.trace[-1].wsr_bits)
    elapsed = time.perf_counter() - start
    return np.array(sym), np.array(wm), elapsed


@pytest.fixture(scope="module")
def hp_speed_traces(hp_instances):
    """Criterion 6 runs: 200-iteration WSR traces for all three iterative solvers."""
    cfg, insts = hp_instances
    solver_cfg = cfg.solver
    horizon = 200
    out = {"symplectic": [], "nagd": [], "gd": []}
    sc = dataclasses.replace(solver_cfg, max_iters=horizon, rel_tol=1e-12)
    descent_cfg = dataclasses.replace(solver_cfg, max_iters=horizon, rel_tol=1e-300)
    for inst in insts:
        res = solve(inst["init"], objective_for(inst), inst["rho"], sc)
        out["symplectic"].append([rec.wsr_bits for rec in res.trace])
        na = nagd_solve(inst["init"], objective_for(inst), inst["rho"], descent_cfg)
        out["nagd"].append([rec.wsr_bits for rec in na.trace])
        gd = gd_solve(inst["init"], objective_for(inst), inst["rho"], descent_cfg)
        out["gd"].append([rec.wsr_bits for rec in gd.trace])
    return out


def test_criterion_01_gradient_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(N_SEEDS):
        inst = make_instance(seed=seed, gnb_count=3, sectors_per_gnb=1, M_t=4, K=5, B_sc=2)
        rng = np.random.default_rng(1000 + seed)
        layout = inst["layout"]
        state = renormalize_power(
            PrecoderState(layout, rng.standard_normal((layout.n_blocks, layout.block_len))),
            inst["rho"],
        )
        analytic = WsrObjective(inst["ch"], inst["w"]).evaluate(state).grad
        numeric = fd_gradient(state, inst["ch"], inst["w"], eps=1e-5)
        err = np.linalg.norm(analytic.blocks - numeric.blocks) / np.linalg.norm(numeric.blocks)
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    assert _report(
        1, "gradient oracle", ok, f"(max rel err {worst:.2e}, {elapsed:.1f}s over {N_SEEDS} instances)"
    )


def test_criterion_02_hidden_constraint_enforced():
    inst = make_instance(seed=0)
    init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
    sc = dataclasses.replace(inst["cfg"].solver, max_iters=200, rel_tol=1e-30)
    res = solve(init, objective_for(inst), inst["rho"], sc)
    worst = max(rec.hidden_residual for rec in res.trace)
    ok = res.iterations == 200 and worst <= 1e-9
    assert _report(2, "hidden constraint", ok, f"(max residual {worst:.2e} over 200 iterations)")


def test_criterion_03_manifold_maintenance():
    worst_on, worst_off = 0.0, 0.0
    for seed in range(5):
        inst = make_instance(seed=seed)
        init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        base = inst["cfg"].solver
        for project in (True, False):
            sc = dataclasses.replace(base, max_iters=100, rel_tol=1e-30, project_positions=project)
            res = solve(init, objective_for(inst), inst["rho"], sc)
            peak = max(rec.constraint_residual for rec in res.trace)
            if project:
                worst_on = max(worst_on, peak)
            else:
                worst_off = max(worst_off, peak)
    ok = worst_on <= 1e-12 and worst_off <= 0.01
    assert _report(
        3, "manifold maintenance", ok,
        f"(projected {worst_on:.2e}, unprojected {worst_off:.2e} over 100 iterations, 5 seeds)",
    )


def test_criterion_04_wmmse_sanity():
    worst_drop, worst_power = 0.0, 0.0
    for seed in range(N_SEEDS):
        inst = make_instance(seed=seed)
        state = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        objective = WsrObjective(inst["ch"], inst["w"])
        prev = objective.wsr_bits(state)
        for _ in range(25):
            x, rec = wmmse_step(WmmseState.start(state, inst["ch"]), inst["rho"], objective)
            state = x.p
            worst_drop = max(worst_drop, prev - rec.wsr_bits)
            prev = rec.wsr_bits
            excess = bs_block_norms(state) / inst["rho"].rho - 1.0
            worst_power = max(worst_power, float(excess.max()))
    ok = worst_drop <= 1e-8 and worst_power <= 1e-8
    assert _report(
        4, "WMMSE sanity", ok,
        f"(worst WSR drop {worst_drop:.2e}, worst power excess {worst_power:.2e})",
    )


def test_criterion_05_competitive_with_wmmse(hp_head_to_head):
    sym, wm, elapsed = hp_head_to_head
    ratio = sym / wm
    frac = float(np.mean(ratio >= 0.98))
    ok = frac >= 0.80 and np.median(sym) >= np.median(wm) and elapsed < 120.0
    assert _report(
        5, "competitive with WMMSE", ok,
        f"(>=0.98 on {frac * 100:.0f}% of seeds, medians {np.median(sym):.2f} vs "
        f"{np.median(wm):.2f}, {elapsed:.0f}s)",
    )


def test_criterion_06_convergence_speed_ordering(hp_speed_traces):
    med = {name: float(np.median([_to95(tr) for tr in traces]))
           for name, traces in hp_speed_traces.items()}
    ok = med["symplectic"] <= med["nagd"] <= med["gd"]
    assert _report(
        6, "speed ordering", ok,
        f"(median iterations to 95%: symplectic {med['symplectic']:.1f} <= "
        f"nagd {med['nagd']:.1f} <= gd {med['gd']:.1f})",
    )


def test_criterion_07_adaptive_step_benefit():
    iters = {0.5: [], 0.0: []}
    for seed in range(N_SEEDS):
        inst = make_instance(seed=seed)
        init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        base = inst["cfg"].solver
        for theta in (0.5, 0.0):
            sc = dataclasses.replace(base, theta=theta, max_iters=400)
            res = solve(init, objective_for(inst), inst["rho"], sc)
            iters[theta].append(res.iterations if res.converged else 400)
    med_adaptive = float(np.median(iters[0.5]))
    med_fixed = float(np.median(iters[0.0]))
    ok = med_adaptive <= med_fixed
    assert _report(
        7, "adaptive step benefit", ok,
        f"(median iterations to convergence: adaptive {med_adaptive:.1f}, fixed {med_fixed:.1f})",
    )


def test_criterion_08_cluster_size_ordering(hp_instances):
    cfg, _ = hp_instances
    solver_cfg = dataclasses.replace(cfg.solver, max_iters=150, rel_tol=1e-12)
    medians = {}
    for b_sc in (1, 3, 7):
        finals = []
        for seed in range(N_SEEDS):
            inst = make_instance(seed=seed, tx_power_dbm=cfg.tx_power_dbm, B_sc=b_sc)
            init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
            res = solve(init, objective_for(inst), inst["rho"], solver_cfg)
            finals.append(max(rec.wsr_bits for rec in res.trace))
        medians[b_sc] = float(np.median(finals))
    recovery = (medians[3] - medians[1]) / (medians[7] - medians[1])
    ok = medians[1] < medians[3] < medians[7] and recovery >= 0.60
    assert _report(
        8, "cluster-size ordering", ok,
        f"(medians {medians[1]:.2f} < {medians[3]:.2f} < {medians[7]:.2f}, "
        f"gap recovery {recovery * 100:.0f}%)",
    )


def test_criterion_09_complexity_scaling():
    report = complexity_probe(
        ScenarioConfig(), m_t_grid=(4, 8, 16), k_grid=(5, 10, 20), b_sc_grid=(1, 2, 3)
    )
    ok = (
        1.0 / 2.2 <= report.min_ratio
        and report.max_ratio <= 2.2
        and report.max_mt_deviation <= 0.10
    )
    assert _report(
        9, "complexity scaling", ok,
        f"(count ratio in [{report.min_ratio:.2f}, {report.max_ratio:.2f}], "
        f"M_t doubling within {report.max_mt_deviation * 100:.1f}% of 2x)",
    )


def test_criterion_10_single_user_optimality():
    worst = 0.0
    for seed in range(3):
        inst = make_instance(seed=seed, K=1, tx_power_dbm=24.0)
        init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        sc = SolverConfig(
            gamma=8.0, h0=0.01, r_ctrl=1.0, theta=0.5, max_iters=400, rel_tol=1e-12, h_max=1.0
        )
        res = solve(init, objective_for(inst), inst["rho"], sc)
        got = max(rec.wsr_bits for rec in res.trace)
        amp = sum(
            math.sqrt(inst["rho"].rho[l]) * np.linalg.norm(inst["ch"].entries[l, 0])
            for l in inst["clusters"].serving_bs[0]
        )
        optimum = math.log2(1.0 + amp**2 / inst["ch"].noise_power)
        worst = max(worst, abs(got - optimum) / optimum)
    ok = worst <= 1e-3
    assert _report(10, "single-user optimality", ok, f"(worst deviation {worst * 100:.4f}%)")
