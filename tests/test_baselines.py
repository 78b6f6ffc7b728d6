import dataclasses
import json
import multiprocessing
import os
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ucnprec import baselines, helper
from ucnprec.baselines import (
    BisectionError,
    bisect_power,
    gd_solve,
    nagd_solve,
    newton_multiplier,
    rzf_init,
    wmmse_iterate,
    wmmse_step,
)
from ucnprec.channel import ChannelSet, ClusterMap
from ucnprec.embedding import (
    BlockLayout,
    PowerBudget,
    PrecoderState,
    bs_block_norms,
    renormalize_power,
)
from ucnprec.harness import (
    ScenarioConfig,
    build_instance,
    initial_precoder,
    load_config,
    run_experiment,
)
from ucnprec.objective import ObjectiveEval, Weights, WsrObjective, _pair_products, amplitude_matrix
from ucnprec.symplectic import SolverConfig, SolverDivergence, solve
from conftest import (
    load_preset,
    make_instance,
    random_served_instance,
    random_state,
    run_python,
    table1_args,
    table1_shaped_instance,
)
from oracles import reference_wmmse_step


class QuadraticObjective:
    """g(x) = 0.5 (x - x_star)' diag(d) (x - x_star) over the flattened blocks."""

    def __init__(self, layout, d, x_star):
        self.layout = layout
        self.d = np.asarray(d, dtype=float)
        self.x_star = np.asarray(x_star, dtype=float)
        self.grad_evals = 0

    def value(self, state):
        e = state.blocks.ravel() - self.x_star
        return 0.5 * float(e @ (self.d * e))

    def wsr_bits(self, state):
        return -self.value(state)

    def evaluate(self, state):
        self.grad_evals += 1
        e = state.blocks.ravel() - self.x_star
        grad = PrecoderState(self.layout, (self.d * e).reshape(state.blocks.shape))
        val = 0.5 * float(e @ (self.d * e))
        return ObjectiveEval(g_value=val, wsr_bits=-val, grad=grad, terms=None)


class InconsistentObjective:
    """Claims a descent direction that the (flat) function never rewards."""

    def __init__(self, layout):
        self.layout = layout
        self.grad_evals = 0

    def value(self, state):
        return 0.0

    def wsr_bits(self, state):
        return 0.0

    def evaluate(self, state):
        self.grad_evals += 1
        grad = PrecoderState(self.layout, np.ones(state.blocks.shape))
        return ObjectiveEval(g_value=0.0, wsr_bits=0.0, grad=grad, terms=None)


REPO = Path(__file__).resolve().parent.parent
FROZEN_WSR = json.loads((REPO / "tests" / "data" / "wmmse_wsr_bisection.json").read_text())["cases"]


def _random_quadratics(n=20):
    """(power, rho_l) pairs with power(lam) = sum_i z2_i / (evals_i + lam)^2."""
    rng = np.random.default_rng(3)
    cases = []
    for _ in range(n):
        evals = rng.uniform(0.0, 4.0, 6)
        z2 = rng.uniform(0.0, 2.0, 6)
        rho_l = float(rng.uniform(0.05, 1.0))

        def power(lam, evals=evals, z2=z2):
            return float(np.sum(z2 / (evals + lam) ** 2))

        cases.append((power, rho_l))
    return cases


def _secular_problems(n=20):
    """(e ascending, s, rho_l) with P(lam) = sum_i s_i / (e_i + lam)^2 > rho_l at 0."""
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(n):
        e = np.sort(rng.uniform(0.0, 4.0, 6))
        s = rng.uniform(0.0, 2.0, 6)
        rho_l = float(rng.uniform(0.05, 0.9) * np.sum(s / e**2))
        cases.append((e, s, rho_l))
    return cases


def _secular(e, s, lam):
    return float(np.sum(s / (e + lam) ** 2))


@pytest.fixture(scope="module")
def warm_frozen_runs():
    """Warm-started sweeps over every frozen case: (WSR trace, worst power error, evals)."""
    runs = {}
    for case in FROZEN_WSR:
        cfg = load_config(REPO / "configs" / case["config"])
        _, ch, clusters = build_instance(cfg, case["seed"])
        rho, w = cfg.power_budget(), cfg.weights()
        state = initial_precoder(cfg, ch, clusters, rho, case["seed"])
        mask = state.layout.nonempty_bs
        lam, wsr_trace, worst, evals = None, [], 0.0, []
        for _ in range(case["sweeps"]):
            state, ws, wsr_bits = wmmse_step(state, ch, rho, w, lam0=lam)
            lam = ws.lam
            wsr_trace.append(wsr_bits)
            powers = bs_block_norms(state)
            worst = max(worst, float(np.max(np.abs(powers[mask] / rho.rho[mask] - 1.0))))
            evals.extend(ws.power_evals[mask])
        runs[(case["config"], case["seed"])] = (wsr_trace, worst, evals)
    return runs


def _single_pair_layout(m_t=4):
    cm = ClusterMap.from_serving([[0]], 1)
    return BlockLayout(cm, m_t)


class TestRzf:
    def test_single_served_ut_is_matched_filter(self):
        inst = make_instance(seed=0, K=1, B_sc=1)
        state = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        l = inst["clusters"].serving_bs[0][0]
        h = inst["ch"].entries[l, 0]
        p = state.complex_blocks()[state.layout.pairs.index((l, 0))]
        direction = p / np.linalg.norm(p)
        matched = h / np.linalg.norm(h)
        assert abs(np.vdot(direction, matched)) == pytest.approx(1.0, rel=1e-10)

    def test_orthogonal_channels_stay_orthogonal(self):
        entries = np.zeros((1, 2, 4), dtype=complex)
        entries[0, 0] = [1.0, 1.0j, 0.0, 0.0]
        entries[0, 1] = [0.0, 0.0, 1.0, -1.0j]
        ch = ChannelSet(entries=entries, noise_power=0.1)
        cm = ClusterMap.from_serving([[0], [0]], 1)
        rho = PowerBudget(np.array([2.0]))
        state = rzf_init(ch, cm, rho)
        blocks = state.complex_blocks()
        assert abs(np.vdot(blocks[0], blocks[1])) < 1e-12

    def test_power_budget_met_exactly(self, small_instance):
        state = rzf_init(small_instance["ch"], small_instance["clusters"], small_instance["rho"])
        powers = bs_block_norms(state)
        mask = state.layout.nonempty_bs
        assert np.allclose(powers[mask], small_instance["rho"].rho[mask], rtol=1e-12)


class TestWmmse:
    def test_reaches_fixed_point(self):
        inst = make_instance(seed=1, gnb_count=2, M_t=2, K=2, B_sc=1)
        state = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        prev = WsrObjective(inst["ch"], inst["clusters"], inst["w"]).wsr_bits(state)
        settled = False
        for _ in range(3000):
            state, _, wsr_now = wmmse_step(state, inst["ch"], inst["rho"], inst["w"])
            if abs(wsr_now - prev) < 1e-10:
                settled = True
                break
            prev = wsr_now
        assert settled
        _, _, wsr_next = wmmse_step(state, inst["ch"], inst["rho"], inst["w"])
        assert abs(wsr_next - prev) < 1e-10

    def test_monotone_over_random_instances(self):
        for seed in range(10):
            inst = make_instance(seed=seed, gnb_count=3, M_t=4, K=6, B_sc=2)
            init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
            _, trace = wmmse_iterate(init, inst["ch"], inst["rho"], inst["w"], 25)
            start = WsrObjective(inst["ch"], inst["clusters"], inst["w"]).wsr_bits(init)
            full = np.concatenate([[start], trace])
            assert np.all(np.diff(full) >= -1e-8 * np.maximum(1.0, np.abs(full[:-1])))

    def test_power_feasible_every_iteration(self, small_instance):
        state = rzf_init(small_instance["ch"], small_instance["clusters"], small_instance["rho"])
        rho = small_instance["rho"]
        for _ in range(15):
            state, ws, _ = wmmse_step(state, small_instance["ch"], rho, small_instance["w"])
            powers = bs_block_norms(state)
            assert np.all(powers <= rho.rho * (1.0 + 1e-8))
            assert np.all(ws.W >= 1.0 - 1e-9)
            assert np.all(ws.lam >= 0.0)

    @pytest.mark.parametrize(
        "case", FROZEN_WSR, ids=lambda c: f"{c['config']}-seed{c['seed']}"
    )
    def test_matches_frozen_bisection_trace(self, case):
        # WSR per sweep recorded with the midpoint bisection; the multiplier
        # search may change how lam is found, never where the sweep lands
        cfg = load_config(REPO / "configs" / case["config"])
        _, ch, clusters = build_instance(cfg, case["seed"])
        rho, w = cfg.power_budget(), cfg.weights()
        state = initial_precoder(cfg, ch, clusters, rho, case["seed"])
        mask = state.layout.nonempty_bs
        wsr_trace = []
        for _ in range(case["sweeps"]):
            state, _, wsr_bits = wmmse_step(state, ch, rho, w)
            wsr_trace.append(wsr_bits)
            powers = bs_block_norms(state)
            assert np.all(np.abs(powers[mask] - rho.rho[mask]) <= 1e-10 * rho.rho[mask])
        np.testing.assert_allclose(wsr_trace, case["wsr_bits"], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize(
        "case", FROZEN_WSR, ids=lambda c: f"{c['config']}-seed{c['seed']}"
    )
    def test_warm_started_matches_frozen_bisection_trace(self, case, warm_frozen_runs):
        # each sweep starts its multiplier searches from the previous sweep's
        wsr_trace, worst_power_err, _ = warm_frozen_runs[(case["config"], case["seed"])]
        assert worst_power_err <= 1e-10
        np.testing.assert_allclose(wsr_trace, case["wsr_bits"], rtol=1e-9, atol=0.0)

    def test_warm_start_evaluation_count(self, warm_frozen_runs):
        evals = [
            n
            for (config, _), (_, _, per_bs) in warm_frozen_runs.items()
            if config == "high_power.cfg"
            for n in per_bs
        ]
        assert len(evals) >= 5 * 50
        assert np.mean(evals) <= 5.0

    def test_iterate_threads_multipliers(self, small_instance):
        args = (small_instance["ch"], small_instance["rho"], small_instance["w"])
        init = rzf_init(small_instance["ch"], small_instance["clusters"], small_instance["rho"])
        _, trace = wmmse_iterate(init, *args, 6)
        state, lam, manual = init, None, []
        for _ in range(6):
            state, ws, wsr_bits = wmmse_step(state, *args, lam0=lam)
            lam = ws.lam
            manual.append(wsr_bits)
        assert trace.tolist() == manual

    def test_matches_reference_sweep_on_singular_grams(self):
        # K < M_t: every gram is rank deficient
        for seed in range(6):
            inst = make_instance(seed=seed, gnb_count=3, M_t=8, K=5, B_sc=2)
            state = ref = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
            lam = None
            for _ in range(15):
                state, ws, wsr_bits = wmmse_step(
                    state, inst["ch"], inst["rho"], inst["w"], lam0=lam
                )
                lam = ws.lam
                ref, _, ref_bits = reference_wmmse_step(
                    ref, inst["ch"], inst["clusters"], inst["rho"], inst["w"]
                )
                assert wsr_bits == pytest.approx(ref_bits, rel=1e-9)

    def test_zero_weight_bs_stays_finite(self):
        # one weighted UT, B_sc = 1: a BS serving only zero-weight UTs gets a
        # vanishing right-hand side against a singular gram (the hard case)
        for seed in range(40):
            inst = make_instance(
                seed=seed, gnb_count=3, M_t=8, K=4, B_sc=1, tx_power_dbm=40.0
            )
            w = Weights(np.array([1.0, 0.0, 0.0, 0.0]))
            state = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
            prev = WsrObjective(inst["ch"], inst["clusters"], w).wsr_bits(state)
            lam = None
            for _ in range(30):
                state, ws, wsr_bits = wmmse_step(state, inst["ch"], inst["rho"], w, lam0=lam)
                lam = ws.lam
                assert np.all(np.isfinite(state.blocks))
                assert np.all(bs_block_norms(state) <= inst["rho"].rho * (1.0 + 1e-10))
                assert wsr_bits >= prev - 1e-9 * max(1.0, abs(prev))
                prev = wsr_bits

    def test_iterate_returns_trace(self, small_instance):
        init = rzf_init(small_instance["ch"], small_instance["clusters"], small_instance["rho"])
        state, trace = wmmse_iterate(
            init, small_instance["ch"], small_instance["rho"], small_instance["w"], 8
        )
        assert trace.shape == (8,)
        obj = WsrObjective(small_instance["ch"], small_instance["clusters"], small_instance["w"])
        assert obj.wsr_bits(state) == pytest.approx(trace[-1], rel=1e-9)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OBJECTIVE_DIGEST = json.loads(
    (REPO / "tests" / "data" / "objective_table1_digest.json").read_text()
)
TABLE1_DIGEST = json.loads((REPO / "tests" / "data" / "wmmse_table1_digest.json").read_text())


class EighGuard:
    """Stands in for np.linalg.eigh: counts calls, flags overlapping and late ones.

    A call starts late when it starts while `closed` is set. `threads` names
    the threads that made calls. The fail_on-th call raises LinAlgError
    instead of decomposing.
    """

    def __init__(self, fail_on=None):
        self._eigh = np.linalg.eigh
        self._fail_on = fail_on
        self._lock = threading.Lock()
        self.calls = self.overlaps = self.late = self.active = 0
        self.closed = False
        self.threads = set()

    def __call__(self, a):
        with self._lock:
            self.overlaps += self.active > 0
            self.late += self.closed
            self.active += 1
            self.calls += 1
            self.threads.add(threading.current_thread().name)
            n = self.calls
        try:
            if n == self._fail_on:
                raise np.linalg.LinAlgError("injected eigh failure")
            return self._eigh(a)
        finally:
            with self._lock:
                self.active -= 1

    def close(self):
        """Mark the sweep returned, then let anything still queued on the helper run."""
        self.closed = True
        helper._executor.submit(int).result(timeout=60)


@pytest.fixture
def eigh_guard(monkeypatch, open_helper_gate):
    """Install an EighGuard; sweeps at M_t >= 48 use the helper even on one CPU."""

    def install(fail_on=None):
        guard = EighGuard(fail_on)
        monkeypatch.setattr(np.linalg, "eigh", guard)
        return guard

    return install


def run_with_blas_threads(script, threads):
    """Run a script in a fresh interpreter with BLAS at the given thread count; its output words."""
    return run_python(script, **{name: str(threads) for name in BLAS_THREAD_VARIABLES}).split()


class TestEighWorker:
    def test_table1_digest_matches_inline_record(self):
        # one-thread BLAS as perfbench runs it; the digest was recorded with eigh inline
        script = (
            "import conftest\n"
            "from ucnprec import helper\n"
            "helper._cpus = lambda: 2\n"
            f"print(conftest.table1_wmmse_digest({TABLE1_DIGEST['sweeps']}))\n"
            f"print(conftest.table1_wmmse_digest({TABLE1_DIGEST['sweeps']}, carried=True))\n"
            "print(helper._executor is not None)\n"
            "helper.MIN_MT = 10**9\n"
            f"print(conftest.table1_wmmse_digest({TABLE1_DIGEST['sweeps']}))\n"
            f"print(conftest.table1_wmmse_digest({TABLE1_DIGEST['sweeps']}, carried=True))\n"
        )
        threaded, threaded_carried, used_helper, inline, inline_carried = run_with_blas_threads(
            script, 1
        )
        assert used_helper == "True"
        assert threaded == TABLE1_DIGEST["sha256"]
        assert threaded_carried == TABLE1_DIGEST["sha256"]
        assert inline == TABLE1_DIGEST["sha256"]
        assert inline_carried == TABLE1_DIGEST["sha256"]

    def test_random_eigh_delays_keep_the_inline_bytes(self):
        # an eigh that sleeps a random time on either thread reorders which thread
        # decomposes which gram and when results come in, but not the bytes
        script = (
            "import random, threading, time\n"
            "import numpy as np\n"
            "import conftest\n"
            "from ucnprec import helper\n"
            "helper._cpus = lambda: 2\n"
            "eigh, rng, threads = np.linalg.eigh, random.Random(0), set()\n"
            "def delayed(a):\n"
            "    threads.add(threading.current_thread().name)\n"
            "    time.sleep(rng.uniform(0.0, 0.01))\n"
            "    return eigh(a)\n"
            "np.linalg.eigh = delayed\n"
            "print(conftest.table1_wmmse_digest(3))\n"
            "print(','.join(sorted(threads)))\n"
            "np.linalg.eigh = eigh\n"
            "helper.MIN_MT = 10**9\n"
            "print(conftest.table1_wmmse_digest(3))\n"
        )
        delayed, threads, inline = run_with_blas_threads(script, 1)
        assert threads == "MainThread,ucnprec-helper_0"
        assert delayed == inline == TABLE1_DIGEST["sha256"]

    def test_one_call_per_bs_on_both_threads(self, eigh_guard):
        guard = eigh_guard()
        state, ch, rho, w = table1_args()
        n_nonempty = int(np.count_nonzero(state.layout.nonempty_bs))
        lam = None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for sweep in range(1, 3):
                state, ws, _ = wmmse_step(state, ch, rho, w, lam0=lam)
                lam = ws.lam
                guard.close()
                assert guard.calls == sweep * n_nonempty
                guard.closed = False
        finally:
            sys.setswitchinterval(interval)
        assert guard.late == 0
        assert guard.threads == {"MainThread", "ucnprec-helper_0"}  # both threads decompose

    @pytest.mark.parametrize("k", [1, 2, 20])
    def test_worker_error_raises_in_sweep(self, eigh_guard, k):
        guard = eigh_guard(fail_on=k)
        state, ch, rho, w = table1_args()
        n_nonempty = int(np.count_nonzero(state.layout.nonempty_bs))
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            wmmse_step(state, ch, rho, w)
        guard.close()
        assert guard.late == 0
        assert k <= guard.calls <= min(k + 1, n_nonempty)  # the next BS's eigh may have started
        guard.closed = False
        calls = guard.calls
        wmmse_step(state, ch, rho, w)  # the worker survives the error
        assert guard.calls == calls + n_nonempty

    def test_main_thread_error_leaves_no_eigh_running(self, eigh_guard, monkeypatch):
        guard = eigh_guard()

        def fail(*args):
            raise BisectionError("injected multiplier failure")

        monkeypatch.setattr(baselines, "newton_multiplier", fail)
        with pytest.raises(BisectionError, match="injected"):
            wmmse_step(*table1_args())
        guard.close()
        assert guard.late == 0
        assert 1 <= guard.calls <= baselines._GRAMS_AHEAD  # only the failing BS's look-ahead

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_its_own_worker(self, eigh_guard):
        eigh_guard()
        args = table1_args()
        wmmse_step(*args)  # the worker thread exists in this process now
        child = multiprocessing.get_context("fork").Process(target=wmmse_step, args=args)
        child.start()
        child.join(timeout=30)  # a child that reused the executor would wait forever
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung
        assert child.exitcode == 0

    def test_worker_error_is_a_run_row(self, eigh_guard, tmp_path):
        guard = eigh_guard(fail_on=1)
        cfg = dataclasses.replace(
            ScenarioConfig(), gnb_count=2, sectors_per_gnb=1, M_t=48, K=4, B_sc=2,
            seeds=(0,), max_iters=2,
        )
        summary = run_experiment(cfg, ["wmmse", "rzf"], tmp_path)
        assert guard.threads <= {"MainThread", "ucnprec-helper_0"}
        wmmse_row, rzf_row = summary.rows
        assert wmmse_row.error == "LinAlgError: injected eigh failure"
        assert not wmmse_row.converged
        assert rzf_row.error == "" and np.isfinite(rzf_row.wsr_bits)


    def test_worker_error_at_last_bs_of_deep_queue(self, eigh_guard):
        assert baselines._GRAMS_AHEAD >= 3  # the failing eigh is claimed behind others
        state, ch, rho, w = table1_args()
        n_nonempty = int(np.count_nonzero(state.layout.nonempty_bs))
        guard = eigh_guard(fail_on=n_nonempty)
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            wmmse_step(state, ch, rho, w)
        guard.close()
        assert guard.calls == n_nonempty
        assert guard.late == 0
        guard.closed = False
        wmmse_step(state, ch, rho, w)  # the helper survives the error
        assert guard.calls == 2 * n_nonempty


# tracemalloc peaks (MB) of one wmmse_step on table1_args() before WMMSE carried its
# pair products, each step building its own: PEAK_SCRIPT's step with products=None, run
# with that code (numpy 2.4.6, OPENBLAS_NUM_THREADS=1, helper gate opened by _cpus = 2).
PEAK_BEFORE_CARRIED_PRODUCTS_MB = {"inline": 6.641, "helper": 8.516}
PEAK_SCRIPT = """
import tracemalloc
import conftest
from ucnprec import baselines, helper

helper._cpus = lambda: 2
if {inline}:
    helper.MIN_MT = 10**9
state, ch, rho, w = conftest.table1_args()
state, ws, _ = baselines.wmmse_step(state, ch, rho, w)  # starts the helper and numpy's caches
for products in (None, ws.products):  # built inside the step, then carried in
    tracemalloc.start()
    out = baselines.wmmse_step(state, ch, rho, w, lam0=ws.lam, products=products)
    print(tracemalloc.get_traced_memory()[1] / 1e6)
    tracemalloc.stop()
    del out
print(helper._executor is not None)
"""


class TestCarriedProducts:
    """WMMSE carries its per-pair channel products from sweep to sweep."""

    @pytest.mark.parametrize("route", ["inline", "helper"])
    @pytest.mark.parametrize("instance", ["desk.cfg", "table1_shaped"])
    def test_carried_products_match_fresh_build(self, instance, route, eigh_guard, monkeypatch):
        if instance == "desk.cfg":
            cfg = load_preset("desk.cfg")
            _, ch, clusters = build_instance(cfg, 0)
            rho, w = cfg.power_budget(), cfg.weights()
            state = initial_precoder(cfg, ch, clusters, rho, 0)
            sweeps = 6
        else:
            state, ch, rho, w = table1_args()
            sweeps = 3
        monkeypatch.setattr(helper, "MIN_MT", 10**9 if route == "inline" else 1)
        guard = eigh_guard()
        fresh, lam, products = state, None, None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for _ in range(sweeps):
                state, ws, wsr_bits = wmmse_step(state, ch, rho, w, lam0=lam, products=products)
                assert products is None or ws.products is products  # updated in place
                lam, products = ws.lam, ws.products
                assert products.tobytes() == _pair_products(state, ch).tobytes()
                fresh, _, fresh_bits = wmmse_step(fresh, ch, rho, w, lam0=lam)
                assert fresh_bits == wsr_bits
                assert fresh.blocks.tobytes() == state.blocks.tobytes()
        finally:
            sys.setswitchinterval(interval)
        if route == "inline":
            assert guard.threads == {"MainThread"}
        else:
            assert guard.threads <= {"MainThread", "ucnprec-helper_0"}

    @pytest.mark.parametrize(
        "make_bad",
        [
            lambda p, ch: p[:, :-1],  # no zero column
            lambda p, ch: p[:-1],  # one UT short
            lambda p, ch: p.astype(np.complex64),
            lambda p, ch: np.ascontiguousarray(p.real),
        ],
        ids=["short-columns", "short-rows", "complex64", "real"],
    )
    def test_rejects_misfit_products_before_any_eigh(self, make_bad, eigh_guard):
        guard = eigh_guard()
        state, ch, rho, w = table1_args()
        products = _pair_products(state, ch)
        with pytest.raises(ValueError, match="pair products"):
            wmmse_step(state, ch, rho, w, products=make_bad(products, ch))
        assert guard.calls == 0

    def test_rejects_products_of_another_channel_set(self, eigh_guard):
        guard = eigh_guard()
        state, ch, rho, w = table1_args()
        products = _pair_products(state, ch)
        other = ChannelSet(entries=ch.entries[1:], noise_power=ch.noise_power)
        with pytest.raises(ValueError, match="pair products"):
            wmmse_step(state, other, PowerBudget.uniform(other.n_bs, 1.0), w, products=products)
        assert guard.calls == 0

    @pytest.mark.parametrize("route", ["inline", "helper"])
    def test_step_peak_memory_not_above_earlier_code(self, route):
        script = PEAK_SCRIPT.format(inline=route == "inline")
        *peaks, used_helper = run_with_blas_threads(script, 1)
        assert used_helper == str(route == "helper")
        built, carried = (float(p) for p in peaks)
        assert built <= PEAK_BEFORE_CARRIED_PRODUCTS_MB[route]
        assert carried < built  # the carried buffer was allocated before the step


def three_sweeps(state, ch, rho, w):
    """Bytes of three warm-started wmmse_step calls, each given the last one's pair products.

    Per call: the blocks, multipliers, power evaluations, carried products and WSR.
    """
    lam = products = None
    out = []
    for _ in range(3):
        state, ws, wsr_bits = wmmse_step(state, ch, rho, w, lam0=lam, products=products)
        lam, products = ws.lam, ws.products
        for arr in (state.blocks, ws.lam, ws.power_evals, ws.products, np.float64(wsr_bits)):
            out.append(arr.tobytes())
    return out


class TestStackedRoute:
    """Below split_bs_loop's size and the helper's gate a sweep stacks its grams."""

    def test_desk_sweep_makes_one_eigh_call(self, eigh_guard):
        guard = eigh_guard()
        cfg = load_preset("desk.cfg")
        _, ch, clusters = build_instance(cfg, 0)
        rho, w = cfg.power_budget(), cfg.weights()
        state = initial_precoder(cfg, ch, clusters, rho, 0)
        assert np.count_nonzero(state.layout.nonempty_bs) > 1
        lam = None
        for sweep in range(1, 4):
            state, ws, _ = wmmse_step(state, ch, rho, w, lam0=lam)
            lam = ws.lam
            assert guard.calls == sweep
        assert guard.threads == {"MainThread"}

    def test_table1_inline_sweep_decomposes_per_bs(self, eigh_guard, monkeypatch):
        # above SPLIT_MIN_MACS a sweep keeps one eigh per BS even with the helper's gate shut
        monkeypatch.setattr(helper, "MIN_MT", 10**9)
        guard = eigh_guard()
        state, ch, rho, w = table1_args()
        wmmse_step(state, ch, rho, w)
        assert guard.calls == np.count_nonzero(state.layout.nonempty_bs)
        assert guard.threads == {"MainThread"}

    @given(seed=st.integers(0, 2**32 - 1), log_watts=st.floats(-3.0, 3.0))
    def test_routes_give_the_same_bytes(self, seed, log_watts):
        # random layouts with an empty BS, K < M_t (zero eigenvalues) and UTs served by
        # 0-3 BSs; at high power some multipliers are 0
        ch, _, state = random_served_instance(seed)
        rng = np.random.default_rng(seed)
        rho = PowerBudget(10.0**log_watts * rng.uniform(0.5, 2.0, ch.n_bs))
        w = Weights(rng.uniform(0.5, 1.5, ch.n_ut))
        n_nonempty = int(np.count_nonzero(state.layout.nonempty_bs))
        routes = {}
        with pytest.MonkeyPatch.context() as mp:
            guard = EighGuard()
            mp.setattr(np.linalg, "eigh", guard)
            routes["stacked"] = three_sweeps(state, ch, rho, w)
            assert guard.calls == 3
            mp.setattr(helper, "SPLIT_MIN_MACS", 0)  # every layout is big: one job per BS
            routes["inline"] = three_sweeps(state, ch, rho, w)
            assert guard.calls == 3 + 3 * n_nonempty
            assert guard.threads == {"MainThread"}
            # the helper's gate opened: both threads claim the per-BS jobs
            mp.setattr(helper, "MIN_MT", 1)
            mp.setattr(helper, "_cpus", lambda: 2)
            mp.setattr(helper, "_blas_threads", lambda: 1)
            routes["helper"] = three_sweeps(state, ch, rho, w)
            assert guard.calls == 3 + 6 * n_nonempty
        assert routes["inline"] == routes["stacked"]
        assert routes["helper"] == routes["stacked"]


def _split_evaluation():
    """evaluate() at table1 shape; fails unless the loops ran split (fork target)."""
    ch, clusters, state = table1_shaped_instance()
    WsrObjective(ch, clusters, Weights.uniform(ch.n_ut)).evaluate(state)
    assert helper._executor is not None


def _assert_close(actual, desired):
    # the in-process BLAS may run several threads, so no bit identity is claimed here
    np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=1e-12 * np.abs(desired).max())


class TestHelperSplit:
    def test_table1_objective_digest_matches_inline_record(self):
        # one-thread BLAS as perfbench runs it; the digest was recorded with the loops inline.
        # Switching threads as often as the interpreter can would expose a lost write.
        script = (
            "import sys\n"
            "import conftest\n"
            "from ucnprec import helper\n"
            "sys.setswitchinterval(1e-6)\n"
            "helper._cpus = lambda: 2\n"
            "print(conftest.table1_objective_digest())\n"
            "print(helper._executor is not None)\n"
            "helper.MIN_MT = 10**9\n"
            "print(conftest.table1_objective_digest())\n"
        )
        split, used_helper, inline = run_with_blas_threads(script, OBJECTIVE_DIGEST["blas_threads"])
        assert used_helper == "True"
        assert split == OBJECTIVE_DIGEST["sha256"]
        assert inline == OBJECTIVE_DIGEST["sha256"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_gate_opens_only_with_one_thread_blas(self, threads):
        config = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
        blas = config.get("blas", {}).get("name", "an unnamed BLAS")
        if "openblas" not in blas:
            pytest.skip(f"numpy uses {blas}, whose thread count the gate cannot ask")
        if threads > helper._cpus():
            pytest.skip("OpenBLAS runs at most one thread per CPU")
        script = (
            "from ucnprec import helper\n"
            "helper._cpus = lambda: 2\n"
            "print(helper._blas_threads(), helper.executor_for(128) is not None)\n"
            "print(helper.executor_for(helper.MIN_MT - 1) is not None)\n"
        )
        assert run_with_blas_threads(script, threads) == [str(threads), str(threads == 1), "False"]

    def test_helper_used_at_table1_shape_not_at_desk_shape(self, split_guard):
        guard = split_guard()
        ch, clusters, state = table1_shaped_instance()
        WsrObjective(ch, clusters, Weights.uniform(ch.n_ut)).evaluate(state)
        # BSs 16-20 hold 233 of the 438 columns, the tail nearest to half
        assert sorted(guard.shares) == [
            (1, False, 0, 16), (1, True, 16, 21), (2, False, 0, 16), (2, True, 16, 21)
        ]
        # desk.cfg's shape, and high_power's K and pairs at M_t = 128: too little work to split
        for m_t in (16, 128):
            guard.shares.clear()
            inst = make_instance(seed=0, M_t=m_t)
            state = random_state(inst["layout"], inst["rho"], 0)
            WsrObjective(inst["ch"], inst["clusters"], inst["w"]).evaluate(state)
            n_bs = inst["ch"].n_bs
            last = guard.splits
            assert guard.shares == [(last - 1, False, 0, n_bs), (last, False, 0, n_bs)]

    @pytest.mark.parametrize(
        "call, split", [("amplitude_matrix", 1), ("evaluate", 1), ("evaluate", 2)]
    )
    def test_helper_error_raises_in_caller(self, split_guard, call, split):
        ch, clusters, state = table1_shaped_instance()
        objective = WsrObjective(ch, clusters, Weights.uniform(ch.n_ut))
        run = {
            "amplitude_matrix": lambda: amplitude_matrix(state, ch),
            "evaluate": lambda: objective.evaluate(state).grad.blocks,
        }[call]
        expected = run()
        guard = split_guard(fail=(split, True))
        with pytest.raises(RuntimeError, match="injected"):
            run()
        guard.close()
        assert guard.splits == split
        assert guard.late == 0
        guard.fail = None
        guard.closed = False
        _assert_close(run(), expected)  # the next call succeeds

    def test_main_thread_error_waits_for_helper_share(self, split_guard):
        ch, _, state = table1_shaped_instance()
        expected = amplitude_matrix(state, ch)
        guard = split_guard(fail=(1, False), helper_delay=0.3)
        with pytest.raises(RuntimeError, match="injected"):
            amplitude_matrix(state, ch)
        ended = guard.ended
        guard.close()
        assert ended == len(guard.shares) == 2  # the helper's share had finished
        assert guard.late == 0
        guard.fail = None
        guard.helper_delay = 0.0
        guard.closed = False
        _assert_close(amplitude_matrix(state, ch), expected)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_split_evaluation(self, open_helper_gate):
        _split_evaluation()  # the helper thread exists in this process now
        child = multiprocessing.get_context("fork").Process(target=_split_evaluation)
        child.start()
        child.join(timeout=60)  # a child that reused the executor would wait forever
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung
        assert child.exitcode == 0


class TestBisection:
    def test_inactive_constraint(self):
        assert bisect_power(lambda lam: 0.3 / (1.0 + lam), 1.0) == 0.0

    def test_scalar_toy(self):
        lam = bisect_power(lambda lam: 1.0 / (1.0 + lam) ** 2, 0.25, tol=1e-12)
        assert lam == pytest.approx(1.0, rel=1e-6)

    def test_call_count_on_random_quadratics(self):
        calls = []
        for power, rho_l in _random_quadratics():
            counted = []
            bisect_power(lambda lam: counted.append(lam) or power(lam), rho_l, tol=1e-10)
            calls.append(len(counted))
        assert np.mean(calls) <= 15

    def test_singular_zero_eigenvalue(self):
        # a zero eigenvalue with nonzero weight: power(0) = inf
        s, e = np.array([0.5, 2.0]), np.array([0.0, 1.5])

        def power(lam):
            return np.inf if lam == 0.0 else float(np.sum(s / (e + lam) ** 2))

        lam = bisect_power(power, 0.3, tol=1e-10)
        assert lam > 0.0
        assert abs(power(lam) - 0.3) <= 1e-10 * 0.3

    def test_target_hit_at_doubling_point(self):
        calls = []

        def power(lam):
            calls.append(lam)
            return 1.0 / (1.0 + lam) ** 2

        # the bracket probes 0, 1, 2, 4; power(4) = 1/25 exactly
        assert bisect_power(power, 1.0 / 25.0, tol=1e-10) == 4.0
        assert calls == [0.0, 1.0, 2.0, 4.0]

    def test_postcondition_on_random_quadratics(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            evals = rng.uniform(0.0, 4.0, 6)
            z2 = rng.uniform(0.0, 2.0, 6)
            rho_l = float(rng.uniform(0.05, 1.0))

            def power(lam):
                return float(np.sum(z2 / (evals + lam) ** 2))

            lam = bisect_power(power, rho_l, tol=1e-8)
            if lam > 0.0:
                assert abs(power(lam) - rho_l) <= 1e-8 * rho_l
            else:
                assert power(0.0) <= rho_l * (1.0 + 1e-8)

    def test_nonmonotone_raises(self):
        with pytest.raises(BisectionError):
            bisect_power(lambda lam: 2.0 + lam, 1.0)

    def test_bracket_failure_raises(self):
        with pytest.raises(BisectionError, match="bracket"):
            bisect_power(lambda lam: 2.0, 1.0, max_doublings=8)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            bisect_power(lambda lam: 1.0, 0.0)


class TestNewtonMultiplier:
    def test_zero_multiplier_when_feasible(self):
        e, s = np.array([0.1, 10.0]), np.array([1e-4, 50.0])
        assert _secular(e, s, 0.0) < 1.0
        assert newton_multiplier(e, s, 1.0) == (0.0, 1)
        # here the bound sum(s) / e_0^2 <= rho_l already decides it
        assert newton_multiplier(np.array([1.0, 2.0]), np.array([0.1, 0.1]), 1.0) == (0.0, 0)

    @pytest.mark.parametrize("lam0", [None, 0.0])
    def test_singular_zero_eigenvalue(self, lam0):
        # a zero eigenvalue with nonzero weight: P(0) = inf
        e, s = np.array([0.0, 1.5]), np.array([0.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, _ = newton_multiplier(e, s, 0.3, 1e-10, lam0)
        assert lam > 0.0
        assert abs(_secular(e, s, lam) - 0.3) <= 1e-10 * 0.3

    @pytest.mark.parametrize("lam0", [None, 0.0])
    def test_hard_case(self, lam0):
        # zero eigenvalues whose weight is zero must not give 0/0
        e, s = np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert newton_multiplier(e, s, 1.0, 1e-10, lam0)[0] == 0.0  # P(0) = 1/4
            lam, _ = newton_multiplier(e, s, 1.0 / 16.0, 1e-10, lam0)
        assert lam == pytest.approx(2.0, rel=1e-9)  # 1 / (2 + lam)^2 = 1/16
        assert newton_multiplier(e, np.zeros(3), 1.0) == (0.0, 0)

    @pytest.mark.parametrize("side", [0.5, 1.5])
    def test_warm_start_either_side_of_root(self, side):
        for e, s, rho_l in _secular_problems():
            root, _ = newton_multiplier(e, s, rho_l, 1e-14)
            assert root > 0.0
            lam, n = newton_multiplier(e, s, rho_l, 1e-10, side * root)
            assert abs(_secular(e, s, lam) - rho_l) <= 1e-10 * rho_l
            assert n <= 8
            lam, n = newton_multiplier(e, s, rho_l, 1e-10, root * (1.0 + 1e-3 * (side - 1.0)))
            assert abs(_secular(e, s, lam) - rho_l) <= 1e-10 * rho_l
            assert n <= 3

    def test_cold_start_on_random_problems(self):
        calls = []
        for e, s, rho_l in _secular_problems():
            lam, n = newton_multiplier(e, s, rho_l, 1e-10)
            assert abs(_secular(e, s, lam) - rho_l) <= 1e-10 * rho_l
            calls.append(n)
        assert np.mean(calls) <= 5

    def test_bracket_collapse_returns_feasible_end(self):
        # tol = 0 asks for an exact root; the search stops when the bracket
        # can no longer shrink and returns its feasible end
        for e, s, rho_l in _secular_problems():
            lam, n = newton_multiplier(e, s, rho_l, 0.0)
            assert _secular(e, s, lam) <= rho_l * (1.0 + 1e-15)  # rounding of the sum
            assert _secular(e, s, lam * (1.0 - 1e-14)) > rho_l
            assert n < 100

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            newton_multiplier(np.array([1.0]), np.array([1.0]), 0.0)


class TestGd:
    def test_zero_gradient_returns_init(self):
        layout = _single_pair_layout()
        init = PrecoderState(layout, np.ones((1, 8)))
        obj = QuadraticObjective(layout, np.ones(8), np.ones(8))
        result = gd_solve(init, obj, rho=None, max_iters=50)
        assert result.converged
        assert result.iterations == 0
        assert np.array_equal(result.precoder.blocks, init.blocks)

    def test_quadratic_linear_rate_bound(self):
        # replays each step with the solver's float expressions: every accepted
        # step passes the Armijo test at the shipped constants, and a step below
        # its warm start comes after a trial one notch larger that failed it
        alpha0, backtrack, c1 = baselines._ALPHA0, baselines._BACKTRACK, baselines._C1
        rng = np.random.default_rng(4)
        layout = _single_pair_layout(5)
        d = rng.uniform(0.5, 5.0, 10)
        x_star = rng.standard_normal(10)
        obj = QuadraticObjective(layout, d, x_star)
        init = PrecoderState(layout, rng.standard_normal((1, 10)))
        result = gd_solve(init, obj, rho=None, max_iters=60, rel_tol=1e-300)
        assert result.iterations == 60

        def trial(x, ev, gnorm2, alpha):
            cand = PrecoderState(layout, x.blocks - alpha * ev.grad.blocks, copy=False)
            return cand, obj.value(cand) <= ev.g_value - c1 * alpha * gnorm2

        x, start, backtracked = init, alpha0, 0
        for rec in result.trace:
            alpha = rec.h_used
            ev = obj.evaluate(x)
            gnorm2 = float(np.add.reduce(ev.grad.blocks**2, axis=None))
            assert 0.0 < alpha <= start
            if alpha < start:
                backtracked += 1
                assert not trial(x, ev, gnorm2, alpha / backtrack)[1]
            x, passed = trial(x, ev, gnorm2, alpha)
            assert passed and obj.value(x) == -rec.wsr_bits
            start = min(alpha0, alpha / backtrack)
        assert backtracked > 0
        assert np.array_equal(x.blocks, result.precoder.blocks)

        # so the gap shrinks per step by at least 2 c1 m alpha_min of itself,
        # with alpha_min = min(alpha0, 2 backtrack (1 - c1) / L)
        gaps = [obj.value(init)] + [-rec.wsr_bits for rec in result.trace]
        m, L = d.min(), d.max()
        rate = 1.0 - 2.0 * c1 * m * min(alpha0, 2.0 * backtrack * (1.0 - c1) / L)
        for k in range(1, len(gaps)):
            assert gaps[k] <= rate**k * gaps[0] * (1.0 + 1e-9)

    @pytest.mark.parametrize("slack, alpha", [(3.0, 1.0), (1.5, 0.5)])
    def test_unit_step_at_the_sufficient_decrease_boundary(self, slack, alpha):
        # on g = d/2 ||x||^2 the unit step passes the Armijo test iff d <= 2 - 2 c1
        layout = _single_pair_layout()
        obj = QuadraticObjective(layout, np.full(8, 2.0 - slack * baselines._C1), np.zeros(8))
        init = PrecoderState(layout, np.ones((1, 8)))
        result = gd_solve(init, obj, rho=None, max_iters=1)
        assert result.trace[0].h_used == alpha

    def test_accepted_steps_strictly_decrease_objective(self, small_instance):
        init = rzf_init(small_instance["ch"], small_instance["clusters"], small_instance["rho"])
        obj = WsrObjective(small_instance["ch"], small_instance["clusters"], small_instance["w"])
        result = gd_solve(init, obj, small_instance["rho"], max_iters=30, rel_tol=1e-300)
        ws = [obj.wsr_bits(renormalize_power(init, small_instance["rho"]))]
        ws += [rec.wsr_bits for rec in result.trace]
        for prev, cur, rec in zip(ws[:-1], ws[1:], result.trace):
            if rec.h_used and rec.h_used > 0:
                assert cur > prev
        powers = bs_block_norms(result.precoder)
        mask = result.precoder.layout.nonempty_bs
        assert np.allclose(powers[mask], small_instance["rho"].rho[mask], rtol=1e-12)

    def test_stall_detection(self):
        layout = _single_pair_layout()
        init = PrecoderState(layout, np.ones((1, 8)))
        obj = InconsistentObjective(layout)
        result = gd_solve(init, obj, rho=None, max_iters=50)
        assert not result.converged
        assert result.iterations == 10
        assert all(rec.h_used == 0.0 for rec in result.trace)


class TestNagd:
    def test_first_iteration_has_no_momentum(self, small_instance):
        init = rzf_init(small_instance["ch"], small_instance["clusters"], small_instance["rho"])
        args = (small_instance["ch"], small_instance["clusters"], small_instance["w"])
        gd = gd_solve(init, WsrObjective(*args), small_instance["rho"], max_iters=1, rel_tol=1e-300)
        na = nagd_solve(
            init, WsrObjective(*args), small_instance["rho"], max_iters=1, rel_tol=1e-300
        )
        assert gd.trace[0].wsr_bits == na.trace[0].wsr_bits

    def test_momentum_beats_plain_descent(self):
        finals_na, finals_gd = [], []
        for seed in range(6):
            inst = make_instance(seed=seed, tx_power_dbm=24.0)
            init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
            args = (inst["ch"], inst["clusters"], inst["w"])
            na = nagd_solve(
                init, WsrObjective(*args), inst["rho"], max_iters=80, rel_tol=1e-300
            )
            gd = gd_solve(
                init, WsrObjective(*args), inst["rho"], max_iters=80, rel_tol=1e-300
            )
            finals_na.append(na.trace[-1].wsr_bits)
            finals_gd.append(gd.trace[-1].wsr_bits)
        assert np.median(finals_na) > np.median(finals_gd)

    def test_trace_is_monotone(self, small_instance):
        init = rzf_init(small_instance["ch"], small_instance["clusters"], small_instance["rho"])
        obj = WsrObjective(small_instance["ch"], small_instance["clusters"], small_instance["w"])
        result = nagd_solve(init, obj, small_instance["rho"], max_iters=40, rel_tol=1e-300)
        ws = np.array([rec.wsr_bits for rec in result.trace])
        assert np.all(np.diff(ws) >= -1e-9 * np.maximum(1.0, np.abs(ws[:-1])))


def nan_gradient_after(monkeypatch, n_good):
    """Make every gradient after the first n_good ones NaN."""
    from ucnprec import objective

    real = objective._gradient_blocks
    calls = [0]

    def patched(*args):
        out = real(*args)
        calls[0] += 1
        if calls[0] > n_good:
            out[:] = np.nan
        return out

    monkeypatch.setattr(objective, "_gradient_blocks", patched)


class TestNonFiniteGradient:
    """The gradient's state is not re-scanned; the solvers' own checks still stop a NaN."""

    @pytest.mark.parametrize("budget", [True, False])
    def test_armijo_rejects_infinite_candidate(self, budget):
        # an inf entry has finite power-renormalization scales, so only the candidate's own
        # finiteness check stops it
        inst = make_instance(seed=2)
        p = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        obj = WsrObjective(inst["ch"], inst["clusters"], inst["w"])
        grad = np.zeros(p.blocks.shape)
        grad[-1, -1] = -np.inf
        with pytest.raises(ValueError, match="^precoder blocks must be finite$"):
            baselines._armijo(
                obj, p.layout, p.blocks, obj.value(p), grad, 1.0, 1.0,
                inst["rho"] if budget else None,
            )

    @pytest.mark.parametrize("budget", [True, False])
    @pytest.mark.parametrize("n_good", [0, 3])
    @pytest.mark.parametrize("solver", ["gd", "nagd"])
    def test_descent_raises(self, solver, n_good, budget, monkeypatch):
        # without a budget the Armijo candidate's constructor is the only check left
        inst = make_instance(seed=2)
        init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        obj = WsrObjective(inst["ch"], inst["clusters"], inst["w"])
        nan_gradient_after(monkeypatch, n_good)
        descend = gd_solve if solver == "gd" else nagd_solve
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="precoder blocks must be finite"):
            descend(init, obj, inst["rho"] if budget else None)

    def test_symplectic_raises_divergence(self, monkeypatch):
        inst = make_instance(seed=2)
        init = rzf_init(inst["ch"], inst["clusters"], inst["rho"])
        nan_gradient_after(monkeypatch, 3)
        config = SolverConfig(gamma=20.0, h0=0.002, h_max=0.005)
        with np.errstate(invalid="ignore"), pytest.raises(SolverDivergence, match="iteration 2"):
            solve(inst["ch"], inst["clusters"], inst["rho"], inst["w"], init, config)

    def test_run_experiment_records_error_row(self, tmp_path, monkeypatch):
        nan_gradient_after(monkeypatch, 3)
        cfg = ScenarioConfig(seeds=(0,), max_iters=20)
        with np.errstate(invalid="ignore"):
            summary = run_experiment(cfg, ["gd", "rzf"], tmp_path)
        gd_row = next(r for r in summary.rows if r.solver == "gd")
        assert gd_row.error == "ValueError: precoder blocks must be finite"
        assert not gd_row.converged and np.isnan(gd_row.wsr_bits)
        assert next(r for r in summary.rows if r.solver == "rzf").error == ""
