import dataclasses
import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from ucnprec import helper
from ucnprec.channel import ChannelSet, ClusterMap
from ucnprec.embedding import BlockLayout, PowerBudget, PrecoderState, renormalize_power
from ucnprec.harness import ScenarioConfig, build_instance, load_config
from ucnprec.objective import Weights, WsrObjective, amplitude_matrix
from ucnprec.symplectic import SolverConfig, rattle_step, step_controller

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

# Property tests draw their examples from a fixed seed, so a run repeats, and
# stay few and untimed, so a busy two-core machine neither slows nor fails them.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=40, database=None)
settings.load_profile("tier1")


def run_python(script, **env):
    """Run a script in a fresh interpreter from the repository root; returns its stdout.

    src/ and tests/ are on its path, and env adds to the environment, e.g.
    OPENBLAS_NUM_THREADS="1".
    """
    paths = os.pathsep.join([str(REPO / "src"), str(REPO / "tests")])
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, env=dict(os.environ, PYTHONPATH=paths, **env),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def load_preset(name):
    """Parse one of the shipped config files, e.g. load_preset("high_power.cfg")."""
    return load_config(CONFIGS / name)


def make_instance(seed=0, **overrides):
    """Generate one scenario instance plus the objects every solver needs."""
    cfg = dataclasses.replace(ScenarioConfig(), **overrides)
    topo, ch, clusters = build_instance(cfg, seed)
    layout = BlockLayout(clusters, cfg.M_t)
    return {
        "cfg": cfg,
        "topo": topo,
        "ch": ch,
        "clusters": clusters,
        "layout": layout,
        "rho": cfg.power_budget(),
        "w": cfg.weights(),
    }


def random_state(layout, rho, seed):
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((layout.n_blocks, layout.block_len))
    return renormalize_power(PrecoderState(layout, blocks), rho)


def random_served_instance(seed):
    """Random channels and serving sets: UTs served by 0, 1, 2 and 3 BSs, an empty BS, K < M_t."""
    rng = np.random.default_rng(seed)
    n_bs = 5
    n_ut = int(rng.integers(4, 8))
    m_t = n_ut + int(rng.integers(1, 4))
    sizes = [0, 1, 2, 3] + list(rng.integers(0, 4, size=n_ut - 4))
    rng.shuffle(sizes)
    empty_bs = int(rng.integers(n_bs))
    others = [l for l in range(n_bs) if l != empty_bs]
    serving = [sorted(rng.choice(others, size=n, replace=False).tolist()) for n in sizes]
    entries = rng.standard_normal((n_bs, n_ut, m_t)) + 1j * rng.standard_normal((n_bs, n_ut, m_t))
    ch = ChannelSet(entries=entries, noise_power=0.1)
    clusters = ClusterMap.from_serving(serving, n_bs)
    layout = BlockLayout(clusters, m_t)
    state = PrecoderState(layout, rng.standard_normal((layout.n_blocks, layout.block_len)))
    return ch, clusters, state


@st.composite
def small_layouts(draw):
    """(ch, clusters, state, weights) on a random small layout.

    1-6 BSs, K and M_t of 1-40 and UTs served by 0-3 BSs each; some draws
    leave the last BS empty, and some put a zero row and a column of -0.0
    into the precoder blocks.
    """
    n_bs, n_ut, m_t = draw(st.integers(1, 6)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    serving_bs = n_bs - 1 if n_bs > 1 and draw(st.booleans()) else n_bs
    serving = [
        sorted(rng.choice(serving_bs, size=rng.integers(min(serving_bs, 3) + 1), replace=False))
        for _ in range(n_ut)
    ]
    entries = rng.standard_normal((n_bs, n_ut, m_t)) + 1j * rng.standard_normal((n_bs, n_ut, m_t))
    clusters = ClusterMap.from_serving(serving, n_bs)
    layout = BlockLayout(clusters, m_t)
    blocks = rng.standard_normal((layout.n_blocks, layout.block_len))
    if layout.n_blocks and draw(st.booleans()):
        blocks[rng.integers(layout.n_blocks)] = 0.0
        blocks[:, rng.integers(layout.block_len)] = -0.0
    ch = ChannelSet(entries=entries, noise_power=float(rng.uniform(0.01, 1.0)))
    return ch, clusters, PrecoderState(layout, blocks), Weights(rng.uniform(0.5, 1.5, n_ut))


# Per-BS widths of table1_shaped_instance: 0, then widths on both sides of multiples of 4
# (zgemm's last bits depend on where the width falls), up to about table1.cfg's 43 UTs per BS.
TABLE1_WIDTHS = (0, 1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 41, 43, 44, 45, 47, 48, 49)


def table1_shaped_instance():
    """table1.cfg's shape (21 BSs, K = 300, M_t = 128) with random channels and serving sets.

    BS l serves TABLE1_WIDTHS[l] UTs drawn at random, so BS 0 is empty, some UTs
    are unserved and others are served by several BSs.
    """
    rng = np.random.default_rng(1)
    n_bs, n_ut, m_t = len(TABLE1_WIDTHS), 300, 128
    served = [rng.choice(n_ut, size=n, replace=False).tolist() for n in TABLE1_WIDTHS]
    serving = [[l for l in range(n_bs) if k in served[l]] for k in range(n_ut)]
    entries = rng.standard_normal((n_bs, n_ut, m_t)) + 1j * rng.standard_normal((n_bs, n_ut, m_t))
    ch = ChannelSet(entries=entries, noise_power=0.1)
    clusters = ClusterMap.from_serving(serving, n_bs)
    layout = BlockLayout(clusters, m_t)
    state = PrecoderState(layout, rng.standard_normal((layout.n_blocks, layout.block_len)))
    return ch, clusters, state


def table1_args():
    """(state, ch, rho, weights) for wmmse_step on table1_shaped_instance.

    Every BS has unit power and every UT unit weight.
    """
    ch, _, state = table1_shaped_instance()
    return state, ch, PowerBudget.uniform(ch.n_bs, 1.0), Weights.uniform(ch.n_ut)


def table1_wmmse_digest(sweeps=3, carried=False):
    """sha256 of warm-started WMMSE sweeps on table1_shaped_instance.

    Hashes each sweep's WSR and multipliers, then the final precoder blocks.
    By default each wmmse_step call is given the previous multipliers only, so
    it builds its pair products afresh; carried=True runs wmmse_iterate, which
    also hands each sweep the previous sweep's pair products, and reads every
    sweep's outputs through a wrapped wmmse_step.
    """
    from ucnprec import baselines

    ch, _, state = table1_shaped_instance()
    rho = PowerBudget.uniform(ch.n_bs, 1.0)
    w = Weights(np.random.default_rng(2).uniform(0.5, 1.5, ch.n_ut))
    step = baselines.wmmse_step
    sweeps_out = []  # (wsr_bits, multipliers) per sweep

    def recorded(*args, **kwargs):
        new_state, ws, wsr_bits = step(*args, **kwargs)
        sweeps_out.append((wsr_bits, ws.lam))
        return new_state, ws, wsr_bits

    if carried:
        baselines.wmmse_step = recorded
        try:
            state, wsr_trace = baselines.wmmse_iterate(state, ch, rho, w, sweeps)
        finally:
            baselines.wmmse_step = step
        assert wsr_trace.tolist() == [wsr_bits for wsr_bits, _ in sweeps_out]
    else:
        lam = None
        for _ in range(sweeps):
            state, ws, _ = recorded(state, ch, rho, w, lam0=lam)
            lam = ws.lam
    digest = hashlib.sha256()
    for wsr_bits, lam in sweeps_out:
        digest.update(np.float64(wsr_bits).tobytes())
        digest.update(lam.tobytes())
    digest.update(state.blocks.tobytes())
    return digest.hexdigest()


def table1_objective_digest():
    """sha256 of the objective's outputs on table1_shaped_instance.

    Hashes amplitude_matrix, then evaluate()'s g_value, wsr_bits and gradient
    blocks, then value() at a second random state.
    """
    ch, clusters, state = table1_shaped_instance()
    w = Weights(np.random.default_rng(2).uniform(0.5, 1.5, ch.n_ut))
    rng = np.random.default_rng(3)
    other = PrecoderState(state.layout, rng.standard_normal(state.blocks.shape))
    objective = WsrObjective(ch, clusters, w)
    digest = hashlib.sha256()
    digest.update(amplitude_matrix(state, ch).tobytes())
    ev = objective.evaluate(state)
    digest.update(np.float64(ev.g_value).tobytes())
    digest.update(np.float64(ev.wsr_bits).tobytes())
    digest.update(ev.grad.blocks.tobytes())
    digest.update(np.float64(objective.value(other)).tobytes())
    return digest.hexdigest()


def table1_symplectic_digest(steps=4):
    """sha256 of rattle_step iterations on table1_shaped_instance.

    Starts from the renormalized random state with zero momentum and feeds each
    step's evaluation and controlled step size to the next, as solve() does, but
    calls rattle_step without carried dots. Hashes every record field of each
    step, then the final p and q blocks.
    """
    ch, clusters, state = table1_shaped_instance()
    rho = PowerBudget.uniform(ch.n_bs, 1.0)
    w = Weights(np.random.default_rng(2).uniform(0.5, 1.5, ch.n_ut))
    objective = WsrObjective(ch, clusters, w)
    config = SolverConfig()
    p = renormalize_power(state, rho)
    q = PrecoderState.zeros(p.layout)
    ev = objective.evaluate(p)
    h = config.h0
    digest = hashlib.sha256()
    for n in range(steps):
        p, q, rec, ev = rattle_step(p, q, config, rho, objective, h=h, grad_eval=ev, iteration=n)
        for value in (
            rec.lam, rec.mu, rec.delta, rec.h_used, rec.hamiltonian, rec.wsr_bits,
            rec.constraint_residual, rec.hidden_residual,
        ):
            digest.update(np.asarray(value, dtype=np.float64).tobytes())
        h = step_controller(rec.delta, h, config)
    digest.update(p.blocks.tobytes())
    digest.update(q.blocks.tobytes())
    return digest.hexdigest()


@pytest.fixture
def open_helper_gate(monkeypatch):
    """Let per-BS work at M_t >= 48 use the helper thread even on one CPU or multithreaded BLAS."""
    monkeypatch.setattr(helper, "_cpus", lambda: 2)
    monkeypatch.setattr(helper, "_blas_threads", lambda: 1)


class SplitGuard:
    """Stands in for helper.split_bs_loop and wraps the loop it is given.

    Each share (the part of one split that one thread runs) is recorded in
    `shares` as (split number, on the helper, start BS, stop BS). `ended`
    counts finished shares and `late` those that finish while `closed` is set.
    The share given by fail = (split number, on the helper) raises instead of
    running. With helper_delay > 0 the main thread's share waits until the
    helper's has started, and the helper's then sleeps for that long.
    """

    def __init__(self, fail=None, helper_delay=0.0):
        self._split_bs_loop = helper.split_bs_loop
        self.fail = fail
        self.helper_delay = helper_delay
        self.helper_started = threading.Event()
        self.shares = []
        self.splits = self.ended = self.late = 0
        self.closed = False

    def __call__(self, layout, loop):
        self.splits += 1
        split = self.splits

        def share(bs, rows):
            on_helper = threading.current_thread().name.startswith("ucnprec-helper")
            self.shares.append((split, on_helper, bs.start, bs.stop))
            if on_helper:
                self.helper_started.set()
                time.sleep(self.helper_delay)
            elif self.helper_delay:
                self.helper_started.wait(timeout=60)
            try:
                if (split, on_helper) == self.fail:
                    raise RuntimeError("injected share failure")
                loop(bs, rows)
            finally:
                self.ended += 1
                self.late += self.closed

        self._split_bs_loop(layout, share)

    def close(self):
        """Mark the call returned, then let anything still queued on the helper run."""
        self.closed = True
        helper._executor.submit(int).result(timeout=60)


def watch_split_loops(caller, patch=setattr):
    """The names of the threads that run the loops `caller` hands helper.split_bs_loop.

    Wraps helper.split_bs_loop through patch (setattr, or a monkeypatch's
    setattr to undo it); loops defined in other functions run unwatched.
    """
    threads = set()
    split_bs_loop = helper.split_bs_loop

    def watched(layout, loop):
        def share(bs, rows):
            threads.add(threading.current_thread().name)
            loop(bs, rows)

        split_bs_loop(layout, share if loop.__qualname__.startswith(f"{caller}.") else loop)

    patch(helper, "split_bs_loop", watched)
    return threads


@pytest.fixture
def split_guard(monkeypatch, open_helper_gate):
    """Install a SplitGuard; per-BS loops at table1 shape split even on one CPU."""

    def install(**kwargs):
        guard = SplitGuard(**kwargs)
        monkeypatch.setattr(helper, "split_bs_loop", guard)
        return guard

    return install


@pytest.fixture
def small_instance():
    """3 BSs, 4 antennas, 5 UTs, clusters of 2; the gradient-check geometry."""
    return make_instance(seed=0, gnb_count=3, sectors_per_gnb=1, M_t=4, K=5, B_sc=2)


@pytest.fixture
def tiny_instance():
    """2 BSs, 2 antennas, 2 UTs, clusters of 2; dense-oracle scale."""
    return make_instance(seed=1, gnb_count=2, sectors_per_gnb=1, M_t=2, K=2, B_sc=2)
