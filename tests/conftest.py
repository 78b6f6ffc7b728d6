import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ucnprec as u
from ucnprec.harness import ScenarioConfig, build_instance, load_config

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


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
    cfg.validate()
    topo, ch, clusters = build_instance(cfg, seed)
    layout = u.BlockLayout(clusters, cfg.M_t)
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
    return u.renormalize_power(u.PrecoderState(layout, blocks), rho)


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
    ch = u.ChannelSet(entries=entries, noise_power=0.1)
    clusters = u.ClusterMap.from_serving(serving, n_bs)
    layout = u.BlockLayout(clusters, m_t)
    state = u.PrecoderState(layout, rng.standard_normal((layout.n_blocks, layout.block_len)))
    return ch, clusters, state


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
    ch = u.ChannelSet(entries=entries, noise_power=0.1)
    clusters = u.ClusterMap.from_serving(serving, n_bs)
    layout = u.BlockLayout(clusters, m_t)
    state = u.PrecoderState(layout, rng.standard_normal((layout.n_blocks, layout.block_len)))
    return ch, clusters, state


def table1_wmmse_digest(sweeps=3):
    """sha256 of warm-started WMMSE sweeps on table1_shaped_instance.

    Hashes each sweep's WSR and multipliers, then the final precoder blocks.
    """
    from ucnprec.baselines import wmmse_step

    ch, _, state = table1_shaped_instance()
    rho = u.PowerBudget.uniform(ch.n_bs, 1.0)
    w = u.Weights(np.random.default_rng(2).uniform(0.5, 1.5, ch.n_ut))
    digest = hashlib.sha256()
    lam = None
    for _ in range(sweeps):
        state, ws, wsr_bits = wmmse_step(state, ch, rho, w, lam0=lam)
        lam = ws.lam
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
    w = u.Weights(np.random.default_rng(2).uniform(0.5, 1.5, ch.n_ut))
    rng = np.random.default_rng(3)
    other = u.PrecoderState(state.layout, rng.standard_normal(state.blocks.shape))
    objective = u.WsrObjective(ch, clusters, w)
    digest = hashlib.sha256()
    digest.update(u.objective.amplitude_matrix(state, ch).tobytes())
    ev = objective.evaluate(state)
    digest.update(np.float64(ev.g_value).tobytes())
    digest.update(np.float64(ev.wsr_bits).tobytes())
    digest.update(ev.grad.blocks.tobytes())
    digest.update(np.float64(objective.value(other)).tobytes())
    return digest.hexdigest()


@pytest.fixture
def open_helper_gate(monkeypatch):
    """Let per-BS work at M_t >= 48 use the helper thread even on one CPU or multithreaded BLAS."""
    from ucnprec import helper

    monkeypatch.setattr(helper, "_cpus", lambda: 2)
    monkeypatch.setattr(helper, "_blas_threads", lambda: 1)


@pytest.fixture
def small_instance():
    """3 BSs, 4 antennas, 5 UTs, clusters of 2; the gradient-check geometry."""
    return make_instance(seed=0, gnb_count=3, sectors_per_gnb=1, M_t=4, K=5, B_sc=2)


@pytest.fixture
def tiny_instance():
    """2 BSs, 2 antennas, 2 UTs, clusters of 2; dense-oracle scale."""
    return make_instance(seed=1, gnb_count=2, sectors_per_gnb=1, M_t=2, K=2, B_sc=2)
