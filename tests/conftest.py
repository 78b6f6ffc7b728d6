import dataclasses
from pathlib import Path

import numpy as np
import pytest

import ucnprec as u
from ucnprec.harness import ScenarioConfig, build_instance, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


@pytest.fixture
def small_instance():
    """3 BSs, 4 antennas, 5 UTs, clusters of 2; the gradient-check geometry."""
    return make_instance(seed=0, gnb_count=3, sectors_per_gnb=1, M_t=4, K=5, B_sc=2)


@pytest.fixture
def tiny_instance():
    """2 BSs, 2 antennas, 2 UTs, clusters of 2; dense-oracle scale."""
    return make_instance(seed=1, gnb_count=2, sectors_per_gnb=1, M_t=2, K=2, B_sc=2)
