import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ucnprec as u
from ucnprec import baselines, harness

REPO = Path(__file__).resolve().parent.parent
FROZEN_SUMMARY = REPO / "tests" / "data" / "solver_summary_frozen.json"
FROZEN_SOLVERS = ("symplectic", "wmmse", "gd", "nagd")
FROZEN_SEEDS = (0, 1, 2, 3, 4)


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = u.load_config(write_cfg(tmp_path, ""))
        assert cfg == harness.ScenarioConfig()

    def test_comments_and_values(self, tmp_path):
        cfg = u.load_config(
            write_cfg(tmp_path, "# a comment\nK = 12  # inline\nseeds = 3, 4\ninit = random\n")
        )
        assert cfg.K == 12
        assert cfg.seeds == (3, 4)
        assert cfg.init == "random"

    def test_unknown_key_rejected_with_line(self, tmp_path):
        with pytest.raises(ValueError, match=":2:"):
            u.load_config(write_cfg(tmp_path, "K = 5\nnot_a_key = 1\n"))

    def test_bad_value_rejected_with_line(self, tmp_path):
        with pytest.raises(ValueError, match=":1:"):
            u.load_config(write_cfg(tmp_path, "K = twelve\n"))

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="key = value"):
            u.load_config(write_cfg(tmp_path, "justakey\n"))

    def test_duplicate_seeds_rejected(self, tmp_path):
        # a repeated seed would write two summary rows and overwrite its trace files
        with pytest.raises(ValueError, match="seeds must be distinct"):
            u.load_config(write_cfg(tmp_path, "seeds = 0, 1, 0\n"))
        with pytest.raises(ValueError, match="seeds must be distinct"):
            u.run_experiment(_fast_cfg(seeds=(3, 3)), ["rzf"], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_out_of_range_cluster_size_named(self, tmp_path):
        with pytest.raises(ValueError, match="B_sc"):
            u.load_config(write_cfg(tmp_path, "B_sc = 25\n"))

    def test_full_scale_preset_parses(self):
        cfg = u.load_config(REPO / "configs" / "table1.cfg")
        assert cfg.n_bs == 21
        assert cfg.M_t == 128
        assert cfg.K == 300
        assert cfg.noise_dbm == -104.0

    def test_high_power_preset_helper(self):
        cfg = harness.high_power_preset(max_iters=10)
        cfg.validate()
        assert cfg.tx_power_dbm == 24.0
        assert cfg.max_iters == 10


def _fast_cfg(**overrides):
    params = dict(
        gnb_count=2, sectors_per_gnb=1, M_t=4, K=4, B_sc=2,
        seeds=(0, 1), max_iters=8, wmmse_iters=4,
    )
    params.update(overrides)
    return dataclasses.replace(harness.ScenarioConfig(), **params)


class TestRunExperiment:
    def test_rzf_only(self, tmp_path):
        summary = u.run_experiment(_fast_cfg(), ["rzf"], tmp_path)
        assert len(summary.rows) == 2
        for row in summary.rows:
            assert row.solver == "rzf"
            assert row.iterations == 0
            assert row.converged
            assert np.isfinite(row.wsr_bits)
        trace = (tmp_path / "trace_rzf_seed0.csv").read_text().strip().split("\n")
        assert len(trace) == 1  # header only, no iterations

    def test_every_requested_pair_present_once(self, tmp_path):
        solvers = ["rzf", "symplectic", "wmmse", "gd", "nagd"]
        summary = u.run_experiment(_fast_cfg(), solvers, tmp_path)
        keys = [(r.solver, r.seed) for r in summary.rows]
        assert sorted(keys) == sorted((s, seed) for s in solvers for seed in (0, 1))
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "timings.csv").exists()

    def test_deterministic_bytes(self, tmp_path):
        cfg = _fast_cfg()
        a, b = tmp_path / "a", tmp_path / "b"
        u.run_experiment(cfg, ["rzf", "symplectic", "wmmse"], a)
        u.run_experiment(cfg, ["rzf", "symplectic", "wmmse"], b)
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        assert (
            a / "trace_symplectic_seed1.csv"
        ).read_bytes() == (b / "trace_symplectic_seed1.csv").read_bytes()

    def test_unknown_solver_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown solver"):
            u.run_experiment(_fast_cfg(), ["zf"], tmp_path)

    def test_solver_failure_recorded_run_continues(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise baselines.BisectionError("synthetic failure")

        monkeypatch.setattr(baselines, "wmmse_iterate", boom)
        summary = u.run_experiment(_fast_cfg(), ["wmmse", "rzf"], tmp_path)
        wmmse_rows = [r for r in summary.rows if r.solver == "wmmse"]
        rzf_rows = [r for r in summary.rows if r.solver == "rzf"]
        assert all("synthetic failure" in r.error for r in wmmse_rows)
        assert all(not r.converged for r in wmmse_rows)
        assert all(r.error == "" for r in rzf_rows)

    def test_summary_columns(self, tmp_path):
        u.run_experiment(_fast_cfg(seeds=(0,)), ["rzf"], tmp_path)
        header = (tmp_path / "summary.csv").read_text().split("\n")[0]
        assert header == "solver,seed,wsr_bits,iterations,grad_evals,multiply_adds,converged,error"

    def test_random_init_runs_and_is_deterministic(self, tmp_path):
        cfg = _fast_cfg(init="random", seeds=(0,))
        a, b = tmp_path / "a", tmp_path / "b"
        u.run_experiment(cfg, ["symplectic"], a)
        u.run_experiment(cfg, ["symplectic"], b)
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        row = u.run_experiment(cfg, ["symplectic"], tmp_path / "c").rows[0]
        assert np.isfinite(row.wsr_bits)

    def test_random_init_meets_power_budget(self):
        cfg = _fast_cfg()
        _, ch, clusters = harness.build_instance(cfg, 0)
        rho = cfg.power_budget()
        state = harness.random_precoder(u.BlockLayout(clusters, cfg.M_t), rho, 0)
        powers = u.bs_block_norms(state)
        mask = state.layout.nonempty_bs
        assert np.allclose(powers[mask], rho.rho[mask], rtol=1e-12)


def frozen_summary_rows(config_name, out_dir):
    """Summary fields and trace CSV digests of the iterative solvers on seeds 0-4 of a preset."""
    cfg = dataclasses.replace(u.load_config(REPO / "configs" / config_name), seeds=FROZEN_SEEDS)
    summary = u.run_experiment(cfg, FROZEN_SOLVERS, out_dir)
    return [
        {
            "solver": r.solver,
            "seed": r.seed,
            "wsr_bits": repr(r.wsr_bits),
            "iterations": r.iterations,
            "grad_evals": r.grad_evals,
            "multiply_adds": r.multiply_adds,
            "trace_sha256": hashlib.sha256(
                Path(out_dir, f"trace_{r.solver}_seed{r.seed}.csv").read_bytes()
            ).hexdigest(),
        }
        for r in summary.rows
    ]


class TestFrozenSolverSummary:
    @pytest.mark.parametrize("config_name", ["desk.cfg", "high_power.cfg"])
    def test_matches_frozen_summary(self, config_name, tmp_path):
        # guards bit identity: the high_power runs amplify a last-bit change
        # in the gradient into a visibly different WSR within 50 steps
        frozen = json.loads(FROZEN_SUMMARY.read_text())["configs"][config_name]
        assert frozen_summary_rows(config_name, tmp_path) == frozen


class TestComplexityProbe:
    def test_small_grid_ratios_and_linearity(self):
        report = u.complexity_probe(
            harness.ScenarioConfig(), m_t_grid=(4, 8), k_grid=(5, 10), b_sc_grid=(1, 2)
        )
        assert 1.0 / 2.2 <= report.min_ratio <= report.max_ratio <= 2.2
        assert report.max_mt_deviation <= 0.10
        assert len(report.rows) == 8

    def test_counts_independent_of_instance_values(self):
        cfg = harness.ScenarioConfig()
        a = u.complexity_probe(cfg, m_t_grid=(4,), k_grid=(5,), b_sc_grid=(2,), seed=0)
        b = u.complexity_probe(cfg, m_t_grid=(4,), k_grid=(5,), b_sc_grid=(2,), seed=1)
        assert a.rows[0].measured == b.rows[0].measured

    def test_doubling_cluster_size_grows_at_most_2p2x(self):
        report = u.complexity_probe(
            harness.ScenarioConfig(), m_t_grid=(8,), k_grid=(10,), b_sc_grid=(1, 2)
        )
        by_bsc = {row.B_sc: row.measured for row in report.rows}
        assert by_bsc[2] <= 2.2 * by_bsc[1]

    def test_single_ut_has_no_interference_count(self):
        cm = u.ClusterMap.from_serving([[0, 1]], 2)
        m_t = 8
        predicted = harness.predicted_gradient_macs(cm, m_t)
        assert predicted == 1 * m_t * 4  # K * M_t * |B_1|^2 only; the (K-1) sum vanishes


class TestGradcheckHelper:
    def test_small_run(self):
        assert u.gradcheck(trials=3) < 1e-6

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            u.gradcheck(trials=0)


class TestCli:
    def test_run_command(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path,
            "gnb_count = 2\nM_t = 4\nK = 4\nB_sc = 2\nseeds = 0\nmax_iters = 5\nwmmse_iters = 3\n",
        )
        out = tmp_path / "out"
        assert harness.main(["run", "--config", str(cfg_path), "--solvers", "rzf", "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()

    def test_module_entry_point(self):
        src = str(Path(u.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "ucnprec", "--help"], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert "probe-complexity" in proc.stdout

    def test_missing_config_is_error(self, tmp_path, capsys):
        code = harness.main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_gradcheck_command(self, capsys):
        assert harness.main(["gradcheck", "--trials", "2"]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_probe_command(self, tmp_path, capsys, monkeypatch):
        # shrink the grid through a config with small defaults is not possible,
        # so patch the probe to keep the CLI check cheap
        monkeypatch.setattr(
            harness,
            "complexity_probe",
            lambda config: u.complexity_probe(
                config, m_t_grid=(4, 8), k_grid=(5,), b_sc_grid=(1,)
            ),
        )
        assert harness.main(["probe-complexity"]) == 0
        out = capsys.readouterr().out
        assert "ratio range" in out


if __name__ == "__main__":
    # Re-record the frozen summary: PYTHONPATH=src python tests/test_harness.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        configs = {
            name: frozen_summary_rows(name, os.path.join(tmp, name))
            for name in ("desk.cfg", "high_power.cfg")
        }
    FROZEN_SUMMARY.write_text(
        json.dumps(
            {
                "description": "Final WSR (repr of the float), iterations, gradient evaluations, "
                "multiply-adds and the sha256 of the trace CSV of run_experiment for the "
                "symplectic, wmmse, gd and nagd solvers on seeds 0-4 of each preset.",
                "configs": configs,
            },
            indent=1,
        )
        + "\n"
    )
