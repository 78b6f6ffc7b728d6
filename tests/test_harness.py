import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ucnprec import baselines, harness, symplectic
from ucnprec.channel import ClusterMap
from ucnprec.embedding import BlockLayout, bs_block_norms
from ucnprec.harness import complexity_probe, gradcheck, load_config, run_experiment
from ucnprec.symplectic import SolverConfig

REPO = Path(__file__).resolve().parent.parent
FROZEN_SUMMARY = REPO / "tests" / "data" / "solver_summary_frozen.json"
FROZEN_SOLVERS = ("symplectic", "wmmse", "gd", "nagd")
FROZEN_SEEDS = (0, 1, 2, 3, 4)


FLOAT_KEYS = ["deployment_radius_m", "tx_power_dbm", "rel_tol", "gamma", "h0", "r_ctrl", "h_max"]


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, ""))
        assert cfg == harness.ScenarioConfig()

    def test_comments_and_values(self, tmp_path):
        cfg = load_config(
            write_cfg(tmp_path, "# a comment\nK = 12  # inline\nseeds = 3, 4\n")
        )
        assert cfg.K == 12
        assert cfg.seeds == (3, 4)

    def test_unknown_key_rejected_with_line(self, tmp_path):
        with pytest.raises(ValueError, match=":2:"):
            load_config(write_cfg(tmp_path, "K = 5\nnot_a_key = 1\n"))

    # WMMSE runs max_iters sweeps, every solver starts from RZF, and the carrier, the
    # noise, the step controller's exponent and the position projection are fixed: no
    # preset or benchmark batch set another value. theta and project_positions stay
    # SolverConfig fields, not keys.
    @pytest.mark.parametrize(
        "key", ["wmmse_iters", "init", "carrier_freq_hz", "noise_dbm", "theta", "project_positions"]
    )
    def test_removed_key_rejected_with_line(self, tmp_path, key):
        with pytest.raises(ValueError, match=f":2: unknown key '{key}'$"):
            load_config(write_cfg(tmp_path, f"K = 5\n{key} = 1\n"))

    def test_desk_preset_sets_every_key_once_to_its_default(self):
        path = REPO / "configs" / "desk.cfg"
        lines = [raw.split("#", 1)[0].strip() for raw in path.read_text().splitlines()]
        keys = [line.split("=", 1)[0].strip() for line in lines if line]
        assert sorted(keys) == sorted(harness._FIELD_PARSERS)
        assert load_config(path) == harness.ScenarioConfig()

    def test_solver_keys_set_the_solver_config(self, tmp_path):
        text = "K = 5\ngamma = 3.0\nh0 = 0.004\nr_ctrl = 0.5\nh_max = 0.25\nmax_iters = 7\n"
        cfg = load_config(write_cfg(tmp_path, text + "rel_tol = 1e-6\n"))
        solver = SolverConfig(gamma=3.0, h0=0.004, r_ctrl=0.5, h_max=0.25, max_iters=7, rel_tol=1e-6)
        assert cfg == harness.ScenarioConfig(K=5, solver=solver)

    def test_bad_value_rejected_with_line(self, tmp_path):
        with pytest.raises(ValueError, match=":1:"):
            load_config(write_cfg(tmp_path, "K = twelve\n"))

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="key = value"):
            load_config(write_cfg(tmp_path, "justakey\n"))

    def test_duplicate_seeds_rejected(self, tmp_path):
        # a repeated seed would write two summary rows and overwrite its trace files
        with pytest.raises(ValueError, match="seeds must be distinct"):
            load_config(write_cfg(tmp_path, "seeds = 0, 1, 0\n"))
        with pytest.raises(ValueError, match="seeds must be distinct"):
            run_experiment(_fast_cfg(seeds=(3, 3)), ["rzf"], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_repeated_key_rejected_with_both_lines(self, tmp_path):
        # letting the last value win would run this file on seed 1 only
        with pytest.raises(ValueError, match=r":3: key 'seeds' already set on line 1"):
            load_config(write_cfg(tmp_path, "seeds = 0\nK = 5\nseeds = 1\n"))

    def test_duplicate_solvers_rejected(self, tmp_path):
        # a repeated solver would write two summary rows and overwrite its trace files
        with pytest.raises(ValueError, match="solvers must be distinct"):
            run_experiment(_fast_cfg(), ["gd", "rzf", "gd"], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_empty_solver_list_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="at least one solver"):
            run_experiment(_fast_cfg(), [], tmp_path / "out")
        cfg_path = write_cfg(tmp_path, "K = 4\n")
        argv = ["run", "--config", str(cfg_path), "--solvers", "", "--out", str(tmp_path / "out")]
        assert harness.main(argv) == 2
        assert "at least one solver" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_of_range_cluster_size_named(self, tmp_path):
        with pytest.raises(ValueError, match="B_sc"):
            load_config(write_cfg(tmp_path, "B_sc = 25\n"))

    def test_full_scale_preset_parses(self):
        cfg = load_config(REPO / "configs" / "table1.cfg")
        assert cfg.n_bs == 21
        assert cfg.M_t == 128
        assert cfg.K == 300
        assert cfg.deployment_radius_m == 1000.0

    def test_high_power_preset_parses(self):
        cfg = load_config(REPO / "configs" / "high_power.cfg")
        assert cfg.tx_power_dbm == 24.0
        assert cfg.solver.max_iters == 50

    def test_every_field_default_round_trips(self, tmp_path):
        def text(value):
            if isinstance(value, tuple):
                return ",".join(map(str, value))
            return str(value)

        defaults = harness.ScenarioConfig()
        lines = [
            f"{key} = {text(getattr(defaults.solver if key in harness._SOLVER_KEYS else defaults, key))}"
            for key in harness._FIELD_PARSERS
        ]
        assert load_config(write_cfg(tmp_path, "\n".join(lines) + "\n")) == defaults

    # a non-finite value used to pass and fail later without naming its key:
    # deployment_radius_m = nan as non-finite channel entries
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_value_named(self, tmp_path, key, value):
        path = write_cfg(tmp_path, f"{key} = {value}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: {key} must be finite$"):
            load_config(path)
        if key in {f.name for f in dataclasses.fields(SolverConfig)}:
            with pytest.raises(ValueError, match=f"^{key} must be finite$"):
                SolverConfig(**{key: float(value)})

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("K = 12\nseeds = 0\n\n# solver\ngamma = 8.0\nh0 = 0.01\nh_max = nan\n", 7,
             "h_max must be finite"),
            ("K = 12\nB_sc = 25\n", 2, "B_sc must lie in [1, 7], got 25"),
            ("K = 12\ngamma = 0\n", 2, "gamma must be > 0"),
            ("max_iters = 0\nK = 12\n", 1, "max_iters must be >= 1"),
            ("seeds =\n", 1, "seeds must list at least one seed"),
            ("gnb_count = 2\nK = 12\n", None, "B_sc must lie in [1, 2], got 3"),
        ],
        ids=["h_max", "B_sc", "gamma", "max_iters", "seeds", "unset_key"],
    )
    def test_rejected_value_names_its_line(self, tmp_path, text, line, message):
        # a key the file did not set (B_sc, when gnb_count shrinks the network) has no line
        path = write_cfg(tmp_path, text)
        prefix = "" if line is None else f"{path}:{line}: "
        with pytest.raises(ValueError, match=f"^{re.escape(prefix + message)}$"):
            load_config(path)


class TestConfigConstruction:
    def test_replace_checks_ranges(self):
        with pytest.raises(ValueError, match=r"^B_sc must lie in \[1, 7\], got 25$"):
            dataclasses.replace(harness.ScenarioConfig(), B_sc=25)

    @pytest.mark.parametrize(
        "config", [harness.ScenarioConfig(), SolverConfig()], ids=["scenario", "solver"]
    )
    def test_fields_are_frozen(self, config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_iters = 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_solver_theta_must_be_finite(self, value):
        # theta is no config key: every run uses SolverConfig's default
        with pytest.raises(ValueError, match="^theta must be finite$"):
            SolverConfig(theta=float(value))


def _fast_cfg(**overrides):
    params = dict(
        gnb_count=2, sectors_per_gnb=1, M_t=4, K=4, B_sc=2,
        seeds=(0, 1), solver=SolverConfig(max_iters=8),
    )
    params.update(overrides)
    return dataclasses.replace(harness.ScenarioConfig(), **params)


class TestRunExperiment:
    def test_rzf_only(self, tmp_path):
        summary = run_experiment(_fast_cfg(), ["rzf"], tmp_path)
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
        summary = run_experiment(_fast_cfg(), solvers, tmp_path)
        keys = [(r.solver, r.seed) for r in summary.rows]
        assert sorted(keys) == sorted((s, seed) for s in solvers for seed in (0, 1))
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "timings.csv").exists()

    def test_deterministic_bytes(self, tmp_path):
        cfg = _fast_cfg()
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, ["rzf", "symplectic", "wmmse"], a)
        run_experiment(cfg, ["rzf", "symplectic", "wmmse"], b)
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        assert (
            a / "trace_symplectic_seed1.csv"
        ).read_bytes() == (b / "trace_symplectic_seed1.csv").read_bytes()

    def test_unknown_solver_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown solver"):
            run_experiment(_fast_cfg(), ["zf"], tmp_path)

    # run_experiment looks each solver up on its module at call time, so it runs one
    # replaced there, as perfbench's tracer replaces it
    @pytest.mark.parametrize(
        "module, attr, solver",
        [
            (symplectic, "solve", "symplectic"),
            (baselines, "wmmse_iterate", "wmmse"),
            (baselines, "gd_solve", "gd"),
            (baselines, "nagd_solve", "nagd"),
        ],
        ids=["symplectic", "wmmse", "gd", "nagd"],
    )
    def test_solver_failure_recorded_run_continues(
        self, tmp_path, monkeypatch, module, attr, solver
    ):
        def boom(*args, **kwargs):
            raise baselines.BisectionError("synthetic failure")

        cfg = _fast_cfg()
        run_experiment(cfg, [solver, "rzf"], tmp_path)  # leaves traces a failed rerun must remove
        monkeypatch.setattr(module, attr, boom)
        summary = run_experiment(cfg, [solver, "rzf"], tmp_path)
        failed_rows = [r for r in summary.rows if r.solver == solver]
        rzf_rows = [r for r in summary.rows if r.solver == "rzf"]
        assert all("synthetic failure" in r.error for r in failed_rows)
        assert all(not r.converged for r in failed_rows)
        assert all(r.error == "" for r in rzf_rows)
        traces = {path.name for path in tmp_path.glob("trace_*.csv")}
        assert traces == {f"trace_rzf_seed{seed}.csv" for seed in cfg.seeds}

    @pytest.mark.parametrize("rel_tol, flag", [(1e-300, False), (1e9, True)])
    def test_wmmse_converged_is_stopping_rule(self, tmp_path, rel_tol, flag):
        # four sweeps give three WSR changes: the rule holds for a large
        # tolerance and, as the WSR still moves, not for a vanishing one;
        # either way every sweep runs
        summary = run_experiment(_fast_cfg(solver=SolverConfig(max_iters=4, rel_tol=rel_tol)), ["wmmse"], tmp_path)
        for row in summary.rows:
            assert row.converged is flag
            assert row.iterations == 4

    def test_gd_takes_no_gradient_at_final_iterate(self, tmp_path):
        cfg = dataclasses.replace(load_config(REPO / "configs" / "desk.cfg"), seeds=(0,))
        (row,) = run_experiment(cfg, ["gd"], tmp_path).rows
        assert row.iterations == 196
        assert row.grad_evals == row.iterations

    def test_summary_columns(self, tmp_path):
        run_experiment(_fast_cfg(seeds=(0,)), ["rzf"], tmp_path)
        header = (tmp_path / "summary.csv").read_text().split("\n")[0]
        assert header == "solver,seed,wsr_bits,iterations,grad_evals,multiply_adds,converged,error"

    def test_summary_cells(self, tmp_path):
        rows = [
            harness.RunRow("wmmse", 3, np.float64(12.5), 7, 0.25, 9, 1234, True),
            harness.RunRow("gd", 4, float("nan"), 0, 1.0, 0, 0, False, "ValueError: a, b\nc"),
        ]
        harness._write_summary(tmp_path / "summary.csv", rows)
        assert (tmp_path / "summary.csv").read_text() == (
            "solver,seed,wsr_bits,iterations,grad_evals,multiply_adds,converged,error\n"
            "wmmse,3,12.5,7,9,1234,1,\n"
            "gd,4,nan,0,0,0,0,ValueError: a; b c\n"
        )

    def test_random_init_meets_power_budget(self):
        cfg = _fast_cfg()
        _, ch, clusters = harness.build_instance(cfg, 0)
        rho = cfg.power_budget()
        state = harness.random_precoder(BlockLayout(clusters, cfg.M_t), rho, 0)
        powers = bs_block_norms(state)
        mask = state.layout.nonempty_bs
        assert np.allclose(powers[mask], rho.rho[mask], rtol=1e-12)


def frozen_summary_rows(config_name, out_dir):
    """Summary fields and trace CSV digests of the iterative solvers on seeds 0-4 of a preset."""
    cfg = dataclasses.replace(load_config(REPO / "configs" / config_name), seeds=FROZEN_SEEDS)
    summary = run_experiment(cfg, FROZEN_SOLVERS, out_dir)
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
        report = complexity_probe(
            harness.ScenarioConfig(), m_t_grid=(4, 8), k_grid=(5, 10), b_sc_grid=(1, 2)
        )
        assert 1.0 / 2.2 <= report.min_ratio <= report.max_ratio <= 2.2
        assert report.max_mt_deviation <= 0.10
        assert len(report.rows) == 8

    def test_counts_independent_of_instance_values(self):
        cfg = harness.ScenarioConfig()
        a = complexity_probe(cfg, m_t_grid=(4,), k_grid=(5,), b_sc_grid=(2,), seed=0)
        b = complexity_probe(cfg, m_t_grid=(4,), k_grid=(5,), b_sc_grid=(2,), seed=1)
        assert a.rows[0].measured == b.rows[0].measured

    def test_doubling_cluster_size_grows_at_most_2p2x(self):
        report = complexity_probe(
            harness.ScenarioConfig(), m_t_grid=(8,), k_grid=(10,), b_sc_grid=(1, 2)
        )
        by_bsc = {row.B_sc: row.measured for row in report.rows}
        assert by_bsc[2] <= 2.2 * by_bsc[1]

    def test_single_ut_has_no_interference_count(self):
        cm = ClusterMap([[0, 1]], 2)
        m_t = 8
        predicted = harness.predicted_gradient_macs(cm, m_t)
        assert predicted == 1 * m_t * 4  # K * M_t * |B_1|^2 only; the (K-1) sum vanishes


class TestGradcheckHelper:
    def test_small_run(self):
        assert gradcheck(trials=3) < 1e-6

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            gradcheck(trials=0)


class TestCli:
    def test_run_command(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path,
            "gnb_count = 2\nM_t = 4\nK = 4\nB_sc = 2\nseeds = 0\nmax_iters = 5\n",
        )
        out = tmp_path / "out"
        assert harness.main(["run", "--config", str(cfg_path), "--solvers", "rzf", "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()

    def test_module_entry_point(self):
        src = str(Path(harness.__file__).resolve().parent.parent)
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

    def test_probe_command_on_a_two_bs_network(self, tmp_path, capsys):
        # the default grid's B_sc = 3 does not fit two BSs and is left out
        cfg_path = write_cfg(tmp_path, "gnb_count = 2\nB_sc = 2\nseeds = 0\n")
        assert harness.main(["probe-complexity", "--config", str(cfg_path)]) == 0
        rows = capsys.readouterr().out.split("\n")[1:-3]
        assert len(rows) == 18
        assert {row.split(",")[2] for row in rows} == {"1", "2"}

    def test_probe_command(self, tmp_path, capsys, monkeypatch):
        # shrink the grid through a config with small defaults is not possible,
        # so patch the probe to keep the CLI check cheap
        monkeypatch.setattr(
            harness,
            "complexity_probe",
            lambda config: complexity_probe(
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
