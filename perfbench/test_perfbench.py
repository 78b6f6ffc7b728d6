"""Smoke tests of the benchmark on a tiny config.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
TINY = """\
gnb_count = 3
M_t = 4
K = 5
B_sc = 2
max_iters = 20
seeds = 0,1
"""


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A two-seed tiny workload, its work directory and references from one pass."""
    tmp = tmp_path_factory.mktemp("tiny")
    cfg = tmp / "tiny.cfg"
    cfg.write_text(TINY)
    workload = run.Workload("tiny", 2, 1.0, (run.Batch(str(cfg), run.ALL_SOLVERS, 0, 2),))
    work = tmp / "work" / "run"
    work.mkdir(parents=True)
    p = run.Runner(ROOT, work, deadline=None).one_pass(workload, 0, traced=False, setup_samples=run.SETUP_SAMPLES)
    rows = p["rows"]
    assert [sorted(sample) for sample in p["setup"]] == [[(0, 0), (0, 1)]] * run.SETUP_SAMPLES
    reference = {"rtol": 1e-6, "wsr_bits": {"tiny": {}}}
    for r in rows:
        reference["wsr_bits"]["tiny"].setdefault(r["solver"], {})[str(r["seed"])] = r["wsr_bits"]
    return workload, work, rows, reference


@pytest.mark.parametrize("trace, table", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_run_reports_every_metric(tiny, trace, table):
    workload, work, _, reference = tiny
    result = run.run(workload, 0, 2.0, trace, ROOT, work, reference, log=lambda line: None)
    assert result["correct"], result
    assert result["failed"] == 0
    passes = run.TRACED_PASSES + 1 if trace else 2  # 2 s at 1 s per pass
    assert result["attempted"] == 10 * passes  # 5 solvers x 2 seeds per pass
    assert set(result["metrics"]) == {name for name, _, _ in table}
    assert all(m["value"] == m["value"] for m in result["metrics"].values())  # no NaN
    json.dumps(result)


def test_traced_counts_match_rows(tiny):
    workload, work, rows, _ = tiny
    p = run.Runner(ROOT, work, deadline=None).one_pass(workload, 0, traced=True, spans=work / "spans")
    layers = run.per_layer(p)
    assert layers["count.grad_evals"] == sum(r["grad_evals"] for r in rows)
    assert layers["objective.evaluate.calls"] == layers["count.grad_evals"]
    assert layers["symplectic.rattle_step.calls"] == layers["symplectic.iterations"]
    assert layers["baselines.wmmse.amplitude_per_sweep"] == 2.0
    assert layers["objective.macs"] == sum(r["multiply_adds"] for r in rows)
    spans = np.load(work / "spans.0.npz")
    build = list(spans["names"]).index("harness.build_instance")
    keys = [tuple(json.loads(k)) for k in spans["keys"]]
    built = [keys[k] for n, k in zip(spans["name_id"], spans["key_id"]) if n == build]
    assert built == [("setup", 0), ("setup", 1)]


def test_checks_flag_each_bad_row(tiny):
    _, _, rows, reference = tiny
    assert run.check_rows(rows, "tiny", reference) == []

    def failing(mutate):
        bad = copy.deepcopy(rows)
        mutate(bad)
        return run.check_rows(bad, "tiny", reference)

    def row(bad, solver, seed=0):
        return next(r for r in bad if r["solver"] == solver and r["seed"] == seed)

    assert failing(lambda b: row(b, "gd").update(error="ValueError: x"))
    assert failing(lambda b: row(b, "gd").update(wsr_bits=float("nan")))
    assert failing(lambda b: row(b, "nagd").update(wsr_bits=row(b, "rzf")["wsr_bits"] * 0.5))
    assert failing(lambda b: row(b, "symplectic").update(max_residual=1e-6))
    assert failing(lambda b: row(b, "wmmse").update(wsr_bits=row(b, "wmmse")["wsr_bits"] * (1 + 1e-5)))
    assert failing(lambda b: b.remove(row(b, "rzf")))
    missing = copy.deepcopy(reference)
    del missing["wsr_bits"]["tiny"]["gd"]["1"]
    assert run.check_rows(rows, "tiny", missing) == ["gd seed 1: no reference WSR"]


def test_refuses_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(run.__file__).parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_seed_shifts_each_config_seed_list_to_a_disjoint_window():
    desk = run.WORKLOADS["desk"]
    shipped, extra, _ = desk.batches
    assert desk.seeds(0, shipped) == [0, 1, 2, 3, 4]  # desk.cfg's own seed list
    assert desk.seeds(3, shipped) == [360, 361, 362, 363, 364]
    assert desk.seeds(3 + run.WINDOWS, extra) == desk.seeds(3, extra)
    windows = [set(sum((desk.seeds(w, b) for b in desk.batches), [])) for w in range(run.WINDOWS)]
    assert all(len(w) == desk.seeds_per_window for w in windows)
    assert len(set().union(*windows)) == sum(len(w) for w in windows)


def test_times_are_divided_by_each_worker_speed(tiny):
    workload, work, _, _ = tiny
    runner = run.Runner(ROOT, work, deadline=None)
    p = runner.one_pass(workload, 0, traced=False, setup_samples=2)
    assert sorted(p["speed"]) == [(0, 0), (0, 1)] and all(v > 0 for v in p["speed"].values())
    slow = dict(p, speed={k: 2 * v for k, v in p["speed"].items()})
    fast, halved = run.end_to_end([p], 0, 10), run.end_to_end([slow], 0, 10)
    for name in ("run_s", "setup_s", "solve_s.gd"):
        assert halved[name] == pytest.approx(fast[name] / 2)
    assert halved["wsr_bits.gd"] == fast["wsr_bits.gd"]
    raw = run.Workload("raw", 2, 1.0, workload.batches, calibrated=False)
    assert set(runner.one_pass(raw, 0, traced=False)["speed"].values()) == {1.0}
