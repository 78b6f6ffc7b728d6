"""ucnprec benchmark: solver workloads through the public harness.run_experiment.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload desk --seed 0 --seconds 40 --trace 0

A run repeats one *pass* of the workload round(--seconds / pass_s) times (at
least once); pass_s is about the length of one pass on a 2-core Xeon at
2.1 GHz, so --seconds 40 gives one pass of desk and high_power and two of
table1. The pass count depends on --seconds only, never on how fast the
machine runs at the moment, so every run of a workload does the same work.
A pass runs each batch in a fresh worker process (closed loop, one batch at
a time, BLAS pinned to one thread), and the worker calls run_experiment once
per seed, as `ucnprec run` on a one-seed config would. Every (solver, seed)
row of every pass is checked; summary.csv bytes and the counted work must
repeat exactly between passes. The last stdout line is one JSON object:
correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics. Each time is a sum over the pass's
seeds (median over passes). On a calibrated workload (desk, high_power) it
is in *reference seconds*: each batch's measured seconds divided by its
worker's speed, the median time of the calibration blocks run between its
seeds (worker.Calibration) over CALIBRATION_REF_S. The speed of a shared machine drifts by a tenth or more
over minutes, and small numpy calls, LAPACK at 64x64 and Python loops drift
alike (their time ratios stayed within 3% over three minutes while each
drifted 6-8%), so this keeps the drift out of the desk and high_power
figures (over ten runs of high_power the times spread 0.30-0.32 of their
median in measured seconds and 0.05-0.08 in reference seconds) while a
slower program still reads slower. The measured seconds and the speeds are logged. Spread
over each batch's seeds, SETUP_SAMPLES processes that have run nothing yet
time every seed's set-up (build_instance plus initial_precoder); setup_s is
the median over these samples of their sum over seeds, scaled like the
rest. The median sum is steadier than a sum of each seed's fastest sample:
in eight runs of one high_power batch it read 0.060-0.079 s, the other
0.058-0.094 s.

--trace 1 runs a traced, an untraced and a traced pass, and reports the
per-layer metrics in measured seconds (medians over the traced passes; the
tracing overhead is the traced minus the untraced run_s). Tracing wraps the
public functions of every ucnprec module from perfbench/tracer.py; the
program itself is unchanged.

--seed selects one of WINDOWS disjoint instance windows (seed mod WINDOWS):
each config's seed list is shifted by window * seeds_per_window, so a claim
made on some windows can be re-checked on windows not used while making it.
Every (solver, seed) of every window has a reference WSR in reference.json.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WINDOWS = 16
BLAS_THREADS = 1
SETUP_SAMPLES = 8  # per batch and pass of a --trace 0 run
# Median calibration block time on the 2-core Xeon at 2.1 GHz: one reference second.
CALIBRATION_REF_S = 0.017
DEADLINE_S = 170.0
RESIDUAL_LIMIT = 1e-9
# A solver may end below RZF only by rounding: relative slack on the RZF WSR.
RZF_SLACK = 1e-12

ALL_SOLVERS = ("symplectic", "wmmse", "rzf", "gd", "nagd")
ITERATIVE = ("symplectic", "wmmse", "gd", "nagd")
TRACED_PASSES = 2  # around one untraced pass


@dataclass(frozen=True)
class Batch:
    """One run_experiment call: a config, its solvers and a slice of the window's seeds."""

    config: str
    solvers: tuple
    first: int
    count: int


@dataclass(frozen=True)
class Workload:
    name: str
    seeds_per_window: int
    pass_s: float
    batches: tuple
    # Divide times by the worker's calibrated speed (see the module docstring).
    calibrated: bool = True

    def passes(self, seconds):
        return max(1, round(seconds / self.pass_s))

    def seeds(self, seed, batch):
        base = (seed % WINDOWS) * self.seeds_per_window + batch.first
        return list(range(base, base + batch.count))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk",
            120,
            35.0,  # 35 s per pass
            (
                # desk.cfg as shipped: 5 seeds, all five solvers.
                Batch("configs/desk.cfg", ALL_SOLVERS, 0, 5),
                # The early stop makes a seed's solve time vary with its
                # iteration count (per-seed coefficient of variation 0.33 for
                # symplectic, 0.42 gd, 0.65 nagd), so the sums need many seeds
                # to differ little between windows: symplectic and gd get 60,
                # nagd 120 in all.
                Batch("configs/desk.cfg", ("symplectic", "rzf", "gd", "nagd"), 5, 55),
                Batch("configs/desk.cfg", ("rzf", "nagd"), 60, 60),
            ),
        ),
        Workload(
            "table1",
            1,
            20.0,  # 21 s per pass; two passes, since the 2 s symplectic solve needs a second sample
            # gd and nagd run here too, so every end-to-end metric exists on every workload.
            (Batch("configs/table1.cfg", ALL_SOLVERS, 0, 1),),
            # The 300x300 and 128x128 kernels here do not follow the small
            # calibration block: over five runs dividing by its speed widened
            # the spread of run_s from 0.13 to 0.35.
            calibrated=False,
        ),
        Workload(
            "high_power",
            60,
            # 26 s per pass: 60 seeds of a fixed 50-iteration budget, where a
            # seed's solve times vary 16-21% by instance and backtracking.
            28.0,
            (Batch("configs/high_power.cfg", ALL_SOLVERS, 0, 60),),
        ),
    )
}

# name, unit, better
END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    *[(f"solve_s.{s}", "s", "lower") for s in ITERATIVE],
    *[(f"wsr_bits.{s}", "bit/s/Hz", "higher") for s in ITERATIVE],
    ("ok_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# name, unit, and the end-to-end metric (on which workload) it should move.
PER_LAYER = [
    ("channel.topology_s", "s", "setup_s on table1"),
    ("channel.channels_s", "s", "setup_s on table1"),
    ("channel.clusters_s", "s", "setup_s on table1"),
    ("baselines.rzf_init_s", "s", "setup_s on table1"),
    ("objective.evaluate.calls", "count", "solve_s.symplectic/gd/nagd on table1"),
    ("objective.evaluate.s", "s", "solve_s.symplectic/gd/nagd on table1"),
    ("objective.value.calls", "count", "solve_s.gd/nagd on table1"),
    ("objective.value.s", "s", "solve_s.gd/nagd on table1"),
    ("objective.wsr_bits.calls", "count", "solve_s.nagd on high_power"),
    ("objective.amplitude_matrix.calls", "count", "solve_s.* on table1"),
    ("objective.amplitude_matrix.s", "s", "solve_s.* on table1"),
    ("objective.macs", "count", "solve_s.symplectic/gd/nagd on table1"),
    ("objective.mac_per_s", "1/s", "solve_s.symplectic/gd/nagd on table1"),
    ("baselines.wmmse.amplitude_per_sweep", "count", "solve_s.wmmse on table1"),
    ("symplectic.rattle_step.calls", "count", "solve_s.symplectic on desk"),
    ("symplectic.rattle_step.self_s", "s", "solve_s.symplectic on desk"),
    ("symplectic.iterations", "count", "solve_s.symplectic on desk"),
    ("symplectic.evals_per_iter", "count", "solve_s.symplectic on desk"),
    ("baselines.wmmse_step.calls", "count", "solve_s.wmmse"),
    ("baselines.wmmse_step.self_s", "s", "solve_s.wmmse"),
    ("baselines.wmmse.eigh_s", "s", "solve_s.wmmse on table1"),
    ("baselines.bisect_power.calls", "count", "solve_s.wmmse on desk/high_power"),
    ("baselines.bisect_power.s", "s", "solve_s.wmmse on desk/high_power"),
    ("baselines.power_fn.calls", "count", "solve_s.wmmse on desk/high_power"),
    ("baselines.armijo.value_per_iter", "count", "solve_s.gd/nagd on high_power"),
    ("baselines.armijo.accept_ratio", "ratio", "solve_s.gd/nagd on high_power"),
    ("embedding.precoder_state.constructs", "count", "solve_s.* on desk"),
    ("embedding.precoder_state.s", "s", "solve_s.* on desk"),
    ("embedding.renormalize_power.calls", "count", "solve_s.* on desk"),
    ("embedding.renormalize_power.s", "s", "solve_s.* on desk"),
    ("harness.trace_write_s", "s", "run_s on high_power"),
    ("harness.trace_bytes", "B", "run_s on high_power"),
    ("harness.loop_overhead_s", "s", "run_s on high_power"),
    ("count.iterations", "count", "solve_s.* (deterministic)"),
    ("count.grad_evals", "count", "solve_s.* (deterministic)"),
    ("tracing.overhead_s", "s", "none: traced run_s minus untraced run_s"),
]

# Per-layer metrics that are deterministic counts: they must repeat exactly.
COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"] + ["harness.trace_bytes"]


class BenchError(RuntimeError):
    pass


class Runner:
    """Launches worker processes for one benchmark run, within one deadline (or none)."""

    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.n = 0

    def worker(self, spec):
        self.n += 1
        spec = dict(spec, root=str(self.root), blas_threads=BLAS_THREADS)
        spec["result"] = str(self.work / f"result{self.n}.json")
        spec_path = self.work / f"spec{self.n}.json"
        spec_path.write_text(json.dumps(spec))
        timeout = None if self.deadline is None else self.deadline - time.monotonic()
        if timeout is not None and timeout <= 0:
            raise BenchError("out of time before a worker could start")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=self.root,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s run deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr.strip()}")
        with open(spec["result"]) as f:
            return json.load(f)

    def one_pass(self, workload, seed, traced, spans=None, setup_samples=0):
        """Run every batch of the workload once; merge their results.

        run_s and summary_sha256 map (batch, seed) to that seed's run_experiment
        wall time and summary.csv digest. The pass also takes setup_samples
        set-up samples per batch; sample i of every batch makes setup[i],
        which maps (batch, seed) to seconds. speed maps (batch, seed) to the
        speed of the batch's worker (1 where the workload is not calibrated).
        """
        merged = {"run_s": {}, "rows": [], "summary_sha256": {}, "trace_bytes": 0,
                  "peak_rss_mb": 0.0, "traces": [], "speed": {},
                  "setup": [{} for _ in range(setup_samples)]}
        out_dir = self.work / "out"
        for i, batch in enumerate(workload.batches):
            seeds = workload.seeds(seed, batch)
            spec = {
                "config": batch.config,
                "seeds": seeds,
                "solvers": list(batch.solvers),
                "out_dir": str(out_dir),
                "traced": traced,
                "setup_samples": setup_samples,
                "calibrate": workload.calibrated,
                "spans": str(spans.with_suffix(f".{i}.npz")) if spans else None,
            }
            r = self.worker(spec)
            shutil.rmtree(out_dir)
            calibration = r["calibration_s"]
            speed = statistics.median(calibration) / CALIBRATION_REF_S if calibration else 1.0
            for seed_result in r["seeds"]:
                key = (i, seed_result["rows"][0]["seed"])
                merged["run_s"][key] = seed_result["run_s"]
                merged["speed"][key] = speed
                merged["summary_sha256"][key] = seed_result["summary_sha256"]
                merged["rows"] += [dict(row, batch=i) for row in seed_result["rows"]]
                merged["trace_bytes"] += seed_result["trace_bytes"]
            merged["peak_rss_mb"] = max(merged["peak_rss_mb"], r["peak_rss_mb"])
            merged["env"] = r["env"]
            for sample, times in zip(merged["setup"], r["setup_s"]):
                sample.update(zip(((i, s) for s in seeds), times))
            if traced:
                merged["traces"].append(r["trace"])
        return merged


def check_rows(rows, workload_name, reference):
    """Return a "<solver> seed <n>: <reason>" message for every failed check."""
    rtol = reference["rtol"]
    refs = reference["wsr_bits"].get(workload_name, {})
    rzf = {r["seed"]: r["wsr_bits"] for r in rows if r["solver"] == "rzf" and not r["error"]}
    failures = []
    for r in rows:
        tag = f"{r['solver']} seed {r['seed']}"
        wsr = r["wsr_bits"]
        if r["error"]:
            failures.append(f"{tag}: error {r['error']}")
            continue
        if not math.isfinite(wsr):
            failures.append(f"{tag}: WSR {wsr} is not finite")
            continue
        if r["solver"] in ITERATIVE:
            base = rzf.get(r["seed"])
            if base is None:
                failures.append(f"{tag}: no RZF row on the same seed to compare with")
            elif wsr < base - RZF_SLACK * abs(base):
                failures.append(f"{tag}: WSR {wsr!r} below RZF {base!r}")
        if r["max_residual"] is not None and not r["max_residual"] <= RESIDUAL_LIMIT:
            failures.append(f"{tag}: constraint residual {r['max_residual']:.3e} > {RESIDUAL_LIMIT}")
        ref = refs.get(r["solver"], {}).get(str(r["seed"]))
        if ref is None:
            failures.append(f"{tag}: no reference WSR")
        elif abs(wsr - ref) > rtol * abs(ref):
            failures.append(f"{tag}: WSR {wsr!r} differs from reference {ref!r} (rtol {rtol})")
    return failures


def _solver_sum(rows, solver, field):
    return sum(r[field] for r in rows if r["solver"] == solver)


def _run_s(passes, scaled):
    return statistics.median(
        sum(t / (p["speed"][k] if scaled else 1.0) for k, t in p["run_s"].items()) for p in passes
    )


def times(passes, scaled=True):
    """The time metrics: sums over seeds, medians over passes.

    scaled divides every time by the speed of the worker that measured it,
    giving reference seconds; otherwise the times are measured seconds.
    setup_s is the median over set-up samples of the sample's sum over seeds.
    """

    def speed(p, key):
        return p["speed"][key] if scaled else 1.0

    samples = [(p, sample) for p in passes for sample in p["setup"]]
    result = {
        "run_s": _run_s(passes, scaled),
        "setup_s": statistics.median(sum(t / speed(p, k) for k, t in sample.items()) for p, sample in samples),
    }
    for s in ITERATIVE:
        result[f"solve_s.{s}"] = statistics.median(
            sum(r["wall_time_s"] / speed(p, (r["batch"], r["seed"])) for r in p["rows"] if r["solver"] == s)
            for p in passes
        )
    return result


def end_to_end(passes, failed, attempted):
    """End-to-end metrics; times in reference seconds (see the module docstring)."""
    rows = passes[0]["rows"]
    metrics = times(passes)
    for s in ITERATIVE:
        values = [r["wsr_bits"] for r in rows if r["solver"] == s]
        metrics[f"wsr_bits.{s}"] = sum(values) / len(values)
    metrics["ok_frac"] = 1.0 - failed / attempted
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    return metrics


def _merge_traces(traces):
    """Sum the per-batch tracer summaries of one pass."""
    totals, by_solver, counts, by_parent = {}, {}, {}, {}

    def add(dst, src):
        for name, entry in src.items():
            acc = dst.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field in acc:
                acc[field] += entry[field]

    for t in traces:
        add(totals, t["totals"])
        for solver, entries in t["by_solver"].items():
            add(by_solver.setdefault(solver, {}), entries)
        for dst, src in ((counts, t["counts"]), (by_parent, t["by_parent"])):
            for outer, entries in src.items():
                acc = dst.setdefault(outer, {})
                for name, value in entries.items():
                    acc[name] = acc.get(name, 0) + value
    return totals, by_solver, counts, by_parent


def per_layer(p):
    """Per-layer metrics of one traced pass."""
    totals, by_solver, counts, by_parent = _merge_traces(p["traces"])
    rows = p["rows"]

    def tot(name, field="s"):
        return totals.get(name, {}).get(field, 0)

    def sol(solver, name, field="calls"):
        return by_solver.get(solver, {}).get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    iters = {s: _solver_sum(rows, s, "iterations") for s in ALL_SOLVERS}
    armijo_values = sol("gd", "objective.value") + sol("nagd", "objective.value")
    accepted = sum(counts.get(s, {}).get("armijo.accepted", 0) for s in ("gd", "nagd"))
    macs = sum(r["multiply_adds"] for r in rows)
    solve_s = sum(r["wall_time_s"] for r in rows)
    setup_s = tot("harness.build_instance") + tot("harness.initial_precoder")
    return {
        "channel.topology_s": tot("channel.topology"),
        "channel.channels_s": tot("channel.channels"),
        "channel.clusters_s": tot("channel.rsrp") + tot("channel.clusters"),
        "baselines.rzf_init_s": tot("baselines.rzf_init"),
        "objective.evaluate.calls": tot("objective.evaluate", "calls"),
        "objective.evaluate.s": tot("objective.evaluate"),
        "objective.value.calls": tot("objective.value", "calls"),
        "objective.value.s": tot("objective.value"),
        "objective.wsr_bits.calls": tot("objective.wsr_bits", "calls"),
        "objective.amplitude_matrix.calls": tot("objective.amplitude_matrix", "calls"),
        "objective.amplitude_matrix.s": tot("objective.amplitude_matrix"),
        "objective.macs": macs,
        "objective.mac_per_s": ratio(macs, tot("objective.evaluate")),
        "baselines.wmmse.amplitude_per_sweep": ratio(
            by_parent.get("baselines.wmmse_step", {}).get("objective.amplitude_matrix", 0),
            tot("baselines.wmmse_step", "calls"),
        ),
        "symplectic.rattle_step.calls": tot("symplectic.rattle_step", "calls"),
        "symplectic.rattle_step.self_s": tot("symplectic.rattle_step", "self_s"),
        "symplectic.iterations": iters["symplectic"],
        "symplectic.evals_per_iter": ratio(sol("symplectic", "objective.evaluate"), iters["symplectic"]),
        "baselines.wmmse_step.calls": tot("baselines.wmmse_step", "calls"),
        "baselines.wmmse_step.self_s": tot("baselines.wmmse_step", "self_s"),
        "baselines.wmmse.eigh_s": tot("baselines.wmmse.eigh"),
        "baselines.bisect_power.calls": tot("baselines.bisect_power", "calls"),
        "baselines.bisect_power.s": tot("baselines.bisect_power"),
        "baselines.power_fn.calls": counts.get("wmmse", {}).get("power_fn.calls", 0),
        "baselines.armijo.value_per_iter": ratio(armijo_values, iters["gd"] + iters["nagd"]),
        "baselines.armijo.accept_ratio": ratio(accepted, armijo_values),
        "embedding.precoder_state.constructs": tot("embedding.precoder_state", "calls"),
        "embedding.precoder_state.s": tot("embedding.precoder_state"),
        "embedding.renormalize_power.calls": tot("embedding.renormalize_power", "calls"),
        "embedding.renormalize_power.s": tot("embedding.renormalize_power"),
        "harness.trace_write_s": tot("harness.write_trace"),
        "harness.trace_bytes": p["trace_bytes"],
        "harness.loop_overhead_s": (
            tot("harness.run_experiment") - setup_s - solve_s - tot("harness.write_trace")
        ),
        "count.iterations": sum(iters.values()),
        "count.grad_evals": sum(r["grad_evals"] for r in rows),
    }


def _row_counts(p):
    return [(r["solver"], r["seed"], r["iterations"], r["grad_evals"], r["multiply_adds"]) for r in p["rows"]]


def run(workload, seed, seconds, trace, root, work, reference, log=print):
    """One benchmark run; returns the result object printed as the last line."""
    runner = Runner(root, work, time.monotonic() + DEADLINE_S)
    log("workload " + json.dumps({
        "name": workload.name,
        "window": seed % WINDOWS,
        "batches": [[b.config, list(b.solvers), workload.seeds(seed, b)[0], b.count]
                    for b in workload.batches],
    }))

    spans = work.parent / f"spans-{workload.name}-seed{seed}"
    passes, traced = [], []
    if trace:
        # The traced passes surround the untraced one, so machine drift hits both alike.
        for i in range(TRACED_PASSES):
            if i == TRACED_PASSES // 2:
                passes.append(runner.one_pass(workload, seed, traced=False))
            traced.append(runner.one_pass(workload, seed, traced=True, spans=spans))
    else:
        passes = [
            runner.one_pass(workload, seed, traced=False, setup_samples=SETUP_SAMPLES)
            for _ in range(workload.passes(seconds))
        ]
    log("env " + json.dumps(passes[0]["env"], sort_keys=True))

    problems = []
    attempted = failed = 0
    for p in passes + traced:
        bad = check_rows(p["rows"], workload.name, reference)
        attempted += len(p["rows"])
        failed += len({m.split(":")[0] for m in bad})
        problems += bad
    first = passes[0]
    for p in passes[1:] + traced:
        if p["summary_sha256"] != first["summary_sha256"]:
            problems.append("summary.csv bytes differ between passes")
        if _row_counts(p) != _row_counts(first):
            problems.append("iterations/grad_evals/multiply_adds differ between passes")
    digest = hashlib.sha256("".join(first["summary_sha256"].values()).encode()).hexdigest()
    log(f"summary.csv sha256 over seeds {digest[:16]} ({len(passes) + len(traced)} passes)")

    if trace:
        layers = [per_layer(p) for p in traced]
        for name in COUNTS:
            if len({m[name] for m in layers}) != 1:
                problems.append(f"count {name} differs between traced passes")
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["tracing.overhead_s"] = _run_s(traced, False) - _run_s(passes, False)
        table = PER_LAYER
    else:
        metrics = end_to_end(passes, failed, attempted)
        table = END_TO_END
        speeds = [[p["speed"][(i, workload.seeds(seed, b)[0])] for i, b in enumerate(workload.batches)]
                  for p in passes]
        log(f"worker speeds per pass and batch {json.dumps(speeds)}; "
            "measured seconds " + json.dumps({k: round(v, 6) for k, v in times(passes, scaled=False).items()}))
    for problem in problems:
        log("check failed: " + problem)
    for name, unit, note in table:
        log(f"metric {name} = {metrics[name]:.9g} {unit}  ({note})")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    try:
        for needed in ["src/ucnprec/harness.py"] + [b.config for b in WORKLOADS[args.workload].batches]:
            if not (root / needed).is_file():
                raise BenchError(f"{needed} not found: run from the root of a ucnprec checkout")
        if not REFERENCE.is_file():
            raise BenchError(f"{REFERENCE.name} not found next to run.py")
        reference = json.loads(REFERENCE.read_text())
        work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, root, work, reference)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
