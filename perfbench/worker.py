"""One fresh process of the benchmark: one batch of seeds, with set-up samples.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the checkout root, the config file, the seeds, the solvers, the
number of set-up samples, the output directory and the result file to write.
The BLAS thread count is pinned from SPEC before numpy is first imported, so
every batch runs the same kernels whatever the caller's environment says.

If SPEC asks for calibration, the worker times a fixed calibration block,
which does not touch ucnprec, between the seeds. The caller divides the
batch's times by the speed these blocks show, so a shared machine running
slower for a while does not read as a slower program.
"""

import dataclasses
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One calibration group per this many seconds of run_experiment: a block that
# warms the caches the solver left cold, not recorded, then GROUP_BLOCKS timed.
CALIBRATION_PERIOD_S = 1.0
GROUP_BLOCKS = 4


def _environment(threads):
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
    }


def _load(spec):
    from ucnprec import harness

    config = harness.load_config(os.path.join(spec["root"], spec["config"]))
    return dataclasses.replace(config, seeds=tuple(spec["seeds"]))


def _setup_times(harness, config, rho):
    """Seconds spent in build_instance plus initial_precoder, per seed."""
    per_seed = []
    for seed in config.seeds:
        t0 = time.perf_counter()
        _, ch, clusters = harness.build_instance(config, seed)
        harness.initial_precoder(config, ch, clusters, rho, seed)
        per_seed.append(time.perf_counter() - t0)
    return per_seed


class ColdSetup:
    """Set-up samples, each in a process that has run no set-up code yet.

    The batch warms numpy and ucnprec as it runs, so every sample is a child
    forked before the batch starts: it has the imports but pays the cold first
    call, as a new `ucnprec run` process does. A child waits until take()
    releases it, and take() runs around the batch's seeds, one sample at a
    time, so the samples spread over the pass as the solve times do.
    """

    def __init__(self, harness, config, count):
        go_r, self._go_w = os.pipe()
        result_r, result_w = os.pipe()
        self._pids = []
        for _ in range(count):
            pid = os.fork()
            if pid == 0:
                os.close(self._go_w)
                os.close(result_r)
                self._child(harness, config, go_r, result_w)
            self._pids.append(pid)
        os.close(go_r)
        os.close(result_w)
        self._results = os.fdopen(result_r)

    @staticmethod
    def _child(harness, config, go, out):
        status = 1
        try:
            if os.read(go, 1):
                times = _setup_times(harness, config, config.power_budget())
                os.write(out, (json.dumps(times) + "\n").encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)

    def take(self):
        """Release one waiting child; its set-up seconds per seed."""
        os.write(self._go_w, b"x")
        line = self._results.readline()
        if not line:
            raise RuntimeError("a set-up sample process ended without a result")
        return json.loads(line)

    def close(self):
        os.close(self._go_w)  # children not released read EOF and exit
        failed = [pid for pid in self._pids if os.waitpid(pid, 0)[1] != 0]
        self._results.close()
        if failed:
            raise RuntimeError(f"{len(failed)} set-up sample processes failed")


class Calibration:
    """A fixed block of the kinds of work the solvers do, about 17 ms long.

    It mixes one-thread LAPACK (eigh and GEMM at 64x64), many small complex
    numpy calls and plain Python loops, the three costs of a desk-scale
    solve, so its time moves with the machine's speed as those solve times
    do. The data comes from no random generator: the set-up samples must
    still pay numpy.random's cold first use.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        i = np.arange(64.0)
        a = np.cos(0.37 * np.outer(i, i) + i)
        self.sym = a @ a.T
        j, k = np.arange(16.0), np.arange(20.0)
        self.small = np.cos(0.11 * np.outer(j, k)) + 1j * np.sin(0.07 * np.outer(j, k) + 1)
        self.samples = []
        self._due = 0.0

    def block(self):
        np = self.np
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.eigh(self.sym @ self.sym.T)
        for _ in range(400):
            c = self.small.conj().T @ self.small
            np.abs(c) ** 2
            c.sum(axis=0)
        x = 0
        for n in range(30000):
            x += n * n
        return time.perf_counter() - t0

    def group(self):
        self.block()
        self.samples += [self.block() for _ in range(GROUP_BLOCKS)]

    def after(self, seconds):
        """Run the groups due after seconds more of run_experiment."""
        self._due += seconds
        while self._due >= CALIBRATION_PERIOD_S:
            self.group()
            self._due -= CALIBRATION_PERIOD_S


def _max_residual(path):
    """Largest constraint_residual cell of one trace CSV, or None if none is reported."""
    with open(path) as f:
        column = f.readline().rstrip("\n").split(",").index("constraint_residual")
        cells = [line.rstrip("\n").split(",")[column] for line in f]
    values = [float(c) for c in cells if c]
    return max(values) if values else None


def _run_seed(harness, config, seed, solvers, out_dir):
    """One run_experiment call on one seed; its wall time, rows and output digest."""
    t0 = time.perf_counter()
    summary = harness.run_experiment(dataclasses.replace(config, seeds=(seed,)), solvers, out_dir)
    run_s = time.perf_counter() - t0
    rows = []
    trace_bytes = 0
    for r in summary.rows:
        path = os.path.join(out_dir, f"trace_{r.solver}_seed{r.seed}.csv")
        residual = None
        if not r.error:
            residual = _max_residual(path)
            trace_bytes += os.path.getsize(path)
        rows.append(
            {
                "solver": r.solver,
                "seed": r.seed,
                "wsr_bits": r.wsr_bits,
                "iterations": r.iterations,
                "wall_time_s": r.wall_time_s,
                "grad_evals": r.grad_evals,
                "multiply_adds": r.multiply_adds,
                "error": r.error,
                "max_residual": residual,
            }
        )
    with open(os.path.join(out_dir, "summary.csv"), "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    return {"run_s": run_s, "rows": rows, "summary_sha256": digest, "trace_bytes": trace_bytes}


def run_batch(spec):
    """run_experiment once per seed, as `ucnprec run` on a one-seed config would.

    spec["setup_samples"] set-up samples are spread evenly over the gaps
    before, between and after the seeds; calibration groups run before the
    first seed, after each CALIBRATION_PERIOD_S of run_experiment, and after
    the last seed.
    """
    import ucnprec
    from ucnprec import harness

    config = _load(spec)
    gaps, k = len(config.seeds) + 1, spec["setup_samples"]
    cold = ColdSetup(harness, config, k)
    calibration = Calibration() if spec["calibrate"] else None
    if calibration:
        calibration.group()
    tracer = restore = None
    if spec["traced"]:
        from tracer import Tracer, instrument

        tracer = Tracer(spec["solvers"])
        restore = instrument(tracer, ucnprec)
    seeds, setup = [], []
    try:
        for j, seed in enumerate(config.seeds + (None,)):
            setup += [cold.take() for _ in range((j + 1) * k // gaps - j * k // gaps)]
            if seed is not None:
                out_dir = os.path.join(spec["out_dir"], str(seed))
                seeds.append(_run_seed(harness, config, seed, spec["solvers"], out_dir))
                if calibration:
                    calibration.after(seeds[-1]["run_s"])
        if calibration:
            calibration.group()
    finally:
        if restore is not None:
            restore()
        cold.close()
    result = {
        "seeds": seeds,
        "setup_s": setup,
        "calibration_s": calibration.samples if calibration else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summarize()
        if spec.get("spans"):
            tracer.write(spec["spans"])
    return result


def main(argv):
    with open(argv[1]) as f:
        spec = json.load(f)
    for name in BLAS_ENV:
        os.environ[name] = str(spec["blas_threads"])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    result = run_batch(spec)
    result["env"] = _environment(spec["blas_threads"])
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
