"""Record the reference WSR of every (solver, seed) row of every window.

Usage (from the root of a checkout):
    python3 perfbench/make_reference.py [--workloads desk,table1]

Runs one untraced pass of each listed workload (default: all) on each of the
WINDOWS instance windows and writes perfbench/reference.json, keeping the
recorded references of workloads not listed. Rows that fail any other check
(error, non-finite WSR, below RZF, constraint residual) are reported and
stop the script, so a reference never records a failing run. Re-record only
when a change is meant to alter solver output, in a change of its own.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, WINDOWS, WORKLOADS, Runner, check_rows

RTOL = 1e-6


def record(name, root):
    """Reference WSRs of one workload, and the checks its rows failed."""
    refs, failures = {}, []
    with tempfile.TemporaryDirectory(dir=root / ".perfbench_work") as tmp:
        runner = Runner(root, Path(tmp), deadline=None)
        for window in range(WINDOWS):
            rows = runner.one_pass(WORKLOADS[name], window, traced=False)["rows"]
            for r in rows:
                refs.setdefault(r["solver"], {})[str(r["seed"])] = r["wsr_bits"]
            own = {"rtol": RTOL, "wsr_bits": {name: refs}}
            failures += [f"{name}: {m}" for m in check_rows(rows, name, own)]
            print(f"{name} window {window}: {len(rows)} rows", flush=True)
    return refs, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    root = Path.cwd()
    (root / ".perfbench_work").mkdir(exist_ok=True)
    refs = json.loads(REFERENCE.read_text())["wsr_bits"] if REFERENCE.is_file() else {}
    failures = []
    for name in args.workloads.split(","):
        refs[name], workload_failures = record(name, root)
        failures += workload_failures
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    reference = {"rtol": RTOL, "windows": WINDOWS, "wsr_bits": refs}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
