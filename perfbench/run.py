"""The ucyclic benchmark: one workload in fresh processes, outputs checked.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload catalog-30 --seed 1 --seconds 12 --trace 0

The library is imported from ``src/`` of the checkout; nothing is installed.
With ``--trace 0`` the workload runs untraced in a fresh process, in whole
passes over its items until their timed parts add up to ``--seconds``, and
the end-to-end metrics of BENCHMARK.json are reported; set-up time is the
median over several fresh processes.  Times are scaled to the nominal speed
of a fixed calibration kernel run beside every item (see ``worker.py``); the
record keeps the wall-clock figures.  With ``--trace 1`` one fresh process
runs an untraced pass, then a pass with spans around the library's entry
points, and the per-layer metrics are reported.  The last stdout line is the
result: ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the machine and run record.

Load model: one process, closed loop, one item at a time; weight-census calls
get ``threads`` = the number of CPUs this process may run on.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_RUNS = 5          # fresh processes whose set-up time gives the median
RUN_BUDGET_S = 175.0    # the whole run, all worker processes included
WORKER = Path(__file__).resolve().parent / "worker.py"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "absent"


class Workers:
    """Starts worker processes within one deadline; collects their results."""

    def __init__(self, root: Path, args, threads: int):
        self.root = root
        self.argv = [args.workload, str(args.seed), str(args.seconds),
                     str(threads)]
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def run(self, mode: str) -> dict:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode] + self.argv,
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workers: Workers) -> dict:
    runs = [workers.run("setup") for _ in range(SETUP_RUNS - 1)]
    result = workers.run("measure")
    runs.append(result)
    result["metrics"]["setup_s"] = statistics.median(
        r["setup_s"] for r in runs)
    result["record"]["wall_setup_s"] = [r["wall_setup_s"] for r in runs]
    return result


def main(argv=None) -> int:
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "ucyclic" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("error: run from the root of a ucyclic checkout "
              "(needs src/ucyclic and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="timed seconds per run, in whole passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads = len(os.sched_getaffinity(0))
    workers = Workers(root, args, threads)
    try:
        result = workers.run("trace") if args.trace else end_to_end(workers)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # an entry point that was never called, or is absent, did no work: 0
    metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "census_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **result["record"],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
