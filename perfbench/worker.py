"""One fresh benchmark process: set up a workload, then time or trace it.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS THREADS

MODE ``setup`` only imports ucyclic and builds the seeded inputs.  ``measure``
then runs whole passes over the items, untraced, until the items' timed parts
add up to SECONDS.  ``trace`` runs one untraced pass, one traced pass and the
census thread-scaling probe.  The last stdout line is a JSON result for
``run.py``.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

import ucyclic as uc  # noqa: E402

MAX_REPORTED_FAILURES = 5

# The host's speed swings by a quarter within minutes, and the library's speed
# swings with it.  So every item is followed by a fixed calibration kernel,
# and its time is scaled by the kernel's nominal time over the median kernel
# time among the CALIBRATION_WINDOW items on either side of it.  The kernels
# copy what the library spends its time in, and no library change can alter
# them: elimination of a bit matrix and products of F_2 polynomials for the
# interpreted layers, and popcounts over an 8 MB table for the numpy weight
# census, whose speed follows memory traffic rather than the interpreter.
CALIBRATION_WINDOW = 25
_CAL_RNG = random.Random(0)
_CAL_ROWS = tuple(_CAL_RNG.getrandbits(60) for _ in range(30))
_CAL_POLYS = tuple(tuple(_CAL_RNG.randrange(2) for _ in range(30))
                   for _ in range(2))
_CAL_TABLE = np.random.default_rng(0).integers(
    0, 1 << 63, size=1 << 20, dtype=np.uint64)


def _eliminate(rows) -> list[int]:
    rows, out = list(rows), []
    for c in range(59, -1, -1):
        bit = 1 << c
        pivot = next((r for r in rows if r & bit), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [r ^ pivot if r & bit else r for r in rows]
        out = [r ^ pivot if r & bit else r for r in out] + [pivot]
    return out


def _multiply(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] ^= 1
    return tuple(out)


def interpreter_kernel_s() -> float:
    """Time of one run of the interpreted calibration kernel."""
    a, b = _CAL_POLYS
    t0 = time.perf_counter()
    _eliminate(_CAL_ROWS)
    _multiply(a, b)
    _multiply(b, a)
    return time.perf_counter() - t0


def census_kernel_s() -> float:
    """Time of one run of the census-like calibration kernel."""
    t0 = time.perf_counter()
    np.bincount(np.bitwise_count(_CAL_TABLE ^ np.uint64(0x5555)),
                minlength=65)
    return time.perf_counter() - t0


# (kernel, its nominal time in seconds) per workload
KERNELS = {"distance-scan": (census_kernel_s, 6e-3)}
DEFAULT_KERNEL = (interpreter_kernel_s, 270e-6)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    sample at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


class Tally:
    """Latencies and failures of one or more passes over the items.

    ``latencies`` are wall times; ``scaled`` are the same times at the
    calibration kernel's nominal speed.  A check is a pure function of its
    item's output, so an output equal to the one the same item gave in an
    earlier pass keeps that verdict.
    """

    def __init__(self, kernel=DEFAULT_KERNEL) -> None:
        self.kernel, self.nominal_s = kernel
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.failed = 0
        self.verdicts: dict[int, tuple] = {}

    def run(self, items, tracer=None) -> float:
        """One pass; returns the summed timed parts, in seconds."""
        latencies, kernel = [], []
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = item.run()
            except Exception:
                out = None
                ok = False
                self._report(item, traceback.format_exc())
            else:
                ok = True
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
            kernel.append(self.kernel())
            if ok:
                ok = self._check(index, item, out)
            self.failed += not ok
        w = CALIBRATION_WINDOW
        self.scaled += [t * self.nominal_s
                        / statistics.median(kernel[max(0, i - w):i + w + 1])
                        for i, t in enumerate(latencies)]
        self.latencies += latencies
        return sum(latencies)

    def _check(self, index: int, item, out) -> bool:
        earlier = self.verdicts.get(index)
        if earlier is not None and earlier[0] == out:
            return earlier[1]
        try:
            ok = bool(item.check(out))
        except Exception:
            self._report(item, traceback.format_exc())
            return False
        if not ok:
            self._report(item, "output check failed")
        self.verdicts[index] = (out, ok)
        return ok

    def _report(self, item, detail: str) -> None:
        if self.failed < MAX_REPORTED_FAILURES:
            print(f"item {item.kind} failed: {detail}", file=sys.stderr)


def measure(items, seconds: float, kernel) -> dict:
    acc = Tally(kernel)
    timed = 0.0
    passes = 0
    while passes == 0 or timed < seconds:
        timed += acc.run(items)
        passes += 1
    n = len(acc.latencies)
    return {
        "attempted": n,
        "failed": acc.failed,
        "metrics": {
            "items_per_s": n / sum(acc.scaled),
            "item_p50_ms": 1e3 * percentile(acc.scaled, 50),
            "item_p90_ms": 1e3 * percentile(acc.scaled, 90),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "record": {
            "passes": passes,
            "wall_items_per_s": n / timed,
            "wall_item_p50_ms": 1e3 * percentile(acc.latencies, 50),
            "wall_item_p90_ms": 1e3 * percentile(acc.latencies, 90),
        },
    }


def thread_speedup(threads: int) -> tuple[float | None, bool]:
    """Best-of-two times of the same dim-28 census at 1 thread and at
    ``threads``, alternated; returns (speed-up or None if the kernel is
    absent, whether all histograms agree)."""
    census = getattr(sys.modules.get("ucyclic._kernels"), "weight_census",
                     None)
    if census is None:
        return None, True
    gm = uc.generator_matrix(uc.family_60_30_8()[0])
    rows = workloads.packed_rows(gm)[:28]
    best = {1: math.inf, threads: math.inf}
    hists = []
    for t in (1, threads, threads, 1):
        t0 = time.perf_counter()
        hists.append(census(rows, gm.cols, threads=t))
        best[t] = min(best[t], time.perf_counter() - t0)
    return best[1] / best[threads], all(h == hists[0] for h in hists)


def trace(items, threads: int) -> dict:
    acc = Tally()
    untraced = acc.run(items)
    tracer = tracing.Tracer()
    undo, absent = tracing.install(tracer)
    try:
        traced = acc.run(items, tracer)
    finally:
        tracing.uninstall(undo)
    speedup, agree = thread_speedup(threads)
    metrics = {f"{name}.calls": n for name, n in tracer.calls.items()}
    metrics |= {f"{name}.self_s": s for name, s in tracer.self_s.items()}
    metrics |= tracer.counters
    metrics["selfdual.codes_emitted"] = tracer.counters[
        "selfdual.enumerate_selfdual.items"]
    census_s = tracer.self_s.get("kernels.weight_census", 0.0)
    if census_s > 0:
        metrics["kernels.words_per_s"] = (
            tracer.counters["kernels.words"] / census_s)
        metrics["kernels.cpu_util"] = (
            tracer.counters["kernels.weight_census.cpu_s"] / census_s)
    if speedup is not None:
        metrics["kernels.thread_speedup"] = speedup
    metrics["trace_overhead_frac"] = traced / untraced - 1
    return {
        "attempted": len(acc.latencies) + 1,
        "failed": acc.failed + (not agree),
        "metrics": metrics,
        "record": {"absent": absent},
    }


def versions() -> dict:
    """The library-side part of the machine record."""
    return {
        "ucyclic": uc.__version__,
        "numpy": sys.modules["numpy"].__version__,
        "sympy": getattr(sys.modules.get("sympy"), "__version__", "absent"),
        "have_compiled": getattr(sys.modules.get("ucyclic._kernels"),
                                 "HAVE_COMPILED", "absent"),
    }


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, threads = argv
    items = workloads.WORKLOADS[workload](int(seed), int(threads))
    setup_s = time.perf_counter() - START
    # set-up is import and interpreted input building, whatever the workload
    kernel_s = statistics.median(
        interpreter_kernel_s() for _ in range(2 * CALIBRATION_WINDOW + 1))
    result = {"setup_s": setup_s * DEFAULT_KERNEL[1] / kernel_s,
              "wall_setup_s": setup_s}
    if mode == "measure":
        result |= measure(items, float(seconds),
                          KERNELS.get(workload, DEFAULT_KERNEL))
    elif mode == "trace":
        result |= trace(items, int(threads))
    result.setdefault("record", {}).update(versions())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
