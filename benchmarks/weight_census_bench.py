"""Compare the compiled and pure-python weight-census kernels.

The workload is the real one: exhaustive weight enumeration of the binary
Gray image of a self-dual code of length 60 and dimension 30 (2^30 codewords,
64-bit packed rows).  The compiled kernel is a Gray-code walk touching one
codeword per step; the fallback is a numpy meet-in-the-middle sweep.  Both
must produce identical histograms.

Usage:
    python3 benchmarks/weight_census_bench.py [--dim D] [--threads T]

--dim D trims the generator matrix to its first D rows (a subcode), which
keeps the pure kernel affordable while still comparing identical work; the
default 26 takes a few seconds per kernel.  --dim 30 is the full code.
"""
from __future__ import annotations

import argparse
import time

from ucyclic._kernels import HAVE_COMPILED, weight_census
from ucyclic.cyclotomic import factor_xn_minus_1
from ucyclic.gray import generator_matrix
from ucyclic.selfdual import family_60_30_8


def packed_rows(dim: int) -> tuple[list[int], int]:
    fd = factor_xn_minus_1(15, 1)
    gm = generator_matrix(family_60_30_8(fd)[0])
    return list(gm.packed[:dim]), gm.cols


def run(kernel: str, rows, nbits: int, threads: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    hist = weight_census(rows, nbits, threads=threads, force=kernel)
    return hist, time.perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=26,
                    help="number of generator rows to use (default 26, max 30)")
    ap.add_argument("--threads", type=int, default=2,
                    help="threads for the compiled kernel (default 2)")
    args = ap.parse_args()

    rows, nbits = packed_rows(args.dim)
    words = 1 << len(rows)
    print(f"workload: {words} codewords of length {nbits} "
          f"(dim {len(rows)} subcode of a [60, 30, 8] code)")

    pure_hist, pure_t = run("pure", rows, nbits, args.threads)
    rate = words / pure_t
    print(f"pure    : {pure_t:8.3f} s   {rate:12.0f} words/s")

    if not HAVE_COMPILED:
        print("compiled: not built in this environment")
        return

    comp_hist, comp_t = run("compiled", rows, nbits, args.threads)
    rate = words / comp_t
    print(f"compiled: {comp_t:8.3f} s   {rate:12.0f} words/s "
          f"({args.threads} thread(s), {pure_t / comp_t:.1f}x vs pure)")

    assert comp_hist == pure_hist, "kernel mismatch"
    print("histograms agree")


if __name__ == "__main__":
    main()
