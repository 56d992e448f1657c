"""Spans around the library's public entry points, installed from outside it.

Each wrapped call opens a span (name, start, parent) on a stack and closes it
with its end time.  Closing folds the span into per-name totals: calls and
self time, which is the span's duration minus the durations of its child
spans.  Functions that return a generator get one span per ``next`` and an
item count.  Entry points are looked up by name; one that no longer exists is
recorded as absent instead of failing the run.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# Entry points wrapped in the traced run, by module of the ucyclic package.
# Only the functions whose figures the benchmark reports are wrapped, so the
# self time of each stays comparable across changes.
ENTRY_POINTS = {
    "gf": ("poly_mulmod",),
    "cyclotomic": ("factor_xn_minus_1",),
    "quotient": ("omega_prime", "u_units"),
    "ideals": ("validate_label",),
    "selfdual": ("is_self_dual", "theta_set", "enumerate_selfdual"),
    "duality": ("dual_code", "hull", "hull_dimension",
                "enumerate_selforthogonal"),
    "gray": ("generator_matrix", "rref_fq", "gram_is_zero",
             "weight_distribution"),
    "_kernels": ("weight_census",),
    "oracle": ("span_code", "brute_dual", "brute_intersect",
               "brute_all_ideals", "rref_bits", "theta_congruence_filter"),
    "cli": ("parse_code", "format_code"),
}


def span_name(module: str, func: str) -> str:
    """Metric prefix of an entry point; names start with a letter."""
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    """Span stack and per-name totals.  Records only while ``active``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.stack: list[list] = []      # open spans: [name, start, child_s]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self, call: bool = True) -> None:
        """Close the innermost span; ``call`` counts it as a call."""
        name, start, child_s = self.stack.pop()
        duration = self.clock() - start
        if call:
            self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self.stack:
            self.stack[-1][2] += duration

    def wrap(self, name: str, fn, after=None, cpu: bool = False):
        """``fn`` inside a span.  ``after(tracer, args, result)`` adds
        counters at the boundary; ``cpu`` also sums process CPU time into
        the counter ``<name>.cpu_s``."""
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.enter(name)
            cpu0 = time.process_time() if cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                if cpu:
                    self.counters[f"{name}.cpu_s"] += time.process_time() - cpu0
                self.exit()
            if after is not None:
                after(self, args, result)
            if inspect.isgenerator(result):
                return self._iterate(name, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _iterate(self, name: str, gen):
        while True:
            if not self.active:
                yield from gen
                return
            self.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.exit(call=False)
            self.counters[f"{name}.items"] += 1
            yield item


def _census_counts(tracer, args, result) -> None:
    rows, nbits = args[0], args[1]
    words = 1 << len(rows)
    tracer.counters["kernels.words"] += words
    tracer.counters["kernels.bytes_computed"] += words * 8 * max(
        1, (nbits + 63) // 64)


def _symbol_words(tracer, args, result) -> None:
    if args[0].ctx.m > 1:
        tracer.counters["gray.symbol_words"] += sum(result.values())


COUNTERS = {
    "kernels.weight_census": _census_counts,
    "gray.weight_distribution": _symbol_words,
}
CPU_TIMED = {"kernels.weight_census"}


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every entry point wherever the package holds a reference to it.

    Returns (undo list for :func:`uninstall`, names of absent entry points).
    """
    undo, absent = [], []
    for module, funcs in ENTRY_POINTS.items():
        try:
            mod = importlib.import_module(f"ucyclic.{module}")
        except ImportError:
            absent += [span_name(module, f) for f in funcs]
            continue
        for func in funcs:
            name = span_name(module, func)
            orig = getattr(mod, func, None)
            if not callable(orig):
                absent.append(name)
                continue
            wrapped = tracer.wrap(name, orig, COUNTERS.get(name),
                                  cpu=name in CPU_TIMED)
            for holder in _package_modules():
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, attr, wrapped)
                        undo.append((holder, attr, orig))
    return undo, absent


def uninstall(undo: list) -> None:
    for holder, attr, orig in reversed(undo):
        setattr(holder, attr, orig)


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ucyclic"
                                    or name.startswith("ucyclic."))]
