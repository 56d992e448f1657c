"""Command-line interface.

Subcommands
-----------
factor          factor x^(2n)-1 over F_{2^m}: factors, cosets, pairing, idempotents
count-ideals    number of ideals of a chain-ring component with residue field F_q
enum-ideals     stream those ideal labels as JSON lines
count-selfdual  number of self-dual cyclic codes of length 2n over F_{2^m}[u]/(u^k)
enum-selfdual   stream the self-dual codes as JSON descriptors
count-selforth  number of self-orthogonal cyclic codes of length 2n (k = 2)
enum-selforth   stream the self-orthogonal codes (k = 2)
hull            hull (code meet dual) of a described code (k = 2)
gray            Gray-image generator matrix (the block rows of any k = 2 code),
                weight distribution (census walk), or min distance
                (information sets, no walk)
verify          run the brute-force oracle suite for one (n, m, k)
tables          the published count tables and the L_k ideal-count list, as CSV

Code descriptors
----------------
``hull`` and ``gray`` take ``--code`` with a JSON object (inline, ``@file``,
or ``-`` for stdin)::

    {"n": 7, "m": 1, "k": 2, "modulus": "0x3",
     "components": [{"j": 0, "kind": "u_f", "s": 0},
                    {"j": 1, "kind": "mixed_one", "i": 1, "t": 0,
                     "omega": ["0x3"]},
                    {"j": 2, "kind": "u_pow", "i": 2}]}

``components`` carries one entry per irreducible factor of x^n - 1 (pair
partners included), in factor order.  Polynomials over F_{2^m} are hex-coded
with m bits per coefficient, least-significant bits the constant term, so for
m = 1 the poly x^3 + x + 1 is 0xb; ``omega`` lists one such polynomial per
u-power slot of the label's unit parameter.  ``modulus`` is the F_2[y]
modulus of the coefficient field in the same bit packing (m = 4 default:
0x13 = y^4 + y + 1); it may be omitted to use the per-m default.

Output conventions
------------------
Enumerations emit one JSON object per line and honour ``--limit``; tables are
CSV; everything else is a single JSON object.  Matrix rows are hex-packed in
the same m-bits-per-symbol convention.  All output is deterministic.
``enum-selfdual`` and ``enum-selforth`` encode each component label once per
stream and join the encoded labels per line.  In-process ``main`` calls reuse
the factorisation of x^n - 1 across descriptors of one field (see
``FACTOR_MEMO_SIZE``).

Exit codes: 0 success; 2 usage error or malformed descriptor; 3 verification
failure; 4 instance over a resource cap.  ``--threads`` caps worker threads
where supported; left out, it is read from the UCYCLIC_THREADS environment
variable when each command runs, not when the parser is built (the parser is
built once per process and reused by every ``main`` call).
"""
from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import random
import re
import sys

from . import duality as du
from . import gray as gr
from . import ideals as il
from . import oracle as orc
from . import selfdual as sd
from .cyclotomic import (MAX_M, FactorData, cyclotomic_cosets,
                         factor_xn_minus_1)
from .errors import BadDescriptor, TooLarge, UcyclicError
from .gf import default_modulus, poly_from_key, poly_key

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_TOOLARGE = 4


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

_HEXPOLY = re.compile(r"0x[0-9a-f]+")     # the schemas' hexpoly pattern
_encode = json.JSONEncoder(separators=(", ", ": ")).encode


def _int_from_hex(s, what: str) -> int:
    """A hex string as the schemas write it: 0x, then lower-case digits."""
    if not isinstance(s, str) or not _HEXPOLY.fullmatch(s):
        raise BadDescriptor(f"{what} must be a hex string matching "
                            f"0x[0-9a-f]+, got {s!r}")
    return int(s, 16)


def _integer(v, what: str, least: int) -> int:
    """A JSON integer (not a float, string or bool) no smaller than least."""
    if not isinstance(v, int) or isinstance(v, bool) or v < least:
        raise BadDescriptor(f"{what} must be an integer >= {least}, got {v!r}")
    return v


def format_label(ctx, label: il.IdealLabel) -> dict:
    """JSON-ready form of an ideal label (omega polys hex-packed)."""
    out: dict = {"kind": label.kind}
    for name in ("i", "t", "s"):
        v = getattr(label, name)
        if v is not None:
            out[name] = v
    if label.omega is not None:
        out["omega"] = [hex(poly_key(ctx, p)) for p in label.omega]
    return out


def parse_label(ctx, obj) -> il.IdealLabel:
    if not isinstance(obj, dict):
        raise BadDescriptor(f"component must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind not in il.KINDS:
        raise BadDescriptor(f"unknown ideal kind {kind!r}")
    params = {}
    for name in ("i", "t", "s"):
        if name in obj:
            params[name] = _integer(obj[name], f"parameter {name}", 0)
    omega = None
    if "omega" in obj:
        if not isinstance(obj["omega"], list):
            raise BadDescriptor("omega must be a list of hex polynomials")
        omega = tuple(poly_from_key(ctx, _int_from_hex(h, "omega entry"))
                      for h in obj["omega"])
    stray = set(obj) - {"j", "kind", "i", "t", "s", "omega"}
    if stray:
        raise BadDescriptor(f"unknown component fields {sorted(stray)}")
    return il.IdealLabel(kind, omega=omega, **params)


def _envelope(fd: FactorData, k: int, components: list) -> dict:
    """A CodeDescriptor; its key order is the wire order of every code."""
    return {"n": fd.n, "m": fd.m, "k": k, "modulus": hex(fd.ctx.modulus),
            "components": components}


def format_code(code: sd.CyclicCode) -> dict:
    """CodeDescriptor for a code; parse_code inverts it losslessly."""
    ctx = code.fd.ctx
    return _envelope(code.fd, code.k,
                     [{"j": j} | format_label(ctx, lab)
                      for j, lab in enumerate(code.components)])


def _stream_codes(fd: FactorData, k: int, lists: list[list],
                  limit: int | None) -> None:
    """Write the codes of ``itertools.product(*lists)`` (the per-component
    lists of ``sd._build_code``) as descriptor lines, the first ``limit``.

    Each list entry is encoded once, as the JSON text of its component; a
    line joins one fragment per component in component order, so it holds
    the bytes ``_emit(format_code(code))`` writes for the same code.  The
    first ``limit`` lines reach only the first ceil(limit / P) entries of a
    list, P the product of the later lists' lengths, so only those are
    encoded.
    """
    lam = fd.num_selfrec
    if limit is not None:
        lists = [lst[:-(-limit // max(1, math.prod(map(len, lists[i + 1:]))))]
                 for i, lst in enumerate(lists)]

    def fragment(j, label):
        return _encode({"j": j} | format_label(fd.ctx, label))

    encoded = [[fragment(j, lab) for lab in lst] if j < lam
               else [(fragment(j, a), fragment(fd.mate(j), b)) for a, b in lst]
               for j, lst in enumerate(lists)]
    head = _encode(_envelope(fd, k, []))[:-2]      # up to the "[" of the list
    sys.stdout.writelines(
        head + ", ".join(sum(zip(*choice[lam:]), choice[:lam])) + "]}\n"
        for choice in itertools.islice(itertools.product(*encoded), limit))


# Fields whose factorisation parse_code keeps for the next descriptor.  The
# CLI passes it no FactorData, so in-process callers of ``main`` would factor
# x^n - 1 again for every descriptor; a shell command factors once either way.
FACTOR_MEMO_SIZE = 8


@functools.lru_cache(maxsize=FACTOR_MEMO_SIZE)
def _factored(n: int, m: int, modulus: int | None) -> FactorData:
    """factor_xn_minus_1 behind the memo.  The module global is looked up on
    each miss, so a wrapper installed on it counts the misses; a call that
    raises leaves nothing in the memo."""
    return factor_xn_minus_1(n, m, modulus)


def parse_code(obj, fd: FactorData | None = None) -> sd.CyclicCode:
    """CyclicCode from a descriptor object; BadDescriptor on any defect."""
    if not isinstance(obj, dict):
        raise BadDescriptor("descriptor must be a JSON object")
    stray = set(obj) - {"n", "m", "k", "modulus", "components"}
    if stray:
        raise BadDescriptor(f"unknown descriptor fields {sorted(stray)}")
    if not {"n", "m", "k"} <= set(obj):
        raise BadDescriptor("descriptor needs integer fields n, m, k")
    n, m, k = (_integer(obj[name], name, 1) for name in ("n", "m", "k"))
    modulus = None
    if "modulus" in obj:
        modulus = _int_from_hex(obj["modulus"], "modulus")
    if fd is None or fd.n != n or fd.m != m or (
            modulus is not None and fd.ctx.modulus != modulus):
        if modulus is None and m <= MAX_M:  # above the cap factoring refuses
            modulus = default_modulus(m)    # one memo entry per field
        try:
            fd = _factored(n, m, modulus)
        except ValueError as exc:
            raise BadDescriptor(str(exc)) from None
    comps = obj.get("components")
    if not isinstance(comps, list):
        raise BadDescriptor("descriptor needs a components list")
    labels: list[il.IdealLabel | None] = [None] * fd.r
    for entry in comps:
        lab = parse_label(fd.ctx, entry)
        j = entry.get("j") if isinstance(entry, dict) else None
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < fd.r:
            raise BadDescriptor(f"component index j={j!r} out of range "
                                f"(need 0..{fd.r - 1})")
        if labels[j] is not None:
            raise BadDescriptor(f"duplicate component j={j}")
        labels[j] = lab
    if any(lab is None for lab in labels):
        missing = [j for j, lab in enumerate(labels) if lab is None]
        raise BadDescriptor(f"missing components {missing}")
    try:
        return sd.CyclicCode(fd, k, tuple(labels))
    except (ValueError, BadDescriptor) as exc:
        raise BadDescriptor(str(exc)) from None


def _read_code_arg(text: str) -> sd.CyclicCode:
    if text == "-":
        text = sys.stdin.read()
    elif text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadDescriptor(f"--code is not valid JSON: {exc}") from None
    return parse_code(obj)


def _emit(obj) -> None:
    sys.stdout.write(_encode(obj) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_factor(args) -> int:
    fd = factor_xn_minus_1(args.n, args.m, args.modulus)
    ctx = fd.ctx
    _emit({
        "n": fd.n,
        "m": fd.m,
        "modulus": hex(ctx.modulus),
        "cosets": [list(c) for c in cyclotomic_cosets(fd.n, ctx.order)],
        "factors": [hex(poly_key(ctx, f)) for f in fd.factors],
        "degrees": [fd.degree(j) for j in range(fd.r)],
        "num_selfrec": fd.num_selfrec,
        "num_pairs": fd.num_pairs,
        "pairing": [fd.mate(j) for j in range(fd.r)],
        "delta": [hex(dj) for dj in fd.delta],
        "idempotents": [hex(poly_key(ctx, e)) for e in fd.idempotents],
    })
    return EXIT_OK


def _q_to_field(q: int) -> int:
    if q < 2 or q & (q - 1):
        raise ValueError(f"q must be a power of two >= 2, got {q}")
    return q.bit_length() - 1


def _cmd_count_ideals(args) -> int:
    _q_to_field(args.q)
    print(il.count_ideals(args.q, args.k))
    return EXIT_OK


def _cmd_enum_ideals(args) -> int:
    # realize F_q as the residue field of the (unique, degree-1) component
    # at n = 1 over F_q itself
    e = _q_to_field(args.q)
    fd = factor_xn_minus_1(1, e)
    for lab in itertools.islice(il.enumerate_ideals(fd, 0, args.k),
                                args.limit):
        line = format_label(fd.ctx, lab)
        line["size_log2"] = il.ideal_size_log2(lab, e, 1, args.k)
        _emit(line)
    return EXIT_OK


def _cmd_count_selfdual(args) -> int:
    print(sd.count_selfdual(args.n, args.m, args.k, modulus=args.modulus))
    return EXIT_OK


def _cmd_enum_selfdual(args) -> int:
    sd._check_k(args.k)
    fd = factor_xn_minus_1(args.n, args.m, args.modulus)
    _stream_codes(fd, args.k, sd._selfdual_lists(fd, args.k), args.limit)
    return EXIT_OK


def _cmd_count_selforth(args) -> int:
    print(du.count_selforthogonal(args.n, args.m, modulus=args.modulus))
    return EXIT_OK


def _cmd_enum_selforth(args) -> int:
    fd = factor_xn_minus_1(args.n, args.m, args.modulus)
    _stream_codes(fd, 2, du._selforth_lists(fd), args.limit)
    return EXIT_OK


def _cmd_hull(args) -> int:
    code = _read_code_arg(args.code)
    _emit(format_code(du.hull(code)))
    return EXIT_OK


def _cmd_gray(args) -> int:
    code = _read_code_arg(args.code)
    gm = gr.generator_matrix(code)
    threads = _default_threads() if args.threads is None else args.threads
    if args.mindist:
        _emit({"min_distance": gr.min_distance(gm, threads=threads)})
        return EXIT_OK
    if args.weights:
        dist = gr.weight_distribution(gm, threads=threads)
        _emit({"distribution": {str(w): dist[w] for w in sorted(dist)}})
        return EXIT_OK
    if args.grid:
        for row in gm.rows:
            if code.m == 1:
                sys.stdout.write("".join(str(c) for c in row) + "\n")
            else:
                sys.stdout.write(" ".join(f"{c:x}" for c in row) + "\n")
        return EXIT_OK
    _emit({
        "length": gm.cols,
        "m": code.m,
        "rank": gm.rank(),
        "rows": [hex(v) for v in gm.packed],
    })
    return EXIT_OK


def _cmd_tables(args) -> int:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if args.lk:
        for k in range(2, 10):
            writer.writerow([k, il.count_ideals(2, k)])
        return EXIT_OK
    if args.paper_section == 4:
        for n in range(3, 50, 2):
            writer.writerow([2 * n, sd.count_selfdual(n, 1, 2)])
        return EXIT_OK
    for n in range(3, 50, 2):
        writer.writerow([2 * n, du.count_selforthogonal(n, 1)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: the oracle suite as one table of checks
# ---------------------------------------------------------------------------

# Caps on the exhaustive walks, as log2 of the walk's length.  Every other
# check costs a polynomial in the length per code and runs on codes drawn
# with one choice per component list, never on the whole product.
CENSUS_LOG2 = 14        # ideal census: every vector of the space it closes
UNIT_WALK_LOG2 = 16     # Theta filter: every unit of F_j[u]/(u^s)
LABELS_LOG2 = 16        # the label list of the largest component
SAMPLES = 200           # codes per membership and hull check
GRAY_SAMPLES = 32       # codes per Gray check


def _refuse(walk: int, cap: int, what: str) -> str | None:
    """The SKIP reason for a walk of 2^walk ``what``, or None if it fits."""
    return None if walk <= cap else f"walk of 2^{walk} {what} > cap 2^{cap}"


def _dense(code: sd.CyclicCode) -> orc.DenseCode:
    return orc.span_code(code.n, code.m, code.k,
                         sd.to_ambient_generators(code), code.fd.ctx.modulus)


def _hull_ok(code: sd.CyclicCode) -> bool:
    dense = _dense(code)
    return _dense(du.hull(code)) == orc.brute_intersect(
        dense, orc.brute_dual(dense, code.fd.ctx.modulus))


def _gray_ok(code: sd.CyclicCode) -> bool:
    """The Gray matrix of any k = 2 code: full rank, 2-quasi-cyclic, the
    span oracle's row space, and (as phi(C^perp) = phi(C)^perp) a zero
    Gram matrix exactly when the code is self-orthogonal; rank and Gram
    taken by its CRT parts equal those of the same rows unpartitioned."""
    gm = gr.generator_matrix(code)
    flat = gr.GenMatrix(gm.ctx, gm.n, packed=gm.packed)
    return (gm.rank() == flat.rank() == code.dim()
            and gr.is_2_quasi_cyclic(gm)
            and tuple(gr._rref(gm.ctx, gm.packed, gm.cols)[0])
            == gr._span_image_matrix(code).packed
            and gr.gram_is_zero(gm) == gr.gram_is_zero(flat)
            == du.is_self_orthogonal(code))


def _checks(fd: FactorData, k: int) -> list[tuple]:
    """The oracle suite: (name, SKIP reason or None, thunk -> (ok, detail))."""
    n, m, mod = fd.n, fd.m, fd.ctx.modulus
    selfdual = functools.cache(lambda: sd._selfdual_lists(fd, k))
    selforth = functools.cache(lambda: du._selforth_lists(fd))
    per_factor = functools.cache(lambda: [list(il.enumerate_ideals(fd, j, k))
                                          for j in range(fd.r)])
    q_max = 1 << (m * max(map(fd.degree, range(fd.r))))
    long_lists = _refuse(il.count_ideals(q_max, k).bit_length() - 1,
                         LABELS_LOG2, "labels in one component")
    k2_only = (long_lists if k == 2
               else "the duality and Gray layers are k = 2 only")

    def census(j):
        got = len(orc.brute_component_ideals(fd, j, k))
        want = il.count_ideals(1 << (m * fd.degree(j)), k)
        return got == want, f"{got} ideals, closed form {want}"

    def theta(j, s):
        mine = sorted(sd.theta_set(fd, j, s).members)
        return (mine == sorted(orc.theta_congruence_filter(fd, j, s)),
                f"{len(mine)} units")

    def count(lists, want, what):
        got = math.prod(len(set(lst)) for lst in lists)
        return (got == math.prod(map(len, lists)) == want,
                f"{got} codes, {what} {want}")

    def sample(lists, size, ok, what, build=sd._build_code):
        # the whole product if it is small, else seeded uniform draws
        choices = itertools.product(*lists)
        if math.prod(map(len, lists)) > size:
            rng = random.Random(0)
            choices = [tuple(map(rng.choice, lists)) for _ in range(size)]
        codes = [build(fd, k, choice) for choice in choices]
        return all(map(ok, codes)), f"{len(codes)} codes{what}"

    def gray():
        ok_any, drawn = sample(per_factor(), GRAY_SAMPLES, _gray_ok,
                               " drawn per factor", sd.CyclicCode._trusted)
        ok_so, selforthogonal = sample(selforth(), GRAY_SAMPLES, _gray_ok,
                                       " self-orthogonal")
        return ok_any and ok_so, (
            f"{drawn}, {selforthogonal}: rank = dim, 2-quasi-cyclic, "
            "RREF = span oracle's, G.G^T = 0 iff self-orthogonal, "
            "rank and G.G^T by CRT parts = unpartitioned")

    def selfdual_filter():
        brute = sum(orc.brute_is_selfdual(c, mod)
                    for c in orc.brute_all_ideals(n, m, k, mod))
        return (brute == sd.count_selfdual(n, m, k, fd),
                f"oracle finds {brute} self-dual ideals")

    rows = [(f"ideal-census j={j}",
             _refuse(2 * fd.degree(j) * m * k, CENSUS_LOG2,
                     "vectors of the component ring"),
             functools.partial(census, j)) for j in fd.component_indices()]
    rows += [(f"theta j={j} s={s}",
              _refuse(fd.degree(j) * m * s, UNIT_WALK_LOG2,
                      "units of F_j[u]/(u^s)"),
              functools.partial(theta, j, s))
             for j in range(1, fd.num_selfrec)
             for s in range(1, max(2, k // 2 + 1))]
    return rows + [
        ("selfdual-count", long_lists, lambda: count(
            selfdual(), sd.count_selfdual(n, m, k, fd), "mass formula")),
        ("selfdual-membership", long_lists, lambda: sample(
            selfdual(), SAMPLES,
            lambda c: orc.brute_is_selfdual(_dense(c), mod),
            " brute-checked")),
        ("selfdual-filter",
         _refuse(2 * n * m * k, CENSUS_LOG2, "vectors of R^(2n)"),
         selfdual_filter),
        ("hull-oracle", k2_only, lambda: sample(
            per_factor(), SAMPLES, _hull_ok, " checked",
            sd.CyclicCode._trusted)),
        ("selforth-count", k2_only, lambda: count(
            selforth(), du.count_selforthogonal(n, m, fd), "closed form")),
        ("selforth-membership", k2_only, lambda: sample(
            selforth(), SAMPLES,
            lambda c: orc.brute_is_selforthogonal(_dense(c), mod),
            " brute-checked")),
        ("gray-genmatrix", k2_only, gray),
    ]


def _cmd_verify(args) -> int:
    sd._check_k(args.k)
    fd = factor_xn_minus_1(args.n, args.m, args.modulus)
    print(f"oracle suite for n={args.n} m={args.m} k={args.k} "
          f"modulus={hex(fd.ctx.modulus)}")
    failed = 0
    for name, skip, check in _checks(fd, args.k):
        if skip:
            print(f"SKIP  {name}  ({skip})")
            continue
        ok, detail = check()
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        failed += not ok
    if failed:
        print(f"{failed} check(s) FAILED")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _hex_int(s: str) -> int:
    return int(s, 16)


def _limit(s: str) -> int:
    n = int(s)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _default_threads() -> int:
    """UCYCLIC_THREADS as it reads now (1 if unset or not an integer)."""
    try:
        return max(1, int(os.environ.get("UCYCLIC_THREADS", "1")))
    except ValueError:
        return 1


def _add_nmk(p, k: bool = True) -> None:
    p.add_argument("--n", type=int, required=True, help="half the code length")
    p.add_argument("--m", type=int, required=True, help="field is F_{2^m}")
    if k:
        p.add_argument("--k", type=int, required=True,
                       help="nilpotency index of u")
    p.add_argument("--modulus", type=_hex_int, default=None,
                   help="field modulus as hex bits (default per m)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    on it, and every default that reads the environment is resolved when a
    command runs."""
    ap = argparse.ArgumentParser(
        prog="ucyclic",
        description="self-dual cyclic codes over F_{2^m}[u]/(u^k) "
                    "and their binary Gray images")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor x^(2n)-1 over F_{2^m}")
    _add_nmk(p, k=False)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("count-ideals", help="ideal count for one component")
    p.add_argument("--q", type=int, required=True,
                   help="residue field size (power of two)")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_count_ideals)

    p = sub.add_parser("enum-ideals", help="stream component ideal labels")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=_limit, default=None,
                   help="print at most this many lines")
    p.set_defaults(func=_cmd_enum_ideals)

    p = sub.add_parser("count-selfdual", help="count self-dual cyclic codes")
    _add_nmk(p)
    p.set_defaults(func=_cmd_count_selfdual)

    p = sub.add_parser("enum-selfdual", help="stream self-dual cyclic codes")
    _add_nmk(p)
    p.add_argument("--limit", type=_limit, default=None,
                   help="print at most this many lines")
    p.set_defaults(func=_cmd_enum_selfdual)

    p = sub.add_parser("count-selforth",
                       help="count self-orthogonal cyclic codes (k = 2)")
    _add_nmk(p, k=False)
    p.set_defaults(func=_cmd_count_selforth)

    p = sub.add_parser("enum-selforth",
                       help="stream self-orthogonal cyclic codes (k = 2)")
    _add_nmk(p, k=False)
    p.add_argument("--limit", type=_limit, default=None,
                   help="print at most this many lines")
    p.set_defaults(func=_cmd_enum_selforth)

    p = sub.add_parser("hull", help="hull of a described code (k = 2)")
    p.add_argument("--code", required=True,
                   help="JSON descriptor (inline, @file, or - for stdin)")
    p.set_defaults(func=_cmd_hull)

    p = sub.add_parser("gray", help="binary Gray image of a described code")
    p.add_argument("--code", required=True,
                   help="JSON descriptor (inline, @file, or - for stdin)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--genmatrix", action="store_true",
                   help="generator matrix (default)")
    g.add_argument("--weights", action="store_true",
                   help="full weight distribution")
    g.add_argument("--mindist", action="store_true",
                   help="minimum distance, by information sets")
    p.add_argument("--grid", action="store_true",
                   help="plain-text matrix grid instead of JSON")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: UCYCLIC_THREADS, else 1)")
    p.set_defaults(func=_cmd_gray)

    p = sub.add_parser("verify", help="run the brute-force oracle suite")
    _add_nmk(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tables", help="published count tables as CSV")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--paper-section", type=int, choices=(4, 5),
                   help="4: self-dual counts; 5: self-orthogonal counts")
    g.add_argument("--lk", action="store_true",
                   help="L_k ideal counts over F_2, k = 2..9")
    p.set_defaults(func=_cmd_tables)

    return ap


def _error(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:         # an OSError, so it must come first
        return EXIT_OK
    except TooLarge as exc:
        return _error(exc, EXIT_TOOLARGE)
    except (UcyclicError, ValueError, OSError) as exc:
        return _error(exc, EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
