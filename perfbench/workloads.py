"""The four benchmark workloads, built from a seed.

Each workload function returns a list of items.  An item's ``run`` is the
timed part and makes only public library or CLI calls, looked up on the module
at call time so that the traced run's wrappers see them.  Its ``check`` runs
outside the timed part and compares the output with an independent route or a
pinned value.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import ucyclic as uc
from ucyclic import cli, oracle
from ucyclic.ideals import IdealLabel


@dataclass
class Item:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# Published self-dual counts over F_2 + uF_2 by code length 2n, n = 3..49.
SELFDUAL_TABLE = {
    6: 9, 10: 15, 14: 39, 18: 81, 22: 99, 26: 195, 30: 945, 34: 867,
    38: 1539, 42: 8073, 46: 6159, 50: 15375, 54: 41553, 58: 49155,
    62: 151959, 66: 323433, 70: 799695, 74: 786435, 78: 2399085,
    82: 3151875, 86: 6440067, 90: 34879005, 94: 25165839, 98: 81789123,
}
# Self-orthogonal counts fixed by exhaustive brute-force censuses.
SELFORTH_CENSUS = {10: 35, 14: 275, 18: 275}

_U = IdealLabel("u_pow", i=1)
_F = IdealLabel("u_f", s=0)


def _mixed(*coeffs: int) -> IdealLabel:
    return IdealLabel("mixed_one", i=1, t=0, omega=(tuple(coeffs),))


# The three self-dual codes of length 22 over F_2 + uF_2 whose Gray images have
# minimum distance 2; the other 96 have distance 4.
LENGTH_22_DISTANCE_2 = {(_U, _U), (_F, _F), (_mixed(1), _mixed(1, 1))}


def packed_rows(gm) -> list[int]:
    """Rows of a binary generator matrix as integers, column c at bit c."""
    return [sum(1 << c for c, x in enumerate(row) if x) for row in gm.rows]


def binary_rank_and_gram(rows: list[int], ncols: int) -> tuple[int, bool]:
    """Rank over F_2 by the oracle's elimination, and whether G G^T = 0."""
    rank = len(oracle.rref_bits(rows, ncols)[0])
    gram_zero = all((a & b).bit_count() % 2 == 0
                    for i, a in enumerate(rows) for b in rows[i:])
    return rank, gram_zero


def spread_sample(rng: random.Random, codes, count: int) -> list:
    """``count`` codes evenly spaced through the pool sorted by size, from a
    seeded offset: every seed gets the same mix of code sizes, which is what
    the cost of an item mostly depends on."""
    ordered = sorted(codes, key=lambda c: c.size_log2())
    step = len(ordered) / count
    offset = rng.random() * step
    return [ordered[int(offset + i * step)] for i in range(count)]


def dense(code):
    fd = code.fd
    return oracle.span_code(fd.n, fd.m, code.k, uc.to_ambient_generators(code),
                            fd.ctx.modulus)


def lee_census(code) -> dict[int, int]:
    """Lee weight histogram of a k = 2 code, vectorised over its F_2 span.

    Same definition as ``gray.lee_distribution`` (symbol a + bu has Lee weight
    [b != 0] + [a + b != 0]) on the oracle's basis, without the per-word Python
    loop that makes that route take seconds per code.
    """
    fd = code.fd
    m, step = fd.m, 2 * fd.m
    if 2 * fd.n * step > 64:
        raise ValueError("the vectorised Lee census needs words of <= 64 bits")
    words = np.zeros(1, dtype=np.uint64)
    for row in dense(code).basis:
        words = np.concatenate([words, words ^ np.uint64(row)])
    mask = np.uint64((1 << m) - 1)
    weight = np.zeros(len(words), dtype=np.int64)
    for c in range(2 * fd.n):
        a = (words >> np.uint64(c * step)) & mask
        b = (words >> np.uint64(c * step + m)) & mask
        weight += (b != 0).astype(np.int64) + ((a ^ b) != 0)
    values, counts = np.unique(weight, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


# ---------------------------------------------------------------------------
# catalog-30: the closed-form route over every self-dual code of length 30
# ---------------------------------------------------------------------------

def _enumerate_30():
    fd = uc.factor_xn_minus_1(15, 1)
    return list(uc.enumerate_selfdual(15, 1, 2, fd))


def _selfdual_30(code):
    gm = uc.generator_matrix(code)
    return (uc.is_self_dual(code), uc.dual_code(code), uc.hull(code),
            uc.hull_dimension(code), gm, gm.rank(), uc.gram_is_zero(gm))


def _selfdual_30_ok(code, out) -> bool:
    sd, dual, hull, hull_dim, gm, rank, gram = out
    rank2, gram2 = binary_rank_and_gram(packed_rows(gm), 60)
    return (sd and dual == code and hull == code and hull_dim == 30
            and rank == rank2 == 30 and gram and gram2)


def _selforth_30(code):
    return (uc.dual_code(code), uc.hull(code), uc.hull_dimension(code),
            uc.is_self_orthogonal(code))


def _selforth_30_ok(code, out) -> bool:
    dual, hull, hull_dim, so = out
    size = code.size_log2()
    return (so and hull == code and hull_dim == size
            and size + dual.size_log2() == 60 and uc.hull(dual) == code)


def _tables():
    odd = range(3, 50, 2)
    return ({2 * n: uc.count_selfdual(n, 1, 2) for n in odd},
            {2 * n: uc.count_selforthogonal(n, 1) for n in odd})


def _tables_ok(out) -> bool:
    selfdual, selforth = out
    return (selfdual == SELFDUAL_TABLE
            and all(selforth[n2] == v for n2, v in SELFORTH_CENSUS.items()))


def catalog_30(seed: int, threads: int) -> list[Item]:
    rng = random.Random(seed)
    fd = uc.factor_xn_minus_1(15, 1)
    codes = list(uc.enumerate_selfdual(15, 1, 2, fd))
    rng.shuffle(codes)
    selforth = spread_sample(rng, uc.enumerate_selforthogonal(15, 1, fd), 300)
    items = [Item("enumerate", _enumerate_30,
                  lambda out: len(out) == len(set(out)) == 945
                  and uc.count_selfdual(15, 1, 2) == 945)]
    items += [Item("selfdual", lambda c=c: _selfdual_30(c),
                   lambda out, c=c: _selfdual_30_ok(c, out)) for c in codes]
    items += [Item("selforth", lambda c=c: _selforth_30(c),
                   lambda out, c=c: _selforth_30_ok(c, out)) for c in selforth]
    items.append(Item("tables", _tables, _tables_ok))
    return items


# ---------------------------------------------------------------------------
# distance-scan: exhaustive weight walks
# ---------------------------------------------------------------------------

def _distance(code, threads: int) -> int:
    return uc.min_distance(uc.generator_matrix(code), threads=threads)


def _weights(code, threads: int) -> dict[int, int]:
    return uc.weight_distribution(uc.generator_matrix(code), threads=threads)


def distance_scan(seed: int, threads: int) -> list[Item]:
    rng = random.Random(seed)
    fd11 = uc.factor_xn_minus_1(11, 1)
    codes = list(uc.enumerate_selfdual(11, 1, 2, fd11))
    if len(set(codes)) != 99:
        raise RuntimeError(f"expected 99 self-dual codes of length 22, "
                           f"got {len(set(codes))}")
    member = rng.choice(uc.family_60_30_8())
    fd5 = uc.factor_xn_minus_1(5, 2)
    quaternary = rng.sample(list(uc.enumerate_selfdual(5, 2, 2, fd5)), 4)
    items = [Item("length-22", lambda c=c: _distance(c, threads),
                  lambda d, c=c: d == (2 if c.components in
                                       LENGTH_22_DISTANCE_2 else 4))
             for c in codes]
    items.append(Item("family-60-30-8", lambda: _distance(member, threads),
                      lambda d: d == 8))
    items += [Item("quaternary", lambda c=c: _weights(c, threads),
                   lambda dist, c=c: dist == lee_census(c))
              for c in quaternary]
    return items


# ---------------------------------------------------------------------------
# oracle-crosscheck: brute-force routes against the closed forms
# ---------------------------------------------------------------------------

def _hull_oracle(code):
    mod = code.fd.ctx.modulus
    d = dense(code)
    brute = oracle.brute_intersect(d, oracle.brute_dual(d, mod))
    return sorted(brute.basis), sorted(dense(uc.hull(code)).basis)


def _selfdual_member(code) -> bool:
    return oracle.brute_is_selfdual(dense(code), code.fd.ctx.modulus)


def _all_ideals(fd, k: int):
    mod = fd.ctx.modulus
    brute = sum(oracle.brute_is_selfdual(c, mod)
                for c in oracle.brute_all_ideals(fd.n, fd.m, k, mod))
    return brute, uc.count_selfdual(fd.n, fd.m, k, fd)


def _theta(fd, j: int, s: int):
    return (sorted(oracle.theta_congruence_filter(fd, j, s)),
            sorted(uc.theta_set(fd, j, s).members))


def _same(out) -> bool:
    return out[0] == out[1]


# The (n, m) pairs of the Theta-set acceptance test.
THETA_NM = [(3, 1), (5, 1), (7, 1), (9, 1), (15, 1), (1, 2), (5, 2), (3, 3)]


def oracle_crosscheck(seed: int, threads: int) -> list[Item]:
    rng = random.Random(seed)
    fds = {nm: uc.factor_xn_minus_1(*nm) for nm in
           [(9, 1), (3, 2), (3, 1), (1, 1), (1, 2)] + THETA_NM}
    items = []
    for nm, size in (((9, 1), 300), ((3, 2), 200)):
        pool = uc.enumerate_cyclic(*nm, 2, fds[nm])
        items += [Item("hull", lambda c=c: _hull_oracle(c), _same)
                  for c in spread_sample(rng, pool, size)]
    for n, m, k in ((9, 1, 2), (3, 2, 3), (3, 1, 4)):
        items += [Item("selfdual-member", lambda c=c: _selfdual_member(c),
                       lambda ok: ok is True)
                  for c in uc.enumerate_selfdual(n, m, k, fds[n, m])]
    for n, m, k in ((3, 1, 2), (1, 1, 4), (1, 2, 2)):
        items.append(Item("all-ideals", lambda fd=fds[n, m], k=k:
                          _all_ideals(fd, k), _same))
    theta = []
    for nm in THETA_NM:
        fd = fds[nm]
        theta += [(fd, j, s) for j in range(1, fd.num_selfrec)
                  for s in (1, 2, 3, 4) if fd.degree(j) * fd.m * s <= 12]
    theta.append((fds[5, 2], 1, 4))
    items += [Item("theta", lambda a=a: _theta(*a), _same) for a in theta]
    return items


# ---------------------------------------------------------------------------
# cli-roundtrip: the JSON wire format through cli.main
# ---------------------------------------------------------------------------

def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``cli.main`` in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _validators():
    from jsonschema import Draft202012Validator

    schemas = Path(uc.__file__).parent / "schemas"
    return {name: Draft202012Validator(json.loads(
                (schemas / f"{name}.schema.json").read_text()))
            for name in ("code_descriptor", "gray")}


# (argv, n, m, k) of each streamed enumeration.
STREAMS = [
    (["enum-selfdual", "--n", "15", "--m", "1", "--k", "2"], 15, 1, 2),
    (["enum-selfdual", "--n", "21", "--m", "1", "--k", "2"], 21, 1, 2),
    (["enum-selfdual", "--n", "9", "--m", "2", "--k", "2"], 9, 2, 2),
    (["enum-selfdual", "--n", "15", "--m", "1", "--k", "3"], 15, 1, 3),
    (["enum-selforth", "--n", "15", "--m", "1"], 15, 1, 2),
]


def _stream_ok(out, fd, k, count, valid) -> bool:
    code, stdout, err = out
    lines = stdout.splitlines()
    if code != 0 or err or len(lines) != count or len(set(lines)) != count:
        return False
    for line in lines:
        obj = json.loads(line)
        if not valid(obj):
            return False
        parsed = cli.parse_code(obj, fd)
        if parsed.k != k or cli.format_code(parsed) != obj:
            return False
    return True


def _hull_ok(out, desc, valid) -> bool:
    # every streamed k = 2 code is self-orthogonal, so its hull is itself
    code, stdout, err = out
    return code == 0 and not err and valid(obj := json.loads(stdout)) \
        and obj == desc


def _gray_ok(out, code_obj, valid) -> bool:
    exit_code, stdout, err = out
    if exit_code != 0 or err:
        return False
    obj = json.loads(stdout)
    n, m = code_obj.n, code_obj.m
    rank = code_obj.size_log2() // m
    if not (valid(obj) and obj["length"] == 4 * n and obj["m"] == m
            and obj["rank"] == rank == len(obj["rows"])):
        return False
    if m > 1:
        return True
    rows = [int(r, 16) for r in obj["rows"]]
    return binary_rank_and_gram(rows, 4 * n) == (rank, True)


def _rejected(out) -> bool:
    code, _, err = out
    return code == 2 and not any(line.startswith("Traceback")
                                 for line in err.splitlines())


def _malformed(k3: dict) -> list[str]:
    base = {"n": 3, "m": 1, "k": 2, "modulus": "0x3",
            "components": [{"j": 0, "kind": "u_pow", "i": 1},
                           {"j": 1, "kind": "u_pow", "i": 1}]}
    c0, c1 = base["components"]
    bad = [
        base | {"components": [{"j": 0, "kind": "bogus"}, c1]},
        base | {"modulus": "0xZZ"},
        base | {"n": 4},
        base | {"n": -1},
        base | {"m": 0},
        base | {"n": "three"},
        {"n": 3, "m": 1, "k": 2},
        base | {"components": [c0, c1 | {"j": 5}]},
        base | {"components": [c0, c0]},
        base | {"components": [c0, {"j": 1, "kind": "u_pow", "i": 7}]},
        base | {"components": [c0, {"j": 1, "kind": "mixed_one", "i": 1,
                                    "t": 0, "omega": "0x1"}]},
        base | {"components": [c0, {"j": 1, "kind": "mixed_one", "i": 1,
                                    "t": 0, "omega": ["0x0"]}]},
        [1, 2],
        k3,
    ]
    return [json.dumps(b) for b in bad] + ["{not json"]


def cli_roundtrip(seed: int, threads: int) -> list[Item]:
    rng = random.Random(seed)
    validators = _validators()
    valid_code = validators["code_descriptor"].is_valid
    valid_gray = validators["gray"].is_valid
    items = []
    pools = []
    for argv, n, m, k in STREAMS:
        fd = uc.factor_xn_minus_1(n, m)
        if argv[0] == "enum-selfdual":
            codes = list(uc.enumerate_selfdual(n, m, k, fd))
            count = uc.count_selfdual(n, m, k, fd)
        else:
            codes = list(uc.enumerate_selforthogonal(n, m, fd))
            count = uc.count_selforthogonal(n, m, fd)
        items.append(Item("stream", lambda a=argv: call_cli(a),
                          lambda out, fd=fd, k=k, c=count:
                          _stream_ok(out, fd, k, c, valid_code)))
        pools.append(codes)
    k3 = cli.format_code(rng.choice(pools[3]))
    # the same mix of commands, streams and code sizes for every seed: 50
    # hull and 50 gray calls on descriptors drawn from each k = 2 stream
    for pool in pools[:3] + pools[4:]:
        for index, code in enumerate(spread_sample(rng, pool, 100)):
            desc = cli.format_code(code)
            text = json.dumps(desc)
            if index % 2 == 0:
                items.append(Item("hull", lambda t=text: call_cli(
                    ["hull", "--code", t]), lambda out, d=desc: _hull_ok(
                        out, d, valid_code)))
            else:
                items.append(Item("gray", lambda t=text: call_cli(
                    ["gray", "--code", t]), lambda out, c=code: _gray_ok(
                        out, c, valid_gray)))
    items += [Item("malformed", lambda t=t, cmd=cmd: call_cli(
        [cmd, "--code", t]), _rejected)
        for t in _malformed(k3) for cmd in ("hull", "gray")]
    return items


WORKLOADS = {
    "catalog-30": catalog_30,
    "distance-scan": distance_scan,
    "oracle-crosscheck": oracle_crosscheck,
    "cli-roundtrip": cli_roundtrip,
}
