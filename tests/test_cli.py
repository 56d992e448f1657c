"""The command-line surface: wire formats, schemas, exit codes, determinism."""
from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucyclic import cli
from ucyclic import duality as du
from ucyclic import gray as gr
from ucyclic import selfdual as sd
from ucyclic.gf import f2x_degree, f2x_is_irreducible
from ucyclic.ideals import KINDS
from ucyclic.selfdual import enumerate_cyclic, enumerate_selfdual, is_self_dual


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def schema(name: str) -> dict:
    ref = resources.files("ucyclic") / "schemas" / name
    return json.loads(ref.read_text())


def jsonlines(out: str):
    return [json.loads(line) for line in out.splitlines() if line]


# ---------------------------------------------------------------------------
# counting / tables
# ---------------------------------------------------------------------------

def test_count_ideals(capsys):
    rc, out = run(capsys, "count-ideals", "--q", "2", "--k", "6")
    assert rc == 0 and out.strip() == "59"


def test_count_selfdual(capsys):
    rc, out = run(capsys, "count-selfdual", "--n", "15", "--m", "1", "--k", "2")
    assert rc == 0 and out.strip() == "945"


def test_count_selforth(capsys):
    rc, out = run(capsys, "count-selforth", "--n", "7", "--m", "1")
    assert rc == 0 and out.strip() == "275"


def test_tables_lk(capsys):
    rc, out = run(capsys, "tables", "--lk")
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert [int(r[1]) for r in rows] == [7, 13, 23, 37, 59, 89, 135, 197]


def test_tables_section4(capsys):
    rc, out = run(capsys, "tables", "--paper-section", "4")
    lines = out.strip().splitlines()
    assert rc == 0 and len(lines) == 24
    assert lines[0] == "6,9"
    assert lines[-1] == "98,81789123"


def test_tables_section5(capsys):
    rc, out = run(capsys, "tables", "--paper-section", "5")
    lines = out.strip().splitlines()
    assert rc == 0 and len(lines) == 24
    assert lines[0] == "6,25"
    assert lines[1] == "10,35"      # census-consistent value


def test_tables_deterministic(capsys):
    _, out1 = run(capsys, "tables", "--paper-section", "4")
    _, out2 = run(capsys, "tables", "--paper-section", "4")
    assert out1 == out2


# ---------------------------------------------------------------------------
# factor / enumerations / schemas
# ---------------------------------------------------------------------------

def test_factor_output_schema(capsys):
    rc, out = run(capsys, "factor", "--n", "15", "--m", "1")
    assert rc == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("factor.schema.json"))
    assert obj["num_selfrec"] == 3 and obj["num_pairs"] == 1
    assert obj["pairing"] == [0, 1, 2, 4, 3]
    assert obj["modulus"] == "0x3"


def test_enum_ideals_schema_and_limit(capsys):
    rc, out = run(capsys, "enum-ideals", "--q", "4", "--k", "3")
    assert rc == 0
    lines = jsonlines(out)
    assert len(lines) == 7 + 3 * 4
    sch = schema("ideal_label.schema.json")
    for obj in lines:
        jsonschema.validate(obj, sch)
    rc, out = run(capsys, "enum-ideals", "--q", "4", "--k", "3",
                  "--limit", "5")
    assert rc == 0 and len(jsonlines(out)) == 5


def test_enum_selfdual_schema(capsys):
    rc, out = run(capsys, "enum-selfdual", "--n", "7", "--m", "1", "--k", "2")
    assert rc == 0
    lines = jsonlines(out)
    assert len(lines) == 39
    sch = schema("code_descriptor.schema.json")
    for obj in lines:
        jsonschema.validate(obj, sch)
    # descriptors parse back to the same codes, in order
    codes = list(enumerate_selfdual(7, 1, 2))
    parsed = [cli.parse_code(obj) for obj in lines]
    assert parsed == codes


def test_enum_selforth_limit(capsys):
    rc, out = run(capsys, "enum-selforth", "--n", "5", "--m", "1",
                  "--limit", "10")
    assert rc == 0 and len(jsonlines(out)) == 10


def test_descriptor_roundtrip_m2(capsys):
    # omegas over F_4 exercise the m-bit hex packing
    sch = schema("code_descriptor.schema.json")
    jsonschema.Draft202012Validator.check_schema(sch)
    validator = jsonschema.Draft202012Validator(sch)
    for code in enumerate_cyclic(3, 2, 2):
        desc = cli.format_code(code)
        validator.validate(desc)
        assert cli.parse_code(desc) == code


# ---------------------------------------------------------------------------
# hull / gray
# ---------------------------------------------------------------------------

SD7 = json.dumps({
    "n": 7, "m": 1, "k": 2, "modulus": "0x3",
    "components": [{"j": 0, "kind": "u_f", "s": 0},
                   {"j": 1, "kind": "u_pow", "i": 0},
                   {"j": 2, "kind": "u_pow", "i": 2}]})


def test_hull_of_selfdual_is_identity(capsys):
    rc, out = run(capsys, "hull", "--code", SD7)
    assert rc == 0
    assert json.loads(out) == json.loads(SD7)


def test_gray_genmatrix(capsys):
    rc, out = run(capsys, "gray", "--code", SD7)
    assert rc == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("gray.schema.json"))
    assert obj["length"] == 28 and obj["rank"] == 14
    assert len(obj["rows"]) == 14


def test_gray_weights_and_mindist(capsys):
    rc, out = run(capsys, "gray", "--code", SD7, "--weights")
    assert rc == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("gray.schema.json"))
    dist = {int(w): c for w, c in obj["distribution"].items()}
    assert sum(dist.values()) == 1 << 14
    rc, out = run(capsys, "gray", "--code", SD7, "--mindist")
    assert rc == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("gray.schema.json"))
    assert obj["min_distance"] == min(w for w in dist if w)


def _mindist_descriptors() -> list[str]:
    # two self-dual codes at m = 2, and codes that are not self-dual at
    # m = 1 and m = 2, each image with at most 2^20 words
    out = [cli.format_code(c) for c in list(enumerate_selfdual(3, 2, 2))[::30]]
    for n, m in ((5, 1), (3, 2)):
        codes = [c for c in enumerate_cyclic(n, m, 2)
                 if 0 < c.size_log2() <= 20 and not is_self_dual(c)]
        out += [cli.format_code(c) for c in codes[::len(codes) // 2]]
    return [json.dumps(d) for d in out]


@pytest.mark.parametrize("desc", _mindist_descriptors())
def test_gray_mindist_matches_weights(capsys, desc):
    rc, out = run(capsys, "gray", "--code", desc, "--weights")
    assert rc == 0
    dist = {int(w): c for w, c in json.loads(out)["distribution"].items()}
    rc, out = run(capsys, "gray", "--code", desc, "--mindist")
    assert rc == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("gray.schema.json"))
    assert obj["min_distance"] == min(w for w in dist if w)


def test_gray_grid(capsys):
    rc, out = run(capsys, "gray", "--code", SD7, "--grid")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    assert all(len(line) == 28 and set(line) <= {"0", "1"} for line in lines)


def test_gray_non_selfdual_falls_back(capsys):
    desc = json.dumps({
        "n": 3, "m": 1, "k": 2, "modulus": "0x3",
        "components": [{"j": 0, "kind": "u_pow", "i": 0},
                       {"j": 1, "kind": "u_pow", "i": 0}]})
    rc, out = run(capsys, "gray", "--code", desc)
    assert rc == 0
    obj = json.loads(out)
    assert obj["rank"] == 12            # the full ambient space


K3_CODE = json.dumps({
    "n": 1, "m": 1, "k": 3, "modulus": "0x3",
    "components": [{"j": 0, "kind": "u_pow", "i": 1}]})


@pytest.mark.parametrize("desc,rc_want", [
    (SD7, 0),                                       # self-dual
    (json.dumps({"n": 3, "m": 1, "k": 2, "modulus": "0x3",
                 "components": [{"j": 0, "kind": "u_pow", "i": 0},
                                {"j": 1, "kind": "u_pow", "i": 0}]}), 0),
    (K3_CODE, 2),                                   # no Gray map at k = 3
], ids=["selfdual", "not-selfdual", "k3"])
def test_gray_tests_self_duality_once(capsys, monkeypatch, desc, rc_want):
    # the block table serves every k = 2 code, so nothing tests self-duality
    seen = []
    monkeypatch.setattr(sd, "is_self_dual", seen.append)
    rc, _ = run(capsys, "gray", "--code", desc)
    assert rc == rc_want
    assert seen == []


def test_gray_code_from_file(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(SD7)
    rc, out = run(capsys, "gray", "--code", f"@{path}", "--mindist")
    assert rc == 0 and json.loads(out)["min_distance"] >= 1


# ---------------------------------------------------------------------------
# verify / exit codes
# ---------------------------------------------------------------------------

def verify_rows(out: str) -> list[tuple[str, str]]:
    """(status, check name) per PASS/FAIL/SKIP line of a verify report."""
    return re.findall(r"^(PASS|FAIL|SKIP)  (.+?)  \(", out, re.M)


VERIFY_3_1_2 = ["ideal-census j=0", "ideal-census j=1", "theta j=1 s=1",
                "selfdual-count", "selfdual-membership", "selfdual-filter",
                "hull-oracle", "selforth-count", "selforth-membership",
                "gray-genmatrix"]


def test_verify_passes(capsys):
    rc, out = run(capsys, "verify", "--n", "3", "--m", "1", "--k", "2")
    assert rc == 0
    assert verify_rows(out) == [("PASS", name) for name in VERIFY_3_1_2]
    assert out.endswith("all checks passed\n")


def test_verify_samples_past_the_old_ambient_cap(capsys):
    """Length 30 checks membership and hulls on 200 drawn codes each; only
    the exhaustive walks are refused, each naming its size."""
    rc, out = run(capsys, "verify", "--n", "15", "--m", "1", "--k", "2")
    assert rc == 0
    rows = dict((name, status) for status, name in verify_rows(out))
    for name in ("selfdual-membership", "hull-oracle", "selforth-membership"):
        assert rows[name] == "PASS"
        assert f"PASS  {name}  (200 codes" in out
    assert [n for n, st in rows.items() if st == "SKIP"] == [
        "ideal-census j=2", "ideal-census j=3", "selfdual-filter"]
    assert "SKIP  selfdual-filter  (walk of 2^60 vectors of R^(2n) > " \
        "cap 2^14)" in out
    assert "SKIP  ideal-census j=2  (walk of 2^16 vectors" in out


def test_verify_skips_duality_rows_off_k2(capsys):
    rc, out = run(capsys, "verify", "--n", "1", "--m", "1", "--k", "3")
    assert rc == 0
    assert verify_rows(out) == [
        ("PASS", "ideal-census j=0"), ("PASS", "selfdual-count"),
        ("PASS", "selfdual-membership"), ("PASS", "selfdual-filter"),
        ("SKIP", "hull-oracle"), ("SKIP", "selforth-count"),
        ("SKIP", "selforth-membership"), ("SKIP", "gray-genmatrix")]
    assert out.count("k = 2 only") == 4


def _shift_right_half(gm: gr.GenMatrix) -> gr.GenMatrix:
    """(l | r) -> (l | x r) on every row, the right half shifted one lane:
    rank, Gram matrix and 2-quasi-cyclic shifts are unchanged, so only the
    comparison with the span oracle sees that the row space moved."""
    m, hw = gm.ctx.m, 2 * gm.n * gm.ctx.m
    half = (1 << hw) - 1

    def shift(y: int) -> int:
        return (y << m) & half | y >> (hw - m)
    return gr.GenMatrix(gm.ctx, gm.n, packed=tuple(
        v & half | shift(v >> hw) << hw for v in gm.packed))


@pytest.mark.parametrize("module,name,broken,failing", [
    # is_self_orthogonal reads the hull, which the Gray row's Gram check
    # holds to the Gray image
    (du, "hull", lambda orig: lambda code: code,
     ["hull-oracle", "gray-genmatrix"]),
    (sd, "count_selfdual",
     lambda orig: lambda *a, **kw: orig(*a, **kw) + 1,
     ["selfdual-count", "selfdual-filter"]),
    (du, "count_selforthogonal",
     lambda orig: lambda *a, **kw: orig(*a, **kw) + 1, ["selforth-count"]),
    (gr, "generator_matrix", lambda orig: lambda code: _shift_right_half(
        orig(code)), ["gray-genmatrix"]),
    # 0|E in place of 0|F: rank and row count hold, the row space moves,
    # and no self-dual code has a component of this (a, b)
    (gr, "_BLOCKS", lambda orig: orig | {
        (1, 0): (("E", "E"), ("F", "F"), ("0", "E"))}, ["gray-genmatrix"]),
], ids=["hull", "count_selfdual", "count_selforthogonal", "generator_matrix",
        "gray_blocks_1_0"])
def test_verify_fails_on_broken_closed_form(capsys, monkeypatch, module,
                                            name, broken, failing):
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    rc, out = run(capsys, "verify", "--n", "3", "--m", "1", "--k", "2")
    assert rc == 3
    rows = verify_rows(out)
    assert [n for _, n in rows] == VERIFY_3_1_2
    assert [n for st, n in rows if st == "FAIL"] == failing
    assert f"{len(failing)} check(s) FAILED" in out


def test_exit_code_bad_descriptor(capsys):
    rc, _ = run(capsys, "hull", "--code", '{"n": 7}')
    assert rc == 2
    rc, _ = run(capsys, "hull", "--code", "not json")
    assert rc == 2
    # out-of-range label parameters are rejected, not silently accepted
    bad = json.dumps({
        "n": 3, "m": 1, "k": 2, "modulus": "0x3",
        "components": [{"j": 0, "kind": "u_pow", "i": 9},
                       {"j": 1, "kind": "u_pow", "i": 0}]})
    rc, _ = run(capsys, "hull", "--code", bad)
    assert rc == 2


def test_exit_code_unsupported_k(capsys):
    desc = json.dumps({
        "n": 1, "m": 1, "k": 3, "modulus": "0x3",
        "components": [{"j": 0, "kind": "u_pow", "i": 1}]})
    rc, _ = run(capsys, "hull", "--code", desc)
    assert rc == 2


def test_exit_code_mindist_of_zero_code(capsys):
    desc = json.dumps({
        "n": 1, "m": 1, "k": 2, "modulus": "0x3",
        "components": [{"j": 0, "kind": "u_pow", "i": 2}]})
    rc, _ = run(capsys, "gray", "--code", desc, "--mindist")
    assert rc == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["tables"])            # missing required option group
    assert exc.value.code == 2


def test_parse_label_rejects_stray_fields():
    from ucyclic.errors import BadDescriptor
    from ucyclic.gf import FieldCtx
    with pytest.raises(BadDescriptor):
        cli.parse_label(FieldCtx(1), {"kind": "u_pow", "i": 0, "zzz": 1})
    with pytest.raises(BadDescriptor):
        cli.parse_label(FieldCtx(1), {"kind": "wat"})
    with pytest.raises(BadDescriptor):
        cli.parse_label(FieldCtx(1), {"kind": "u_f", "s": "one"})


def _with_j1(fields: dict) -> list[dict]:
    """SD7's components, the one at j = 1 (a u_pow label) given fields."""
    return [c | fields if c["j"] == 1 else c
            for c in json.loads(SD7)["components"]]


SD7_J_BOOL = _with_j1({"j": True})
SD7_MIXED = [{"j": 0, "kind": "u_f", "s": 0},
             {"j": 1, "kind": "mixed_one", "i": 1, "t": 0, "omega": ["0x1"]},
             {"j": 2, "kind": "mixed_one", "i": 1, "t": 0, "omega": ["0x1"]}]


def _omega(entry) -> list[dict]:
    return [c | {"omega": [entry]} if "omega" in c else c for c in SD7_MIXED]


def _without_modulus() -> dict:
    desc = json.loads(SD7)
    del desc["modulus"]
    return desc


# One case list for both sides of the wire format: each change to SD7 is
# either valid under code_descriptor.schema.json and accepted by the CLI, or
# invalid there and refused with exit code 2.  (int() would read 7.5 as 7,
# "7" as 7, 2.9 as 2, true as 1 and "0X3", "3" or "0x_3" as 3.)
DESCRIPTOR_CASES = {
    "n-float": ({"n": 7.5}, False),
    "n-string": ({"n": "7"}, False),
    "k-float": ({"k": 2.9}, False),
    "m-bool": ({"m": True}, False),
    "n-zero": ({"n": 0}, False),
    "k-negative": ({"k": -2}, False),
    "unknown-key": ({"extra": 1}, False),
    "j-bool": ({"components": SD7_J_BOOL}, False),
    "modulus-upper-prefix": ({"modulus": "0X3"}, False),
    "modulus-no-prefix": ({"modulus": "3"}, False),
    "modulus-underscore": ({"modulus": "0x_3"}, False),
    "modulus-null": ({"modulus": None}, False),
    "omega-no-prefix": ({"components": _omega("1")}, False),
    "omega-null": ({"components": _with_j1({"omega": None})}, False),
    "param-null": ({"components": _with_j1({"t": None})}, False),
    "modulus-omitted": (None, True),
    "modulus-given": ({"modulus": "0x3"}, True),
    "omega-given": ({"components": SD7_MIXED}, True),
}


@pytest.mark.parametrize("case", list(DESCRIPTOR_CASES))
def test_descriptor_fields_match_schema(capsys, case):
    change, valid = DESCRIPTOR_CASES[case]
    desc = _without_modulus() if change is None else json.loads(SD7) | change
    validator = jsonschema.Draft202012Validator(
        schema("code_descriptor.schema.json"))
    assert validator.is_valid(desc) == valid
    for cmd in ("hull", "gray"):
        rc, out = run(capsys, cmd, "--code", json.dumps(desc))
        if valid:
            assert rc == 0 and json.loads(out)
        else:
            assert rc == 2 and out == ""


def test_m_above_cap_exits_4(capsys):
    from ucyclic.cyclotomic import MAX_M
    m = str(MAX_M + 1)
    rc, out = run(capsys, "factor", "--n", "3", "--m", m)
    assert rc == 4 and out == ""
    rc, out = run(capsys, "count-selfdual", "--n", "3", "--m", m, "--k", "2")
    assert rc == 4 and out == ""
    desc = json.loads(SD7) | {"m": MAX_M + 1}
    rc, out = run(capsys, "hull", "--code", json.dumps(desc))
    assert rc == 4 and out == ""


def test_verify_below_k2_exits_2_before_printing(capsys):
    for k in ("1", "0"):
        rc, out = run(capsys, "verify", "--n", "3", "--m", "1", "--k", k)
        assert rc == 2 and out == "", k


def test_k_above_class_table_cap_exits_4(capsys):
    from ucyclic.ideals import MAX_K
    k = str(MAX_K + 1)
    rc, out = run(capsys, "enum-ideals", "--q", "2", "--k", k, "--limit", "1")
    assert rc == 4 and out == ""
    desc = json.loads(SD7) | {"k": MAX_K + 1}
    rc, out = run(capsys, "hull", "--code", json.dumps(desc))
    assert rc == 4 and out == ""


def test_k_below_one_exits_2(capsys):
    for argv in (["count-ideals", "--q", "4", "--k", "-1"],
                 ["count-ideals", "--q", "4", "--k", "0"],
                 ["enum-ideals", "--q", "4", "--k", "0"]):
        rc, out = run(capsys, *argv)
        assert rc == 2 and out == "", argv


# ---------------------------------------------------------------------------
# one parser per process; the wire bytes of the JSON emitter
# ---------------------------------------------------------------------------

def call(argv):
    """cli.main in-process without a pytest fixture: (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_threads_read_from_environment_per_call(capsys, monkeypatch):
    seen = []
    real = gr.weight_distribution

    def record(gm, threads=1):
        seen.append(threads)
        return real(gm, threads=1)

    monkeypatch.setattr(gr, "weight_distribution", record)
    for env, flag in (("2", []), ("3", []), (None, []),
                      ("3", ["--threads", "4"]), ("x", []), ("5", [])):
        if env is None:
            monkeypatch.delenv("UCYCLIC_THREADS", raising=False)
        else:
            monkeypatch.setenv("UCYCLIC_THREADS", env)
        rc, _ = run(capsys, "gray", "--code", SD7, "--weights", *flag)
        assert rc == 0
    assert seen == [2, 3, 1, 4, 1, 5]


# commands whose options could leak from one parse into the next
ALTERNATING = [
    ["gray", "--code", SD7, "--weights", "--threads", "2"],
    ["gray", "--code", SD7],
    ["gray", "--code", SD7, "--grid"],
    ["gray", "--code", SD7, "--mindist"],
    ["hull", "--code", SD7],
    ["enum-selfdual", "--n", "7", "--m", "1", "--k", "2", "--limit", "3"],
    ["enum-selfdual", "--n", "7", "--m", "1", "--k", "2"],
    ["factor", "--n", "7", "--m", "3", "--modulus", "d"],
    ["factor", "--n", "7", "--m", "3"],
    ["enum-ideals", "--q", "4", "--k", "3", "--limit", "2"],
    ["enum-ideals", "--q", "4", "--k", "3"],
    ["tables", "--lk"],
    ["count-selforth", "--n", "7", "--m", "1"],
]


def test_alternating_subcommands_leak_no_state():
    first = {" ".join(argv): call(argv) for argv in ALTERNATING}
    # no --limit 3 left over, and --modulus d not kept for the next factor
    assert len(first["enum-selfdual --n 7 --m 1 --k 2"][1].splitlines()) == 39
    assert '"modulus": "0xb"' in first["factor --n 7 --m 3"][1]
    for order in (ALTERNATING[::-1], ALTERNATING[1::2] + ALTERNATING[::2]):
        for argv in order:
            assert call(argv) == first[" ".join(argv)], argv


def _json_dump_emit(obj) -> None:
    # the emitter before json.dumps: json.dump through the Python encoder
    json.dump(obj, sys.stdout, separators=(", ", ": "))
    sys.stdout.write("\n")


WIRE = [
    ["enum-selfdual", "--n", "3", "--m", "2", "--k", "4"],
    ["enum-selfdual", "--n", "3", "--m", "3", "--k", "2", "--modulus", "d"],
    ["enum-selforth", "--n", "5", "--m", "1"],
    ["enum-ideals", "--q", "4", "--k", "3"],
    ["factor", "--n", "15", "--m", "1"],
    ["factor", "--n", "9", "--m", "2"],
    ["factor", "--n", "7", "--m", "3", "--modulus", "d"],
    ["hull", "--code", SD7],
    ["gray", "--code", SD7],
    ["gray", "--code", SD7, "--weights"],
    ["gray", "--code", SD7, "--mindist"],
]


def test_wire_bytes_match_json_dump(monkeypatch):
    for argv in WIRE + [[cmd, "--code", json.dumps(cli.format_code(code))]
                        for code in list(enumerate_cyclic(3, 2, 2))[::97]
                        for cmd in ("hull", "gray")]:
        rc, out, err = call(argv)
        assert rc == 0 and out and not err, argv
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_emit", _json_dump_emit)
            assert call(argv) == (rc, out, err), argv
    factor = json.loads(call(WIRE[6])[1])
    assert len(factor["idempotents"]) == len(factor["factors"]) == 7


# (argv, the library's enumeration of the same codes) for each stream
STREAMED = [
    (["enum-selfdual", "--n", "3", "--m", "2", "--k", "4"],
     lambda: enumerate_selfdual(3, 2, 4)),
    (["enum-selfdual", "--n", "3", "--m", "3", "--k", "2", "--modulus", "d"],
     lambda: enumerate_selfdual(3, 3, 2, modulus=0xd)),
    (["enum-selfdual", "--n", "15", "--m", "1", "--k", "3"],
     lambda: enumerate_selfdual(15, 1, 3)),
    (["enum-selfdual", "--n", "1", "--m", "1", "--k", "5"],
     lambda: enumerate_selfdual(1, 1, 5)),
    (["enum-selfdual", "--n", "9", "--m", "2", "--k", "2"],   # two pairs
     lambda: enumerate_selfdual(9, 2, 2)),
    (["enum-selforth", "--n", "5", "--m", "1"],
     lambda: du.enumerate_selforthogonal(5, 1)),
    (["enum-selforth", "--n", "1", "--m", "3"],
     lambda: du.enumerate_selforthogonal(1, 3)),
]


@pytest.mark.parametrize("argv, codes", STREAMED,
                         ids=[" ".join(a[1:]) for a, _ in STREAMED])
def test_stream_lines_are_json_dumps_of_format_code(argv, codes):
    want = [json.dumps(cli.format_code(c), separators=(", ", ": ")) + "\n"
            for c in codes()]
    rc, out, err = call(argv)
    assert (rc, err) == (0, "") and out.splitlines(keepends=True) == want
    # len // 2 + 1 cuts the first list with more than two entries short
    for limit in (0, 1, 7, len(want) // 2 + 1):
        rc, out, err = call(argv + ["--limit", str(limit)])
        assert (rc, err) == (0, "") and out == "".join(want[:limit])


def test_limited_stream_encodes_only_what_it_prints(monkeypatch):
    labels, format_label = [], cli.format_label

    def counting(ctx, label):
        labels.append(label)
        return format_label(ctx, label)
    monkeypatch.setattr(cli, "format_label", counting)
    rc, out, err = call(["enum-selfdual", "--n", "3", "--m", "4", "--k", "2",
                         "--limit", "1"])
    assert (rc, err, len(out.splitlines())) == (0, "", 1)
    # one fragment per component: the first entry of every list
    assert 0 < len(labels) <= sd.factor_data(3, 4).r


def _factor_calls(monkeypatch) -> list:
    from ucyclic.cyclotomic import factor_xn_minus_1
    seen = []

    def counting(*args):
        seen.append(args)
        return factor_xn_minus_1(*args)
    monkeypatch.setattr(cli, "factor_xn_minus_1", counting)
    cli._factored.cache_clear()
    return seen


def _u_code(n: int, m: int, modulus: str, r: int) -> dict:
    return {"n": n, "m": m, "k": 2, "modulus": modulus,
            "components": [{"j": j, "kind": "u_pow", "i": 1}
                           for j in range(r)]}


def test_descriptors_of_one_field_factor_once(monkeypatch):
    seen = _factor_calls(monkeypatch)
    codes = list(enumerate_selfdual(7, 3, 2))[::2000]
    parsed = []
    for code in codes:
        desc = cli.format_code(code)
        bare = {key: v for key, v in desc.items() if key != "modulus"}
        for obj in (desc, bare):
            for cmd in ("hull", "gray"):
                rc, out, err = call([cmd, "--code", json.dumps(obj)])
                assert rc == 0 and out and not err
            parsed.append(cli.parse_code(obj))
    assert len(codes) > 3 and seen == [(7, 3, 0xb)]
    assert all(c.fd is parsed[0].fd for c in parsed)
    # another modulus of F_8 is another field, factored apart
    other = cli.parse_code(_u_code(7, 3, "0xd", 7))
    assert seen[1:] == [(7, 3, 0xd)] and other.fd is not parsed[0].fd


def test_bad_field_is_not_memoised(monkeypatch):
    seen = _factor_calls(monkeypatch)
    bad = json.dumps(_u_code(7, 3, "0x9", 7))      # y^3 + 1 is reducible
    for cmd in ("hull", "gray", "hull"):
        assert call([cmd, "--code", bad])[:2] == (2, "")
    assert len(seen) == 3 and cli._factored.cache_info().currsize == 0


@pytest.mark.parametrize("argv", [
    ["enum-ideals", "--q", "4", "--k", "3"],
    ["enum-selfdual", "--n", "5", "--m", "1", "--k", "2"],
    ["enum-selforth", "--n", "5", "--m", "1"],
], ids=lambda argv: argv[0])
def test_negative_limit_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--limit", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--limit: must be >= 0" in captured.err


# ---------------------------------------------------------------------------
# fuzzing the descriptor boundary: every mutation below is malformed
# ---------------------------------------------------------------------------

FUZZ_BASES = [
    json.loads(SD7),
    json.loads(SD7) | {"components": SD7_MIXED},
    {"n": 3, "m": 2, "k": 4, "modulus": "0x7", "components": [
        {"j": 0, "kind": "mixed_one", "i": 2, "t": 0, "omega": ["0x1", "0x0"]},
        {"j": 1, "kind": "mixed_one", "i": 1, "t": 0, "omega": ["0x1"]},
        {"j": 2, "kind": "mixed_one", "i": 3, "t": 2, "omega": ["0x3"]}]},
    {"n": 3, "m": 3, "k": 2, "modulus": "0xd", "components": [
        {"j": 0, "kind": "mixed_one", "i": 1, "t": 0, "omega": ["0x1"]},
        {"j": 1, "kind": "mixed_one", "i": 1, "t": 0, "omega": ["0x9"]}]},
]

NOT_INT = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.lists(st.integers(0, 9), max_size=2),
                    st.dictionaries(st.text(max_size=2), st.integers(0, 9),
                                    max_size=1))
NOT_HEX = st.one_of(NOT_INT.filter(lambda v: not isinstance(v, str)),
                    st.text(max_size=6).filter(
                        lambda v: not re.fullmatch(r"0x[0-9a-f]+", v)))
ANY_INT = st.integers(-10 ** 6, 10 ** 6)


def _replace(desc, c, fields, drop=()):
    comps = [dict(e) for e in desc["components"]]
    comps[c] = {key: v for key, v in (comps[c] | fields).items()
                if key not in drop}
    return desc | {"components": comps}


@st.composite
def malformed(draw):
    desc = draw(st.sampled_from(FUZZ_BASES))
    n, m, k = desc["n"], desc["m"], desc["k"]
    comps = desc["components"]
    c = draw(st.integers(0, len(comps) - 1))
    comp = comps[c]
    kind = draw(st.sampled_from([
        "drop", "retype", "range", "stray", "modulus", "components",
        "drop-component", "j", "kind", "param", "omega"]))
    if kind == "drop":
        field = draw(st.sampled_from(["n", "m", "k", "components"]))
        return {key: v for key, v in desc.items() if key != field}
    if kind == "retype":
        field = draw(st.sampled_from(["n", "m", "k"]))
        return desc | {field: draw(NOT_INT)}
    if kind == "range":
        field = draw(st.sampled_from(["n", "m", "k"]))
        bad = st.integers(-10 ** 6, 0)
        if field == "n":
            bad |= st.integers(1, 50).map(lambda v: 2 * v)
        return desc | {field: draw(bad)}
    if kind == "stray":
        key = draw(st.text(min_size=1, max_size=5).filter(
            lambda v: v not in desc))
        return desc | {key: draw(ANY_INT)}
    if kind == "modulus":
        wrong = st.integers(0, 1 << (m + 3)).filter(
            lambda v: not (f2x_degree(v) == m and f2x_is_irreducible(v)))
        return desc | {"modulus": draw(NOT_HEX | wrong.map(hex))}
    if kind == "components":
        return desc | {"components": draw(
            NOT_INT.filter(lambda v: not isinstance(v, list))
            | st.lists(NOT_INT, min_size=1, max_size=3))}
    if kind == "drop-component":
        return desc | {"components": comps[:c] + comps[c + 1:]}
    if kind == "j":
        others = [e["j"] for e in comps if e is not comp]
        j = draw(st.sampled_from(others) | st.integers(len(comps), 10 ** 6)
                 | st.integers(-10 ** 6, -1) | NOT_INT)
        return _replace(desc, c, {"j": j})
    if kind == "kind":
        if draw(st.booleans()):
            return _replace(desc, c, {}, drop=("kind",))
        return _replace(desc, c, {"kind": draw(
            NOT_INT | st.text(max_size=8).filter(lambda v: v not in KINDS))})
    if kind == "param":
        # i, t and s sit in [0, k - 1] (u_pow's i in [0, k]); a kind that
        # takes no such parameter refuses one
        name = draw(st.sampled_from(["i", "t", "s"]))
        value = draw(st.integers(k + 1, 10 ** 6) | st.integers(-10 ** 6, -1)
                     | NOT_INT)
        return _replace(desc, c, {name: value})
    # omega: not a list, bad hex, wrong length, degree >= n, or zero unit
    if "omega" not in comp:
        return _replace(desc, c, {"omega": ["0x1"]})
    omega = list(comp["omega"])
    at = draw(st.integers(0, len(omega) - 1))
    how = draw(st.sampled_from(["type", "hex", "long", "short", "degree",
                                "zero"]))
    if how == "type":
        omega = draw(NOT_INT.filter(lambda v: not isinstance(v, list)))
    elif how == "hex":
        omega[at] = draw(NOT_HEX)
    elif how == "long":
        omega += draw(st.lists(st.just("0x1"), min_size=1, max_size=2))
    elif how == "short":
        omega = omega[:at]
    elif how == "degree":
        omega[at] = hex(draw(st.integers(1, 1 << m)) << (m * n))
    else:
        omega[0] = "0x0"
    return _replace(desc, c, {"omega": omega})


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(malformed())
def test_malformed_descriptors_exit_2(desc):
    text = json.dumps(desc)
    for cmd in ("hull", "gray"):
        assert call([cmd, "--code", text])[:2] == (2, ""), text
