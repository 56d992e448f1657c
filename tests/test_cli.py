"""The command-line surface: wire formats, schemas, exit codes, determinism."""
from __future__ import annotations

import json
from importlib import resources

import jsonschema
import pytest

from ucyclic import cli
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
    for code in enumerate_cyclic(3, 2, 2):
        desc = cli.format_code(code)
        jsonschema.validate(desc, schema("code_descriptor.schema.json"))
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


def test_gray_code_from_file(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(SD7)
    rc, out = run(capsys, "gray", "--code", f"@{path}", "--mindist")
    assert rc == 0 and json.loads(out)["min_distance"] >= 1


# ---------------------------------------------------------------------------
# verify / exit codes
# ---------------------------------------------------------------------------

def test_verify_passes(capsys):
    rc, out = run(capsys, "verify", "--n", "3", "--m", "1", "--k", "2")
    assert rc == 0
    assert "FAIL" not in out and "all checks passed" in out


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


def test_k_below_one_exits_2(capsys):
    for argv in (["count-ideals", "--q", "4", "--k", "-1"],
                 ["count-ideals", "--q", "4", "--k", "0"],
                 ["enum-ideals", "--q", "4", "--k", "0"]):
        rc, out = run(capsys, *argv)
        assert rc == 2 and out == "", argv
