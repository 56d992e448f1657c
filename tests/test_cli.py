"""The command-line surface: wire formats, schemas, exit codes, determinism."""
from __future__ import annotations

import json
from importlib import resources

import jsonschema
import pytest

from ucyclic import cli
from ucyclic.selfdual import enumerate_selfdual, enumerate_cyclic


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


SD7_J_BOOL = [c | {"j": True} if c["j"] == 1 else c
              for c in json.loads(SD7)["components"]]


@pytest.mark.parametrize("change", [
    {"n": 7.5}, {"n": "7"}, {"k": 2.9}, {"m": True}, {"n": 0}, {"k": -2},
    {"extra": 1}, {"components": SD7_J_BOOL}],
    ids=["n-float", "n-string", "k-float", "m-bool", "n-zero", "k-negative",
         "unknown-key", "j-bool"])
def test_descriptor_fields_match_schema(capsys, change):
    # each of these breaks code_descriptor.schema.json, so the CLI refuses it
    # (int() would read 7.5 as 7, "7" as 7, 2.9 as 2 and true as 1)
    desc = json.loads(SD7) | change
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(desc, schema("code_descriptor.schema.json"))
    for cmd in ("hull", "gray"):
        rc, out = run(capsys, cmd, "--code", json.dumps(desc))
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
