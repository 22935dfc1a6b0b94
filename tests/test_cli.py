import json
import sys
from pathlib import Path

import pytest

from chiral444.cli import main

DATA = Path(__file__).resolve().parent.parent / "src" / "chiral444" / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_subgroup_index(capsys):
    code, out, _ = run_cli(capsys, "enumerate", str(DATA / "U.pres"),
                           "--subgroup", "(a*c^-1)^4,(c^-1*a)^4")
    assert code == 0
    assert "index 1024" in out


def test_enumerate_second_pair(capsys):
    code, out, _ = run_cli(capsys, "enumerate", str(DATA / "U.pres"),
                           "--subgroup", "(b*c^-1)^4,(c^-1*b)^4")
    assert code == 0
    assert "index 2048" in out


def test_enumerate_require_complete_exit_two(capsys):
    code, out, _ = run_cli(capsys, "enumerate", str(DATA / "U.pres"),
                           "--max-cosets", "100", "--require-complete")
    assert code == 2
    assert "partial" in out


def test_enumerate_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_text("gens a; rels a*;")
    code, _, err = run_cli(capsys, "enumerate", str(bad))
    assert code == 1
    assert "parse error" in err


def test_enumerate_missing_file_exit_one(capsys):
    code, _, err = run_cli(capsys, "enumerate", "/nonexistent.pres")
    assert code == 1


def test_enumerate_dump_is_standardized(capsys):
    code, out, _ = run_cli(capsys, "enumerate", str(DATA / "G1.pres"),
                           "--strategy", "felsch", "--dump")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index 1024"
    assert len(lines) == 1 + 1024
    code2, out2, _ = run_cli(capsys, "enumerate", str(DATA / "G1.pres"),
                             "--strategy", "hlt", "--dump")
    assert out2.strip().split("\n")[1:] == lines[1:]


def test_verify_q1_json_round_trip(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--family", "Q", "--m", "1",
                           "--jobs", "1", "--json", str(path))
    assert code == 0
    assert "order 2048" in out and "verdict=chiral" in out
    doc = json.loads(path.read_text())
    assert doc["aggregate_pass"] is True
    assert doc["members"][0]["order"] == 2048
    assert doc["members"][0]["schema_version"] == 1
    # round trip: emitting the parsed document reproduces it
    assert json.loads(json.dumps(doc)) == doc


def _strip_timings(doc):
    for m in doc["members"]:
        m.pop("timings_ms", None)
    return doc


def test_verify_json_deterministic_modulo_timings(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli(capsys, "verify", "--family", "Q", "--m", "1", "--jobs", "1",
            "--json", str(p1))
    run_cli(capsys, "verify", "--family", "Q", "--m", "1", "--jobs", "1",
            "--json", str(p2))
    d1 = _strip_timings(json.loads(p1.read_text()))
    d2 = _strip_timings(json.loads(p2.read_text()))
    assert d1 == d2


def test_verify_exit_code_tracks_aggregate(tmp_path, capsys):
    # the first family-P member fails the direct intersection condition
    # (see the axiom analysis in the project notes), so verify reports FAIL
    path = tmp_path / "p1.json"
    code, out, _ = run_cli(capsys, "verify", "--family", "P", "--m", "1",
                           "--jobs", "1", "--json", str(path))
    assert code == 3
    doc = json.loads(path.read_text())
    assert doc["aggregate_pass"] is False
    assert doc["members"][0]["intersection_condition"] is False
    assert doc["members"][0]["order"] == 1024
    assert doc["members"][0]["verdict"] == "chiral"


def test_verify_parallel_two_members(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "Q", "--m", "1..2",
                           "--jobs", "2")
    assert code == 0
    assert "Q m=1" in out and "Q m=2" in out
    assert "aggregate: pass" in out


def test_verify_bad_range_exit_one(capsys):
    code, _, _ = run_cli(capsys, "verify", "--family", "Q", "--m", "0")
    assert code == 1


def test_conjugation_table(capsys):
    code, out, _ = run_cli(capsys, "conjugation", "--family", "P")
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 7
    assert all("verified" in l and "unverified" not in l for l in lines)


def test_conjugation_tiny_cap_unverified(capsys):
    code, out, _ = run_cli(capsys, "conjugation", "--family", "P",
                           "--max-cosets", "10")
    assert code == 3
    assert "unverified within cap" in out


def test_polytope_command_q1(capsys, tmp_path):
    dump = tmp_path / "geom.txt"
    code, out, _ = run_cli(capsys, "polytope", "--family", "Q", "--m", "1",
                           "--dump-geometry", str(dump))
    assert code == 0
    assert "flags: 4096" in out
    assert "P1 True  P2 True  P3 True  P4 True" in out
    assert dump.read_text().startswith("-1 0 :")


def test_corollary_command(capsys):
    code, out, _ = run_cli(capsys, "corollary", "--k-max", "1")
    assert code == 0
    assert "n=10" in out and "n=13" in out


def test_usage_error_exit_one(capsys):
    code = main(["verify"])  # missing required --family
    assert code == 1


def test_verify_parallel_cap_exit_two(capsys):
    # Q's m = 1 table needs 2048 cosets, so both workers hit the cap, and the
    # error must cross the process pool intact
    code, _, err = run_cli(capsys, "verify", "--family", "Q", "--m", "1..2",
                           "--max-cosets", "1000", "--jobs", "2")
    assert code == 2
    assert "cap of 1000 cosets" in err
