import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from chiral444 import cli
from chiral444.cli import main
from chiral444.coset import enumerate_cosets
from chiral444.families import bundled_presentation

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "chiral444" / "data"


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_child(tmp_path, *argv):
    """The CLI run in a child process, killed after 120 s: its exit code,
    stdout, stderr and peak resident set in MiB.  The peak is the child's
    own ``ru_maxrss``, reaped by ``os.wait4``, so that no other child of
    this process counts; no limit is set on the child."""
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with open(out, "w") as fo, open(err, "w") as fe:
        proc = subprocess.Popen([sys.executable, "-m", "chiral444", *argv],
                                stdout=fo, stderr=fe, env=_src_env())
        timer = threading.Timer(120, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.read_text(), err.read_text(), usage.ru_maxrss / 1024


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


def test_enumerate_file_not_utf8_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_bytes(b"gens a;\xff rels a^2;")
    code, out, err = run_cli(capsys, "enumerate", str(bad))
    assert code == 1 and out == ""
    assert err == (f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff in "
                   f"position 7: invalid start byte\n")


def test_enumerate_closes_its_file():
    # in a child process in development mode, where an unclosed file is
    # reported when it is collected, and raised as an error here
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-m", "chiral444", "enumerate", str(DATA / "G1.pres")],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0 and "index 1024" in proc.stdout
    assert "ResourceWarning" not in proc.stderr


def test_enumerate_dump_is_standardized(capsys):
    code, out, err = run_cli(capsys, "enumerate", str(DATA / "G1.pres"), "--dump")
    assert code == 0 and err.startswith("[enumerate] felsch definitions=1060 ")
    lines = out.strip().split("\n")
    assert lines[0] == "index 1024"
    assert len(lines) == 1 + 1024
    table = enumerate_cosets(bundled_presentation("G1"), []).standardize()
    assert "".join(l + "\n" for l in lines[1:]) == table.dump()
    # Felsch is the one strategy, so there is no option to choose one
    for strategy in ("felsch", "hlt"):
        code, out, _ = run_cli(capsys, "enumerate", str(DATA / "G1.pres"),
                               "--strategy", strategy)
        assert code == 1 and out == ""


def test_verify_q1_json_round_trip(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--family", "Q", "--m", "1",
                           "--json", str(path))
    assert code == 0
    assert "order 2048" in out and "verdict=chiral" in out
    doc = json.loads(path.read_text())
    assert doc["aggregate_pass"] is True
    assert doc["members"][0]["order"] == 2048
    assert doc["schema_version"] == doc["members"][0]["schema_version"] == 2
    # round trip: emitting the parsed document reproduces it
    assert json.loads(json.dumps(doc)) == doc


def _strip_timings(doc):
    for m in doc["members"]:
        m.pop("timings_ms", None)
    return doc


def test_verify_json_deterministic_modulo_timings(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli(capsys, "verify", "--family", "Q", "--m", "1",
            "--json", str(p1))
    run_cli(capsys, "verify", "--family", "Q", "--m", "1",
            "--json", str(p2))
    d1 = _strip_timings(json.loads(p1.read_text()))
    d2 = _strip_timings(json.loads(p2.read_text()))
    assert d1 == d2


@pytest.mark.parametrize("family, exit_code", [("P", 3), ("Q", 0)])
def test_verify_reports_match_golden(tmp_path, capsys, family, exit_code):
    # the pinned reports of m = 1..4, timings removed; a change to any
    # verdict, order or count must update tests/data/verify_reports.json
    path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--family", family, "--m", "1..4",
                         "--json", str(path))
    assert code == exit_code
    golden = json.loads((Path(__file__).resolve().parent / "data"
                         / "verify_reports.json").read_text())
    assert _strip_timings(json.loads(path.read_text())) == golden[family]


def test_verify_exit_code_tracks_aggregate(tmp_path, capsys):
    # the first family-P member fails the direct intersection condition
    # (see the axiom analysis in the project notes), so verify reports FAIL
    # and calls it no polytope
    path = tmp_path / "p1.json"
    code, out, _ = run_cli(capsys, "verify", "--family", "P", "--m", "1",
                           "--json", str(path))
    assert code == 3
    doc = json.loads(path.read_text())
    assert doc["aggregate_pass"] is False
    assert doc["members"][0]["intersection_condition"] is False
    assert doc["members"][0]["order"] == 1024
    assert doc["members"][0]["verdict"] == "not-a-polytope"
    assert "verdict=not-a-polytope (witness order 2)" in out


def test_verify_bad_range_exit_one(capsys):
    code, _, _ = run_cli(capsys, "verify", "--family", "Q", "--m", "0")
    assert code == 1


def test_verify_unwritable_json_exit_one(tmp_path):
    # P, m = 1 fails (exit 3 with a JSON path that can be written); a path
    # that cannot be written is bad input, reported without a traceback
    # after the report lines
    path = tmp_path / "missing" / "report.json"
    code, out, err, _ = run_child(tmp_path, "verify", "--family", "P", "--m", "1",
                                  "--json", str(path))
    assert code == 1
    assert out.startswith("P m=1: order 1024 ") and "aggregate: FAIL" in out
    assert f"cannot write {path}: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [("polytope", "--family", "P", "--m", "0"),
                                  ("polytope", "--family", "Q", "--m", "-2"),
                                  ("corollary", "--k-max", "-1")])
def test_bad_member_arguments_exit_one(argv):
    # in a child process, so that an uncaught exception would show as a
    # traceback and exit 1 from the interpreter rather than from the CLI
    code = "import sys; from chiral444.cli import main; sys.exit(main())"
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1 and proc.stdout == ""


@pytest.mark.parametrize("argv", [("enumerate", str(DATA / "U.pres"), "--max-cosets", "0"),
                                  ("verify", "--family", "Q", "--max-cosets", "0"),
                                  ("conjugation", "--family", "P", "--max-cosets", "-5"),
                                  ("polytope", "--family", "Q", "--max-cosets", "0"),
                                  ("corollary", "--k-max", "0", "--max-cosets", "-1")])
def test_nonpositive_cap_is_bad_input(capsys, argv):
    # main() returns the exit code rather than raising from EnumerationConfig
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("bad max-cosets ") and err.count("\n") == 1


def test_python_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "chiral444", "--version"],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("chiral444 ")


def test_conjugation_table(capsys):
    # each relation with the rung that proved it and the coset whose trace
    # closed there
    code, out, _ = run_cli(capsys, "conjugation", "--family", "P")
    assert code == 0
    assert out.splitlines() == [
        "a^-1*x*a = y     verified   (cap 2000, coset 1)",
        "b^-1*x*b = y     verified   (cap 2000, coset 84)",
        "c^-1*x*c = y     verified   (cap 2000, coset 1)",
        "a^-1*y*a = x     verified   (cap 2000, coset 238)",
        "b^-1*y*b = x^-1  verified   (cap 2000, coset 55)",
        "c^-1*y*c = x^-1  verified   (cap 2000, coset 193)",
        "[x,y] = 1        verified   (cap 4000, coset 18)",
    ]


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
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "2e884a89e2d93e63a435a5b78830d2874f87f639c83f7c2d2413f1a36c126333")


def test_polytope_command_p2_dump_is_pinned(capsys, tmp_path):
    # the face numbering (faces in the order of their least element id) and
    # the order of each face's incidences, past the m = 1 members
    dump = tmp_path / "geom.txt"
    code, out, _ = run_cli(capsys, "polytope", "--family", "P", "--m", "2",
                           "--dump-geometry", str(dump))
    assert code == 0
    assert "flags: 8192 (2*order = 8192)" in out
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "fe71c6f06845fffe2c04670466018efb19ed211af5a1419899c6ea079edab071")


def test_polytope_command_q2_dump_is_pinned(capsys, tmp_path):
    dump = tmp_path / "geom.txt"
    code, out, _ = run_cli(capsys, "polytope", "--family", "Q", "--m", "2",
                           "--dump-geometry", str(dump))
    assert code == 0
    assert "flags: 16384 (2*order = 16384)" in out
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "f22e4708b636ce2488756add596b26f61b1a6225803c9fa4a3b5f28bbcf67ae5")


def test_polytope_command_at_the_element_cap_is_pinned(capsys, tmp_path):
    # P at m = 8 has order 2^16, the geometry's element cap
    dump = tmp_path / "geom.txt"
    code, out, _ = run_cli(capsys, "polytope", "--family", "P", "--m", "8",
                           "--dump-geometry", str(dump))
    assert code == 0
    assert out == ("P m=8: order 65536\n"
                   "faces by rank: 32 vertices, 8192 edges, 8192 polygons, 512 facets\n"
                   "P1 True  P2 True  P3 True  P4 True  equivelar True\n"
                   "flags: 131072 (2*order = 131072)\n"
                   "schlafli: (4, 4, 4)  facets (4, 4)  vertex figures (4, 4)\n")
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "5ea668bf0cad909c27bc02a3f4b0965982156de8d3eb0027819f55f90b83347e")


def test_polytope_command_p1_dump_matches_golden(capsys, tmp_path):
    # P, m = 1 fails P3, so the command exits 3; the dump is still written
    dump = tmp_path / "geom.txt"
    code, out, _ = run_cli(capsys, "polytope", "--family", "P", "--m", "1",
                           "--dump-geometry", str(dump))
    assert code == 3
    assert "P3 False" in out
    golden = Path(__file__).resolve().parent / "data" / "g1_geometry.txt"
    assert dump.read_bytes() == golden.read_bytes()


def test_polytope_logs_its_stage_times(capsys):
    code, out, err = run_cli(capsys, "polytope", "--family", "Q", "--m", "1")
    assert code == 0 and "flags: 4096" in out
    line, = [x for x in err.splitlines() if x.startswith("[polytope] member=")]
    for stage in ("member", "geometry", "axioms", "sections"):
        assert f" {stage}=" in line


def test_pipeline_runs_never_import_numpy_ma():
    # numpy's np.unique imports numpy.ma on its first call, 10-20 ms
    code = "\n".join([
        "import contextlib, io, sys",
        "from chiral444.cli import main",
        "for argv in (['verify', '--family', 'Q', '--m', '2'],",
        "             ['polytope', '--family', 'Q', '--m', '2'],",
        "             ['corollary', '--k-max', '3']):",
        "    with contextlib.redirect_stdout(io.StringIO()), \\",
        "            contextlib.redirect_stderr(io.StringIO()):",
        "        assert main(argv) == 0, argv",
        "print('numpy.ma' in sys.modules)"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_polytope_unwritable_dump_exit_one(tmp_path):
    dump = tmp_path / "missing" / "geom.txt"
    code, out, err, _ = run_child(tmp_path, "polytope", "--family", "Q", "--m", "1",
                                  "--dump-geometry", str(dump))
    assert code == 1
    assert out.startswith("Q m=1: order 2048\n") and "flags: 4096" in out
    assert f"cannot write {dump}: " in err and "Traceback" not in err


def test_polytope_command_q4_within_cap(capsys):
    code, out, _ = run_cli(capsys, "polytope", "--family", "Q", "--m", "4")
    assert code == 0
    assert "flags: 65536 (2*order = 65536)" in out


def test_polytope_command_over_cap_exit_one(capsys):
    # order 2^17 is past the geometry's element cap of 2^16
    code, out, err = run_cli(capsys, "polytope", "--family", "Q", "--m", "8")
    assert code == 1
    assert out == ""
    assert err == "group order 131072 exceeds the exhaustive cap 65536\n"


def test_polytope_refuses_a_member_over_the_cap_before_building_it(tmp_path):
    # Q at m = 256 has 2^27 elements; its three images alone would take
    # 1.5 GiB, so a small peak shows the cap was checked first
    code, out, err, peak = run_child(tmp_path, "polytope", "--family", "Q", "--m", "256")
    assert code == 1 and out == ""
    assert err == "group order 134217728 exceeds the exhaustive cap 65536\n"
    assert peak < 150, f"peak RSS {peak:.0f} MiB"


@pytest.mark.parametrize("argv, line", [
    (("verify", "--family", "Q", "--m", "256"), "aggregate: pass (1 members, "),
    (("corollary", "--k-max", "8"), "n=27: family Q, m=256, order 134217728 = 2^27\n")],
    ids=["verify", "corollary"])
def test_large_members_run_in_small_memory(tmp_path, argv, line):
    # verify and corollary read every claim off the family's voltage cover,
    # so Q at m = 256 (order 2^27) builds nothing of the member's degree
    code, out, err, peak = run_child(tmp_path, *argv)
    assert code == 0, err
    assert line in out
    assert peak < 150, f"peak RSS {peak:.0f} MiB"


def test_corollary_command(capsys):
    code, out, _ = run_cli(capsys, "corollary", "--k-max", "1")
    assert code == 0
    assert "n=10" in out and "n=13" in out


def test_corollary_output_is_pinned(capsys):
    # P at m = 1 fails the intersection condition, so n = 10 is unwitnessed
    code, out, _ = run_cli(capsys, "corollary", "--k-max", "5")
    assert code == 0
    assert out == (
        "n=10: family P, m=1, order 1024 = 2^10 (unwitnessed: the intersection "
        "condition fails)\n"
        "n=11: family Q, m=1, order 2048 = 2^11\n"
        "n=12: family P, m=2, order 4096 = 2^12\n"
        "n=13: family Q, m=2, order 8192 = 2^13\n"
        "n=14: family P, m=4, order 16384 = 2^14\n"
        "n=15: family Q, m=4, order 32768 = 2^15\n"
        "n=16: family P, m=8, order 65536 = 2^16\n"
        "n=17: family Q, m=8, order 131072 = 2^17\n"
        "n=18: family P, m=16, order 262144 = 2^18\n"
        "n=19: family Q, m=16, order 524288 = 2^19\n"
        "n=20: family P, m=32, order 1048576 = 2^20\n"
        "n=21: family Q, m=32, order 2097152 = 2^21\n")


def test_every_help_matches_golden(capsys, monkeypatch):
    # argparse wraps help to the terminal width, so it is rendered at 80
    # columns; tests/data/help.txt is Python 3.11's argparse rendering
    monkeypatch.setenv("COLUMNS", "80")
    parts = []
    for argv in ([], ["enumerate"], ["verify"], ["conjugation"], ["polytope"],
                 ["corollary"]):
        argv = [*argv, "--help"]
        assert main(argv) == 0
        parts.append(f"$ chiral444 {' '.join(argv)}\n{capsys.readouterr().out}")
    golden = Path(__file__).resolve().parent / "data" / "help.txt"
    assert "".join(parts) == golden.read_text()


def test_usage_error_exit_one(capsys):
    code = main(["verify"])  # missing required --family
    assert code == 1


def test_verify_parallel_cap_exit_two(capsys):
    # Q's m = 1 table needs 2048 cosets, so the first member hits the cap
    code, _, err = run_cli(capsys, "verify", "--family", "Q", "--m", "1..2",
                           "--max-cosets", "1000")
    assert code == 2
    assert "cap of 1000 cosets" in err


def test_verify_parallel_geometry_cap_exit_one(capsys):
    # the m = 8 member is past the geometry's element cap: bad input, not a
    # traceback, and refused before it is built
    code, _, err = run_cli(capsys, "verify", "--family", "Q", "--m", "1,8",
                           "--axioms")
    assert code == 1
    assert err == "group order 131072 exceeds the exhaustive cap 65536\n"


def test_verify_logs_each_member_as_it_finishes(capsys, monkeypatch):
    # P fails at odd m, so the range exits 3; each member's line is on
    # stderr before the next member starts, and stdout comes at the end
    verify, pieces = cli.verify_member, []

    def spy(family, m, opts):
        pieces.append(capsys.readouterr())
        return verify(family, m, opts)

    monkeypatch.setattr(cli, "verify_member", spy)
    code = main(["verify", "--family", "P", "--m", "1..3"])
    pieces.append(capsys.readouterr())
    assert code == 3
    assert [p.err for p in pieces] == ["", "[verify] P m=1 done\n", "[verify] P m=2 done\n",
                                       "[verify] P m=3 done\n"]
    assert [p.out for p in pieces[:3]] == ["", "", ""]
    lines = pieces[3].out.splitlines()
    assert [l.split(":")[0] for l in lines[:3]] == ["P m=1", "P m=2", "P m=3"]
    assert [l.endswith("-> FAIL") for l in lines[:3]] == [True, False, True]
    assert lines[3].startswith("aggregate: FAIL (3 members, ")


def test_verify_cut_by_the_cap_logs_the_members_it_finished(capsys):
    # 3000 cosets complete Q's m = 1 table (2074) but not the conjugation
    # proof (3601): m = 1 is logged, m = 2 exits 2, and stdout stays empty
    code, out, err = run_cli(capsys, "verify", "--family", "Q", "--m", "1..3",
                             "--max-cosets", "3000")
    assert code == 2 and out == ""
    assert err == ("[verify] Q m=1 done\n[conjugation] enumeration exhausted the cap "
                   "of 3000 cosets; rerun with a larger cap to resume\n")


def test_corollary_to_k_20(capsys):
    # every 2^n from 2^10 to 2^51, each order read off a voltage cover
    code, out, _ = run_cli(capsys, "corollary", "--k-max", "20")
    assert code == 0
    lines = out.splitlines()
    assert [int(l.split(":")[0][2:]) for l in lines] == list(range(10, 52))
    assert lines[-1] == f"n=51: family Q, m={2 ** 20}, order {2 ** 51} = 2^51"
