"""Self-test of the benchmark itself; it runs in seconds.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

It runs the ``smoke`` workload (ladder at m = 1 only) through the command
line, untraced and traced, and checks that every metric BENCHMARK.json
declares is printed with its unit and that no operation failed.  It then
tampers with one pinned fact and checks that the failure is counted, and
checks that the benchmark refuses to run without the program's sources.
The file is not named test_*.py on purpose: the repository's pytest suite
must not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(ok: bool, message: str):
    if not ok:
        raise AssertionError(message)


def run_cli(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_declared_metrics():
    sys.path.insert(0, str(HERE))
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key, table in ((0, "end_to_end", run.END_TO_END),
                              (1, "per_layer", run.PER_LAYER)):
        want = {m["name"]: m["unit"] for m in spec[key]}
        expect(want == table, f"BENCHMARK.json {key} differs from run.py: {want} vs {table}")
        proc = run_cli(ROOT, trace)
        expect(proc.returncode == 0, f"trace {trace} run failed: {proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"trace {trace}: {result['failed']} of {result['attempted']} failed")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"trace {trace} metrics {got} != declared {want}")
        for name, m in result["metrics"].items():
            expect(isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool),
                   f"{name} value {m['value']!r} is not a number")
        record = json.loads((HERE / "out" / f"smoke-seed7-trace{trace}.json").read_text())
        expect(record["fail_ratio"] == 0, f"fail_ratio {record['fail_ratio']}")
        meta = record["meta"]
        for key_ in ("commit", "python", "numpy", "nproc", "seed", "samples"):
            expect(key_ in meta, f"run metadata lacks {key_}")
        expect(set(meta["samples"]) == set(want), "sample counts do not cover every metric")


def check_tampered_fact():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import ops
    import run
    facts = ops.load_facts()
    facts["ladder"]["P1"]["order"] += 1
    record = run.measure(ops.WORKLOADS["smoke"], 7, 0.5, False, facts)
    expect(record["failed"] > 0 and record["fail_ratio"] > 0,
           "a tampered pinned fact was not counted as a failure")
    expect(record["metrics"]["success_ratio"]["value"] < 1,
           "success_ratio ignores the tampered fact")


def check_refuses_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_cli(bare, 0)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0, "ran without the program's sources")
    expect(not proc.stdout.strip(), f"printed a result without sources: {proc.stdout}")


def main() -> int:
    for check in (check_declared_metrics, check_tampered_fact,
                  check_refuses_without_sources):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
