"""chiral444 benchmark: runs one workload and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 50 --trace 0

Workloads are ``ladder`` and ``polytope`` (the ones BENCHMARK.json lists),
``structure`` and ``smoke``, the self-test's seconds-long variant; README.md
says why each exists.  Every operation's result is checked against the
pinned facts in ``facts.json``.

``--trace 0`` takes set-up samples in fresh interpreters, then times passes
over the workload's operations with tracing off until ``--seconds`` are used,
and reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced passes, then runs the layer probes outside the operation spans, writes
every span to ``perfbench/out/`` and reports the per-layer metrics and the
tracing overhead.  The seed only permutes the order of the operations within
each pass.  The last line of stdout is the JSON result; a fuller record with
the run's metadata goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NullTracer, Tracer, with_self_times

# ops imports chiral444, so it is imported inside the functions, after main()
# has put the checkout's src/ on sys.path.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5

END_TO_END = {"wall_s": "s", "max_op_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB", "success_ratio": "ratio"}

# Spans whose total time is a per-layer metric, named "<span>_s".
LAYER_SPANS = ("families.member_triple", "families.reference", "words.parse",
               "coset.enumerate", "coset.small_action", "coset.partial",
               "coset.index", "perms.solvability", "polytope.validate",
               "polytope.intersection", "polytope.criterion", "polytope.mirror",
               "polytope.geometry", "polytope.axioms", "polytope.section_type",
               "rewrite.rs", "rewrite.tietze", "rewrite.abelian")
# Per-layer counters; each metric sums the counter of the same name.
LAYER_COUNTS = ("coset.definitions", "polytope.flags", "polytope.faces",
                "rewrite.rs_generators", "rewrite.rs_relators")
SETUP_SPANS = ("families.reference", "words.parse")
PER_LAYER = {**{f"{k}_s": "s" for k in LAYER_SPANS},
             **{k: "count" for k in LAYER_COUNTS},
             "trace.overhead_s": "s"}


class Tally:
    """Operations attempted and the ones that failed, with the reason."""

    def __init__(self, facts: dict):
        self.facts = facts
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def record(self, op_id: str, error: str | None):
        self.attempted += 1
        if error:
            self.failures.append((op_id, error))


def run_op(op, tracer, span_op: str, tally: Tally) -> float:
    """Run one operation, check it against its pinned facts, return seconds."""
    import ops
    expected = tally.facts.get(op.facts, {}).get(op.id)
    # Free the previous operation's cyclic garbage first, so that neither the
    # time nor the memory peak of an operation depends on what ran before it.
    gc.collect()
    t0 = time.perf_counter()
    try:
        with tracer.span("op", op=span_op):
            observed = op.run(tracer)
    except Exception as exc:  # an operation that raises is a failed operation
        tally.record(span_op, f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0
    dt = time.perf_counter() - t0
    if expected is None:
        tally.record(span_op, f"no pinned facts for {op.facts}.{op.id}")
    else:
        tally.record(span_op, "; ".join(ops.check(expected, observed)) or None)
    return dt


def timed_pass(workload, tracer, k: int, rng: random.Random,
               tally: Tally) -> dict[str, float]:
    """One pass over the operations in seeded order: seconds per operation.

    A pass's wall time is the sum of its operations' times; the garbage
    collection and fact checks between operations are not counted."""
    order = list(workload.ops)
    rng.shuffle(order)
    return {op.id: run_op(op, tracer, f"pass{k}:{op.id}", tally) for op in order}


def setup_samples(families: tuple[str, ...]) -> list[dict]:
    """Set-up timed in fresh interpreters, SETUP_SAMPLES times."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), ",".join(families)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def _wall(times: dict[str, float]) -> float:
    return sum(times.values())


def _untraced(workload, seconds, rng, tally):
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        passes.append(timed_pass(workload, NullTracer(), len(passes), rng, tally))
        if time.perf_counter() + statistics.median(map(_wall, passes)) > deadline:
            return passes


def _traced(workload, seconds, rng, tally):
    """Alternating untraced and traced passes, then the probes."""
    import ops
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    plain, traced, traced_ids = [], [], []
    k = 0
    while True:
        plain.append(_wall(timed_pass(workload, NullTracer(), k, rng, tally)))
        traced.append(_wall(timed_pass(workload, tracer, k + 1, rng, tally)))
        traced_ids.append(k + 1)
        k += 2
        if (time.perf_counter() + statistics.median(plain)
                + statistics.median(traced) > deadline):
            break
    for op_id, observed, expected in ops.coset_probes(tracer, workload):
        tally.record(f"probe:{op_id}", "; ".join(ops.check(expected, observed)) or None)
    reached = {s["name"] for s in tracer.spans if s["op"].startswith("pass")}
    for produces, op in ops.LAYER_PROBES:
        if produces - reached:
            run_op(op, tracer, f"probe:{op.id}", tally)
    return tracer.spans, traced_ids, plain, traced


def _scope(span) -> str:
    """'passK' for a span of an operation in pass K, else 'probe'."""
    return span["op"].split(":", 1)[0]


def layer_metrics(spans, traced_ids, setups, plain, traced):
    """Per-layer values and their sample counts, plus where each came from.

    A layer the workload's operations reach is the median over traced passes
    of its per-pass total; a layer they never reach is taken from the probes;
    the set-up layers are medians over the fresh-interpreter samples.
    """
    values, samples, sources = {}, {}, {}

    def per_scope(measure):
        totals: dict[str, float] = {}
        for s in spans:
            v = measure(s)
            if v:
                totals[_scope(s)] = totals.get(_scope(s), 0) + v
        return totals

    def put(metric, totals):
        passes = [totals.get(f"pass{k}", 0) for k in traced_ids]
        if any(passes):
            values[metric], samples[metric] = statistics.median(passes), len(passes)
            sources[metric] = "operations"
        else:
            values[metric], samples[metric] = totals.get("probe", 0), 1
            sources[metric] = "probe"

    for name in LAYER_SPANS:
        metric = f"{name}_s"
        if name in SETUP_SPANS:
            values[metric] = statistics.median(
                sum(s["end"] - s["start"] for s in x["spans"] if s["name"] == name)
                for x in setups)
            samples[metric], sources[metric] = len(setups), "setup"
        else:
            put(metric, per_scope(
                lambda s: s["end"] - s["start"] if s["name"] == name else 0))
    for metric in LAYER_COUNTS:
        put(metric, per_scope(lambda s: s["counts"].get(metric, 0)))
    values["trace.overhead_s"] = statistics.mean(traced) - statistics.mean(plain)
    samples["trace.overhead_s"] = min(len(traced), len(plain))
    sources["trace.overhead_s"] = "traced minus untraced passes"
    return values, samples, sources


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "chiral444").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".pres"):
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def metadata(seed: int, samples: dict) -> dict:
    import numpy
    return {"commit": _commit(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "samples": samples}


def measure(workload, seed: int, seconds: float, trace: bool, facts: dict) -> dict:
    """Run one workload; return the result record (metrics, tally, metadata)."""
    import ops
    tally = Tally(facts)
    rng = random.Random(seed)
    setups = setup_samples(workload.families)
    ops.warm(workload)
    record = {"workload": workload.name, "trace": int(trace)}
    if not trace:
        passes = _untraced(workload, seconds, rng, tally)
        # The pass metrics are means over the run's passes, not medians: the
        # shared machine's speed drifts over tens of seconds, and averaging
        # all the measured time gave the smallest run-to-run spread (see
        # README.md, "Why the mean pass").
        values = {
            "wall_s": statistics.mean(map(_wall, passes)),
            "max_op_s": statistics.mean(max(p.values()) for p in passes),
            "setup_s": statistics.median(x["setup_s"] for x in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_ratio": 1 - len(tally.failures) / tally.attempted,
        }
        samples = {"wall_s": len(passes), "max_op_s": len(passes),
                   "setup_s": len(setups), "peak_rss_mb": 1,
                   "success_ratio": tally.attempted}
        units = END_TO_END
        record["op_times"] = passes
    else:
        spans, traced_ids, plain, traced = _traced(workload, seconds, rng, tally)
        values, samples, sources = layer_metrics(spans, traced_ids, setups, plain, traced)
        units = PER_LAYER
        record.update(untraced_wall_s=plain, traced_wall_s=traced, sources=sources)
        record["setup_spans"] = [x["spans"] for x in setups]
        record["spans"] = with_self_times(spans)
    record.update(
        metrics={k: {"value": values[k], "unit": u} for k, u in units.items()},
        attempted=tally.attempted, failed=len(tally.failures),
        fail_ratio=len(tally.failures) / tally.attempted,
        failures=tally.failures, setup_s=[x["setup_s"] for x in setups],
        meta=metadata(seed, samples))
    return record


def _write_record(record: dict, seed: int):
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{seed}-trace{record['trace']}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def _print_summary(record: dict):
    meta = record["meta"]
    print(f"workload {record['workload']} trace {record['trace']} seed {meta['seed']}: "
          f"{record['attempted']} operations, {record['failed']} failed "
          f"(fail_ratio {record['fail_ratio']:.4g})")
    for name, m in record["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6f} {m['unit']:6s} "
              f"n={meta['samples'][name]}")
    for op_id, err in record["failures"]:
        print(f"FAILED {op_id}: {err}", file=sys.stderr)
    print("meta " + json.dumps(meta, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chiral444" / "__init__.py").is_file():
        print(f"error: no chiral444 package under {SRC}; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chiral444
    if not Path(chiral444.__file__).resolve().is_relative_to(SRC):
        print(f"error: chiral444 was imported from {chiral444.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import ops
    workload = ops.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(ops.WORKLOADS)}", file=sys.stderr)
        return 2

    record = measure(workload, args.seed, args.seconds, bool(args.trace),
                     ops.load_facts())
    _write_record(record, args.seed)
    _print_summary(record)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
