"""The benchmark's operations run against this checkout's ``src``.

``perfbench/ops.py`` reads names from chiral444 that no other caller needs,
so a change under ``src`` can break the benchmark while every other test
passes.  These tests import ``ops.py`` and ``spans.py`` from ``perfbench``,
run a few operations untraced and traced, and check each result against
the pinned facts.  They read the files under ``perfbench`` and change none.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ops = _load("ops")
spans = _load("spans")


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("make", [ops.ladder_op, ops.polytope_op])
def test_operation_matches_its_pinned_facts(make, traced):
    # m = 1 is G_1 itself; Q at m = 2 is a member of the voltage cover
    for family, m in (("P", 1), ("Q", 2)):
        op = make(family, m)
        tracer = spans.Tracer() if traced else spans.NullTracer()
        # an open span around the operation, as run.py opens one
        with tracer.span("op", op="test"):
            observed = op.run(tracer)
        assert ops.check(ops.load_facts()[op.facts][op.id], observed) == []
        if traced:
            assert {s["name"] for s in tracer.spans} > {"op", "families.member_triple"}


def test_coset_probes_match_their_expected_index():
    tracer = spans.Tracer()
    results = ops.coset_probes(tracer, ops.WORKLOADS["smoke"])
    assert [op_id for op_id, _, _ in results] == ["cosetP1", "cosetQ1"]
    for _, observed, expected in results:
        assert ops.check(expected, observed) == []


@pytest.mark.parametrize("op", ops.STRUCTURE_OPS, ids=lambda op: op.id)
def test_structure_operation_matches_its_pinned_facts(op):
    # the conjugation proof, the normality cross-check and the rewrite of N,
    # untraced, as the benchmark's structure workload runs them
    observed = op.run(spans.NullTracer())
    assert ops.check(ops.load_facts()[op.facts][op.id], observed) == []
