"""The benchmark's workloads, their operations, and the layer probes.

Every operation returns the facts it observed; ``check`` compares them with
the pinned facts in ``facts.json``.  Calls into chiral444 go through
``tracer.call(span_name, fn, ...)`` so that the traced run puts one span
around each call into a module's public function.  Nothing inside chiral444
is patched: spans sit at the benchmark's own call sites.

Import this module only after ``src`` is on ``sys.path`` (run.py does it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from chiral444.coset import EnumerationConfig, enumerate_cosets
from chiral444.families import (VerifyOptions, family_presentation,
                                member_triple, mirror_witness_relator,
                                normality_cross_check, presentation_U,
                                reference_triple, subgroup_seed_words,
                                verify_conjugation_action, verify_member)
from chiral444.polytope import (build_coset_geometry, chirality_verdict,
                                intersection_condition, quotient_criterion,
                                section_type, validate_rotation_triple,
                                verify_axioms)
from chiral444.rewrite import (abelian_invariants, reidemeister_schreier,
                               tietze_simplify)

FACTS_PATH = Path(__file__).with_name("facts.json")


@dataclass(frozen=True)
class Op:
    id: str                 # key of the operation's entry in facts.json
    facts: str              # section of facts.json holding that entry
    run: Callable           # run(tracer) -> dict of observed facts


# --- ladder: verify_member without axioms ----------------------------------

def ladder_op(family: str, m: int) -> Op:
    """Untraced, ``verify_member``; traced, the same public calls replayed in
    ``verify_member``'s order, each in its own span."""
    opts = VerifyOptions(axioms=False)

    def run(tr):
        if not tr.enabled:
            r = verify_member(family, m, opts)
            return {"order": r.order, "schlafli": r.schlafli,
                    "intersection_condition": r.intersection_condition,
                    "solvable": r.solvable}
        triple = tr.call("families.member_triple", member_triple, family, m, opts)
        schlafli = tr.call("polytope.validate", validate_rotation_triple,
                           triple.group, triple.sigma)
        ic = tr.call("polytope.intersection", intersection_condition, triple,
                     cap=opts.intersection_cap)
        # reference_triple was built during set-up; here it is a cache lookup.
        ref = tr.call("families.reference_lookup", reference_triple, family, opts)
        tr.call("polytope.criterion", quotient_criterion, triple, ref,
                cap=opts.intersection_cap)
        with tr.span("perms.solvability"):
            solvable = triple.group.is_solvable()
            triple.group.derived_length()
        tr.call("polytope.mirror", chirality_verdict, triple,
                preferred_witness=mirror_witness_relator())
        return {"order": triple.group.order(), "schlafli": schlafli.as_tuple(),
                "intersection_condition": ic, "solvable": solvable}

    return Op(f"{family}{m}", "ladder", run)


# --- polytope: what `chiral444 polytope` does -------------------------------

def polytope_op(family: str, m: int) -> Op:
    def run(tr):
        triple = tr.call("families.member_triple", member_triple, family, m,
                         VerifyOptions())
        geom = tr.call("polytope.geometry", build_coset_geometry, triple)
        rpt = tr.call("polytope.axioms", verify_axioms, geom)
        sections = (tr.call("polytope.section_type", section_type, geom)
                    if rpt.equivelar else None)
        faces = geom.face_counts()
        tr.count("polytope.flags", rpt.flag_count)
        tr.count("polytope.faces", sum(faces))
        return {"p1": rpt.p1_ok, "p2": rpt.p2_ok, "p3": rpt.p3_ok,
                "p4": rpt.p4_ok, "flags": rpt.flag_count, "faces": faces,
                "section_type": sections}

    return Op(f"{family}{m}", "polytope", run)


# --- structure: the claims about N = <x, y> ---------------------------------

def conjugation_op(family: str) -> Op:
    def run(tr):
        checks = tr.call("coset.partial", verify_conjugation_action, family)
        return {"conjugation": {c.label: c.verified for c in checks}}

    return Op(f"conjugation{family}", "structure", run)


def normality_op(family: str, m: int) -> Op:
    def run(tr):
        return {"normal": tr.call("coset.index", normality_cross_check, family, m)}

    return Op(f"normality{family}{m}", "structure", run)


def rewrite_n_op(family: str) -> Op:
    """Enumerate N in U, rewrite it, simplify, abelianize both forms."""

    def run(tr):
        u = presentation_U()
        words = list(subgroup_seed_words(family, 1))
        table = tr.call("coset.subgroup", enumerate_cosets, u, words)
        sp = tr.call("rewrite.rs", reidemeister_schreier, u, table)
        simp = tr.call("rewrite.tietze", tietze_simplify, sp)
        raw = tr.call("rewrite.abelian", abelian_invariants, sp)
        simplified = tr.call("rewrite.abelian", abelian_invariants, simp)
        tr.count("rewrite.rs_generators", len(sp.schreier_generators))
        tr.count("rewrite.rs_relators", len(sp.relators))
        return {"abelian_raw": raw, "abelian_simplified": simplified}

    return Op(f"rewriteN_{family}", "structure", run)


STRUCTURE_OPS = (conjugation_op("P"), normality_op("P", 2), rewrite_n_op("P"))


# --- workloads ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[str, ...]          # reference_triple built in set-up
    members: tuple[tuple[str, int], ...]  # quotients the coset probes enumerate
    ops: tuple[Op, ...]


LADDER = tuple((f, m) for f in "PQ" for m in (1, 2, 4))
POLYTOPE = (("P", 1), ("Q", 1), ("P", 2), ("Q", 2))

WORKLOADS = {
    "ladder": Workload("ladder", ("P", "Q"), LADDER,
                       tuple(ladder_op(f, m) for f, m in LADDER)),
    "polytope": Workload("polytope", ("P", "Q"), POLYTOPE,
                         tuple(polytope_op(f, m) for f, m in POLYTOPE)),
    # Runnable by name but not in BENCHMARK.json: its run-to-run spread was
    # too wide for the bounds BENCHMARK.json allows (README.md, "Workloads").
    "structure": Workload("structure", ("P",), (("P", 1), ("P", 2)),
                          STRUCTURE_OPS),
    # The benchmark's self-test variant: ladder at m = 1 only.
    "smoke": Workload("smoke", ("P", "Q"), (("P", 1), ("Q", 1)),
                      (ladder_op("P", 1), ladder_op("Q", 1))),
}


def warm(w: Workload):
    """The run's own set-up: parse U and build each family's reference."""
    presentation_U()
    for f in w.families:
        reference_triple(f)


# --- traced-run probes, run outside the operation spans ----------------------

def coset_probes(tr, w: Workload):
    """Felsch on each member's presentation, and the <a,b> small action that
    member_triple enumerates.  Returns (op id, observed, expected) triples."""
    cfg = EnumerationConfig(strategy=VerifyOptions().strategy,
                            max_cosets=VerifyOptions().max_cosets)
    out = []
    for f, m in w.members:
        pres = family_presentation(f, m)
        with tr.span("coset.enumerate", op="probe"):
            table = enumerate_cosets(pres, [], cfg)
            tr.count("coset.definitions", table.definitions)
        with tr.span("coset.small_action", op="probe"):
            enumerate_cosets(pres, [pres.atom("a"), pres.atom("b")], cfg)
        out.append((f"coset{f}{m}", {"index": table.degree},
                    {"index": (1024 if f == "P" else 2048) * m * m}))
    return out


# Probes for layers a workload's own operations never call, so that every
# layer has a measured number on every workload: the ladder and polytope
# operations on the smallest member, and the structure operations themselves.
# Each entry: (span names the probe produces, op whose facts apply).
LAYER_PROBES = (
    ({"families.member_triple", "polytope.validate", "polytope.intersection",
      "polytope.criterion", "perms.solvability", "polytope.mirror"},
     ladder_op("P", 1)),
    ({"polytope.geometry", "polytope.axioms", "polytope.section_type"},
     polytope_op("P", 1)),
) + tuple(({name}, op) for name, op in zip(
    ("coset.partial", "coset.index", "rewrite.abelian"), STRUCTURE_OPS))


# --- pinned facts ------------------------------------------------------------

def load_facts() -> dict:
    with open(FACTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _plain(value):
    """Tuples become lists, as they would after a JSON round trip."""
    return json.loads(json.dumps(value))


def check(expected: dict, observed: dict) -> list[str]:
    """The pinned facts (keys not starting with '_') that observed differs on."""
    observed = _plain(observed)
    return [f"{k}: expected {v!r}, got {observed.get(k, '<missing>')!r}"
            for k, v in expected.items()
            if not k.startswith("_") and observed.get(k) != v]
