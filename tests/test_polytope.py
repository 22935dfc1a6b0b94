import itertools

import numpy as np

import pytest

from chiral444 import polytope
from chiral444.coset import EnumerationConfig, enumerate_cosets
from chiral444.families import (member_triple, mirror_witness_relator,
                                presentation_U, reference_triple)
from chiral444.perms import PermGroup, Permutation, orbit
from chiral444.polytope import (ChiralityReport, RotationTriple, TripleError,
                                build_coset_geometry, chirality_verdict,
                                coset_geometry_from_subgroups, enantiomorph,
                                intersection_condition,
                                quotient_criterion, section_type,
                                stabilizer_generators,
                                validate_rotation_triple, verify_axioms)
from chiral444.words import Presentation, Word, parse_presentation, substitute
from test_perms import closure


def test_validate_family_members():
    for fam in ("P", "Q"):
        t = member_triple(fam, 1)
        st = validate_rotation_triple(t.group, t.sigma)
        assert st.as_tuple() == (4, 4, 4)


def test_validate_rejects_identity_triple():
    g = PermGroup([Permutation.from_cycles(3, (1, 2, 3))])
    e = Permutation.identity(3)
    with pytest.raises(TripleError):
        validate_rotation_triple(g, (e, e, e))


def test_validate_rejects_non_generation():
    # sigma generating a proper subgroup of the handle's group
    p = parse_presentation("gens s1,s2,s3; rels s1^4, s2^4, s3^4, (s1*s2)^2,"
                           " (s2*s3)^2, (s1*s2*s3)^2, [s1,s2], [s1,s3], [s2,s3];")
    t = enumerate_cosets(p, [])
    s1, s2, s3 = t.permutation_rep()
    g = PermGroup([s1, s2, s3])
    with pytest.raises(TripleError):
        validate_rotation_triple(g, (s1, s1, s1 * s1 * s1))


def test_sigma_outside_the_group_is_rejected():
    # (1 2)(3 4) is not in C4 = <(1 2 3 4)>, yet on C4's regular action it
    # sends point 0 where an element does; read as that element, the words
    # of (a, a, c4^2) would pass as a triple of type {2,2,2} generating C4
    c4 = Permutation.from_cycles(4, (1, 2, 3, 4))
    a = Permutation.from_cycles(4, (1, 2), (3, 4))
    pres = parse_presentation("gens s1,s2,s3; rels s1^2, s2^2, s3^2, (s1*s2)^2,"
                              " (s2*s3)^2, (s1*s2*s3)^2;")
    for g in (PermGroup.regular([c4]), PermGroup([c4])):
        with pytest.raises(TripleError, match="not an element"):
            validate_rotation_triple(g, (a, a, c4 * c4))
        with pytest.raises(TripleError, match="not an element"):
            RotationTriple(g, (a, a, c4 * c4), pres)
    with pytest.raises(TripleError, match="not an element"):
        validate_rotation_triple(PermGroup([c4]), (Permutation.identity(5),) * 3)


def test_intersection_condition_h1_and_g2():
    assert intersection_condition(member_triple("Q", 1))
    assert intersection_condition(member_triple("P", 2))


def degenerate_triple() -> RotationTriple:
    """All three sigmas equal to the square of a 4-cycle, a group of order 2."""
    g4 = Permutation.from_cycles(4, (1, 2, 3, 4))
    s = g4 * g4
    text = "gens s1,s2,s3; rels s1^2, s2^2, s3^2, (s1*s2)^2, (s2*s3)^2, (s1*s2*s3)^2;"
    return RotationTriple(PermGroup([s]), (s, s, s), parse_presentation(text))


def test_intersection_condition_degenerate_containment():
    # in the cyclic group of order 4 take all three sigmas equal to the
    # square: <s1> is contained in <s2,s3> nontrivially, so the condition fails
    trip = degenerate_triple()
    assert validate_rotation_triple(trip.group, trip.sigma).as_tuple() == (2, 2, 2)
    assert not intersection_condition(trip)


@pytest.mark.parametrize("name, holds", [("P1", False), ("Q1", True),
                                         ("simplex", True), ("degenerate", False)])
def test_engine_subgroups_match_closure(name, holds):
    # subgroup orders, the three intersections and the condition, against
    # brute-force closures of the generators
    t = {"P1": lambda: member_triple("P", 1), "Q1": lambda: member_triple("Q", 1),
         "simplex": simplex_triple, "degenerate": degenerate_triple}[name]()
    s1, s2, s3 = t.sigma
    gens = {"1": [s1], "2": [s2], "3": [s3], "12": [s1, s2], "23": [s2, s3]}
    subs = {k: t.group.subgroup(v) for k, v in gens.items()}
    ref = {k: closure(v) for k, v in gens.items()}
    for k in gens:
        assert subs[k].order() == len(ref[k])
    for a, b in (("1", "23"), ("12", "3"), ("12", "23")):
        assert subs[a].intersection_order(subs[b]) == len(ref[a] & ref[b])
    expected = (len(ref["1"] & ref["23"]) == 1 and len(ref["12"] & ref["3"]) == 1
                and ref["12"] & ref["23"] == ref["2"])
    assert intersection_condition(t) == expected == holds


@pytest.mark.parametrize("name", ["P1", "Q1", "simplex", "degenerate"])
def test_frontier_orbits_match_full_maps(name):
    # a subgroup handle evaluates its id maps on each BFS frontier only; its
    # orbit equals the one under the full right_action maps, and its order
    # the brute-force closure's
    t = {"P1": lambda: member_triple("P", 1), "Q1": lambda: member_triple("Q", 1),
         "simplex": simplex_triple, "degenerate": degenerate_triple}[name]()
    g = t.group
    s1, s2, s3 = t.sigma
    for gens in ([s1], [s2], [s3], [s1, s2], [s2, s3], [s1 * s2, s3], [s1, s2 * s3]):
        sub = g.subgroup(gens)
        full = orbit([g.right_action(s) for s in sub.generators], g.order())
        assert np.array_equal(sub._built().mask, full.mask)
        assert np.array_equal(sub._built().order, full.order)
        assert sub.order() == len(closure(gens))


def test_intersection_condition_cap():
    # Q, m = 1: |<s1>| = |<s3>| = 4, and <s1,s2>, <s2,s3> are larger
    t = member_triple("Q", 1)
    assert intersection_condition(t, cap=t.group.subgroup(t.sigma[:2]).order())
    for cap in (3, 10):
        with pytest.raises(ValueError, match="intersection cap"):
            intersection_condition(t, cap=cap)


def test_quotient_criterion_identity_and_collapse():
    ref = reference_triple("Q")
    assert quotient_criterion(ref, ref)
    trivial_sigma = tuple(Permutation.identity(1) for _ in range(3))
    trivial = RotationTriple(PermGroup([], degree=1), trivial_sigma, ref.presentation)
    assert not quotient_criterion(ref, trivial)


def test_quotient_criterion_family_members():
    for fam in ("P", "Q"):
        ref = reference_triple(fam)
        for m in (2, 3):
            big = member_triple(fam, m)
            assert quotient_criterion(big, ref)


def test_quotient_criterion_rejects_non_homomorphism():
    # the first family-P member's presentation kills (a c^-1)^4, which is
    # nontrivial in the first family-Q member, so the map cannot extend
    big = member_triple("P", 1)
    small = member_triple("Q", 1)
    with pytest.raises(TripleError):
        quotient_criterion(big, small)


def test_second_family_quotient_maps_onto_first():
    # the added pair of family Q lies in the subgroup added by family P,
    # so the generator-wise map from the Q member presentation extends
    big = member_triple("Q", 1)
    small = member_triple("P", 1)
    assert quotient_criterion(big, small)


def test_mirror_extends_false_for_members_true_for_abelianized():
    assert chirality_verdict(member_triple("P", 1)).verdict == "chiral"
    assert chirality_verdict(member_triple("Q", 1)).verdict == "chiral"
    p = parse_presentation("gens s1,s2,s3; rels s1^4, s2^4, s3^4, (s1*s2)^2,"
                           " (s2*s3)^2, (s1*s2*s3)^2, [s1,s2], [s1,s3], [s2,s3];")
    t = enumerate_cosets(p, [])
    perms = t.permutation_rep()
    trip = RotationTriple(PermGroup.regular(perms), tuple(perms), p)
    assert chirality_verdict(trip) == ChiralityReport("regular", None, None)


def test_chirality_verdict_with_witness():
    wit = mirror_witness_relator()
    for fam in ("P", "Q"):
        rep = chirality_verdict(member_triple(fam, 1), preferred_witness=wit)
        assert rep.verdict == "chiral"
        assert rep.witness_relator == wit
        assert rep.witness_order == 2


def test_chirality_verdict_cites_a_preferred_witness_only_when_it_holds():
    # s1 is not a relation of Q_1, so its mirror image failing proves
    # nothing; the witness comes from the relators instead
    t = member_triple("Q", 1)
    rep = chirality_verdict(t, preferred_witness=Word((1,)))
    assert rep == chirality_verdict(t)
    assert rep.verdict == "chiral"
    assert rep.witness_relator in t.presentation.relators


def test_mirror_images_of_shared_relators_are_formed_once(monkeypatch):
    # U's relators, the witness among them, are the same words for every
    # member of both families, so each is substituted once per process; a
    # member adds only its two seed relators
    calls = []

    def counting(w, images):
        calls.append(w)
        return substitute(w, images)

    monkeypatch.setattr(polytope, "substitute", counting)
    polytope._mirror_image.cache_clear()
    wit = mirror_witness_relator()
    members = [(f, m) for f in ("P", "Q") for m in (1, 2)]
    for f, m in members:
        t = member_triple(f, m)
        assert chirality_verdict(t, wit) == ChiralityReport("chiral", wit, 2)
        assert chirality_verdict(t).verdict == "chiral"
        enantiomorph(t)  # takes every relator's image
    u = presentation_U().relators
    assert wit in u
    assert [calls.count(r) for r in u] == [1] * len(u)
    assert len(calls) == len(u) + 2 * len(members)


def test_chirality_verdict_regular_case():
    # the 4-simplex rotation group is regular, not chiral
    trip = simplex_triple()
    rep = chirality_verdict(trip)
    assert rep.verdict == "regular"
    assert rep.witness_relator is None


def test_regular_verdict_needs_a_complete_presentation():
    # "chiral" rests on one relation of the group whose mirror image fails,
    # so it is sound for any relators that hold; "regular" rests on every
    # relator surviving the mirror map, so it is sound only for a complete
    # presentation.  Q_1 is chiral, yet its six {4,4,4} relators alone answer
    # "regular": the mirror map is an automorphism of the rotation group
    # [4,4,4]^+ they present, so their mirror images follow from them.
    t = member_triple("Q", 1)
    full = t.presentation
    type_only = Presentation(full.names, full.relators[:6])
    base_only = Presentation(full.names, full.relators[:9])  # U's relators
    assert type_only.relators[-1] == full.parse_word("(a*b*c)^2")
    verdicts = {name: chirality_verdict(RotationTriple(t.group, t.sigma, pres))
                for name, pres in (("full", full), ("type", type_only),
                                   ("base", base_only))}
    assert verdicts["full"].verdict == verdicts["base"].verdict == "chiral"
    assert verdicts["base"].witness_relator == mirror_witness_relator()
    assert verdicts["type"].verdict == "regular"  # unsound: incomplete
    # Q_1 / <(a^2 c b)^2>: handed only Q_1's relators it answers "regular",
    # which those relators cannot prove; its complete presentation can
    extra = full.parse_word("(a^2*c*b)^2")
    complete = Presentation(full.names, full.relators + (extra,))
    table = enumerate_cosets(complete, [], EnumerationConfig(strategy="felsch"))
    sigma = tuple(table.permutation_rep())
    quotient = PermGroup.regular(sigma)
    assert quotient.order() == 1024
    for pres in (full, complete):
        assert chirality_verdict(RotationTriple(quotient, sigma, pres)).verdict == "regular"


def _copied(t: RotationTriple) -> RotationTriple:
    """The triple with copies of its sigma, which are not the group's
    generator objects, so that making it checks each by membership."""
    return RotationTriple(t.group, tuple(Permutation(s.images) for s in t.sigma),
                          t.presentation)


@pytest.mark.parametrize("fam, m", [("P", 1), ("Q", 1), ("P", 2), ("Q", 2)])
def test_copied_sigma_take_the_membership_path_with_the_same_answers(fam, m):
    t = member_triple(fam, m)
    p = _copied(t)
    assert all(a is not b for a, b in zip(p.sigma, p.group.generators))
    ref = reference_triple(fam)
    wit = mirror_witness_relator()
    assert validate_rotation_triple(t.group, t.sigma) == validate_rotation_triple(p.group, p.sigma)
    assert chirality_verdict(t, wit) == chirality_verdict(p, wit)
    assert chirality_verdict(t) == chirality_verdict(p)
    assert quotient_criterion(t, ref) == quotient_criterion(p, _copied(ref))
    assert intersection_condition(t) == intersection_condition(p)
    with pytest.raises(TripleError):
        quotient_criterion(member_triple("P", 1), _copied(member_triple("Q", 1)))


def test_triple_subgroups_are_built_once_and_match_fresh_handles():
    triples = [member_triple("P", 1), member_triple("P", 2), member_triple("Q", 1),
               member_triple("Q", 2), reference_triple("Q")]
    for t in triples:
        intersection_condition(t)
        for idx in ((1,), (2,), (3,), (1, 2), (2, 3)):
            shared = t.subgroup(*idx)
            assert t.subgroup(*idx) is shared
            fresh = t.group.subgroup([t.sigma[i - 1] for i in idx])
            assert shared.order() == fresh.order()
            assert np.array_equal(shared._built().mask, fresh._built().mask)
            assert shared.intersection_order(fresh) == fresh.order()
    # each triple keeps its own handles, even on the same sigma
    assert triples[2].subgroup(1, 2) is not triples[4].subgroup(1, 2)
    assert [t.subgroup(2, 3).order() for t in triples] == [64, 128, 64, 256, 64]


def test_enantiomorph_involution_and_relations():
    for fam in ("P", "Q"):
        t = member_triple(fam, 1)
        e = enantiomorph(t)
        s1, s2, s3 = e.sigma
        assert ((s1 * s2) ** 2).is_identity()
        assert ((s2 * s3) ** 2).is_identity()
        assert ((s1 * s2 * s3) ** 2).is_identity()
        assert e.group.order() == t.group.order()
        ee = enantiomorph(e)
        assert ee.sigma == t.sigma
        assert ee.presentation == t.presentation


def test_enantiomorph_intersection_condition_equivalence():
    for fam, m in (("Q", 1), ("P", 2), ("P", 1)):
        t = member_triple(fam, m)
        assert intersection_condition(t) == intersection_condition(enantiomorph(t))


def simplex_triple() -> RotationTriple:
    """The 4-simplex rotation triple on 5 points, type {3,3,3}."""
    r0 = Permutation.from_cycles(5, (1, 2))
    r1 = Permutation.from_cycles(5, (2, 3))
    r2 = Permutation.from_cycles(5, (3, 4))
    r3 = Permutation.from_cycles(5, (4, 5))
    s1, s2, s3 = r0 * r1, r1 * r2, r2 * r3
    pres = parse_presentation(
        "gens s1,s2,s3; rels s1^3, s2^3, s3^3, (s1*s2)^2, (s2*s3)^2, (s1*s2*s3)^2;")
    group = PermGroup([s1, s2, s3])
    return RotationTriple(group, (s1, s2, s3), pres)


def brute_force_simplex_flags() -> int:
    """Maximal chains of the 4-simplex face lattice on vertex set {1..5}."""
    verts = frozenset(range(1, 6))
    count = 0
    for f0 in itertools.combinations(verts, 1):
        for f1 in itertools.combinations(verts, 2):
            if not set(f0) <= set(f1):
                continue
            for f2 in itertools.combinations(verts, 3):
                if not set(f1) <= set(f2):
                    continue
                for f3 in itertools.combinations(verts, 4):
                    if set(f2) <= set(f3):
                        count += 1
    return count


def test_simplex_geometry_passes_axioms():
    trip = simplex_triple()
    assert trip.group.order() == 60
    assert validate_rotation_triple(trip.group, trip.sigma).as_tuple() == (3, 3, 3)
    assert intersection_condition(trip)
    geom = build_coset_geometry(trip)
    assert geom.face_counts() == (5, 10, 10, 5)
    rpt = verify_axioms(geom)
    assert rpt.p1_ok and rpt.p2_ok and rpt.p3_ok and rpt.p4_ok
    assert rpt.equivelar and rpt.schlafli == (3, 3, 3)
    assert rpt.flag_count == 120 == brute_force_simplex_flags()
    ftype, vtype = section_type(geom)
    assert ftype == (3, 3) and vtype == (3, 3)


def test_h1_geometry_full_axiom_suite():
    t = member_triple("Q", 1)
    geom = build_coset_geometry(t)
    rpt = verify_axioms(geom)
    assert rpt.all_ok and rpt.equivelar
    assert rpt.flag_count == 2 * t.group.order() == 4096
    assert rpt.schlafli == (4, 4, 4)
    assert section_type(geom) == ((4, 4), (4, 4))
    # face count times stabilizer order recovers the group order per rank
    for faces, sub_order in zip(geom.face_counts(), geom.subgroup_orders):
        assert faces * sub_order == t.group.order()


def test_degenerate_stabilizer_breaks_diamond():
    trip = simplex_triple()
    gens = stabilizer_generators(trip.sigma)
    gens[0] = list(trip.sigma)  # rank-0 stabilizer blown up to the whole group
    geom = coset_geometry_from_subgroups(trip, gens)
    rpt = verify_axioms(geom)
    assert not rpt.p4_ok
    assert not rpt.all_ok


def test_geometry_cap_refuses_large_groups():
    t = member_triple("Q", 1)
    with pytest.raises(ValueError):
        build_coset_geometry(t, element_cap=100)


def test_geometry_dump_shape():
    trip = simplex_triple()
    geom = build_coset_geometry(trip)
    lines = geom.dump().strip().split("\n")
    # one line per face plus the two formal faces
    assert len(lines) == sum(geom.face_counts()) + 2
    assert lines[0].startswith("-1 0 :")
    assert lines[-1] == "4 0 :"


def test_geometry_dump_golden_first_member():
    from pathlib import Path
    golden = Path(__file__).resolve().parent / "data" / "g1_geometry.txt"
    geom = build_coset_geometry(member_triple("P", 1))
    assert geom.dump() == golden.read_text()


@pytest.mark.parametrize("family, m, faces, flags, axioms, schlafli, sections", [
    # family P at m = 1 is not a polytope: it fails P3 (the family-P finding
    # in ROADMAP.md), and its sections are of type {4,8} and {8,4}
    ("P", 1, (16, 128, 128, 8), 2048, (True, True, False, True), (4, 8, 4),
     ((4, 8), (8, 4))),
    ("Q", 1, (32, 256, 256, 16), 4096, (True, True, True, True), (4, 4, 4),
     ((4, 4), (4, 4))),
    ("P", 2, (32, 512, 512, 32), 8192, (True, True, True, True), (4, 4, 4),
     ((4, 4), (4, 4))),
    ("Q", 2, (32, 1024, 1024, 64), 16384, (True, True, True, True), (4, 4, 4),
     ((4, 4), (4, 4))),
])
def test_member_axioms_pinned(family, m, faces, flags, axioms, schlafli, sections):
    geom = build_coset_geometry(member_triple(family, m))
    rpt = verify_axioms(geom)
    assert geom.face_counts() == faces
    assert rpt.flag_count == flags
    assert (rpt.p1_ok, rpt.p2_ok, rpt.p3_ok, rpt.p4_ok) == axioms
    assert rpt.equivelar and rpt.schlafli == schlafli
    assert section_type(geom) == sections
