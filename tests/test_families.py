import pytest

from chiral444.coset import EnumerationConfig, enumerate_cosets
from chiral444.families import (VerifyOptions, bundled_presentation,
                                conjugation_relations, corollary_orders,
                                expected_order, family_presentation,
                                member_triple, mirror_witness_relator,
                                normality_cross_check, presentation_U,
                                subgroup_seed_words, verify_conjugation_action,
                                verify_member)
from chiral444.perms import evaluate
from chiral444.rewrite import IntMatrix, sublattice_index
from chiral444.words import Word


def test_presentation_U_shape():
    u = presentation_U()
    assert u.ngens == 3
    assert len(u.relators) == 9
    # the ninth relator is the commutator-with-square form
    assert u.relators[8].letters == (-1, 3, 1, -3, 2, 2)


def test_family_presentation_members():
    p1 = family_presentation("P", 1)
    assert len(p1.relators) == 11
    assert p1.relators[9].letters == (1, -3) * 4
    assert p1.relators[10].letters == (-3, 1) * 4
    q2 = family_presentation("Q", 2)
    assert q2.relators[9].letters == (2, -3) * 8
    assert q2.relators[10].letters == (-3, 2) * 8
    assert family_presentation("P", 3) == family_presentation("P", 3)
    with pytest.raises(ValueError):
        family_presentation("P", 0)
    with pytest.raises(ValueError):
        family_presentation("X", 1)


def test_bundled_files_match_programmatic_presentations():
    assert bundled_presentation("U") == presentation_U()
    assert bundled_presentation("G1") == family_presentation("P", 1)
    assert bundled_presentation("H1") == family_presentation("Q", 1)


def test_witness_relator_is_the_eighth_base_relator():
    u = presentation_U()
    assert mirror_witness_relator() == u.relators[7]


def test_verify_member_first_members():
    r = verify_member("P", 1)
    assert r.order == 1024 == r.expected_order
    assert r.schlafli == (4, 4, 4)
    assert r.solvable
    assert r.verdict == "chiral" and r.witness_order == 2
    assert r.quotient_criterion
    q = verify_member("Q", 1)
    assert q.order == 2048
    assert q.verdict == "chiral" and q.witness_order == 2
    assert q.intersection_condition
    assert q.passed


def test_verify_member_order_scaling():
    r = verify_member("P", 3, VerifyOptions(axioms=False))
    assert r.order == 9216 == 1024 * 9
    assert r.solvable and r.verdict == "chiral"


def test_member_report_json_round_trip():
    import json
    r = verify_member("Q", 1)
    doc = r.to_json_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert set(doc) == {
        "schema_version", "family", "m", "order", "expected_order", "schlafli",
        "solvable", "derived_length", "intersection_condition",
        "quotient_criterion", "verdict", "witness_order", "flags", "axioms",
        "timings_ms",
    }


def test_normality_cross_check():
    assert normality_cross_check("P", 1)
    assert normality_cross_check("P", 2)
    assert normality_cross_check("Q", 1)


def test_order_ratio_matches_sublattice_index():
    base = verify_member("P", 1, VerifyOptions(axioms=False)).order
    for m in (2, 3):
        r = verify_member("P", m, VerifyOptions(axioms=False))
        assert r.order // base == m * m == sublattice_index(IntMatrix([[m, 0], [0, m]]))


def test_family_tower_relator_orders():
    # the pair added at level m has order dividing k in the level m*k member
    for m, k in ((1, 2), (2, 2), (1, 3)):
        trip = member_triple("P", m * k)
        for w in subgroup_seed_words("P", m):
            img = evaluate(w, list(trip.sigma))
            assert (img ** k).is_identity()
    # and evaluates to the identity in its own member
    trip = member_triple("P", 2)
    for w in subgroup_seed_words("P", 2):
        assert evaluate(w, list(trip.sigma)).is_identity()


def test_conjugation_relations_shape():
    for fam in ("P", "Q"):
        rels = conjugation_relations(fam)
        assert len(rels) == 7
        labels = [lbl for lbl, _ in rels]
        assert labels[-1].startswith("[")


def test_conjugation_action_verifies_all_relations():
    for fam in ("P", "Q"):
        checks = verify_conjugation_action(fam, cap=10 ** 6)
        assert len(checks) == 7
        assert all(c.verified for c in checks)
        assert all(c.cosets_used is not None and c.cosets_used <= 10 ** 6 for c in checks)


def test_conjugation_action_small_cap_reports_unverified():
    checks = verify_conjugation_action("P", cap=10, start_cap=10)
    assert any(not c.verified for c in checks)
    assert all(c.cosets_used is None for c in checks if not c.verified)


def test_corollary_orders_k2():
    entries = corollary_orders(2)
    got = {(e.n, e.family, e.m, e.order) for e in entries}
    assert (10, "P", 1, 1024) in got
    assert (11, "Q", 1, 2048) in got
    assert (12, "P", 2, 4096) in got
    assert (14, "P", 4, 16384) in got
    assert (15, "Q", 4, 32768) in got
    assert {e.n for e in entries} == {10, 11, 12, 13, 14, 15}


def test_corollary_orders_k3():
    entries = corollary_orders(3)
    got = {(e.n, e.family, e.m, e.order) for e in entries}
    assert (16, "P", 8, 2 ** 16) in got
    assert (17, "Q", 8, 2 ** 17) in got
    assert [e.n for e in entries] == list(range(10, 18))


def test_verify_options_strategy_hlt_small_member():
    # the general default strategy also completes the small members
    r = verify_member("Q", 1, VerifyOptions(strategy="hlt", axioms=False))
    assert r.order == 2048
