import dataclasses
import functools
import hashlib
import tracemalloc

import pytest

from chiral444 import families
from chiral444.coset import EnumerationConfig, enumerate_cosets
from chiral444.families import (FAMILIES, VerifyOptions, bundled_presentation,
                                conjugation_relations, corollary_orders,
                                derived_orders, expected_order,
                                family_presentation, member_triple,
                                mirror_witness_relator, normality_cross_check,
                                presentation_U, subgroup_seed_words,
                                verify_conjugation_action, verify_member)
from chiral444.perms import evaluate
from chiral444.words import Presentation, Word


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


@pytest.mark.parametrize("family", ["P", "Q"])
def test_family_presentation_keeps_U_relators_and_reduces_the_seeds(family):
    # U's relators are reused as they stand; the result is the presentation
    # that reducing all eleven relators again would give
    u = presentation_U()
    for m in range(1, 7):
        p = family_presentation(family, m)
        assert p == Presentation(u.names, u.relators + subgroup_seed_words(family, m))
        assert p.generators == u.generators
        assert all(a is b for a, b in zip(p.relators, u.relators))


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
        assert r.order // base == m * m


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


# U's partial Felsch tables at the two rungs of the conjugation ladder:
# live cosets and the SHA-256 of ``dump()``
U_RUNGS = {
    2000: (1979, "c8aa8c82f5c45b1f2b5112e9d3d6799f44243cc3c47a5be1faef288160e426ad"),
    4000: (3935, "4ae55b69154752a9e1d6702a349cc038919cc1ea828fc3175ba779b763c2574f"),
}
COSETS_USED = {"P": [2000, 2000, 2000, 2000, 2000, 2000, 4000],
               "Q": [2000, 2000, 2000, 2000, 2000, 2000, 4000]}
WITNESS_COSETS = {"P": [1, 84, 1, 238, 55, 193, 18],
                  "Q": [99, 1, 1, 86, 99, 99, 3010]}


@pytest.mark.parametrize("order", ["PQ", "QP"])
def test_conjugation_ladder_is_shared_and_pinned(order, monkeypatch):
    # each rung of U's cap ladder is enumerated once per process, whichever
    # family reaches it first, and the other family's call reuses it
    tables = {}

    def enumerate_once(pres, subgroup, cfg):
        assert cfg.max_cosets not in tables, f"rung {cfg.max_cosets} enumerated twice"
        tables[cfg.max_cosets] = enumerate_cosets(pres, subgroup, cfg)
        return tables[cfg.max_cosets]

    families._rung.cache_clear()
    monkeypatch.setattr(families, "enumerate_cosets", enumerate_once)
    for fam in order * 2:
        checks = verify_conjugation_action(fam)
        assert [c.cosets_used for c in checks] == COSETS_USED[fam]
        assert [c.witness_coset for c in checks] == WITNESS_COSETS[fam]
    assert sorted(tables) == [2000, 4000]
    for cap, (live, digest) in U_RUNGS.items():
        assert tables[cap].degree == live
        assert hashlib.sha256(tables[cap].dump().encode()).hexdigest() == digest


def _transversal(table, k):
    """The word u_k along the BFS tree of the table's defined entries from
    coset 1 to coset k, letters tried in column order."""
    letters = [x for g in range(1, table.presentation.ngens + 1) for x in (g, -g)]
    parent = {1: None}
    queue = [1]
    for c in queue:
        for x in letters:
            d = table.entry(c, x)
            if d is not None and d not in parent:
                parent[d] = (c, x)
                queue.append(d)
    word = []
    while parent[k] is not None:
        k, x = parent[k]
        word.append(x)
    return Word(tuple(reversed(word)))


@pytest.mark.parametrize("family", ["P", "Q"])
def test_conjugation_witnesses_replay(family):
    # each check's witness replays on a fresh table at its rung: the trace
    # of w from k returns to k, and k is the coset of u_k, so u_k w = u_k in
    # U and w = 1
    u = presentation_U()
    tables = {}
    for (label, w), c in zip(conjugation_relations(family), verify_conjugation_action(family)):
        assert c.label == label and c.verified
        if c.cosets_used not in tables:
            tables[c.cosets_used] = enumerate_cosets(u, [], EnumerationConfig(max_cosets=c.cosets_used))
        table, k = tables[c.cosets_used], c.witness_coset
        assert table.trace(k, w) == k
        uk = _transversal(table, k)
        assert table.trace(1, uk) == k
        assert table.trace(1, uk * w * uk.inverse()) == 1
    assert any(c.witness_coset != 1 for c in verify_conjugation_action(family))


# the smallest cap whose proof passes: a fresh U table at that many cosets
# proves every relation of the family, one fewer does not
FIRST_PROVING_CAP = {"P": 2097, "Q": 3601}


@pytest.mark.parametrize("family", ["P", "Q"])
def test_conjugation_cap_is_exact(family, monkeypatch):
    monkeypatch.setattr(families, "_state", functools.cache(families._FamilyState))
    words = [w for _, w in conjugation_relations(family)]
    first = FIRST_PROVING_CAP[family]
    for cap in (first - 1, first, 4000, first - 1):
        fresh = enumerate_cosets(presentation_U(), [], EnumerationConfig(max_cosets=cap))
        proves = None not in fresh.closing_cosets(words)
        assert proves == (cap >= first)
        assert all(c.verified for c in verify_conjugation_action(family, cap)) == proves
        opts = VerifyOptions(max_cosets=cap, axioms=False)
        if proves:
            assert families.certified_order(family, 2, opts) == expected_order(family, 2)
        else:
            with pytest.raises(families.EnumerationIncomplete) as info:
                families.certified_order(family, 2, opts)
            assert info.value.stage == "conjugation" and info.value.cap == cap


def test_conjugation_action_small_cap_reports_unverified():
    checks = verify_conjugation_action("P", cap=10)
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


def test_verify_options_fields_and_constants():
    # strategy and intersection_cap change no result, so they are class
    # constants, still readable on an instance
    assert [f.name for f in dataclasses.fields(VerifyOptions)] == ["max_cosets", "axioms"]
    opts = VerifyOptions(axioms=False)
    assert (opts.strategy, opts.intersection_cap) == ("felsch", 10_000)
    with pytest.raises(TypeError):
        VerifyOptions(strategy="hlt")
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.strategy = "hlt"


def test_families_mapping():
    assert list(FAMILIES) == ["P", "Q"] and "P" in FAMILIES and "X" not in FAMILIES
    assert [FAMILIES[f].base_order for f in FAMILIES] == [1024, 2048]
    assert FAMILIES["Q"].kernel == ("z", "w")


@pytest.mark.parametrize("call", [
    lambda: expected_order("X", 1), lambda: subgroup_seed_words("X"),
    lambda: family_presentation("X", 1), lambda: conjugation_relations("X"),
    lambda: verify_conjugation_action("X", cap=10), lambda: member_triple("X", 2),
    lambda: derived_orders("X", 1), lambda: verify_member("X", 1),
    lambda: bundled_presentation("X")])
def test_unknown_names_raise_value_error(call):
    with pytest.raises(ValueError, match="unknown"):
        call()


# the relations as they were written out by hand before the action table
_HAND_WRITTEN = {
    "P": lambda a, b, c, x, y: [
        ("a^-1*x*a = y", a.inverse() * x * a * y.inverse()),
        ("b^-1*x*b = y", b.inverse() * x * b * y.inverse()),
        ("c^-1*x*c = y", c.inverse() * x * c * y.inverse()),
        ("a^-1*y*a = x", a.inverse() * y * a * x.inverse()),
        ("b^-1*y*b = x^-1", b.inverse() * y * b * x),
        ("c^-1*y*c = x^-1", c.inverse() * y * c * x),
        ("[x,y] = 1", x.inverse() * y.inverse() * x * y),
    ],
    "Q": lambda a, b, c, z, w: [
        ("a^-1*z*a = z^-1", a.inverse() * z * a * z),
        ("b^-1*z*b = w", b.inverse() * z * b * w.inverse()),
        ("c^-1*z*c = w", c.inverse() * z * c * w.inverse()),
        ("a^-1*w*a = w", a.inverse() * w * a * w.inverse()),
        ("b^-1*w*b = z^-1", b.inverse() * w * b * z),
        ("c^-1*w*c = z^-1", c.inverse() * w * c * z),
        ("[z,w] = 1", z.inverse() * w.inverse() * z * w),
    ],
}


@pytest.mark.parametrize("family", ["P", "Q"])
def test_conjugation_relations_from_the_action_table(family):
    u = presentation_U()
    want = _HAND_WRITTEN[family](*(u.atom(n) for n in "abc"),
                                 *subgroup_seed_words(family))
    assert conjugation_relations(family) == want


@pytest.mark.parametrize("family", ["P", "Q"])
def test_family_presentation_equals_its_spelt_out_form(family):
    # the seed relators are held as root and exponent; the presentation is
    # the one whose relators are spelt out letter by letter
    u = presentation_U()
    for m in range(1, 9):
        p = family_presentation(family, m)
        flat = Presentation(u.names, [Word(r.letters) for r in p.relators])
        assert p.relators == flat.relators and p == flat and hash(p) == hash(flat)
        assert p.render() == flat.render()
        for r, s in zip(p.relators, flat.relators):
            assert p.word_str(r) == flat.word_str(s) and hash(r) == hash(s)
        root = FAMILIES[family].roots[0].letters
        assert p.relators[9].as_power() == (root, 4 * m)
        assert p.relators[9]._letters is None


def test_large_family_presentation_builds_in_small_memory():
    presentation_U()
    tracemalloc.start()
    try:
        p = family_presentation("Q", 2 ** 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak} bytes"
    assert len(p.relators[10]) == 2 * 4 * 2 ** 20


def test_family_state_is_shared_by_caps(monkeypatch):
    # a fresh state per family: G_1 is built once and reused by a second
    # cap, and no rung of U's cap ladder is enumerated twice; a cap below
    # what G_1 or the conjugation proof used raises exactly where a fresh
    # run with that cap does
    monkeypatch.setattr(families, "_state", functools.cache(families._FamilyState))
    enumerate_member, prove = families._enumerate_member, families.verify_conjugation_action
    runs, rungs = [], []
    monkeypatch.setattr(families, "_enumerate_member",
                        lambda f, m, cap: runs.append(cap) or enumerate_member(f, m, cap))

    def enumerate_rung(pres, subgroup, cfg):
        if pres is families.presentation_U():
            assert cfg.max_cosets not in rungs, f"rung {cfg.max_cosets} enumerated twice"
            rungs.append(cfg.max_cosets)
        return enumerate_cosets(pres, subgroup, cfg)

    families._rung.cache_clear()
    monkeypatch.setattr(families, "enumerate_cosets", enumerate_rung)
    want = verify_member("P", 2, VerifyOptions(axioms=False))
    got = verify_member("P", 2, VerifyOptions(max_cosets=500_000, axioms=False))
    got.timings_ms = want.timings_ms = {}
    assert got == want and runs == [1_000_000]
    assert rungs == [2000, 4000]

    state = families._state("P")
    used = state.reference_cosets
    assert 1024 <= used < 4000
    assert enumerate_member("P", 1, used).is_complete  # a fresh run at the cap
    with pytest.raises(families.EnumerationIncomplete):
        enumerate_member("P", 1, used - 1)
    assert verify_member("P", 1, VerifyOptions(max_cosets=used)).order == 1024
    with pytest.raises(families.EnumerationIncomplete) as info:
        verify_member("P", 1, VerifyOptions(max_cosets=used - 1))
    assert info.value.stage == "enumerate" and info.value.cap == used - 1

    # the proof used rungs 2000 and 4000; 3000 and 2097 prove enough, 2096
    # too little (test_conjugation_cap_is_exact)
    assert max(c.cosets_used for c in prove("P", 1_000_000)) == 4000
    for cap in (4000, 3000, 2097, 2096):
        fresh = all(c.verified for c in prove("P", cap))
        assert fresh == (cap >= 2097)
        if fresh:
            assert families.certified_order("P", 2, VerifyOptions(max_cosets=cap)) == 4096
        else:
            with pytest.raises(families.EnumerationIncomplete) as info:
                families.certified_order("P", 2, VerifyOptions(max_cosets=cap))
            assert info.value.stage == "conjugation" and info.value.cap == cap
    # of the caps asked, 3000, 2097 and 2096 are rungs the first proof did
    # not reach
    assert rungs == [2000, 4000, 3000, 2097, 2096]
    assert runs == [1_000_000]
