import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chiral444.coset import EnumerationConfig, enumerate_cosets
from chiral444.families import family_presentation, presentation_U
from chiral444.perms import (PermGroup, Permutation, _runs, evaluate,
                             extends_to_homomorphism, orbit, perm_commutator)
from chiral444.words import Presentation, Word, _root, parse_presentation


def closure(gens):
    """Brute-force element closure; the oracle for chain order and membership."""
    seen = {Permutation.identity(gens[0].degree)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                x = e * g
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return seen


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([1, 2, 3])
    with pytest.raises(ValueError):
        Permutation([[0, 1]])


def test_permutation_checks_the_last_chunk():
    # past 2**20 points, a repeat that occurs only among the last three
    # images must still be caught
    n = 2 ** 20 + 3
    img = np.arange(n, dtype=np.int32)[::-1].copy()
    assert np.array_equal(Permutation(img).images, img)
    img[-1] = img[-2]  # point 0 is never hit
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation(img)


def test_compose_convention_left_to_right():
    p = Permutation.from_cycles(3, (1, 2))
    q = Permutation.from_cycles(3, (2, 3))
    r = p * q  # first p, then q: 1 -> 2 -> 3
    assert r == Permutation.from_cycles(3, (1, 3, 2))
    assert int(r.images[0]) == 2  # 0-based point 0 maps to point 2


def test_compose_identities():
    p = Permutation.from_cycles(4, (1, 2, 3))
    e = Permutation.identity(4)
    assert (p * e) == p and (e * p) == p
    t = Permutation.from_cycles(2, (1, 2))
    assert (t * t).is_identity()


def test_inverse_and_power():
    p = Permutation.from_cycles(5, (1, 2, 3, 4, 5))
    assert (p * p.inverse()).is_identity()
    assert p ** 5 == Permutation.identity(5)
    assert p ** -2 == (p.inverse()) ** 2


def test_element_order():
    assert Permutation.identity(3).order() == 1
    p = Permutation.from_cycles(6, (1, 2), (3, 4, 5))
    assert p.order() == 6


def loop_order(p: Permutation) -> int:
    """The lcm of the cycle lengths, walking every cycle point by point; the
    oracle for ``Permutation.order``."""
    img = p.images
    seen = np.zeros(p.degree, dtype=bool)
    result = 1
    for i in range(p.degree):
        if seen[i] or img[i] == i:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = img[j]
            length += 1
        result = math.lcm(result, length)
    return result


def _from_cycle_lengths(lengths, rng):
    """A permutation with the given cycle lengths on shuffled points."""
    pts = list(range(1, sum(lengths) + 1))
    rng.shuffle(pts)
    cycles, at = [], 0
    for n in lengths:
        cycles.append(tuple(pts[at:at + n]))
        at += n
    return Permutation.from_cycles(len(pts), *(c for c in cycles if len(c) > 1))


def test_order_matches_the_cycle_loop():
    rng = random.Random(5)
    cases = [Permutation.identity(5), Permutation.identity(1),
             Permutation(np.roll(np.arange(2 ** 16), 1)),
             _from_cycle_lengths([3, 5, 7], rng),
             Permutation.from_cycles(15, (1, 2, 3), (4, 5, 6, 7, 8),
                                     (9, 10, 11, 12, 13, 14, 15)),
             # point 0 on a 2-cycle, so 2 is not the order
             Permutation.from_cycles(6, (1, 2), (3, 4, 5, 6)),
             # point 0 fixed
             Permutation.from_cycles(4, (2, 3, 4)),
             # point 0 on a cycle longer than the walk
             _from_cycle_lengths([100, 1, 2], rng)]
    for _ in range(200):
        lengths = [rng.choice([1, 1, 2, 3, 4, 5, 6, 8, 9, 70]) for _ in range(rng.randrange(1, 8))]
        cases.append(_from_cycle_lengths(lengths, rng))
    for _ in range(50):
        n = rng.randrange(1, 300)
        cases.append(Permutation(rng.sample(range(n), n)))
    # elements of a regular action, where every cycle has one length
    a, b, c = family_presentation_images()
    cases += [a, a * b, a * c, b * c * c, a * b * c * a]
    for p in cases:
        assert p.order() == loop_order(p)
    assert _from_cycle_lengths([3, 5, 7], rng).order() == 105
    assert Permutation(np.roll(np.arange(2 ** 16), 1)).order() == 2 ** 16


def family_presentation_images():
    pres = family_presentation("P", 1)
    return enumerate_cosets(pres, [], EnumerationConfig(strategy="felsch")).permutation_rep()


def test_build_chain_s3():
    g = PermGroup([Permutation.from_cycles(3, (1, 2)),
                   Permutation.from_cycles(3, (1, 2, 3))])
    assert g.order() == 6


def test_chain_order_128_group():
    p = parse_presentation("gens u,v; rels u^4, v^4, (u*v)^2, (u^2*v^2)^4;")
    t = enumerate_cosets(p, [])
    g = PermGroup(t.permutation_rep())
    assert g.order() == 128


def test_chain_vs_closure_on_corpus():
    corpus = [
        [Permutation.from_cycles(4, (1, 2, 3, 4))],
        [Permutation.from_cycles(5, (1, 2)), Permutation.from_cycles(5, (1, 2, 3, 4, 5))],
        [Permutation.from_cycles(6, (1, 2), (3, 4)), Permutation.from_cycles(6, (1, 3, 5))],
        [Permutation.from_cycles(8, (1, 2, 3, 4, 5, 6, 7, 8)),
         Permutation.from_cycles(8, (2, 8), (3, 7), (4, 6))],  # dihedral of order 16
    ]
    for gens in corpus:
        g = PermGroup(gens)
        elems = closure(gens)
        assert g.order() == len(elems) <= 5000
        # membership agrees with the closure oracle
        for e in list(elems)[:50]:
            assert g.contains(e)
        degree = gens[0].degree
        rng = random.Random(7)
        for _ in range(20):
            images = list(range(degree))
            rng.shuffle(images)
            p = Permutation(images)
            assert g.contains(p) == (p in elems)


def test_elements_enumeration_matches_closure():
    gens = [Permutation.from_cycles(4, (1, 2)), Permutation.from_cycles(4, (1, 2, 3, 4))]
    g = PermGroup(gens)
    elems = g.elements()
    assert len(elems) == g.order() == 24
    assert set(elems) == closure(gens)
    with pytest.raises(ValueError):
        g.elements(cap=10)


def test_identity_group_and_contains():
    g = PermGroup([], degree=5)
    assert g.order() == 1
    assert g.contains(Permutation.identity(5))
    assert not g.contains(Permutation.from_cycles(5, (1, 2)))
    with pytest.raises(ValueError):
        g.contains(Permutation.identity(4))


def test_derived_series_abelian():
    g = PermGroup([Permutation.from_cycles(6, (1, 2, 3)), Permutation.from_cycles(6, (4, 5))])
    series = g.derived_series()
    assert len(series) == 1 and series[0].order() == 1
    assert g.is_solvable() and g.derived_length() == 1


def test_derived_series_s5_not_solvable():
    g = PermGroup([Permutation.from_cycles(5, (1, 2)),
                   Permutation.from_cycles(5, (1, 2, 3, 4, 5))])
    series = g.derived_series()
    assert series[-1].order() == 60  # stabilizes at the alternating group
    assert not g.is_solvable()
    assert g.derived_length() is None


def test_derived_series_128_group_solvable():
    p = parse_presentation("gens u,v; rels u^4, v^4, (u*v)^2, (u^2*v^2)^4;")
    g = PermGroup(enumerate_cosets(p, []).permutation_rep())
    assert g.is_solvable()
    # |G'| = |G| / |G^ab|, with the abelianization from the relator matrix
    from chiral444.rewrite import abelian_invariants
    ab = abelian_invariants(p)
    assert ab == (2, 4)
    d = g.derived_subgroup()
    assert d.order() * math.prod(ab) == 128


def test_is_solvable_is_derived_length_not_none():
    a5 = PermGroup([Permutation.from_cycles(5, (1, 2, 3)),
                    Permutation.from_cycles(5, (1, 2, 3, 4, 5))])
    s4 = PermGroup([Permutation.from_cycles(4, (1, 2)),
                    Permutation.from_cycles(4, (1, 2, 3, 4))])
    p1 = PermGroup.regular(family_presentation_images())
    for g, length in ((a5, None), (s4, 3), (p1, p1.derived_length())):
        assert g.derived_length() == length
        assert g.is_solvable() == (g.derived_length() is not None)
    assert p1.is_solvable() and p1.derived_length() == len(p1.derived_series())


def test_derived_length_monotone_under_quotient():
    from chiral444.families import member_triple
    l1 = member_triple("P", 1).group.derived_length()
    l2 = member_triple("P", 2).group.derived_length()
    assert l1 <= l2


def test_evaluate_examples():
    p = Permutation.from_cycles(3, (1, 2))
    q = Permutation.from_cycles(3, (2, 3))
    assert evaluate(Word(()), [p, q]).is_identity()
    assert evaluate(Word((1, 2)), [p, q]) == p * q
    assert evaluate(Word((-1,)), [p, q]) == p.inverse()


def test_evaluate_is_homomorphism_randomized():
    rng = random.Random(11)
    gens = [Permutation.from_cycles(6, (1, 2, 3, 4, 5, 6)),
            Permutation.from_cycles(6, (1, 2))]
    for _ in range(50):
        w1 = Word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(8))])
        w2 = Word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(8))])
        assert evaluate(w1 * w2, gens) == evaluate(w1, gens) * evaluate(w2, gens)


def test_evaluate_powers_match_letter_by_letter():
    # words that are powers of a shorter root take the root's power; the
    # result is the same product as composing letter by letter
    gens = [Permutation.from_cycles(7, (1, 2, 3, 4, 5, 6, 7)),
            Permutation.from_cycles(7, (1, 2), (3, 5)),
            Permutation.from_cycles(7, (2, 4, 6))]
    rng = random.Random(13)
    words = [Word(()), Word((1,)), Word((-2,)), Word((1, 1, 1, 1)),
             Word((1, -3) * 6), Word((2, 3, -1) * 5), Word((1, 2) * 3 + (1,)),
             Word((3, 1, 3, 1, 3))]
    for _ in range(60):
        root = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(1, 5))]
        words.append(Word(root * rng.randrange(1, 9)))
    for w in words:
        expected = Permutation.identity(7)
        for x in w.letters:
            g = gens[abs(x) - 1]
            expected = expected * (g if x > 0 else g.inverse())
        assert evaluate(w, gens) == expected
    assert evaluate(Word(()), gens).is_identity()


@given(st.lists(st.integers(-3, 3).filter(bool), max_size=8), st.integers(1, 6))
def test_memoized_root_and_runs_match_direct_definitions(u, k):
    letters = tuple(u) * k
    n = len(letters)
    # the shortest prefix whose power is the word, found by brute force
    r = next((r for r in range(1, n + 1)
              if n % r == 0 and letters[:r] * (n // r) == letters), 0)
    for _ in range(2):  # computed, then read back from the memo
        root, e = _root(letters)
        assert root == letters[:r] and e == (n // r if n else 1)
        assert e % k == 0 or not u
    runs: list[list[int]] = []
    for x in letters:
        if runs and runs[-1][0] == abs(x) - 1:
            runs[-1][1] += 1 if x > 0 else -1
        else:
            runs.append([abs(x) - 1, 1 if x > 0 else -1])
    for _ in range(2):
        assert _runs(letters) == tuple(map(tuple, runs))


def test_relators_evaluate_to_identity():
    pres = family_presentation("P", 1)
    t = enumerate_cosets(pres, [], EnumerationConfig(strategy="felsch"))
    images = t.permutation_rep()
    for r in pres.relators:
        assert evaluate(r, images).is_identity()
        assert evaluate(r, images).order() == 1


def test_generator_order_in_first_member():
    pres = family_presentation("P", 1)
    t = enumerate_cosets(pres, [], EnumerationConfig(strategy="felsch"))
    a, b, c = t.permutation_rep()
    # relator a^4 bounds the order by 4; the exact value is 4
    assert a.order() == 4


def test_extends_to_homomorphism_identity_images():
    pres = presentation_U()
    g1 = family_presentation("P", 1)
    t = enumerate_cosets(g1, [], EnumerationConfig(strategy="felsch"))
    images = t.permutation_rep()
    assert extends_to_homomorphism(g1, images)
    with pytest.raises(ValueError):
        extends_to_homomorphism(pres, images[:2])


def test_subgroup_intersection_masks():
    # in S_4: <(1 2 3 4)> meets <(1 2)> trivially, <(1 2 3 4)> meets the
    # Klein four-group {e, (1 2)(3 4), (1 3)(2 4), (1 4)(2 3)} in
    # {e, (1 3)(2 4)}, and a subgroup meets itself in itself
    g = PermGroup([Permutation.from_cycles(4, (1, 2)),
                   Permutation.from_cycles(4, (1, 2, 3, 4))])
    c4 = g.subgroup([Permutation.from_cycles(4, (1, 2, 3, 4))])
    t = g.subgroup([Permutation.from_cycles(4, (1, 2))])
    v4 = g.subgroup([Permutation.from_cycles(4, (1, 2), (3, 4)),
                     Permutation.from_cycles(4, (1, 3), (2, 4))])
    assert (c4.order(), t.order(), v4.order()) == (4, 2, 4)
    assert c4.intersection_order(t) == 1
    assert c4.intersection_order(v4) == v4.intersection_order(c4) == 2
    assert g.intersection_order(g) == 24 and g.intersection_order(v4) == 4
    assert len(closure(c4.generators) & closure(v4.generators)) == 2
    other = PermGroup([Permutation.from_cycles(4, (1, 2))])
    with pytest.raises(ValueError):
        t.intersection_order(other)


def test_whole_group_mask_is_read_only_and_answers_queries():
    # a group's own orbit is every id, its mask one broadcast True: it is
    # never written, and intersections and membership read it as a mask
    a4 = PermGroup([Permutation.from_cycles(4, (1, 2, 3)),
                    Permutation.from_cycles(4, (2, 3, 4))])  # closed up
    p1 = PermGroup.regular(enumerate_cosets(family_presentation("P", 1), []).permutation_rep())
    outside = (Permutation.from_cycles(4, (1, 2)), Permutation.from_cycles(p1.degree, (5, 6)))
    for g, (order, sub_order), out in zip((a4, p1), ((12, 3), (1024, 4)), outside):
        whole = g._built()
        assert not whole.mask.flags.writeable
        assert whole.mask.shape == (order,) and whole.mask.all()
        a, b = g.generators[:2]
        sub = g.subgroup([a])
        assert sub.order() == sub_order
        assert g.intersection_order(sub) == sub.intersection_order(g) == sub_order
        assert g.intersection_order(g) == order
        assert g.contains(a * b) and g.contains(b.inverse())
        assert not g.contains(out)


def test_closure_size_guard():
    # S_9 on 9 points has 9! * 9 > 2**20 entries to close up; the guard
    # stops the closure early instead
    s9 = PermGroup([Permutation.from_cycles(9, (1, 2)),
                    Permutation.from_cycles(9, (1, 2, 3, 4, 5, 6, 7, 8, 9))])
    with pytest.raises(ValueError, match="closing the group up"):
        s9.order()
    # a group not given as regular is closed up, which the guard refuses at
    # once on a large degree
    c = Permutation(np.roll(np.arange(2 ** 21), 1))
    with pytest.raises(ValueError, match="closing the group up"):
        PermGroup([c]).order()


def test_free_action_subgroups_match_closure():
    pres = family_presentation("P", 1)
    t = enumerate_cosets(pres, [], EnumerationConfig(strategy="felsch"))
    perms = t.permutation_rep()
    g = PermGroup.regular(perms)
    assert g.is_regular()
    a, b, c = perms
    for gens in ([b, c], [a, b], [a], [a * b, c]):
        sub = g.subgroup(gens)
        elems = closure(gens)
        assert sub.order() == len(elems)
        assert set(sub.elements(cap=2000)) == elems
        for e in list(elems)[:20]:
            assert sub.contains(e)
        outside = a if a not in elems else perms[2]
        assert sub.contains(outside) == (outside in elems)


def test_contains_is_exact_on_a_regular_action():
    # on a regular action, the point 0 is sent to names one candidate
    # element; a permutation that is not that element is not in the group
    pres = family_presentation("P", 1)
    t = enumerate_cosets(pres, [], EnumerationConfig(strategy="felsch"))
    g = PermGroup.regular(t.permutation_rep())
    a, b, c = g.generators
    swap = Permutation.from_cycles(t.degree, (5, 6))  # fixes point 0
    assert g.contains(a * b) and g.subgroup([a, b]).contains(a * b)
    assert not g.contains(swap) and not g.contains(a * b * swap)
    assert not g.subgroup([a, b]).contains(a * b * swap)


def test_mirror_on_abelianized_rotation_quotient():
    # universal {4,4,4} rotation presentation, abelianized by adding
    # commutators; the mirror map extends there
    text = ("gens s1,s2,s3; rels s1^4, s2^4, s3^4, (s1*s2)^2, (s2*s3)^2,"
            " (s1*s2*s3)^2, [s1,s2], [s1,s3], [s2,s3];")
    p = parse_presentation(text)
    t = enumerate_cosets(p, [])
    images = t.permutation_rep()
    s1, s2, s3 = images
    mirror = [s1.inverse(), s1 * s1 * s2, s3]
    assert extends_to_homomorphism(p, mirror)

    # independent oracle: the linear map e1 -> -e1, e2 -> 2e1+e2, e3 -> e3
    # maps the abelianized relator lattice into itself
    rows = []
    for r in p.relators:
        vec = [0, 0, 0]
        for x in r.letters:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(vec)
    m = [[-1, 0, 0], [2, 1, 0], [0, 0, 1]]
    mapped = [[sum(v[k] * m[k][j] for k in range(3)) for j in range(3)] for v in rows]
    # lattice membership on the abelianized group's complete coset table:
    # v lies in the relator lattice iff s1^v1 * s2^v2 * s3^v3 is trivial
    def in_lattice(vec):
        w = Word()
        for k, v in enumerate(vec):
            w = w * Word((k + 1,)) ** v
        return t.trace(1, w) == 1

    assert all(in_lattice(v) for v in rows)
    assert not in_lattice([1, 0, 0])
    assert all(in_lattice(v) for v in mapped)


def test_right_action_follows_elements():
    # id(e) = right_action(e)[0] is the id e takes id 0 to: the ids are
    # 0..|G|-1, id 0 is the identity, and right_action(s) takes id(e) to
    # id(e * s).  Checked on a group given as regular, whose ids are its
    # points, on one closed up, and on the 4-simplex rotation group (A_5 on
    # 5 points), which does not act regularly
    pres = family_presentation("P", 1)
    t = enumerate_cosets(pres, [], EnumerationConfig(strategy="felsch"))
    perms = t.permutation_rep()
    c6 = Permutation.from_cycles(6, (1, 2, 3, 4, 5, 6))
    s1, s2, s3 = (Permutation.from_cycles(5, (1, 2, 3)),
                  Permutation.from_cycles(5, (2, 3, 4)),
                  Permutation.from_cycles(5, (3, 4, 5)))
    given = PermGroup.regular(perms)
    for g, extra in ((given, perms[0] * perms[2]),
                     (PermGroup([c6]), c6 ** 3),
                     (PermGroup([s1, s2, s3]), s1 * s3)):
        elems = g.elements()
        assert elems[0].is_identity()
        ids = [int(g.right_action(e)[0]) for e in elems]
        assert ids[0] == 0 and sorted(ids) == list(range(g.order()))
        if g is given:
            assert ids == [int(e.images[0]) for e in elems]
        of = dict(zip(elems, ids))
        for s in g.generators + (extra,):
            act = g.right_action(s)
            assert all(int(act[of[e]]) == of[e * s] for e in elems)


def test_is_regular_needs_the_whole_orbit():
    c6 = Permutation.from_cycles(6, (1, 2, 3, 4, 5, 6))
    assert PermGroup([c6]).is_regular()
    assert PermGroup([c6]).subgroup([c6]).is_regular()
    assert PermGroup.regular([c6]).is_regular()
    # order 3 on 6 points: not transitive
    assert not PermGroup([c6]).subgroup([c6 * c6]).is_regular()
    assert not PermGroup.regular([c6]).subgroup([c6 * c6]).is_regular()
    # S_3 on 3 points is transitive but not regular
    s3 = PermGroup([Permutation.from_cycles(3, (1, 2)),
                    Permutation.from_cycles(3, (1, 2, 3))])
    assert not s3.is_regular()


# -- words followed on id 0, and the grown derived series ----------------------

def _random_words(rng, ngens, count):
    letters = [g for i in range(1, ngens + 1) for g in (i, -i)]
    words = []
    for _ in range(count):
        root = [rng.choice(letters) for _ in range(rng.randrange(0, 7))]
        words.append(Word(root * rng.choice([1, 1, 2, 3, 4, 8, 12])))
    return words


def _closed_up_groups():
    a5 = PermGroup([Permutation.from_cycles(5, (1, 2, 3)),
                    Permutation.from_cycles(5, (1, 2, 3, 4, 5))])
    s4 = PermGroup([Permutation.from_cycles(4, (1, 2)),
                    Permutation.from_cycles(4, (1, 2, 3, 4))])
    simplex = PermGroup([Permutation.from_cycles(5, (1, 2, 3)),
                         Permutation.from_cycles(5, (2, 3, 4)),
                         Permutation.from_cycles(5, (3, 4, 5))])
    return {"A5": a5, "S4": s4, "simplex": simplex}


def _assert_id_zero_matches_products(g, words):
    images = g.generators
    for w in words:
        product = evaluate(w, images)
        k = g.word_id(w, images)
        assert (k == 0) == product.is_identity()
        assert k == int(g.right_action(product)[0])  # the product's own id
        assert g.word_order(w, images) == product.order()


@pytest.mark.parametrize("family, m", [("P", 1), ("Q", 1), ("P", 2), ("Q", 2)])
def test_word_id_matches_evaluate_on_members(family, m):
    from chiral444.families import member_triple
    from chiral444.polytope import _mirror_words
    from chiral444.words import substitute
    t = member_triple(family, m)
    mirror = _mirror_words(3)
    words = list(t.presentation.relators)
    words += [substitute(r, mirror) for r in t.presentation.relators]
    words += _random_words(random.Random(17 * m + ord(family)), 3, 80)
    _assert_id_zero_matches_products(t.group, words)


@pytest.mark.parametrize("name", ["A5", "S4", "simplex"])
def test_word_id_matches_evaluate_on_closed_up_groups(name):
    g = _closed_up_groups()[name]
    rng = random.Random(len(name))
    _assert_id_zero_matches_products(g, _random_words(rng, len(g.generators), 120))


def test_word_id_inverts_long_cycles():
    # an inverse letter steps along the inverse array of its map, and a run
    # of a letter and its inverse applies their net exponent
    c = Permutation(np.roll(np.arange(300), 1))
    g = PermGroup.regular([c])
    assert g.word_id(Word((-1,)), [c]) == int(g.right_action(c.inverse())[0])
    assert g.word_order(Word((1,) * 7), [c]) == 300 // math.gcd(300, 7)
    assert g.word_id(Word((1, -1) * 5), [c]) == 0


def oracle_normal_closure(group, seeds, conj):
    """The product-based normal closure the grown one replaced: each new
    generator is formed as a permutation and the orbit rebuilt from scratch."""
    closure = group.subgroup(())
    queue = list(seeds)
    for s in queue:
        if closure.contains(s):
            continue
        closure = group.subgroup(closure.generators + (s,))
        queue.extend(c.inverse() * s * c for c in conj)
    return closure


def oracle_derived_series(group):
    series, cur = [], group
    while True:
        gens = cur.generators
        nxt = oracle_normal_closure(
            group, [perm_commutator(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]],
            gens)
        if nxt.order() == cur.order():
            if not series:
                series.append(nxt)
            break
        series.append(nxt)
        if nxt.order() == 1:
            break
        cur = nxt
    return series


@pytest.mark.parametrize("name", ["A5", "S4", "simplex", "S5", "P1", "Q1", "P2"])
def test_grown_derived_series_matches_the_product_oracle(name):
    from chiral444.families import member_triple
    s5 = PermGroup([Permutation.from_cycles(5, (1, 2)),
                    Permutation.from_cycles(5, (1, 2, 3, 4, 5))])
    groups = {**_closed_up_groups(), "S5": s5}
    g = groups[name] if name in groups else member_triple(name[0], int(name[1:])).group
    grown, oracle = g.derived_series(), oracle_derived_series(g)
    assert [h.order() for h in grown] == [h.order() for h in oracle]
    for h, o in zip(grown, oracle):
        assert np.array_equal(h._built().mask, o._built().mask)
    length = len(oracle) if oracle[-1].order() == 1 else None
    assert g.derived_length() == length
    assert (name in ("A5", "simplex", "S5")) == (length is None)
    # the grown orbit's BFS tree spells the formed generators' closure
    d = g.derived_subgroup()
    if d.order() <= 200:
        assert set(d.elements()) == closure(d.generators)


def test_single_map_orbit_is_the_cycle_through_zero():
    rng = random.Random(23)
    for lengths in ([1, 5], [7, 3, 3], [64, 2], [65], [200, 9], [1000, 1, 30]):
        pts = list(range(sum(lengths)))
        rng.shuffle(pts)
        pts.remove(0)
        pts.insert(0, 0)  # point 0 opens the first cycle
        images = list(range(len(pts)))
        at = 0
        for n in lengths:
            cyc = pts[at:at + n]
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
            at += n
        p = Permutation(images)
        walk = [0]
        while p.images[walk[-1]] != 0:
            walk.append(int(p.images[walk[-1]]))
        orb = orbit([p.images], p.degree)
        assert orb.order.tolist() == walk
        assert np.flatnonzero(orb.mask).tolist() == sorted(walk)
        # <p> as a subgroup of the group p generates, closed up (the last
        # case has too many entries for that): its orbit is the cycle of id
        # 0 under p's id map, and its elements come as the powers of p
        if math.lcm(*lengths) * p.degree <= 2 ** 20:
            elems = PermGroup([p]).subgroup([p]).elements()
            assert elems == [p ** i for i in range(p.order())]


def test_long_cycle_group_in_seconds():
    # a long cycle's orbit is one cycle, found a BFS layer per point
    c = Permutation(np.roll(np.arange(2 ** 12), 1))
    g = PermGroup.regular([c])
    assert g.order() == 2 ** 12 and g.is_regular()
    assert g.subgroup([c ** (2 ** 6)]).order() == 2 ** 6


def test_subgroup_orbit_arrays_are_sized_to_the_orbit():
    from chiral444.families import member_triple
    t = member_triple("Q", 2)
    for gens in ([t.sigma[0]], t.sigma[:2]):
        orb = t.group.subgroup(gens)._built()
        size = orb.order.shape[0]
        assert orb.mask.shape[0] == t.group.order() > size
        assert orb.order.shape == (size,) and orb.order.dtype == np.int32
