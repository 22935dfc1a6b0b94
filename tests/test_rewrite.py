import itertools
import math
import random

import pytest

from chiral444.coset import EnumerationConfig, enumerate_cosets
from chiral444.families import presentation_U, subgroup_seed_words
from chiral444.rewrite import (SubgroupPresentation, _invariant_factors,
                               abelian_invariants, reidemeister_schreier,
                               tietze_simplify)
from chiral444.words import Presentation, Word, parse_presentation


def test_abelian_invariants_cyclic():
    p = parse_presentation("gens a; rels a^4;")
    assert abelian_invariants(p) == (4,)


def test_abelian_invariants_klein():
    # the abelian group of order 4 with exponent 2: brute-force confirms
    # 4 elements, all of order <= 2, hence invariants (2, 2)
    p = parse_presentation("gens a,b; rels a^2, b^2, (a*b)^2;")
    t = enumerate_cosets(p, [])
    assert t.degree == 4
    perms = t.permutation_rep()
    from chiral444.perms import PermGroup, evaluate
    g = PermGroup.regular(perms)
    assert all(e.order() <= 2 for e in g.elements())
    assert abelian_invariants(p) == (2, 2)


def _det(m: list[list[int]]) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j, x in enumerate(m[0]) if x)


def _determinantal_factors(rows: list[list[int]], ncols: int) -> list[int]:
    """The nonzero Smith diagonal from determinantal divisors: d_k is the
    gcd of all k x k minors, and the k-th factor is d_k / d_(k-1)."""
    factors, prev = [], 1
    for k in range(1, min(len(rows), ncols) + 1):
        d = 0
        for ri in itertools.combinations(rows, k):
            for ci in itertools.combinations(range(ncols), k):
                d = math.gcd(d, _det([[r[j] for j in ci] for r in ri]))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors


def test_snf_identity():
    assert _invariant_factors([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]


def test_snf_already_diagonal():
    assert _invariant_factors([[5, 0], [0, 5]]) == [5, 5]


def test_snf_worked_example():
    # row/column reduction gives diag(2, 4); |det| = 8 is preserved
    assert _invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    # a diagonal out of divisibility order: diag(4, 6) ~ diag(2, 12)
    assert _invariant_factors([[4, 0], [0, 6]]) == [2, 12]


def test_snf_500_random_matrices():
    # the dense core on its own: positive factors in divisibility order,
    # equal to the determinantal divisors' quotients
    rng = random.Random(2024)
    for _ in range(500):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        diag = _invariant_factors(m)
        assert all(x > 0 for x in diag)
        assert all(y % x == 0 for x, y in zip(diag, diag[1:]))
        assert diag == _determinantal_factors(m, cols), m


def test_abelian_invariants_match_smith_normal_form():
    # relators with the exponent sums of a random integer matrix's rows, so
    # that the invariant factors are the nonzero Smith diagonal (without
    # the 1s) and one 0 per generator beyond the rank.  Every other matrix
    # has unit entries, so the unit-pivot peeling runs before the dense
    # core; the others have none, so the core gets the whole matrix
    rng = random.Random(31)
    for n in range(300):
        nrows, ngens = rng.randrange(1, 7), rng.randrange(1, 6)
        pool = ([0, 0, 0, 1, -1, 1, 2, -2, 3, 4, -6] if n % 2 else
                [0, 0, 0, 2, -2, 3, -3, 4, 6, -6, 10])
        rows = [[rng.choice(pool) for _ in range(ngens)] for _ in range(nrows)]
        relators = []
        for row in rows:
            letters = [(i + 1) * (1 if v > 0 else -1) for i, v in enumerate(row)
                       for _ in range(abs(v))]
            rng.shuffle(letters)
            if letters:  # a zero row adds no relator and no Smith factor
                relators.append(Word(letters))
        diag = _determinantal_factors(rows, ngens)
        expected = tuple(x for x in diag if x > 1) + (0,) * (ngens - len(diag))
        names = [f"g{i}" for i in range(ngens)]
        assert abelian_invariants(Presentation(names, relators)) == expected, rows


def test_abelian_invariants_free_group():
    p = parse_presentation("gens a,b;")
    assert abelian_invariants(p) == (0, 0)


def _rs_for(family: str):
    u = presentation_U()
    words = list(subgroup_seed_words(family, 1))
    table = enumerate_cosets(u, words)
    return reidemeister_schreier(u, table), table


def test_rs_index_one_gives_same_presentation():
    p = parse_presentation("gens a,b; rels a^2, b^2, (a*b)^3;")
    t = enumerate_cosets(p, [p.atom("a"), p.atom("b")])
    assert t.degree == 1
    sp = reidemeister_schreier(p, t)
    assert len(sp.schreier_generators) == p.ngens
    # same relator multiset after renaming generator indices
    got = sorted(r.letters for r in sp.relators)
    want = sorted(r.letters for r in p.relators)
    assert got == want


def test_rs_index_two_of_cyclic_four():
    p = parse_presentation("gens a; rels a^4;")
    t = enumerate_cosets(p, [p.parse_word("a^2")])
    assert t.degree == 2
    sp = reidemeister_schreier(p, t)
    assert abelian_invariants(sp) == (2,)
    g = enumerate_cosets(sp.presentation, [])
    assert g.degree == 2


def test_rs_subgroup_order_consistency_on_corpus():
    # index-n subgroup of an order-N group presents a group of order N/n
    cases = [
        ("gens r,s; rels r^8, s^2, (r*s)^2;", "r", 16),
        ("gens u,v; rels u^4, v^4, (u*v)^2, (u^2*v^2)^4;", "u*v", 128),
        ("gens a,b; rels a^2, b^2, (a*b)^3;", "a*b", 6),
    ]
    for text, sub, order in cases:
        p = parse_presentation(text)
        t = enumerate_cosets(p, p.parse_words(sub))
        sp = reidemeister_schreier(p, t)
        inner = enumerate_cosets(sp.presentation, [])
        assert inner.degree * t.degree == order


def test_rs_relators_trace_trivially_in_ambient():
    # each relator spelt in U's generators, Schreier generator by Schreier
    # generator, is a word of N, so it fixes coset 1
    sp, table = _rs_for("P")
    defs = [d for _, d in sp.schreier_generators]
    for r in sp.relators[:40]:
        w = Word()
        for x in r.letters:
            w = w * (defs[x - 1] if x > 0 else defs[-x - 1].inverse())
        assert table.trace(1, w) == 1


def test_rs_partial_table_rejected():
    u = presentation_U()
    partial = enumerate_cosets(u, [], EnumerationConfig(max_cosets=100))
    from chiral444.coset import TableError
    with pytest.raises(TableError):
        reidemeister_schreier(u, partial)


def test_free_abelian_rank_two_evidence_for_N():
    sp, _ = _rs_for("P")
    assert len(sp.schreier_generators) == 2049
    assert abelian_invariants(sp) == (0, 0)
    simp = tietze_simplify(sp)
    assert len(simp.schreier_generators) == 2
    assert len(simp.relators) == 1
    # the one relator is g^e h^f g^-e h^-f, e, f = +-1: the two commute
    a, b, c, d = simp.relators[0].letters
    assert {abs(a), abs(b)} == {1, 2} and (c, d) == (-a, -b)


def test_free_abelian_rank_two_evidence_for_K():
    sp, _ = _rs_for("Q")
    assert abelian_invariants(sp) == (0, 0)
    simp = tietze_simplify(sp)
    assert len(simp.schreier_generators) == 2
    assert len(simp.relators) == 1
    a, b, c, d = simp.relators[0].letters
    assert {abs(a), abs(b)} == {1, 2} and (c, d) == (-a, -b)


def _simplify(p: Presentation) -> Presentation:
    """``tietze_simplify`` on p as a presentation of itself, each generator
    its own Schreier generator."""
    sp = SubgroupPresentation(p, tuple((name, p.atom(name)) for name in p.names), p)
    return tietze_simplify(sp).presentation


def test_tietze_trivializes_duplicate_generator_relator():
    p = Presentation(["a"], [Word((1,)), Word((1,))])
    sp_like = _simplify(p)
    assert sp_like.ngens == 0
    assert len(sp_like.relators) == 0


def test_tietze_minimal_commutator_is_fixpoint():
    p = parse_presentation("gens g,h; rels [g,h];")
    s = _simplify(p)
    assert s.ngens == 2
    assert [r.letters for r in s.relators] == [(-1, -2, 1, 2)]


def test_tietze_preserves_abelian_invariants():
    rng = random.Random(17)
    for _ in range(25):
        nrel = rng.randrange(1, 5)
        rels = []
        for _ in range(nrel):
            ls = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(1, 9))]
            w = Word(ls)
            if w.free_reduce():
                rels.append(w)
        if not rels:
            continue
        p = Presentation(["a", "b", "c"], rels)
        s = _simplify(p)
        lhs = sorted(x for x in abelian_invariants(p) if x != 1)
        assert lhs == sorted(x for x in abelian_invariants(s) if x != 1)

