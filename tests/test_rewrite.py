import math
import random
from fractions import Fraction

import pytest

from chiral444.coset import EnumerationConfig, enumerate_cosets
from chiral444.families import presentation_U, subgroup_seed_words
from chiral444.rewrite import (IntMatrix, abelian_invariants,
                               is_commutator_relator, reidemeister_schreier,
                               simplify_presentation, smith_normal_form,
                               sublattice_index, tietze_simplify)
from chiral444.words import Presentation, Word, parse_presentation


def test_intmatrix_basics():
    m = IntMatrix([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.det() == -2
    assert IntMatrix.identity(3).det() == 1
    assert (m * IntMatrix.identity(2)) == m
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def test_snf_identity():
    m = IntMatrix.identity(3)
    u, d, v = smith_normal_form(m)
    assert d == m and u.is_unimodular() and v.is_unimodular()


def test_snf_already_diagonal():
    m = IntMatrix([[5, 0], [0, 5]])
    _, d, _ = smith_normal_form(m)
    assert d.diagonal() == [5, 5]


def test_snf_worked_example():
    # row/column reduction gives diag(2, 4); |det| = 8 is preserved
    m = IntMatrix([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(m)
    assert d.diagonal() == [2, 4]
    assert (u * m * v) == d
    assert u.is_unimodular() and v.is_unimodular()


def _check_snf(m: IntMatrix):
    u, d, v = smith_normal_form(m)
    assert (u * m * v) == d
    assert u.is_unimodular() and v.is_unimodular()
    diag = d.diagonal()
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.data[i][j] == 0
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # zeros only after the nonzero prefix
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))


def test_snf_500_random_matrices():
    rng = random.Random(2024)
    for _ in range(500):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = IntMatrix([[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)])
        _check_snf(m)


def test_sublattice_index_examples():
    assert sublattice_index(IntMatrix([[1, 0], [0, 1]])) == 1
    for m in range(1, 11):
        assert sublattice_index(IntMatrix([[m, 0], [0, m]])) == m * m
    assert sublattice_index(IntMatrix([[1, 1], [2, 2]])) is None
    with pytest.raises(ValueError):
        sublattice_index(IntMatrix([[1]]))


def brute_force_lattice_index(b: IntMatrix) -> int | None:
    """Count integer points in the half-open fundamental parallelogram."""
    (p, q), (r, s) = b.data
    det = p * s - q * r
    if det == 0:
        return None
    xs = [0, p, r, p + r]
    ys = [0, q, s, q + s]
    count = 0
    for x in range(min(xs) - 1, max(xs) + 2):
        for y in range(min(ys) - 1, max(ys) + 2):
            # solve (x, y) = t1*(p,q) + t2*(r,s) over the rationals
            t1 = Fraction(x * s - y * r, det)
            t2 = Fraction(p * y - q * x, det)
            if 0 <= t1 < 1 and 0 <= t2 < 1:
                count += 1
    return count


def test_sublattice_index_against_brute_force():
    rng = random.Random(5)
    for _ in range(200):
        b = IntMatrix([[rng.randrange(-6, 7) for _ in range(2)] for _ in range(2)])
        assert sublattice_index(b) == brute_force_lattice_index(b)


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
    g = PermGroup(perms)
    assert all(e.order() <= 2 for e in g.elements())
    assert abelian_invariants(p) == (2, 2)


def test_abelian_invariants_match_smith_normal_form():
    # relators with the exponent sums of a random integer matrix's rows, so
    # that the invariant factors are the nonzero Smith diagonal (without
    # the 1s) and one 0 per generator beyond the rank; unit entries are
    # common, so the unit-pivot peeling runs before the dense core
    rng = random.Random(31)
    for _ in range(300):
        nrows, ngens = rng.randrange(1, 7), rng.randrange(1, 6)
        rows = [[rng.choice([0, 0, 0, 1, -1, 1, 2, -2, 3, 4, -6])
                 for _ in range(ngens)] for _ in range(nrows)]
        relators = []
        for row in rows:
            letters = [(i + 1) * (1 if v > 0 else -1) for i, v in enumerate(row)
                       for _ in range(abs(v))]
            rng.shuffle(letters)
            if letters:  # a zero row adds no relator and no Smith factor
                relators.append(Word(letters))
        _, d, _ = smith_normal_form(IntMatrix(rows))
        diag = [x for x in d.diagonal() if x]
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
    sp, table = _rs_for("P")
    for r in sp.relators[:40]:
        w = sp.rewrite_to_ambient(r)
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
    assert is_commutator_relator(simp.relators[0])


def test_free_abelian_rank_two_evidence_for_K():
    sp, _ = _rs_for("Q")
    assert abelian_invariants(sp) == (0, 0)
    simp = tietze_simplify(sp)
    assert len(simp.schreier_generators) == 2
    assert len(simp.relators) == 1
    assert is_commutator_relator(simp.relators[0])


def test_tietze_trivializes_duplicate_generator_relator():
    p = Presentation(["a"], [Word((1,)), Word((1,))])
    sp_like = simplify_presentation(p)
    assert sp_like.ngens == 0
    assert len(sp_like.relators) == 0


def test_tietze_minimal_commutator_is_fixpoint():
    p = parse_presentation("gens g,h; rels [g,h];")
    s = simplify_presentation(p)
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
        s = simplify_presentation(p)
        lhs = sorted(x for x in abelian_invariants(p) if x != 1)
        rhs_inv = list(abelian_invariants(s))
        # dropped free generators never occur here; pad for removed ones
        rhs_inv += [0] * 0
        assert lhs == sorted(x for x in rhs_inv if x != 1)


def test_is_commutator_relator_shapes():
    assert is_commutator_relator(Word((-1, -2, 1, 2)))
    assert is_commutator_relator(Word((2, -1, -2, 1)))
    assert not is_commutator_relator(Word((1, 2, 1, 2)))
    assert not is_commutator_relator(Word((1, -1, 2, -2)))
    assert not is_commutator_relator(Word((1, 2, -1)))
