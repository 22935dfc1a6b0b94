"""The Z_m^2 voltage cover against Todd-Coxeter, and its certificate."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chiral444.cli import main
from chiral444.families import (EnumerationIncomplete, VerificationError,
                                VerifyOptions, _certify_cover, _cover_images,
                                _hnf, _in_lattice, _index_mod,
                                _todd_coxeter_triple, _voltage_cover, _voltages,
                                _VoltageCover, derived_orders,
                                family_presentation, member_triple,
                                reference_triple, subgroup_seed_words,
                                verify_member)
from chiral444.perms import Permutation, evaluate
from chiral444.polytope import intersection_condition, quotient_criterion


def _base(family):
    return np.stack([p.images for p in reference_triple(family).sigma]).astype(np.int64)


def _invariants(t, ref):
    s1, s2, s3 = t.sigma
    return {
        "order": t.group.order(),
        "s1s2": t.group.subgroup([s1, s2]).order(),
        "s2s3": t.group.subgroup([s2, s3]).order(),
        "intersection": intersection_condition(t),
        "criterion": quotient_criterion(t, ref),
        "derived_length": t.group.derived_length(),
    }


@pytest.mark.parametrize("family", ["P", "Q"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_cover_matches_todd_coxeter(family, m):
    # HLT, so that even at m = 1 the table is not the Felsch reference's
    ref = reference_triple(family)
    cover = _invariants(member_triple(family, m), ref)
    tc = _invariants(_todd_coxeter_triple(family, m, VerifyOptions(strategy="hlt")), ref)
    assert cover == tc
    assert cover["order"] == (1024 if family == "P" else 2048) * m * m
    if family == "P" and m in (1, 3):
        # the family-P odd-m finding (ROADMAP item 1) survives the cover
        assert cover["intersection"] is False


def test_member_triple_m1_is_the_reference():
    t, ref = member_triple("Q", 1), reference_triple("Q")
    assert t.sigma is ref.sigma and t.presentation is ref.presentation
    assert t.group is not ref.group and t.group.order() == 2048
    assert t.group.elements() == ref.group.elements()
    again = member_triple("Q", 1)
    assert again.group is not t.group and again.group is not ref.group


@pytest.mark.parametrize("family", ["P", "Q"])
def test_voltages_determine_every_edge(family):
    base = _base(family)
    n = base.shape[1]
    phi = _voltages(family, base)
    assert phi.shape == (3, n, 2)
    # _voltages raises on an undetermined edge; here the walks of x and y
    # from the identity are summed edge by edge, independently of it
    for word, target in zip(subgroup_seed_words(family), ((1, 0), (0, 1))):
        pt, total = 0, np.zeros(2, dtype=np.int64)
        for x in word.letters:
            g = abs(x) - 1
            if x > 0:
                total += phi[g, pt]
                pt = int(base[g, pt])
            else:
                pt = int(np.flatnonzero(base[g] == pt)[0])
                total -= phi[g, pt]
        assert pt == 0 and tuple(total) == target


def test_corrupted_voltage_fails_the_certificate():
    base = _base("P")
    phi = _voltages("P", base)
    pres = family_presentation("P", 2)
    _certify_cover(pres, _VoltageCover(base, phi), 2)
    bad = phi.copy()
    bad[1, 5, 0] += 1
    with pytest.raises(VerificationError, match="relator"):
        _certify_cover(pres, _VoltageCover(base, bad), 2)


def test_intransitive_cover_fails_the_certificate():
    # all-zero voltages give |G_1| m^2 points in m^2 copies of G_1: every
    # relator of the family at m = 2 holds, but the action is not transitive
    base = _base("P")
    zero = np.zeros((3, base.shape[1], 2), dtype=np.int64)
    with pytest.raises(VerificationError, match="not transitive"):
        _certify_cover(family_presentation("P", 2), _VoltageCover(base, zero), 2)


@pytest.mark.parametrize("family", ["P", "Q"])
def test_lifted_relators_match_the_full_cover(family):
    # a relator's lift to G_1 decides it exactly as the product of the cover
    # permutations does, on the true voltages and on corrupted ones
    base = _base(family)
    phi = _voltages(family, base)
    rng = np.random.default_rng(1912)
    verdicts = set()
    for m in (2, 3, 4):
        pres = family_presentation(family, m)
        tables = [phi]
        for _ in range(3):
            bad = phi.copy()
            for _ in range(rng.integers(1, 4)):
                g, c, axis = rng.integers(3), rng.integers(base.shape[1]), rng.integers(2)
                bad[g, c, axis] += rng.integers(1, m)
            tables.append(bad)
        for table in tables:
            cover = _VoltageCover(base, table)
            sigma = [Permutation(img) for img in _cover_images(base, table, m)]
            for r in pres.relators:
                lifted = cover.holds(r, m)
                assert lifted == evaluate(r, sigma).is_identity()
                verdicts.add(lifted)
    assert verdicts == {True, False}


def test_small_conjugation_cap_raises():
    # 4000 cosets complete P's m = 1 table (about 1060) but not the
    # conjugation proof (about 16,000)
    with pytest.raises(EnumerationIncomplete) as info:
        member_triple("P", 2, VerifyOptions(max_cosets=4000))
    assert info.value.stage == "conjugation" and info.value.cap == 4000


def test_errors_survive_pickling():
    exc = pickle.loads(pickle.dumps(EnumerationIncomplete("enumerate", 1000)))
    assert type(exc) is EnumerationIncomplete
    assert (exc.stage, exc.cap) == ("enumerate", 1000)
    assert str(exc) == str(EnumerationIncomplete("enumerate", 1000))
    exc = pickle.loads(pickle.dumps(VerificationError("cover", "not transitive")))
    assert type(exc) is VerificationError
    assert (exc.stage, str(exc)) == ("cover", "[cover] not transitive")


# -- the derived series of U on G_1's points ----------------------------------

@pytest.mark.parametrize("family", ["P", "Q"])
def test_derived_orders_match_the_per_member_series(family):
    # every term's order, read off U's one series, against the normal
    # closures PermGroup.derived_series builds on each member
    for m in range(1, 9):
        series = member_triple(family, m).group.derived_series()
        assert derived_orders(family, m) == [h.order() for h in series]


@pytest.mark.parametrize("family, sizes", [("P", [1024, 128, 4, 1]),
                                           ("Q", [2048, 256, 8, 1])])
def test_derived_series_of_u(family, sizes):
    # U, U', U'' meet N in all of Z^2 and U''' is trivial: every member has
    # derived length 3
    series = _voltage_cover(family, VerifyOptions()).derived
    terms = [series.term(k) for k in range(4)]
    assert [int(t.mask.sum()) for t in terms] == sizes
    assert [t.lattice for t in terms] == [(1, 0, 1)] * 3 + [(0, 0, 0)]
    assert all(verify_member(family, m, VerifyOptions(axioms=False)).derived_length == 3
               for m in (1, 2, 5))


def test_m1_report_needs_no_conjugation_proof(capsys):
    # 4000 cosets complete each family's m = 1 table but not the conjugation
    # proof (about 16,000 for P, 32,000 for Q): m = 1 still gets a full
    # report, its solvability included, and m = 2 still exits 2
    for family in "PQ":
        small = verify_member(family, 1, VerifyOptions(max_cosets=4000))
        full = verify_member(family, 1)
        small.timings_ms = full.timings_ms = {}
        assert small == full and small.derived_length == 3
    assert main(["verify", "--family", "Q", "--m", "2", "--max-cosets", "4000",
                 "--jobs", "1"]) == 2
    assert "cap of 4000 cosets" in capsys.readouterr().err


def _closure(gens, m):
    """The subgroup of Z_m^2 that ``gens`` generate, by search."""
    seen, todo = {(0, 0)}, [(0, 0)]
    for x, y in todo:
        for gx, gy in gens:
            p = ((x + gx) % m, (y + gy) % m)
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return seen


def _brute_member(v, gens):
    """Whether v lies in the lattice L that ``gens`` span, by search in a
    finite quotient: v is in L iff it is in L + MZ^2 for an M with MZ^2 in
    L (rank 2: a nonzero 2x2 minor), or, for rank 1, iff it is on L's line
    and in L + MZ^2 for M the lcm of the generators' nonzero entries, which
    L's step along its primitive direction divides."""
    nonzero = [g for g in gens if any(g)]
    if not nonzero:
        return not any(v)
    big = max(abs(g[0] * h[1] - g[1] * h[0]) for g in gens for h in gens)
    if not big:
        g = nonzero[0]
        if v[0] * g[1] - v[1] * g[0]:
            return False
        big = math.lcm(*(abs(e) for g in nonzero for e in g if e))
    return (v[0] % big, v[1] % big) in _closure(gens, big)


_vectors = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def _spanning_sets(draw):
    """Vectors spanning a lattice of each rank, negative entries included."""
    rank = draw(st.integers(0, 2))
    if rank == 0:
        return [(0, 0)] * draw(st.integers(0, 2))
    if rank == 1:
        u = draw(_vectors.filter(any))
        ks = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
        return [(k * u[0], k * u[1]) for k in ks]
    return draw(st.lists(_vectors, min_size=2, max_size=4))


@settings(max_examples=100, deadline=None)
@given(_spanning_sets())
def test_lattice_helpers_match_brute_force(gens):
    a, b, d = lattice = _hnf(gens)
    assert a >= 0 and d >= 0
    assert (b == 0 if a == 0 else True) and (0 <= b < d or d == 0)
    rank = int(np.linalg.matrix_rank(np.array(gens, dtype=float).reshape(-1, 2)))
    assert (a > 0) + (d > 0) == rank
    for x in range(-5, 6):
        for y in range(-5, 6):
            assert _in_lattice((x, y), lattice) == _brute_member((x, y), gens)
    for m in range(1, 9):
        assert m * m // _index_mod(lattice, m) == len(_closure(gens, m))
