"""The Z_m^2 voltage cover against Todd-Coxeter, and its certificate."""

import gc
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chiral444 import perms
from chiral444.cli import main
from chiral444.families import (_CANONICAL, EnumerationIncomplete,
                                VerificationError, VerifyOptions,
                                _certify_cover, _cover_images, _hnf,
                                _in_lattice, _index_mod,
                                _intersection_condition, _normal_closure,
                                _seed_roots, _todd_coxeter_triple,
                                _voltage_cover, _voltages, _VoltageCover,
                                derived_orders, expected_order,
                                family_presentation, member_triple,
                                presentation_U, reference_triple,
                                subgroup_seed_words, verify_member)
from chiral444.perms import PermGroup, Permutation, evaluate
from chiral444.words import Word
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
    # relator of the family at m = 2 holds, but the action is not transitive.
    # Doubled voltages keep every relator and the orbit C_G = G_1, but span
    # L_G = 2Z^2: at m = 2 the cover splits into four orbits, while at m = 3
    # 2Z^2 + 3Z^2 = Z^2 and it is transitive, so the lattice is read mod m.
    # A BFS over the cover's points is the independent check each time.
    base = _base("P")
    phi = _voltages("P", base)
    zero = np.zeros((3, base.shape[1], 2), dtype=np.int64)
    for table, m in ((zero, 2), (2 * phi, 2)):
        with pytest.raises(VerificationError, match="not transitive"):
            _certify_cover(family_presentation("P", m), _VoltageCover(base, table), m)
        sigma = [Permutation(img) for img in _cover_images(base, table, m)]
        assert not PermGroup(sigma).is_transitive()
    t = _certify_cover(family_presentation("P", 3), _VoltageCover(base, 2 * phi), 3)
    assert t.group.order() == 1024 * 9 and t.group.is_transitive()


@pytest.mark.parametrize("family", ["P", "Q"])
def test_member_triple_runs_no_search_over_the_cover(family, monkeypatch):
    # the cover's ids are its points and its transitivity is read off the
    # span of U's generator lifts, so once the one-time costs are paid a
    # member is built without an orbit search of the cover's degree
    member_triple(family, 2)
    degrees = {expected_order(family, m) for m in (2, 3)}
    search = perms.orbit

    def guarded(maps, n):
        assert n not in degrees, f"an orbit search over the {n} points of a cover"
        return search(maps, n)

    monkeypatch.setattr(perms, "orbit", guarded)
    for m in (2, 3):
        t = member_triple(family, m)
        assert t.group.order() == expected_order(family, m)


def test_member_ids_are_freed_with_the_member():
    # the group's own orbit is the arange of its degree, shared through
    # perms._ARANGES only while some array still holds it
    n = expected_order("Q", 8)
    t = member_triple("Q", 8)
    assert t.group.order() == n and n in perms._ARANGES
    del t
    gc.collect()
    assert n not in perms._ARANGES


@pytest.mark.parametrize("family", ["P", "Q"])
def test_cover_ids_are_points(family):
    # x^i y^j takes the point (0, 0, 0) to (0, i, j) mod m, so its id is
    # (i mod m) m + (j mod m)
    x, y = subgroup_seed_words(family)
    for m in (2, 3):
        t = member_triple(family, m)
        for i in range(-m, 2 * m + 1):
            for j in range(-m, 2 * m + 1):
                assert t.group.word_id(x ** i * y ** j, t.sigma) == (i % m) * m + j % m


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


def _lift_letter_by_letter(cover, letters, start):
    """``start`` followed by the walks of ``letters``, one letter at a time."""
    end, volt = start
    for x in letters:
        g = abs(x) - 1
        if x > 0:
            volt = volt + cover.phi[g][end]
            end = cover.base[g][end]
        else:
            end = cover.inv[g][end]
            volt = volt - cover.phi[g][end]
    return end, volt


def _assert_powers_lift_letter_by_letter(cover, roots, k_max=40):
    n = cover.base.shape[1]
    for u in roots:
        want = np.arange(n), np.zeros((n, 2), dtype=np.int64)
        for k in range(1, k_max + 1):
            want = _lift_letter_by_letter(cover, u.letters, want)
            end, volt = cover.lift(u ** k)
            assert np.array_equal(end, want[0]) and np.array_equal(volt, want[1]), (u, k)


@pytest.mark.parametrize("family", ["P", "Q"])
def test_periodic_lift_matches_letter_by_letter(family):
    # lift(u^k) is read off u's period d as (id, (k // d) V) then
    # lift(u^(k mod d)); k = 1..40 meets every remainder of the seed roots'
    # period 4 and of U's relators' periods (1, 2 or 4)
    cover = _voltage_cover(family, VerifyOptions())
    roots = _seed_roots(family)
    assert [cover._period(u.letters)[1] for u in roots] == [4, 4]
    _assert_powers_lift_letter_by_letter(cover, roots + presentation_U().relators)


def test_lift_without_a_short_period_squares():
    # a synthetic base on 67 points: a is a 67-cycle, so its period is 67
    # and its powers up to 66 are taken by repeated squaring alone; k up to
    # 140 also meets q = k // 67 of 1 and 2 with every remainder.  b is an
    # involution and c the identity, so a*b^-1 has period 2
    n = 67
    pts = np.arange(n)
    base = np.stack([(pts + 1) % n, (-pts) % n, pts]).astype(np.int64)
    phi = np.random.default_rng(67).integers(-3, 4, size=(3, n, 2))
    cover = _VoltageCover(base, phi)
    a, ab, c = Word((1,)), Word((1, -2)), Word((3, -1, 2))
    assert cover._period(a.letters)[1] == 67
    assert cover._period(ab.letters)[1] == 2
    _assert_powers_lift_letter_by_letter(cover, (a, ab, c), k_max=140)


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


def _mask_at(term, m):
    """The points of the cover at m that the subgroup ``term`` of U takes
    (0, 0, 0) to: (c, v) with c in its orbit and v - p(c) in L + mZ^2."""
    a, b, d = term.lattice
    lattice = _hnf([(a, b), (0, d), (m, 0), (0, m)])
    mask = np.zeros((term.mask.shape[0], m, m), dtype=bool)
    for c in np.flatnonzero(term.mask).tolist():
        px, py = term.pot[c].tolist()
        for v1 in range(m):
            for v2 in range(m):
                mask[c, v1, v2] = _in_lattice((v1 - px, v2 - py), lattice)
    return mask.ravel()


@pytest.mark.parametrize("family", ["P", "Q"])
def test_normal_closure_of_lifts_matches_the_member(family):
    # the closure of b^2 (or of a b^-1) under conjugation by a and b alone
    # is not normalized by c (16 against 32 elements in P_1), so a closure
    # that skips a conjugator comes out smaller.  The cover's ids are its
    # points, so the closure of the lifts, read at m, is the member's orbit
    cover = _voltage_cover(family, VerifyOptions())
    u = presentation_U()
    conj = [cover.lift(Word((i,))) for i in (1, 2, 3)]
    for text in ("b^2", "a*b^-1"):
        w = u.parse_word(text)
        term = _normal_closure([(cover.lift(w),)], conj, cover.base.shape[1])
        for m in (1, 2, 3):
            g = member_triple(family, m).group
            orb = g._normal_closure([w], g._letters())[1]
            assert np.array_equal(_mask_at(term, m), orb.mask)


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


# -- the canonical subgroups, read off their spans on G_1 --------------------

_MEETS = (((1,), (2, 3)), ((1, 2), (3,)), ((1, 2), (2, 3)))


@pytest.mark.parametrize("family, m", [(f, m) for f in "PQ" for m in range(1, 9)]
                         + [("Q", 16)])
def test_canonical_spans_match_the_member(family, m):
    # each span read at m against the orbit search of the same subgroup on
    # the member's action, and each meet against the two orbits' masks
    spans = _voltage_cover(family, VerifyOptions()).canonical
    t = member_triple(family, m)
    for ix in _CANONICAL:
        assert spans[ix].order(m) == t.subgroup(*ix).order(), ix
    for x, y in _MEETS:
        want = t.subgroup(*x).intersection_order(t.subgroup(*y))
        assert spans[x].meet_order(spans[y], m) == want, (x, y)
    assert _intersection_condition(spans, m) == intersection_condition(t)


@pytest.mark.parametrize("family", ["P", "Q"])
def test_meet_order_matches_the_cover_masks(family):
    # on the canonical pairs the lattice factor |(A cap B)/mZ^2| is 1, so
    # the meets are also taken with U's derived terms, which meet N in Z^2,
    # and with <s2,s3>, whose lattice is nonzero too: there the factor is
    # up to m^2.  The masks are the points each term reaches, by search
    cover = _voltage_cover(family, VerifyOptions())
    terms = ([cover.canonical[ix] for ix in ((1, 2), (2, 3))]
             + [cover.derived.term(k) for k in range(4)])
    for m in range(1, 7):
        masks = [_mask_at(term, m) for term in terms]
        for i, j in itertools.combinations(range(len(terms)), 2):
            want = int(np.count_nonzero(masks[i] & masks[j]))
            assert terms[i].meet_order(terms[j], m) == want, (i, j, m)
            assert terms[j].meet_order(terms[i], m) == want, (j, i, m)


@pytest.mark.parametrize("family", ["P", "Q"])
def test_verify_member_builds_no_subgroup_orbit(family, monkeypatch):
    # the intersection condition and the criterion's orders are read off
    # the canonical spans, so verify asks the member's action for no
    # subgroup; the generic engine on the member is the cross-check
    opts = VerifyOptions(axioms=False)
    ref = reference_triple(family)
    want = {}
    for m in (1, 2, 3):
        t = member_triple(family, m)
        want[m] = verify_member(family, m, opts)
        assert want[m].intersection_condition == intersection_condition(t)
        assert want[m].quotient_criterion == quotient_criterion(t, ref)

    def refuse(self, generators):
        raise AssertionError("a subgroup orbit on the member's action")

    monkeypatch.setattr(PermGroup, "subgroup", refuse)
    for m in (1, 2, 3):
        got = verify_member(family, m, opts)
        got.timings_ms = want[m].timings_ms = {}
        assert got == want[m]
