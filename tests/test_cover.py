"""The Z_m^2 voltage cover against Todd-Coxeter, and its certificate."""

import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chiral444 import families, perms
from chiral444.cli import main
from chiral444.coset import enumerate_cosets
from chiral444.families import (_CANONICAL, _MEETS, FAMILIES, EnumerationIncomplete,
                                VerificationError, VerifyOptions,
                                _build_certificate, _certified_order,
                                _cover_images, _hnf,
                                _in_lattice, _index_mod, _rows,
                                _intersection_condition, _normal_closure,
                                _span, _state, _voltages,
                                _VoltageCover, derived_orders, expected_order,
                                family_certificate,
                                family_presentation, member_triple,
                                mirror_witness_relator, presentation_U,
                                reference_triple, subgroup_seed_words,
                                verify_member)
from chiral444.perms import PermGroup, Permutation, evaluate
from chiral444.words import Presentation, Word
from chiral444.polytope import (_CANONICAL_RELATIONS, RotationTriple,
                                _mirror_image, chirality_verdict,
                                intersection_condition, quotient_criterion,
                                validate_rotation_triple)


def _base(family):
    return np.stack([p.images for p in reference_triple(family).sigma]).astype(np.int64)


def _cover(family):
    """The family's voltage cover, as the pipeline keeps it."""
    reference_triple(family)
    return _state(family).cover


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


def _reversed_generators(pres):
    """``pres`` with its generators listed c, b, a: the same group, on which
    Felsch fills the columns, so defines cosets, in another order.  (The
    order of the relators does not matter: Felsch scans their rotations
    sorted.)"""
    n = pres.ngens
    flip = lambda w: Word(tuple((n + 1 - abs(x)) * (1 if x > 0 else -1) for x in w.letters))
    return Presentation(pres.names[::-1], [flip(r) for r in pres.relators])


@pytest.mark.parametrize("family", ["P", "Q"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_cover_matches_todd_coxeter(family, m):
    # Felsch on the generators listed c, b, a, so that even at m = 1 the
    # table is not the Felsch reference's
    ref = reference_triple(family)
    cover = _invariants(member_triple(family, m), ref)
    pres = family_presentation(family, m)
    table = enumerate_cosets(_reversed_generators(pres), [])
    assert table.is_complete
    sigma = tuple(table.permutation_rep()[::-1])  # a, b, c
    if m == 1:
        assert any(not np.array_equal(s.images, r.images) for s, r in zip(sigma, ref.sigma))
    tc = _invariants(RotationTriple(PermGroup.regular(sigma), sigma, pres), ref)
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


# SHA-256 of each family's voltage table as little-endian int64, (g, c, axis)
# in C order: the deduction may change, its solution may not
_PHI_SHA256 = {
    "P": "5e9a61e0375456143d3f18921e3a5384ad2bb55e027792c3f4f2c2d3f678163c",
    "Q": "0b21db899ea28d3049efcd58d0f42cce6c6055857be7b5115cf88e930ab27c71",
}


@pytest.mark.parametrize("family", ["P", "Q"])
def test_voltage_tables_are_pinned(family):
    phi = _voltages(family, _base(family))
    digest = hashlib.sha256(np.ascontiguousarray(phi, dtype="<i8").tobytes()).hexdigest()
    assert digest == _PHI_SHA256[family]


def test_voltages_peak_memory():
    # family Q's table is solved in a compact working set: flat arrays of
    # about 9 bytes a term, with no Python object per term or cycle
    base = _base("Q")
    _voltages("Q", base)  # one-time imports are not the solve's working set
    tracemalloc.start()
    try:
        _voltages("Q", base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


_ONE_POINT = np.zeros((3, 1), dtype=np.int64)  # the trivial group: every edge a loop


@pytest.mark.parametrize("base, relators, seeds, match", [
    # a^4 does not close on Z_3 (a = b = c the 3-cycle)
    (np.stack([np.roll(np.arange(3), -1)] * 3), None, None, "not trivial in the m = 1 group"),
    # x = a^2 alone fixes a, at voltage (1, 0) / 2
    (_ONE_POINT, [], ("a^2", "b"), "no integral solution"),
    # no cycle crosses c
    (_ONE_POINT, [], ("a", "b"), "1 of 3 edge voltages are not determined"),
    # the relator a and x = a ask a for 0 and for (1, 0)
    (_ONE_POINT, ["a", "c"], ("a", "b"), "does not sum to its voltage"),
])
def test_voltages_raise_on_each_failure(monkeypatch, base, relators, seeds, match):
    u = presentation_U()
    if relators is not None:
        pres = Presentation(u.names, [u.parse_word(r) for r in relators])
        monkeypatch.setattr(families, "presentation_U", lambda: pres)
    if seeds is not None:
        words = tuple(u.parse_word(w) for w in seeds)
        monkeypatch.setattr(families, "subgroup_seed_words", lambda family, m=1: words)
    with pytest.raises(VerificationError, match=match) as err:
        _voltages("P", base)
    assert err.value.stage == "voltages"


def _certificate_of(base, phi, relators=None):
    """The family P certificate read off the cover with voltages ``phi``,
    with ``relators`` in the place of U's."""
    return _build_certificate("P", _VoltageCover(base, phi),
                              presentation_U().relators if relators is None else relators)


def test_corrupted_voltage_fails_the_certificate():
    # the certificate of a corrupted cover is built, and fails when it is
    # evaluated
    base = _base("P")
    phi = _voltages("P", base)
    assert _certified_order(_certificate_of(base, phi), 2) == 4096
    bad = phi.copy()
    bad[1, 5, 0] += 1
    with pytest.raises(VerificationError, match="relator") as info:
        _certified_order(_certificate_of(base, bad), 2)
    assert info.value.stage == "cover"


def test_relator_nontrivial_in_g1_fails_the_certificate():
    # verify_member does not follow the relators on the reference group
    # again, because the certificate already closes every relator's walk
    # over G_1's points: a relator that is not trivial in G_1 fails it
    u = presentation_U()
    cert = _certificate_of(_base("P"), _cover("P").phi, (u.atom("a"),) + u.relators)
    with pytest.raises(VerificationError, match="relator a fails") as info:
        _certified_order(cert, 2)
    assert info.value.stage == "cover"
    assert str(info.value) == "[cover] relator a fails on the cover of degree 4096"


@pytest.mark.parametrize("family", ["P", "Q"])
def test_action_table_matches_the_voltages(family):
    # the stated action g^-1 s g = x^i y^j is what the voltages give: the
    # lift of g^-1 s g from point 0 closes there with voltage (i, j)
    cover, fam = _cover(family), FAMILIES[family]
    u = presentation_U()
    for s, row in zip(subgroup_seed_words(family), fam.action):
        for name, want in zip(u.names, row):
            g = u.atom(name)
            end, volt = cover.lift(g.inverse() * s * g)
            assert end[0] == 0 and tuple(volt[0].tolist()) == want, (s, name)


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
    for table in (zero, 2 * phi):
        cert = _certificate_of(base, table)
        with pytest.raises(VerificationError, match="not transitive") as info:
            _certified_order(cert, 2)
        assert info.value.stage == "cover"
        sigma = [Permutation(img) for img in _cover_images(base, table, 2)]
        assert not PermGroup(sigma).is_transitive()
    assert _certified_order(_certificate_of(base, 2 * phi), 3) == 1024 * 9
    sigma = [Permutation(img) for img in _cover_images(base, 2 * phi, 3)]
    assert PermGroup(sigma).is_transitive()


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
    cover = _cover(family)
    roots = FAMILIES[family].roots
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
    # 2000 cosets complete P's m = 1 table (1060) but not the conjugation
    # proof (2097)
    with pytest.raises(EnumerationIncomplete) as info:
        member_triple("P", 2, VerifyOptions(max_cosets=2000))
    assert info.value.stage == "conjugation" and info.value.cap == 2000


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
    series = _cover(family).derived
    terms = [series.term(k) for k in range(4)]
    assert [int(t.mask.sum()) for t in terms] == sizes
    assert [t.lattice for t in terms] == [(1, 0, 1)] * 3 + [(0, 0, 0)]
    assert all(verify_member(family, m, VerifyOptions(axioms=False)).derived_length == 3
               for m in (1, 2, 5))


def test_m1_report_needs_no_conjugation_proof(capsys):
    # 2000 cosets complete P's m = 1 table (1060) and 3000 complete Q's
    # (2074), but neither completes the conjugation proof (2097 for P, 3601
    # for Q): m = 1 still gets a full report, its solvability included, and
    # m = 2 still exits 2
    for family, cap in (("P", 2000), ("Q", 3000)):
        small = verify_member(family, 1, VerifyOptions(max_cosets=cap))
        full = verify_member(family, 1)
        small.timings_ms = full.timings_ms = {}
        assert small == full and small.derived_length == 3
    assert main(["verify", "--family", "Q", "--m", "2", "--max-cosets", "3000"]) == 2
    assert "cap of 3000 cosets" in capsys.readouterr().err


def _mask_at(term, m):
    """The points of the cover at m that the subgroup ``term`` of U takes
    (0, 0, 0) to, numbered as the cover's points are: (c, v) with c in its
    orbit and v - p(c) in L + mZ^2, that coset of Z_m^2 found by search."""
    a, b, d = term.lattice
    near = np.zeros((m, m), dtype=bool)
    near[tuple(np.array(sorted(_closure([(a, b), (0, d)], m))).T)] = True
    pts = np.flatnonzero(term.mask)
    v = np.arange(m)
    px, py = (term.pot[pts] % m).T
    mask = np.zeros((term.mask.shape[0], m, m), dtype=bool)
    mask[pts] = near[((v - px[:, None]) % m)[:, :, None], ((v - py[:, None]) % m)[:, None, :]]
    return mask.ravel()


@pytest.mark.parametrize("family", ["P", "Q"])
def test_normal_closure_of_lifts_matches_the_member(family):
    # the closure of b^2 (or of a b^-1) under conjugation by a and b alone
    # is not normalized by c (16 against 32 elements in P_1), so a closure
    # that skips a conjugator comes out smaller.  The cover's ids are its
    # points, so the closure of the lifts, read at m, is the member's orbit
    cover = _cover(family)
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


@pytest.mark.parametrize("family, m", [(f, m) for f in "PQ" for m in (*range(1, 9), 16)])
def test_canonical_spans_match_the_member(family, m):
    # each span read at m against the orbit search of the same subgroup on
    # the member's action, and each meet against the two orbits' masks
    spans = _cover(family).canonical
    t = member_triple(family, m)
    for ix in _CANONICAL:
        assert spans[ix].order(m) == t.subgroup(*ix).order(), ix
    for x, y in _MEETS:
        want = t.subgroup(*x).intersection_order(t.subgroup(*y))
        assert spans[x].meet_order(spans[y], m) == want, (x, y)
    assert _intersection_condition(family_certificate(family), m) == intersection_condition(t)


@pytest.mark.parametrize("family", ["P", "Q"])
def test_meet_order_matches_the_cover_masks(family):
    # on the canonical pairs the lattice factor |(A cap B)/mZ^2| is 1, so
    # the meets are also taken with U's derived terms, which meet N in Z^2,
    # and with <s2,s3>, whose lattice is nonzero too: there the factor is
    # up to m^2.  The masks are the points each term reaches, by search
    cover = _cover(family)
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
    r0 = FAMILIES[family].reference
    ref = member_triple(family, r0)
    want = {}
    for m in (1, 2, 3):
        t = member_triple(family, m)
        want[m] = verify_member(family, m, opts)
        assert want[m].intersection_condition == intersection_condition(t)
        assert want[m].quotient_criterion == (m % r0 == 0 and quotient_criterion(t, ref))

    def refuse(self, generators):
        raise AssertionError("a subgroup orbit on the member's action")

    monkeypatch.setattr(PermGroup, "subgroup", refuse)
    for m in (1, 2, 3):
        got = verify_member(family, m, opts)
        got.timings_ms = want[m].timings_ms = {}
        assert got == want[m]


# -- every check of verify_member, read off the cover ---------------------------

@pytest.mark.parametrize("family, m", [(f, m) for f in "PQ" for m in (*range(1, 9), 16)])
def test_span_reads_match_the_member(family, m):
    # the report's order, type and verdict against the per-action engine on
    # the member's own permutations: no polytope where the intersection
    # condition fails, else the mirror test's verdict
    got = verify_member(family, m, VerifyOptions(axioms=False))
    t = member_triple(family, m)
    verdict = chirality_verdict(t, preferred_witness=mirror_witness_relator())
    assert got.order == t.group.order() == expected_order(family, m)
    assert got.schlafli == validate_rotation_triple(t.group, t.sigma).as_tuple()
    want = verdict.verdict if intersection_condition(t) else "not-a-polytope"
    assert got.verdict == want and got.witness_order == verdict.witness_order
    assert got.witness_relator == (t.presentation.word_str(verdict.witness_relator)
                                   if verdict.witness_relator else None)


@pytest.mark.parametrize("family", ["P", "Q"])
def test_word_order_on_the_cover_matches_the_member(family):
    # d m / gcd(m, V) against the length of id 0's cycle on the member, for
    # random words of U; at m = 4, 6 and 8 some words pick up a voltage V
    # with 1 < gcd(m, V) < m, so the gcd is not just 1 or m
    cover, rng = _cover(family), random.Random(1912)
    words = [Word(tuple(rng.choice((1, 2, 3, -1, -2, -3)) for _ in range(rng.randint(1, 12))))
             for _ in range(60)]
    partial = set()
    for m in (2, 3, 4, 6, 8):
        t = member_triple(family, m)
        for w in words:
            assert cover.word_order(w, m) == t.group.word_order(w, t.sigma), (w, m)
            end, volt = cover.lift(w)
            c, v = int(end[0]), volt[0]
            while c:
                c, v = int(end[c]), v + volt[c]
            if 1 < math.gcd(m, *v.tolist()) < m:
                partial.add(m)
    assert {4, 6, 8} <= partial


@pytest.mark.parametrize("family", ["P", "Q"])
def test_verify_member_builds_no_member(family, monkeypatch):
    # without the axiom suite every check is read off the cover, so neither
    # the member's triple nor its images are built
    opts = VerifyOptions(axioms=False)
    want = {m: verify_member(family, m, opts) for m in (1, 2, 3)}

    def refuse(*args, **kwargs):
        raise AssertionError("a member of the cover's degree was built")

    monkeypatch.setattr(families, "member_triple", refuse)
    monkeypatch.setattr(families, "_cover_images", refuse)
    for m in (1, 2, 3):
        got = verify_member(family, m, opts)
        got.timings_ms = want[m].timings_ms = {}
        assert got == want[m]


# -- the per-root integer reads against the lifts and the member ---------------

_MS = (*range(1, 9), 16, 2 ** 10)


def _pipeline_words(family):
    """Every word the pipeline asks the cover about: U's relators, the
    canonical relations, the mirror witness and its image, and the seed
    relators of every m in ``_MS``."""
    witness = mirror_witness_relator()
    return (list(presentation_U().relators) + [w for _, w in _CANONICAL_RELATIONS]
            + [witness, _mirror_image(witness)]
            + [w for m in _MS for w in subgroup_seed_words(family, m)])


def _lifted_reads(cover, w, m):
    """Whether ``w`` holds at m and its order there, read off its lift: every
    walk closes with voltages 0 mod m; point 0's cycle under the end map of
    length d picks up V, and (0, 0)'s cycle has length d m / gcd(m, V)."""
    end, volt = cover.lift(w)
    holds = bool(np.array_equal(end, np.arange(end.shape[0])) and not (volt % m).any())
    c, v, d = int(end[0]), volt[0], 1
    while c:
        c, v, d = int(end[c]), v + volt[c], d + 1
    return holds, d * m // math.gcd(m, *v.tolist())


@pytest.mark.parametrize("family", ["P", "Q"])
def test_integer_reads_match_the_lifts_and_the_member(family):
    cover = _cover(family)
    words = _pipeline_words(family)
    verdicts = set()
    for m in _MS:
        t = member_triple(family, m) if m <= 16 else None
        for w in words:
            got = cover.holds(w, m), cover.word_order(w, m)
            assert got == _lifted_reads(cover, w, m), (w, m)
            if t is not None:
                assert got == (t.group.word_id(w, t.sigma) == 0,
                               t.group.word_order(w, t.sigma)), (w, m)
            verdicts.add(got[0])
    assert verdicts == {True, False}


def _vectorised_meet(h, k, m):
    """|H cap K| at m by testing every point of C_H cap C_K against the
    Hermite normal form of L_H + L_K + mZ^2 (the count before the residue
    classes)."""
    both = np.flatnonzero(h.mask & k.mask)
    a, b, d = _hnf(_rows(h.lattice) + _rows(k.lattice) + [(m, 0), (0, m)])
    x, y = (h.pot[both] - k.pot[both]).T
    hits = int(np.count_nonzero((x % a == 0) & ((y - x // a * b) % d == 0)))
    return hits * m * m * a * d // (_index_mod(h.lattice, m) * _index_mod(k.lattice, m))


@pytest.mark.parametrize("family", ["P", "Q"])
def test_residue_meets_match_the_vectorised_count(family):
    # the canonical pairs and U's derived terms, at every m up to 64: P at
    # odd m, where the intersection condition fails, included
    cover = _cover(family)
    spans = cover.canonical
    terms = ([spans[ix] for ix in _CANONICAL]
             + [cover.derived.term(k) for k in range(4)])
    cert = family_certificate(family)
    fails = set()
    for m in range(1, 65):
        for h, k in itertools.permutations(terms, 2):
            assert h.meet_order(k, m) == _vectorised_meet(h, k, m), m
        if not _intersection_condition(cert, m):
            fails.add(m % 2)
    assert fails == ({1} if family == "P" else set())


# -- the certificate against the lifts and the member ---------------------------

def _lifted_report(family, m):
    """What ``verify_member`` reports at m, each value found on the lifts of
    U's generators (``_VoltageCover.lift``) and their spans (``_span``),
    with every subgroup counted point by point on the cover at m."""
    cover = _cover(family)
    n = cover.base.shape[1]
    gens = [cover.lift(Word((i,))) for i in (1, 2, 3)]
    spans = {ix: _span([gens[i - 1] for i in ix], n) for ix in _CANONICAL}

    def count(term, at):
        return int(np.count_nonzero(_mask_at(term, at)))

    def meets(at):
        return [int(np.count_nonzero(_mask_at(spans[x], at) & _mask_at(spans[y], at)))
                for x, y in _MEETS]

    def condition(at):
        return meets(at) == [1, 1, count(spans[2,], at)]

    relators = list(presentation_U().relators) + list(subgroup_seed_words(family, m))
    assert all(_lifted_reads(cover, r, m)[0] for r in relators)
    order = count(_span(gens, n), m)
    assert order == n * m * m
    assert all(_lifted_reads(cover, w, m)[0] for _, w in _CANONICAL_RELATIONS)
    r0 = FAMILIES[family].reference
    series = [count(cover.derived.term(k), m) for k in range(1, 4)]
    witness = mirror_witness_relator()
    assert _lifted_reads(cover, witness, m)[0]
    holds, witness_order = _lifted_reads(cover, _mirror_image(witness), m)
    assert not holds
    ic = condition(m)
    return {
        "order": order,
        "schlafli": tuple(count(spans[i,], m) for i in (1, 2, 3)),
        "intersection_condition": ic,
        "quotient_criterion": (m % r0 == 0 and condition(r0)
                               and any(count(spans[ix], m) == count(spans[ix], r0)
                                       for ix in ((1, 2), (2, 3)))),
        "derived_orders": series,
        "derived_length": len(series) if series[-1] == 1 else None,
        "verdict": "chiral" if ic else "not-a-polytope",
        "witness_relator": presentation_U().word_str(witness),
        "witness_order": witness_order,
    }


@pytest.mark.parametrize("family, m", [(f, m) for f in "PQ" for m in (*range(1, 9), 16, 32)])
def test_certificate_matches_the_lifts_and_the_member(family, m):
    # each value the report reads off the certificate, against the lifts and
    # spans of U's generators counted on the cover at m, and at m <= 4
    # against the per-action engine on the member's own permutations
    r = verify_member(family, m, VerifyOptions(axioms=False))
    got = {"order": r.order, "schlafli": r.schlafli,
           "intersection_condition": r.intersection_condition,
           "quotient_criterion": r.quotient_criterion,
           "derived_orders": derived_orders(family, m), "derived_length": r.derived_length,
           "verdict": r.verdict, "witness_relator": r.witness_relator,
           "witness_order": r.witness_order}
    assert got == _lifted_report(family, m)
    if m > 4:
        return
    t = member_triple(family, m)
    r0 = FAMILIES[family].reference
    mirror = chirality_verdict(t, preferred_witness=mirror_witness_relator())
    assert r.order == t.group.order()
    assert r.schlafli == validate_rotation_triple(t.group, t.sigma).as_tuple()
    assert r.intersection_condition == intersection_condition(t)
    ref = member_triple(family, r0)
    assert r.quotient_criterion == (m % r0 == 0 and intersection_condition(ref)
                                    and quotient_criterion(t, ref))
    assert r.verdict == (mirror.verdict if intersection_condition(t) else "not-a-polytope")
    assert r.witness_relator == t.presentation.word_str(mirror.witness_relator)
    assert r.witness_order == mirror.witness_order
    assert r.derived_length == t.group.derived_length()
