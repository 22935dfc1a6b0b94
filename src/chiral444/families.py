"""The two quotient families and the per-member verification pipeline.

A family is one record (``Family``, in ``FAMILIES``): member m adds x^m and
y^m to the base group U and has order base_order * m^2.  A process keeps
what it builds of a family in one ``_FamilyState``.

The m = 1 member G_1 = U/N, N = <x, y>, is built once per family by
Todd-Coxeter (``reference_triple``).  Every other member
G_m = U/<x^m, y^m> is a Z_m^2 cover of it: N is normal in U and free abelian
on x, y, so each element of G_m is x^v1 y^v2 t_c for a point c of G_1's
regular table, and a generator g sends (c, v) to (c.g, v + phi[g, c] mod m).
The point (c, v1, v2), numbered c m^2 + v1 m + v2, is the element's id
(``PermGroup.regular``): id 0 is the identity, x^i y^j has id
(i mod m) m + (j mod m).  The voltage table phi is derived once per family
from U's relator cycles on G_1's Cayley graph (``_voltages``).  Each cover
member carries a two-sided order certificate: the family relators hold on a
transitive action of degree |G_1| m^2 (lower bound), and the conjugation
relations, proved once per family by traces from every coset of U's
partial Felsch tables (enumerated once for both families), bound |G_m| by
|G_1| m^2 (upper bound).  A relator is decided at every point of the cover
without forming its product there: its walk is lifted to G_1's points with
the voltage sum it picks up (``_VoltageCover.lift``, ``_root``), and it
holds iff every walk closes with a sum of 0 mod m.  Transitivity is read
off the span of U's generator lifts, so no search runs over the cover's
points.

Solvability is decided for every m from one derived series of U per family
(``_derived_series``), built on G_1's points with the same voltages: term k
is its orbit C_k on G_1, a potential in Z^2 for each point of it, and the
lattice L_k = U^(k) cap N, so |G_m^(k)| = |C_k| m^2 / [Z^2 : L_k + mZ^2].
At m = 1 only the C_k count, and they are G_1's derived series; for m >= 2
the lattices count too, which the conjugation proof makes sound (N = Z^2).
No member's normal closures are built; ``PermGroup.derived_length`` on the
member is the cross-check.

The intersection condition and the quotient criterion's subgroup orders
are read the same way, off the spans of U's canonical subgroups <a>, <b>,
<c>, <a,b>, <b,c> on G_1's points (``_span``), built once per family.  A
span at m is its subgroup's orbit of (0, 0), the points
(c, p(c) + L + mZ^2), so |<X> cap <Y>| in G_m is the number of c in
C_X cap C_Y with p_X(c) - p_Y(c) in L_X + L_Y + mZ^2, times
|(L_X + mZ^2) cap (L_Y + mZ^2) / mZ^2| (``_meet_order``).  This is the
same statement as the orbit searches of ``polytope.intersection_condition``
on the member: the member is the certified regular cover whose s_i is the
lift of generator i, so each of its subgroups is that orbit of id 0.  The
per-action engine stays as the tests' cross-check.

``verify_member`` runs the full pipeline on a member: rotation-triple
validation, the intersection condition, the quotient criterion against the
family's reference member, solvability, mirror test with witness, and
(optionally) the polytope axiom suite.  Every check but the axiom suite
evaluates the family's certificate at m; only ``member_triple`` builds a
member's permutations, for the coset geometry and the tests' cross-check.

The certificate.  What m does not enter is built once per family, on its
first member read, and kept: G_1, the voltages (``_VoltageCover``) and the
conjugation proof.  ``family_certificate`` reads off them the integers
every report needs (``FamilyCertificate``), holding no m and no per-point
array: the four integers (``_Read``) of the shortest root u of each word
the pipeline asks about, namely its period d, the gcd g of the voltage
sums of u^d, and the length e and voltage W of point 0's cycle under it;
the orbit size and lattice of each canonical span and of each term of U's
derived series (``_Span``); and for each pair of the intersection
condition, S = L_H + L_K with the counts of its classes (``_Meet``).  The
lifts, spans and terms these come from are built once, for the
certificate, and dropped.  A member's checks evaluate the records at m,
each with one module-level formula: u^k holds iff d | k and m | (k/d) g
(``_power_holds``) and has order o / gcd(o, k) for o = e m / gcd(m, W)
(``_power_order``); a span has |C| m^2 / [Z^2 : L + mZ^2] elements
(``_span_order``); a meet is the count above (``_meet_order``); and the
derived orders are the terms' span orders until trivial or stable
(``_derived_orders``).  Each formula is the statement it replaces on the
cover at m, which ``certified_order`` certifies as G_m's regular
representation.  No presentation or other object of the member is built
and nothing keyed by m is kept, so a warm ``verify_member`` without the
axiom suite costs the same at every m.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import ClassVar, Iterable, NamedTuple, Sequence

import numpy as np

from .coset import (DEFAULT_MAX_COSETS, CosetTable, EnumerationConfig,
                    enumerate_cosets)
from .perms import PermGroup, Permutation, _spanning_tree, orbit
from .polytope import (_CANONICAL_RELATIONS, AxiomReport, RotationTriple,
                       _mirror_image, build_coset_geometry, canonical_type,
                       check_element_cap, mirror_verdict, verify_axioms)
from .words import Presentation, Word, parse_presentation, word_str


@dataclass(frozen=True)
class Family:
    """A quotient family of U: its kernel generators x = w1^4, y = w2^4,
    named ``kernel``, for the ``seeds`` w1, w2; ``base_order``, the paper's
    order of the m = 1 member; ``action[s][g]`` = (i, j) with
    g^-1 s g = x^i y^j; and ``reference``, the quotient criterion's
    reference member: the least m whose member passes the intersection
    condition and the axiom suite (Q_1; P_2, since P fails the condition at
    every odd m).  It serves the members at its multiples, which map onto
    it generator by generator.  The action is stated, not read off the
    voltages, so the conjugation proof needs no m = 1 member; the tests
    cross-check it, and that the reference passes the axioms."""

    name: str
    seeds: tuple[str, str]
    kernel: tuple[str, str]
    base_order: int
    action: tuple[tuple[tuple[int, int], ...], ...]
    reference: int

    @functools.cached_property
    def roots(self) -> tuple[Word, Word]:
        """The seed roots as words of U, parsed once per process."""
        u = presentation_U()
        return u.parse_word(self.seeds[0]), u.parse_word(self.seeds[1])


FAMILIES = {f.name: f for f in (
    Family("P", ("a*c^-1", "c^-1*a"), ("x", "y"), 1024,
           (((0, 1), (0, 1), (0, 1)), ((1, 0), (-1, 0), (-1, 0))), 2),
    Family("Q", ("b*c^-1", "c^-1*b"), ("z", "w"), 2048,
           (((-1, 0), (0, 1), (0, 1)), ((0, 1), (-1, 0), (-1, 0))), 1),
)}

# the canonical subgroups the intersection condition and the quotient
# criterion ask for, as 1-based generator indices, and the intersection
# condition's three pairs of them
_CANONICAL = ((1,), (2,), (3,), (1, 2), (2, 3))
_MEETS = (((1,), (2, 3)), ((1, 2), (3,)), ((1, 2), (2, 3)))


def _family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


class VerificationError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.message = message


class EnumerationIncomplete(VerificationError):
    """Coset cap exhausted; rerun with a larger --max-cosets."""

    def __init__(self, stage: str, cap: int):
        super().__init__(stage, f"enumeration exhausted the cap of {cap} cosets; "
                                f"rerun with a larger cap to resume")
        self.cap = cap


@functools.cache
def bundled_presentation(name: str) -> Presentation:
    """One of the bundled presentation files, 'U', 'G1' or 'H1', parsed once
    per process."""
    if name not in ("U", "G1", "H1"):
        raise ValueError(f"unknown bundled presentation {name!r}")
    return parse_presentation(
        resources.files("chiral444").joinpath(f"data/{name}.pres").read_text())


def presentation_U() -> Presentation:
    """The three-generator, nine-relator base presentation (bundled file)."""
    return bundled_presentation("U")


def subgroup_seed_words(family: str, m: int = 1) -> tuple[Word, Word]:
    """The two subgroup generator words of a family member, e.g. x^m, y^m."""
    w1, w2 = _family(family).roots
    if m < 1:
        raise ValueError("m must be a positive integer")
    return w1 ** (4 * m), w2 ** (4 * m)


def family_presentation(family: str, m: int) -> Presentation:
    """Base relators plus the family pair at exponent 4m.

    U's nine relators are taken from ``presentation_U()`` as they stand,
    already reduced, and only the two seed relators are reduced here
    (``Presentation.extended``); the result equals
    ``Presentation(u.names, u.relators + subgroup_seed_words(family, m))``.
    The added words generate a normal subgroup, so the presented quotient is
    exactly the member group (cross-checked by ``normality_cross_check``).
    """
    return presentation_U().extended(subgroup_seed_words(family, m))


def expected_order(family: str, m: int) -> int:
    return _family(family).base_order * m * m


@functools.cache
def mirror_witness_relator() -> Word:
    """The relator whose mirror image certifies chirality, parsed once per
    process."""
    return presentation_U().parse_word("a^2*c^2*b^2*(a*c)^2")


@dataclass(frozen=True)
class VerifyOptions:
    """``max_cosets`` caps the m = 1 enumeration and the conjugation proof;
    ``axioms`` asks for the axiom suite (None: only at m = 1).  The class
    constants ``strategy`` (how the m = 1 member is enumerated) and
    ``intersection_cap`` (of ``polytope``'s orbit searches, which
    ``verify_member`` does not run) change no result, so they are fixed.
    ``strategy`` is "felsch", the one strategy ``coset`` has; it stays
    because the benchmark's operations pass it on, and can go with them
    (ROADMAP item 7)."""

    strategy: ClassVar[str] = "felsch"
    intersection_cap: ClassVar[int] = 10_000

    max_cosets: int = DEFAULT_MAX_COSETS
    axioms: bool | None = None


@dataclass
class MemberReport:
    family: str
    m: int
    order: int
    expected_order: int
    schlafli: tuple[int, int, int]
    solvable: bool
    derived_length: int | None
    intersection_condition: bool
    quotient_criterion: bool
    verdict: str  # "chiral" | "regular" | "not-a-polytope"
    witness_order: int | None
    witness_relator: str | None
    axioms: AxiomReport | None
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        ok = (self.order == self.expected_order
              and self.schlafli == (4, 4, 4)
              and self.solvable
              and self.quotient_criterion
              and self.intersection_condition
              and self.verdict == "chiral")
        if self.axioms is not None:
            ok = ok and self.axioms.all_ok
        return ok

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 2,
            "family": self.family,
            "m": self.m,
            "order": self.order,
            "expected_order": self.expected_order,
            "schlafli": list(self.schlafli),
            "solvable": self.solvable,
            "derived_length": self.derived_length,
            "intersection_condition": self.intersection_condition,
            "quotient_criterion": self.quotient_criterion,
            "verdict": self.verdict,
            "witness_order": self.witness_order,
            "flags": self.axioms.flag_count if self.axioms else None,
            "axioms": ({"p1": self.axioms.p1_ok, "p2": self.axioms.p2_ok,
                        "p3": self.axioms.p3_ok, "p4": self.axioms.p4_ok}
                       if self.axioms else None),
            "timings_ms": self.timings_ms,
        }


class StageTimer:
    """Milliseconds per stage, each stage timed from the previous lap."""

    def __init__(self):
        self.timings: dict[str, float] = {}
        self._t = time.perf_counter()

    def lap(self, stage: str):
        now = time.perf_counter()
        self.timings[stage] = round((now - self._t) * 1000.0, 3)
        self._t = now


def _enumerate_member(family: str, m: int, cap: int) -> CosetTable:
    table = enumerate_cosets(family_presentation(family, m), [],
                             EnumerationConfig(max_cosets=cap))
    if not table.is_complete:
        raise EnumerationIncomplete("enumerate", cap)
    return table


def _todd_coxeter_triple(table: CosetTable) -> RotationTriple:
    """The group of a complete coset table of the trivial subgroup on its
    regular representation, the cosets as ids."""
    sigma = table.permutation_rep()
    group = PermGroup.regular(sigma)
    if not group.is_transitive():
        raise VerificationError("action", "the regular representation is not transitive")
    return RotationTriple(group, tuple(sigma), table.presentation)


def reference_triple(family: str, opts: VerifyOptions | None = None) -> RotationTriple:
    """The m = 1 member's triple, built once per family by Todd-Coxeter.

    It is the base of every cover member and the reference for the quotient
    criterion.
    """
    return _state(family).reference((opts or VerifyOptions()).max_cosets)


def _walk_terms(word: Word, base: np.ndarray, inv: np.ndarray,
                start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed walks spelling ``word`` from the points ``start`` of a
    Cayley graph, as net terms.

    ``base[g, c]`` is c.g and ``inv`` its inverse table; edge ``g*n + c`` is
    c -> c.g.  Row j is the walk from ``start[j]``: ``edge[j, i]`` is the
    edge its i-th letter runs along (or against), and ``coef[j, i]`` is the
    net number of times the walk runs along that edge if i is the edge's
    first position in the row, and 0 at its later positions.
    """
    n = base.shape[1]
    letters = word.letters
    edge = np.empty((len(start), len(letters)), dtype=np.int32)
    # a net count is at most len(word) in size: int8 for every word used here
    coef = np.empty(edge.shape, dtype=np.min_scalar_type(-len(letters) - 1))
    pts = start
    for i, x in enumerate(letters):
        g = abs(x) - 1
        if x > 0:
            edge[:, i] = g * n + pts
            pts = base[g, pts]
        else:
            pts = inv[g, pts]
            edge[:, i] = g * n + pts
        coef[:, i] = 1 if x > 0 else -1
    if not np.array_equal(pts, start):
        raise VerificationError("voltages", f"{word!r} is not trivial in the m = 1 group")
    for i, j in itertools.combinations(range(len(letters)), 2):
        if abs(letters[i]) == abs(letters[j]):  # only then can the edges agree
            same = np.flatnonzero(edge[:, i] == edge[:, j])
            coef[same, i] += coef[same, j]
            coef[same, j] = 0
    return edge, coef


def _ranges(start: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries start[r] .. start[r + 1] - 1 of a CSR index for each of
    ``rows`` in turn, and where each row's run begins among them."""
    lo = start[rows]
    counts = start[rows + 1] - lo
    first = np.cumsum(counts) - counts
    return np.repeat(lo - first, counts) + np.arange(counts.sum()), first


def _voltages(family: str, base: np.ndarray) -> np.ndarray:
    """Voltage phi[g, c] in Z^2 of each edge c -> c.g of the m = 1 group.

    phi[g, c] is the (x, y)-coordinate in N = <x, y> = Z^2 of t_c g t_{c.g}^-1,
    where the transversal words t_c follow the queue-BFS spanning tree from
    point 0 that ``perms.orbit`` and ``perms._spanning_tree`` give, so tree
    edges carry 0.  Each relator of U spells a closed walk from every
    point whose voltages sum to 0; the walks of x and y from point 0 sum to
    (1, 0) and (0, 1).  Each walk is one cycle, an equation over the edges
    it crosses on balance.

    The cycles are held as flat arrays, built word by word: a term is an
    int32 edge id and its net coefficient (int8 here), a walk's repeated
    edges merged into one term (``_walk_terms``); ``term_start`` indexes the
    terms by cycle and ``users``/``user_start`` the cycles by edge (both
    compressed sparse rows).  The deduction runs in rounds: every cycle left
    with exactly one unknown edge fixes it, all in one numpy pass.  Then
    every cycle is checked against its target, one word's cycles at a time.
    With T terms (the sum of U's relator lengths times |G_1|) and C cycles,
    the arrays take 9 bytes a term and 18 a cycle, and no Python object is
    made per term or cycle: family Q (T = 118784, C = 18434) peaks at about
    2.9 MiB traced.  Raises VerificationError if a walk does not close, a
    cycle has no integral solution, an edge stays undetermined or a cycle
    sums wrongly.
    """
    ngens, n = base.shape
    nedges = ngens * n
    inv = np.empty_like(base)
    for g in range(ngens):
        inv[g, base[g]] = np.arange(n)
    known = np.zeros(nedges, dtype=bool)
    orb = orbit(list(base), n)
    parent, via = _spanning_tree(orb, base)
    known[via[1:] * n + orb.order[parent[1:]]] = True  # the tree edges

    every, origin = np.arange(n), np.zeros(1, dtype=np.intp)
    words = [(r, (0, 0), every) for r in presentation_U().relators]
    words += [(w, t, origin) for w, t in zip(subgroup_seed_words(family), ((1, 0), (0, 1)))]
    edges, coef, counts, targets = [], [], [], []
    for word, target, start in words:
        edge, k = _walk_terms(word, base, inv, start)
        keep = k != 0
        edges.append(edge[keep])
        coef.append(k[keep])
        counts.append(np.count_nonzero(keep, axis=1))
        targets.append(np.broadcast_to(np.array(target, dtype=np.int8), (len(start), 2)))
    edges, coef, targets = (np.concatenate(a) for a in (edges, coef, targets))
    ncycles = len(targets)
    term_start = np.zeros(ncycles + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=term_start[1:])
    unknown = np.diff(term_start)
    # the cycles by edge: sort the keys edge * C + cycle in place
    dtype = np.int32 if nedges * ncycles < 2 ** 31 else np.int64
    users = edges.astype(dtype)
    users *= ncycles
    users += np.repeat(np.arange(ncycles, dtype=dtype), unknown)
    users.sort()
    user_start = np.searchsorted(users, np.arange(nedges + 1, dtype=dtype) * ncycles)
    users %= ncycles

    value = np.zeros((nedges, 2), dtype=np.int64)  # 0 on every unknown edge
    new = np.flatnonzero(known)
    while True:
        known[new] = True
        unknown -= np.bincount(users[_ranges(user_start, new)[0]], minlength=ncycles)
        front = np.flatnonzero(unknown == 1)
        if not len(front):
            break
        terms, first = _ranges(term_start, front)
        e, k = edges[terms], coef[terms].astype(np.int64)
        rest = np.add.reduceat(k[:, None] * value[e], first)
        one = np.flatnonzero(~known[e])  # the unknown term of each cycle
        e, k = e[one], k[one, None]
        rhs = targets[front] - rest
        bad = np.flatnonzero((rhs % k).any(axis=1))
        if len(bad):
            raise VerificationError("voltages", f"cycle {front[bad[0]]} has no integral solution")
        value[e] = rhs // k
        new = np.flatnonzero(np.bincount(e, minlength=nedges))  # e without repeats
    missing = nedges - np.count_nonzero(known)
    if missing:
        raise VerificationError("voltages", f"{missing} of {nedges} edge voltages "
                                            f"are not determined by the relator cycles")
    del users, user_start
    bounds = np.cumsum([0] + [len(start) for _, _, start in words])
    for lo, hi in zip(bounds, bounds[1:]):  # one word's cycles at a time
        a, b = term_start[lo], term_start[hi]
        total = np.zeros((b - a + 1, 2), dtype=np.int64)
        np.cumsum(coef[a:b, None] * value[edges[a:b]], axis=0, out=total[1:])
        sums = total[term_start[lo + 1:hi + 1] - a] - total[term_start[lo:hi] - a]
        if not (sums == targets[lo:hi]).all():
            raise VerificationError("voltages", "a relator cycle does not sum to its voltage")
    return value.reshape(ngens, n, 2)


def _cover_images(base: np.ndarray, phi: np.ndarray, m: int) -> list[np.ndarray]:
    """Generator images on the points (c, v1, v2), numbered c*m^2 + v1*m + v2:
    g sends (c, v) to (c.g, v + phi[g, c] mod m)."""
    v = np.arange(m)
    return [(base[g][:, None, None] * (m * m) + (v + phi[g, :, 0, None])[:, :, None] % m * m
             + (v + phi[g, :, 1, None])[:, None, :] % m).ravel()
            for g in range(base.shape[0])]


_Lift = tuple[np.ndarray, np.ndarray]


def _compose(a: _Lift, b: _Lift) -> _Lift:
    """The lift of a word followed by another (``_VoltageCover.lift``):
    (p1, v1)(p2, v2) = (p2[p1], v1 + v2[p1])."""
    return b[0][a[0]], a[1] + b[1][a[0]]


def _inverse_lift(lift: _Lift) -> _Lift:
    """The lift of a word's inverse: (p, v)^-1 = (p^-1, -v[p^-1])."""
    end, volt = lift
    inv = np.empty_like(end)
    inv[end] = np.arange(end.shape[0])
    return inv, -volt[inv]


class _VoltageCover:
    """G_1's regular table ``base`` with a voltage table ``phi``: the Z_m^2
    cover at every m.  ``letters`` holds each generator g's lift
    (base[g], phi[g]) and ``inverses`` the lift of g^-1, each inverted once
    (``_inverse_lift``); every lift, span and derived term is composed of
    them.

    A word lifts to a pair (end, volt): from each point c of G_1 its walk
    ends at ``end[c]`` and picks up the voltage sum ``volt[c]`` in Z^2.  On
    the cover at m the word sends (c, v) to (end[c], v + volt[c] mod m), so
    it is the identity there iff every walk is closed and every voltage sum
    is 0 mod m.  The pipeline reads a word through the integers of its
    shortest root (``_read``); ``lift`` is what the tests check them
    against.
    """

    def __init__(self, base: np.ndarray, phi: np.ndarray):
        self.base, self.phi = base, phi
        self.letters = tuple((base[g], phi[g]) for g in range(base.shape[0]))
        self.inverses = tuple(_inverse_lift(g) for g in self.letters)
        for arr in itertools.chain(*self.letters, *self.inverses):
            arr.setflags(write=False)  # a lift may hand them on as they are

    def lift(self, word: Word) -> _Lift:
        """The walks of ``word`` from every point.

        A power u^k of its shortest root u, such as a family relator
        (w1)^{4m}, is read off u's period d (``_root``): lift(u^d) is
        (id, V), so lift(u^k) is (id, (k // d) V) followed by
        lift(u^(k mod d)), taken by repeated squaring; it costs O(log d)
        compositions whatever m is.
        """
        root, k = word.as_power()
        step, period, volt = _root(self, root)
        q, k = divmod(k, period)
        end, rest = _power(step, k)
        return end, q * volt + rest


def _product(lifts: Sequence[_Lift], n: int) -> _Lift:
    """The lift of the word that spells ``lifts`` in turn, on n points."""
    if not lifts:
        return np.arange(n), np.zeros((n, 2), dtype=np.int64)
    return functools.reduce(_compose, lifts)


def _power(step: _Lift, k: int) -> _Lift:
    """The k-th power of the lift ``step``, by repeated squaring."""
    factors = []
    while k:
        if k & 1:
            factors.append(step)
        k >>= 1
        if k:
            step = _compose(step, step)
    return _product(factors, step[0].shape[0])


def _root(cover: _VoltageCover, root: tuple[int, ...]) -> tuple[_Lift, int, np.ndarray]:
    """The word ``root``'s lift, composed letter by letter of the cover's
    generator lifts and their inverses, its period d, the order of its end
    map, so that the walks of root^d all close, and their voltage sums."""
    step = _product([cover.letters[x - 1] if x > 0 else cover.inverses[-x - 1] for x in root],
                    cover.base.shape[1])
    period = Permutation._trusted(step[0].astype(np.int32)).order()
    return step, period, _power(step, period)[1]


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _hnf(vectors: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """The lattice that integer 2-vectors span, in Hermite normal form:
    (a, b, d) for the basis rows (a, b) and (0, d), with a, d >= 0, b = 0
    when a = 0, and 0 <= b < d when d > 0.  Its rank is the number of
    nonzero a, d, and for rank 2 its index in Z^2 is a*d.

    A vector (x, y) with x != 0 is merged into the first row by the
    extended gcd g = s*a + t*x: the rows (g, s*b + t*y) and
    (0, (x*b - a*y)/g) are (a, b) and (x, y) under a change of basis of
    determinant -1, so they span the same lattice.
    """
    a = b = d = 0
    for x, y in vectors:
        if x:
            g, s, t = _egcd(a, x)
            a, b, d = g, s * b + t * y, math.gcd(d, (x * b - a * y) // g)
        else:
            d = math.gcd(d, y)
        if d:
            b %= d
    return a, b, d


def _in_lattice(v: tuple[int, int], lattice: tuple[int, int, int]) -> bool:
    """Whether v lies in the lattice with Hermite normal form ``lattice``."""
    (x, y), (a, b, d) = v, lattice
    i, r = divmod(x, a) if a else (0, x)
    if r:
        return False
    y -= i * b
    return y % d == 0 if d else y == 0


def _rows(lattice: tuple[int, int, int]) -> list[tuple[int, int]]:
    """The basis rows (a, b) and (0, d) of a Hermite normal form."""
    a, b, d = lattice
    return [(a, b), (0, d)]


def _reduce_mod(v: tuple[int, int], lattice: tuple[int, int, int]) -> tuple[int, int]:
    """The one representative of v + L that the Hermite normal form
    ``lattice`` of L picks: x in [0, a) when a > 0, y in [0, d) when d > 0."""
    (x, y), (a, b, d) = v, lattice
    if a:
        i, x = divmod(x, a)
        y -= i * b
    return x, (y % d if d else y)


def _index_mod(lattice: tuple[int, int, int], m: int) -> int:
    """[Z^2 : L + mZ^2] for L the lattice with Hermite normal form
    ``lattice``: Z^2/L is Z/s1 + Z/s2 for L's elementary divisors s1 | s2
    (0 standing for Z), so the index is gcd(s1, m) gcd(s2, m).  s1 is the
    gcd of the basis entries a, b, d and s1 s2 = a d."""
    a, b, d = lattice
    s1 = math.gcd(a, b, d)
    s2 = a * d // s1 if s1 else 0
    return math.gcd(s1, m) * math.gcd(s2, m)


# -- the formulas that read a member off its family's integers ---------------

def _power_holds(k: int, period: int, gcd: int, m: int) -> bool:
    """Whether u^k is the identity on the cover at m, for u of period d and
    voltage gcd g (``_Read``): u^k's walks all close iff d | k, and then
    its voltage sums are (k/d) times those of u^d, all 0 mod m iff
    m | (k/d) g."""
    q, rest = divmod(k, period)
    return not rest and q * gcd % m == 0


def _power_order(k: int, cycle: int, cycle_gcd: int, m: int) -> int:
    """The order of u^k on the cover at m, for u whose end map puts point 0
    on a cycle of length e picking up a voltage of gcd W (``_Read``): the
    cycle of (0, 0) under u runs e times round that cycle, each time
    picking up W, until t W = 0 mod m, so u has order o = e m / gcd(m, W)
    (the cover's action is regular) and u^k has order o / gcd(o, k)."""
    o = cycle * m // math.gcd(m, cycle_gcd)
    return o // math.gcd(o, k)


def _span_order(size: int, lattice: tuple[int, int, int], m: int) -> int:
    """|H's image in G_m| = |C| m^2 / [Z^2 : L + mZ^2] for a subgroup H of U
    with orbit C (of ``size`` points) on G_1 and H cap N = L, whose Hermite
    normal form is ``lattice``: H takes (0, 0) to the points
    (c, p(c) + L + mZ^2), c in C."""
    return size * m * m // _index_mod(lattice, m)


def _meet_order(h: tuple[int, int, int], k: tuple[int, int, int],
                total: tuple[int, int, int], classes: tuple, m: int) -> int:
    """|H cap K| in G_m by the voltage-lift count of Malnic-Nedela-Skoviera,
    for subgroups H, K of U with lattices ``h``, ``k``, S = L_H + L_K
    (``total``) and ``classes``: for each class v + S of Z^2 / S that some
    point c of C_H cap C_K has p_H(c) - p_K(c) in, the lattice S + vZ in
    Hermite normal form and how many points (``_Term._meet``).

    The points of H's orbit over c are (c, p_H(c) + A), those of K's
    (c, p_K(c) + B), for A = L_H + mZ^2 and B = L_K + mZ^2.  Two cosets meet
    iff their offsets differ by an element of A + B = S + mZ^2, and then in
    a coset of A cap B.  So the meet is the number of c whose class lies in
    S + mZ^2, times |(A cap B)/mZ^2| = m^2 [Z^2 : A + B] / ([Z^2 : A] [Z^2 : B]).
    A class v lies in S + mZ^2 iff adding v to it changes nothing, i.e. iff
    [Z^2 : S + vZ + mZ^2] = [Z^2 : S + mZ^2]: both lattices have finite
    index and one contains the other."""
    index = _index_mod(total, m)
    hits = sum(count for lattice, count in classes if _index_mod(lattice, m) == index)
    return hits * m * m * index // (_index_mod(h, m) * _index_mod(k, m))


def _derived_orders(terms: Sequence["_Span"], m: int) -> list[int]:
    """|G_m'|, |G_m''|, ... until trivial or stable, the terms that
    ``PermGroup.derived_series`` lists for G_m, from U's derived terms
    U, U', ... (``_derived_series``): G_m^(k) is U^(k)'s image, and the
    orders at m are trivial or stable no later than the terms are."""
    size, out = terms[0].order(m), []
    for term in terms[1:]:
        nsize = term.order(m)
        if nsize == size:
            if not out:
                out.append(nsize)
            break
        out.append(nsize)
        if nsize == 1:
            break
        size = nsize
    return out


class _Term:
    """A subgroup H of U on G_1's points with Z^2 voltages.  H takes the
    point (0, 0) to the points (c, pot[c] + L) for c in its orbit C on
    G_1's points (``mask``), where L = H cap N is ``lattice``, in Hermite
    normal form.  ``span`` is what the certificate keeps of it, |C| and L;
    ``gens`` are the lifts of its generators."""

    def __init__(self, gens: tuple[_Lift, ...], mask: np.ndarray, pot: np.ndarray,
                 lattice: tuple[int, int, int]):
        self.gens, self.mask, self.pot, self.lattice = gens, mask, pot, lattice
        self.span = _Span(int(np.count_nonzero(mask)), lattice)

    def contains(self, c: int, v: np.ndarray) -> bool:
        """Whether H has the element that takes (0, 0) to (c, v)."""
        return bool(self.mask[c]) and _in_lattice(tuple((v - self.pot[c]).tolist()),
                                                   self.lattice)

    def _meet(self, other: "_Term") -> "_Meet":
        """H and K = ``other`` as the certificate keeps their meet: the sum
        S = L_H + L_K, in Hermite normal form, and for the class v + S of
        each point c of C_H cap C_K that p_H(c) - p_K(c) lies in, the
        lattice S + vZ: the distinct lattices, in Hermite normal form, each
        with its number of points (what ``_meet_order`` reads)."""
        both = np.flatnonzero(self.mask & other.mask)
        total = _hnf(_rows(self.lattice) + _rows(other.lattice))
        diffs = (self.pot[both] - other.pot[both]).tolist()
        classes: Counter = Counter()
        for v, count in Counter(_reduce_mod(v, total) for v in diffs).items():
            classes[_hnf(_rows(total) + [v])] += count
        return _Meet(self.span, other.span, total, tuple(classes.items()))


def _span(gens: Sequence[_Lift], n: int) -> _Term:
    """The subgroup of U that lifts ``gens`` generate, on n points of G_1:
    U's generators' lifts (``_VoltageCover.letters``) for the canonical
    spans, a term's generators for U's derived series.

    A BFS over the ends of the lifts from point 0 gives the orbit C and each
    point's potential, the voltage sum along the tree path to it.  By
    Schreier's lemma the stabilizer of point 0, H cap N, is generated by
    the elements along the edges off the tree, t_c g t_(c.g)^-1, whose
    voltages are the discrepancies pot[c] + volt[c] - pot[end[c]].
    """
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    pot = np.zeros((n, 2), dtype=np.int64)
    frontier = np.zeros(1, dtype=np.intp)
    while gens and frontier.size:
        ends = np.concatenate([end[frontier] for end, _ in gens])
        pots = np.concatenate([pot[frontier] + volt[frontier] for _, volt in gens])
        # each end once, with the index of its first occurrence
        first = np.argsort(ends, kind="stable")
        new = ends[first]
        once = np.ones(new.shape[0], dtype=bool)
        np.not_equal(new[1:], new[:-1], out=once[1:])
        new, first = new[once], first[once]
        fresh = ~mask[new]
        frontier, first = new[fresh], first[fresh]
        mask[frontier] = True
        pot[frontier] = pots[first]
    pts = np.flatnonzero(mask)
    disc = np.concatenate([pot[pts] + volt[pts] - pot[end[pts]] for end, volt in gens]
                          or [np.zeros((0, 2), dtype=np.int64)])
    # the distinct nonzero discrepancies, in any order (_hnf is canonical)
    disc = disc[disc.any(axis=1)]
    disc = disc[np.lexsort(disc.T)]
    once = np.ones(disc.shape[0], dtype=bool)
    np.any(disc[1:] != disc[:-1], axis=1, out=once[1:])
    disc = disc[once]
    return _Term(tuple(gens), mask, pot, _hnf(map(tuple, disc.tolist())))


def _at_origin(lifts: Sequence[_Lift]) -> tuple[int, np.ndarray]:
    """The point the product of ``lifts`` takes (0, 0) to, walked from
    that one point."""
    c, v = 0, np.zeros(2, dtype=np.int64)
    for end, volt in lifts:
        c, v = int(end[c]), v + volt[c]
    return c, v


def _normal_closure(seeds: Sequence[Sequence[_Lift]], cover: _VoltageCover) -> _Term:
    """The smallest subgroup of U that contains the products of ``seeds``
    (each a sequence of lifts) and is normal in U, on the cover's points:
    it is normalized by the lifts of U's generators (``letters``), each
    with its inverse (``inverses``).

    A queued element is decided by walking the one point (0, 0)
    (``_at_origin``); only an element off the subgroup so far is lifted over
    every point, and joins, and then its conjugates by U's generators are
    queued.  Closure under g^-1 H g alone suffices: U has the maximal
    condition on subgroups (it is an extension of Z^2 by the finite G_1),
    so g^-1 H g <= H forces equality.  That condition also ends the queue.
    """
    n = cover.base.shape[1]
    term = _span((), n)
    queue = list(seeds)
    for parts in queue:  # a queue: the conjugates of each joining element join it
        if term.contains(*_at_origin(parts)):
            continue
        h = functools.reduce(_compose, parts)
        term = _span(term.gens + (h,), n)
        queue.extend((gi, h, g) for g, gi in zip(cover.letters, cover.inverses))
    return term


def _derived_series(cover: _VoltageCover) -> list[_Term]:
    """The derived series U = U^(0) > U' > U'' > ... of the base group on
    the cover's points, until a term is trivial or the same as the one
    before it, which is then the last (U is not solvable).  This is the one
    place that rule is applied to U; ``_derived_orders`` reads the terms at
    m, where the series may stop sooner.

    U^(k+1) is the normal closure in U of the commutators of U^(k)'s
    generators (as in ``PermGroup._derived``), built by ``_normal_closure``.
    """
    terms = [_span(cover.letters, cover.base.shape[1])]
    inverses = cover.inverses
    while terms[-1].span != _Span(1, (0, 0, 0)):
        gens = terms[-1].gens
        terms.append(_normal_closure([(inverses[i], inverses[j], gens[i], gens[j])
                                      for i in range(len(gens))
                                      for j in range(i + 1, len(gens))], cover))
        if terms[-1].span == terms[-2].span:
            break
        inverses = [_inverse_lift(u) for u in terms[-1].gens]
    return terms


class _Read(NamedTuple):
    """A word the pipeline asks about, as the certificate holds it: u^k for
    a root u and k = k0 + km m, with u's integers (``_read``): its period
    d, the gcd g of the voltage sums of u^d, and the length e of point 0's
    cycle under u's end map with the gcd of the voltage W it picks up;
    ``text``, the word as the report renders it (None when that depends on
    m, as a seed relator's does); and ``image``, the read of its mirror
    image (None for a word the mirror test does not ask about)."""

    root: tuple[int, ...]
    k0: int
    km: int
    period: int
    gcd: int
    cycle: int
    cycle_gcd: int
    text: str | None
    image: "_Read | None"

    def holds(self, m: int) -> bool:
        return _power_holds(self.k0 + self.km * m, self.period, self.gcd, m)

    def order(self, m: int) -> int:
        return _power_order(self.k0 + self.km * m, self.cycle, self.cycle_gcd, m)


class _Span(NamedTuple):
    """A subgroup of U as the certificate holds it (``_Term``): the size of
    its orbit on G_1's points and its lattice H cap N, in Hermite normal
    form."""

    size: int
    lattice: tuple[int, int, int]

    def order(self, m: int) -> int:
        return _span_order(self.size, self.lattice, m)


class _Meet(NamedTuple):
    """A pair of spans H, K with S = L_H + L_K, in Hermite normal form, and
    the counts of their potential differences by class mod S, each class
    v + S held as the lattice S + vZ (``_Term._meet``)."""

    h: _Span
    k: _Span
    total: tuple[int, int, int]
    classes: tuple[tuple[tuple[int, int, int], int], ...]

    def order(self, m: int) -> int:
        return _meet_order(self.h.lattice, self.k.lattice, self.total, self.classes, m)


@dataclass(frozen=True)
class FamilyCertificate:
    """What every member's report reads, per family and holding no m: the
    integers that the formulas ``_power_holds``, ``_power_order``,
    ``_span_order``, ``_meet_order`` and ``_derived_orders`` evaluate at m.

    - ``points``: |G_1|, the number of G_1's points.
    - ``relators``: U's relators, then the seed relators x^m and y^m, each
      with the read of its mirror image; ``witness``, the mirror witness
      relator's read, with its image's; ``relations``, the reads of the
      canonical relations, keyed by their words
      (``polytope._CANONICAL_RELATIONS``).
    - ``spans``: the canonical spans, keyed as ``_CANONICAL``; ``meets``,
      the intersection condition's three pairs of them (``_MEETS``).
    - ``derived``: U's derived terms U, U', ... until trivial or stable
      (``_derived_series``).
    - ``reference``: the quotient criterion's reference member
      (``Family.reference``), or None when the certificate fails the
      intersection condition there.
    """

    points: int
    relators: tuple[_Read, ...]
    witness: _Read
    relations: dict[Word, _Read]
    spans: dict[tuple[int, ...], _Span]
    meets: tuple[_Meet, ...]
    derived: tuple[_Span, ...]
    reference: int | None

    def text(self, r: _Read, m: int) -> str:
        """The report's text of the word that ``r`` reads, at m."""
        if r.text is not None:
            return r.text
        return presentation_U().word_str(Word(r.root) ** (r.k0 + r.km * m))


def _read(cover: _VoltageCover, word: Word, per_m: bool = False,
          text: str | None = None, mirrored: bool = False) -> _Read:
    """The certificate's read of ``word`` = u^k, or of word^m when ``per_m``
    is set (a seed relator), off u's lift (``_root``), whose arrays are
    dropped; with ``mirrored``, its mirror image's read too."""
    root, k = word.as_power()
    (end, volt), period, power = _root(cover, root)
    end = end.tolist()
    c, e, w = end[0], 1, volt[0]
    while c:
        c, e, w = end[c], e + 1, w + volt[c]
    image = _read(cover, _mirror_image(word), per_m) if mirrored else None
    return _Read(root, 0 if per_m else k, k if per_m else 0, period,
                 int(np.gcd.reduce(power, axis=None)), e, math.gcd(*w.tolist()), text, image)


def _build_certificate(family: str, cover: _VoltageCover,
                       relators: Sequence[Word]) -> FamilyCertificate:
    """The certificate of ``family`` read off its voltage cover, with
    ``relators`` in the place of U's (the tests pass others).

    Each word's integers come from its root's lift (``_read``); the
    canonical spans, the classes of their meets (``_span``,
    ``_Term._meet``) and U's derived series (``_derived_series``) are built
    here from the cover's generator lifts, and only their integers are
    kept.  A span keyed by 1-based generator indices is, at m, the member's
    subgroup of those s_i, as ``RotationTriple.subgroup`` keys it, since
    s_i is the lift of generator i.  Nothing is checked here: a cover that
    fails at some m gives a certificate that fails when it is evaluated
    there.
    """
    names = presentation_U().names
    witness = mirror_witness_relator()
    n = cover.base.shape[1]
    terms = {ix: _span([cover.letters[i - 1] for i in ix], n) for ix in _CANONICAL}
    cert = FamilyCertificate(
        points=n,
        relators=(tuple(_read(cover, r, text=word_str(r, names), mirrored=True)
                        for r in relators)
                  + tuple(_read(cover, x, per_m=True, mirrored=True)
                          for x in subgroup_seed_words(family))),
        witness=_read(cover, witness, text=word_str(witness, names), mirrored=True),
        relations={w: _read(cover, w) for _, w in _CANONICAL_RELATIONS},
        spans={ix: t.span for ix, t in terms.items()},
        meets=tuple(terms[x]._meet(terms[y]) for x, y in _MEETS),
        derived=tuple(t.span for t in _derived_series(cover)),
        reference=_family(family).reference)
    return cert if _intersection_condition(cert, cert.reference) else replace(cert, reference=None)


class _FamilyState:
    """What a process keeps of a family, each built when first asked and
    shared by every coset cap: the m = 1 member, its voltage cover and the
    family's certificate.  It records the cosets that G_1's enumeration
    used and the caps whose conjugation proof passed, so that a smaller cap
    raises EnumerationIncomplete exactly where a fresh run with that cap
    would."""

    def __init__(self, family: str):
        _family(family)  # an unknown family raises, and is not kept
        self.family = family
        self._reference: RotationTriple | None = None
        self.reference_cosets = 0  # the Felsch run's definitions
        self.proved: set[int] = set()  # the caps whose conjugation proof passed

    def reference(self, cap: int) -> RotationTriple:
        """G_1 within ``cap`` cosets.  A Felsch run defines cosets in the
        same order at every cap and stops only when it would define one past
        the cap, so it completes iff its definitions are within the cap."""
        if self._reference is None:
            table = _enumerate_member(self.family, 1, cap)
            self._reference = _todd_coxeter_triple(table)
            self.reference_cosets = table.definitions
        elif cap < self.reference_cosets:
            raise EnumerationIncomplete("enumerate", cap)
        return self._reference

    @functools.cached_property
    def cover(self) -> _VoltageCover:
        """G_1's voltage cover; ``reference`` must have been asked first."""
        base = np.stack([p.images for p in self._reference.sigma]).astype(np.int64)
        return _VoltageCover(base, _voltages(self.family, base))

    @functools.cached_property
    def certificate(self) -> FamilyCertificate:
        """The family's certificate, read off ``cover`` when first asked."""
        return _build_certificate(self.family, self.cover, presentation_U().relators)

    def prove_conjugation(self, cap: int):
        """The upper half of every cover certificate, proved within ``cap``
        by ``verify_conjugation_action``.  The proof at a cap is a function
        of the cap alone, so a cap whose proof passed is not read again; any
        other cap reruns it on U's Felsch rungs (``_rung``), reading those
        the process has enumerated and enumerating the others, which gives
        the verdict of a fresh run."""
        if cap not in self.proved:
            if not all(c.verified for c in verify_conjugation_action(self.family, cap)):
                raise EnumerationIncomplete("conjugation", cap)
            self.proved.add(cap)


_state = functools.cache(_FamilyState)  # one per family


def _certificate(family: str, m: int, cap: int) -> FamilyCertificate:
    """The family's certificate, to be read at m within ``cap`` cosets: G_1
    is enumerated within the cap and, for m >= 2, the conjugation proof
    passes within it, checked at every call (``_FamilyState``)."""
    state = _state(family)
    if m < 1:
        raise ValueError("m must be a positive integer")
    state.reference(cap)
    if m >= 2:
        state.prove_conjugation(cap)
    return state.certificate


def family_certificate(family: str, opts: VerifyOptions | None = None) -> FamilyCertificate:
    """The family's certificate (``FamilyCertificate``), built once per
    family on its first member read and kept, with G_1 enumerated and the
    conjugation relations proved within ``opts.max_cosets``, so that it
    certifies every member.  Raises EnumerationIncomplete as
    ``certified_order`` does at m >= 2."""
    return _certificate(family, 2, (opts or VerifyOptions()).max_cosets)


def _certified_order(cert: FamilyCertificate, m: int) -> int:
    """``certified_order`` read off the certificate: |G_1| at m = 1, and for
    m >= 2 the lower half of the cover's order certificate, raising
    VerificationError at the first relator that fails or when the cover is
    not transitive."""
    if m == 1:
        return cert.points
    degree = cert.points * m * m
    for r in cert.relators:
        if not r.holds(m):
            raise VerificationError("cover", f"relator {cert.text(r, m)} fails "
                                             f"on the cover of degree {degree}")
    if cert.derived[0].order(m) != degree:
        raise VerificationError("cover", "the cover action is not transitive")
    return degree


def certified_order(family: str, m: int, opts: VerifyOptions | None = None) -> int:
    """|G_m|, certified without building the member, by evaluating the
    family's certificate at m (``_certified_order``).

    At m = 1 it is the order of the cached ``reference_triple``, a complete
    coset table of the trivial subgroup.  For m >= 2 it is the degree of the
    Z_m^2 cover of that table, the m = 1 regular table with the family's
    voltage table, certified to be G_m's regular representation:

    - lower bound: every relator of ``family_presentation(family, m)`` holds
      on the cover and the action is transitive, so |G_m| >= |G_1| m^2;
    - upper bound: the conjugation relations (proved once per family by
      ``verify_conjugation_action`` within ``opts.max_cosets``) make
      <x^m, y^m> normal in U with N/<x^m, y^m> abelian on two generators of
      order dividing m, so |G_m| <= |G_1| m^2.

    The per-family part is the certificate's integers: each relator's root
    (d, g), G_1's size, and the orbit size and lattice of U's span.  What is
    evaluated at m is m | (k/d) g for each relator u^k (``_power_holds``),
    which decides the relator on its walks over G_1's points, the same
    statement as its being the identity permutation of the cover; and
    |C| m^2 / [Z^2 : L + mZ^2] for the span of U's generator lifts
    (``_span_order``), the orbit of (0, 0), which is the whole cover for the
    family's voltages (C is G_1 and L is Z^2), so no search runs over it.
    A relator is not followed on id 0 (``PermGroup.word_id``): that rule
    holds only in a group already known to act regularly, and this
    certificate is part of what shows that.  No presentation is built.

    Raises EnumerationIncomplete when the m = 1 enumeration or the
    conjugation proof exceeds ``opts.max_cosets``, and VerificationError
    when the cover fails its certificate.
    """
    return _certified_order(_certificate(family, m, (opts or VerifyOptions()).max_cosets), m)


def member_triple(family: str, m: int, opts: VerifyOptions | None = None) -> RotationTriple:
    """The member's rotation triple on its regular representation, for
    the coset geometry and for the tests' cross-check of ``verify_member``.

    At m = 1 this is the cached ``reference_triple``'s images, on a group
    of its own on the same points.  For m >= 2 it is the images of the
    cover that ``certified_order`` certifies, on |G_1| m^2 points.  Either
    way the ids are the points, id 0 the identity, and no search numbers
    them.  Raises as ``certified_order`` does.
    """
    opts = opts or VerifyOptions()
    certified_order(family, m, opts)
    state = _state(family)
    if m == 1:
        # a group of its own, so that nothing a caller keeps on the member's
        # group is kept on the cached reference
        ref = state.reference(opts.max_cosets)
        return RotationTriple(PermGroup.regular(ref.sigma), ref.sigma, ref.presentation)
    sigma = tuple(Permutation(img) for img in _cover_images(state.cover.base, state.cover.phi, m))
    return RotationTriple(PermGroup.regular(sigma), sigma, family_presentation(family, m))


def derived_orders(family: str, m: int, opts: VerifyOptions | None = None) -> list[int]:
    """The orders of G_m's derived subgroups G_m', G_m'', ..., until trivial
    or stable: the terms ``PermGroup.derived_series`` lists for G_m, read
    off U's derived series (``_derived_series``), whose terms the family's
    certificate holds until trivial or stable, so no normal closure of G_m
    is formed.

    U acts on the points (c, v), c a point of G_1 and v in Z^2, through its
    generators' lifts: g takes (c, v) to (c.g, v + phi[g, c]).  Each term
    U^(k) is held as the size of its orbit C_k of G_1's point 0 and the
    lattice L_k spanned by the non-tree discrepancies (``_span``); that is
    the per-family part.  The image of U^(k) in G_m is G_m^(k), and what is
    evaluated at m is |G_m^(k)| = |C_k| m^2 / [Z^2 : L_k + mZ^2]
    (``_derived_orders``).  Why that is sound:

    - m = 1: only C_k counts, and C_k is G_1^(k) whatever the lattices are.
      Deciding an element by the one point it takes (0, 0) to can only err
      by an element that fixes (0, 0), whose image in G_1 is trivial, so
      the images in G_1 of every term's generators generate the normal
      closure in G_1 that ``PermGroup._derived`` builds.
    - m >= 2: here the lattices count, and the action must be U's
      right-regular action, so that each orbit of (0, 0) is its subgroup.
      The conjugation proof (checked here, as ``certified_order`` checks
      it) makes N = <x, y> normal and abelian; the voltages send x^v to a
      translation by v over point 0, so N is Z^2 and x^v t_c -> (c, v) is a
      bijection from U onto the points.  The reduction mod m of this action
      is the cover that ``certified_order`` certifies to be G_m's regular
      representation, so the image of U^(k) there is G_m^(k), of the order
      above.

    ``PermGroup.derived_length`` on the member's group is the independent
    cross-check the tests run.  Raises EnumerationIncomplete as
    ``certified_order`` does.
    """
    return _derived_orders(_certificate(family, m, (opts or VerifyOptions()).max_cosets).derived, m)


def _intersection_condition(cert: FamilyCertificate, m: int) -> bool:
    """The chiral intersection condition of the member at m, read off the
    certificate's meets (``_meet_order``): <s1> meets <s2,s3> trivially,
    <s1,s2> meets <s3> trivially, and <s1,s2> meets <s2,s3> in exactly <s2>
    (``polytope.intersection_condition``'s three tests)."""
    first, second, third = cert.meets
    return (first.order(m) == 1 and second.order(m) == 1
            and third.order(m) == cert.spans[2,].order(m))


def _quotient_criterion(cert: FamilyCertificate, m: int) -> bool:
    """The quotient criterion at m against the family's reference member
    m0: it counts only where m0 | m, so that G_m maps onto G_m0 generator
    by generator, and is then whether that map is injective on <s1,s2> or
    on <s2,s3>, i.e. the span's order is the same at m and at m0."""
    r = cert.reference
    return (r is not None and m % r == 0
            and any(cert.spans[ix].order(m) == cert.spans[ix].order(r)
                    for ix in ((1, 2), (2, 3))))


def verify_member(family: str, m: int, opts: VerifyOptions | None = None) -> MemberReport:
    """Run the full verification pipeline for one family member.

    Without the axiom suite every check evaluates the family's certificate
    (``FamilyCertificate``) at m: its integers are per family, built on the
    family's first member read and kept, and each check is one formula of
    them and m, so nothing of the member's degree and no presentation is
    built, and nothing keyed by m is kept.  The formulas are sound because
    ``certified_order`` certifies the family's voltage cover at m as the
    member's regular representation whose s_i is the lift of generator i:

    - a word u^k is the identity iff m | (k/d) g, and has order
      o / gcd(o, k) with o = e m / gcd(m, W), for u's integers (``_Read``)
      (``_power_holds``, ``_power_order``): the canonical relations, the
      mirror witness and each relator's mirror image;
    - a subgroup of the s_i is its orbit of (0, 0), so its order is
      |C| m^2 / [Z^2 : L + mZ^2] (``_span_order``): the s_i's orders, the
      quotient criterion's orders and the derived series (``derived_orders``);
    - the intersection condition's meets are the voltage-lift count of
      ``_meet_order``.

    The type and the verdict follow the rules that
    ``polytope.canonical_type`` and ``mirror_verdict`` apply to any triple,
    here to the certificate's reads; ``polytope.validate_rotation_triple``
    and ``chirality_verdict`` on ``member_triple``'s action are the tests'
    cross-check.  The quotient criterion compares the orders at m with those
    at the family's reference member m0 (``Family.reference``), one that
    passed the intersection condition and the axiom suite, and only where
    m0 | m (``_quotient_criterion``): P at odd m has none and reports False.
    That the map onto the reference is a homomorphism is not checked again,
    since every relator's walk closes at every point of G_1.  A member
    whose intersection condition fails is the rotation group of no
    polytope, so its verdict is "not-a-polytope", whatever the mirror test
    finds; the mirror witness is still reported.

    The conjugation proof is checked only for m >= 2, so at m = 1 the
    report needs no more cosets than G_1's enumeration.  The axiom suite
    builds the member (``member_triple``) once its certified order is
    within the geometry's element cap (``polytope.check_element_cap``).
    """
    opts = opts or VerifyOptions()
    timer = StageTimer()
    cert = _certificate(family, m, opts.max_cosets)
    order = _certified_order(cert, m)
    timer.lap("enumerate")

    spans = cert.spans
    schlafli = canonical_type(lambda w: cert.relations[w].holds(m),
                              lambda i: spans[i,].order(m))
    timer.lap("validate")

    ic = _intersection_condition(cert, m)
    timer.lap("intersection")

    qc = _quotient_criterion(cert, m)
    timer.lap("quotient_criterion")

    orders = _derived_orders(cert.derived, m)
    dlength = len(orders) if orders[-1] == 1 else None
    solvable = dlength is not None
    timer.lap("solvability")

    mirror = mirror_verdict(cert.relators, lambda r: r.holds(m), lambda r: r.order(m),
                            cert.witness, image=lambda r: r.image)
    timer.lap("mirror")

    axioms = None
    want_axioms = opts.axioms if opts.axioms is not None else (m == 1)
    if want_axioms:
        check_element_cap(order)
        axioms = verify_axioms(build_coset_geometry(member_triple(family, m, opts)))
        timer.lap("axioms")

    return MemberReport(
        family=family, m=m, order=order,
        expected_order=expected_order(family, m),
        schlafli=schlafli.as_tuple(),
        solvable=solvable, derived_length=dlength,
        intersection_condition=ic, quotient_criterion=qc,
        verdict=mirror.verdict if ic else "not-a-polytope",
        witness_order=mirror.witness_order,
        witness_relator=(cert.text(mirror.witness_relator, m)
                         if mirror.witness_relator is not None else None),
        axioms=axioms,
        timings_ms=timer.timings,
    )


def normality_cross_check(family: str, m: int,
                          opts: VerifyOptions | None = None) -> bool:
    """Enumerated subgroup index in the base group equals the quotient order.

    Equality certifies that the added relator pair generates a subgroup that
    is already normal, so the family presentation presents exactly the
    member group.
    """
    opts = opts or VerifyOptions()
    u = presentation_U()
    words = subgroup_seed_words(family, m)
    sub = enumerate_cosets(u, list(words),
                           EnumerationConfig(max_cosets=opts.max_cosets))
    if not sub.is_complete:
        raise EnumerationIncomplete("subgroup-index", opts.max_cosets)
    quo = _enumerate_member(family, m, opts.max_cosets)
    return sub.degree == quo.degree


@dataclass(frozen=True)
class ConjugationCheck:
    """One conjugation relation's proof: ``cosets_used``, the definitions of
    the rung table that proved it, and ``witness_coset``, the coset of that
    table whose trace of the relation's word closes (None while
    unverified)."""

    label: str
    verified: bool
    cosets_used: int | None
    witness_coset: int | None


def conjugation_relations(family: str) -> list[tuple[str, Word]]:
    """Words of the form (relation) * (right side)^-1, trivial iff the
    conjugation relation holds, plus the generating pair's commutator: for
    each seed s, then each generator g, g^-1 s g = x^i y^j as
    ``Family.action`` gives (i, j)."""
    fam = _family(family)
    u = presentation_U()
    x, y = subgroup_seed_words(family)
    out = []
    for s, s_name, row in zip((x, y), fam.kernel, fam.action):
        for g_name, (i, j) in zip(u.names, row):
            g = u.atom(g_name)
            rhs = "*".join(k if e == 1 else f"{k}^{e}"
                           for k, e in zip(fam.kernel, (i, j)) if e) or "1"
            out.append((f"{g_name}^-1*{s_name}*{g_name} = {rhs}",
                        g.inverse() * s * g * (x ** i * y ** j).inverse()))
    out.append((f"[{','.join(fam.kernel)}] = 1", x.inverse() * y.inverse() * x * y))
    return out


@functools.cache
def _rung(cap: int) -> tuple[int, dict[Word, int]]:
    """U's partial Felsch table at ``cap``, which depends on the cap alone,
    as its definitions and, for each conjugation word of either family that
    it proves, the witness coset whose trace of the word closes
    (``CosetTable.closing_cosets``); enumerated once per process, for both
    families."""
    table = enumerate_cosets(presentation_U(), [], EnumerationConfig(max_cosets=cap))
    words = list(dict.fromkeys(w for f in FAMILIES for _, w in conjugation_relations(f)))
    return table.definitions, {w: k for w, k in zip(words, table.closing_cosets(words))
                               if k is not None}


def _ladder(cap: int) -> tuple[int, ...]:
    """The rungs of the conjugation proof up to ``cap``: 2000, 4000, ...
    while below it, then ``cap`` itself."""
    caps = []
    c = min(2000, cap)
    while True:
        caps.append(c)
        if c >= cap:
            return tuple(caps)
        c = min(c * 2, cap)


def verify_conjugation_action(family: str,
                              cap: int = DEFAULT_MAX_COSETS) -> list[ConjugationCheck]:
    """Prove the conjugation relations by traces in U's partial tables.

    Caps escalate geometrically from 2000 up to ``cap``; each rung is U's
    partial Felsch table at its cap.  A table of the trivial subgroup
    proves a word trivial when its trace from some live coset k returns to
    k, so each relation is traced from every live coset at once
    (``CosetTable.closing_cosets``).  A relation is verified on the first
    rung that proves it, and its check records that rung's definitions and
    the least closing coset k, the witness: k stands for the element u_k
    that the path to k along the table's BFS tree from coset 1 spells, and
    w = 1 because u_k w = u_k.  Unverified-within-cap is an outcome, not an
    error.  Both families' relations close at rung 4000.

    Each rung is the same for both families: the first call to reach a
    rung enumerates it, traces the relations of every family on it and
    keeps only those witnesses and its definition count (``_rung``), so a
    later call, for either family and any cap, reads them again without
    building a rung twice.  A rung depends on its cap alone, so a smaller
    cap proves exactly what a fresh run with it would.
    """
    relations = conjugation_relations(family)
    status: dict[str, ConjugationCheck] = {
        label: ConjugationCheck(label, False, None, None) for label, _ in relations
    }
    for current in _ladder(cap):
        pending = [(lbl, w) for lbl, w in relations if not status[lbl].verified]
        if not pending:
            break
        definitions, proved = _rung(current)
        for label, word in pending:
            if word in proved:
                status[label] = ConjugationCheck(label, True, definitions, proved[word])
    return [status[label] for label, _ in relations]


@dataclass(frozen=True)
class CorollaryEntry:
    """One 2-power order, with the member that has it and whether that
    member passes the intersection condition: a member that fails it is the
    rotation group of no polytope, so it does not witness the order."""

    n: int
    family: str
    m: int
    order: int
    intersection_condition: bool


def corollary_orders(k_max: int, opts: VerifyOptions | None = None) -> list[CorollaryEntry]:
    """Members with 2-power orders: for k = 0..k_max, family P at m = 2^k has
    order 2^(10+2k) and family Q has 2^(11+2k), covering every 2^n, n >= 10.

    Each order is ``certified_order``'s, and each intersection condition
    ``verify_member``'s, both the family's certificate evaluated at m, so no
    member is built.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    opts = opts or VerifyOptions()
    out = []
    for k in range(k_max + 1):
        m = 2 ** k
        for family, n in (("P", 10 + 2 * k), ("Q", 11 + 2 * k)):
            cert = _certificate(family, m, opts.max_cosets)
            order = _certified_order(cert, m)
            if order != 2 ** n:
                raise VerificationError(
                    "corollary", f"{family} m={m}: order {order} != 2^{n}")
            out.append(CorollaryEntry(n, family, m, order, _intersection_condition(cert, m)))
    return out
