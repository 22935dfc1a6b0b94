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
the voltage sum it picks up (``_VoltageCover``), and it holds iff every
walk closes with a sum of 0 mod m.  Transitivity is read off the span of
U's generator lifts, so no search runs over the cover's points.

Solvability is decided for every m from one derived series of U per family
(``derived_orders``), built on G_1's points with the same voltages: term k
is its orbit C_k on G_1, a potential in Z^2 for each point of it, and the
lattice L_k = U^(k) cap N, so |G_m^(k)| = |C_k| m^2 / [Z^2 : L_k + mZ^2].
At m = 1 only the C_k count, and they are G_1's derived series; for m >= 2
the lattices count too, which the conjugation proof makes sound (N = Z^2).
No member's normal closures are built; ``PermGroup.derived_length`` on the
member is the cross-check.

The intersection condition and the quotient criterion's subgroup orders
are read the same way, off the spans of U's canonical subgroups <a>, <b>,
<c>, <a,b>, <b,c> on G_1's points (``_VoltageCover.canonical``), built
once per family.  A span at m is its subgroup's orbit of (0, 0), the points
(c, p(c) + L + mZ^2), so |<X> cap <Y>| in G_m is the number of c in
C_X cap C_Y with p_X(c) - p_Y(c) in L_X + L_Y + mZ^2, times
|(L_X + mZ^2) cap (L_Y + mZ^2) / mZ^2| (``_Term.meet_order``).  This is the
same statement as the orbit searches of ``polytope.intersection_condition``
on the member: the member is the certified regular cover whose s_i is the
lift of generator i, so each of its subgroups is that orbit of id 0.  The
per-action engine stays as the tests' cross-check.

``verify_member`` runs the full pipeline on a member: rotation-triple
validation, the intersection condition, the quotient criterion against the
m = 1 member, solvability, mirror test with witness, and (optionally) the
polytope axiom suite.  Every check but the axiom suite is read off the
cover on G_1's points; only ``member_triple`` builds a member's
permutations, for the coset geometry and the tests' cross-check.

What a member costs.  Everything above that m does not enter is built once
per family and kept: G_1, the voltages, the conjugation proof, the spans
and the derived series, and for each word's shortest root u four integers
(``_Root``): its period d, the gcd g of the voltage sums of u^d, and the
length e and voltage W of point 0's cycle under it.  A member's reads are
then divisibility tests on integers: u^k holds at m iff d | k and
m | (k/d) g, and has order o / gcd(o, k) for o = e m / gcd(m, W); a span's
order is |C| m^2 / (gcd(s1, m) gcd(s2, m)) for its lattice's elementary
divisors s1, s2; a meet counts the pair's potential differences, sorted
once per pair into classes mod L_H + L_K.  The seed relators w^{4m} are
held as a root and an exponent (``words.Word``), so no member spells out
its presentation, and nothing keyed by m is kept.  A warm
``verify_member`` without the axiom suite takes 45-90 microseconds at
m = 1 and at m = 2^17 alike (2-core x86 VM).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import ClassVar, Iterable, NamedTuple, Sequence

import numpy as np

from .coset import (DEFAULT_MAX_COSETS, CosetTable, EnumerationConfig,
                    enumerate_cosets)
from .perms import PermGroup, Permutation, _spanning_tree, orbit
from .polytope import (AxiomReport, RotationTriple, build_coset_geometry,
                       canonical_type, check_element_cap, mirror_verdict,
                       verify_axioms)
from .words import Presentation, Word, parse_presentation


@dataclass(frozen=True)
class Family:
    """A quotient family of U: its kernel generators x = w1^4, y = w2^4,
    named ``kernel``, for the ``seeds`` w1, w2; ``base_order``, the paper's
    order of the m = 1 member; and ``action[s][g]`` = (i, j) with
    g^-1 s g = x^i y^j.  The action is stated, not read off the voltages, so
    the conjugation proof needs no m = 1 member; the tests cross-check it."""

    name: str
    seeds: tuple[str, str]
    kernel: tuple[str, str]
    base_order: int
    action: tuple[tuple[tuple[int, int], ...], ...]

    @functools.cached_property
    def roots(self) -> tuple[Word, Word]:
        """The seed roots as words of U, parsed once per process."""
        u = presentation_U()
        return u.parse_word(self.seeds[0]), u.parse_word(self.seeds[1])


FAMILIES = {f.name: f for f in (
    Family("P", ("a*c^-1", "c^-1*a"), ("x", "y"), 1024,
           (((0, 1), (0, 1), (0, 1)), ((1, 0), (-1, 0), (-1, 0)))),
    Family("Q", ("b*c^-1", "c^-1*b"), ("z", "w"), 2048,
           (((-1, 0), (0, 1), (0, 1)), ((0, 1), (-1, 0), (-1, 0)))),
)}

# the canonical subgroups the intersection condition and the quotient
# criterion ask for, as 1-based generator indices
_CANONICAL = ((1,), (2,), (3,), (1, 2), (2, 3))


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


class _Root(NamedTuple):
    """What a word's shortest root u gives on G_1's points, found once per
    root (``_VoltageCover._period``): ``lift``, u's walks from every point;
    ``period`` d, the order of their end map, so that the walks of u^d all
    close; ``volt``, the voltage sums of u^d, and ``gcd`` g, their gcd;
    ``cycle`` e, the length of point 0's cycle under the end map, and
    ``cycle_gcd``, the gcd of the voltage W that cycle picks up."""

    lift: _Lift
    period: int
    volt: np.ndarray
    gcd: int
    cycle: int
    cycle_gcd: int


class _VoltageCover:
    """G_1's regular table ``base`` with a voltage table ``phi``: the Z_m^2
    cover at every m, with every word decided for every m at once.

    A word lifts to a pair (end, volt): from each point c of G_1 its walk
    ends at ``end[c]`` and picks up the voltage sum ``volt[c]`` in Z^2.  On
    the cover at m the word sends (c, v) to (end[c], v + volt[c] mod m), so
    it is the identity there iff every walk is closed and every voltage sum
    is 0 mod m.  A word is read through its shortest root u, w = u^k: the
    four integers of u's ``_Root`` (d, g, e, W) answer ``holds`` and
    ``word_order`` at every m by divisibility alone.
    """

    def __init__(self, base: np.ndarray, phi: np.ndarray):
        self.base, self.phi = base, phi
        n = base.shape[1]
        self.inv = np.empty_like(base)
        for g in range(base.shape[0]):
            self.inv[g, base[g]] = np.arange(n)
        self._id = np.arange(n)
        self._id.setflags(write=False)
        self._roots: dict[tuple[int, ...], _Root] = {}

    def _period(self, root: tuple[int, ...]) -> _Root:
        """The ``_Root`` of the word ``root``, lifted letter by letter and
        kept per root, with read-only arrays."""
        got = self._roots.get(root)
        if got is None:
            step = self._id, np.zeros((self._id.shape[0], 2), dtype=np.int64)
            for x in root:
                g = abs(x) - 1
                if x > 0:
                    step = _compose(step, (self.base[g], self.phi[g]))
                else:
                    step = _compose(step, (self.inv[g], -self.phi[g][self.inv[g]]))
            for arr in step:
                arr.setflags(write=False)
            end, volt = step[0].tolist(), step[1]
            d = Permutation._trusted(step[0].astype(np.int32)).order()
            power = self._power(step, d)[1]
            c, e, w = end[0], 1, volt[0]
            while c:
                c, e, w = end[c], e + 1, w + volt[c]
            got = _Root(step, d, power, int(np.gcd.reduce(power, axis=None)),
                        e, math.gcd(*w.tolist()))
            self._roots[root] = got
        return got

    def _power(self, step: _Lift, k: int) -> _Lift:
        """The k-th power of the lift ``step``, by repeated squaring."""
        acc = self._id, np.zeros((self._id.shape[0], 2), dtype=np.int64)
        while k:
            if k & 1:
                acc = _compose(acc, step)
            k >>= 1
            if k:
                step = _compose(step, step)
        return acc

    def lift(self, word: Word) -> _Lift:
        """The walks of ``word`` from every point: a generator g lifts to
        (base[g], phi[g]) and its inverse to (inv[g], -phi[g][inv[g]]), and
        lifts compose letter by letter (``_compose``).

        A power u^k of its shortest root u, such as a family relator
        (w1)^{4m}, is read off u's period d: lift(u^d) is (id, V), so
        lift(u^k) is (id, (k // d) V) followed by lift(u^(k mod d)), taken
        by repeated squaring; it costs O(log d) compositions whatever m is.
        The pipeline reads ``holds`` and ``word_order`` instead; the lift
        is what the tests check those reads against.
        """
        root, k = word.as_power()
        r = self._period(root)
        q, k = divmod(k, r.period)
        end, rest = self._power(r.lift, k)
        return end, q * r.volt + rest

    def holds(self, word: Word, m: int) -> bool:
        """Whether ``word`` = u^k is the identity on the cover at m.  Its
        walks all close iff u's period d divides k, and then its voltage
        sums are (k/d) times those of u^d, all 0 mod m iff m divides
        (k/d) g."""
        root, k = word.as_power()
        r = self._period(root)
        q, rest = divmod(k, r.period)
        return not rest and q * r.gcd % m == 0

    def word_order(self, word: Word, m: int) -> int:
        """The order of ``word`` = u^k's element on the cover at m.  The
        cycle of (0, 0) under u runs e times round point 0's cycle under the
        end map, each time picking up W, until t W = 0 mod m: u has order
        o = e m / gcd(m, W) (the cover's action is regular), so u^k has
        order o / gcd(o, k)."""
        root, k = word.as_power()
        r = self._period(root)
        o = r.cycle * m // math.gcd(m, r.cycle_gcd)
        return o // math.gcd(o, k)

    @functools.cached_property
    def derived(self) -> "_DerivedSeries":
        """U's derived series on these points, built when first asked."""
        letters = [(self.base[g], self.phi[g]) for g in range(self.base.shape[0])]
        return _DerivedSeries(letters)

    @functools.cached_property
    def canonical(self) -> dict[tuple[int, ...], "_Term"]:
        """The spans of U's subgroups <a>, <b>, <c>, <a,b>, <b,c> on these
        points, keyed by 1-based generator indices as
        ``RotationTriple.subgroup`` is: at m they are the member's <s1>,
        <s2>, <s3>, <s1,s2>, <s2,s3>, since s_i is the lift of generator i.
        Built when first asked."""
        n = self.base.shape[1]
        return {ix: _span([(self.base[i - 1], self.phi[i - 1]) for i in ix], n)
                for ix in _CANONICAL}


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


def _inverse_lift(lift: _Lift) -> _Lift:
    end, volt = lift
    inv = np.empty_like(end)
    inv[end] = np.arange(end.shape[0])
    return inv, -volt[inv]


class _Term:
    """A subgroup H of U on G_1's points with Z^2 voltages.  H takes the
    point (0, 0) to the points (c, pot[c] + L) for c in its orbit C on
    G_1's points (``mask``, of ``size`` points), where L = H cap N is
    ``lattice``, in Hermite normal form.  ``gens`` are the lifts of its
    generators."""

    def __init__(self, gens: tuple[_Lift, ...], mask: np.ndarray, pot: np.ndarray,
                 lattice: tuple[int, int, int]):
        self.gens, self.mask, self.pot, self.lattice = gens, mask, pot, lattice
        self.size = int(np.count_nonzero(mask))
        # other term -> the pair's ``_meet`` data, found once per pair
        self._meets: dict[_Term, tuple] = {}

    def contains(self, c: int, v: np.ndarray) -> bool:
        """Whether H has the element that takes (0, 0) to (c, v)."""
        return bool(self.mask[c]) and _in_lattice(tuple((v - self.pot[c]).tolist()),
                                                   self.lattice)

    def order(self, m: int) -> int:
        """|H's image in G_m| = |C| m^2 / [Z^2 : L + mZ^2]."""
        return self.size * m * m // _index_mod(self.lattice, m)

    def _meet(self, other: "_Term") -> tuple[tuple[int, int, int], tuple]:
        """The sum S = L_H + L_K, in Hermite normal form, and how many points
        c of C_H cap C_K have p_H(c) - p_K(c) in each class of Z^2 / S, as
        (class representative, count) pairs."""
        both = np.flatnonzero(self.mask & other.mask)
        total = _hnf(_rows(self.lattice) + _rows(other.lattice))
        diffs = (self.pot[both] - other.pot[both]).tolist()
        return total, tuple(Counter(_reduce_mod(v, total) for v in diffs).items())

    def meet_order(self, other: "_Term", m: int) -> int:
        """|H cap K| in G_m for K = ``other``, by the voltage-lift count of
        Malnic-Nedela-Skoviera: the points of H's orbit over c are
        (c, p_H(c) + A), those of K's (c, p_K(c) + B), for A = L_H + mZ^2
        and B = L_K + mZ^2.  Two cosets meet iff their offsets differ by an
        element of A + B = S + mZ^2, and then in a coset of A cap B.  So the
        meet is the number of c in C_H cap C_K with p_H(c) - p_K(c) in
        S + mZ^2, read off the pair's classes mod S (``_meet``, once per
        pair), times |(A cap B)/mZ^2| = m^2 [Z^2 : A + B] / ([Z^2 : A] [Z^2 : B]).
        """
        meet = self._meets.get(other)
        if meet is None:
            meet = self._meets[other] = self._meet(other)
        total, classes = meet
        a, b, d = _hnf(_rows(total) + [(m, 0), (0, m)])
        hits = sum(count for v, count in classes if _in_lattice(v, (a, b, d)))
        return hits * m * m * a * d // (_index_mod(self.lattice, m)
                                        * _index_mod(other.lattice, m))


def _span(gens: Sequence[_Lift], n: int) -> _Term:
    """The subgroup of U that lifts ``gens`` generate, on n points of G_1.

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


def _normal_closure(seeds: Sequence[Sequence[_Lift]], conj: Sequence[_Lift],
                    n: int) -> _Term:
    """The smallest subgroup of U that contains the products of ``seeds``
    (each a sequence of lifts) and is normalized by the lifts ``conj``, on
    n points of G_1.

    A queued element is decided by walking the one point (0, 0)
    (``_at_origin``); only an element off the subgroup so far is lifted over
    every point, and joins, and then its conjugates by ``conj`` are queued.
    Closure under g^-1 H g alone suffices: U has the maximal condition on
    subgroups (it is an extension of Z^2 by the finite G_1), so
    g^-1 H g <= H forces equality.  That condition also ends the queue.
    """
    letters = [(g, _inverse_lift(g)) for g in conj]
    term = _span((), n)
    queue = list(seeds)
    for parts in queue:  # a queue: the conjugates of each joining element join it
        if term.contains(*_at_origin(parts)):
            continue
        h = functools.reduce(_compose, parts)
        term = _span(term.gens + (h,), n)
        queue.extend((gi, h, g) for g, gi in letters)
    return term


class _DerivedSeries:
    """The derived series U = U^(0) > U' > U'' > ... of the base group, each
    term a ``_Term`` on G_1's points, built once per family and only as far
    as a member asks.

    U^(k+1) is the normal closure in U of the commutators of U^(k)'s
    generators (as in ``PermGroup._derived``), built by ``_normal_closure``.
    """

    def __init__(self, letters: Sequence[_Lift]):
        self.n = letters[0][0].shape[0]
        self.terms = [_span(letters, self.n)]

    def term(self, k: int) -> _Term:
        while len(self.terms) <= k:
            gens = self.terms[-1].gens
            inverses = [_inverse_lift(u) for u in gens]
            seeds = [(inverses[i], inverses[j], gens[i], gens[j])
                     for i in range(len(gens)) for j in range(i + 1, len(gens))]
            self.terms.append(_normal_closure(seeds, self.terms[0].gens, self.n))
        return self.terms[k]

    def orders(self, m: int) -> list[int]:
        """|G_m'|, |G_m''|, ... until trivial or stable, the terms that
        ``PermGroup.derived_series`` lists for G_m."""
        size, out = self.term(0).order(m), []
        for k in itertools.count(1):
            nsize = self.term(k).order(m)
            if nsize == size:
                if not out:
                    out.append(nsize)
                break
            out.append(nsize)
            if nsize == 1:
                break
            size = nsize
        return out


class _FamilyState:
    """What a process keeps of a family, each built when first asked and
    shared by every coset cap: the m = 1 member and its voltage cover.  It
    records the cosets that G_1's enumeration used and the caps whose
    conjugation proof passed, so that a smaller cap raises
    EnumerationIncomplete exactly where a fresh run with that cap would."""

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


def _certify_cover(pres: Presentation, cover: _VoltageCover, m: int) -> int:
    """The lower half of a cover certificate: every relator of ``pres``
    holds on the cover at m and the cover acts transitively, so the
    presented group has at least as many elements as the cover has points.
    Returns that number, the cover's degree.

    Transitivity is read off the span of U's generator lifts (``_span``):
    the orbit of (0, 0) on the cover at m is the points (c, p(c) + L + mZ^2)
    for c in the orbit C of G_1's point 0, |C| m^2 / [Z^2 : L + mZ^2] of
    them (``_Term.order``).  For the family's voltages C is G_1 and L is
    Z^2, so the cover is transitive at every m, with no search over it.

    Each relator is decided on its lift to G_1's points
    (``_VoltageCover.holds``), which is the same statement as the relator
    being the identity permutation of the cover, with no permutation of the
    cover's degree formed.  It is not followed on id 0
    (``PermGroup.word_id``): that rule reads one point of a product, so it
    holds only in a group already known to act regularly, and this
    certificate is part of what shows that.
    """
    degree = cover.base.shape[1] * m * m
    for r in pres.relators:
        if not cover.holds(r, m):
            raise VerificationError("cover", f"relator {pres.word_str(r)} fails "
                                             f"on the cover of degree {degree}")
    if cover.derived.term(0).order(m) != degree:
        raise VerificationError("cover", "the cover action is not transitive")
    return degree


def certified_order(family: str, m: int, opts: VerifyOptions | None = None) -> int:
    """|G_m|, certified without building the member.

    At m = 1 it is the order of the cached ``reference_triple``, a complete
    coset table of the trivial subgroup.  For m >= 2 it is the degree of the
    Z_m^2 cover of that table, the m = 1 regular table with the family's
    voltage table, certified to be G_m's regular representation:

    - lower bound: every relator of ``family_presentation(family, m)`` holds
      on the cover and the action is transitive, so |G_m| >= |G_1| m^2
      (``_certify_cover``);
    - upper bound: the conjugation relations (proved once per family by
      ``verify_conjugation_action`` within ``opts.max_cosets``) make
      <x^m, y^m> normal in U with N/<x^m, y^m> abelian on two generators of
      order dividing m, so |G_m| <= |G_1| m^2.

    A member pays only for its presentation, whose seed relators are held
    as a root and an exponent, and a few integer reads per relator
    (``_VoltageCover.holds``), whatever m is; the rest is built once per
    family, or for both families, and kept.

    Raises EnumerationIncomplete when the m = 1 enumeration or the
    conjugation proof exceeds ``opts.max_cosets``, and VerificationError
    when the cover fails its certificate.
    """
    return _certified_order(_state(family), family_presentation(family, m), m,
                            (opts or VerifyOptions()).max_cosets)


def _certified_order(state: _FamilyState, pres: Presentation, m: int, cap: int) -> int:
    """``certified_order`` of the member that ``pres`` presents."""
    ref = state.reference(cap)
    if m == 1:
        return ref.group.order()
    state.prove_conjugation(cap)
    return _certify_cover(pres, state.cover, m)


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
    pres, state = family_presentation(family, m), _state(family)
    _certified_order(state, pres, m, opts.max_cosets)
    if m == 1:
        # a group of its own, so that nothing a caller keeps on the member's
        # group is kept on the cached reference
        ref = state.reference(opts.max_cosets)
        return RotationTriple(PermGroup.regular(ref.sigma), ref.sigma, ref.presentation)
    sigma = tuple(Permutation(img) for img in _cover_images(state.cover.base, state.cover.phi, m))
    return RotationTriple(PermGroup.regular(sigma), sigma, pres)


def derived_orders(family: str, m: int, opts: VerifyOptions | None = None) -> list[int]:
    """The orders of G_m's derived subgroups G_m', G_m'', ..., until trivial
    or stable: the terms ``PermGroup.derived_series`` lists for G_m, read
    off one derived series of U per family (``_DerivedSeries``), so no
    normal closure of G_m is formed.

    U acts on the points (c, v), c a point of G_1 and v in Z^2, through its
    generators' lifts: g takes (c, v) to (c.g, v + phi[g, c]).  Each term
    U^(k) is held as its orbit C_k of G_1's point 0, a potential p_k(c) in
    Z^2 for each c in C_k, and the lattice L_k spanned by the non-tree
    discrepancies (``_span``).  The image of U^(k) in G_m is G_m^(k), and
    |G_m^(k)| = |C_k| m^2 / [Z^2 : L_k + mZ^2].  Why that is sound:

    - m = 1: only C_k counts, and C_k is G_1^(k) whatever the lattices are.
      Deciding an element by the one point it takes (0, 0) to can only err
      by an element that fixes (0, 0), whose image in G_1 is trivial, so
      the images in G_1 of every term's generators generate the normal
      closure in G_1 that ``PermGroup._derived`` builds.
    - m >= 2: here the lattices count, and the action must be U's
      right-regular action, so that each orbit of (0, 0) is its subgroup.
      The conjugation proof (run here, once per family, as
      ``certified_order`` runs it) makes N = <x, y> normal and abelian;
      the voltages send x^v to a translation by v over point 0, so N is Z^2 and
      x^v t_c -> (c, v) is a bijection from U onto the points.  The
      reduction mod m of this action is the cover that ``certified_order``
      certifies to be G_m's regular representation, so the image of U^(k)
      there is G_m^(k), of the order above.

    ``PermGroup.derived_length`` on the member's group is the independent
    cross-check the tests run.  Raises EnumerationIncomplete as
    ``certified_order`` does.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    cap, state = (opts or VerifyOptions()).max_cosets, _state(family)
    state.reference(cap)
    if m >= 2:
        state.prove_conjugation(cap)
    return state.cover.derived.orders(m)


def _intersection_condition(spans: dict[tuple[int, ...], _Term], m: int) -> bool:
    """The chiral intersection condition of the member at m, read off the
    canonical spans (``_VoltageCover.canonical``): <s1> meets <s2,s3>
    trivially, <s1,s2> meets <s3> trivially, and <s1,s2> meets <s2,s3> in
    exactly <s2> (``polytope.intersection_condition``'s three tests)."""
    return (spans[1,].meet_order(spans[2, 3], m) == 1
            and spans[1, 2].meet_order(spans[3,], m) == 1
            and spans[1, 2].meet_order(spans[2, 3], m) == spans[2,].order(m))


def verify_member(family: str, m: int, opts: VerifyOptions | None = None) -> MemberReport:
    """Run the full verification pipeline for one family member.

    Without the axiom suite nothing of the member's degree is built: every
    check is read off the family's voltage cover at m, which
    ``certified_order`` has certified as the member's regular
    representation whose s_i is the lift of generator i.  A word is the
    identity iff it holds on the cover (``_VoltageCover.holds``): the
    canonical relations and the mirror images.  A word's order is that of
    its cycle through (0, 0) (``_VoltageCover.word_order``): the mirror
    witness's.  A subgroup of the s_i is its orbit of (0, 0), the points
    (c, p(c) + L + mZ^2) that its span on G_1's points reads at m
    (``_VoltageCover.canonical``): the s_i's orders, the intersection
    condition (``_Term.meet_order``) and the quotient criterion's orders
    (``_Term.order``).  The type and the verdict follow the rules that
    ``polytope.validate_rotation_triple`` and ``chirality_verdict`` apply
    to ``member_triple``'s action, the tests' cross-check.  The criterion
    compares each order at m with the one at 1, the reference member's;
    that the map onto the reference is a homomorphism is not checked
    again, since every relator's walk closes at every point of G_1.  A
    member whose intersection condition fails is the rotation group of no
    polytope, so its verdict is "not-a-polytope", whatever the mirror test
    finds; the mirror witness is still reported.

    Solvability and the derived length come from ``derived_orders``.  The
    conjugation proof runs only for m >= 2, so at m = 1 the report needs no
    more cosets than G_1's enumeration.  The axiom suite builds the member
    (``member_triple``) once its certified order is within the geometry's
    element cap (``polytope.check_element_cap``).
    """
    opts = opts or VerifyOptions()
    timer = StageTimer()
    pres, state = family_presentation(family, m), _state(family)
    order = _certified_order(state, pres, m, opts.max_cosets)
    cover = state.cover
    timer.lap("enumerate")

    spans = cover.canonical
    schlafli = canonical_type(lambda w: cover.holds(w, m), lambda i: spans[i,].order(m))
    timer.lap("validate")

    ic = _intersection_condition(spans, m)
    timer.lap("intersection")

    qc = any(spans[ix].order(m) == spans[ix].order(1) for ix in ((1, 2), (2, 3)))
    timer.lap("quotient_criterion")

    orders = derived_orders(family, m, opts)
    dlength = len(orders) if orders[-1] == 1 else None
    solvable = dlength is not None
    timer.lap("solvability")

    mirror = mirror_verdict(pres.relators, lambda w: cover.holds(w, m),
                            lambda w: cover.word_order(w, m), mirror_witness_relator())
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
        witness_relator=(pres.word_str(mirror.witness_relator)
                         if mirror.witness_relator else None),
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
    ``verify_member``'s, both read off the family's voltage cover, so no
    member is built.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    opts = opts or VerifyOptions()
    out = []
    for k in range(k_max + 1):
        m = 2 ** k
        for family, n in (("P", 10 + 2 * k), ("Q", 11 + 2 * k)):
            order = certified_order(family, m, opts)
            if order != 2 ** n:
                raise VerificationError(
                    "corollary", f"{family} m={m}: order {order} != 2^{n}")
            ic = _intersection_condition(_state(family).cover.canonical, m)
            out.append(CorollaryEntry(n, family, m, order, ic))
    return out
