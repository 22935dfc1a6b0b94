"""The two quotient families and the per-member verification pipeline.

Family P adds relators x^m = (a c^-1)^{4m} and y^m = (c^-1 a)^{4m} to the
base group U; family Q adds (b c^-1)^{4m} and (c^-1 b)^{4m}.  Expected orders
are 1024 m^2 and 2048 m^2.

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
relations, proved once per family by traces in U's partial coset tables
(enumerated once for both families), bound |G_m| by |G_1| m^2 (upper
bound).  A relator is decided at every point of the cover without forming
its product there: its walk is lifted to G_1's points with the voltage sum
it picks up (``_VoltageCover``), and it holds iff every walk closes with a
sum of 0 mod m.  Transitivity is read off the span of U's generator lifts,
so no search runs over the cover's points.

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
polytope axiom suite.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .coset import CosetTable, EnumerationConfig, enumerate_cosets
from .perms import PermGroup, Permutation, _root
from .polytope import (AxiomReport, RotationTriple, _require_quotient_map,
                       build_coset_geometry, chirality_verdict,
                       validate_rotation_triple, verify_axioms)
from .words import Presentation, Word, parse_presentation

FAMILIES = ("P", "Q")

_FAMILY_SEEDS = {"P": ("a*c^-1", "c^-1*a"), "Q": ("b*c^-1", "c^-1*b")}
_BASE_ORDER = {"P": 1024, "Q": 2048}
# the canonical subgroups the intersection condition and the quotient
# criterion ask for, as 1-based generator indices
_CANONICAL = ((1,), (2,), (3,), (1, 2), (2, 3))


class VerificationError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.message = message

    def __reduce__(self):
        # rebuild from the constructor's arguments, so that the error can
        # cross a process boundary (the verify --jobs pool)
        return type(self), (self.stage, self.message)


class EnumerationIncomplete(VerificationError):
    """Coset cap exhausted; rerun with a larger --max-cosets."""

    def __init__(self, stage: str, cap: int):
        super().__init__(stage, f"enumeration exhausted the cap of {cap} cosets; "
                                f"rerun with a larger cap to resume")
        self.cap = cap

    def __reduce__(self):
        return type(self), (self.stage, self.cap)


def _data_text(name: str) -> str:
    return resources.files("chiral444").joinpath(f"data/{name}").read_text()


_pres_cache: dict[str, Presentation] = {}


def presentation_U() -> Presentation:
    """The three-generator, nine-relator base presentation (bundled file)."""
    p = _pres_cache.get("U")
    if p is None:
        p = parse_presentation(_data_text("U.pres"))
        _pres_cache["U"] = p
    return p


def bundled_presentation(name: str) -> Presentation:
    """One of the bundled presentation files: 'U', 'G1' or 'H1'."""
    key = name.upper()
    p = _pres_cache.get(key)
    if p is None:
        p = parse_presentation(_data_text(f"{key}.pres"))
        _pres_cache[key] = p
    return p


@functools.cache
def _seed_roots(family: str) -> tuple[Word, Word]:
    """The roots w1, w2 of a family's seed words x = w1^4, y = w2^4, parsed
    once per process."""
    u = presentation_U()
    w1, w2 = _FAMILY_SEEDS[family]
    return u.parse_word(w1), u.parse_word(w2)


def subgroup_seed_words(family: str, m: int = 1) -> tuple[Word, Word]:
    """The two subgroup generator words of a family member, e.g. x^m, y^m."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if m < 1:
        raise ValueError("m must be a positive integer")
    w1, w2 = _seed_roots(family)
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
    return _BASE_ORDER[family] * m * m


@functools.cache
def mirror_witness_relator() -> Word:
    """The relator whose mirror image certifies chirality, parsed once per
    process."""
    return presentation_U().parse_word("a^2*c^2*b^2*(a*c)^2")


@dataclass(frozen=True)
class VerifyOptions:
    max_cosets: int = 1_000_000
    strategy: str = "felsch"  # near-minimal definitions on these quotients
    axioms: bool | None = None  # None: only for m == 1
    # the cap of polytope.intersection_condition's orbit searches, kept for
    # perfbench/ops.py's traced replay; verify reads its intersections off
    # spans on G_1 and searches no subgroup, so it has no effect on verify
    intersection_cap: int = 10_000


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
    verdict: str
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
            "schema_version": 1,
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


class _Timer:
    def __init__(self):
        self.timings: dict[str, float] = {}
        self._t = time.perf_counter()

    def lap(self, stage: str):
        now = time.perf_counter()
        self.timings[stage] = round((now - self._t) * 1000.0, 3)
        self._t = now


def _enumerate_member(family: str, m: int, opts: VerifyOptions) -> CosetTable:
    pres = family_presentation(family, m)
    cfg = EnumerationConfig(strategy=opts.strategy, max_cosets=opts.max_cosets)
    table = enumerate_cosets(pres, [], cfg)
    if not table.is_complete:
        raise EnumerationIncomplete("enumerate", opts.max_cosets)
    return table


def _todd_coxeter_triple(family: str, m: int, opts: VerifyOptions) -> RotationTriple:
    """The member on the regular representation of its coset table, the
    cosets as ids."""
    table = _enumerate_member(family, m, opts)
    sigma = table.permutation_rep()
    group = PermGroup.regular(sigma)
    if not group.is_transitive():
        raise VerificationError("action", "the regular representation is not transitive")
    return RotationTriple(group, tuple(sigma), table.presentation)


_reference_cache: dict[tuple, RotationTriple] = {}


def reference_triple(family: str, opts: VerifyOptions | None = None) -> RotationTriple:
    """The m = 1 member's triple, built once per family by Todd-Coxeter.

    It is the base of every cover member and the reference for the quotient
    criterion.
    """
    opts = opts or VerifyOptions()
    key = (family, opts.strategy, opts.max_cosets)
    t = _reference_cache.get(key)
    if t is None:
        t = _todd_coxeter_triple(family, 1, opts)
        _reference_cache[key] = t
    return t


def _walks(word: Word, base: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The closed walks spelling ``word`` from every point of a Cayley graph.

    ``base[g, c]`` is c.g and ``inv`` its inverse table; edge ``g*n + c`` is
    c -> c.g.  Row i of the result holds the i-th edge of the walk from each
    point; ``signs[i]`` is +1 if the walk runs along it, -1 if against it.
    """
    n = base.shape[1]
    start = np.arange(n)
    pts = start
    rows, signs = [], []
    for x in word.letters:
        g = abs(x) - 1
        if x > 0:
            rows.append(g * n + pts)
            pts = base[g, pts]
        else:
            pts = inv[g, pts]
            rows.append(g * n + pts)
        signs.append(1 if x > 0 else -1)
    if not np.array_equal(pts, start):
        raise VerificationError("voltages", f"{word!r} is not trivial in the m = 1 group")
    return np.array(rows), signs


def _voltages(family: str, base: np.ndarray) -> np.ndarray:
    """Voltage phi[g, c] in Z^2 of each edge c -> c.g of the m = 1 group.

    phi[g, c] is the (x, y)-coordinate in N = <x, y> = Z^2 of t_c g t_{c.g}^-1,
    where the transversal words t_c follow a BFS spanning tree from point 0,
    so tree edges carry 0.  Each relator of U spells a closed walk from every
    point whose voltages sum to 0; the walks of x and y from point 0 sum to
    (1, 0) and (0, 1).  A deduction queue solves these cycles: a cycle with
    exactly one unknown edge fixes it.  Then every cycle is checked.  Raises
    VerificationError if an edge stays undetermined or a cycle sums wrongly.
    """
    ngens, n = base.shape
    nedges = ngens * n
    inv = np.empty_like(base)
    for g in range(ngens):
        inv[g, base[g]] = np.arange(n)
    known = np.zeros(nedges, dtype=bool)
    table = base.tolist()
    seen = [False] * n
    seen[0] = True
    tree = [0]
    for c in tree:
        for g in range(ngens):
            t = table[g][c]
            if not seen[t]:
                seen[t] = True
                known[g * n + c] = True
                tree.append(t)

    walks = [(_walks(r, base, inv), (0, 0)) for r in presentation_U().relators]
    for word, target in zip(subgroup_seed_words(family), ((1, 0), (0, 1))):
        rows, signs = _walks(word, base, inv)
        walks.append(((rows[:, :1], signs), target))
    # one term (cycle, edge, net coefficient) per edge a cycle crosses on
    # balance, sorted by cycle; cycles are the walks' columns in order
    term_cycle, term_edge, term_coef, targets = [], [], [], []
    for (rows, signs), target in walks:
        length, k = rows.shape
        keys, where = np.unique(np.arange(k) * nedges + rows, return_inverse=True)
        coef = np.bincount(where.ravel(), weights=np.repeat(signs, k)).astype(np.int64)
        cycle, edge = np.divmod(keys[coef != 0], nedges)
        term_cycle.append(cycle + len(targets))
        term_edge.append(edge)
        term_coef.append(coef[coef != 0])
        targets += [target] * k
    term_cycle, term_edge, coef = (np.concatenate(a) for a in (term_cycle, term_edge, term_coef))
    term_start = np.searchsorted(term_cycle, np.arange(len(targets) + 1)).tolist()
    by_edge = np.argsort(term_edge, kind="stable")
    user_cycles = term_cycle[by_edge]
    user_start = np.searchsorted(term_edge[by_edge], np.arange(nedges + 1)).tolist()
    unknown = np.bincount(term_cycle[~known[term_edge]], minlength=len(targets)).tolist()

    edges, coefs = memoryview(term_edge), memoryview(coef)
    user_cycles = memoryview(user_cycles)
    known = known.tolist()
    value = [(0, 0)] * nedges
    queue = deque(i for i, count in enumerate(unknown) if count == 1)
    while queue:
        i = queue.popleft()
        if unknown[i] != 1:
            continue
        tx, ty = targets[i]
        for t in range(term_start[i], term_start[i + 1]):
            e, k = edges[t], coefs[t]
            if known[e]:
                vx, vy = value[e]
                tx -= k * vx
                ty -= k * vy
            else:
                edge, edge_coef = e, k
        if tx % edge_coef or ty % edge_coef:
            raise VerificationError("voltages", f"cycle {i} has no integral solution")
        value[edge] = (tx // edge_coef, ty // edge_coef)
        known[edge] = True
        for u in range(user_start[edge], user_start[edge + 1]):
            j = user_cycles[u]
            unknown[j] -= 1
            if unknown[j] == 1:
                queue.append(j)
    missing = known.count(False)
    if missing:
        raise VerificationError("voltages", f"{missing} of {nedges} edge voltages "
                                            f"are not determined by the relator cycles")
    phi = np.array(value, dtype=np.int64)
    for (rows, signs), target in walks:
        total = sum(s * phi[row] for row, s in zip(rows, signs))
        if not (total == target).all():
            raise VerificationError("voltages", "a relator cycle does not sum to its voltage")
    return phi.reshape(ngens, n, 2)


def _cover_images(base: np.ndarray, phi: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """Generator images on the points (c, v1, v2), numbered c*m^2 + v1*m + v2:
    g sends (c, v) to (c.g, v + phi[g, c] mod m).  One at a time, each
    written straight into an int32 array of the cover's degree, from int32
    head and tail terms, so that the broadcast add needs no casting
    buffer."""
    n, v = base.shape[1], np.arange(m)
    for g in range(base.shape[0]):
        head = (base[g][:, None] * (m * m) + (v + phi[g, :, 0, None]) % m * m).astype(np.int32)
        tail = ((v + phi[g, :, 1, None]) % m).astype(np.int32)
        img = np.empty((n, m, m), dtype=np.int32)
        np.add(head[:, :, None], tail[:, None, :], out=img)
        yield img.reshape(-1)


_Lift = tuple[np.ndarray, np.ndarray]


def _compose(a: _Lift, b: _Lift) -> _Lift:
    """The lift of a word followed by another (``_VoltageCover.lift``):
    (p1, v1)(p2, v2) = (p2[p1], v1 + v2[p1])."""
    return b[0][a[0]], a[1] + b[1][a[0]]


class _VoltageCover:
    """G_1's regular table ``base`` with a voltage table ``phi``: the Z_m^2
    cover at every m, with U's relators decided for every m at once.

    A word lifts to a pair (end, volt): from each point c of G_1 its walk
    ends at ``end[c]`` and picks up the voltage sum ``volt[c]`` in Z^2.  On
    the cover at m the word sends (c, v) to (end[c], v + volt[c] mod m), so
    it is the identity there iff every walk is closed and every voltage sum
    is 0 mod m.
    """

    def __init__(self, base: np.ndarray, phi: np.ndarray):
        self.base, self.phi = base, phi
        n = base.shape[1]
        self.inv = np.empty_like(base)
        for g in range(base.shape[0]):
            self.inv[g, base[g]] = np.arange(n)
        self._id = np.arange(n)
        self._id.setflags(write=False)
        self._periods: dict[tuple[int, ...], tuple] = {}  # root -> ``_period``
        # U's relators are the same at every m, so each is decided once
        self._gcds = {r: self._gcd(r) for r in presentation_U().relators}

    def _period(self, root: tuple[int, ...]) -> tuple[_Lift, int, np.ndarray]:
        """The lift of the word ``root``, letter by letter, its period d (the
        order of its end map, so that its d-th power ends every walk where it
        started) and the voltages of that d-th power.  Kept per root, with
        read-only arrays."""
        got = self._periods.get(root)
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
            d = Permutation._trusted(step[0].astype(np.int32)).order()
            got = step, d, self._power(step, d)[1]
            self._periods[root] = got
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

        A power u^k of a shorter word u, such as a family relator
        (w1)^{4m}, is read off u's period d (``_period``): lift(u^d) is
        (id, V), so lift(u^k) is (id, (k // d) V) followed by
        lift(u^(k mod d)), taken by repeated squaring; it costs
        O(log d) compositions whatever m is.
        """
        root, k = _root(word.letters)
        step, d, volt = self._period(root)
        q, k = divmod(k, d)
        end, rest = self._power(step, k)
        return end, q * volt + rest

    def _gcd(self, word: Word) -> int | None:
        """The gcd of the voltage sums of ``word``'s walks, or None when a
        walk does not close."""
        end, volt = self.lift(word)
        if not np.array_equal(end, self._id):
            return None
        return int(np.gcd.reduce(volt, axis=None))

    def holds(self, word: Word, m: int) -> bool:
        """Whether ``word`` is the identity on the cover at m: every walk
        closes and m divides every voltage sum, so m divides their gcd."""
        g = self._gcds[word] if word in self._gcds else self._gcd(word)
        return g is not None and g % m == 0

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


def _index_mod(lattice: tuple[int, int, int], m: int) -> int:
    """[Z^2 : L + mZ^2] for L the lattice with Hermite normal form ``lattice``."""
    a, _, d = _hnf(_rows(lattice) + [(m, 0), (0, m)])
    return a * d


def _inverse_lift(lift: _Lift) -> _Lift:
    end, volt = lift
    inv = np.empty_like(end)
    inv[end] = np.arange(end.shape[0])
    return inv, -volt[inv]


class _Term(NamedTuple):
    """A subgroup H of U on G_1's points with Z^2 voltages.  H takes the
    point (0, 0) to the points (c, pot[c] + L) for c in its orbit C on
    G_1's points (``mask``), where L = H cap N is ``lattice``, in Hermite
    normal form.  ``gens`` are the lifts of its generators."""

    gens: tuple[_Lift, ...]
    mask: np.ndarray
    pot: np.ndarray
    lattice: tuple[int, int, int]

    def contains(self, c: int, v: np.ndarray) -> bool:
        """Whether H has the element that takes (0, 0) to (c, v)."""
        return bool(self.mask[c]) and _in_lattice(tuple((v - self.pot[c]).tolist()),
                                                   self.lattice)

    def order(self, m: int) -> int:
        """|H's image in G_m| = |C| m^2 / [Z^2 : L + mZ^2]."""
        return int(np.count_nonzero(self.mask)) * m * m // _index_mod(self.lattice, m)

    def meet_order(self, other: "_Term", m: int) -> int:
        """|H cap K| in G_m for K = ``other``, by the voltage-lift count of
        Malnic-Nedela-Skoviera: the points of H's orbit over c are
        (c, p_H(c) + A), those of K's (c, p_K(c) + B), for A = L_H + mZ^2
        and B = L_K + mZ^2.  Two cosets meet iff their offsets differ by an
        element of A + B, and then in a coset of A cap B.  So the meet is the
        number of c in C_H cap C_K with p_H(c) - p_K(c) in A + B, one
        vectorised test against that lattice's Hermite normal form, times
        |(A cap B)/mZ^2| = m^2 [Z^2 : A + B] / ([Z^2 : A] [Z^2 : B]).
        """
        both = np.flatnonzero(self.mask & other.mask)
        a, b, d = _hnf(_rows(self.lattice) + _rows(other.lattice) + [(m, 0), (0, m)])
        x, y = (self.pot[both] - other.pot[both]).T
        # mZ^2 lies in the sum, so a and d are positive
        hits = int(np.count_nonzero((x % a == 0) & ((y - x // a * b) % d == 0)))
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
        new, first = np.unique(ends, return_index=True)
        fresh = ~mask[new]
        frontier, first = new[fresh], first[fresh]
        mask[frontier] = True
        pot[frontier] = pots[first]
    pts = np.flatnonzero(mask)
    disc = np.concatenate([pot[pts] + volt[pts] - pot[end[pts]] for end, volt in gens]
                          or [np.zeros((0, 2), dtype=np.int64)])
    disc = np.unique(disc[disc.any(axis=1)], axis=0)
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


_voltage_cache: dict[tuple, _VoltageCover] = {}
_conjugation_proved: set[tuple[str, int]] = set()


def _voltage_cover(family: str, opts: VerifyOptions) -> _VoltageCover:
    """The m = 1 regular table with the family's voltage table, built once
    per family and cap."""
    key = (family, opts.strategy, opts.max_cosets)
    cover = _voltage_cache.get(key)
    if cover is None:
        ref = reference_triple(family, opts)
        base = np.stack([p.images for p in ref.sigma]).astype(np.int64)
        cover = _VoltageCover(base, _voltages(family, base))
        _voltage_cache[key] = cover
    return cover


def _prove_conjugation(family: str, cap: int):
    """The upper half of every cover certificate, proved once per family."""
    if (family, cap) in _conjugation_proved:
        return
    if not all(c.verified for c in verify_conjugation_action(family, cap=cap)):
        raise EnumerationIncomplete("conjugation", cap)
    _conjugation_proved.add((family, cap))


def _certify_cover(pres: Presentation, cover: _VoltageCover, m: int) -> RotationTriple:
    """The lower half of a cover certificate: every relator of ``pres``
    holds on the cover at m and the cover acts transitively, so the
    presented group has at least as many elements as the cover has points.
    Returns the triple on ``PermGroup.regular``: an element's id is the
    point c m^2 + v1 m + v2 it sends (0, 0, 0) to, so id 0 is the identity.

    Transitivity is read off the span of U's generator lifts (``_span``):
    the orbit of (0, 0) on the cover at m is the points (c, p(c) + L + mZ^2)
    for c in the orbit C of G_1's point 0, |C| m^2 / [Z^2 : L + mZ^2] of
    them (``_Term.order``).  For the family's voltages C is G_1 and L is
    Z^2, so the cover is transitive at every m, with no search over it.

    Each relator is decided on its lift to G_1's points
    (``_VoltageCover.holds``), which is the same statement as the relator
    being the identity permutation of the cover, with no product of the
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
    # each image is a fresh array, handed over without a copy
    sigma = tuple(Permutation._owned(img) for img in _cover_images(cover.base, cover.phi, m))
    return RotationTriple(PermGroup.regular(sigma), sigma, pres)


def member_triple(family: str, m: int, opts: VerifyOptions | None = None) -> RotationTriple:
    """The member's rotation triple on its regular representation.

    At m = 1 this is the cached ``reference_triple``'s images, on a group
    of its own on the same points.  For m >= 2 it is the Z_m^2 cover of them: the
    m = 1 regular table with the family's voltage table, acting on
    |G_1| m^2 points.  Either way the ids are the points, id 0 the identity,
    and no search numbers them.

    A member pays only for what depends on m: its presentation, the lifts of
    its two seed relators, read off their roots' periods in a few
    compositions however large m is (``_VoltageCover.lift``), the cover's
    images and its group.
    The rest is kept for the process.  The seed roots and the mirror witness
    are parsed once.  U's partial coset tables behind the conjugation proof
    are enumerated once for both families (``verify_conjugation_action``).
    The voltage table, the lifts of U's relators and the periods of the seed
    roots are built once per family, on its first m >= 2 member.

    Before it is returned the cover is certified to be G_m's regular
    representation:

    - lower bound: every relator of ``family_presentation(family, m)`` holds
      on the images and the action is transitive, so |G_m| >= |G_1| m^2;
    - upper bound: the conjugation relations (proved once per family by
      ``verify_conjugation_action`` within ``opts.max_cosets``) make
      <x^m, y^m> normal in U with N/<x^m, y^m> abelian on two generators of
      order dividing m, so |G_m| <= |G_1| m^2.

    Raises EnumerationIncomplete when the m = 1 enumeration or the
    conjugation proof exceeds ``opts.max_cosets``, and VerificationError
    when the cover fails its certificate.
    """
    opts = opts or VerifyOptions()
    pres = family_presentation(family, m)
    ref = reference_triple(family, opts)
    if m == 1:
        # a group of its own, so that nothing a caller keeps on the member's
        # group is kept on the cached reference
        return RotationTriple(PermGroup.regular(ref.sigma), ref.sigma, ref.presentation)
    _prove_conjugation(family, opts.max_cosets)
    return _certify_cover(pres, _voltage_cover(family, opts), m)


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
      The conjugation proof (run here, once per family, as ``member_triple``
      runs it) makes N = <x, y> normal and abelian; the voltages send x^v
      to a translation by v over point 0, so N is Z^2 and
      x^v t_c -> (c, v) is a bijection from U onto the points.  The
      reduction mod m of this action is the cover that ``member_triple``
      certifies to be G_m's regular representation, so the image of U^(k)
      there is G_m^(k), of the order above.

    ``PermGroup.derived_length`` on the member's group is the independent
    cross-check the tests run.  Raises EnumerationIncomplete as
    ``member_triple`` does.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    opts = opts or VerifyOptions()
    if m >= 2:
        _prove_conjugation(family, opts.max_cosets)
    return _voltage_cover(family, opts).derived.orders(m)


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

    The intersection condition and the subgroup orders of the quotient
    criterion are read off the spans of U's canonical subgroups on G_1's
    points (``_VoltageCover.canonical``), built once per family, and no
    orbit of a subgroup is searched on the member's action.  That is the
    same statement as ``polytope.intersection_condition`` and
    ``quotient_criterion`` on the member's triple: ``member_triple`` has
    certified the member as the regular Z_m^2 cover whose s_i is the lift
    of generator i, so each subgroup is its orbit of id 0, the points
    (c, p(c) + L + mZ^2) that its span reads at m; an order is
    ``_Term.order`` and the order of a meet ``_Term.meet_order``.  At m = 1
    only the orbits C on G_1 count, and they are G_1's subgroups.  The
    criterion compares each order at m with the one at 1, which is the
    reference member's, and still checks on the reference group that the
    generator-wise map is a homomorphism.  ``VerifyOptions.intersection_cap``
    has no effect here.

    Solvability and the derived length come from ``derived_orders``: one
    derived series of U per family, read at m through its lattices.  Both
    build the family's voltage table, also at m = 1, but the conjugation
    proof only for m >= 2, where ``member_triple`` has already run it, so
    at m = 1 the report needs no more cosets than G_1's enumeration.
    """
    opts = opts or VerifyOptions()
    timer = _Timer()
    triple = member_triple(family, m, opts)
    order = triple.group.order()
    timer.lap("enumerate")

    schlafli = validate_rotation_triple(triple.group, triple.sigma)
    timer.lap("validate")

    spans = _voltage_cover(family, opts).canonical
    ic = _intersection_condition(spans, m)
    timer.lap("intersection")

    _require_quotient_map(triple.presentation, reference_triple(family, opts))
    qc = any(spans[ix].order(m) == spans[ix].order(1) for ix in ((1, 2), (2, 3)))
    timer.lap("quotient_criterion")

    orders = derived_orders(family, m, opts)
    dlength = len(orders) if orders[-1] == 1 else None
    solvable = dlength is not None
    timer.lap("solvability")

    verdict = chirality_verdict(triple, preferred_witness=mirror_witness_relator())
    timer.lap("mirror")

    axioms = None
    want_axioms = opts.axioms if opts.axioms is not None else (m == 1)
    if want_axioms:
        geom = build_coset_geometry(triple)
        axioms = verify_axioms(geom)
        timer.lap("axioms")

    return MemberReport(
        family=family, m=m, order=order,
        expected_order=expected_order(family, m),
        schlafli=schlafli.as_tuple(),
        solvable=solvable, derived_length=dlength,
        intersection_condition=ic, quotient_criterion=qc,
        verdict=verdict.verdict,
        witness_order=verdict.witness_order,
        witness_relator=(triple.presentation.word_str(verdict.witness_relator)
                         if verdict.witness_relator else None),
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
    quo = _enumerate_member(family, m, opts)
    return sub.degree == quo.degree


@dataclass(frozen=True)
class ConjugationCheck:
    label: str
    verified: bool
    cosets_used: int | None


def conjugation_relations(family: str) -> list[tuple[str, Word]]:
    """Words of the form (relation) * (right side)^-1, trivial iff the
    conjugation relation holds, plus the generating pair's commutator."""
    u = presentation_U()
    a, b, c = (u.atom(n) for n in "abc")
    p1, p2 = subgroup_seed_words(family, 1)
    if family == "P":
        x, y = p1, p2
        pairs = [
            ("a^-1*x*a = y", a.inverse() * x * a * y.inverse()),
            ("b^-1*x*b = y", b.inverse() * x * b * y.inverse()),
            ("c^-1*x*c = y", c.inverse() * x * c * y.inverse()),
            ("a^-1*y*a = x", a.inverse() * y * a * x.inverse()),
            ("b^-1*y*b = x^-1", b.inverse() * y * b * x),
            ("c^-1*y*c = x^-1", c.inverse() * y * c * x),
            ("[x,y] = 1", x.inverse() * y.inverse() * x * y),
        ]
    else:
        z, w = p1, p2
        pairs = [
            ("a^-1*z*a = z^-1", a.inverse() * z * a * z),
            ("b^-1*z*b = w", b.inverse() * z * b * w.inverse()),
            ("c^-1*z*c = w", c.inverse() * z * c * w.inverse()),
            ("a^-1*w*a = w", a.inverse() * w * a * w.inverse()),
            ("b^-1*w*b = z^-1", b.inverse() * w * b * z),
            ("c^-1*w*c = z^-1", c.inverse() * w * c * z),
            ("[z,w] = 1", z.inverse() * w.inverse() * z * w),
        ]
    return pairs


# U's partial coset tables depend on the cap alone, so each rung of the cap
# ladder is enumerated once per process, for both families: cap ->
# (definitions, the conjugation words of every family its trace proves)
_rungs: dict[int, tuple[int, frozenset[Word]]] = {}


def _rung(cap: int) -> tuple[int, frozenset[Word]]:
    got = _rungs.get(cap)
    if got is None:
        table = enumerate_cosets(presentation_U(), [], EnumerationConfig(max_cosets=cap))
        words = {w for f in FAMILIES for _, w in conjugation_relations(f)}
        got = table.definitions, frozenset(w for w in words if table.trace(1, w) == 1)
        _rungs[cap] = got
    return got


def verify_conjugation_action(family: str, cap: int = 1_000_000) -> list[ConjugationCheck]:
    """Prove the conjugation relations by partial-enumeration traces.

    Caps escalate geometrically from 2000 up to ``cap``; a relation is
    verified once a sound trace from coset 1 returns 1, and the cap that
    first achieved it is recorded.  Unverified-within-cap is an outcome, not
    an error.

    Each rung is U's partial table at its cap, the same for both families:
    the first call to reach a rung enumerates it, traces the relations of
    every family on it and keeps only those verdicts and its definition
    count (``_rung``), so a later call, for either family, builds no rung
    again.
    """
    relations = conjugation_relations(family)
    status: dict[str, ConjugationCheck] = {
        label: ConjugationCheck(label, False, None) for label, _ in relations
    }
    caps = []
    c = min(2000, cap)
    while True:
        caps.append(c)
        if c >= cap:
            break
        c = min(c * 2, cap)
    for current in caps:
        pending = [(lbl, w) for lbl, w in relations if not status[lbl].verified]
        if not pending:
            break
        definitions, proved = _rung(current)
        for label, word in pending:
            if word in proved:
                status[label] = ConjugationCheck(label, True, definitions)
    return [status[label] for label, _ in relations]


@dataclass(frozen=True)
class CorollaryEntry:
    n: int
    family: str
    m: int
    order: int


def corollary_orders(k_max: int, opts: VerifyOptions | None = None) -> list[CorollaryEntry]:
    """Members with 2-power orders: for k = 0..k_max, family P at m = 2^k has
    order 2^(10+2k) and family Q has 2^(11+2k), covering every 2^n, n >= 10.

    Each order is the certified order of ``member_triple``'s regular action.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    opts = opts or VerifyOptions()
    out = []
    for k in range(k_max + 1):
        m = 2 ** k
        for family, n in (("P", 10 + 2 * k), ("Q", 11 + 2 * k)):
            order = member_triple(family, m, opts).group.order()
            if order != 2 ** n:
                raise VerificationError(
                    "corollary", f"{family} m={m}: order {order} != 2^{n}")
            out.append(CorollaryEntry(n, family, m, order))
    return out
