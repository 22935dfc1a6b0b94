"""The two quotient families and the per-member verification pipeline.

Family P adds relators x^m = (a c^-1)^{4m} and y^m = (c^-1 a)^{4m} to the
base group U; family Q adds (b c^-1)^{4m} and (c^-1 b)^{4m}.  Expected orders
are 1024 m^2 and 2048 m^2.

The m = 1 member G_1 = U/N, N = <x, y>, is built once per family by
Todd-Coxeter (``reference_triple``).  Every other member
G_m = U/<x^m, y^m> is a Z_m^2 cover of it: N is normal in U and free abelian
on x, y, so each element of G_m is x^v1 y^v2 t_c for a point c of G_1's
regular table, and a generator g sends (c, v) to (c.g, v + phi[g, c] mod m).
The voltage table phi is derived once per family from U's relator cycles on
G_1's Cayley graph (``_voltages``).  Each cover member carries a two-sided
order certificate: the family relators hold on a transitive action of degree
|G_1| m^2 (lower bound), and the conjugation relations, proved once per
family by partial enumeration, bound |G_m| by |G_1| m^2 (upper bound).

``verify_member`` runs the full pipeline on a member: rotation-triple
validation, direct intersection condition, quotient criterion against the
m = 1 member, solvability, mirror test with witness, and (optionally) the
polytope axiom suite.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from importlib import resources
from typing import Sequence

import numpy as np

from .coset import CosetTable, EnumerationConfig, enumerate_cosets
from .perms import PermGroup, Permutation, evaluate
from .polytope import (AxiomReport, RotationTriple, build_coset_geometry,
                       chirality_verdict, intersection_condition,
                       quotient_criterion, validate_rotation_triple,
                       verify_axioms)
from .words import Presentation, Word, parse_presentation

FAMILIES = ("P", "Q")

_FAMILY_SEEDS = {"P": ("a*c^-1", "c^-1*a"), "Q": ("b*c^-1", "c^-1*b")}
_BASE_ORDER = {"P": 1024, "Q": 2048}


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


def subgroup_seed_words(family: str, m: int = 1) -> tuple[Word, Word]:
    """The two subgroup generator words of a family member, e.g. x^m, y^m."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if m < 1:
        raise ValueError("m must be a positive integer")
    u = presentation_U()
    w1, w2 = _FAMILY_SEEDS[family]
    return u.parse_word(f"({w1})^{4 * m}"), u.parse_word(f"({w2})^{4 * m}")


def family_presentation(family: str, m: int) -> Presentation:
    """Base relators plus the family pair at exponent 4m.

    The added words generate a normal subgroup, so the presented quotient is
    exactly the member group (cross-checked by ``normality_cross_check``).
    """
    u = presentation_U()
    extra = subgroup_seed_words(family, m)
    return Presentation(u.names, u.relators + extra)


def expected_order(family: str, m: int) -> int:
    return _BASE_ORDER[family] * m * m


def mirror_witness_relator() -> Word:
    """The relator whose mirror image certifies chirality."""
    return presentation_U().parse_word("a^2*c^2*b^2*(a*c)^2")


@dataclass(frozen=True)
class VerifyOptions:
    max_cosets: int = 1_000_000
    strategy: str = "felsch"  # near-minimal definitions on these quotients
    axioms: bool | None = None  # None: only for m == 1
    intersection_cap: int = 10_000
    axiom_cap: int = 2 ** 14


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
    """The member on the regular representation of its coset table."""
    table = _enumerate_member(family, m, opts)
    sigma = table.permutation_rep()
    group = PermGroup(sigma, known_order=table.degree)
    if group.order() != table.degree:
        raise VerificationError("action", "regular representation order mismatch")
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


def _cover_images(base: np.ndarray, phi: np.ndarray, m: int) -> list[np.ndarray]:
    """Generator images on the points (c, v1, v2), numbered c*m^2 + v1*m + v2:
    g sends (c, v) to (c.g, v + phi[g, c] mod m)."""
    v = np.arange(m)
    images = []
    for g in range(base.shape[0]):
        v1 = (v[None, :, None] + phi[g, :, 0, None, None]) % m
        v2 = (v[None, None, :] + phi[g, :, 1, None, None]) % m
        img = base[g][:, None, None] * (m * m) + v1 * m + v2
        images.append(img.reshape(-1))
    return images


def _word_image(w: Word, images: Sequence[Permutation]) -> Permutation:
    """``evaluate(w, images)``, taken as a power of the shortest root of w,
    so that a family relator (u)^(4m) costs O(log m) compositions."""
    letters = w.letters
    n = len(letters)
    p = next(p for p in range(1, n + 1)
             if n % p == 0 and letters[:p] * (n // p) == letters)
    return evaluate(Word(letters[:p]), images) ** (n // p)


def _is_transitive(images: Sequence[Permutation]) -> bool:
    seen = np.zeros(images[0].degree, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        reached = np.concatenate([p.images[frontier] for p in images])
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    return bool(seen.all())


_voltage_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_conjugation_proved: set[tuple[str, int]] = set()


def _prove_conjugation(family: str, cap: int):
    """The upper half of every cover certificate, proved once per family."""
    if (family, cap) in _conjugation_proved:
        return
    if not all(c.verified for c in verify_conjugation_action(family, cap=cap)):
        raise EnumerationIncomplete("conjugation", cap)
    _conjugation_proved.add((family, cap))


def _certify_cover(pres: Presentation, sigma: Sequence[Permutation]):
    """The lower half of a cover certificate: ``sigma`` satisfies every
    relator of ``pres`` and acts transitively, so the presented group has at
    least as many elements as the action has points."""
    for r in pres.relators:
        if not _word_image(r, sigma).is_identity():
            raise VerificationError("cover", f"relator {pres.word_str(r)} fails "
                                             f"on the cover of degree {sigma[0].degree}")
    if not _is_transitive(sigma):
        raise VerificationError("cover", "the cover action is not transitive")


def member_triple(family: str, m: int, opts: VerifyOptions | None = None) -> RotationTriple:
    """The member's rotation triple on its regular representation.

    At m = 1 this is the cached ``reference_triple``'s images.  For m >= 2
    it is the Z_m^2 cover of them: the m = 1 regular table with the family's
    voltage table, acting on |G_1| m^2 points.  The voltage table and the
    conjugation proof below are one-time costs, paid on the family's first
    m >= 2 member and cached for the process.  Before it is returned the
    cover is certified to be G_m's regular representation:

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
        # a group handle of its own, so that what callers cache on it (such
        # as the transversals behind ``elements()``) dies with the caller
        group = PermGroup(ref.sigma, known_order=ref.group.order())
        group.order()
        return RotationTriple(group, ref.sigma, ref.presentation)
    _prove_conjugation(family, opts.max_cosets)
    key = (family, opts.strategy, opts.max_cosets)
    cover = _voltage_cache.get(key)
    if cover is None:
        base = np.stack([p.images for p in ref.sigma]).astype(np.int64)
        cover = base, _voltages(family, base)
        _voltage_cache[key] = cover
    sigma = tuple(Permutation(img) for img in _cover_images(*cover, m))
    _certify_cover(pres, sigma)
    order = ref.group.order() * m * m
    group = PermGroup(sigma, known_order=order)
    # built here rather than on first use, so that the member's construction
    # cost stays in this function and not in the first stage that asks
    if group.order() != order:
        raise VerificationError("action", "cover order mismatch")
    return RotationTriple(group, sigma, pres)


def verify_member(family: str, m: int, opts: VerifyOptions | None = None) -> MemberReport:
    """Run the full verification pipeline for one family member."""
    opts = opts or VerifyOptions()
    timer = _Timer()
    triple = member_triple(family, m, opts)
    order = triple.group.order()
    timer.lap("enumerate")

    schlafli = validate_rotation_triple(triple.group, triple.sigma)
    timer.lap("validate")

    ic = intersection_condition(triple, cap=opts.intersection_cap)
    timer.lap("intersection")

    ref = reference_triple(family, opts)
    qc = quotient_criterion(triple, ref, cap=opts.intersection_cap)
    timer.lap("quotient_criterion")

    solvable = triple.group.is_solvable()
    dlength = triple.group.derived_length()
    timer.lap("solvability")

    verdict = chirality_verdict(triple, preferred_witness=mirror_witness_relator())
    timer.lap("mirror")

    axioms = None
    want_axioms = opts.axioms if opts.axioms is not None else (m == 1)
    if want_axioms:
        geom = build_coset_geometry(triple, element_cap=opts.axiom_cap)
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


def verify_conjugation_action(family: str, cap: int = 1_000_000,
                              start_cap: int = 2000) -> list[ConjugationCheck]:
    """Prove the conjugation relations by partial-enumeration traces.

    Caps escalate geometrically up to ``cap``; a relation is verified once a
    sound trace from coset 1 returns 1, and the cap that first achieved it
    is recorded.  Unverified-within-cap is an outcome, not an error.
    """
    u = presentation_U()
    relations = conjugation_relations(family)
    status: dict[str, ConjugationCheck] = {
        label: ConjugationCheck(label, False, None) for label, _ in relations
    }
    caps = []
    c = min(start_cap, cap)
    while True:
        caps.append(c)
        if c >= cap:
            break
        c = min(c * 2, cap)
    for current in caps:
        pending = [(lbl, w) for lbl, w in relations if not status[lbl].verified]
        if not pending:
            break
        table = enumerate_cosets(u, [], EnumerationConfig(max_cosets=current))
        for label, word in pending:
            if table.trace(1, word) == 1:
                status[label] = ConjugationCheck(label, True, table.definitions)
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
