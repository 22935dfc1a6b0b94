"""Rank-4 rotation triples, the chiral intersection condition, mirror test,
enantiomorphs, and the coset-geometry / polytope-axiom verifier.

The canonical generators sigma_1, sigma_2, sigma_3 of a rank-4 rotation
group satisfy (s1 s2)^2 = (s2 s3)^2 = (s1 s2 s3)^2 = 1.  Rank-i faces of the
geometry are left cosets of S_0 = <s2,s3>, S_1 = <s1 s2, s3>,
S_2 = <s1, s2 s3>, S_3 = <s1,s2>, with incidence by nonempty intersection,
plus a formal least and greatest face.

The geometry is built on the group's right-regular action on the ids of
``elements()`` (``PermGroup.right_action``): the rank-i face gS_i is the
S_i-orbit of g's id, and two faces are incident when they share an id.  Each
face is labelled by the smallest id in its orbit, found by min-label
propagation over the stabilizer generators' id maps.  A
``CosetGeometry`` holds the face counts and, per pair of ranks, the sorted
keys of its incident pairs; the axioms P1-P4, the flag count and the section
types are joins and group-bys on those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .perms import PermGroup, Permutation, evaluate
from .words import Presentation, Word, substitute


class TripleError(ValueError):
    """A rotation triple violating the canonical relations or generation."""


@dataclass(frozen=True)
class SchlafliType:
    k1: int
    k2: int
    k3: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.k1, self.k2, self.k3)

    def __str__(self) -> str:
        return f"{{{self.k1},{self.k2},{self.k3}}}"


@dataclass(frozen=True)
class RotationTriple:
    """A rank-4 rotation-group generating triple with its source presentation.

    ``subgroup`` builds each subgroup of the s_i once per triple, so that the
    checks asking for the same one share its handle.
    """

    group: PermGroup
    sigma: tuple[Permutation, Permutation, Permutation]
    presentation: Presentation
    _subgroups: dict[tuple[int, ...], PermGroup] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.sigma) != 3:
            raise TripleError("exactly three canonical generators required")

    def subgroup(self, *indices: int) -> PermGroup:
        """<s_i : i in indices> (1-based), as a handle on the group's action."""
        h = self._subgroups.get(indices)
        if h is None:
            h = self.group.subgroup([self.sigma[i - 1] for i in indices])
            self._subgroups[indices] = h
        return h


def _on_generators(group: PermGroup, sigma: Sequence[Permutation]) -> bool:
    """Whether ``sigma`` are the group's own generators, so that every word
    in them is an element of the group and can be followed on id 0."""
    gens = group.generators
    return len(gens) == len(sigma) and all(a is b for a, b in zip(gens, sigma))


def _holds(group: PermGroup, sigma: Sequence[Permutation], w: Word) -> bool:
    """Whether w is the identity at ``sigma``: followed on id 0 when sigma
    generate the group, and as a product of permutations otherwise, where
    the images are not known to be elements of the group."""
    if _on_generators(group, sigma):
        return group.word_id(w, sigma) == 0
    return evaluate(w, sigma).is_identity()


def _word_order(group: PermGroup, sigma: Sequence[Permutation], w: Word) -> int:
    """The order of w at ``sigma``, on id 0 as in ``_holds``."""
    if _on_generators(group, sigma):
        return group.word_order(w, sigma)
    return evaluate(w, sigma).order()


def _homomorphism(pres: Presentation, group: PermGroup,
                  sigma: Sequence[Permutation]) -> bool:
    """Whether every relator of ``pres`` holds at ``sigma`` (see
    ``perms.extends_to_homomorphism``)."""
    if len(sigma) != pres.ngens:
        raise ValueError("one image per generator required")
    return all(_holds(group, sigma, r) for r in pres.relators)


_CANONICAL_RELATIONS = (("(s1*s2)^2", Word((1, 2, 1, 2))),
                        ("(s2*s3)^2", Word((2, 3, 2, 3))),
                        ("(s1*s2*s3)^2", Word((1, 2, 3, 1, 2, 3))))


def validate_rotation_triple(group: PermGroup,
                             sigma: Sequence[Permutation]) -> SchlafliType:
    """Check the canonical even relations and generation; return the type."""
    for name, w in _CANONICAL_RELATIONS:
        if not _holds(group, sigma, w):
            raise TripleError(f"canonical relation {name} = 1 fails")
    orders = tuple(_word_order(group, sigma, Word((i,))) for i in (1, 2, 3))
    if min(orders) < 2:
        raise TripleError(f"generator orders {orders} must all be at least 2")
    # a group built on the triple itself is generated by it
    if (not _on_generators(group, sigma)
            and group.subgroup(sigma).order() != group.order()):
        raise TripleError("the triple does not generate the group")
    return SchlafliType(*orders)


def intersection_condition(t: RotationTriple, cap: int = 10_000) -> bool:
    """The chiral intersection condition, checked on the subgroups' masks:
    <s1> meets <s2,s3> trivially, <s1,s2> meets <s3> trivially, and
    <s1,s2> meets <s2,s3> in exactly <s2>.

    Raises ValueError when the smaller subgroup of a pair has more than
    ``cap`` elements.
    """
    # each intersection contains the identity, and the last one contains <s2>
    for a, b, meet in ((t.subgroup(1), t.subgroup(2, 3), 1),
                       (t.subgroup(1, 2), t.subgroup(3), 1),
                       (t.subgroup(1, 2), t.subgroup(2, 3), t.subgroup(2).order())):
        if min(a.order(), b.order()) > cap:
            raise ValueError(f"intersection cap {cap} exceeded")
        if a.intersection_order(b) != meet:
            return False
    return True


def quotient_criterion(big: RotationTriple, small: RotationTriple,
                       cap: int = 10_000) -> bool:
    """Injectivity on <s1,s2> (or <s2,s3>) of the generator-wise map.

    Raises TripleError when the generator-wise map does not extend to a
    homomorphism.  A True result, together with the small triple being the
    rotation group of a chiral polytope, certifies the big triple's
    intersection condition.
    """
    if not _homomorphism(big.presentation, small.group, small.sigma):
        raise TripleError("generator-wise map does not extend to a homomorphism")
    if big.subgroup(1, 2).order() == small.subgroup(1, 2).order():
        return True
    return big.subgroup(2, 3).order() == small.subgroup(2, 3).order()


def _mirror_words(ngens: int) -> list[Word]:
    # s1 -> s1^-1, s2 -> s1^2 s2, s3 -> s3 (and any further generators fixed)
    images = [Word((-1,)), Word((1, 1, 2))]
    images += [Word((i + 1,)) for i in range(2, ngens)]
    return images


def mirror_images(sigma: Sequence[Permutation]) -> tuple[Permutation, ...]:
    s1, s2, s3 = sigma
    return (s1.inverse(), s1 * s1 * s2, s3)


def _mirrored(pres: Presentation) -> Presentation:
    """The relators' images under the mirror map, as words in the s_i:
    a relator holds at ``mirror_images(sigma)`` iff its image holds at
    sigma."""
    images = _mirror_words(pres.ngens)
    return Presentation(pres.names, [substitute(r, images) for r in pres.relators])


def mirror_extends(t: RotationTriple) -> bool:
    """Whether s1 -> s1^-1, s2 -> s1^2 s2, s3 -> s3 extends to the group.

    For a finite group with generating images this is exactly the existence
    of the mirror automorphism, so True means the polytope is regular.
    """
    return _homomorphism(_mirrored(t.presentation), t.group, t.sigma)


@dataclass(frozen=True)
class ChiralityReport:
    verdict: str  # "chiral" | "regular"
    witness_relator: Word | None
    witness_order: int | None


def chirality_verdict(t: RotationTriple,
                      preferred_witness: Word | None = None) -> ChiralityReport:
    """Regular iff the mirror map extends; otherwise chiral with a witness.

    The caller is responsible for having checked the intersection condition
    (directly or through the quotient criterion), so that the triple is the
    rotation group of a polytope at all.  The witness is a relator whose
    mirror image is nontrivial; ``preferred_witness`` is used when it works.

    The two verdicts are not equally sound.  "chiral" is sound whenever
    every relator of ``t.presentation`` holds in the group: the witness is
    a relation of the group whose mirror image fails, so no automorphism is
    the mirror map.  "regular" is sound only when ``t.presentation`` is a
    complete presentation of the group: relators that hold in the group but
    do not define it can all survive the mirror map while a relation they
    miss does not.
    """
    if mirror_extends(t):
        return ChiralityReport("regular", None, None)
    images = _mirror_words(t.presentation.ngens)
    candidates = list(t.presentation.relators)
    if preferred_witness is not None:
        candidates.insert(0, preferred_witness)
    for r in candidates:
        img = substitute(r, images)
        if not _holds(t.group, t.sigma, img):
            return ChiralityReport("chiral", r, _word_order(t.group, t.sigma, img))
    raise AssertionError("mirror map failed to extend but all relators map to 1")


def enantiomorph(t: RotationTriple) -> RotationTriple:
    """The mirror-image triple (s1^-1, s1^2 s2, s3) over the same group."""
    pres = t.presentation
    images = _mirror_words(pres.ngens)
    relators = [substitute(r, images) for r in pres.relators]
    return RotationTriple(t.group, mirror_images(t.sigma),
                          Presentation(pres.names, relators))


# ---------------------------------------------------------------------------
# coset geometry and the abstract-polytope axioms


class GeometryCapError(ValueError):
    """The group has more elements than the geometry's ``element_cap``."""


@dataclass(eq=False)
class CosetGeometry:
    """The coset geometry of a triple on four stabilizers S_0..S_3.

    The group acts on the ids k of ``group.elements()`` by right
    multiplication, and the rank-i face gS_i is the S_i-orbit of g's id.
    Faces of one rank are numbered by the smallest id they contain, which
    is the order in which a walk over ``elements()`` first meets them.  Two
    faces are incident when they share an id.

    ``face_counts()`` gives the number of faces per rank 0..3, and
    ``incidence[(i, j)]`` (0 <= i < j <= 3) holds one sorted int64 key
    ``a * n_j + b`` per incident pair of rank-i face a and rank-j face b.
    The formal least (rank -1) and greatest (rank 4) faces are implicit;
    ``incidence_keys`` treats them as single faces incident to every face.
    """

    triple: RotationTriple
    group_order: int
    subgroup_orders: tuple[int, int, int, int]
    nfaces: tuple[int, int, int, int]
    incidence: dict[tuple[int, int], np.ndarray]

    def face_counts(self) -> tuple[int, int, int, int]:
        return self.nfaces

    def rank_size(self, rank: int) -> int:
        """Number of faces of a rank, the formal ranks -1 and 4 included."""
        return self.nfaces[rank] if 0 <= rank <= 3 else 1

    def incidence_keys(self, i: int, j: int) -> np.ndarray:
        """Sorted keys ``a * n_j + b`` of the incident (rank-i, rank-j) pairs,
        for -1 <= i < j <= 4."""
        if i == -1 or j == 4:
            return np.arange(self.rank_size(i) * self.rank_size(j), dtype=np.int64)
        return self.incidence[(i, j)]

    def dump(self) -> str:
        """One line per face: ``rank index : incident faces one rank up``."""
        nfaces = self.nfaces
        lines = ["-1 0 : " + " ".join(map(str, range(nfaces[0])))]
        for i in range(3):
            lo, hi = np.divmod(self.incidence[(i, i + 1)], nfaces[i + 1])
            ups = np.split(hi, np.searchsorted(lo, np.arange(1, nfaces[i])))
            for idx, row in enumerate(ups):
                lines.append(f"{i} {idx} : " + " ".join(map(str, row.tolist())))
        for idx in range(nfaces[3]):
            lines.append(f"3 {idx} : 0")
        lines.append("4 0 :")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AxiomReport:
    p1_ok: bool
    p2_ok: bool
    p3_ok: bool
    p4_ok: bool
    equivelar: bool
    flag_count: int
    schlafli: tuple[int, int, int] | None
    facet_section_type: tuple[int, int] | None
    vertex_figure_type: tuple[int, int] | None

    @property
    def all_ok(self) -> bool:
        return self.p1_ok and self.p2_ok and self.p3_ok and self.p4_ok


def stabilizer_generators(sigma: Sequence[Permutation]) -> list[list[Permutation]]:
    s1, s2, s3 = sigma
    return [[s2, s3], [s1 * s2, s3], [s1, s2 * s3], [s1, s2]]


def _min_labels(n: int, relax) -> np.ndarray:
    """The smallest index in each connected component of a graph on 0..n-1.

    ``relax(lab)`` lowers each index's label to the smallest label among its
    neighbours.  Labels only ever name an index of the same component that is
    no larger, so ``lab[lab]`` is a valid label too (pointer jumping).
    """
    lab = np.arange(n, dtype=np.int64)
    while True:
        new = relax(lab)
        jumped = new[new]
        while not np.array_equal(jumped, new):
            new, jumped = jumped, jumped[jumped]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _orbit_labels(n: int, maps: Sequence[np.ndarray]) -> np.ndarray:
    """The smallest element id in each element's orbit under ``maps``."""

    def relax(lab):
        # at the fixed point lab[k] <= lab[r[k]] on every cycle of every r,
        # so the label is constant on each orbit
        for r in maps:
            lab = np.minimum(lab, lab[r])
        return lab

    return _min_labels(n, relax)


def coset_geometry_from_subgroups(t: RotationTriple,
                                  subgroup_gens: Sequence[Sequence[Permutation]],
                                  element_cap: int = 2 ** 16) -> CosetGeometry:
    """Build the ranked incidence structure from explicit stabilizer choices.

    Raises GeometryCapError when the group has more than ``element_cap``
    elements.
    """
    g = t.group
    order = g.order()
    if order > element_cap:
        raise GeometryCapError(
            f"group order {order} exceeds the exhaustive cap {element_cap}")
    faces = [np.unique(_orbit_labels(order, [g.right_action(s) for s in gens]),
                       return_inverse=True)[1]
             for gens in subgroup_gens]
    nfaces = tuple(int(f.max()) + 1 for f in faces)
    incidence = {(i, j): np.unique(faces[i] * nfaces[j] + faces[j])
                 for i in range(4) for j in range(i + 1, 4)}
    return CosetGeometry(t, order, tuple(order // c for c in nfaces), nfaces,
                         incidence)


def build_coset_geometry(t: RotationTriple, element_cap: int = 2 ** 16) -> CosetGeometry:
    """Coset geometry on the canonical stabilizers S_0..S_3.

    The caller is expected to have verified the intersection condition, so
    that the construction yields a polytope; verify_axioms independently
    validates the outcome rather than trusting it.
    """
    return coset_geometry_from_subgroups(
        t, stabilizer_generators(t.sigma), element_cap)


def _chains(geom: CosetGeometry, ranks: Sequence[int]) -> np.ndarray:
    """All chains of pairwise incident faces, one row per chain and one
    column per rank of the increasing ``ranks`` (formal ranks allowed)."""
    rows = np.arange(geom.rank_size(ranks[0]), dtype=np.int64)[:, None]
    for k in range(1, len(ranks)):
        prev, rank = ranks[k - 1], ranks[k]
        size = geom.rank_size(rank)
        lo, hi = np.divmod(geom.incidence_keys(prev, rank), size)
        degree = np.bincount(lo, minlength=geom.rank_size(prev))
        first = np.cumsum(degree) - degree
        # extend every row by each face incident to its last face
        reps = degree[rows[:, -1]]
        rows = np.repeat(rows, reps, axis=0)
        offset = np.arange(rows.shape[0]) - np.repeat(np.cumsum(reps) - reps, reps)
        new = hi[first[rows[:, -1]] + offset]
        keep = np.ones(rows.shape[0], dtype=bool)
        if rank != 4:
            for q in range(k - 1):
                if ranks[q] != -1:
                    keep &= np.isin(rows[:, q] * size + new,
                                    geom.incidence[(ranks[q], rank)])
        rows = np.column_stack([rows[keep], new[keep]])
    return rows


def _between(geom: CosetGeometry, i: int, mid: int, j: int) -> np.ndarray:
    """For each incident (rank-i, rank-j) pair, in ``incidence_keys`` order,
    the number of rank-``mid`` faces incident to both."""
    rows = _chains(geom, (i, mid, j))
    keys = geom.incidence_keys(i, j)
    hits = np.searchsorted(keys, rows[:, 0] * geom.rank_size(j) + rows[:, 2])
    return np.bincount(hits, minlength=keys.shape[0])


def _group_by(cols: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """An order of the rows that groups equal key columns together, and the
    start of each group in it."""
    order = np.lexsort(cols)
    change = np.zeros(order.shape[0], dtype=bool)
    change[:1] = True
    for c in cols:
        s = c[order]
        change[1:] |= s[1:] != s[:-1]
    return order, np.flatnonzero(change)


def _sections_connected(geom: CosetGeometry, i: int, j: int) -> bool:
    """Whether the flags of every (rank-i, rank-j) section are connected
    through flags that differ in one face, given as components of the
    chain graph."""
    rows = _chains(geom, range(i, j + 1))
    if rows.shape[0] == 0:
        return True
    cols = list(rows.T)
    # flags of one section that agree off one middle rank are adjacent
    axes = [_group_by(cols[:t] + cols[t + 1:]) for t in range(1, len(cols) - 1)]

    def relax(lab):
        for order, starts in axes:
            low = np.minimum.reduceat(lab[order], starts)
            lab = np.empty_like(lab)
            lab[order] = np.repeat(low, np.diff(starts, append=order.shape[0]))
        return lab

    lab = _min_labels(rows.shape[0], relax)
    order, starts = _group_by([cols[0], cols[-1]])
    lab = lab[order]
    return np.array_equal(np.minimum.reduceat(lab, starts),
                          np.maximum.reduceat(lab, starts))


def verify_axioms(geom: CosetGeometry) -> AxiomReport:
    """Exhaustively check the four polytope axioms on the geometry.

    Failures are recorded in the report, never raised.  The flag count is
    the number of maximal chains through all ranks.
    """
    p1_ok = all(c > 0 for c in geom.face_counts())  # formal faces exist by construction

    # faces strictly between each incident pair, per middle rank
    between = {(i, mid, j): _between(geom, i, mid, j)
               for i in range(-1, 3) for j in range(i + 2, 5)
               for mid in range(i + 1, j)}

    # P2: between any incident pair there are faces at every middle rank,
    # so every maximal chain passes through every rank.
    p2_ok = all(c.all() for c in between.values())

    # P4: the diamond condition on every rank-1 section
    p4_ok = all((between[(i, i + 1, i + 2)] == 2).all() for i in range(-1, 3))

    # P3: strong flag-connectivity of every section of rank >= 2; a section
    # with an empty middle rank fails, one with at most one flag passes
    p3_ok = (all(c.all() for (i, _, j), c in between.items() if j >= i + 3)
             and all(_sections_connected(geom, i, j)
                     for i in range(-1, 2) for j in range(i + 3, 5)))

    flag_count = int(_chains(geom, (0, 1, 2, 3)).shape[0])

    # equivelarity across all 2-sections, giving the Schlafli type:
    # entry ``pos`` measures sections between (pos-1)-faces and (pos+2)-faces,
    # whose middle ranks are pos and pos+1; a polygon has equal counts at both.
    schlafli = []
    equivelar = True
    for pos in range(3):
        sizes = np.union1d(between[(pos - 1, pos, pos + 2)],
                           between[(pos - 1, pos + 1, pos + 2)])
        if sizes.shape[0] != 1:
            equivelar = False
            schlafli.append(0)
        else:
            schlafli.append(int(sizes[0]))

    facet_type = None
    vertex_type = None
    if equivelar:
        facet_type = (schlafli[0], schlafli[1])
        vertex_type = (schlafli[1], schlafli[2])

    return AxiomReport(
        p1_ok=p1_ok, p2_ok=p2_ok, p3_ok=p3_ok, p4_ok=p4_ok,
        equivelar=equivelar, flag_count=flag_count,
        schlafli=tuple(schlafli) if equivelar else None,
        facet_section_type=facet_type, vertex_figure_type=vertex_type,
    )


def _uniform(groups: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Per group 0..size-1, its one value, or -1 when it has none or several."""
    low = np.full(size, np.iinfo(np.int64).max)
    np.minimum.at(low, groups, values)
    high = np.full(size, -1, dtype=np.int64)
    np.maximum.at(high, groups, values)
    return np.where(low == high, high, -1)


def section_type(geom: CosetGeometry) -> tuple[tuple[int, int], tuple[int, int]]:
    """Schlafli types of the facet sections and the vertex-figure sections.

    Measured from 2-section polygon sizes inside the rank-3 sections; raises
    if the sections are not equivelar.
    """
    n0, n1, _, n3 = geom.face_counts()
    vertex, facet = np.divmod(geom.incidence_keys(0, 3), n3)
    edges_between = _between(geom, 0, 1, 3)  # per incident (vertex, facet)
    polygon, polygon_facet = np.divmod(geom.incidence_keys(2, 3), n3)
    edge_vertex, edge = np.divmod(geom.incidence_keys(0, 1), n1)

    k1 = _uniform(polygon_facet, _between(geom, -1, 0, 2)[polygon], n3)
    k2 = _uniform(facet, edges_between, n3)
    if (k1 < 0).any() or (k2 < 0).any():
        raise ValueError("facet sections are not equivelar")
    v2 = _uniform(vertex, edges_between, n0)
    v3 = _uniform(edge_vertex, _between(geom, 1, 2, 4)[edge], n0)
    if (v2 < 0).any() or (v3 < 0).any():
        raise ValueError("vertex-figure sections are not equivelar")
    facet_types = np.unique(np.stack([k1, k2]), axis=1)
    vertex_types = np.unique(np.stack([v2, v3]), axis=1)
    if facet_types.shape[1] != 1 or vertex_types.shape[1] != 1:
        raise ValueError("sections of one rank have differing types")
    return ((int(facet_types[0, 0]), int(facet_types[1, 0])),
            (int(vertex_types[0, 0]), int(vertex_types[1, 0])))
