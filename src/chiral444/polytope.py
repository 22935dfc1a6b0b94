"""Rank-4 rotation triples, the chiral intersection condition, mirror test,
enantiomorphs, and the coset-geometry / polytope-axiom verifier.

The canonical generators sigma_1, sigma_2, sigma_3 of a rank-4 rotation
group satisfy (s1 s2)^2 = (s2 s3)^2 = (s1 s2 s3)^2 = 1.  Rank-i faces of the
geometry are left cosets of S_0 = <s2,s3>, S_1 = <s1 s2, s3>,
S_2 = <s1, s2 s3>, S_3 = <s1,s2>, with incidence by nonempty intersection,
plus a formal least and greatest face.

The s_i of a ``RotationTriple`` are elements of its group, checked when the
triple is made, so every word in them is an element too.  Every relation,
order, homomorphism and mirror check follows its word on id 0 of the group's
regular action (``PermGroup.word_id``, ``PermGroup.word_order``), and no
product of the group's degree is formed.  The mirror test follows each
relator's image under s1 -> s1^-1, s2 -> s1^2 s2, s3 -> s3 as a word in the
s_i; the image is a pure function of the relator and is kept per word
(``_mirror_image``), so the relators every family member shares, U's nine
and the mirror witness, are substituted once per process.  The type and
mirror rules take those reads as functions (``canonical_type``,
``mirror_verdict``), so that ``families.verify_member`` applies them to its
voltage cover.

The geometry is built on the group's right-regular action: right
multiplication by s is s's image array on the group's ids, which are its
points, and the ids are renumbered by their positions in ``elements()``.
The rank-i face gS_i is the S_i-orbit of g's position, and two faces are
incident when they share one.  Each face is labelled by the smallest
position in its orbit (``_orbit_labels``: min-label propagation over the
stabilizer generators' maps, with one pointer jump a round), and faces are
numbered in the order of those labels.  A ``CosetGeometry`` holds the face
counts and, per pair of ranks, the sorted distinct keys of its incident
pairs (sorted, then compared with their neighbours); the axioms P1-P4, the
flag count and the section types are joins and groupings on those arrays.
No join searches unsorted keys, and no grouping calls ``np.unique``.

For each incident pair of faces and each rank between them, the number of
faces of that rank incident to both is counted once per geometry and kept
on it (``_between``).  When one end is a formal face the count is a
``bincount`` of one incidence array; the four triples of real ranks count
chains of three faces, merging the chains' end keys into the pairs' keys.

Chains grow one rank at a time (``_extend``) through each incidence
pair's CSR arrays, which the geometry keeps, and come out sorted.
``verify_axioms`` builds three tables.  The vertex-edge-polygon chains give
the (0,1,2) counts and the components of the (-1,2) sections; the
edge-polygon-facet chains give the (1,2,3) counts and those of the (1,4)
sections.  The first table extended by rank 3 is the flag table
(f0, f1, f2, f3).  Its length is the flag count, and it decides strong
flag-connectivity (P3) for the four section classes whose flags are whole
flags, (0,3), (-1,3), (0,4) and (-1,4).  The flags are grouped once per
rank by their other three faces: off rank 3 the groups are runs of the
table, off any other rank runs of one sort.  Each grouping is held as a
permutation whose cycles are its groups, so each class's components are
the orbits (``_orbit_labels``) of the groupings of its middle ranks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .perms import PermGroup, Permutation, orbit
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
        _require_elements(self.group, self.sigma)

    def subgroup(self, *indices: int) -> PermGroup:
        """<s_i : i in indices> (1-based), as a handle on the group's action."""
        h = self._subgroups.get(indices)
        if h is None:
            h = self.group.subgroup([self.sigma[i - 1] for i in indices])
            self._subgroups[indices] = h
        return h


def _require_elements(group: PermGroup, sigma: Sequence[Permutation]) -> None:
    """Raise TripleError unless each of ``sigma`` is an element of ``group``,
    so that every word in them can be followed on id 0
    (``PermGroup.word_id``).  The group's own generator objects are elements
    as they stand; any other permutation goes by ``PermGroup.contains``."""
    for i, s in enumerate(sigma, 1):
        if any(s is g for g in group.generators):
            continue
        if s.degree != group.degree or not group.contains(s):
            raise TripleError(f"s{i} is not an element of the group")


def _homomorphism(pres: Presentation, group: PermGroup,
                  sigma: Sequence[Permutation]) -> bool:
    """Whether every relator of ``pres`` holds at ``sigma``, elements of
    ``group``."""
    if len(sigma) != pres.ngens:
        raise ValueError("one image per generator required")
    return all(group.word_id(r, sigma) == 0 for r in pres.relators)


_CANONICAL_RELATIONS = (("(s1*s2)^2", Word((1, 2, 1, 2))),
                        ("(s2*s3)^2", Word((2, 3, 2, 3))),
                        ("(s1*s2*s3)^2", Word((1, 2, 3, 1, 2, 3))))


def canonical_type(holds: Callable[[Word], bool],
                   generator_order: Callable[[int], int]) -> SchlafliType:
    """The type of a triple, checking the canonical even relations and that
    each s_i has order at least 2, given whether a word holds and the order
    of s_i (1-based)."""
    for name, w in _CANONICAL_RELATIONS:
        if not holds(w):
            raise TripleError(f"canonical relation {name} = 1 fails")
    orders = tuple(generator_order(i) for i in (1, 2, 3))
    if min(orders) < 2:
        raise TripleError(f"generator orders {orders} must all be at least 2")
    return SchlafliType(*orders)


def validate_rotation_triple(group: PermGroup,
                             sigma: Sequence[Permutation]) -> SchlafliType:
    """Check that sigma are elements of the group, the canonical even
    relations and generation; return the type."""
    _require_elements(group, sigma)
    schlafli = canonical_type(lambda w: group.word_id(w, sigma) == 0,
                              lambda i: group.word_order(Word((i,)), sigma))
    # a group built on the triple itself is generated by it
    if (not all(any(g is s for s in sigma) for g in group.generators)
            and group.subgroup(sigma).order() != group.order()):
        raise TripleError("the triple does not generate the group")
    return schlafli


def intersection_condition(t: RotationTriple, cap: int = 10_000) -> bool:
    """The chiral intersection condition, checked on the subgroups' masks:
    <s1> meets <s2,s3> trivially, <s1,s2> meets <s3> trivially, and
    <s1,s2> meets <s2,s3> in exactly <s2>.

    This is the generic engine, for any triple: each subgroup is an orbit
    search on the triple's action.  ``families.verify_member`` reads the
    same three meets off the family's spans on G_1 instead, and this is the
    cross-check the tests run against that.

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


def _require_quotient_map(pres: Presentation, small: RotationTriple) -> None:
    """Raise TripleError unless the generator-wise map from the group that
    ``pres`` presents onto ``small``'s group extends to a homomorphism."""
    if not _homomorphism(pres, small.group, small.sigma):
        raise TripleError("generator-wise map does not extend to a homomorphism")


def quotient_criterion(big: RotationTriple, small: RotationTriple,
                       cap: int = 10_000) -> bool:
    """Injectivity on <s1,s2> (or <s2,s3>) of the generator-wise map.

    Raises TripleError when the generator-wise map does not extend to a
    homomorphism.  A True result, together with the small triple being the
    rotation group of a chiral polytope, certifies the big triple's
    intersection condition.

    The subgroup orders are orbit searches on the two actions, as in
    ``intersection_condition``; ``families.verify_member`` reads them off
    the family's spans on G_1.  ``cap`` has no effect; it is kept for
    callers that pass it, such as ``perfbench/ops.py``'s traced replay.
    """
    _require_quotient_map(big.presentation, small)
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


@functools.lru_cache(maxsize=4096)
def _mirror_image(r: Word) -> Word:
    """r's image under the mirror map, as a freely reduced word in the s_i:
    r holds at ``mirror_images(sigma)`` iff its image holds at sigma.  A
    pure function of the word, so each of U's relators and the mirror
    witness is substituted once per process, whichever member asks."""
    return substitute(r, _mirror_words(r.max_index() + 1))


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
    rotation group of a polytope at all.  The witness is a relation of the
    group whose mirror image is nontrivial, with the order of that image.
    ``preferred_witness`` is tried first, and cited only when it holds in
    the group (its ``word_id`` is 0) and its image does not; otherwise the
    relators of ``t.presentation`` are tried in order.  Each image
    (``_mirror_image``) is followed on id 0 as it stands, not cyclically
    reduced: a word and its cyclic reduction are conjugate, so one is the
    identity exactly when the other is.

    The two verdicts are not equally sound.  "chiral" is sound whenever
    every relator of ``t.presentation`` holds in the group: the witness is
    a relation of the group whose mirror image fails, so no automorphism is
    the mirror map.  "regular" is sound only when ``t.presentation`` is a
    complete presentation of the group: relators that hold in the group but
    do not define it can all survive the mirror map while a relation they
    miss does not.
    """
    group, sigma = t.group, t.sigma
    return mirror_verdict(t.presentation.relators,
                          lambda w: group.word_id(w, sigma) == 0,
                          lambda w: group.word_order(w, sigma), preferred_witness)


def mirror_verdict(relators: Sequence[Word], holds: Callable[[Word], bool],
                   order: Callable[[Word], int],
                   preferred_witness: Word | None = None) -> ChiralityReport:
    """``chirality_verdict``'s rule, given whether a word in the s_i holds
    and a word's order."""
    if preferred_witness is not None and holds(preferred_witness):
        relators = (preferred_witness, *relators)
    for r in relators:
        img = _mirror_image(r)
        if not holds(img):
            return ChiralityReport("chiral", r, order(img))
    return ChiralityReport("regular", None, None)


def enantiomorph(t: RotationTriple) -> RotationTriple:
    """The mirror-image triple (s1^-1, s1^2 s2, s3) over the same group."""
    pres = t.presentation
    return RotationTriple(t.group, mirror_images(t.sigma),
                          Presentation(pres.names, map(_mirror_image, pres.relators)))


# ---------------------------------------------------------------------------
# coset geometry and the abstract-polytope axioms


# the most elements a group may have for its coset geometry to be built
ELEMENT_CAP = 2 ** 16


class GeometryCapError(ValueError):
    """The group has more elements than the geometry's ``ELEMENT_CAP``."""


def check_element_cap(order: int) -> None:
    """Raise GeometryCapError when a group of ``order`` elements is too large
    for the geometry."""
    if order > ELEMENT_CAP:
        raise GeometryCapError(
            f"group order {order} exceeds the exhaustive cap {ELEMENT_CAP}")


@dataclass(eq=False)
class CosetGeometry:
    """The coset geometry of a triple on four stabilizers S_0..S_3.

    The group acts by right multiplication on the positions k of
    ``group.elements()``, not on its ids, so that the numbering does not
    depend on the points the group acts on, and the rank-i face gS_i is the
    S_i-orbit of g's position.  Faces of one rank are numbered by the
    smallest position they contain, which is the order in which a walk over
    ``elements()`` first meets them.  Two faces are incident when they share
    a position.

    ``face_counts()`` gives the number of faces per rank 0..3, and
    ``incidence[(i, j)]`` (0 <= i < j <= 3) holds one sorted int64 key
    ``a * n_j + b`` per incident pair of rank-i face a and rank-j face b.
    The formal least (rank -1) and greatest (rank 4) faces are implicit;
    ``incidence_keys`` treats them as single faces incident to every face.

    ``between[(i, mid, j)]`` keeps, once ``_between`` has counted them, the
    read-only counts of rank-``mid`` faces between each incident (rank-i,
    rank-j) pair, so that ``verify_axioms`` and ``section_type`` share them.
    ``csr[(i, j)]`` keeps, once ``_incident_faces`` has made it, the rank-j
    faces incident to each rank-i face, which ``_extend`` reads.
    """

    triple: RotationTriple
    group_order: int
    subgroup_orders: tuple[int, int, int, int]
    nfaces: tuple[int, int, int, int]
    incidence: dict[tuple[int, int], np.ndarray]
    between: dict[tuple[int, int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    csr: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

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


def _orbit_labels(n: int, maps: Sequence[np.ndarray]) -> np.ndarray:
    """The smallest index in each index's orbit under the permutations
    ``maps`` of 0..n-1.

    Each index starts as its own label, and labels only ever name a no
    larger index of the same orbit.  Each round relaxes every label to the
    least of its own and its images' labels, one map after another, and
    then makes one pointer jump, ``lab[lab]``, also a valid label.  Since
    lab[j] <= j, a round's labels are pointwise at most the relaxed ones,
    which are at most the old ones, so a round changes nothing only when
    no relaxation lowers a label and every label labels itself.  Then
    lab[k] <= lab[r[k]] on every cycle of every map r, so the label is
    constant on each orbit, and it is an index of the orbit no larger than
    any: its smallest.
    """
    lab = np.arange(n, dtype=np.int64)
    while True:
        new = lab
        for r in maps:
            new = np.minimum(new, new[r])
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys`` in increasing order (``np.unique``),
    by a sort and a compare with each value's neighbour."""
    keys = np.sort(keys)
    keep = np.empty(keys.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _face_numbers(lab: np.ndarray) -> np.ndarray:
    """Each id's face number, the faces numbered in the order of their
    labels, given each id's face label, which is the smallest id of the face
    (the inverse of ``np.unique(lab)``, without a sort)."""
    root = lab == np.arange(lab.shape[0])
    return (np.cumsum(root) - 1)[lab]


def coset_geometry_from_subgroups(t: RotationTriple,
                                  subgroup_gens: Sequence[Sequence[Permutation]]
                                  ) -> CosetGeometry:
    """Build the ranked incidence structure from explicit stabilizer choices.

    The image arrays of right multiplication on the ids are renumbered by
    the ids' positions in ``elements()``, a BFS from id 0.  Raises
    GeometryCapError when the group has more than ``ELEMENT_CAP`` elements.
    """
    g = t.group
    order = g.order()
    check_element_cap(order)
    bfs = orbit([s.images for s in g.generators], order).order
    pos = np.argsort(bfs)
    faces = [_face_numbers(_orbit_labels(order, [pos[s.images[bfs]] for s in gens]))
             for gens in subgroup_gens]
    nfaces = tuple(int(f.max()) + 1 for f in faces)
    incidence = {(i, j): _distinct(faces[i] * nfaces[j] + faces[j])
                 for i in range(4) for j in range(i + 1, 4)}
    return CosetGeometry(t, order, tuple(order // c for c in nfaces), nfaces,
                         incidence)


def build_coset_geometry(t: RotationTriple) -> CosetGeometry:
    """Coset geometry on the canonical stabilizers S_0..S_3.

    The caller is expected to have verified the intersection condition, so
    that the construction yields a polytope; verify_axioms independently
    validates the outcome rather than trusting it.
    """
    return coset_geometry_from_subgroups(t, stabilizer_generators(t.sigma))


def _incident_faces(geom: CosetGeometry, i: int, j: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rank-j faces incident to each rank-i face (ranks 0..3), as CSR
    arrays made once per geometry and kept on it: the faces, grouped by
    their rank-i face in increasing order; each rank-i face's degree; and
    where its group starts."""
    csr = geom.csr.get((i, j))
    if csr is None:
        lo, hi = np.divmod(geom.incidence[(i, j)], geom.nfaces[j])
        degree = np.bincount(lo, minlength=geom.nfaces[i])
        csr = geom.csr[(i, j)] = (hi, degree, np.cumsum(degree) - degree)
    return csr


def _extend(geom: CosetGeometry, rows: np.ndarray, ranks: Sequence[int],
            rank: int) -> np.ndarray:
    """Chains of ``rows`` (one column per rank of the increasing ``ranks``)
    extended in every way by a face of the greater ``rank``; ranks 0..3.

    The extensions of each row come out as one run, in the order of the
    rows, so the chains of ``_chains`` are sorted and a table's chains that
    share all faces but the last are contiguous (``_flag_graph``)."""
    hi, degree, first = _incident_faces(geom, ranks[-1], rank)
    last = rows[:, -1]
    reps = degree[last]
    # slot s extends row src[s]; the row's slots, from start on, read the
    # faces incident to its last face, from first[last] on
    start = np.cumsum(reps) - reps
    src = np.repeat(np.arange(rows.shape[0]), reps)
    new = hi[np.arange(src.shape[0]) + (first[last] - start)[src]]
    size = geom.nfaces[rank]
    keep = np.ones(src.shape[0], dtype=bool)
    for q, r in enumerate(ranks[:-1]):
        keep &= np.isin(rows[src, q] * size + new, geom.incidence[(r, rank)], kind="table")
    src, new = src[keep], new[keep]
    out = np.empty((src.shape[0], len(ranks) + 1), dtype=np.int64, order="F")
    for q in range(len(ranks)):
        np.take(rows[:, q], src, out=out[:, q])
    out[:, -1] = new
    return out


def _chains(geom: CosetGeometry, ranks: Sequence[int]) -> np.ndarray:
    """All chains of pairwise incident faces, one row per chain and one
    column per rank of the increasing ``ranks`` (ranks 0..3)."""
    rows = np.arange(geom.nfaces[ranks[0]], dtype=np.int64)[:, None]
    for k in range(1, len(ranks)):
        rows = _extend(geom, rows, ranks[:k], ranks[k])
    return rows


def _between(geom: CosetGeometry, i: int, mid: int, j: int,
             chains: np.ndarray | None = None) -> np.ndarray:
    """For each incident (rank-i, rank-j) pair, in ``incidence_keys`` order,
    the number of rank-``mid`` faces incident to both.

    The counts are made once per geometry and kept, read-only, in
    ``geom.between``.  Between the two formal faces every rank-``mid`` face
    counts; with one formal end, the other end's incident ``mid`` faces are
    counted off one incidence array.  The four triples of real ranks count
    the chains of ranks (i, mid, j), which a caller that has them passes as
    ``chains``, by their ends.  Every chain's ends are an incident pair
    (``_extend`` keeps no other), so in the sorted merge of the pairs' keys
    with the chains' end keys each key opens one run, one longer than its
    count.  The merge holds one entry per pair and per chain.
    """
    counts = geom.between.get((i, mid, j))
    if counts is not None:
        return counts
    if i == -1 and j == 4:
        counts = np.array([geom.rank_size(mid)], dtype=np.int64)
    elif i == -1:
        n = geom.rank_size(j)
        counts = np.bincount(geom.incidence[(mid, j)] % n, minlength=n)
    elif j == 4:
        counts = np.bincount(geom.incidence[(i, mid)] // geom.rank_size(mid),
                             minlength=geom.rank_size(i))
    else:
        if chains is None:
            chains = _chains(geom, (i, mid, j))
        keys = geom.incidence[(i, j)]
        merged = np.concatenate([keys, chains[:, 0] * geom.rank_size(j) + chains[:, 2]])
        merged.sort()
        bounds = np.empty(keys.shape[0] + 1, dtype=np.int64)
        bounds[0], bounds[-1] = 0, merged.shape[0]
        bounds[1:-1] = np.flatnonzero(merged[1:] != merged[:-1]) + 1
        counts = np.diff(bounds) - 1
    counts.flags.writeable = False
    geom.between[(i, mid, j)] = counts
    return counts


def _key(n: int, cols: Sequence[np.ndarray], sizes: Sequence[int]) -> np.ndarray:
    """One int64 per row of n, equal for two rows iff they agree on every
    column; column c holds values below ``sizes[c]``."""
    if math.prod(sizes) > np.iinfo(np.int64).max:
        raise ValueError("too many faces to key a chain by one int64")
    key = np.zeros(n, dtype=np.int64)
    for c, size in zip(cols, sizes):
        key = key * size + c
    return key


def _starts(n: int, cols: Sequence[np.ndarray]) -> np.ndarray:
    """For n rows given by columns ``cols``, whether each row starts a run
    of rows equal to it."""
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return new


def _cycles(new: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """The permutation that takes each row to the next row of its group and
    the group's last row to its first, for groups listed as runs of
    ``order`` (the identity when None) that start where ``new`` holds."""
    n = new.shape[0]
    succ = np.arange(1, n + 1)
    last = np.ones(n, dtype=bool)
    last[:-1] = new[1:]
    succ[last] = np.flatnonzero(new)
    if order is None:
        return succ
    cyc = np.empty(n, dtype=np.int64)
    cyc[order] = order[succ]
    return cyc


def _flag_graph(table: np.ndarray, ranks: Sequence[int], sizes: Sequence[int],
                mids: Sequence[int]) -> list[np.ndarray]:
    """Per rank t of ``mids``, the chains of ``table`` (one column per rank
    of ``ranks``, made by ``_chains``) grouped by their faces off rank t,
    as a permutation of the chains whose cycles are the groups
    (``_cycles``).  Two chains of one section are adjacent when they share
    a group.  Off the last rank the groups are runs of the table, as
    ``_extend`` emits the extensions of each chain; off any other rank they
    are runs of one sort of the chains' keys."""
    n = table.shape[0]
    cols = list(table.T)
    axes = []
    for k, t in enumerate(ranks):
        if t not in mids:
            continue
        if k == len(ranks) - 1:
            axes.append(_cycles(_starts(n, cols[:-1])))
        else:
            key = _key(n, cols[:k] + cols[k + 1:], sizes[:k] + sizes[k + 1:])
            order = np.argsort(key)
            axes.append(_cycles(_starts(n, [key[order]]), order))
    return axes


def _one_per_section(geom: CosetGeometry, table: np.ndarray, ranks: Sequence[int],
                     lab: np.ndarray, i: int, j: int) -> bool:
    """Whether the chains of each (rank-i, rank-j) section form one
    component.  A component lies in one section, so this holds iff the
    components' least chains (those labelled by themselves) lie in
    distinct sections."""
    roots = table[lab == np.arange(lab.shape[0])]
    ends = [k for k, r in enumerate(ranks) if r in (i, j)]
    key = _key(roots.shape[0], [roots[:, k] for k in ends],
               [geom.rank_size(ranks[k]) for k in ends])
    return _distinct(key).shape[0] == roots.shape[0]


def _sections_connected(geom: CosetGeometry, i: int, j: int,
                        table: np.ndarray) -> bool:
    """Whether the flags of every (rank-i, rank-j) section are connected
    through flags that differ in one face, given as components of the
    chain graph.  ``table`` holds the chains of the real ranks from
    max(i, 0) to min(j, 3)."""
    ranks = tuple(range(max(i, 0), min(j, 3) + 1))  # a formal rank has one face
    axes = _flag_graph(table, ranks, [geom.rank_size(r) for r in ranks],
                       range(i + 1, j))
    lab = _orbit_labels(table.shape[0], axes)
    return _one_per_section(geom, table, ranks, lab, i, j)


def _connected_classes(geom: CosetGeometry, vep: np.ndarray, epf: np.ndarray,
                       flags: np.ndarray):
    """Yield ((i, j), connected) for each section class (i, j) of rank at
    least 2: whether the flags of each of its sections are connected (a
    section without flags counts as connected).  A caller that stops at the
    first False skips the rest.

    The classes (-1,2) and (1,4) go by ``_sections_connected``, (-1,2) on
    ``vep``, the table of vertex-edge-polygon chains, and (1,4) on ``epf``,
    that of edge-polygon-facet chains.  The four others, (0,3), (-1,3),
    (0,4) and (-1,4), share the one table ``flags`` of the flags
    (f0, f1, f2, f3), grouped once by the faces off each rank
    (``_flag_graph``); each class's components are found over the
    groupings of its middle ranks.
    """
    yield (-1, 2), _sections_connected(geom, -1, 2, vep)
    yield (1, 4), _sections_connected(geom, 1, 4, epf)
    n = flags.shape[0]
    ranks = (0, 1, 2, 3)
    axes = _flag_graph(flags, ranks, geom.nfaces, ranks)
    for (i, j), middle in (((0, 3), axes[1:3]), ((-1, 3), axes[:3]),
                           ((0, 4), axes[1:]), ((-1, 4), axes)):
        yield (i, j), _one_per_section(geom, flags, ranks, _orbit_labels(n, middle), i, j)


def verify_axioms(geom: CosetGeometry) -> AxiomReport:
    """Exhaustively check the four polytope axioms on the geometry.

    Failures are recorded in the report, never raised.  The counts of faces
    between incident pairs are made here, 16 of the 20 by a ``bincount``,
    and kept on the geometry for ``section_type``.  The table of
    vertex-edge-polygon chains gives the (0,1,2) counts and P3 for the
    (-1,2) sections, and that of edge-polygon-facet chains, built once,
    the (1,2,3) counts and P3 for the (1,4) sections.  Extended by rank 3
    the first is the table of flags, the maximal chains through all ranks.
    Its length is the flag count, and it serves P3 for the four section
    classes between a face of rank -1 or 0 and one of rank 3 or 4
    (``_connected_classes``).  No table outlives the call.
    """
    p1_ok = all(c > 0 for c in geom.face_counts())  # formal faces exist by construction

    # faces strictly between each incident pair, per middle rank; the
    # vertex-edge-polygon chains give the (0,1,2) counts and, below, the
    # flags, and the edge-polygon-facet chains the (1,2,3) counts
    vep = _chains(geom, (0, 1, 2))
    epf = _chains(geom, (1, 2, 3))
    _between(geom, 0, 1, 2, vep)
    _between(geom, 1, 2, 3, epf)
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
    flags = _extend(geom, vep, (0, 1, 2), 3)
    p3_ok = (all(c.all() for (i, _, j), c in between.items() if j >= i + 3)
             and all(ok for _, ok in _connected_classes(geom, vep, epf, flags)))

    flag_count = int(flags.shape[0])

    # equivelarity across all 2-sections, giving the Schlafli type:
    # entry ``pos`` measures sections between (pos-1)-faces and (pos+2)-faces,
    # whose middle ranks are pos and pos+1; a polygon has equal counts at both.
    schlafli = []
    equivelar = True
    for pos in range(3):
        sizes = _distinct(np.concatenate([between[(pos - 1, pos, pos + 2)],
                                          between[(pos - 1, pos + 1, pos + 2)]]))
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
    if the sections are not equivelar.  The three counts it reads are those
    ``verify_axioms`` kept on the geometry, made here when it has not run.
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
    types = []
    for p, q in ((k1, k2), (v2, v3)):
        if not p.size or p.min() != p.max() or q.min() != q.max():
            raise ValueError("sections of one rank have differing types")
        types.append((int(p[0]), int(q[0])))
    return types[0], types[1]
