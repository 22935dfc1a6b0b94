"""Rank-4 rotation triples, the chiral intersection condition, mirror test,
enantiomorphs, and the coset-geometry / polytope-axiom verifier.

The canonical generators sigma_1, sigma_2, sigma_3 of a rank-4 rotation
group satisfy (s1 s2)^2 = (s2 s3)^2 = (s1 s2 s3)^2 = 1.  Rank-i faces of the
geometry are left cosets of S_0 = <s2,s3>, S_1 = <s1 s2, s3>,
S_2 = <s1, s2 s3>, S_3 = <s1,s2>, with incidence by nonempty intersection,
plus a formal least and greatest face.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .perms import PermGroup, Permutation, evaluate, extends_to_homomorphism, \
    subgroup_intersection_small
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
    """A rank-4 rotation-group generating triple with its source presentation."""

    group: PermGroup
    sigma: tuple[Permutation, Permutation, Permutation]
    presentation: Presentation

    def __post_init__(self):
        if len(self.sigma) != 3:
            raise TripleError("exactly three canonical generators required")


def validate_rotation_triple(group: PermGroup,
                             sigma: Sequence[Permutation]) -> SchlafliType:
    """Check the canonical even relations and generation; return the type."""
    s1, s2, s3 = sigma
    for name, p in (("(s1*s2)^2", (s1 * s2) ** 2),
                    (("(s2*s3)^2"), (s2 * s3) ** 2),
                    (("(s1*s2*s3)^2"), (s1 * s2 * s3) ** 2)):
        if not p.is_identity():
            raise TripleError(f"canonical relation {name} = 1 fails")
    orders = (s1.order(), s2.order(), s3.order())
    if min(orders) < 2:
        raise TripleError(f"generator orders {orders} must all be at least 2")
    if group.subgroup(sigma).order() != group.order():
        raise TripleError("the triple does not generate the group")
    return SchlafliType(*orders)


def intersection_condition(t: RotationTriple, cap: int = 10_000) -> bool:
    """The chiral intersection condition, checked by exhaustive intersection:
    <s1> meets <s2,s3> trivially, <s1,s2> meets <s3> trivially, and
    <s1,s2> meets <s2,s3> in exactly <s2>.
    """
    s1, s2, s3 = t.sigma
    g = t.group
    a1 = g.subgroup([s1])
    a2 = g.subgroup([s2])
    a3 = g.subgroup([s3])
    a12 = g.subgroup([s1, s2])
    a23 = g.subgroup([s2, s3])
    inter = subgroup_intersection_small(a1, a23, cap)
    if not all(p.is_identity() for p in inter):
        return False
    inter = subgroup_intersection_small(a12, a3, cap)
    if not all(p.is_identity() for p in inter):
        return False
    inter = subgroup_intersection_small(a12, a23, cap)
    return set(inter) == set(a2.elements(cap))


def quotient_criterion(big: RotationTriple, small: RotationTriple,
                       cap: int = 10_000) -> bool:
    """Injectivity on <s1,s2> (or <s2,s3>) of the generator-wise map.

    Raises TripleError when the generator-wise map does not extend to a
    homomorphism.  A True result, together with the small triple being the
    rotation group of a chiral polytope, certifies the big triple's
    intersection condition.
    """
    if not extends_to_homomorphism(big.presentation, list(small.sigma)):
        raise TripleError("generator-wise map does not extend to a homomorphism")
    b1, b2, b3 = big.sigma
    s1, s2, s3 = small.sigma
    if big.group.subgroup([b1, b2]).order() == small.group.subgroup([s1, s2]).order():
        return True
    return big.group.subgroup([b2, b3]).order() == small.group.subgroup([s2, s3]).order()


def _mirror_words(ngens: int) -> list[Word]:
    # s1 -> s1^-1, s2 -> s1^2 s2, s3 -> s3 (and any further generators fixed)
    images = [Word((-1,)), Word((1, 1, 2))]
    images += [Word((i + 1,)) for i in range(2, ngens)]
    return images


def mirror_images(sigma: Sequence[Permutation]) -> tuple[Permutation, ...]:
    s1, s2, s3 = sigma
    return (s1.inverse(), s1 * s1 * s2, s3)


def mirror_extends(t: RotationTriple) -> bool:
    """Whether s1 -> s1^-1, s2 -> s1^2 s2, s3 -> s3 extends to the group.

    For a finite group with generating images this is exactly the existence
    of the mirror automorphism, so True means the polytope is regular.
    """
    return extends_to_homomorphism(t.presentation, list(mirror_images(t.sigma)))


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
    """
    images = list(mirror_images(t.sigma))
    if extends_to_homomorphism(t.presentation, images):
        return ChiralityReport("regular", None, None)
    candidates = list(t.presentation.relators)
    if preferred_witness is not None:
        candidates.insert(0, preferred_witness)
    for r in candidates:
        img = evaluate(r, images)
        if not img.is_identity():
            return ChiralityReport("chiral", r, img.order())
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


@dataclass
class CosetGeometry:
    """Faces per rank 0..3 as frozensets of group-element ids, with bitmask
    incidence; the formal least and greatest faces are implicit."""

    triple: RotationTriple
    group_order: int
    subgroup_orders: tuple[int, int, int, int]
    faces: list[list[frozenset[int]]]
    above: dict[tuple[int, int], list[int]]  # (i, j) -> per rank-i face, bitmask over rank-j faces

    def face_counts(self) -> tuple[int, int, int, int]:
        return tuple(len(f) for f in self.faces)

    def below_mask(self, i: int, j: int, jdx: int) -> int:
        """Bitmask over rank-i faces lying below face jdx of rank j (i < j)."""
        mask = 0
        col = self.above[(i, j)]
        bit = 1 << jdx
        for idx, m in enumerate(col):
            if m & bit:
                mask |= 1 << idx
        return mask

    def dump(self) -> str:
        """One line per face: ``rank index : incident faces one rank up``."""
        lines = []
        nfaces = self.face_counts()
        all_rank0 = " ".join(str(i) for i in range(nfaces[0]))
        lines.append(f"-1 0 : {all_rank0}")
        for i in range(3):
            col = self.above[(i, i + 1)]
            for idx in range(nfaces[i]):
                ups = [str(j) for j in range(nfaces[i + 1]) if col[idx] & (1 << j)]
                lines.append(f"{i} {idx} : {' '.join(ups)}")
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


def coset_geometry_from_subgroups(t: RotationTriple,
                                  subgroup_gens: Sequence[Sequence[Permutation]],
                                  element_cap: int = 2 ** 14) -> CosetGeometry:
    """Build the ranked incidence structure from explicit stabilizer choices."""
    g = t.group
    order = g.order()
    if order > element_cap:
        raise ValueError(
            f"group order {order} exceeds the exhaustive cap {element_cap}")
    elements = g.elements()
    index = {e: i for i, e in enumerate(elements)}
    faces: list[list[frozenset[int]]] = []
    sub_orders = []
    for gens in subgroup_gens:
        sub = g.subgroup(gens)
        selems = sub.elements(order)
        sub_orders.append(len(selems))
        seen = [False] * order
        rank_faces = []
        for i, e in enumerate(elements):
            if seen[i]:
                continue
            coset = frozenset(index[e * s] for s in selems)
            for k in coset:
                seen[k] = True
            rank_faces.append(coset)
        faces.append(rank_faces)
    above: dict[tuple[int, int], list[int]] = {}
    for i in range(4):
        for j in range(i + 1, 4):
            col = []
            for fa in faces[i]:
                mask = 0
                for jdx, fb in enumerate(faces[j]):
                    if not fa.isdisjoint(fb):
                        mask |= 1 << jdx
                col.append(mask)
            above[(i, j)] = col
    return CosetGeometry(t, order, tuple(sub_orders), faces, above)


def build_coset_geometry(t: RotationTriple, element_cap: int = 2 ** 14) -> CosetGeometry:
    """Coset geometry on the canonical stabilizers S_0..S_3.

    The caller is expected to have verified the intersection condition, so
    that the construction yields a polytope; verify_axioms independently
    validates the outcome rather than trusting it.
    """
    return coset_geometry_from_subgroups(
        t, stabilizer_generators(t.sigma), element_cap)


def _flags(geom: CosetGeometry) -> list[tuple[int, int, int, int]]:
    above = geom.above
    n = geom.face_counts()
    flags = []
    for f0 in range(n[0]):
        m01 = above[(0, 1)][f0]
        m02 = above[(0, 2)][f0]
        m03 = above[(0, 3)][f0]
        rest1 = m01
        while rest1:
            f1 = (rest1 & -rest1).bit_length() - 1
            rest1 &= rest1 - 1
            m12 = above[(1, 2)][f1] & m02
            rest2 = m12
            while rest2:
                f2 = (rest2 & -rest2).bit_length() - 1
                rest2 &= rest2 - 1
                m23 = above[(2, 3)][f2] & above[(1, 3)][f1] & m03
                rest3 = m23
                while rest3:
                    f3 = (rest3 & -rest3).bit_length() - 1
                    rest3 &= rest3 - 1
                    flags.append((f0, f1, f2, f3))
    return flags


def _section_polygon_size(geom: CosetGeometry, lo: tuple[int, int] | None,
                          hi: tuple[int, int] | None, mid_rank: int) -> int:
    """Number of faces of one middle rank in a rank-2 section."""
    n = geom.face_counts()
    mask = (1 << n[mid_rank]) - 1
    if lo is not None:
        i, idx = lo
        mask &= geom.above[(i, mid_rank)][idx]
    if hi is not None:
        j, jdx = hi
        mask &= geom.below_mask(mid_rank, j, jdx)
    return mask.bit_count()


def _incident_pairs(geom: CosetGeometry, i: int, j: int):
    """Indices of incident (rank-i, rank-j) faces, formal ranks included."""
    n = geom.face_counts()
    if i == -1 and j == 4:
        yield (0, 0)
        return
    if i == -1:
        for jdx in range(n[j]):
            yield (0, jdx)
        return
    if j == 4:
        for idx in range(n[i]):
            yield (idx, 0)
        return
    col = geom.above[(i, j)]
    for idx in range(n[i]):
        m = col[idx]
        while m:
            jdx = (m & -m).bit_length() - 1
            m &= m - 1
            yield (idx, jdx)


def _middles(geom: CosetGeometry, i: int, idx: int, j: int, jdx: int,
             mid: int) -> int:
    """Bitmask of rank-``mid`` faces strictly between two incident faces."""
    n = geom.face_counts()
    mask = (1 << n[mid]) - 1
    if i != -1:
        mask &= geom.above[(i, mid)][idx]
    if j != 4:
        mask &= geom.below_mask(mid, j, jdx)
    return mask


def _section_flags_connected(geom: CosetGeometry, i: int, idx: int,
                             j: int, jdx: int) -> bool:
    """Strong flag-connectivity for one section of rank >= 2."""
    mids = list(range(i + 1, j))
    choices = [_middles(geom, i, idx, j, jdx, m) for m in mids]
    if any(c == 0 for c in choices):
        return False
    # enumerate section flags as tuples of face indices per middle rank
    flags: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], level: int):
        if level == len(mids):
            flags.append(prefix)
            return
        m = choices[level]
        if level > 0:
            # comparability with every already chosen lower face
            for k in range(level):
                m &= geom.above[(mids[k], mids[level])][prefix[k]]
        rest = m
        while rest:
            f = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            grow(prefix + (f,), level + 1)

    grow((), 0)
    if len(flags) <= 1:
        return True
    pos = {f: k for k, f in enumerate(flags)}
    # adjacency: flags differing in exactly one middle face
    adj: list[list[int]] = [[] for _ in flags]
    for axis in range(len(mids)):
        groups: dict[tuple[int, ...], list[int]] = {}
        for f, k in pos.items():
            key = f[:axis] + f[axis + 1:]
            groups.setdefault(key, []).append(k)
        for members in groups.values():
            for x in members:
                for y in members:
                    if x != y:
                        adj[x].append(y)
    seen = [False] * len(flags)
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == len(flags)


def verify_axioms(geom: CosetGeometry) -> AxiomReport:
    """Exhaustively check the four polytope axioms on the geometry.

    Failures are recorded in the report, never raised.  The flag count is
    the number of maximal chains through all ranks.
    """
    n = geom.face_counts()
    p1_ok = all(c > 0 for c in n)  # formal faces exist by construction

    # P2: between any incident pair there are faces at every middle rank,
    # so every maximal chain passes through every rank.
    p2_ok = True
    for i in range(-1, 4):
        for j in range(i + 2, 5):
            for idx, jdx in _incident_pairs(geom, i, j):
                for mid in range(i + 1, j):
                    if _middles(geom, i, idx, j, jdx, mid) == 0:
                        p2_ok = False
                        break
                if not p2_ok:
                    break
            if not p2_ok:
                break
        if not p2_ok:
            break

    # P4: the diamond condition on every rank-1 section
    p4_ok = True
    for i in range(-1, 3):
        j = i + 2
        for idx, jdx in _incident_pairs(geom, i, j):
            if _middles(geom, i, idx, j, jdx, i + 1).bit_count() != 2:
                p4_ok = False
                break
        if not p4_ok:
            break

    # P3: strong flag-connectivity of every section of rank >= 2
    p3_ok = True
    for i in range(-1, 2):
        for j in range(i + 3, 5):
            for idx, jdx in _incident_pairs(geom, i, j):
                if not _section_flags_connected(geom, i, idx, j, jdx):
                    p3_ok = False
                    break
            if not p3_ok:
                break
        if not p3_ok:
            break

    flag_count = len(_flags(geom))

    # equivelarity across all 2-sections, giving the Schlafli type:
    # entry ``pos`` measures sections between (pos-1)-faces and (pos+2)-faces,
    # whose middle ranks are pos and pos+1; a polygon has equal counts at both.
    schlafli = []
    equivelar = True
    for pos in range(3):
        lo_rank, hi_rank = pos - 1, pos + 2
        sizes = set()
        for idx, jdx in _incident_pairs(geom, lo_rank, hi_rank):
            lo = None if lo_rank == -1 else (lo_rank, idx)
            hi = None if hi_rank == 4 else (hi_rank, jdx)
            sizes.add(_section_polygon_size(geom, lo, hi, pos))
            sizes.add(_section_polygon_size(geom, lo, hi, pos + 1))
        if len(sizes) != 1:
            equivelar = False
            schlafli.append(0)
        else:
            schlafli.append(sizes.pop())

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


def section_type(geom: CosetGeometry) -> tuple[tuple[int, int], tuple[int, int]]:
    """Schlafli types of the facet sections and the vertex-figure sections.

    Measured from 2-section polygon sizes inside the rank-3 sections; raises
    if the sections are not equivelar.
    """
    n = geom.face_counts()
    facet_types = set()
    for f3 in range(n[3]):
        k1s, k2s = set(), set()
        for f2 in range(n[2]):
            if geom.above[(2, 3)][f2] & (1 << f3):
                k1s.add(_section_polygon_size(geom, None, (2, f2), 0))
        for idx, jdx in _incident_pairs(geom, 0, 3):
            if jdx == f3:
                k2s.add(_section_polygon_size(geom, (0, idx), (3, f3), 1))
        if len(k1s) != 1 or len(k2s) != 1:
            raise ValueError("facet sections are not equivelar")
        facet_types.add((k1s.pop(), k2s.pop()))
    vertex_types = set()
    for f0 in range(n[0]):
        k2s, k3s = set(), set()
        for idx, jdx in _incident_pairs(geom, 0, 3):
            if idx == f0:
                k2s.add(_section_polygon_size(geom, (0, f0), (3, jdx), 1))
        for f1 in range(n[1]):
            if geom.above[(0, 1)][f0] & (1 << f1):
                k3s.add(_section_polygon_size(geom, (1, f1), None, 2))
        if len(k2s) != 1 or len(k3s) != 1:
            raise ValueError("vertex-figure sections are not equivelar")
        vertex_types.add((k2s.pop(), k3s.pop()))
    if len(facet_types) != 1 or len(vertex_types) != 1:
        raise ValueError("sections of one rank have differing types")
    return facet_types.pop(), vertex_types.pop()
