"""The coset geometry and the axiom suite against a brute-force checker.

The checker below is written from the definitions alone: faces are
frozensets of element ids (left cosets gS), two faces are incident when they
meet, flags are chains grown with itertools, and strong flag-connectivity is
a BFS over flags that differ in one face.  It shares no code with
``chiral444.polytope`` beyond the group handle.
"""

import itertools
import random
from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from chiral444.families import member_triple
from chiral444.perms import Permutation
from chiral444.polytope import (CosetGeometry, _between, _chains,
                                _connected_classes, _flag_graph, _orbit_labels,
                                coset_geometry_from_subgroups, section_type,
                                stabilizer_generators, verify_axioms)
from test_polytope import simplex_triple

RANKS = range(-1, 5)
P3_CLASSES = ((-1, 2), (-1, 3), (-1, 4), (0, 3), (0, 4), (1, 4))
# (i, mid, j) for every incident pair's rank i < j - 1 and each rank between
TRIPLES = [(i, mid, j) for i in RANKS for j in RANKS if j >= i + 2
           for mid in range(i + 1, j)]


class Oracle:
    """A ranked incidence structure given by explicit pairs; the formal
    faces of ranks -1 and 4 are single faces incident to every face."""

    def __init__(self, nfaces, pairs):
        self.n = {-1: 1, 4: 1, **dict(enumerate(nfaces))}
        # (i, a, j) -> the rank-j faces incident to face a of rank i
        self.nb = {(i, a, j): frozenset(range(self.n[j]))
                   for i in RANKS for j in RANKS if i != j for a in range(self.n[i])}
        for (i, j), ps in pairs.items():  # 0 <= i < j <= 3
            for a in range(self.n[i]):
                self.nb[(i, a, j)] = frozenset(b for x, b in ps if x == a)
            for b in range(self.n[j]):
                self.nb[(j, b, i)] = frozenset(a for a, y in ps if y == b)

    def incident(self, i, a, j, b):
        return b in self.nb[(i, a, j)]

    def chains(self, ranks, fixed=()):
        """Chains with one face per rank, each incident to the ``fixed``
        (rank, face) pairs and to one another."""
        out = [()]
        for k, r in enumerate(ranks):
            grown = []
            for c in out:
                faces = set(range(self.n[r]))
                for rx, x in tuple(fixed) + tuple(zip(ranks, c)):
                    faces &= self.nb[(rx, x, r)]
                grown.extend(c + (f,) for f in sorted(faces))
            out = grown
        return out

    def between(self, i, a, j, b, mid):
        return len(self.chains((mid,), ((i, a), (j, b))))

    def incident_pairs(self, i, j):
        return [(a, b) for a, b in itertools.product(range(self.n[i]), range(self.n[j]))
                if self.incident(i, a, j, b)]

    def section_connected(self, i, a, j, b):
        mids = tuple(range(i + 1, j))
        if any(not self.chains((m,), ((i, a), (j, b))) for m in mids):
            return False
        flags = self.chains(mids, ((i, a), (j, b)))
        if len(flags) <= 1:
            return True
        buckets = {}
        for f in flags:
            for t in range(len(mids)):
                buckets.setdefault((t, f[:t] + f[t + 1:]), []).append(f)
        seen = {flags[0]}
        todo = deque([flags[0]])
        while todo:
            f = todo.popleft()
            for t in range(len(mids)):
                for g in buckets[(t, f[:t] + f[t + 1:])]:
                    if g not in seen:
                        seen.add(g)
                        todo.append(g)
        return len(seen) == len(flags)

    def axioms(self):
        p1 = all(self.n[r] > 0 for r in range(4))
        p2 = all(self.between(i, a, j, b, mid) > 0
                 for i in RANKS for j in RANKS if j >= i + 2
                 for a, b in self.incident_pairs(i, j) for mid in range(i + 1, j))
        p4 = all(self.between(i, a, i + 2, b, i + 1) == 2
                 for i in range(-1, 3) for a, b in self.incident_pairs(i, i + 2))
        p3 = all(self.section_connected(i, a, j, b)
                 for i in RANKS for j in RANKS if j >= i + 3
                 for a, b in self.incident_pairs(i, j))
        schlafli = []
        for pos in range(3):
            sizes = {self.between(pos - 1, a, pos + 2, b, mid)
                     for a, b in self.incident_pairs(pos - 1, pos + 2)
                     for mid in (pos, pos + 1)}
            schlafli.append(sizes.pop() if len(sizes) == 1 else None)
        equivelar = None not in schlafli
        return {"p1": p1, "p2": p2, "p3": p3, "p4": p4, "equivelar": equivelar,
                "flags": len(self.chains((0, 1, 2, 3))),
                "schlafli": tuple(schlafli) if equivelar else None}

    def section_type(self):
        facet_types = set()
        for f3 in range(self.n[3]):
            k1 = {self.between(-1, 0, 2, f2, 0) for f2 in range(self.n[2])
                  if self.incident(2, f2, 3, f3)}
            k2 = {self.between(0, v, 3, f3, 1) for v in range(self.n[0])
                  if self.incident(0, v, 3, f3)}
            if len(k1) != 1 or len(k2) != 1:
                raise ValueError("facet sections are not equivelar")
            facet_types.add((k1.pop(), k2.pop()))
        vertex_types = set()
        for f0 in range(self.n[0]):
            k2 = {self.between(0, f0, 3, f3, 1) for f3 in range(self.n[3])
                  if self.incident(0, f0, 3, f3)}
            k3 = {self.between(1, e, 4, 0, 2) for e in range(self.n[1])
                  if self.incident(0, f0, 1, e)}
            if len(k2) != 1 or len(k3) != 1:
                raise ValueError("vertex-figure sections are not equivelar")
            vertex_types.add((k2.pop(), k3.pop()))
        if len(facet_types) != 1 or len(vertex_types) != 1:
            raise ValueError("sections of one rank have differing types")
        return facet_types.pop(), vertex_types.pop()

    def dump(self):
        lines = ["-1 0 : " + " ".join(map(str, range(self.n[0])))]
        for i in range(3):
            for a in range(self.n[i]):
                ups = [b for b in range(self.n[i + 1]) if self.incident(i, a, i + 1, b)]
                lines.append(f"{i} {a} : " + " ".join(map(str, ups)))
        lines += [f"3 {a} : 0" for a in range(self.n[3])]
        lines.append("4 0 :")
        return "\n".join(lines) + "\n"


def coset_oracle(group, subgroup_gens):
    """Left cosets gS as frozensets of ids of ``group.elements()``, numbered
    per rank by their smallest id; returns the oracle and the |S_i|."""
    elements = group.elements()
    index = {e: k for k, e in enumerate(elements)}
    faces, orders = [], []
    for gens in subgroup_gens:
        sub = {Permutation.identity(group.degree)}
        frontier = list(sub)
        while frontier:
            frontier = [x * s for x in frontier for s in gens]
            frontier = [x for x in frontier if x not in sub]
            sub.update(frontier)
        cosets, seen = [], set()
        for k, e in enumerate(elements):
            if k not in seen:
                cosets.append(frozenset(index[e * s] for s in sub))
                seen |= cosets[-1]
        faces.append(sorted(cosets, key=min))
        orders.append(len(sub))
    pairs = {(i, j): {(a, b) for a, fa in enumerate(faces[i])
                      for b, fb in enumerate(faces[j]) if not fa.isdisjoint(fb)}
             for i in range(4) for j in range(i + 1, 4)}
    return Oracle([len(f) for f in faces], pairs), tuple(orders)


def sections_of(geom):
    try:
        return section_type(geom)
    except ValueError as exc:
        return str(exc)


def fresh(geom):
    """The same geometry with no counts kept on it yet."""
    return CosetGeometry(geom.triple, geom.group_order, geom.subgroup_orders,
                         geom.nfaces, geom.incidence)


def observed(geom):
    """The axiom report and section types of ``geom``, checked to be the
    same when ``section_type`` runs before ``verify_axioms`` as after it."""
    cold = fresh(geom)
    cold_sections = sections_of(cold)
    rpt = verify_axioms(geom)
    sections = sections_of(geom)
    assert cold_sections == sections
    assert verify_axioms(cold) == rpt
    return ({"p1": rpt.p1_ok, "p2": rpt.p2_ok, "p3": rpt.p3_ok, "p4": rpt.p4_ok,
             "equivelar": rpt.equivelar, "flags": rpt.flag_count,
             "schlafli": rpt.schlafli}, sections)


def check_between(geom, oracle):
    """Each of the 20 kinds of count, pair by pair against the oracle; the
    counts ``_between`` keeps on the geometry are read-only."""
    for i, mid, j in TRIPLES:
        counts = _between(geom, i, mid, j)
        assert counts.tolist() == [oracle.between(i, a, j, b, mid)
                                   for a, b in oracle.incident_pairs(i, j)]
        assert not counts.flags.writeable
        assert geom.between[(i, mid, j)] is counts


def expected(oracle):
    try:
        sections = oracle.section_type()
    except ValueError as exc:
        sections = str(exc)
    return oracle.axioms(), sections


def check_against_oracle(triple, subgroup_gens):
    geom = coset_geometry_from_subgroups(triple, subgroup_gens)
    oracle, orders = coset_oracle(triple.group, subgroup_gens)
    assert geom.subgroup_orders == orders
    assert geom.face_counts() == tuple(oracle.n[r] for r in range(4))
    assert geom.dump() == oracle.dump()
    got = observed(geom)
    assert got == expected(oracle)
    check_between(geom, oracle)
    return got


def word_pool(sigma):
    s1, s2, s3 = sigma
    return [s1, s2, s3, s1 * s2, s2 * s3, s1 * s3, s1 * s2 * s3, s1.inverse(),
            s3 * s1 * s1, s2 * s2, s1 * s1, s1 * s2 * s2 * s3]


def test_simplex_random_stabilizers_match_oracle():
    trip = simplex_triple()
    pool = word_pool(trip.sigma)
    rng = random.Random(20191207)
    choices = [stabilizer_generators(trip.sigma)]
    choices += [[rng.sample(pool, rng.randint(0, 3)) for _ in range(4)]
                for _ in range(40)]
    outcomes = set()
    for gens in choices:
        axioms, _ = check_against_oracle(trip, gens)
        outcomes.add((axioms["p3"], axioms["p4"], axioms["equivelar"]))
    # the sample reaches P3 and P4 failures, non-equivelar geometries and
    # geometries that pass all four axioms
    assert {o[0] for o in outcomes} == {True, False}
    assert {o[1] for o in outcomes} == {True, False}
    assert {o[2] for o in outcomes} == {True, False}
    assert (True, True, True) in outcomes


def test_first_members_match_oracle():
    for family in ("P", "Q"):
        t = member_triple(family, 1)
        s1, s2, s3 = t.sigma
        canonical = stabilizer_generators(t.sigma)
        # the non-canonical choice fails P4 and is not equivelar
        choices = [canonical, [[s2, s3], [s1 * s2, s3], [s1, s3], [s1, s2]]]
        if family == "P":
            choices.append(canonical[::-1])
        for gens in choices:
            check_against_oracle(t, gens)


def structure(nfaces, pairs):
    """A geometry and the oracle on the explicit incident ``pairs`` of faces
    of ranks (i, j), 0 <= i < j <= 3."""
    keys = {ij: np.array(sorted(a * nfaces[ij[1]] + b for a, b in p), dtype=np.int64)
            for ij, p in pairs.items()}
    return CosetGeometry(None, 0, (0, 0, 0, 0), nfaces, keys), Oracle(nfaces, pairs)


def random_structure(rng):
    nfaces = tuple(rng.randint(1, 3) for _ in range(4))
    pairs = {(i, j): {(a, b) for a in range(nfaces[i]) for b in range(nfaces[j])
                      if rng.random() < 0.7}
             for i in range(4) for j in range(i + 1, 4)}
    return structure(nfaces, pairs)


def loose_structure():
    """Faces 0 of ranks 0..3 form one flag, and faces 1 are incident to no
    face of ranks 0..3: every count between a face 1 and a formal face is
    0, and a face 1 is the last of its rank, where ``bincount`` would drop
    it without its ``minlength``."""
    return structure((2, 2, 2, 2), {(i, j): {(0, 0)}
                                    for i in range(4) for j in range(i + 1, 4)})


def split_structure():
    """Vertex 0 and facet 0 bound a section whose middle ranks are not
    empty but whose two flags, (edge 0, polygon 0) and (edge 1, polygon 1),
    share no face; every other section of rank at least 2 is connected, so
    (0,3) is the one section class that fails P3."""
    return structure((2, 3, 4, 2), {
        (0, 1): {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)},
        (0, 2): {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 3)},
        (0, 3): {(0, 0), (0, 1), (1, 0)},
        (1, 2): {(0, 0), (0, 3), (1, 1), (1, 2), (1, 3), (2, 0), (2, 2)},
        (1, 3): {(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)},
        (2, 3): {(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (3, 0)}})


def test_random_incidence_structures_match_oracle():
    # a coset geometry always satisfies P2, and its group is transitive on
    # the incident pairs of two ranks, so section_type never raises on one;
    # arbitrary incidence relations reach those branches
    rng = random.Random(4)
    outcomes = set()
    for _ in range(200):
        geom, oracle = random_structure(rng)
        got = observed(geom)
        assert got == expected(oracle)
        check_between(geom, oracle)
        outcomes.add((got[0]["p2"], isinstance(got[1], str)))
    assert outcomes == {(a, b) for a in (True, False) for b in (True, False)}


def test_between_counts_match_oracle():
    # each count made on its own, before any verify_axioms; the members'
    # and the random structures' counts made by verify_axioms are checked
    # in check_against_oracle and test_random_incidence_structures_match_oracle
    rng = random.Random(4)
    structures = [random_structure(rng) for _ in range(200)]
    loose = loose_structure()
    structures += [loose, split_structure()]
    for family in ("P", "Q"):
        t = member_triple(family, 1)
        gens = stabilizer_generators(t.sigma)
        structures.append((coset_geometry_from_subgroups(t, gens),
                           coset_oracle(t.group, gens)[0]))
    for geom, oracle in structures:
        check_between(geom, oracle)
    geom, oracle = loose
    assert 0 in geom.between[(-1, 0, 3)] and 0 in geom.between[(0, 1, 4)]
    assert observed(fresh(geom)) == expected(oracle)


def flags_connected(oracle, i, a, j, b):
    """Whether the section's flags are connected, counting a section with an
    empty middle rank (which has no flags) as connected."""
    return (oracle.section_connected(i, a, j, b)
            or any(not oracle.chains((mid,), ((i, a), (j, b))) for mid in range(i + 1, j)))


def test_p3_section_classes_match_oracle():
    # each class's verdict on its own, and for each class a structure whose
    # only sections failing P3 lie in that class
    # the random structures' one failing (0,3) has an empty middle rank, so
    # the hand-built split structure comes first to be the (0,3) case
    rng = random.Random(7)
    isolated = {}
    structures = [split_structure()] + [random_structure(rng) for _ in range(100)]
    for geom, oracle in structures:
        connected = {(i, j): all(flags_connected(oracle, i, a, j, b)
                                 for a, b in oracle.incident_pairs(i, j))
                     for i, j in P3_CLASSES}
        classes = _connected_classes(geom, _chains(geom, (0, 1, 2)),
                                     _chains(geom, (1, 2, 3)),
                                     _chains(geom, (0, 1, 2, 3)))
        assert dict(classes) == connected
        failing = [(i, j) for i, j in P3_CLASSES
                   if not all(oracle.section_connected(i, a, j, b)
                              for a, b in oracle.incident_pairs(i, j))]
        if len(failing) == 1:
            isolated.setdefault(failing[0], (geom, oracle))
    assert set(isolated) == set(P3_CLASSES)
    for geom, oracle in isolated.values():
        got = observed(geom)
        assert got[0]["p3"] is False
        assert got == expected(oracle)


def union_find_minima(n, pairs):
    """The least index of each index's component of the graph on 0..n-1
    with edges ``pairs``, by union-find that hangs the larger root under
    the smaller, so that every root is its component's least index."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n)]


@st.composite
def permutation_sets(draw):
    n = draw(st.integers(0, 40))
    maps = draw(st.lists(st.permutations(range(n)), max_size=4))
    return n, maps


@settings(max_examples=200, deadline=None)
@given(permutation_sets())
def test_orbit_labels_are_union_find_minima(case):
    n, maps = case
    pairs = [(k, r[k]) for r in maps for k in range(n)]
    got = _orbit_labels(n, [np.array(r, dtype=np.int64) for r in maps])
    assert got.tolist() == union_find_minima(n, pairs)


@st.composite
def chain_tables(draw):
    """A table of rows, one column per rank, sorted as ``_chains`` emits
    them (rows that agree off the last column are contiguous), with the
    ranks whose groupings join the rows."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    rows = draw(st.lists(st.tuples(*[st.integers(0, s - 1) for s in sizes]), max_size=40))
    mids = draw(st.sets(st.sampled_from(range(len(sizes)))))
    return sizes, sorted(rows), mids


@settings(max_examples=200, deadline=None)
@given(chain_tables())
def test_flag_graph_components_are_union_find_minima(case):
    # two rows are adjacent when they agree off one of the ranks ``mids``
    sizes, rows, mids = case
    ranks = tuple(range(len(sizes)))
    table = np.array(rows, dtype=np.int64).reshape(len(rows), len(sizes))
    pairs = [(a, b) for a, b in itertools.combinations(range(len(rows)), 2)
             for t in mids
             if rows[a][:t] + rows[a][t + 1:] == rows[b][:t] + rows[b][t + 1:]]
    got = _orbit_labels(len(rows), _flag_graph(table, ranks, sizes, mids))
    assert got.tolist() == union_find_minima(len(rows), pairs)
