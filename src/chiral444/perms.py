"""Permutations, and permutation groups held as regular actions.

Points are 0-based internally; ``from_cycles`` and the cycle notation used
by ``str()`` are 1-based to match the usual written convention.  The action
convention is fixed once, here: products act left to right, ``(p * q)(x) =
q(p(x))``, matching the order in which coset tables trace words.

A ``PermGroup`` is handled through its right-regular action on element ids,
and each subgroup as the orbit of id 0 (the identity) under its generators:
in a regular action the orbit of a point is in bijection with the group, so
order and membership are orbit bookkeeping, and no stabilizer chain is
built.  ``orbit`` is the one BFS behind every orbit.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .words import Presentation, Word

_ARANGES: dict[int, np.ndarray] = {}


def _arange(n: int) -> np.ndarray:
    a = _ARANGES.get(n)
    if a is None:
        a = np.arange(n, dtype=np.int32)
        a.setflags(write=False)
        _ARANGES[n] = a
    return a


class Permutation:
    """A bijection of {0..degree-1}, stored as an image array."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        arr = np.array(images, dtype=np.int32)
        if arr.ndim != 1:
            raise ValueError("images must be a one-dimensional sequence")
        n = arr.shape[0]
        if n == 0:
            raise ValueError("degree must be positive")
        if arr.min() < 0:
            raise ValueError("images is not a bijection of {0..degree-1}")
        counts = np.bincount(arr, minlength=n)
        if counts.shape[0] != n or counts.max() != 1:
            raise ValueError("images is not a bijection of {0..degree-1}")
        arr.setflags(write=False)
        self.images = arr
        self._hash = None

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "Permutation":
        self = object.__new__(cls)
        arr.setflags(write=False)
        self.images = arr
        self._hash = None
        return self

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._trusted(_arange(degree).copy())

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> "Permutation":
        """Build from disjoint cycles of 1-based points, e.g. (1, 2)."""
        images = np.arange(degree, dtype=np.int32)
        seen: set[int] = set()
        for cyc in cycles:
            pts = [c - 1 for c in cyc]
            for c in pts:
                if not (0 <= c < degree):
                    raise ValueError(f"point {c + 1} outside 1..{degree}")
                if c in seen:
                    raise ValueError(f"point {c + 1} repeated across cycles")
                seen.add(c)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        return cls._trusted(images)

    @property
    def degree(self) -> int:
        return self.images.shape[0]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.images.shape[0] != other.images.shape[0]:
            raise ValueError("degree mismatch")
        return Permutation._trusted(other.images[self.images])

    def inverse(self) -> "Permutation":
        n = self.images.shape[0]
        inv = np.empty(n, dtype=np.int32)
        inv[self.images] = _arange(n)
        return Permutation._trusted(inv)

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Permutation.identity(self.degree) if result is None else result

    def is_identity(self) -> bool:
        return bool((self.images == _arange(self.degree)).all())

    def order(self) -> int:
        """Least n >= 1 with p**n the identity: the lcm of the cycle lengths.

        First point 0's cycle is walked for at most 64 steps.  If it closes
        after L steps and p**L, taken by repeated squaring, is the identity,
        the order is L: it divides L and is a multiple of that cycle's length.
        On a regular action every cycle has one length, so this settles every
        element of order at most 64 of the groups here in a few compositions.

        Otherwise each point is labelled with the smallest point of its cycle
        by pointer doubling: after round j, ``lab[x]`` is the least of x,
        p(x), ..., p^(2^j - 1)(x) and ``q`` is p^(2^j).  When a round changes
        no label, every label is its cycle's minimum (along x, q(x), q(q(x)),
        ... the labels cannot rise without coming back down), so the rounds
        number about log2 of the longest cycle, each a numpy pass over the
        points.  The cycle lengths are the label counts.
        """
        img = self.images
        x, length = int(img[0]), 1
        while x != 0 and length < 64:
            x, length = int(img[x]), length + 1
        if x == 0 and (self ** length).is_identity():
            return length
        lab = _arange(self.degree)
        q = img
        while True:
            new = np.minimum(lab, lab[q])
            if np.array_equal(new, lab):
                break
            lab, q = new, q[q]
        lengths = np.bincount(lab)
        return math.lcm(*np.unique(lengths[lengths > 0]).tolist())

    def moved_point(self) -> int | None:
        """Smallest 0-based point moved, or None for the identity."""
        diff = np.nonzero(self.images != _arange(self.degree))[0]
        return int(diff[0]) if diff.size else None

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles as tuples of 1-based points."""
        img = self.images
        n = img.shape[0]
        seen = [False] * n
        out = []
        for i in range(n):
            if seen[i] or img[i] == i:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j + 1)
                j = int(img[j])
            out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.images, other.images)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.images.tobytes())
        return self._hash

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}] {self}"


def _product(factors: Sequence[Permutation]) -> Permutation:
    acc = factors[0]
    for f in factors[1:]:
        acc = acc * f
    return acc


def perm_commutator(p: Permutation, q: Permutation) -> Permutation:
    return p.inverse() * q.inverse() * p * q


def evaluate(w: Word, images: Sequence[Permutation]) -> Permutation:
    """Product of generator images along w, left to right.

    A word that is a power u^k of a shorter word, such as a family relator
    (u)^(4m), is taken as the k-th power of the product along its shortest
    root u, so that it costs O(log k) compositions.
    """
    if not images:
        raise ValueError("need at least one generator image")
    degree = images[0].degree
    for p in images:
        if p.degree != degree:
            raise ValueError("degree mismatch among images")
    letters = w.letters
    n = len(letters)
    root = next((r for r in range(1, n // 2 + 1)
                 if n % r == 0 and letters[:r] * (n // r) == letters), n)
    inv_cache: dict[int, Permutation] = {}
    acc = Permutation.identity(degree)
    for x in letters[:root]:
        i = abs(x) - 1
        if i >= len(images):
            raise ValueError(f"word uses generator index {i} with only {len(images)} images")
        if x > 0:
            acc = acc * images[i]
        else:
            p = inv_cache.get(i)
            if p is None:
                p = images[i].inverse()
                inv_cache[i] = p
            acc = acc * p
    return acc ** (n // root) if root < n else acc


def extends_to_homomorphism(pres: Presentation, images: Sequence[Permutation]) -> bool:
    """True iff every relator evaluates to the identity at the images.

    For a finite group with images that generate it, this also certifies an
    automorphism: a surjective endomorphism of a finite group is bijective.
    """
    if len(images) != pres.ngens:
        raise ValueError("one image per generator required")
    return all(evaluate(r, images).is_identity() for r in pres.relators)


# the most entries (elements x degree) that closing a group up explicitly may hold
_CLOSURE_CAP = 2 ** 20

_UNSET = object()  # a cached value not computed yet


class Orbit(NamedTuple):
    """The orbit of point 0 with its BFS tree; ``parent`` and ``via`` are -1
    at point 0 and off the orbit."""

    order: np.ndarray   # the orbit's points, in the order the BFS reaches them
    mask: np.ndarray    # whether each point is in the orbit
    parent: np.ndarray  # the point each point is reached from
    via: np.ndarray     # the index of the map that reaches it


def orbit(maps: Sequence, n: int) -> Orbit:
    """The orbit of point 0 under the maps ``maps`` on 0..n-1.

    A map is an image array, or anything indexed like one: ``mp[ks]`` gives
    the images of the points ks.  Only the BFS frontiers are ever looked up,
    so a map that computes its images on demand costs O(orbit) rather than
    O(n).  Points come in the order of a queue BFS: by the position of the
    point they are reached from, then by map index.  Each frontier is
    expanded at once: its images, raveled parent-major, keep the first
    occurrence of each new point, found by a scatter-minimum of positions
    rather than a sort.  That is a few numpy passes per BFS layer, so an
    orbit with many layers and few points in each, such as a long cycle, is
    slow.
    """
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    parent = np.full(n, -1, dtype=np.int64)
    via = np.full(n, -1, dtype=np.int64)
    # the first position in its layer's images at which a point is reached;
    # read only while the point is new, so it is never reset
    first_at = np.full(n, np.iinfo(np.int64).max)
    layers = [np.zeros(1, dtype=np.int64)]
    k = len(maps)
    while k and layers[-1].size:
        frontier = layers[-1]
        reached = np.stack([mp[frontier] for mp in maps], axis=1).ravel()
        fresh = np.flatnonzero(~mask[reached])
        cand = reached[fresh]
        np.minimum.at(first_at, cand, fresh)
        first = fresh[first_at[cand] == fresh]
        new = reached[first].astype(np.int64)
        mask[new] = True
        parent[new] = frontier[first // k]
        via[new] = first % k
        layers.append(new)
    return Orbit(np.concatenate(layers), mask, parent, via)


class _RegularAction:
    """A group's right-regular action on its element ids 0..n-1.

    Either the group acts regularly on its points and element k is the one
    sending point 0 to ``pts[k]``, or ``rows[k]`` is the image array of
    element k and ``index`` finds an id from an image array.
    """

    def __init__(self, pts: np.ndarray | None = None, rows: np.ndarray | None = None,
                 index: dict[bytes, int] | None = None):
        self.pts, self.rows, self.index = pts, rows, index
        if pts is not None:
            self.n = pts.shape[0]
            self.ids = np.empty_like(pts)
            self.ids[pts] = np.arange(self.n)
        else:
            self.n = rows.shape[0]

    def locate(self, factors: Sequence[Permutation]) -> int | None:
        """The id of the product of ``factors`` when it is in the group.  On a
        regular action this is the id of the only element that can equal the
        product, even when it is not one, and it is found by following point
        0 through the factors, without forming the product."""
        if self.pts is not None:
            x = 0
            for f in factors:
                x = f.images[x]
            return int(self.ids[x])
        return self.index.get(_product(factors).images.tobytes())

    def right_action(self, p: Permutation, ks: np.ndarray | None = None) -> np.ndarray:
        """The map k -> id of (element k) * p, for an element p of the group,
        on the ids ``ks`` (on every id when None)."""
        if self.pts is not None:
            return self.ids[p.images[self.pts if ks is None else self.pts[ks]]]
        rows = self.rows if ks is None else self.rows[ks]
        try:
            return np.array([self.index[r.tobytes()] for r in p.images[rows]],
                            dtype=np.int64)
        except KeyError:
            raise ValueError("the permutation is not in the group") from None


class _IdMap:
    """``right_action(p)`` as an ``orbit`` map, computed on each frontier
    only, so that a subgroup's orbit costs O(|subgroup|), not O(|group|)."""

    __slots__ = ("act", "p")

    def __init__(self, act: _RegularAction, p: Permutation):
        self.act, self.p = act, p

    def __getitem__(self, ks: np.ndarray) -> np.ndarray:
        return self.act.right_action(self.p, ks)


def _regular_from_points(pts: Orbit) -> tuple[_RegularAction, Orbit]:
    """The regular action of a group whose generators' orbit ``pts`` of point
    0 covers every point and has as many points as the group has elements,
    and the orbit of id 0 under the generators."""
    degree = pts.order.shape[0]
    act = _RegularAction(pts=pts.order)
    parent = pts.parent[pts.order]
    parent[1:] = act.ids[parent[1:]]
    return act, Orbit(np.arange(degree), np.ones(degree, dtype=bool),
                      parent, pts.via[pts.order])


def _closure_action(gens: Sequence[Permutation], degree: int,
                    known_order: int | None) -> tuple[_RegularAction, Orbit]:
    """The regular action of the group generated by ``gens``, closed up
    element by element, and the orbit of id 0 under the generators."""
    rows: list[np.ndarray] = []
    index: dict[bytes, int] = {}
    parent: list[int] = []
    via: list[int] = []

    def add(img: np.ndarray, k: int, gi: int):
        if len(rows) == known_order:
            raise RuntimeError("the group has more elements than its "
                               "externally verified order")
        if (len(rows) + 1) * degree > _CLOSURE_CAP:
            raise ValueError(f"closing the group up needs more than {_CLOSURE_CAP} "
                             f"entries (elements x degree)")
        index[img.tobytes()] = len(rows)
        rows.append(img)
        parent.append(k)
        via.append(gi)

    add(_arange(degree), -1, -1)
    for k, row in enumerate(rows):  # a queue: rows grows as it is walked
        for gi, g in enumerate(gens):
            img = g.images[row]
            if img.tobytes() not in index:
                add(img, k, gi)
    n = len(rows)
    return (_RegularAction(rows=np.stack(rows), index=index),
            Orbit(np.arange(n), np.ones(n, dtype=bool),
                  np.array(parent, dtype=np.int64), np.array(via, dtype=np.int64)))


class PermGroup:
    """A finite permutation group, handled through its right-regular action.

    The elements are numbered 0..|G|-1 in the order of ``elements()``, id 0
    being the identity, and each generator acts on the ids by right
    multiplication.  Every handle on the group, its own and each
    ``subgroup()``, holds the orbit of id 0 under its generators as numpy
    arrays, a mask over the ids and the BFS tree: the order is the orbit's
    size, membership one lookup in the mask.  A subgroup's BFS evaluates its
    generators' id maps on each frontier only.

    The regular action is built on the first query, in one of two ways:

    - ``known_order`` equals the degree and the generators act transitively:
      ``known_order`` is taken as an externally verified order, so the given
      action is regular, and element k is the one sending point 0 to the
      k-th point that a BFS from point 0 reaches; that BFS is the one
      ``is_transitive()`` runs, and it runs once;
    - otherwise the elements are closed up explicitly as image arrays, in BFS
      order from the identity.  This raises ValueError rather than hold more
      than 2**20 entries (elements x degree), and RuntimeError when the group
      has more elements than ``known_order``.
    """

    def __init__(self, generators: Iterable[Permutation], degree: int | None = None,
                 known_order: int | None = None):
        gens = []
        seen = set()
        for g in generators:
            if not g.is_identity() and g not in seen:
                seen.add(g)
                gens.append(g)
        if gens:
            degree = gens[0].degree
            for g in gens:
                if g.degree != degree:
                    raise ValueError("generators must share a degree")
        elif degree is None:
            raise ValueError("degree required for a group with no generators")
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.degree = degree
        self._known_order = known_order
        self._action: _RegularAction | None = None
        self._orbit: Orbit | None = None
        self._transitive: bool | None = None
        self._derived_length: int | None | object = _UNSET

    def _built(self) -> Orbit:
        if self._orbit is None:
            if self._action is not None:
                self._orbit = orbit([_IdMap(self._action, g) for g in self.generators],
                                    self._action.n)
            elif not (self._known_order == self.degree and self.is_transitive()):
                self._action, self._orbit = _closure_action(
                    self.generators, self.degree, self._known_order)
        return self._orbit

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        return int(self._built().order.shape[0])

    def is_trivial(self) -> bool:
        return not self.generators

    def is_transitive(self) -> bool:
        """Whether the generators act transitively on the points.  For a group
        given with ``known_order`` equal to the degree, the BFS that decides
        it also builds the regular action."""
        if self._transitive is None:
            pts = orbit([g.images for g in self.generators], self.degree)
            self._transitive = pts.order.shape[0] == self.degree
            if self._transitive and self._action is None and self._known_order == self.degree:
                self._action, self._orbit = _regular_from_points(pts)
        return self._transitive

    def is_regular(self) -> bool:
        """Regular action: transitive on the points, with trivial point
        stabilizers."""
        return self.order() == self.degree and self.is_transitive()

    def subgroup(self, generators: Iterable[Permutation]) -> "PermGroup":
        """The subgroup generated by ``generators``, which must be elements of
        this group, as a handle on the same action."""
        self._built()
        h = PermGroup(generators, degree=self.degree)
        if h.degree != self.degree:
            raise ValueError("degree mismatch")
        h._action = self._action
        return h

    def intersection_order(self, other: "PermGroup") -> int:
        """The order of the intersection of two handles on the same action."""
        mask, other_mask = self._built().mask, other._built().mask
        if self._action is not other._action:
            raise ValueError("the two groups are not on the same action")
        return int(np.count_nonzero(mask & other_mask))

    def right_action(self, p: Permutation) -> np.ndarray:
        """Right multiplication by an element p of the group, as the map
        k -> id of (element k) * p on the ids of the whole group's
        ``elements()``."""
        self._built()
        return self._action.right_action(p)

    def contains(self, p: Permutation) -> bool:
        """Exact membership, for any permutation of the group's degree."""
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        orb = self._built()
        k = self._action.locate((p,))
        return k is not None and bool(orb.mask[k]) and self._element(k) == p

    def _element(self, k: int) -> Permutation:
        """The element of id k, spelt along the BFS tree."""
        path = []
        while k:
            path.append(int(self._orbit.via[k]))
            k = int(self._orbit.parent[k])
        acc = Permutation.identity(self.degree)
        for gi in reversed(path):
            acc = acc * self.generators[gi]
        return acc

    def elements(self, cap: int | None = None) -> list[Permutation]:
        """All elements, in BFS order from the identity; guarded by ``cap``."""
        orb = self._built()
        if cap is not None and orb.order.shape[0] > cap:
            raise ValueError(f"group order {orb.order.shape[0]} exceeds cap {cap}")
        rest = orb.order[1:]
        elems = {0: Permutation.identity(self.degree)}
        for k, parent, gi in zip(rest.tolist(), orb.parent[rest].tolist(),
                                 orb.via[rest].tolist()):
            elems[k] = elems[parent] * self.generators[gi]
        return list(elems.values())

    # -- derived structure ---------------------------------------------------

    def derived_subgroup(self) -> "PermGroup":
        """Normal closure of generator commutators within this group."""
        gens = self.generators
        inv = [g.inverse() for g in gens]
        return self._normal_closure([(inv[i], inv[j], a, b) for i, a in enumerate(gens)
                                     for j, b in enumerate(gens) if i < j], inv)

    def _normal_closure(self, seeds: Sequence[Sequence[Permutation]],
                        inv: Sequence[Permutation]) -> "PermGroup":
        """The smallest subgroup that contains the products of the factor
        tuples ``seeds`` and is normalized by this group's generators, whose
        inverses are ``inv``.  A product lies in it iff its id is in its
        mask, so a product is formed only when it joins the generators."""
        closure = self.subgroup(())
        queue = list(seeds)
        for factors in queue:  # a queue: the conjugates of each new generator join it
            if closure._built().mask[self._action.locate(factors)]:
                continue
            s = _product(factors)
            closure = self.subgroup(closure.generators + (s,))
            queue.extend((ginv, s, g) for ginv, g in zip(inv, self.generators))
        return closure

    def derived_series(self) -> list["PermGroup"]:
        """Successive derived subgroups until trivial or stable."""
        series: list[PermGroup] = []
        cur = self
        while True:
            nxt = cur.derived_subgroup()
            if nxt.order() == cur.order():
                if not series:
                    series.append(nxt)
                break
            series.append(nxt)
            if nxt.order() == 1:
                break
            cur = nxt
        return series

    def is_solvable(self) -> bool:
        return self.derived_length() is not None

    def derived_length(self) -> int | None:
        """Smallest n with the n-th derived subgroup trivial, else None.
        The derived series behind it is built once per handle."""
        if self._derived_length is _UNSET:
            if self.order() == 1:
                self._derived_length = 0
            else:
                series = self.derived_series()
                self._derived_length = len(series) if series[-1].order() == 1 else None
        return self._derived_length
