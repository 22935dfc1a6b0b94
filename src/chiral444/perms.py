"""Permutations and stabilizer-chain permutation groups.

Points are 0-based internally; ``from_cycles`` and the cycle notation used
by ``str()`` are 1-based to match the usual written convention.  The action
convention is fixed once, here: products act left to right, ``(p * q)(x) =
q(p(x))``, matching the order in which coset tables trace words.

A group whose ambient action is known to be regular (free) carries a flag
that reduces order and membership queries to orbit bookkeeping on a single
base point; the flag is only ever set from a verified ``order == degree``
transitive chain and is inherited by subgroups.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return bool((self.images == _arange(self.degree)).all())

    def order(self) -> int:
        """Least n >= 1 with p**n the identity (lcm of cycle lengths)."""
        img = self.images
        n = img.shape[0]
        seen = np.zeros(n, dtype=bool)
        result = 1
        for i in range(n):
            if seen[i] or img[i] == i:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = img[j]
                length += 1
            result = math.lcm(result, length)
        return result

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


def compose(p: Permutation, q: Permutation) -> Permutation:
    """First p, then q (left-to-right action)."""
    return p * q


def element_order(p: Permutation) -> int:
    return p.order()


def perm_commutator(p: Permutation, q: Permutation) -> Permutation:
    return p.inverse() * q.inverse() * p * q


def evaluate(w: Word, images: Sequence[Permutation]) -> Permutation:
    """Product of generator images along w, left to right."""
    if not images:
        raise ValueError("need at least one generator image")
    degree = images[0].degree
    for p in images:
        if p.degree != degree:
            raise ValueError("degree mismatch among images")
    inv_cache: dict[int, Permutation] = {}
    acc = Permutation.identity(degree)
    for x in w.letters:
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
    return acc


def extends_to_homomorphism(pres: Presentation, images: Sequence[Permutation]) -> bool:
    """True iff every relator evaluates to the identity at the images.

    For a finite group with images that generate it, this also certifies an
    automorphism: a surjective endomorphism of a finite group is bijective.
    """
    if len(images) != pres.ngens:
        raise ValueError("one image per generator required")
    return all(evaluate(r, images).is_identity() for r in pres.relators)


class _Level:
    __slots__ = ("b", "gens", "orbit_order", "tree", "_ucache", "_dirty")

    def __init__(self, b: int):
        self.b = b
        self.gens: list[Permutation] = []
        self.orbit_order: list[int] = []
        self.tree: dict[int, tuple[int, int] | None] = {}
        self._ucache: dict[int, Permutation] = {}
        self._dirty = True

    def rebuild(self):
        self.tree = {self.b: None}
        self.orbit_order = [self.b]
        self._ucache.clear()
        qi = 0
        while qi < len(self.orbit_order):
            pt = self.orbit_order[qi]
            qi += 1
            for gi, g in enumerate(self.gens):
                t = int(g.images[pt])
                if t not in self.tree:
                    self.tree[t] = (pt, gi)
                    self.orbit_order.append(t)
        self._dirty = False

    def u(self, point: int, degree: int) -> Permutation:
        """Transversal element mapping the base point to ``point``."""
        cached = self._ucache.get(point)
        if cached is not None:
            return cached
        path: list[tuple[int, int]] = []
        pt = point
        cached = None
        while True:
            step = self.tree[pt]
            if step is None:
                cached = self._ucache.get(pt)
                if cached is None:
                    cached = Permutation.identity(degree)
                    self._ucache[pt] = cached
                break
            cached = self._ucache.get(pt)
            if cached is not None:
                break
            parent, gi = step
            path.append((pt, gi))
            pt = parent
        for pnt, gi in reversed(path):
            cached = cached * self.gens[gi]
            self._ucache[pnt] = cached
        return self._ucache[point]


class _ChainDone(Exception):
    pass


class PermGroup:
    """A finite permutation group with exact order and membership queries.

    ``known_order`` is an externally verified order of the generated group:
    chain construction stops as soon as the chain reaches it, which is exact
    (the chain order never exceeds the group order).  If the generated group
    is smaller, construction runs to completion and reports the true order.
    """

    def __init__(self, generators: Iterable[Permutation], degree: int | None = None,
                 known_order: int | None = None, _free: bool = False):
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
        self._free = _free
        self._levels: list[_Level] | None = None
        self._forbit: _FreeOrbit | None = None
        self._order: int | None = None

    # -- construction ------------------------------------------------------

    def _ensure_built(self):
        if self._order is not None:
            return
        if self._free:
            fo = _FreeOrbit(self.degree)
            for g in self.generators:
                fo.add_gen(g)
            self._forbit = fo
            self._order = fo.size()
        else:
            self._build_chain()
            self._order = 1
            for lev in self._levels:
                self._order *= len(lev.orbit_order)
        if self._known_order is not None and self._order > self._known_order:
            raise RuntimeError("chain order exceeds the externally verified order")

    def _chain_order(self) -> int:
        total = 1
        for lev in self._levels:
            if lev._dirty:
                lev.rebuild()
            total *= len(lev.orbit_order)
        return total

    def _place(self, g: Permutation):
        levels = self._levels
        j = 0
        while j < len(levels) and int(g.images[levels[j].b]) == levels[j].b:
            j += 1
        if j == len(levels):
            mp = g.moved_point()
            if mp is None:
                return
            levels.append(_Level(mp))
        for k in range(j + 1):
            levels[k].gens.append(g)
            levels[k]._dirty = True

    def _sift_from(self, p: Permutation, start: int) -> tuple[Permutation, int]:
        levels = self._levels
        for idx in range(start, len(levels)):
            if p.is_identity():
                return p, idx
            lev = levels[idx]
            t = int(p.images[lev.b])
            if t == lev.b:
                continue
            if t not in lev.tree:
                return p, idx
            p = p * lev.u(t, self.degree).inverse()
        return p, len(levels)

    def _add_strong(self, residue: Permutation, top: int, drop: int):
        levels = self._levels
        if drop == len(levels):
            mp = residue.moved_point()
            levels.append(_Level(mp))
        for j in range(top, drop + 1):
            levels[j].gens.append(residue)
            levels[j]._dirty = True

    def _build_chain(self):
        self._levels = []
        for g in self.generators:
            self._place(g)
        levels = self._levels
        for lev in levels:
            lev.rebuild()
        if self._known_order is not None and self._chain_order() == self._known_order:
            return
        i = len(levels) - 1
        while i >= 0:
            if self._verify_level(i):
                i -= 1
            else:
                if self._known_order is not None and self._chain_order() == self._known_order:
                    return
                i = len(levels) - 1

    def _verify_level(self, i: int) -> bool:
        """Sift all Schreier generators of level i; True when all pass."""
        levels = self._levels
        lev = levels[i]
        if lev._dirty:
            lev.rebuild()
        degree = self.degree
        for pt in lev.orbit_order:
            up = lev.u(pt, degree)
            for g in lev.gens:
                t = int(g.images[pt])
                s = up * g * lev.u(t, degree).inverse()
                if s.is_identity():
                    continue
                residue, drop = self._sift_from(s, i + 1)
                if not residue.is_identity():
                    self._add_strong(residue, i + 1, drop)
                    for j in range(min(drop, len(levels) - 1), i, -1):
                        if levels[j]._dirty:
                            levels[j].rebuild()
                    return False
        return True

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        self._ensure_built()
        return self._order

    def is_trivial(self) -> bool:
        return not self.generators

    def is_regular(self) -> bool:
        """Regular action: transitive with trivial point stabilizers."""
        self._ensure_built()
        if self._free:
            return True
        if not self._levels:
            return self.degree == 1
        return len(self._levels[0].orbit_order) == self.degree and self._order == self.degree

    def subgroup(self, generators: Iterable[Permutation],
                 known_order: int | None = None) -> "PermGroup":
        """A subgroup handle over the same action, inheriting freeness."""
        self._ensure_built()
        free = self._free or self.is_regular()
        return PermGroup(generators, degree=self.degree, known_order=known_order, _free=free)

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        self._ensure_built()
        if self._free:
            fo = self._forbit
            if fo.base is None:
                return p.is_identity()
            t = int(p.images[fo.base])
            if t == fo.base:
                return p.is_identity()
            return t in fo.tree
        residue, _ = self._sift_from(p, 0)
        return residue.is_identity()

    def elements(self, cap: int | None = None) -> list[Permutation]:
        """All elements in a deterministic order; guarded by ``cap``."""
        self._ensure_built()
        if cap is not None and self._order > cap:
            raise ValueError(f"group order {self._order} exceeds cap {cap}")
        if self._free:
            return self._forbit.elements()
        result = [Permutation.identity(self.degree)]
        for lev in reversed(self._levels):
            out = []
            for e in result:
                for pt in lev.orbit_order:
                    out.append(e * lev.u(pt, self.degree))
            result = out
        return result

    def regular_points(self) -> np.ndarray | None:
        """Where each element sends the base point, in ``elements()`` order,
        when the action is regular; None otherwise.

        In a regular action this is a bijection from element ids onto the
        points, so element k can be handled as point ``regular_points()[k]``
        without building any element.
        """
        self._ensure_built()
        if self._free:
            fo = self._forbit
            pts = fo.order_list if fo.base is not None else [0]
        elif len(self._levels) > 1:
            return None
        else:
            pts = self._levels[0].orbit_order if self._levels else [0]
        if len(pts) != self.degree:
            return None
        return np.array(pts, dtype=np.int64)

    # -- derived structure ---------------------------------------------------

    def derived_subgroup(self) -> "PermGroup":
        """Normal closure of generator commutators within this group."""
        gens = self.generators
        seeds = []
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                c = perm_commutator(gens[i], gens[j])
                if not c.is_identity():
                    seeds.append(c)
        return self._normal_closure(seeds)

    def _normal_closure(self, seeds: Sequence[Permutation]) -> "PermGroup":
        self._ensure_built()
        free = self._free or self.is_regular()
        conj = [(g, g.inverse()) for g in self.generators]
        picked: list[Permutation] = []
        queue: list[Permutation] = []
        if free:
            fo = _FreeOrbit(self.degree)

            def contains(c: Permutation) -> bool:
                if fo.base is None:
                    return c.is_identity()
                t = int(c.images[fo.base])
                if t == fo.base:
                    return c.is_identity()
                return t in fo.tree

            def add(c: Permutation):
                picked.append(c)
                queue.append(c)
                fo.add_gen(c)
        else:
            work = PermGroup((), degree=self.degree)

            def contains(c: Permutation) -> bool:
                return work.contains(c)

            def add(c: Permutation):
                nonlocal work
                picked.append(c)
                queue.append(c)
                work = PermGroup(picked, degree=self.degree)
                work._ensure_built()

        for s in seeds:
            if not s.is_identity() and not contains(s):
                add(s)
        qi = 0
        while qi < len(queue):
            s = queue[qi]
            qi += 1
            for g, ginv in conj:
                c = ginv * s * g
                if not contains(c):
                    add(c)
        return PermGroup(picked, degree=self.degree, _free=free)

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
        if self.order() == 1:
            return True
        series = self.derived_series()
        return series[-1].order() == 1

    def derived_length(self) -> int | None:
        """Smallest n with the n-th derived subgroup trivial, else None."""
        if self.order() == 1:
            return 0
        series = self.derived_series()
        if series[-1].order() != 1:
            return None
        return len(series)


class _FreeOrbit:
    """Orbit of the base point for a group acting freely.

    For a free (regular ambient) action the orbit of any point is in
    bijection with the group, so order and membership are orbit lookups.
    """

    __slots__ = ("degree", "gens", "base", "tree", "order_list")

    def __init__(self, degree: int):
        self.degree = degree
        self.gens: list[Permutation] = []
        self.base: int | None = None
        self.tree: dict[int, tuple[int, int] | None] = {}
        self.order_list: list[int] = []

    def add_gen(self, g: Permutation):
        self.gens.append(g)
        gi = len(self.gens) - 1
        if self.base is None:
            mp = g.moved_point()
            if mp is None:
                return
            self.base = mp
            self.tree = {mp: None}
            self.order_list = [mp]
            frontier = 0
        else:
            # sweep known points with the new generator only
            n_before = len(self.order_list)
            img = g.images
            for k in range(n_before):
                pt = self.order_list[k]
                t = int(img[pt])
                if t not in self.tree:
                    self.tree[t] = (pt, gi)
                    self.order_list.append(t)
            frontier = n_before
        # BFS the newly reached region with all generators
        order_list = self.order_list
        tree = self.tree
        gens = self.gens
        qi = frontier
        while qi < len(order_list):
            pt = order_list[qi]
            qi += 1
            for gj, gen in enumerate(gens):
                t = int(gen.images[pt])
                if t not in tree:
                    tree[t] = (pt, gj)
                    order_list.append(t)

    def size(self) -> int:
        return len(self.order_list) if self.base is not None else 1

    def elements(self) -> list[Permutation]:
        if self.base is None:
            return [Permutation.identity(self.degree)]
        elems: dict[int, Permutation] = {self.base: Permutation.identity(self.degree)}
        out = []
        for pt in self.order_list:
            if pt == self.base:
                out.append(elems[pt])
                continue
            parent, gi = self.tree[pt]
            elems[pt] = elems[parent] * self.gens[gi]
            out.append(elems[pt])
        return out


def subgroup_intersection_small(a: PermGroup, b: PermGroup,
                                cap: int = 10_000) -> list[Permutation]:
    """Exact element list of the intersection; the smaller side is enumerated."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    if min(a.order(), b.order()) > cap:
        raise ValueError(f"intersection cap {cap} exceeded")
    small, other = (a, b) if a.order() <= b.order() else (b, a)
    return [e for e in small.elements() if other.contains(e)]
