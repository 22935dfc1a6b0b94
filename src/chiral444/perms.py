"""Permutations, and permutation groups held as regular actions.

Points are 0-based internally; ``from_cycles`` and the cycle notation used
by ``str()`` are 1-based to match the usual written convention.  The action
convention is fixed once, here: products act left to right, ``(p * q)(x) =
q(p(x))``, matching the order in which coset tables trace words.

A whole ``PermGroup`` is made one way, ``PermGroup.regular``, from
generators the caller has proved to act regularly on their points (a
complete coset table of the trivial subgroup, a certified cover).  Its
points are its element ids 0..|G|-1: id k is the element that sends point 0
to point k, id 0 the identity, and right multiplication by an element is
its own image array.  Each subgroup is the orbit of id 0 under its
generators: in a regular action the orbit of a point is in bijection with
the group, so order and membership are orbit bookkeeping, and no
stabilizer chain is built.  ``orbit`` is the one search behind every orbit,
a queue BFS.  An orbit is its ids, in the order the search reaches them,
and a mask; the BFS tree that spells elements is built only when asked for.

A word whose images are elements of the group is decided on id 0: followed
through the action letter by letter, it is the identity iff it brings id 0
back to 0, and its order is the length of id 0's cycle
(``PermGroup.word_id``, ``PermGroup.word_order``).  No product of the full
degree is formed.  The rule needs the images to be elements of a group
acting regularly, since it reads one point of the product; so
``families._certified_order``, which is what shows a cover to be such a
group, does not use it: it decides each relator at every point, from the
relator's lift to the base group's points.  The normal closures behind the derived
series keep their generators as words in the group's generators and grow one
orbit as generators join.

The family pipeline builds no permutation of a member's degree for its
checks: ``families.verify_member`` reads each relation, order, subgroup and
derived series off lifts to the base group's points, and only
``families.member_triple`` makes a member's ``PermGroup``, for the coset
geometry and for the tests.  This module is the generic engine and the
cross-check the tests run against those reads.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .words import Word, commutator


class Permutation:
    """A bijection of {0..degree-1}, stored as an image array.

    The constructor checks the bijection: the images lie in range and hit
    every point, marked in a byte per point.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        arr = np.array(images, dtype=np.int32)
        if arr.ndim != 1:
            raise ValueError("images must be a one-dimensional sequence")
        n = arr.shape[0]
        if n == 0:
            raise ValueError("degree must be positive")
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("images is not a bijection of {0..degree-1}")
        hit = np.zeros(n, dtype=bool)  # n images that hit every point
        hit[arr] = True
        if not hit.all():
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
        return cls._trusted(np.arange(degree, dtype=np.int32))

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
        inv[self.images] = np.arange(n)
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
        return np.array_equal(self.images, np.arange(self.degree))

    def order(self) -> int:
        """Least n >= 1 with p**n the identity: the lcm of the cycle lengths.

        Each point is labelled with the smallest point of its cycle by
        pointer doubling: after round j, ``lab[x]`` is the least of x,
        p(x), ..., p^(2^j - 1)(x) and ``q`` is p^(2^j).  When a round changes
        no label, every label is its cycle's minimum (along x, q(x), q(q(x)),
        ... the labels cannot rise without coming back down), so the rounds
        number about log2 of the longest cycle, each a numpy pass over the
        points.  The cycle lengths are the label counts, and the distinct
        ones are those that a count of the counts finds.
        """
        lab = np.arange(self.degree)
        q = self.images
        while True:
            new = np.minimum(lab, lab[q])
            if np.array_equal(new, lab):
                break
            lab, q = new, q[q]
        cycles_of_length = np.bincount(np.bincount(lab))
        return math.lcm(*(np.flatnonzero(cycles_of_length[1:]) + 1).tolist())

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


@functools.lru_cache(maxsize=4096)
def _runs(letters: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The runs of a letter and its inverse in ``letters``, as (0-based
    generator index, exponent) pairs; kept per letter tuple."""
    return tuple((g - 1, sum(run) // g)  # the run's letters are g and -g
                 for g, run in itertools.groupby(letters, key=abs))


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
    root, k = w.as_power()
    inv_cache: dict[int, Permutation] = {}
    acc = Permutation.identity(degree)
    for x in root:
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
    return acc ** k if k > 1 else acc


_UNSET = object()  # a cached value not computed yet
_FAR = np.iinfo(np.int64).max  # beyond every position in a BFS layer


class Orbit(NamedTuple):
    """The orbit of point 0: its points in the order the search reaches them,
    and a mask over the points of the action."""

    order: np.ndarray  # int32, one per orbit point
    mask: np.ndarray   # bool, one per point of the action: whether it is in the orbit


def _trivial_orbit(n: int) -> Orbit:
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    return Orbit(np.zeros(1, dtype=np.int32), mask)


def _whole(n: int) -> Orbit:
    """The orbit of id 0 under a group's own generators: every id, in id
    order.  Its mask is one True broadcast to n entries, read-only and
    allocating nothing, as every query on it reads it and none writes it."""
    return Orbit(np.arange(n, dtype=np.int32), np.broadcast_to(np.True_, (n,)))


def orbit(maps: Sequence[np.ndarray], n: int) -> Orbit:
    """The orbit of point 0 under the image arrays ``maps`` on 0..n-1, in
    the order of a queue BFS: by the position of the point they are reached
    from, then by map index (``_bfs``)."""
    return _bfs(_trivial_orbit(n), maps, 0)


def _bfs(orb: Orbit, maps: Sequence, first: int) -> Orbit:
    """Grow ``orb``, an orbit of point 0 closed under the maps before index
    ``first`` of ``maps``, into the orbit under all of them.

    The points of orb are expanded by the maps from ``first`` on, and every
    point that brings in by all the maps, in queue BFS order.  A map is an
    image array or an ``_IdMap``, which looks up only the frontiers, so that
    a map computed on demand costs O(orbit) rather than O(n).  orb's mask is
    updated in place and becomes the result's.  Each frontier is expanded at
    once: its images, raveled point-major, keep the first occurrence of each
    new point, found by a scatter-minimum of positions into a scratch array
    that is written only at the new points (so it is never initialised, and
    touches O(orbit) of its pages).  That is a few numpy passes per BFS
    layer, the images written column by column into one array allocated
    for the layer.  The new positions are read with the array method
    ``nonzero``, since a layer takes a few microseconds and the
    ``np.flatnonzero`` wrapper would add a quarter to that.
    """
    mask = orb.mask
    first_at = np.empty(mask.shape[0], dtype=np.int64)
    order = [orb.order]
    frontier, k = orb.order, len(maps) - first
    while frontier.size and k:
        reached = np.empty((frontier.shape[0], k), dtype=np.intp)
        for j, mp in enumerate(maps[-k:]):
            reached[:, j] = mp[frontier]
        reached = reached.ravel()
        fresh = (~mask[reached]).nonzero()[0]
        cand = reached[fresh]
        first_at[cand] = _FAR
        np.minimum.at(first_at, cand, fresh)
        # intp, as numpy converts any other index array on every lookup
        new = cand[first_at[cand] == fresh].astype(np.intp, copy=False)
        mask[new] = True
        order.append(new)
        frontier, k = new, len(maps)
    return Orbit(np.concatenate(order).astype(np.int32), mask)


def _spanning_tree(orb: Orbit, maps: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Each orbit point's earliest predecessor under ``maps``: for the point
    at position j of ``orb.order``, the position of the first point, in
    orbit order, that a map sends to it, and the index of the first such map
    (entry 0, for point 0 itself, is not a parent).

    For a BFS orbit (``orbit``) this is the tree the BFS walked, so every
    parent precedes its child.  One scatter-minimum of the keys
    ``position * len(maps) + map`` of the images of every orbit point
    finds it.
    """
    order, k = orb.order, len(maps)
    pos = np.empty(orb.mask.shape[0], dtype=np.int64)  # written at the orbit only
    pos[order] = np.arange(order.shape[0])
    reached = np.stack([mp[order] for mp in maps], axis=1).ravel()
    first = np.full(order.shape[0], _FAR, dtype=np.int64)
    np.minimum.at(first, pos[reached], np.arange(reached.shape[0]))
    return first // k, first % k


class _RegularAction:
    """A group's right-regular action on its points 0..n-1, which are its
    ids: right multiplication by element k takes id 0, the identity, to id
    k, and right multiplication by an element p is ``p.images``.  It holds
    what the handles on one group share: n, and the inverse maps of the
    letters of the images ``factors`` was last given.
    """

    def __init__(self, n: int):
        self.n = n
        self._images: Sequence[Permutation] | None = None
        self._inverses: dict[int, np.ndarray] = {}

    def factors(self, letters: tuple[int, ...],
                images: Sequence[Permutation]) -> list[tuple[np.ndarray, int]]:
        """The word ``letters`` in ``images``, elements of the group, as
        (image array, times) steps, one per run of a letter and its inverse.

        A positive run applies the letter's image array, and a negative run
        its inverse, which is kept for the next call on the same ``images``
        object, such as a group's generators.
        """
        if self._images is not images:
            self._images, self._inverses = images, {}
        steps = []
        for i, e in _runs(letters):
            if i >= len(images):
                raise ValueError(f"word uses generator index {i} with only "
                                 f"{len(images)} images")
            mp = images[i].images
            if e > 0:
                steps.append((mp, e))
            elif e < 0:
                if i not in self._inverses:
                    inv = np.empty(self.n, dtype=mp.dtype)
                    inv[mp] = np.arange(self.n)
                    self._inverses[i] = inv
                steps.append((self._inverses[i], -e))
        return steps

    @staticmethod
    def follow(steps: Sequence[tuple[np.ndarray, int]], x):
        """The ids that right multiplication by the product of ``steps``
        takes the ids ``x`` (one id, or an array of them) to."""
        for img, times in steps:
            for _ in range(times):
                x = img[x]
        return x


class _IdMap:
    """Right multiplication by a product of steps, as a ``_bfs`` map,
    computed on each frontier only, so that a normal closure's orbit costs
    O(|closure|), not O(|group|)."""

    __slots__ = ("steps",)

    def __init__(self, steps: Sequence[tuple[np.ndarray, int]]):
        self.steps = steps

    def __getitem__(self, ks: np.ndarray) -> np.ndarray:
        return _RegularAction.follow(self.steps, ks)


class PermGroup:
    """A finite permutation group, handled through its right-regular action.

    A whole group is made by ``PermGroup.regular(gens)``, from generators
    proved to act regularly: the points are the ids 0..|G|-1, id k the
    element that sends point 0 to point k, id 0 the identity, and each
    generator acts on the ids by right multiplication, which is its own
    image array.  Every handle on the group, its own and each
    ``subgroup()``, holds the orbit of id 0 under its generators: its ids in
    BFS order (the group's own: every id, in id order), sized to the orbit,
    and a mask over all the ids.  The order is the orbit's size, membership
    one lookup in the mask.  A subgroup's BFS evaluates its generators' id
    maps on each frontier only.  A group built with the bare constructor has
    no ids: every query on them raises ValueError, and only
    ``is_transitive`` reads its points.

    A word is decided without forming a product.  ``word_id`` follows id 0
    through the action letter by letter, and the word is the identity iff
    it comes back to id 0; ``word_order`` counts the steps of id 0's cycle.
    The images must be elements of the group: on a regular action the id
    that id 0 reaches names the only element the product can be, and it is
    that element only when the product is in the group.  That is why
    ``families._certified_order`` decides its relators at every point of
    the cover, from their lifts to the base group: until it has, the cover
    is not known to be one group acting regularly.

    The derived series is grown the same way.  Each normal closure keeps its
    generators as words in this handle's generators; a word joins when the
    id it leads id 0 to is off the orbit so far, and the orbit is then
    grown, not rebuilt, by the word's id map on the frontier only.

    Only ``elements()`` and ``contains`` spell elements as permutations,
    along a BFS spanning tree of the orbit built when first asked and kept.
    """

    def __init__(self, generators: Iterable[Permutation], degree: int | None = None):
        given = list(generators)
        if given:
            degree = given[0].degree
            if any(g.degree != degree for g in given):
                raise ValueError("generators must share a degree")
        elif degree is None:
            raise ValueError("degree required for a group with no generators")
        gens: list[Permutation] = []
        for g in given:
            if not g.is_identity() and g not in gens:
                gens.append(g)
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.degree = degree
        self._action: _RegularAction | None = None
        self._orbit: Orbit | None = None
        self._tree: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._derived_length: int | None | object = _UNSET

    @classmethod
    def regular(cls, generators: Iterable[Permutation]) -> "PermGroup":
        """The group of ``generators``, which the caller has proved to act
        regularly on their points (a transitive coset table of the trivial
        subgroup, a certified cover); nothing is checked here.  Its ids are
        its points: id k is the element that sends point 0 to point k.  The
        trivial group is given by the identity on one point."""
        group = cls(generators)
        group._action = _RegularAction(group.degree)
        group._orbit = _whole(group.degree)
        return group

    def _built(self) -> Orbit:
        if self._orbit is None:
            if self._action is None:
                raise ValueError("a group built bare has no element ids; build the "
                                 "whole group with PermGroup.regular")
            self._orbit = orbit(self._maps(), self._action.n)
        return self._orbit

    def _maps(self) -> list[np.ndarray]:
        """Right multiplication by each generator, as a map on the ids."""
        return [g.images for g in self.generators]

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        return int(self._built().order.shape[0])

    def is_transitive(self) -> bool:
        """Whether the generators act transitively on the points."""
        pts = orbit(self._maps(), self.degree)
        return pts.order.shape[0] == self.degree

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

    def word_id(self, w: Word, images: Sequence[Permutation]) -> int:
        """The id of the element ``w`` spells in ``images``, which must be
        elements of this group; w is the identity there iff this is 0.

        Id 0 is followed through the action letter by letter, so this takes
        O(len(w)) steps and forms no product.  A power u^k of a shorter word
        follows u at most k times: when id 0 comes back after j of them, the
        rest is k mod j.
        """
        self._built()
        act = self._action
        root, k = w.as_power()
        steps = act.factors(root, images)
        x = 0
        for done in range(1, k + 1):
            x = act.follow(steps, x)
            if x == 0:
                for _ in range(k % done):
                    x = act.follow(steps, x)
                break
        return int(x)

    def word_order(self, w: Word, images: Sequence[Permutation]) -> int:
        """The order of the element ``w`` spells in ``images``, which must be
        elements of this group: the length of id 0's cycle under it, taken
        for the shortest root u of w = u^k and divided by its gcd with k."""
        self._built()
        act = self._action
        root, k = w.as_power()
        steps = act.factors(root, images)
        x, length = act.follow(steps, 0), 1
        while x != 0:
            x, length = act.follow(steps, x), length + 1
        return length // math.gcd(length, k)

    def contains(self, p: Permutation) -> bool:
        """Exact membership, for any permutation of the group's degree: the
        id p sends id 0 to names the only element p can be, and p is
        compared with it."""
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        orb = self._built()
        k = int(p.images[0])
        return bool(orb.mask[k]) and self._element(k) == p

    def _spelling(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The orbit of id 0 in BFS order under the generators, with each
        position's parent position and generator (``_spanning_tree``)."""
        if self._tree is None:
            self._built()
            maps = self._maps()
            orb = orbit(maps, self._action.n)
            tree = _spanning_tree(orb, maps) if maps else (np.zeros(1, dtype=np.int64),) * 2
            self._tree = (orb.order, *tree)
        return self._tree

    def _element(self, k: int) -> Permutation:
        """The element of id k, spelt along the BFS spanning tree."""
        order, parent, via = self._spelling()
        pos = int(np.flatnonzero(order == k)[0])
        path = []
        while pos:
            path.append(int(via[pos]))
            pos = int(parent[pos])
        acc = Permutation.identity(self.degree)
        for gi in reversed(path):
            acc = acc * self.generators[gi]
        return acc

    def elements(self) -> list[Permutation]:
        """All elements, in BFS order from the identity (the k-th need not
        have id k)."""
        _, parent, via = self._spelling()
        elems = [Permutation.identity(self.degree)]
        for pos, gi in zip(parent[1:].tolist(), via[1:].tolist()):
            elems.append(elems[pos] * self.generators[gi])
        return elems

    # -- derived structure ---------------------------------------------------

    def _letters(self) -> tuple[Word, ...]:
        return tuple(Word((i + 1,)) for i in range(len(self.generators)))

    def _handle(self, words: Sequence[Word], orb: Orbit) -> "PermGroup":
        """A handle on the subgroup that ``words`` in this group's generators
        generate, with its orbit ``orb``; its generators are formed here."""
        h = PermGroup((), degree=self.degree)
        h.generators = tuple(evaluate(w, self.generators) for w in words)
        h._action, h._orbit = self._action, orb
        return h

    def _derived(self, words: Sequence[Word]) -> tuple[tuple[Word, ...], Orbit]:
        """The derived subgroup K' of the subgroup K that ``words`` generate,
        for K a term of this group's derived series, all words in this
        group's generators.

        K' is the normal closure in K of the commutators of the words.  It
        is characteristic in K, which is characteristic in this group, so K'
        is normal here too, and it is also the normal closure of those
        commutators under this group's generators, whose conjugates are two
        letters longer rather than twice the length of a word of K.
        """
        seeds = [commutator(u, v) for i, u in enumerate(words) for v in words[i + 1:]]
        return self._normal_closure(seeds, self._letters())

    def _normal_closure(self, seeds: Sequence[Word],
                        conj: Sequence[Word]) -> tuple[tuple[Word, ...], Orbit]:
        """The smallest subgroup that contains the elements ``seeds`` spell
        and is normalized by those ``conj`` spell, all words in this group's
        generators: the words of its generators, and its orbit.

        A word joins the generators only when ``word_id`` puts it off the
        orbit so far; the orbit is then grown from the points it has by the
        new word's id map, and the points that brings in by every
        generator's (``_bfs``).  Each id map follows the word's letters on
        the frontier only, so no product is formed.
        """
        self._built()
        act, images = self._action, self.generators
        orb = _trivial_orbit(act.n)
        # a conjugate's id is followed from the point of c^-1, through the
        # new generator's steps and then c's
        inverses = [c.inverse() for c in conj]
        backs = [act.follow(act.factors(c.letters, images), 0) for c in inverses]
        forwards = [act.factors(c.letters, images) for c in conj]
        gens: list[Word] = []
        maps: list[_IdMap] = []
        # (the factors of a word, its id); its word is formed when it joins
        queue = [((w,), self.word_id(w, images)) for w in seeds]
        for parts, k in queue:  # a queue: the conjugates of each new generator join it
            if orb.mask[k]:
                continue
            w = parts[0] if len(parts) == 1 else parts[0] * parts[1] * parts[2]
            gens.append(w)
            steps = act.factors(w.letters, images)
            maps.append(_IdMap(steps))
            orb = _bfs(orb, maps, len(maps) - 1)
            queue.extend(((ci, w, c), act.follow(fwd, act.follow(steps, back)))
                         for c, ci, back, fwd in zip(conj, inverses, backs, forwards))
        return tuple(gens), orb

    def _derived_terms(self) -> list[tuple[tuple[Word, ...], Orbit]]:
        """The derived series until trivial or stable, each term as the words
        of its generators in this group's generators and its orbit."""
        terms: list[tuple[tuple[Word, ...], Orbit]] = []
        words, size = self._letters(), self.order()
        while True:
            nxt = self._derived(words)
            nsize = nxt[1].order.shape[0]
            if nsize == size:
                if not terms:
                    terms.append(nxt)
                break
            terms.append(nxt)
            if nsize == 1:
                break
            words, size = nxt[0], nsize
        return terms

    def derived_series(self) -> list["PermGroup"]:
        """Successive derived subgroups until trivial or stable."""
        return [self._handle(*t) for t in self._derived_terms()]

    def is_solvable(self) -> bool:
        return self.derived_length() is not None

    def derived_length(self) -> int | None:
        """Smallest n with the n-th derived subgroup trivial, else None.
        The derived series behind it is built once per handle."""
        if self._derived_length is _UNSET:
            if self.order() == 1:
                self._derived_length = 0
            else:
                terms = self._derived_terms()
                self._derived_length = (len(terms) if terms[-1][1].order.shape[0] == 1
                                        else None)
        return self._derived_length
