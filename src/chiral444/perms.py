"""Permutations, and permutation groups held as regular actions.

Points are 0-based internally; ``from_cycles`` and the cycle notation used
by ``str()`` are 1-based to match the usual written convention.  The action
convention is fixed once, here: products act left to right, ``(p * q)(x) =
q(p(x))``, matching the order in which coset tables trace words.

A ``PermGroup`` is handled through its right-regular action on element ids
0..|G|-1, id 0 the identity, and each subgroup as the orbit of id 0 under
its generators: in a regular action the orbit of a point is in bijection
with the group, so order and membership are orbit bookkeeping, and no
stabilizer chain is built.  A group given as regular (every family member)
has its points as ids: id k sends point 0 to point k.  ``orbit`` is the one
search behind every orbit: a BFS, or under a single map the cycle through
point 0.  An orbit is its ids, in the order the search reaches them, and a
mask; the BFS tree that spells elements is built only when asked for.

Once the action is built, a word whose images are elements of the group is
decided on id 0: followed through the action letter by letter, it is the
identity iff it brings id 0 back to 0, and its order is the length of id 0's
cycle (``PermGroup.word_id``, ``PermGroup.word_order``).  No product of the
full degree is formed.  The rule needs the images to be elements of a group
acting regularly, since it reads one point of the product; so
``families._certify_cover``, which is what shows a cover to be such a group,
does not use it: it decides each relator at every point, on the relator's
lift to the base group's points.  The normal closures behind the derived
series keep their generators as words in the group's generators and grow one
orbit as generators join.  The family pipeline reads its members' derived
series off one series of the base group (``families.derived_orders``);
``PermGroup.derived_length`` is the generic engine and the cross-check the
tests run against it.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .words import Presentation, Word, commutator

# the read-only int32 arange of each degree some live array still holds, such
# as a regular group's own orbit (``_whole``): each is freed with the last
# holder, so a member's ids do not outlive the member
_ARANGES: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()

# images per chunk of the bijection check in ``Permutation.__init__``
_CHUNK = 2 ** 20


def _arange(n: int) -> np.ndarray:
    a = _ARANGES.get(n)
    if a is None:
        a = np.arange(n, dtype=np.int32)
        a.setflags(write=False)
        _ARANGES[n] = a
    return a


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two image arrays are equal, decided on their first 64 entries
    when those differ, so that two different permutations of a large degree
    are told apart without a pass over them."""
    return np.array_equal(a[:64], b[:64]) and np.array_equal(a, b)


class Permutation:
    """A bijection of {0..degree-1}, stored as an image array.

    The constructor checks the bijection: the images lie in range and hit
    every point, marked in a byte per point.  The marks are scattered
    through intp indices, 2**20 images at a time, since numpy converts an
    int32 index array on a slower path, and the chunks bound the intp copy
    to 8 MiB whatever the degree.  ``_owned`` runs the same check on an
    int32 array that its maker hands over, without the constructor's copy.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        self._take(np.array(images, dtype=np.int32))

    @classmethod
    def _owned(cls, arr: np.ndarray) -> "Permutation":
        """A permutation on ``arr``, an int32 array that the caller hands
        over and writes no more: checked as the constructor checks, but not
        copied first."""
        self = object.__new__(cls)
        self._take(arr)
        return self

    def _take(self, arr: np.ndarray):
        """Check that ``arr`` is a bijection and keep it, read-only."""
        if arr.ndim != 1:
            raise ValueError("images must be a one-dimensional sequence")
        n = arr.shape[0]
        if n == 0:
            raise ValueError("degree must be positive")
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("images is not a bijection of {0..degree-1}")
        hit = np.zeros(n, dtype=bool)  # n images that hit every point
        for lo in range(0, n, _CHUNK):
            hit[arr[lo:lo + _CHUNK].astype(np.intp)] = True
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
        # the head first, so that a large degree's arange is made only for
        # a permutation that starts as the identity does
        head = self.images[:64]
        return (np.array_equal(head, np.arange(head.shape[0]))
                and np.array_equal(self.images, _arange(self.degree)))

    def order(self) -> int:
        """Least n >= 1 with p**n the identity: the lcm of the cycle lengths.

        Each point is labelled with the smallest point of its cycle by
        pointer doubling: after round j, ``lab[x]`` is the least of x,
        p(x), ..., p^(2^j - 1)(x) and ``q`` is p^(2^j).  When a round changes
        no label, every label is its cycle's minimum (along x, q(x), q(q(x)),
        ... the labels cannot rise without coming back down), so the rounds
        number about log2 of the longest cycle, each a numpy pass over the
        points.  The cycle lengths are the label counts.
        """
        lab = _arange(self.degree)
        q = self.images
        while True:
            new = np.minimum(lab, lab[q])
            if np.array_equal(new, lab):
                break
            lab, q = new, q[q]
        lengths = np.bincount(lab)
        return math.lcm(*np.unique(lengths[lengths > 0]).tolist())

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
        return isinstance(other, Permutation) and _same(self.images, other.images)

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


def perm_commutator(p: Permutation, q: Permutation) -> Permutation:
    return p.inverse() * q.inverse() * p * q


@functools.lru_cache(maxsize=4096)
def _root(letters: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The shortest u with ``letters`` = u^k, and k (u is the empty word and
    k is 1 for the empty word).  Kept per letter tuple: the same relators
    are asked for by every member of a family."""
    n = len(letters)
    r = next((r for r in range(1, n // 2 + 1)
              if n % r == 0 and letters[:r] * (n // r) == letters), n)
    return letters[:r], (n // r if n else 1)


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
    root, k = _root(w.letters)
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

# the longest cycle walked a point at a time: by ``orbit`` for a single map,
# and to invert a letter by stepping forward along its cycles
_WALK = 64

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
    return Orbit(_arange(n), np.broadcast_to(np.True_, (n,)))


def orbit(maps: Sequence[np.ndarray], n: int) -> Orbit:
    """The orbit of point 0 under the image arrays ``maps`` on 0..n-1.

    Points come in the order of a queue BFS: by the position of the point
    they are reached from, then by map index (``_bfs``).  Under one map the
    orbit is the cycle through point 0, which a BFS would reach one point
    per layer; it is followed a point at a time for up to 64 steps, and past
    that by pointer doubling: with the first L points of the cycle known and
    q = map^L, the next L are q of them, and q^2 is q[q].  That is about
    log2 of the cycle's length numpy passes over the n points.
    """
    if len(maps) != 1:
        return _bfs(_trivial_orbit(n), maps, 0)
    step = maps[0]
    pts = [0]
    while len(pts) <= _WALK:
        x = int(step[pts[-1]])
        if x == 0:
            break
        pts.append(x)
    if x == 0:
        cyc = np.array(pts, dtype=np.int32)
    else:
        cyc = np.zeros(1, dtype=np.int32)
        while True:
            nxt = step[cyc]
            back = np.flatnonzero(nxt == 0)
            if back.size:
                cyc = np.concatenate([cyc, nxt[:back[0]]]).astype(np.int32)
                break
            cyc = np.concatenate([cyc, nxt])
            step = step[step]
    mask = np.zeros(n, dtype=bool)
    mask[cyc] = True
    return Orbit(cyc, mask)


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


def _cycle_length(img: np.ndarray) -> int | None:
    """The length of point 0's cycle under ``img`` when it closes within 64
    steps, else None."""
    x, length = int(img[0]), 1
    while x != 0 and length < _WALK:
        x, length = int(img[x]), length + 1
    return length if x == 0 else None


class _RegularAction:
    """A group's right-regular action on its ids 0..n-1, one per element:
    right multiplication by element k takes id 0, the identity, to id k.

    A group given as regular (``PermGroup.regular``) acts on its own points,
    which are its ids.  A group closed up element by element acts on the ids
    of its elements: ``rows[k]`` is the image array of element k and
    ``index`` finds an id from an image array.  ``map`` is the one place the
    two differ: right multiplication by p takes id x to ``map(p)[x]``.
    """

    def __init__(self, n: int, rows: np.ndarray | None = None,
                 index: dict[bytes, int] | None = None):
        self.n = n
        self.rows, self.index = rows, index
        # per letter of the images ``factors`` was last given: its map and
        # the map's order (or None), and the inverse map once formed
        self._images: Sequence[Permutation] | None = None
        self._letters: dict[int, tuple[np.ndarray, int | None]] = {}
        self._inverses: dict[int, np.ndarray] = {}

    def map(self, p: Permutation) -> np.ndarray:
        """Right multiplication by p, an element of the group, as an image
        array on the ids: p's own image array when the group acts on its
        points, and otherwise the id of (element k) * p for each id k, looked
        up in ``index``, which raises ValueError when p is not in the group."""
        if self.rows is None:
            return p.images
        try:
            return np.array([self.index[r.tobytes()] for r in p.images[self.rows]],
                            dtype=np.intp)
        except KeyError:
            raise ValueError("the permutation is not in the group") from None

    def factors(self, letters: tuple[int, ...],
                images: Sequence[Permutation]) -> list[tuple[np.ndarray, int]]:
        """The word ``letters`` in ``images``, elements of the group, as
        (image array, times) steps, one per run of a letter and its inverse.

        When id 0's cycle under a letter's map closes after L <= 64
        steps, L is the letter's order (every cycle of an element of a
        regular group is as long as its order), so the run's exponent is
        taken mod L and an inverse letter is L - 1 steps forward.  Otherwise
        a negative run applies the inverse map, the array inverse of the
        letter's.  Both are kept for the next call on the same ``images``
        object, such as a group's generators.
        """
        if self._images is not images:
            self._images, self._letters, self._inverses = images, {}, {}
        steps = []
        for i, e in _runs(letters):
            if i >= len(images):
                raise ValueError(f"word uses generator index {i} with only "
                                 f"{len(images)} images")
            if i not in self._letters:
                mp = self.map(images[i])
                self._letters[i] = (mp, _cycle_length(mp))
            mp, order = self._letters[i]
            if order:
                e %= order
            if e > 0:
                steps.append((mp, e))
            elif e < 0:
                if i not in self._inverses:
                    inv = np.empty(self.n, dtype=mp.dtype)
                    inv[mp] = _arange(self.n)
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


def _closure_action(gens: Sequence[Permutation], degree: int) -> _RegularAction:
    """The regular action of the group generated by ``gens``, closed up
    element by element in queue BFS order from the identity."""
    rows: list[np.ndarray] = []
    index: dict[bytes, int] = {}

    def add(img: np.ndarray):
        if (len(rows) + 1) * degree > _CLOSURE_CAP:
            raise ValueError(f"closing the group up needs more than {_CLOSURE_CAP} "
                             f"entries (elements x degree)")
        index[img.tobytes()] = len(rows)
        rows.append(img)

    add(_arange(degree))
    for row in rows:  # a queue: rows grows as it is walked
        for g in gens:
            img = g.images[row]
            if img.tobytes() not in index:
                add(img)
    return _RegularAction(len(rows), np.stack(rows), index)


class PermGroup:
    """A finite permutation group, handled through its right-regular action.

    The elements have ids 0..|G|-1, id 0 being the identity, and each
    generator acts on the ids by right multiplication.  Every handle on the
    group, its own and each ``subgroup()``, holds the orbit of id 0 under
    its generators: its ids in BFS order (the group's own: every id, in id
    order), sized to the orbit, and a mask over all the ids.  The order is
    the orbit's size, membership one lookup in the mask.  A subgroup's BFS
    evaluates its generators' id maps on each frontier only.

    The regular action comes in one of two ways:

    - ``PermGroup.regular(gens)``, for generators proved to act regularly:
      the ids are the points, id k the element sending point 0 to point k,
      and no search is run;
    - ``PermGroup(gens)``: on the first query the elements are closed up as
      image arrays, in BFS order from the identity, and numbered in that
      order.  This raises ValueError rather than hold more than 2**20
      entries (elements x degree).

    Once the action is built, a word is decided without forming a product.
    ``word_id`` follows id 0 through the action letter by letter, and the
    word is the identity iff it comes back to id 0; ``word_order`` counts
    the steps of id 0's cycle.  The images must be elements of the group: on
    a regular action the id that id 0 reaches names the only element the
    product can be, and it is that element only when the product is in the
    group.  That is why ``families._certify_cover`` checks its relators at
    every point of the cover, on their lifts to the base group: until it
    has, the cover is not known to be one group acting regularly.

    The derived series is grown the same way.  Each normal closure keeps its
    generators as words in this handle's generators; a word joins when the
    id it leads id 0 to is off the orbit so far, and the orbit is then
    grown, not rebuilt, by the word's id map on the frontier only.

    Only ``elements()`` and ``contains`` spell elements as permutations,
    along a BFS spanning tree of the orbit built when first asked and kept.
    """

    def __init__(self, generators: Iterable[Permutation], degree: int | None = None):
        gens: list[Permutation] = []
        for g in generators:
            # compared, not hashed: a hash reads the whole image array
            if not g.is_identity() and g not in gens:
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
        self._action: _RegularAction | None = None
        self._orbit: Orbit | None = None
        self._tree: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._derived_length: int | None | object = _UNSET

    @classmethod
    def regular(cls, generators: Iterable[Permutation]) -> "PermGroup":
        """The group of ``generators``, which the caller has proved to act
        regularly on their points (a transitive coset table of the trivial
        subgroup, a certified cover); nothing is checked here.  Its ids are
        its points: id k is the element that sends point 0 to point k."""
        group = cls(generators)
        group._action = _RegularAction(group.degree)
        group._orbit = _whole(group.degree)
        return group

    def _built(self) -> Orbit:
        if self._orbit is None:
            if self._action is None:
                self._action = _closure_action(self.generators, self.degree)
                self._orbit = _whole(self._action.n)
            else:
                self._orbit = orbit(self._maps(), self._action.n)
        return self._orbit

    def _maps(self) -> list[np.ndarray]:
        """Right multiplication by each generator, as a map on the ids."""
        return [self._action.map(g) for g in self.generators]

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        return int(self._built().order.shape[0])

    def is_trivial(self) -> bool:
        return not self.generators

    def is_transitive(self) -> bool:
        """Whether the generators act transitively on the points."""
        pts = orbit([g.images for g in self.generators], self.degree)
        return pts.order.shape[0] == self.degree

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
        k -> id of (element k) * p on the whole group's ids: p's own image
        array for a group given as regular, whose ids are its points."""
        self._built()
        return self._action.map(p)

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
        root, k = _root(w.letters)
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
        root, k = _root(w.letters)
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
        try:
            k = int(self._action.map(p)[0])
        except ValueError:
            return False
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

    def elements(self, cap: int | None = None) -> list[Permutation]:
        """All elements, in BFS order from the identity (the k-th need not
        have id k); guarded by ``cap``."""
        n = self.order()
        if cap is not None and n > cap:
            raise ValueError(f"group order {n} exceeds cap {cap}")
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

    def derived_subgroup(self) -> "PermGroup":
        """Normal closure of generator commutators within this group."""
        return self._handle(*self._derived(self._letters()))

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
