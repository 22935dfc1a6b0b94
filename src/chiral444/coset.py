"""Todd-Coxeter coset enumeration by the Felsch strategy.

Coset indices are 1-based with coset 1 the subgroup itself.  Tables are
stored flat: entry (coset, signed generator) lives at ``coset*width + col``
where column ``2*i`` is generator ``i`` and ``2*i + 1`` its inverse; row 0
is all zeros.

A partial table is sound: every defined entry is forced by a definition, a
relator deduction, or a coincidence merge, so a trace from coset 1 that
returns 1 proves membership of the traced word in the subgroup.  In a table
of the trivial subgroup each live coset k stands for one group element
u_k, the product along any path of defined entries from coset 1, and an
entry k.g = l is the equation u_k g = u_l.  So there a trace of w from any
live coset k that returns to k proves u_k w = u_k, that is w = 1
(``CosetTable.closing_cosets``).  With a nontrivial subgroup H the same
trace proves only u_k w u_k^-1 in H, which says nothing of w.

Felsch defines the first empty entry in coset order, then queues each entry
it sets and scans, from that entry, the relator rotations that start with
its column (one entry of each inverse pair suffices: the rotations of the
inverse relators walk the same cycles the other way), until nothing more
follows.  It defines cosets in the same order at every cap and stops only
when it would define one past the cap, so a cap leaves the table that any
larger cap passes through after the same definitions, closed under
deduction.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .perms import Permutation
from .words import Presentation, Word


class TableError(RuntimeError):
    """Table misuse or a violated table invariant."""


class _CapHit(Exception):
    pass


# the coset cap of every enumeration, proof and command that is given none
DEFAULT_MAX_COSETS = 1_000_000


@dataclass(frozen=True)
class EnumerationConfig:
    """``max_cosets`` caps the cosets an enumeration defines.  ``strategy``
    accepts only "felsch", the one strategy there is; it stays because the
    benchmark's operations pass it, and can go when they stop (ROADMAP
    item 7)."""

    strategy: str = "felsch"
    max_cosets: int = DEFAULT_MAX_COSETS

    def __post_init__(self):
        if self.max_cosets < 1:
            raise ValueError("max_cosets must be >= 1")
        if self.strategy != "felsch":
            raise ValueError(f"unknown strategy {self.strategy!r}")


def _cols(w: Word) -> tuple[int, ...]:
    return tuple(2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1 for x in w.letters)


class CosetTable:
    """Result of an enumeration; complete tables are compacted and immutable."""

    __slots__ = ("presentation", "subgroup_words", "status", "degree",
                 "definitions", "_tab", "_width", "_live")

    def __init__(self, presentation, subgroup_words, status, tab, width, live, definitions):
        self.presentation = presentation
        self.subgroup_words = tuple(subgroup_words)
        self.status = status  # "complete" | "partial"
        self._tab = tab
        self._width = width
        self._live = live  # sorted list of live coset indices
        self.degree = len(live)
        self.definitions = definitions

    @property
    def is_complete(self) -> bool:
        return self.status == "complete"

    def entry(self, coset: int, letter: int) -> int | None:
        """Image of a live coset under one signed letter, or None."""
        self._check_live(coset)
        col = 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1
        if col >= self._width:
            raise TableError(f"letter {letter} outside the presentation's generators")
        v = self._tab[coset * self._width + col]
        return v if v else None

    def _check_live(self, coset: int):
        if not (1 <= coset <= (len(self._tab) // self._width) - 1):
            raise TableError(f"coset {coset} out of range")
        if self.is_complete:
            return
        i = bisect.bisect_left(self._live, coset)
        if i >= len(self._live) or self._live[i] != coset:
            raise TableError(f"coset {coset} is dead")

    def trace(self, start: int, w: Word) -> int | None:
        """Follow w through defined entries; None as soon as one is missing."""
        self._check_live(start)
        tab, width = self._tab, self._width
        cur = start
        for x in w.letters:
            col = 2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1
            v = tab[cur * width + col]
            if not v:
                return None
            cur = v
        return cur

    def closing_cosets(self, words: Sequence[Word]) -> list[int | None]:
        """For each word w, the least live coset k whose trace of w returns
        to k, or None if there is none: a proof that w = 1 in the presented
        group, with k its witness.  Sound only in a table of the trivial
        subgroup (see the module docstring), so a table with subgroup words
        raises TableError.

        Every live coset is traced at once, one numpy gather per letter; a
        trace that meets a missing entry goes to row 0 and stays there."""
        if self.subgroup_words:
            raise TableError("a closed trace proves a word trivial only in a "
                             "table of the trivial subgroup")
        cols = np.array(self._tab, dtype=np.int32).reshape(-1, self._width).T.copy()
        live = np.array(self._live, dtype=np.int32)
        out = []
        for w in words:
            cur = live
            for col in _cols(w):
                cur = cols[col][cur]
            hit = np.flatnonzero(cur == live)
            out.append(int(live[hit[0]]) if hit.size else None)
        return out

    def audit(self):
        """Check table invariants; raise TableError on any violation."""
        tab, width = self._tab, self._width
        live = set(self._live)
        for c in self._live:
            for col in range(width):
                v = tab[c * width + col]
                if v:
                    if v not in live:
                        raise TableError(f"entry ({c},{col}) points at dead coset {v}")
                    if tab[v * width + (col ^ 1)] != c:
                        raise TableError(f"entry symmetry broken at ({c},{col})")
        if self.is_complete:
            n = self.degree
            for col in range(width):
                images = sorted(tab[c * width + col] for c in self._live)
                if images != list(range(1, n + 1)):
                    raise TableError(f"column {col} is not a permutation")
            for r in self.presentation.relators:
                for c in self._live:
                    if self.trace(c, r) != c:
                        raise TableError(f"relator {r!r} does not close at coset {c}")
            for w in self.subgroup_words:
                if self.trace(1, w) != 1:
                    raise TableError(f"subgroup word {w!r} does not fix coset 1")

    def dump(self) -> str:
        """One line per live coset: index then images per signed generator."""
        lines = []
        tab, width = self._tab, self._width
        for c in self._live:
            row = " ".join(str(tab[c * width + col]) for col in range(width))
            lines.append(f"{c} {row}")
        return "\n".join(lines) + "\n"

    def standardize(self) -> "CosetTable":
        """Renumber cosets into standard (scan-order) form; complete only."""
        if not self.is_complete:
            raise TableError("cannot standardize a partial table")
        tab, width, n = self._tab, self._width, self.degree
        order = [1]
        new = {1: 1}
        qi = 0
        while qi < len(order):
            c = order[qi]
            qi += 1
            base = c * width
            for col in range(width):
                t = tab[base + col]
                if t not in new:
                    new[t] = len(order) + 1
                    order.append(t)
        if len(order) != n:
            raise TableError("table is not connected")
        ntab = [0] * ((n + 1) * width)
        for c in order:
            nbase = new[c] * width
            base = c * width
            for col in range(width):
                ntab[nbase + col] = new[tab[base + col]]
        return CosetTable(self.presentation, self.subgroup_words, "complete",
                          ntab, width, list(range(1, n + 1)), self.definitions)

    def permutation_rep(self) -> list[Permutation]:
        """One permutation of {1..degree} per generator; complete only."""
        if not self.is_complete:
            raise TableError("cannot extract permutations from a partial table")
        tab, width, n = self._tab, self._width, self.degree
        perms = []
        for g in range(width // 2):
            col = 2 * g
            images = np.fromiter(
                (tab[c * width + col] - 1 for c in range(1, n + 1)),
                dtype=np.int32, count=n,
            )
            perms.append(Permutation(images))
        return perms


class _Enumerator:
    def __init__(self, pres: Presentation, subgroup: Sequence[Word], cfg: EnumerationConfig):
        self.W = 2 * pres.ngens
        self.rel_cols = tuple(_cols(r) for r in pres.relators)
        self.sub_cols = tuple(_cols(w.free_reduce()) for w in subgroup)
        self.max_cosets = cfg.max_cosets
        self._zrow = [0] * self.W
        self.tab: list[int] = [0] * (2 * self.W)  # dummy row 0 plus coset 1
        self.p = [0, 1]
        self.n = 1
        self.deds: list[tuple[int, int]] = []  # the entries set, to scan from
        self._q: list[int] = []

    # -- basic operations ------------------------------------------------

    def _rep(self, k: int) -> int:
        p = self.p
        r = p[k]
        if r == k:
            return k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def _define(self, a: int, col: int) -> int:
        if self.n >= self.max_cosets:
            raise _CapHit()
        self.n += 1
        b = self.n
        self.tab.extend(self._zrow)
        self.p.append(b)
        self.tab[a * self.W + col] = b
        self.tab[b * self.W + (col ^ 1)] = a
        self.deds.append((a, col))
        return b

    def _merge(self, x: int, y: int):
        x = self._rep(x)
        y = self._rep(y)
        if x != y:
            if x > y:
                x, y = y, x
            self.p[y] = x
            self._q.append(y)

    def _coincide(self, a: int, b: int):
        tab, W = self.tab, self.W
        q = self._q
        q.clear()
        self._merge(a, b)
        qi = 0
        while qi < len(q):
            g = q[qi]
            qi += 1
            base = g * W
            for col in range(W):
                d = tab[base + col]
                if not d:
                    continue
                tab[base + col] = 0
                ic = col ^ 1
                if tab[d * W + ic] == g:
                    tab[d * W + ic] = 0
                mu = self._rep(g)
                nu = self._rep(d)
                t = tab[mu * W + col]
                if t:
                    self._merge(nu, t)
                else:
                    t2 = tab[nu * W + ic]
                    if t2:
                        self._merge(mu, t2)
                    else:
                        tab[mu * W + col] = nu
                        tab[nu * W + ic] = mu
                        self.deds.append((mu, col))

    def _scan_fill(self, a: int, w: tuple[int, ...]):
        """Scan w from a, defining cosets until the scan closes."""
        tab = self.tab
        W = self.W
        i, j = 0, len(w) - 1
        f = b = a
        while True:
            while i <= j:
                v = tab[f * W + w[i]]
                if not v:
                    break
                f = v
                i += 1
            else:
                if f != b:
                    self._coincide(f, b)
                return
            while j >= i:
                v = tab[b * W + (w[j] ^ 1)]
                if not v:
                    break
                b = v
                j -= 1
            if j < i:
                self._coincide(f, b)
                return
            if j == i:
                col = w[i]
                tab[f * W + col] = b
                tab[b * W + (col ^ 1)] = f
                self.deds.append((f, col))
                return
            self._define(f, w[i])

    @functools.cached_property
    def _rots(self) -> list[list[tuple[tuple[int, ...], tuple[int, ...], int]]]:
        """The distinct rotations of the relators and their inverses, by
        first column: the scans that a deduction at that column can
        complete.  Each is held as its columns, their inverse columns and
        its last index."""
        rots: list[list[tuple[int, ...]]] = [[] for _ in range(self.W)]
        seen: set[tuple[int, ...]] = set()
        for r in self.rel_cols:
            inv = tuple(c ^ 1 for c in reversed(r))
            for w in (r, inv):
                for k in range(len(w)):
                    rot = w[k:] + w[:k]
                    if rot not in seen:
                        seen.add(rot)
                        rots[rot[0]].append(rot)
        return [[(w, tuple(c ^ 1 for c in w), len(w) - 1) for w in sorted(bucket)]
                for bucket in rots]

    def run(self) -> bool:
        """Enumerate until the table closes (True) or the cap is hit (False)."""
        tab, p, W = self.tab, self.p, self.W
        try:
            for w in self.sub_cols:
                if w:
                    self._scan_fill(1, w)
            self._process_deductions()
            a, col = 1, 0
            while True:
                while a <= self.n:
                    if p[a] != a or col >= W:
                        a += 1
                        col = 0
                        continue
                    if tab[a * W + col]:
                        col += 1
                        continue
                    break
                if a > self.n:
                    return True
                self._define(a, col)
                self._process_deductions()
        except _CapHit:
            return False

    def _process_deductions(self):
        """Scan, from each queued entry, the relator rotations that start
        with its column, until the queue is empty.

        A scan of w from g runs forward along w while entries are defined,
        then backward from g along w's inverse.  If the two ends meet, the
        scan closes, and two different end cosets coincide; if one entry is
        missing between them, it is deduced and queued.  The scans run
        inline, the hot loop of every enumeration."""
        tab, W, p, deds, rots = self.tab, self.W, self.p, self.deds, self._rots
        while deds:
            g, col = deds.pop()
            if p[g] != g:
                g = self._rep(g)
            h = tab[g * W + col]
            if not h:
                continue
            for w, winv, last in rots[col]:
                # every rotation here starts with col, whose entry is h
                i, j, f = 1, last, h
                while i <= j:
                    v = tab[f * W + w[i]]
                    if not v:
                        break
                    f = v
                    i += 1
                else:
                    if f != g:
                        self._coincide(f, g)
                        if p[g] != g:
                            break
                        h = tab[g * W + col]
                    continue
                b = g
                while j >= i:
                    v = tab[b * W + winv[j]]
                    if not v:
                        break
                    b = v
                    j -= 1
                if j < i:
                    self._coincide(f, b)
                    if p[g] != g:
                        break
                    h = tab[g * W + col]
                elif j == i:
                    c = w[i]
                    tab[f * W + c] = b
                    tab[b * W + winv[i]] = f
                    deds.append((f, c))


def enumerate_cosets(pres: Presentation, subgroup: Sequence[Word] = (),
                     cfg: EnumerationConfig | None = None) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

    Exhausting the coset cap is not an error: the result is a Partial table
    whose defined entries are still sound.
    """
    cfg = cfg or EnumerationConfig()
    for w in subgroup:
        if w.max_index() >= pres.ngens:
            raise TableError(f"subgroup word {w!r} uses an undeclared generator")
    e = _Enumerator(pres, subgroup, cfg)
    complete = e.run()
    W = e.W
    if complete:
        live = [k for k in range(1, e.n + 1) if e.p[k] == k]
        new = {old: i + 1 for i, old in enumerate(live)}
        n = len(live)
        ntab = [0] * ((n + 1) * W)
        for old in live:
            nbase = new[old] * W
            base = old * W
            for col in range(W):
                v = e.tab[base + col]
                ntab[nbase + col] = new[v] if v else 0
        return CosetTable(pres, subgroup, "complete", ntab, W,
                          list(range(1, n + 1)), e.n)
    live = [k for k in range(1, e.n + 1) if e.p[k] == k]
    return CosetTable(pres, subgroup, "partial", e.tab, W, live, e.n)
