"""Todd-Coxeter coset enumeration: HLT with lookahead, and Felsch.

Coset indices are 1-based with coset 1 the subgroup itself.  Tables are
stored flat: entry (coset, signed generator) lives at ``coset*width + col``
where column ``2*i`` is generator ``i`` and ``2*i + 1`` its inverse.

A partial table is sound: every defined entry is forced by a definition, a
relator deduction, or a coincidence merge, so a trace from coset 1 that
returns 1 proves membership of the traced word in the subgroup.

Both strategies deduce the same way.  Felsch queues each entry it sets
and scans, from that entry, the relator rotations that start with its
column (one entry of each inverse pair suffices: the rotations of the
inverse relators walk the same cycles the other way).  HLT's lookahead,
which runs periodically and when the cap is hit, makes one deduction-only
pass over the whole table and then processes the entries that pass set
in that Felsch way, until nothing more follows.  Deductions reach a
unique fixed point whatever their order, so the table a cap leaves is the
same as with whole passes repeated until one changes nothing.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .perms import Permutation
from .words import Presentation, Word

Strategy = Literal["hlt", "felsch"]


class TableError(RuntimeError):
    """Table misuse or a violated table invariant."""


class _CapHit(Exception):
    pass


# the coset cap of every enumeration, proof and command that is given none
DEFAULT_MAX_COSETS = 1_000_000


@dataclass(frozen=True)
class EnumerationConfig:
    strategy: Strategy = "hlt"
    max_cosets: int = DEFAULT_MAX_COSETS

    def __post_init__(self):
        if self.max_cosets < 1:
            raise ValueError("max_cosets must be >= 1")
        if self.strategy not in ("hlt", "felsch"):
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
        self.pres = pres
        self.subgroup = list(subgroup)
        self.cfg = cfg
        self.W = 2 * pres.ngens
        self.rel_cols = tuple(_cols(r) for r in pres.relators)
        self.sub_cols = tuple(_cols(w.free_reduce()) for w in subgroup)
        self.felsch = cfg.strategy == "felsch"
        # whether set entries are queued in ``deds``: always under Felsch,
        # and under HLT while a lookahead runs
        self.record = self.felsch
        self.max_cosets = cfg.max_cosets
        self._zrow = [0] * self.W
        self.tab: list[int] = [0] * (2 * self.W)  # dummy row 0 plus coset 1
        self.p = [0, 1]
        self.n = 1
        self.n_dead = 0
        self.deds: list[tuple[int, int]] = []
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
        if self.record:
            self.deds.append((a, col))
        return b

    def _merge(self, x: int, y: int):
        x = self._rep(x)
        y = self._rep(y)
        if x != y:
            if x > y:
                x, y = y, x
            self.p[y] = x
            self.n_dead += 1
            self._q.append(y)

    def _coincide(self, a: int, b: int):
        tab, W = self.tab, self.W
        q = self._q
        q.clear()
        self._merge(a, b)
        qi = 0
        record = self.record
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
                        if record:
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
                if self.record:
                    self.deds.append((f, col))
                return
            self._define(f, w[i])

    def _scan(self, a: int, w: tuple[int, ...]):
        """Like _scan_fill but never defines; deduces or coincides only."""
        tab = self.tab
        W = self.W
        i, j = 0, len(w) - 1
        f = b = a
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
        elif j == i:
            col = w[i]
            tab[f * W + col] = b
            tab[b * W + (col ^ 1)] = f
            if self.record:
                self.deds.append((f, col))

    # -- strategies --------------------------------------------------------

    def run(self) -> bool:
        if self.felsch:
            return self._run_felsch()
        return self._run_hlt()

    def _run_hlt(self) -> bool:
        p = self.p
        # Periodic lookahead keeps the definition count near the final index:
        # coincidences found early kill whole subtrees of junk cosets before
        # the main scan wastes definitions on them.
        look_mark = self.n
        try:
            for w in self.sub_cols:
                if w:
                    self._scan_fill(1, w)
            a = 1
            while a <= self.n:
                if p[a] == a:
                    for w in self.rel_cols:
                        self._scan_fill(a, w)
                        if p[a] != a:
                            break
                    else:
                        base = a * self.W
                        for col in range(self.W):
                            if not self.tab[base + col]:
                                self._define(a, col)
                    if self.n - look_mark > max(5000, 2 * (self.n - self.n_dead)):
                        self._lookahead()
                        look_mark = self.n
                a += 1
            return True
        except _CapHit:
            self._lookahead()
            return self._closed()

    def _lookahead(self):
        """Deduce without defining until nothing more follows: one pass
        scans every relator from every live coset, and the entries it sets,
        by deduction or coincidence, are then processed Felsch-style
        (``_process_deductions``), which scans only the relator rotations
        through them.  That is the fixed point that whole passes repeated
        until one changes nothing would reach."""
        self.record = True
        a = 1
        while a <= self.n:
            if self.p[a] == a:
                for w in self.rel_cols:
                    self._scan(a, w)
                    if self.p[a] != a:
                        break
            a += 1
        self._process_deductions()
        self.record = self.felsch

    def _closed(self) -> bool:
        """True iff all live rows are full and all relations close."""
        tab, W = self.tab, self.W
        live = [k for k in range(1, self.n + 1) if self.p[k] == k]
        for c in live:
            base = c * W
            for col in range(W):
                if not tab[base + col]:
                    return False
        for w in self.sub_cols:
            if self._trace_raw(1, w) != 1:
                return False
        for r in self.rel_cols:
            for c in live:
                if self._trace_raw(c, r) != c:
                    return False
        return True

    def _trace_raw(self, start: int, w: tuple[int, ...]) -> int | None:
        tab, W = self.tab, self.W
        cur = start
        for col in w:
            v = tab[cur * W + col]
            if not v:
                return None
            cur = v
        return cur

    @functools.cached_property
    def _rots(self) -> list[list[tuple[int, ...]]]:
        """The distinct rotations of the relators and their inverses, by
        first column: the scans that a deduction at that column can
        complete."""
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
        for bucket in rots:
            bucket.sort()
        return rots

    def _run_felsch(self) -> bool:
        try:
            for w in self.sub_cols:
                if w:
                    self._scan_fill(1, w)
            self._process_deductions()
            a, col = 1, 0
            while True:
                while a <= self.n:
                    if self.p[a] != a or col >= self.W:
                        a += 1
                        col = 0
                        continue
                    if self.tab[a * self.W + col]:
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
        with its column, until the queue is empty."""
        deds = self.deds
        rots = self._rots
        while deds:
            g, col = deds.pop()
            if self.p[g] != g:
                g = self._rep(g)
            if not self.tab[g * self.W + col]:
                continue
            for w in rots[col]:
                self._scan(g, w)
                if self.p[g] != g:
                    break


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
