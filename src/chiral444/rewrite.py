"""Reidemeister-Schreier rewriting, Tietze simplification and abelian invariants.

Reidemeister-Schreier rewriting takes a complete coset table and produces a
presentation of the subgroup on Schreier generators; Tietze moves shorten
it, and its abelian invariants come from exact integer elimination: the
sparse relator matrix is peeled by unit pivots first, so only a small dense
core reaches the diagonal elimination of ``_invariant_factors``.

No pipeline step calls this module.  It is kept only because the
benchmark's ``structure`` operation (``perfbench/ops.py``) imports
``reidemeister_schreier``, ``tietze_simplify`` and ``abelian_invariants``;
ROADMAP item 7 deletes it once a benchmark change drops that operation.
Until then the rank-two tests use it as evidence for the fact the
construction rests on, that N = <x, y> in U is free abelian of rank two.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from .coset import CosetTable, TableError
from .words import Presentation, Word


def _invariant_factors(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix, in divisibility order.

    Pivot on an entry of smallest absolute value, ties row-major, reduce its
    column by row operations and its row by column operations, and split the
    pivot off once both are clear; a remainder left behind is a smaller
    pivot for the next step.  The diagonal this leaves presents the same
    group when each pair (a, b) on it becomes (gcd, lcm), which puts it in
    divisibility order.
    """
    a = [list(r) for r in rows if any(r)]
    diag: list[int] = []
    while a:
        _, pi, pj = min((abs(x), i, j) for i, r in enumerate(a)
                        for j, x in enumerate(r) if x)
        prow = a[pi]
        p = prow[pj]
        for i, r in enumerate(a):
            if i != pi and r[pj]:
                q = r[pj] // p
                for j, x in enumerate(prow):
                    r[j] -= q * x
        for j in range(len(prow)):
            if j != pj and prow[j]:
                q = prow[j] // p
                for r in a:
                    r[j] -= q * r[pj]
        if sum(map(bool, prow)) > 1 or sum(bool(r[pj]) for r in a) > 1:
            continue
        diag.append(abs(p))
        a = [r[:pj] + r[pj + 1:] for i, r in enumerate(a) if i != pi]
        a = [r for r in a if any(r)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = math.gcd(diag[i], diag[j]), math.lcm(diag[i], diag[j])
    return diag


@dataclass(frozen=True)
class SubgroupPresentation:
    """A subgroup presentation on Schreier generators.

    ``schreier_generators`` pairs each subgroup generator label with its
    defining word in the ambient group's generators.
    """

    base: Presentation
    schreier_generators: tuple[tuple[str, Word], ...]
    presentation: Presentation

    @property
    def relators(self) -> tuple[Word, ...]:
        return self.presentation.relators


def reidemeister_schreier(pres: Presentation, table: CosetTable) -> SubgroupPresentation:
    """Presentation of the subgroup a complete coset table was built for.

    The Schreier transversal is chosen breadth-first from coset 1; one
    generator arises per table edge outside the spanning tree, and the
    relators are the rewritten conjugates of the ambient relators, freely
    reduced, with trivial ones dropped.
    """
    if not table.is_complete:
        raise TableError("Reidemeister-Schreier needs a complete table")
    if table.presentation is not pres and table.presentation != pres:
        raise ValueError("table was not enumerated against this presentation")
    n = table.degree
    ngens = pres.ngens

    # breadth-first spanning tree over signed edges, coset 1 at the root
    transversal: dict[int, Word] = {1: Word()}
    tree_edges: set[tuple[int, int]] = set()  # (coset, positive gen index) edges
    queue = [1]
    qi = 0
    while qi < len(queue):
        c = queue[qi]
        qi += 1
        for letter in [s * g for g in range(1, ngens + 1) for s in (1, -1)]:
            t = table.entry(c, letter)
            if t is not None and t not in transversal:
                transversal[t] = transversal[c] * Word((letter,))
                if letter > 0:
                    tree_edges.add((c, letter - 1))
                else:
                    tree_edges.add((t, -letter - 1))
                queue.append(t)
    if len(transversal) != n:
        raise TableError("coset table is not connected")

    # Schreier generators: one per non-tree positive edge
    gen_of_edge: dict[tuple[int, int], int] = {}
    labels: list[tuple[str, Word]] = []
    for c in range(1, n + 1):
        for g in range(ngens):
            if (c, g) in tree_edges:
                continue
            t = table.entry(c, g + 1)
            definition = (transversal[c] * Word((g + 1,)) * transversal[t].inverse())
            k = len(labels)
            gen_of_edge[(c, g)] = k
            labels.append((f"s{k + 1}", definition))

    def rewrite(start: int, w: Word) -> Word:
        letters: list[int] = []
        c = start
        for x in w.letters:
            if x > 0:
                e = (c, x - 1)
                if e not in tree_edges:
                    letters.append(gen_of_edge[e] + 1)
                c = table.entry(c, x)
            else:
                t = table.entry(c, x)
                e = (t, -x - 1)
                if e not in tree_edges:
                    letters.append(-(gen_of_edge[e] + 1))
                c = t
        return Word(letters).free_reduce()

    relators = []
    for c in range(1, n + 1):
        for r in pres.relators:
            w = rewrite(c, r)
            if w:
                relators.append(w)
    sub_pres = Presentation([lbl for lbl, _ in labels], relators)
    return SubgroupPresentation(pres, tuple(labels), sub_pres)


def abelian_invariants(p: Presentation | SubgroupPresentation) -> tuple[int, ...]:
    """Invariant factors of the abelianization, 0 marking infinite factors.

    Nontrivial finite factors come first in divisibility order, then one 0
    per infinite factor.
    """
    pres = p.presentation if isinstance(p, SubgroupPresentation) else p
    ngens = pres.ngens
    rows: dict[int, dict[int, int]] = {}
    for rid, r in enumerate(pres.relators):
        vec: dict[int, int] = {}
        for x in r.letters:
            i = abs(x) - 1
            vec[i] = vec.get(i, 0) + (1 if x > 0 else -1)
        vec = {k: v for k, v in vec.items() if v}
        if vec:
            rows[rid] = vec
    col_rows: dict[int, set[int]] = {}
    for rid, vec in rows.items():
        for c in vec:
            col_rows.setdefault(c, set()).add(rid)

    # peel unit pivots: unimodular moves that split off invariant factor 1.
    # The pivot row is the shortest row with a unit entry, ties to the lower
    # row id, taken from a heap of (length, row id) entries: a row is pushed
    # again whenever it changes, and an entry whose length is stale, whose
    # row is gone or has no unit entry is dropped when popped (a row without
    # one only gains one by changing, which pushes it again).
    units = 0
    heap = [(len(vec), rid) for rid, vec in rows.items()]
    heapq.heapify(heap)
    while heap:
        length, prid = heapq.heappop(heap)
        prow = rows.get(prid)
        if prow is None or len(prow) != length:
            continue
        unit_cols = [c for c, val in prow.items() if abs(val) == 1]
        if not unit_cols:
            continue
        pc = min(unit_cols)
        del rows[prid]
        sign = prow[pc]
        for c in prow:
            col_rows[c].discard(prid)
        for rid in list(col_rows.get(pc, ())):
            row = rows[rid]
            k = row[pc] * sign  # row -= k * prow / (sign*sign); sign^2 = 1
            for c, val in prow.items():
                nv = row.get(c, 0) - k * val
                if nv:
                    row[c] = nv
                    col_rows.setdefault(c, set()).add(rid)
                else:
                    row.pop(c, None)
                    col_rows.get(c, set()).discard(rid)
            if row:
                heapq.heappush(heap, (len(row), rid))
            else:
                del rows[rid]
        units += 1

    live_cols = sorted(set().union(*rows.values()) if rows else set())
    diag = _invariant_factors([[rows[rid].get(c, 0) for c in live_cols]
                               for rid in sorted(rows)])
    rank = units + len(diag)
    finite = tuple(x for x in diag if x > 1)
    return finite + (0,) * (ngens - rank)


def _canonical_cyclic(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation of the word or its inverse, for duplicate detection."""
    if not letters:
        return letters
    best = None
    for w in (letters, tuple(-x for x in reversed(letters))):
        for k in range(len(w)):
            rot = w[k:] + w[:k]
            if best is None or rot < best:
                best = rot
    return best


class _TietzeState:
    def __init__(self, ngens: int, relators: Sequence[Word]):
        self.ngens = ngens
        self.alive = [True] * ngens
        self.rels: dict[int, list[int]] = {}
        self.occ: dict[int, set[int]] = {i: set() for i in range(ngens)}
        self.gen_count = [0] * ngens
        self.seen: set[tuple[int, ...]] = set()
        self.moves = 0
        self._next_rid = 0
        for r in relators:
            self._insert(list(r.cyclic_reduce().letters))

    def _insert(self, letters: list[int]):
        letters = self._cyc_reduce(letters)
        if not letters:
            return
        key = _canonical_cyclic(tuple(letters))
        if key in self.seen:
            return
        self.seen.add(key)
        rid = self._next_rid
        self._next_rid += 1
        self.rels[rid] = letters
        for x in letters:
            self.gen_count[abs(x) - 1] += 1
        for x in set(map(abs, letters)):
            self.occ[x - 1].add(rid)

    @staticmethod
    def _cyc_reduce(letters: list[int]) -> list[int]:
        out: list[int] = []
        for x in letters:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        while len(out) >= 2 and out[0] == -out[-1]:
            out = out[1:-1]
        return out

    def _remove(self, rid: int):
        letters = self.rels.pop(rid)
        for x in letters:
            self.gen_count[abs(x) - 1] -= 1
        for x in set(map(abs, letters)):
            self.occ[x - 1].discard(rid)

    def substitute_generator(self, g: int, replacement: list[int]):
        """Replace generator g (0-based) everywhere; g must not occur in
        the replacement."""
        self.alive[g] = False
        inv = [-x for x in reversed(replacement)]
        for rid in list(self.occ[g]):
            letters = self.rels[rid]
            self._remove(rid)
            out: list[int] = []
            for x in letters:
                if abs(x) - 1 == g:
                    out.extend(replacement if x > 0 else inv)
                else:
                    out.append(x)
            self._insert(out)


def tietze_simplify(sp: SubgroupPresentation, budget: int = 100_000) -> SubgroupPresentation:
    """Deterministic budgeted Tietze simplification.

    Moves: eliminate a generator with a single occurrence in some relator,
    drop relators that reduce to nothing or duplicate another, and shorten a
    relator against a strictly shorter one sharing a long cyclic subword.
    The result presents the same group.
    """
    st = _TietzeState(len(sp.schreier_generators), sp.relators)

    def elimination_round() -> bool:
        """Collect all single-occurrence candidates once, apply greedily."""
        candidates = []
        for rid, letters in st.rels.items():
            counts: dict[int, int] = {}
            for x in letters:
                g = abs(x) - 1
                counts[g] = counts.get(g, 0) + 1
            for g, cnt in counts.items():
                if cnt == 1:
                    cost = (len(letters) - 1) * (st.gen_count[g] - 1)
                    candidates.append((cost, len(letters), rid, g))
        candidates.sort()
        applied = False
        for _, _, rid, g in candidates:
            if st.moves >= budget:
                break
            # a changed relator gets a fresh rid, so presence means unchanged
            if rid not in st.rels or not st.alive[g]:
                continue
            letters = st.rels[rid]
            pos = next(i for i, x in enumerate(letters) if abs(x) - 1 == g)
            rot = letters[pos + 1:] + letters[:pos]
            sign = letters[pos]
            # relator reads (rot) * g^sign = 1, so g^sign = rot^-1
            repl = [-x for x in reversed(rot)] if sign > 0 else list(rot)
            st._remove(rid)
            st.substitute_generator(g, repl)
            st.moves += 1
            applied = True
        return applied

    def substring_move() -> bool:
        """Shorten some relator against a strictly shorter one; True if done."""
        by_len = sorted(st.rels.items(), key=lambda kv: (len(kv[1]), kv[0]))
        for sid, short in by_len:
            ls = len(short)
            need = ls // 2 + 1
            if need > ls:
                continue
            pats: dict[tuple[int, ...], tuple[int, ...]] = {}
            for w in (tuple(short), tuple(-x for x in reversed(short))):
                dbl = w + w
                for k in range(ls):
                    u = dbl[k:k + need]
                    rest = dbl[k + need:k + ls]
                    pats.setdefault(u, tuple(-x for x in reversed(rest)))
            for rid, letters in by_len:
                if rid == sid or len(letters) < need or len(letters) < ls:
                    continue
                dbl = tuple(letters) + tuple(letters)
                for k in range(len(letters)):
                    u = dbl[k:k + need]
                    if u in pats:
                        repl = pats[u]
                        new = list(repl) + list(dbl[k + need:k + len(letters)])
                        if len(st._cyc_reduce(new)) >= len(letters):
                            continue
                        st._remove(rid)
                        st._insert(new)
                        return True
        return False

    while st.moves < budget:
        if elimination_round():
            continue
        if substring_move():
            st.moves += 1
            continue
        break

    survivors = [g for g in range(st.ngens) if st.alive[g]]
    new_index = {g: k for k, g in enumerate(survivors)}
    defs = tuple(sp.schreier_generators[g] for g in survivors)
    relators = [
        Word([(new_index[abs(x) - 1] + 1) * (1 if x > 0 else -1) for x in st.rels[rid]])
        for rid in sorted(st.rels)
    ]
    return SubgroupPresentation(sp.base, defs, Presentation([lbl for lbl, _ in defs], relators))
