"""Subgroup presentations, abelian invariants, and integer normal forms.

Reidemeister-Schreier rewriting takes a complete coset table and produces a
presentation of the subgroup on Schreier generators.  Abelian invariants go
through an exact Smith normal form; large sparse relator matrices are peeled
by unit pivots first so only a small dense core reaches the cubic algorithm.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .coset import CosetTable, TableError
from .words import Presentation, Word


class IntMatrix:
    """Dense matrix of exact Python integers."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(x) for x in r) for r in data)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        self.data = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]!r})"

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ot = list(zip(*other.data)) if other.data else []
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.data]
        )

    def diagonal(self) -> list[int]:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.det() in (1, -1)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with D = U*M*V diagonal, d_i | d_{i+1}, U,V unimodular.

    Pivots are chosen smallest nonzero absolute value first, ties broken
    row-major, so the decomposition is deterministic.
    """
    a = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        # row_dst += k*row_src
        if k:
            ad, asrc = a[dst], a[src]
            for j in range(nc):
                ad[j] += k * asrc[j]
            ud, usrc = u[dst], u[src]
            for j in range(nr):
                ud[j] += k * usrc[j]

    def add_col(dst, src, k):
        if k:
            for row in a:
                row[dst] += k * row[src]
            for row in v:
                row[dst] += k * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        # smallest nonzero |entry| in the trailing submatrix, row-major ties
        best = None
        pi = pj = -1
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pi, pj = i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if best is None:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, nr):
                x = a[i][t]
                if x:
                    q = x // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, nc):
                x = a[t][j]
                if x:
                    q = x // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if not dirty:
                if all(a[i][t] == 0 for i in range(t + 1, nr)) and all(
                        a[t][j] == 0 for j in range(t + 1, nc)):
                    break
        t += 1

    rank = t
    for i in range(rank):
        if a[i][i] < 0:
            negate_row(i)
    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            d0, d1 = a[i][i], a[i + 1][i + 1]
            if d1 % d0 == 0:
                continue
            changed = True
            add_row(i, i + 1, 1)            # brings d1 into position (i, i+1)
            g = math.gcd(d0, d1)
            # column transform [[x, -d1//g], [y, d0//g]] has determinant 1
            x, y = _bezout(d0, d1)
            ci, cj = i, i + 1
            for row in a:
                r0, r1 = row[ci], row[cj]
                row[ci] = x * r0 + y * r1
                row[cj] = (-(d1 // g)) * r0 + (d0 // g) * r1
            for row in v:
                r0, r1 = row[ci], row[cj]
                row[ci] = x * r0 + y * r1
                row[cj] = (-(d1 // g)) * r0 + (d0 // g) * r1
            # clear the (i+1, i) entry, divisible by the new pivot g
            add_row(i + 1, i, -(a[i + 1][i] // a[i][i]))
            if a[i + 1][i + 1] < 0:
                negate_row(i + 1)
    return IntMatrix(u), IntMatrix(a), IntMatrix(v)


def _bezout(p: int, q: int) -> tuple[int, int]:
    """(x, y) with x*p + y*q = gcd(p, q)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while q:
        k, p, q = p // q, q, p % q
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return x0, y0


def sublattice_index(b: IntMatrix) -> int | None:
    """Index of the sublattice spanned by the rows of a 2x2 basis in Z^2.

    Returns None for a degenerate (infinite-index) basis.
    """
    if (b.rows, b.cols) != (2, 2):
        raise ValueError("expected a 2x2 basis matrix")
    d = b.det()
    return abs(d) if d else None


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

    def rewrite_to_ambient(self, w: Word) -> Word:
        """Spell a subgroup word in the ambient generators."""
        defs = [d for _, d in self.schreier_generators]
        out = Word()
        for x in w.letters:
            d = defs[abs(x) - 1]
            out = out * (d if x > 0 else d.inverse())
        return out


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
    core = IntMatrix([[rows[rid].get(c, 0) for c in live_cols]
                      for rid in sorted(rows)])
    if core.rows and core.cols:
        _, d, _ = smith_normal_form(core)
        diag = [x for x in d.diagonal() if x]
    else:
        diag = []
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


def is_commutator_relator(w: Word) -> bool:
    """True when w is g^e h^f g^-e h^-f for distinct generators, e,f = +-1."""
    ls = w.letters
    if len(ls) != 4:
        return False
    a, b, c, d = ls
    return abs(a) != abs(b) and c == -a and d == -b


class _TietzeState:
    def __init__(self, ngens: int, relators: Sequence[Word]):
        self.ngens = ngens
        self.alive = [True] * ngens
        self.elim: dict[int, list[int]] = {}  # gen index -> replacement letters
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
        self.elim[g] = replacement
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


def _tietze_core(ngens: int, relators: Sequence[Word], budget: int) -> _TietzeState:
    st = _TietzeState(ngens, relators)

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
    return st


def tietze_simplify(sp: SubgroupPresentation, budget: int = 100_000) -> SubgroupPresentation:
    """Deterministic budgeted Tietze simplification.

    Moves: eliminate a generator with a single occurrence in some relator,
    drop relators that reduce to nothing or duplicate another, and shorten a
    relator against a strictly shorter one sharing a long cyclic subword.
    The result presents the same group.
    """
    st = _tietze_core(len(sp.schreier_generators), sp.relators, budget)

    survivors = [i for i in range(st.ngens) if st.alive[i]]
    new_index = {g: k for k, g in enumerate(survivors)}
    names = []
    defs = []
    for k, g in enumerate(survivors):
        label, definition = sp.schreier_generators[g]
        names.append(label)
        defs.append((label, definition))
    relators = []
    for rid in sorted(st.rels):
        letters = st.rels[rid]
        relators.append(Word([
            (new_index[abs(x) - 1] + 1) * (1 if x > 0 else -1) for x in letters
        ]))
    pres = Presentation(names, relators)
    return SubgroupPresentation(sp.base, tuple(defs), pres)


def simplify_presentation(p: Presentation, budget: int = 100_000) -> Presentation:
    """Tietze simplification for a plain presentation (generators may drop)."""
    st = _tietze_core(p.ngens, p.relators, budget)
    survivors = [i for i in range(p.ngens) if st.alive[i]]
    new_index = {g: k for k, g in enumerate(survivors)}
    names = [p.generators[g].name for g in survivors]
    relators = [
        Word([(new_index[abs(x) - 1] + 1) * (1 if x > 0 else -1) for x in st.rels[rid]])
        for rid in sorted(st.rels)
    ]
    return Presentation(names, relators)
