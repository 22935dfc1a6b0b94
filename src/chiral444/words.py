"""Free-group words, finite presentations, and the presentation file format.

Letters of a word are signed integers: ``+k`` is the generator with index
``k-1``, ``-k`` its inverse.  This makes inversion a sign flip and keeps
coset-table tracing branch-free.  Words are value objects; ``*``, ``**`` and
``inverse`` act in the free group and always return freely reduced words
when their operands are freely reduced.

A power u^k of a cyclically reduced word, as ``**`` makes it, is held as
its shortest root and exponent and spelt out only for a consumer that walks
its letters (coset enumeration).  So a family relator (w1)^(4m) costs
O(len(w1)) to build, reduce, hash and keep whatever m is, and the readers
of words (``perms.PermGroup.word_id``, ``word_order``, ``evaluate``, the
voltage cover of ``families``, ``hash`` and ``word_str``) take the root and
exponent from ``Word.as_power``, found once per word object.

Presentation files (``parse_presentation``) are a sequence of statements,
each ended by ``;``: ``gens`` followed by generator names and ``rels``
followed by relator expressions, the items of either separated by ``,``.
A ``#`` starts a comment that runs to the end of its line.  Names start
with a letter, then letters, digits or ``_``.  Expressions read::

    expr := term ("*" term)*
    term := atom ("^" int)?
    atom := name | "(" expr ")" | "[" expr "," expr "]"

where ``int`` may be negative and ``[u, v]`` is the commutator
u^-1 v^-1 u v.  For example ``gens a, b; rels a^4, b^2, (a*b)^2;``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class PresentationError(ValueError):
    """Invalid presentation data: bad names, empty relator, stray indices."""


class ParseError(PresentationError):
    """Syntax or semantic error in presentation text, with 1-based location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    push = out.append
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            push(x)
    return tuple(out)


def _root(letters: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The shortest u with ``letters`` = u^k, and k (u is the empty word and
    k is 1 for the empty word)."""
    n = len(letters)
    r = next((r for r in range(1, n // 2 + 1)
              if n % r == 0 and letters[:r] * (n // r) == letters), n)
    return letters[:r], (n // r if n else 1)


class Word:
    """A word over free-group generators, stored as signed letters.

    A power u^k of a cyclically reduced word u, such as a family relator
    (w1)^(4m), is held as its shortest root and exponent (``as_power``), so
    that it costs O(len(u)) memory whatever k is.  Its letters are spelt out
    only when asked for (``letters``, ``__iter__``); every other method,
    ``==`` and ``hash`` included, gives what the spelt-out word gives.
    """

    __slots__ = ("_letters", "_base", "_exp")

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(letters)
        for x in letters:
            if type(x) is not int or x == 0:
                raise ValueError(f"bad letter {x!r}: letters are nonzero ints")
        self._letters = letters
        self._base = None

    @classmethod
    def _power(cls, root: tuple[int, ...], k: int) -> "Word":
        """u^k for a nonempty, cyclically reduced, primitive root u."""
        w = object.__new__(cls)
        w._letters, w._base, w._exp = None, root, k
        return w

    @property
    def letters(self) -> tuple[int, ...]:
        ls = self._letters
        return ls if ls is not None else self._base * self._exp

    def as_power(self) -> tuple[tuple[int, ...], int]:
        """(u, k) for the shortest u with this word = u^k; for the empty
        word, ((), 1).  Found once per word."""
        if self._base is None:
            self._base, self._exp = _root(self._letters)
        return self._base, self._exp

    def __len__(self) -> int:
        if self._letters is None:
            return len(self._base) * self._exp
        return len(self._letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return False
        if self._letters is not None and other._letters is not None:
            return self._letters == other._letters
        return len(self) == len(other) and self.as_power() == other.as_power()

    def __hash__(self) -> int:
        return hash(self.as_power())

    def __repr__(self) -> str:
        if self._letters is None:
            return f"Word({self._base!r} * {self._exp})"
        return f"Word({self._letters!r})"

    def __bool__(self) -> bool:
        return self._letters is None or bool(self._letters)

    def is_reduced(self) -> bool:
        if self._letters is None:
            return True
        ls = self._letters
        return all(ls[i] != -ls[i + 1] for i in range(len(ls) - 1))

    def free_reduce(self) -> "Word":
        """The unique freely reduced word equal to this one."""
        if self.is_reduced():
            return self
        return Word(_reduce(self._letters))

    def _cyclically_reduced(self) -> bool:
        ls = self._letters
        return ls is None or (self.is_reduced() and (len(ls) < 2 or ls[0] != -ls[-1]))

    def cyclic_reduce(self) -> "Word":
        """Strip cancelling first/last letter pairs (input freely reduced)."""
        if self._cyclically_reduced():
            return self
        ls = list(self.free_reduce().letters)
        while len(ls) >= 2 and ls[0] == -ls[-1]:
            ls = ls[1:-1]
        return Word(ls)

    def inverse(self) -> "Word":
        if self._letters is None:
            return Word._power(tuple(-x for x in reversed(self._base)), self._exp)
        return Word(tuple(-x for x in reversed(self._letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce(self.letters + other.letters))

    def __pow__(self, n: int) -> "Word":
        """The n-th power, freely reduced; held as a root and exponent
        when this word is cyclically reduced and |n| >= 2."""
        if n == 0:
            return Word()
        base = self if n > 0 else self.inverse()
        if abs(n) == 1:
            return base.free_reduce()
        if base and base._cyclically_reduced():
            root, k = base.as_power()
            return Word._power(root, k * abs(n))
        return Word(_reduce(base.letters * abs(n)))

    def max_index(self) -> int:
        """Largest 0-based generator index used, or -1 for the empty word."""
        ls = self._letters if self._letters is not None else self._base
        return max((abs(x) for x in ls), default=0) - 1


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v, freely reduced."""
    return u.inverse() * v.inverse() * u * v


def substitute(w: Word, images: Sequence[Word]) -> Word:
    """Homomorphic image of w given one image word per generator."""
    letters: list[int] = []
    for x in w.letters:
        img = images[abs(x) - 1]
        letters.extend(img.letters if x > 0 else img.inverse().letters)
    return Word(_reduce(letters))


def _relator(w: Word, ngens: int) -> Word:
    """w freely and cyclically reduced, as a relator on ``ngens`` generators."""
    r = w.free_reduce().cyclic_reduce()
    if not r:
        raise PresentationError("empty relator after reduction")
    if r.max_index() >= ngens:
        raise PresentationError(f"relator {w!r} uses an undeclared generator")
    return r


@dataclass(frozen=True)
class Generator:
    name: str
    index: int


class Presentation:
    """Named generators plus relator words.

    Relators are stored freely and cyclically reduced; the empty relator is
    rejected.  Instances are immutable value objects.
    """

    __slots__ = ("generators", "relators")

    def __init__(self, names: Sequence[str], relators: Iterable[Word] = ()):
        seen: set[str] = set()
        gens = []
        for i, name in enumerate(names):
            if not isinstance(name, str) or not name.isascii() or not _NAME_RE.match(name):
                raise PresentationError(f"bad generator name {name!r}")
            if name in seen:
                raise PresentationError(f"duplicate generator name {name!r}")
            seen.add(name)
            gens.append(Generator(name, i))
        self.generators = tuple(gens)
        self.relators = tuple(_relator(w, len(gens)) for w in relators)

    def extended(self, relators: Iterable[Word]) -> "Presentation":
        """This presentation with ``relators`` added after its own.  Its own
        relators are reduced already and are kept as they are; only the
        added ones are reduced and checked."""
        p = object.__new__(Presentation)
        p.generators = self.generators
        p.relators = self.relators + tuple(_relator(w, len(self.generators))
                                           for w in relators)
        return p

    @property
    def ngens(self) -> int:
        return len(self.generators)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and self.names == other.names
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.names, self.relators))

    def __repr__(self) -> str:
        return f"Presentation(gens={'.'.join(self.names)!r}, relators={len(self.relators)})"

    def atom(self, name: str) -> Word:
        """The one-letter word for a named generator."""
        for g in self.generators:
            if g.name == name:
                return Word((g.index + 1,))
        raise PresentationError(f"unknown generator {name!r}")

    def word_str(self, w: Word) -> str:
        return word_str(w, self.names)

    def parse_word(self, text: str) -> Word:
        """Parse one word expression (same grammar as relator expressions)."""
        parser = _Parser(text)
        table = {g.name: g.index for g in self.generators}
        w = parser.parse_expr(table)
        parser.expect_eof()
        return w

    def parse_words(self, text: str) -> list[Word]:
        """Parse a comma-separated list of word expressions."""
        parser = _Parser(text)
        table = {g.name: g.index for g in self.generators}
        words = [parser.parse_expr(table)]
        while parser.peek().text == ",":
            parser.take()
            words.append(parser.parse_expr(table))
        parser.expect_eof()
        return words

    def render(self) -> str:
        """Canonical file-format text; parse_presentation round-trips it."""
        lines = ["gens " + ", ".join(self.names) + ";"]
        if self.relators:
            lines.append("rels " + ", ".join(self.word_str(r) for r in self.relators) + ";")
        return "\n".join(lines) + "\n"


def _syllable(x: int, run: int, names: Sequence[str]) -> str:
    """A run of ``run`` letters x as ``name`` or ``name^e``."""
    name = names[abs(x) - 1]
    e = run if x > 0 else -run
    return name if e == 1 else f"{name}^{e}"


def _syllables(letters: tuple[int, ...], names: Sequence[str]) -> list[str]:
    """Each maximal run of one letter, rendered."""
    parts, i, n = [], 0, len(letters)
    while i < n:
        j = i + 1
        while j < n and letters[j] == letters[i]:
            j += 1
        parts.append(_syllable(letters[i], j - i, names))
        i = j
    return parts


def word_str(w: Word, names: Sequence[str]) -> str:
    """Render a word in the file-format expression syntax: its syllables
    (maximal runs of one letter) as ``name`` or ``name^e``, joined by ``*``.

    A power u^k held as its root is rendered without spelling out its
    letters: u's rendering k times over, where the syllable that ends one
    copy of u and the one that starts the next merge if they are runs of
    the same letter.
    """
    if not w:
        if not names:
            raise ValueError("cannot render the empty word without generators")
        return f"{names[0]}^0"
    if w._letters is not None:
        return "*".join(_syllables(w._letters, names))
    root, k = w.as_power()
    parts = _syllables(root, names)
    x = root[0]
    if len(parts) == 1:  # a primitive root of one syllable is one letter
        return _syllable(x, k, names)
    if x != root[-1]:
        return "*".join(["*".join(parts)] * k)
    head = next(i for i, y in enumerate(root) if y != x)
    tail = next(i for i, y in enumerate(reversed(root)) if y != x)
    seam = "*".join(parts[1:-1] + [_syllable(x, head + tail, names)])
    return "*".join(parts[:1] + [seam] * (k - 1) + parts[1:])


class _Token(NamedTuple):
    kind: str  # NAME, INT, SYM, EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isascii() and ch.isalpha():
            j = i
            while j < n and text[j].isascii() and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
        elif ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
        elif ch in "*^()[],;":
            toks.append(_Token("SYM", ch, line, col))
            col += 1
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_sym(self, sym: str) -> _Token:
        t = self.peek()
        if t.kind != "SYM" or t.text != sym:
            self.error(f"expected {sym!r}, found {t.text!r}" if t.text else f"expected {sym!r}")
        return self.take()

    def expect_eof(self):
        t = self.peek()
        if t.kind != "EOF":
            self.error(f"unexpected trailing input {t.text!r}")

    # expr := term ("*" term)*
    def parse_expr(self, table: dict[str, int]) -> Word:
        w = self.parse_term(table)
        while self.peek().kind == "SYM" and self.peek().text == "*":
            self.take()
            w = w * self.parse_term(table)
        return w

    # term := atom ("^" integer)?
    def parse_term(self, table: dict[str, int]) -> Word:
        w = self.parse_atom(table)
        t = self.peek()
        if t.kind == "SYM" and t.text == "^":
            self.take()
            e = self.peek()
            if e.kind != "INT":
                self.error("expected an integer exponent")
            self.take()
            w = w ** int(e.text)
        return w

    # atom := name | "(" expr ")" | "[" expr "," expr "]"
    def parse_atom(self, table: dict[str, int]) -> Word:
        t = self.peek()
        if t.kind == "NAME":
            self.take()
            if t.text not in table:
                self.error(f"unknown generator {t.text!r}", t)
            return Word((table[t.text] + 1,))
        if t.kind == "SYM" and t.text == "(":
            self.take()
            w = self.parse_expr(table)
            self.expect_sym(")")
            return w
        if t.kind == "SYM" and t.text == "[":
            self.take()
            u = self.parse_expr(table)
            self.expect_sym(",")
            v = self.parse_expr(table)
            self.expect_sym("]")
            return commutator(u, v)
        self.error(f"expected a generator, '(' or '[', found {t.text!r}" if t.text else "unexpected end of input")


def parse_presentation(text: str) -> Presentation:
    """Parse presentation-file source (the grammar is in the module docstring)."""
    parser = _Parser(text)
    names: list[str] = []
    table: dict[str, int] = {}
    relators: list[Word] = []
    while parser.peek().kind != "EOF":
        t = parser.take()
        if t.kind != "NAME" or t.text not in ("gens", "rels"):
            parser.error("expected a 'gens' or 'rels' statement", t)
        if t.text == "gens":
            while True:
                nt = parser.peek()
                if nt.kind != "NAME":
                    parser.error("expected a generator name")
                parser.take()
                if not nt.text.isascii() or not _NAME_RE.match(nt.text):
                    parser.error(f"bad generator name {nt.text!r}", nt)
                if nt.text in table:
                    parser.error(f"duplicate generator name {nt.text!r}", nt)
                table[nt.text] = len(names)
                names.append(nt.text)
                s = parser.peek()
                if s.kind == "SYM" and s.text == ",":
                    parser.take()
                    continue
                parser.expect_sym(";")
                break
        else:
            while True:
                start = parser.peek()
                w = parser.parse_expr(table)
                if not w.free_reduce():
                    parser.error("empty relator after reduction", start)
                relators.append(w)
                s = parser.peek()
                if s.kind == "SYM" and s.text == ",":
                    parser.take()
                    continue
                parser.expect_sym(";")
                break
    return Presentation(names, relators)
