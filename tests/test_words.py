import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from chiral444.families import family_presentation

from chiral444.words import (ParseError, Presentation, PresentationError, Word,
                             commutator, parse_presentation, substitute,
                             word_str)


def test_parse_power_expansion():
    p = parse_presentation("gens a,b,c; rels (a*b)^2;")
    assert p.relators[0].letters == (1, 2, 1, 2)


def test_parse_commutator_relator():
    # generators declared in the order a, c, b
    p = parse_presentation("gens a,c,b; rels [a,c^-1]*b^2;")
    assert p.relators[0].letters == (-1, 2, 1, -2, 3, 3)


def test_parse_empty_relator_rejected():
    with pytest.raises(ParseError, match="empty relator"):
        parse_presentation("gens a; rels a^4*a^-4;")


def test_parse_zero_power_inside_product():
    p = parse_presentation("gens a,b; rels a^0*b;")
    assert p.relators[0].letters == (2,)


def test_parse_unknown_generator():
    with pytest.raises(ParseError, match="unknown generator"):
        parse_presentation("gens a; rels a*q;")


def test_parse_error_location():
    try:
        parse_presentation("gens a;\nrels a*;")
    except ParseError as exc:
        assert exc.line == 2
    else:
        pytest.fail("expected a parse error")


def test_parse_rejects_unicode():
    with pytest.raises(ParseError):
        parse_presentation("gens α; rels α^2;")


def test_parse_comments_and_multiple_statements():
    p = parse_presentation("""
    # two statements, comments allowed
    gens a, b;
    rels a^2;  # trailing comment
    rels b^3;
    """)
    assert p.names == ("a", "b")
    assert len(p.relators) == 2


def test_free_reduce_examples():
    assert Word((1, -1, 2)).free_reduce() == Word((2,))
    assert Word(()).free_reduce() == Word(())
    assert Word((1, 2, -2, -1, 3)).free_reduce() == Word((3,))


def test_invert_examples():
    assert Word((1, 2, 3)).inverse() == Word((-3, -2, -1))
    assert Word(()).inverse() == Word(())
    x = Word((1, -3)) ** 4  # (a c^-1)^4
    assert x.inverse() == Word((3, -1)) ** 4


def test_expand_examples():
    p = parse_presentation("gens a,b,c;")
    x = p.parse_word("(a*c^-1)^4")
    assert x.letters == (1, -3) * 4
    assert p.parse_word("(a*b)^0") == Word(())
    assert p.parse_word("[a,c^-1]").letters == (-1, 3, 1, -3)


def test_commutator_definition():
    u, v = Word((1,)), Word((2,))
    assert commutator(u, v).letters == (-1, -2, 1, 2)


letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
words = st.lists(letters, max_size=24).map(Word)


@given(words)
def test_free_reduce_idempotent(w):
    r = w.free_reduce()
    assert r.free_reduce() == r
    assert r.is_reduced()


@given(words)
def test_word_times_inverse_is_trivial(w):
    assert Word(w.letters + w.inverse().letters).free_reduce() == Word(())
    assert len(w.inverse()) == len(w)


@given(words, words)
def test_product_respects_reduction(w1, w2):
    assert w1.free_reduce() * w2.free_reduce() == Word(w1.letters + w2.letters).free_reduce()


@given(words, st.integers(min_value=-5, max_value=5))
def test_power_matches_repeated_product(w, n):
    expected = Word(())
    step = w if n >= 0 else w.inverse()
    for _ in range(abs(n)):
        expected = expected * step
    assert w ** n == expected.free_reduce() == expected


def test_substitute_homomorphism():
    images = [Word((2, 2)), Word((-1,))]
    w1, w2 = Word((1, 2)), Word((-2, 1))
    lhs = substitute(w1 * w2, images)
    rhs = substitute(w1, images) * substitute(w2, images)
    assert lhs == rhs


def test_presentation_validation():
    with pytest.raises(PresentationError):
        Presentation(["a", "a"], [])
    with pytest.raises(PresentationError):
        Presentation(["1bad"], [])
    with pytest.raises(PresentationError):
        Presentation(["a"], [Word(())])
    with pytest.raises(PresentationError):
        Presentation(["a"], [Word((2,))])  # undeclared generator


def test_extended_reduces_and_checks_only_the_added_relators():
    p = Presentation(["a", "b"], [Word((1, 2, 2, -1)), Word((1, 1))])
    extra = [Word((2, 1, -1, 1, -2)), Word((-2, 1, 2))]
    q = p.extended(extra)
    assert q == Presentation(["a", "b"], list(p.relators) + extra)
    assert q.relators[:2] == p.relators and q.relators[2:] == (Word((1,)), Word((1,)))
    with pytest.raises(PresentationError):
        p.extended([Word((1, -1))])  # empty relator after reduction
    with pytest.raises(PresentationError):
        p.extended([Word((3,))])  # undeclared generator


def test_relators_stored_cyclically_reduced():
    p = Presentation(["a", "b"], [Word((1, 2, 2, -1))])
    assert p.relators[0].letters == (2, 2)


def test_render_round_trip():
    text = """
    gens a, b, c;
    rels a^4, (a*b)^2, a^2*c^2*b^2*(a*c)^2, [a,c^-1]*b^2;
    """
    p = parse_presentation(text)
    assert parse_presentation(p.render()) == p


@given(st.lists(st.lists(letters, min_size=1, max_size=10), max_size=6))
def test_render_round_trip_random(relator_letters):
    try:
        p = Presentation(["a", "b", "c", "d"], [Word(ls) for ls in relator_letters])
    except PresentationError:
        return  # relator reduced to nothing; not renderable content
    assert parse_presentation(p.render()) == p


def test_word_str_syllables():
    assert word_str(Word((1, 1, 1, -2)), ["a", "b"]) == "a^3*b^-1"
    assert word_str(Word(()), ["a"]) == "a^0"
    # a power merges the syllables across each seam of its root
    assert word_str(Word((1, 2, 1)) ** 3, "ab") == "a*b*a^2*b*a^2*b*a"
    assert word_str(Word((-1, 2, -1)) ** -2, "ab") == "a*b^-1*a^2*b^-1*a"
    assert word_str(Word((-2,)) ** 5, "ab") == "b^-5"


def _spelt_str(letters, names):
    """The letter-by-letter rendering of a spelt-out word."""
    return "*".join(names[abs(x) - 1] if x > 0 and len(run) == 1
                    else f"{names[abs(x) - 1]}^{len(run) if x > 0 else -len(run)}"
                    for x, run in ((x, list(g)) for x, g in itertools.groupby(letters)))


@pytest.mark.parametrize("family", ["P", "Q"])
@pytest.mark.parametrize("m", range(1, 7))
def test_family_relators_hash_and_render_as_spelt_out(family, m):
    pres = family_presentation(family, m)
    for r in pres.relators:
        flat = Word(r.letters)
        assert hash(r) == hash(flat) and flat in {r}
        assert pres.word_str(r) == pres.word_str(flat) == _spelt_str(r.letters, pres.names)


def test_large_power_hashes_and_renders_from_its_root():
    # u^k is hashed through (u, k), so the seed relators of Q at m = 2^20
    # are not spelt out (2^23 letters, a 64 MiB tuple); it is rendered by
    # repeating u's rendering
    p = family_presentation("Q", 2 ** 20)
    tracemalloc.start()
    try:
        hash(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    w = Word((2, -3)) ** 2 ** 16
    assert w._letters is None and word_str(w, "abc") == "*".join(["b*c^-1"] * 2 ** 16)


@given(words, st.integers(min_value=-6, max_value=6))
def test_power_words_act_as_their_letters(w, n):
    # a power of a cyclically reduced word is held as a root and exponent;
    # every method gives what the spelt-out word gives
    u = w.cyclic_reduce()
    p = u ** n
    flat = Word(p.letters)
    assert p == flat and flat == p and hash(p) == hash(flat)
    assert len(p) == len(flat) and bool(p) == bool(flat) and list(p) == list(flat)
    assert p.as_power() == flat.as_power() == Word(p.letters).as_power()
    assert p.is_reduced() and p.free_reduce() == flat and p.cyclic_reduce() == flat
    assert p.inverse() == flat.inverse() and p.max_index() == flat.max_index()
    assert p * u == flat * u and u * p == u * flat
    assert (p ** 3) == Word(flat.letters * 3).free_reduce()
    if flat:
        assert word_str(p, "abcd") == word_str(flat, "abcd")
    if abs(n) >= 2 and u:
        root, k = u.as_power()
        assert p.as_power() == ((root if n > 0 else Word(root).inverse().letters), k * abs(n))


def test_large_power_is_not_spelt_out():
    u = Word((1, -3))
    p = u ** (4 * 2 ** 20)
    assert p._letters is None and len(p) == 2 ** 23
    assert p.as_power() == ((1, -3), 2 ** 22)
    assert p.inverse().as_power() == ((3, -1), 2 ** 22)
    assert p == Word((3, -1)) ** -(2 ** 22) and p != u ** (4 * 2 ** 20 - 1)
    assert Presentation(["a", "b", "c"], [p]).relators[0] is p
