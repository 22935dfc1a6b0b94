import pytest

from chiral444.coset import (CosetTable, EnumerationConfig, TableError,
                             enumerate_cosets)
from chiral444.families import presentation_U, subgroup_seed_words
from chiral444.words import Presentation, Word, parse_presentation

# known finite groups: (source text, subgroup words, expected index)
CORPUS = [
    ("gens a; rels a;", "", 1),
    ("gens a; rels a^4;", "", 4),
    ("gens a; rels a^4;", "a^2", 2),
    ("gens a,b; rels a^2, b^2, (a*b)^3;", "", 6),          # S3
    ("gens a,b; rels a^2, b^2, (a*b)^3;", "a", 3),
    ("gens r,s; rels r^8, s^2, (r*s)^2;", "", 16),          # dihedral
    ("gens r,s; rels r^8, s^2, (r*s)^2;", "s", 8),
    ("gens u,v; rels u^4, v^4, (u*v)^2, (u^2*v^2)^4;", "", 128),
    ("gens x,y; rels x^3, y^3, [x,y];", "", 9),             # C3 x C3
]


def _reversed_generators(p: Presentation, words):
    """``p`` and the subgroup ``words`` with the generators listed in reverse,
    on which Felsch fills the columns, so defines cosets, in another order.
    (The order of the relators does not matter: Felsch scans their
    rotations sorted.)"""
    n = p.ngens

    def flip(w):
        return Word(tuple((n + 1 - abs(x)) * (1 if x > 0 else -1) for x in w.letters))

    return Presentation(p.names[::-1], [flip(r) for r in p.relators]), [flip(w) for w in words]


def _columns_back(t: CosetTable, p: Presentation, words) -> CosetTable:
    """A complete table of ``_reversed_generators(p, words)`` with its
    columns put back in p's generator order."""
    n, W = p.ngens, 2 * p.ngens
    tab = [t._tab[k * W + 2 * (n - 1 - c // 2) + c % 2]
           for k in range(t.degree + 1) for c in range(W)]
    return CosetTable(p, words, "complete", tab, W, list(range(1, t.degree + 1)),
                      t.definitions)


@pytest.mark.parametrize("text,sub,index", CORPUS)
@pytest.mark.parametrize("strategy", ["felsch"])  # the one EnumerationConfig accepts
def test_corpus_indices(text, sub, index, strategy):
    p = parse_presentation(text)
    words = p.parse_words(sub) if sub else []
    t = enumerate_cosets(p, words, EnumerationConfig(strategy=strategy))
    assert t.is_complete
    assert t.degree == index
    t.audit()


@pytest.mark.parametrize("text,sub,index", CORPUS)
def test_corpus_standardized_tables_agree(text, sub, index):
    # the standardized table is the action's, whatever order built it
    p = parse_presentation(text)
    words = p.parse_words(sub) if sub else []
    f = enumerate_cosets(p, words).standardize()
    r = _columns_back(enumerate_cosets(*_reversed_generators(p, words)), p, words)
    r.audit()
    assert r.standardize().dump() == f.dump()


def test_paper_subgroup_indices():
    u = presentation_U()
    for family, index in (("P", 1024), ("Q", 2048)):
        words = subgroup_seed_words(family, 1)
        t = enumerate_cosets(u, list(words))
        assert t.is_complete and t.degree == index
        t.audit()


def test_standardize_agreement_on_index_1024_subgroup():
    u = presentation_U()
    words = list(subgroup_seed_words("P", 1))
    f = enumerate_cosets(u, words)
    r = _columns_back(enumerate_cosets(*_reversed_generators(u, words)), u, words)
    assert f.degree == r.degree == 1024
    assert r.dump() != f.dump()  # two runs that number the cosets apart ...
    assert r.standardize().dump() == f.standardize().dump()  # ... on one action


def test_standardize_idempotent_and_partial_rejected():
    p = parse_presentation("gens a,b; rels a^2, b^2, (a*b)^3;")
    t = enumerate_cosets(p, [])
    s = t.standardize()
    assert s.standardize().dump() == s.dump()
    u = presentation_U()
    partial = enumerate_cosets(u, [], EnumerationConfig(max_cosets=50))
    assert not partial.is_complete
    with pytest.raises(TableError):
        partial.standardize()
    with pytest.raises(TableError):
        partial.permutation_rep()


def test_degree_one_table_standardizes_to_itself():
    p = parse_presentation("gens a; rels a;")
    t = enumerate_cosets(p, [])
    assert t.degree == 1
    assert t.standardize().dump() == t.dump()


def test_partial_status_is_not_an_error():
    u = presentation_U()
    t = enumerate_cosets(u, [], EnumerationConfig(max_cosets=100))
    assert t.status == "partial"
    assert t.definitions == 100
    t.audit()  # symmetry holds on partial tables too


def test_trace_identity_and_subgroup_membership():
    u = presentation_U()
    x, y = subgroup_seed_words("P", 1)
    t = enumerate_cosets(u, [x, y])
    assert t.trace(1, Word(())) == 1
    assert t.trace(1, x) == 1
    assert t.trace(1, y) == 1


def test_trace_partial_returns_none_on_missing_entry():
    u = presentation_U()
    t = enumerate_cosets(u, [], EnumerationConfig(max_cosets=2))
    long_word = u.parse_word("(a*b*c)^50")
    assert t.trace(1, long_word) is None


def test_partial_trace_proves_conjugation_relation():
    u = presentation_U()
    x, y = subgroup_seed_words("P", 1)
    b = u.atom("b")
    word = b.inverse() * x * b * y.inverse()
    verified_at = None
    cap = 2000
    while cap <= 10 ** 6 and verified_at is None:
        t = enumerate_cosets(u, [], EnumerationConfig(max_cosets=cap))
        if t.trace(1, word) == 1:
            verified_at = cap
        cap *= 2
    assert verified_at is not None and verified_at <= 10 ** 6


def test_partial_monotonicity_trace_one_persists():
    # a trace that returns 1 at some cap returns 1 at every larger cap
    u = presentation_U()
    x, y = subgroup_seed_words("P", 1)
    a = u.atom("a")
    word = a.inverse() * x * a * y.inverse()
    caps = [4000, 8000, 16000, 32000, 64000]
    seen_one = False
    for cap in caps:
        t = enumerate_cosets(u, [], EnumerationConfig(max_cosets=cap))
        r = t.trace(1, word)
        if seen_one:
            assert r == 1
        if r == 1:
            seen_one = True
    assert seen_one


def test_closing_cosets_are_the_closed_traces():
    # the all-coset trace in numpy agrees with trace() from every live
    # coset, on a partial table with dead cosets and missing entries
    u = presentation_U()
    t = enumerate_cosets(u, [], EnumerationConfig(max_cosets=2000))
    assert t.degree < t.definitions  # some cosets died
    x, y = subgroup_seed_words("P", 1)
    a, b = u.atom("a"), u.atom("b")
    words = [b.inverse() * x * b * y.inverse(), a.inverse() * x * a * y.inverse(),
             x, x.inverse() * y.inverse() * x * y, Word(())]
    want = [next((k for k in t._live if t.trace(k, w) == k), None) for w in words]
    assert t.closing_cosets(words) == want
    assert want[0] > 1 and want[1] == 1 and want[2] is None and want[4] == 1


def test_closing_cosets_need_the_trivial_subgroup():
    # in a table of H = <a^2>, a^2's trace closes at coset 1, which shows
    # a^2 in H, not a^2 = 1: the all-coset proof refuses such a table
    p = parse_presentation("gens a; rels a^4;")
    t = enumerate_cosets(p, p.parse_words("a^2"))
    assert t.trace(1, p.parse_word("a^2")) == 1
    with pytest.raises(TableError, match="trivial subgroup"):
        t.closing_cosets([p.parse_word("a^2")])
    assert enumerate_cosets(p, []).closing_cosets([p.parse_word("a^2")]) == [None]


def test_permutation_rep_transposition():
    p = parse_presentation("gens a; rels a^2;")
    t = enumerate_cosets(p, [])
    (perm,) = t.permutation_rep()
    assert perm.cycles() == [(1, 2)]


def test_permutation_rep_small_action_degree():
    # index of the two-generator subgroup in the m = 1 member of family P
    from chiral444.families import family_presentation
    g1 = family_presentation("P", 1)
    t = enumerate_cosets(g1, [g1.atom("a"), g1.atom("b")])
    assert t.degree == 8  # 1024 / 128


def test_complete_table_relator_closure():
    p = parse_presentation("gens u,v; rels u^4, v^4, (u*v)^2, (u^2*v^2)^4;")
    t = enumerate_cosets(p, [])
    for r in p.relators:
        for c in range(1, t.degree + 1):
            assert t.trace(c, r) == c


def test_config_validation():
    with pytest.raises(ValueError):
        EnumerationConfig(max_cosets=0)
    with pytest.raises(ValueError):
        EnumerationConfig(strategy="nope")
    with pytest.raises(ValueError):
        EnumerationConfig(strategy="hlt")  # Felsch is the one strategy


def test_subgroup_word_must_fit_presentation():
    p = parse_presentation("gens a; rels a^2;")
    with pytest.raises(TableError):
        enumerate_cosets(p, [Word((2,))])
