import itertools
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from plmarkov import groups
from plmarkov.complex_core import Complex, validate
from plmarkov.groups import (
    AbelianGroup,
    FinitePresentation,
    abelianization,
    cyclic_reduce,
    edge_path_presentation,
    format_presentation,
    free_reduce,
    inverse_word,
    nontrivial_permutation_image,
    parse_presentation,
    semi_decide_trivial,
    tietze_simplify,
)
from plmarkov.invariants import homology
from plmarkov.markov import realize_boundary
from plmarkov import verdict as vd

from oracles import (abelianization_dense, edge_path_presentation_by_combinations,
                     edge_path_presentation_collapsed, edge_path_presentation_spanning_tree,
                     tietze_simplify_reference, tietze_simplify_scan)
from test_complex_core import small_complexes


# -- words -------------------------------------------------------------

def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -2, 1)) == (1, 1)
    assert free_reduce(()) == ()


def test_cyclic_reduce():
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((-2, 1, 2)) == (1,)
    assert cyclic_reduce((1, 2)) == (1, 2)


def test_inverse_word():
    assert inverse_word((1, -2, 3)) == (-3, 2, -1)


# -- parsing and formatting --------------------------------------------

def test_parse_round_trip():
    p = parse_presentation("a,b|abAB,aa")
    assert p.num_generators == 2
    assert p.relators == ((1, 2, -1, -2), (1, 1))
    assert format_presentation(p) == "a,b|abAB,aa"


def test_parse_no_generators():
    p = parse_presentation("|")
    assert p.num_generators == 0
    assert p.relators == ()


def test_parse_no_relators():
    p = parse_presentation("a,b|")
    assert p.relators == ()


_TOO_MANY_LETTERS = "%d generators: the compact presentation syntax has only 26 letters"


@pytest.mark.parametrize("relators", [(), ((1, -27),)])
def test_format_rejects_more_generators_than_letters(relators):
    assert format_presentation(FinitePresentation(26, ())) == (
        ",".join("abcdefghijklmnopqrstuvwxyz") + "|")
    with pytest.raises(ValueError) as e:
        format_presentation(FinitePresentation(27, relators))
    assert str(e.value) == _TOO_MANY_LETTERS % 27


def test_format_rejects_the_edge_path_presentation_of_m_g_gg():
    p = edge_path_presentation(realize_boundary(parse_presentation("g|gg"), 4))
    assert p.num_generators == 158
    with pytest.raises(ValueError) as e:
        format_presentation(p)
    assert str(e.value) == _TOO_MANY_LETTERS % 158


def test_format_writes_an_empty_relator_with_the_first_generator():
    p = parse_presentation("a|aA,aa")
    assert p.relators == ((), (1, 1))
    assert format_presentation(p) == "a|aA,aa"
    assert format_presentation(FinitePresentation(1, ((),), ("x",))) == "x|xX"
    # with no generator there is nothing to write it with
    with pytest.raises(ValueError) as e:
        format_presentation(FinitePresentation(0, ((),)))
    assert str(e.value) == "an empty relator needs a generator to be written with"


def test_parse_rejects_bad_names():
    with pytest.raises(ValueError):
        parse_presentation("ab,c|")
    with pytest.raises(ValueError):
        parse_presentation("a,a|")
    with pytest.raises(ValueError):
        parse_presentation("a|ax")
    with pytest.raises(ValueError):
        parse_presentation("a,b")


@pytest.mark.parametrize("names, relators, message", [
    (("ab",), (), "generator name 'ab' must be one lowercase letter"),
    (("a", "A"), ((1, 2),), "generator name 'A' must be one lowercase letter"),
    (("a", "a"), (), "repeated generator name"),
])
def test_presentation_rejects_names_the_text_syntax_cannot_write(names, relators, message):
    # each formatted to text that parse_presentation rejects or misreads
    with pytest.raises(ValueError) as e:
        FinitePresentation(len(names), relators, names)
    assert str(e.value) == message


@st.composite
def lettered_presentations(draw):
    """At most 26 generators, named or not; with a generator, relators
    that may free-reduce to the empty word."""
    n = draw(st.integers(min_value=0, max_value=26))
    names = tuple(draw(st.one_of(st.just(()), st.permutations(string.ascii_lowercase)))[:n])
    if n == 0:
        return FinitePresentation(0, (), names)
    letters = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    words = st.lists(letters, max_size=9).map(free_reduce)
    return FinitePresentation(n, tuple(draw(st.lists(words, max_size=6))), names)


@given(lettered_presentations())
@example(FinitePresentation(2, ((1, -2),), ("z", "a")))
@example(FinitePresentation(1, ((1, -1), (1, 1)), ("x",)))
@example(FinitePresentation(2, ((), (2, -1))))
def test_format_then_parse_is_the_identity(p):
    text = format_presentation(p)
    q = parse_presentation(text)
    assert (q.num_generators, q.relators) == (p.num_generators, p.relators)
    assert format_presentation(q) == text


# -- abelianization ----------------------------------------------------

def test_abelianization_table():
    cases = {
        "|": (0, ()),
        "a|a": (0, ()),
        "a|aa": (0, (2,)),
        "a,b|a,b": (0, ()),
        "a,b|ab,b": (0, ()),
        "a,b|abAB": (2, ()),
        "a,b|": (2, ()),
        "a|": (1, ()),
        "a,b|abAB,aa": (0, (2,)),  # Z/2 x Z quotient by a^2: Z/2 + Z
    }
    # last case: relators abAB and aa abelianize to 2a = 0, so Z/2 + Z
    cases["a,b|abAB,aa"] = (1, (2,))
    for text, (rank, torsion) in cases.items():
        ab = abelianization(parse_presentation(text))
        assert (ab.rank, ab.torsion) == (rank, torsion), text


def test_abelian_group_str():
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(2, (2, 4))) == "Z + Z + Z/2 + Z/4"


# -- Tietze simplification ---------------------------------------------

def test_simplify_kills_obvious_trivial_presentations():
    for text in ("a|a", "a,b|ab,b", "a,b|a,b", "a,b,c|aBc,b,c"):
        p, trace = tietze_simplify(parse_presentation(text))
        assert p.num_generators == 0
        assert p.relators == ()
        assert trace


def test_simplify_keeps_torsion():
    p, _ = tietze_simplify(parse_presentation("a|aa"))
    assert p.num_generators == 1
    assert p.relators == ((1, 1),)


def test_simplify_is_deterministic():
    a1 = tietze_simplify(parse_presentation("a,b,c|abc,bc,c"))
    a2 = tietze_simplify(parse_presentation("a,b,c|abc,bc,c"))
    assert a1 == a2


def test_simplify_overlap_shortening():
    # no generator occurs just once, so only overlap rewriting applies;
    # gcd(5, 3) = 1 forces the trivial group
    p, trace = tietze_simplify(parse_presentation("a|aaaaa,aaa"))
    assert p.num_generators == 0
    assert any("shorten" in t for t in trace)


def test_simplify_preserves_abelianization():
    for text in ("a,b|abAB", "a,b|aZ".replace("Z", "a"), "a,b,c|abcABC"):
        p0 = parse_presentation(text)
        p1, _ = tietze_simplify(p0)
        a0, a1 = abelianization(p0), abelianization(p1)
        assert (a0.rank, a0.torsion) == (a1.rank, a1.torsion)


@st.composite
def small_presentations(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    letters = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    words = st.lists(letters, max_size=9) if n else st.just([])
    relators = draw(st.lists(words, max_size=6))
    return FinitePresentation(n, tuple(tuple(r) for r in relators))


@given(small_presentations())
@example(parse_presentation("g|gg"))  # a repeated letter: exponent 2
@example(parse_presentation("a,b|abAB"))  # every exponent cancels: an empty row
@example(parse_presentation("a,b,c|aab,bAbb"))  # c is in no relator
@example(parse_presentation("a,b|aaBaaBaB,bbb,AbbA"))  # exponents 4, -3, 3, -2, 2
def test_abelianization_matches_the_dense_oracle(p):
    assert abelianization(p) == abelianization_dense(p)


def test_abelianization_calls_smith_without_a_pivot_set(monkeypatch):
    calls = []
    smith_diagonal = groups.smith_diagonal

    def recording(*args, **kwargs):
        calls.append((len(args), kwargs))
        return smith_diagonal(*args, **kwargs)

    monkeypatch.setattr(groups, "smith_diagonal", recording)
    abelianization.cache_clear()
    try:
        assert abelianization(parse_presentation("a,b|abAB,aa")) == AbelianGroup(1, (2,))
    finally:
        abelianization.cache_clear()
    assert calls == [(1, {})]


@given(small_presentations(), st.sampled_from([1, 2, 3, 10000]))
def test_simplify_matches_reference_loop(p, budget):
    # budgets 1-3 stop the loop early; the partial result is renumbered too
    assert tietze_simplify(p, budget) == tietze_simplify_reference(p, budget)


@st.composite
def colliding_presentations(draw):
    """Up to 12 relators, each a rotation of a concatenation of a few
    short pieces or of its inverse, so that relators and their rewrites
    often share a key (least rotation of the word or of its inverse)."""
    n = draw(st.integers(1, 4))
    letters = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    pieces = draw(st.lists(st.tuples(letters) | st.tuples(letters, letters)
                           | st.tuples(letters, letters, letters), min_size=1, max_size=3))
    relators = []
    for _ in range(draw(st.integers(0, 12))):
        w = sum(draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=3)), ())
        if draw(st.booleans()):
            w = inverse_word(w)
        k = draw(st.integers(0, len(w) - 1))
        relators.append(w[k:] + w[:k])
    return FinitePresentation(n, tuple(relators))


@given(colliding_presentations(), st.sampled_from([1, 2, 3, 10000]))
@example(FinitePresentation(2, ((1, 2, 1), (2, 1, 1), (-1, -1, -2), (1, -2))), 10000)
def test_simplify_matches_reference_loop_on_colliding_relators(p, budget):
    assert tietze_simplify(p, budget) == tietze_simplify_reference(p, budget)


def _spanning_tree_of_m(text):
    # M(g|g), M(a,b|a,b) and M(a,b|ab,b) collapse to no generator at
    # all, so their Tietze tests take the spanning-tree presentation
    return edge_path_presentation_spanning_tree(realize_boundary(parse_presentation(text), 4))


@pytest.mark.parametrize("build", [
    lambda: edge_path_presentation_spanning_tree(torus_9()),
    lambda: edge_path_presentation_spanning_tree(projective_plane_6()),
    lambda: edge_path_presentation(torus_9()),
    lambda: edge_path_presentation(projective_plane_6()),
    lambda: _spanning_tree_of_m("g|g"),
    lambda: _spanning_tree_of_m("a,b|ab,b"),
], ids=["torus_9", "projective_plane_6", "torus_9-collapsed",
        "projective_plane_6-collapsed", "M(g|g)", "M(a,b|ab,b)"])
def test_simplify_matches_reference_loop_on_edge_path_presentations(build):
    p = build()
    got = tietze_simplify(p)
    assert got == tietze_simplify_reference(p)
    assert got[1]


@settings(max_examples=300)
@given(small_presentations() | colliding_presentations(),
       st.integers(0, 12) | st.just(10000))
def test_simplify_matches_the_scan_oracle(p, budget):
    assert tietze_simplify(p, budget) == tietze_simplify_scan(p, budget)


@pytest.mark.parametrize("text", ["g|g", "g|gg", "a,b|a,b", "a,b|ab,b", "a,b|abAB"])
def test_simplify_matches_the_scan_oracle_on_edge_path_presentations(text):
    if text in ("g|gg", "a,b|abAB"):
        # the collapsed forms keep 158 and 178 generators
        p = edge_path_presentation(realize_boundary(parse_presentation(text), 4))
    else:
        p = _spanning_tree_of_m(text)
    got = tietze_simplify(p)
    assert got == tietze_simplify_scan(p)
    assert got[1]


# -- permutation images and triviality ---------------------------------

ICOSAHEDRAL = "a,b|aa,bbb,ababababab"  # a^2, b^3, (ab)^5: trivial abelianization


def test_perfect_group_has_trivial_abelianization():
    ab = abelianization(parse_presentation(ICOSAHEDRAL))
    assert ab.is_trivial


def test_permutation_image_found_for_perfect_group():
    p = parse_presentation(ICOSAHEDRAL)
    w = nontrivial_permutation_image(p, vd.Budget(50000))
    assert w is not None
    assert w["degree"] <= 5


def test_semi_decide_trivial_corpus():
    expected = {
        "|": "yes",
        "a|a": "yes",
        "a|aa": "no",
        "a,b|a,b": "yes",
        "a,b|ab,b": "yes",
        "a,b|abAB": "no",
        ICOSAHEDRAL: "no",
    }
    for text, status in expected.items():
        v = semi_decide_trivial(parse_presentation(text), budget=100000)
        assert v.status == status, text


def test_semi_decide_unknown_obeys_budget():
    # trivial abelianization, so only the permutation search could say
    # "no"; with a starved budget the answer must be unknown, not a guess
    p = parse_presentation(ICOSAHEDRAL)
    v = semi_decide_trivial(p, budget=4)
    assert v.is_unknown


# -- edge-path presentations -------------------------------------------

def sphere(n):
    return validate(list(itertools.combinations(range(n + 2), n + 1)))


def torus_9():
    facets = []
    for i in range(3):
        for j in range(3):
            a = 3 * i + j
            b = 3 * ((i + 1) % 3) + j
            c = 3 * i + (j + 1) % 3
            d = 3 * ((i + 1) % 3) + (j + 1) % 3
            facets.append([a, b, c])
            facets.append([b, c, d])
    return validate(facets)


def projective_plane_6():
    return validate(
        [
            [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 5, 6],
            [2, 3, 5], [2, 3, 6], [2, 4, 6], [3, 4, 5], [4, 5, 6],
        ]
    )


def test_edge_path_of_circle():
    p = edge_path_presentation(sphere(1))
    assert p.num_generators == 1
    assert p.relators == ()


def test_edge_path_of_sphere_is_trivial():
    p = edge_path_presentation(sphere(2))
    v = semi_decide_trivial(p)
    assert v.is_yes


def test_edge_path_of_torus():
    ab = abelianization(edge_path_presentation(torus_9()))
    assert (ab.rank, ab.torsion) == (2, ())


def test_edge_path_of_projective_plane():
    ab = abelianization(edge_path_presentation(projective_plane_6()))
    assert (ab.rank, ab.torsion) == (0, (2,))


def test_edge_path_of_wedge_of_circles():
    wedge = validate([[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]])
    p = edge_path_presentation(wedge)
    assert p.num_generators == 2
    assert p.relators == ()


def test_edge_path_requires_connected():
    with pytest.raises(ValueError):
        edge_path_presentation(validate([[0, 1], [2, 3]]))


def _presentation_or_error(build, cx):
    try:
        return build(cx)
    except ValueError as exc:
        return str(exc)


@given(small_complexes())
@example(validate([[0, 1], [2, 3]]))
@example(validate([[0, 1, 2], [3]]))
def test_edge_path_matches_the_combinations_oracle(cx):
    assert _presentation_or_error(edge_path_presentation_spanning_tree, cx) == (
        _presentation_or_error(edge_path_presentation_by_combinations, cx))


@given(small_complexes())
@example(validate([[0, 1], [2, 3]]))
@example(torus_9())
@example(projective_plane_6())
def test_edge_path_matches_the_collapse_oracle(cx):
    assert _presentation_or_error(edge_path_presentation, cx) == (
        _presentation_or_error(edge_path_presentation_collapsed, cx))


def test_edge_path_deterministic():
    a = edge_path_presentation(torus_9())
    b = edge_path_presentation(torus_9())
    assert a == b


@st.composite
def small_connected_complexes(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    nf = draw(st.integers(min_value=1, max_value=5))
    facets = []
    for _ in range(nf):
        k = draw(st.integers(min_value=2, max_value=min(4, n)))
        facets.append(
            draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        )
    # force connectivity by chaining consecutive vertices of each facet
    # onto vertex 0 through a path of edges
    used = sorted({v for f in facets for v in f})
    for v in used:
        if v != used[0]:
            facets.append([used[0], v])
    return Complex.generated_by(facets)


@given(small_connected_complexes())
def test_abelianized_edge_path_matches_first_homology(cx):
    p = edge_path_presentation(cx)
    ab = abelianization(p)
    h1 = homology(cx).group(1)
    assert ab.rank == h1.betti
    assert ab.torsion == h1.torsion
