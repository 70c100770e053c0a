import itertools

import pytest
from hypothesis import given, strategies as st

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

from oracles import tietze_simplify_reference


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


def test_parse_rejects_bad_names():
    with pytest.raises(ValueError):
        parse_presentation("ab,c|")
    with pytest.raises(ValueError):
        parse_presentation("a,a|")
    with pytest.raises(ValueError):
        parse_presentation("a|ax")
    with pytest.raises(ValueError):
        parse_presentation("a,b")


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


@given(small_presentations(), st.sampled_from([1, 2, 3, 10000]))
def test_simplify_matches_reference_loop(p, budget):
    # budgets 1-3 stop the loop early; the partial result is renumbered too
    assert tietze_simplify(p, budget) == tietze_simplify_reference(p, budget)


@pytest.mark.parametrize("build", [
    lambda: torus_9(),
    lambda: projective_plane_6(),
    lambda: realize_boundary(parse_presentation("g|g"), 4),
], ids=["torus_9", "projective_plane_6", "M(g|g)"])
def test_simplify_matches_reference_loop_on_edge_path_presentations(build):
    p = edge_path_presentation(build())
    got = tietze_simplify(p)
    assert got == tietze_simplify_reference(p)
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
