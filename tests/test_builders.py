import math

import pytest
from hypothesis import given, strategies as st

from plmarkov.builders import (
    connected_sum,
    cone,
    ordered_product,
    ordered_product_with_chart,
    presentation_complex,
    reference_manifold,
    simplex_sphere,
    sphere_product,
    standard_simplex,
    staircase,
    suspension,
)
from plmarkov.complex_core import Complex, InvalidComplexError, validate
from plmarkov.groups import (
    abelianization,
    edge_path_presentation,
    parse_presentation,
    semi_decide_trivial,
)
from plmarkov.invariants import betti_numbers, homology

from oracles import (connected_sum_by_glue, iso_exhaustive,
                     ordered_product_with_chart_paths, staircase_by_paths,
                     staircase_cap_triple_loop, staircase_two_column)


# -- simplices and spheres ---------------------------------------------

def test_standard_simplex():
    cx = standard_simplex(3)
    assert cx.f_vector() == (4, 6, 4, 1)
    assert cx.euler_characteristic() == 1


def test_simplex_sphere_f_vector():
    assert simplex_sphere(4).f_vector() == (6, 15, 20, 15, 6)
    assert simplex_sphere(4).euler_characteristic() == 2


def test_sphere_homology():
    for n in (1, 2, 3):
        bn = betti_numbers(simplex_sphere(n))
        assert bn == tuple([1] + [0] * (n - 1) + [1])


# -- cone and suspension -----------------------------------------------

def test_cone_kills_homology():
    cx = cone(simplex_sphere(2))
    assert cx.euler_characteristic() == 1
    assert betti_numbers(cx) == (1, 0, 0, 0)


def test_suspension_shifts_homology():
    susp = suspension(simplex_sphere(1))
    assert susp.is_isomorphic_to(simplex_sphere(2)) or susp.is_closed_pseudomanifold()
    assert betti_numbers(susp) == (1, 0, 1)


def test_suspension_of_sphere_is_octahedral():
    # suspension of the square circle is the octahedron sphere
    square = validate([[0, 1], [1, 2], [2, 3], [0, 3]])
    oct_ = suspension(square)
    assert oct_.f_vector() == (6, 12, 8)
    assert oct_.is_closed_pseudomanifold()
    assert betti_numbers(oct_) == (1, 0, 1)


# -- ordered products --------------------------------------------------

def test_product_of_edges_is_two_triangles():
    sq = ordered_product(standard_simplex(1), standard_simplex(1))
    assert len(sq.facets) == 2
    assert sq.f_vector() == (4, 5, 2)


def test_product_chart_is_dense_and_deterministic():
    cx, chart = ordered_product_with_chart(standard_simplex(1), standard_simplex(2))
    assert sorted(chart.values()) == list(range(6))
    cx2, chart2 = ordered_product_with_chart(standard_simplex(1), standard_simplex(2))
    assert cx == cx2 and chart == chart2


def test_torus_product():
    t = sphere_product(1, 1)
    assert t.f_vector() == (9, 27, 18)
    assert t.euler_characteristic() == 0
    assert betti_numbers(t) == (1, 2, 1)
    assert t.is_closed_pseudomanifold()
    assert t.is_orientable()


def test_circle_times_3_sphere():
    m = sphere_product(1, 3)
    assert len(m.vertices) == 15
    assert len(m.facets) == 60
    assert betti_numbers(m) == (1, 1, 0, 1, 1)
    assert m.is_closed_pseudomanifold()
    assert m.is_orientable()


def test_two_sphere_squared():
    m = sphere_product(2, 2)
    assert betti_numbers(m) == (1, 0, 2, 0, 1)
    assert m.euler_characteristic() == 4
    assert m.is_orientable()


def test_circle_times_2_sphere_top_cells():
    m = ordered_product(simplex_sphere(1), simplex_sphere(3))
    assert len(m.vertices) == 15
    assert len(m.facets) == 60


def test_product_euler_multiplies():
    a = simplex_sphere(2)
    b = standard_simplex(2)
    prod = ordered_product(a, b)
    assert (
        prod.euler_characteristic()
        == a.euler_characteristic() * b.euler_characteristic()
    )


def test_product_with_point_is_identity_shape():
    pt = standard_simplex(0)
    cx = simplex_sphere(2)
    prod = ordered_product(pt, cx)
    assert prod.is_isomorphic_to(cx)


def test_product_boundary_of_square():
    # boundary of the square equals the 4-cycle: two hollow edges
    sq = ordered_product(standard_simplex(1), standard_simplex(1))
    b = sq.boundary()
    assert b.f_vector() == (4, 4)
    assert b.is_closed_pseudomanifold()


@st.composite
def small_complexes(draw):
    labels = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4,
                           unique=True))
    facets = draw(st.lists(
        st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True),
        min_size=1, max_size=3,
    ))
    return Complex.generated_by(facets)


@given(small_complexes(), small_complexes())
def test_product_matches_the_lattice_path_oracle(a, b):
    cx, chart = ordered_product_with_chart(a, b)
    ref, ref_chart = ordered_product_with_chart_paths(a, b)
    assert cx == ref
    assert chart == ref_chart


@given(st.integers(1, 5), st.integers(1, 3), st.randoms(use_true_random=False))
def test_staircase_matches_the_path_oracles(d, k, rnd):
    order = rnd.sample(range(-6, 6), d)
    images = rnd.sample(range(-30, 30), d * k)
    columns = [dict(zip(order, images[c * d : (c + 1) * d])) for c in range(k)]
    cells = list(staircase(columns, order))
    assert len(set(cells)) == len(cells) == math.comb(d + k - 2, k - 1)
    assert set(cells) == staircase_by_paths(columns, order)
    if k == 2:
        assert cells == staircase_two_column(*columns, order)
    if k == 3:
        ordered = set(staircase(columns, sorted(order)))
        lk = Complex([order])
        assert ordered == staircase_cap_triple_loop([columns[:2]], lk, columns[2])


# -- connected sums ----------------------------------------------------

def test_connected_sum_of_2_spheres():
    out = connected_sum(simplex_sphere(2), simplex_sphere(2))
    assert len(out.vertices) == 5
    assert len(out.facets) == 6
    assert out.is_closed_pseudomanifold()
    assert betti_numbers(out) == (1, 0, 1)
    # the 5-vertex 6-triangle sphere is the double pyramid
    bipyramid = suspension(simplex_sphere(1))
    assert iso_exhaustive(out, bipyramid)
    assert out.is_isomorphic_to(bipyramid)


def test_connected_sum_needs_closed_input():
    with pytest.raises(InvalidComplexError):
        connected_sum(standard_simplex(2), standard_simplex(2))


def test_connected_sum_dimension_mismatch():
    with pytest.raises(InvalidComplexError):
        connected_sum(simplex_sphere(2), simplex_sphere(3))


def test_connected_sum_betti_adds_in_middle():
    t = sphere_product(1, 1)
    two_holed = connected_sum(t, t)
    assert betti_numbers(two_holed) == (1, 4, 1)
    assert two_holed.euler_characteristic() == -2
    assert two_holed.is_orientable()


RP2_6 = Complex([
    [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 5, 6],
    [2, 3, 5], [2, 3, 6], [2, 4, 6], [3, 4, 5], [4, 5, 6],
])

# closed pseudomanifolds by dimension, orientable and not
SUMMANDS = {
    1: [simplex_sphere(1), validate([[0, 1], [1, 2], [2, 3], [0, 3]])],
    2: [simplex_sphere(2), sphere_product(1, 1), RP2_6,
        suspension(simplex_sphere(1))],
    3: [simplex_sphere(3), sphere_product(1, 2)],
}


def _scatter(cx, rnd):
    """cx under a random injective relabelling, negative labels too."""
    img = rnd.sample(range(-40, 40), len(cx.vertices))
    return cx.relabeled(dict(zip(cx.vertices, img)))


@given(st.sampled_from(sorted(SUMMANDS)), st.randoms(use_true_random=False))
def test_connected_sum_matches_the_glue_oracle(dim, rnd):
    a = _scatter(rnd.choice(SUMMANDS[dim]), rnd)
    b = _scatter(rnd.choice(SUMMANDS[dim]), rnd)
    assert connected_sum(a, b) == connected_sum_by_glue(a, b)


def test_reference_manifold_invariants():
    r0 = reference_manifold(0, 4)
    assert r0.is_isomorphic_to(simplex_sphere(4))
    r1 = reference_manifold(1, 4)
    assert betti_numbers(r1) == (1, 0, 2, 0, 1)
    r2 = reference_manifold(2, 4)
    assert r2.euler_characteristic() == 6
    prof = homology(r2)
    assert prof.betti_numbers() == (1, 0, 4, 0, 1)
    assert all(g.torsion == () for g in prof.groups)
    assert r2.is_closed_pseudomanifold()
    assert r2.is_orientable()


def test_reference_manifold_in_dimension_5():
    r1 = reference_manifold(1, 5)
    assert betti_numbers(r1) == (1, 0, 1, 1, 0, 1)
    assert r1.euler_characteristic() == 0


# -- presentation complexes --------------------------------------------

def test_presentation_complex_no_generators():
    cx = presentation_complex(parse_presentation("|"))
    assert len(cx.vertices) == 1


def test_presentation_complex_free_group():
    cx = presentation_complex(parse_presentation("a,b|"))
    p = edge_path_presentation(cx)
    ab = abelianization(p)
    assert (ab.rank, ab.torsion) == (2, ())


def test_presentation_complex_cyclic_2():
    cx = presentation_complex(parse_presentation("a|aa"))
    ab = abelianization(edge_path_presentation(cx))
    assert (ab.rank, ab.torsion) == (0, (2,))
    h1 = homology(cx).group(1)
    assert (h1.betti, h1.torsion) == (0, (2,))


def test_presentation_complex_trivializable():
    cx = presentation_complex(parse_presentation("a,b|ab,b"))
    v = semi_decide_trivial(edge_path_presentation(cx), budget=200000)
    assert v.is_yes


@pytest.mark.parametrize(
    "text,rank,torsion",
    [
        ("|", 0, ()),
        ("a|a", 0, ()),
        ("a|aa", 0, (2,)),
        ("a,b|a,b", 0, ()),
        ("a,b|ab,b", 0, ()),
        ("a,b|abAB", 2, ()),
    ],
)
def test_presentation_complex_first_homology_is_abelianization(text, rank, torsion):
    p = parse_presentation(text)
    cx = presentation_complex(p)
    h1 = homology(cx).group(1)
    ab = abelianization(p)
    assert (ab.rank, ab.torsion) == (rank, torsion)
    assert (h1.betti, h1.torsion) == (rank, torsion)
