import itertools

import pytest
from hypothesis import given, strategies as st

from plmarkov import invariants
from plmarkov.complex_core import validate, barycentric_subdivision
from plmarkov.invariants import (
    HomologyGroup,
    HomologyProfile,
    betti_numbers,
    boundary_matrix,
    homology,
    integer_rank,
    smith_diagonal,
)

from oracles import betti_over_rationals, snf_diagonal_via_minor_gcds


def simplex_sphere(n):
    return validate(list(itertools.combinations(range(n + 2), n + 1)))


def torus_9():
    # 3x3 grid with wraparound, vertex (i, j) labeled 3i + j
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


# -- Smith normal form -------------------------------------------------

def test_smith_small_cases():
    assert smith_diagonal([[1, 0], [0, 2]]) == [1, 2]
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[2, 4], [4, 8]]) == [2]
    assert smith_diagonal([[6, 4], [4, 6]]) == [2, 10]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    assert smith_diagonal([]) == []


def test_smith_matches_minor_gcd_oracle_on_known_cases():
    cases = (
        [[1, 0], [0, 2]],
        [[2, 0], [0, 3]],
        [[2, 4], [4, 8]],
        [[6, 4], [4, 6]],
        # lowest row without a unit entry: smallest-|v| pivot
        [[2, 3], [4, 5]],
        [[4, 6, 10], [6, 9, 15], [2, -1, 7]],
        # lowest row with a unit entry: unit pivot
        [[3, -1], [5, 7]],
        [[0, 1, 2], [3, 4, 5], [6, 7, 9]],
        # a unit pivot first, then a residual block without units
        [[1, 2, 3], [0, 4, 6], [0, 6, 8]],
    )
    for mat in cases:
        assert smith_diagonal(mat) == snf_diagonal_via_minor_gcds(mat), mat


def test_smith_divisibility_chain():
    diag = smith_diagonal([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_smith_matches_minor_gcd_oracle(rows):
    assert smith_diagonal(rows) == snf_diagonal_via_minor_gcds(rows)


def test_integer_rank():
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2


def test_smith_handles_large_entries():
    big = 10 ** 30
    # entries 2 and big have gcd 2 and lcm big
    assert smith_diagonal([[big, 0], [0, 2]]) == [2, big]


# -- boundary matrices -------------------------------------------------

def test_boundary_squares_to_zero():
    cx = simplex_sphere(3)
    d2 = boundary_matrix(cx, 2)
    d3 = boundary_matrix(cx, 3)
    prod = [
        [
            sum(d2[i][k] * d3[k][j] for k in range(len(d3)))
            for j in range(len(d3[0]))
        ]
        for i in range(len(d2))
    ]
    assert all(v == 0 for row in prod for v in row)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_homology_checks_every_column_of_every_boundary(monkeypatch, k):
    # one sign flipped in the sixth column of the k-th boundary matrix
    true_boundary = invariants.boundary_matrix

    def flipped(cx, d):
        mat = true_boundary(cx, d)
        if d == k:
            i = next(i for i, row in enumerate(mat) if row[5])
            mat[i][5] = -mat[i][5]
        return mat

    monkeypatch.setattr(invariants, "boundary_matrix", flipped)
    with pytest.raises(AssertionError, match="boundary of boundary"):
        homology(simplex_sphere(4))


# -- homology ----------------------------------------------------------

def test_homology_of_spheres():
    for n in (1, 2, 3, 4):
        prof = homology(simplex_sphere(n))
        expect = [1] + [0] * (n - 1) + [1]
        assert list(prof.betti_numbers()) == expect
        assert all(g.torsion == () for g in prof.groups)


def test_homology_of_torus():
    cx = torus_9()
    assert cx.f_vector() == (9, 27, 18)
    assert cx.euler_characteristic() == 0
    prof = homology(cx)
    assert prof.betti_numbers() == (1, 2, 1)
    assert all(g.torsion == () for g in prof.groups)
    assert betti_over_rationals(cx) == [1, 2, 1]


def test_homology_of_projective_plane():
    cx = projective_plane_6()
    assert cx.euler_characteristic() == 1
    assert not cx.is_orientable()
    prof = homology(cx)
    assert prof.betti_numbers() == (1, 0, 0)
    assert prof.group(1).torsion == (2,)
    assert prof.group(2).torsion == ()


def test_homology_counts_components():
    cx = validate([[0, 1], [2, 3], [4, 5, 6]])
    assert homology(cx).group(0).betti == 3


def test_homology_of_ball_is_trivial():
    cx = validate([range(4)])
    assert betti_numbers(cx) == (1, 0, 0, 0)


@st.composite
def small_complexes(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    nf = draw(st.integers(min_value=1, max_value=5))
    facets = []
    for _ in range(nf):
        k = draw(st.integers(min_value=1, max_value=min(4, n)))
        facets.append(
            draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        )
    from plmarkov.complex_core import Complex

    return Complex.generated_by(facets)


@given(small_complexes())
def test_betti_match_rational_rank_oracle(cx):
    assert list(homology(cx).betti_numbers()) == betti_over_rationals(cx)


@given(small_complexes())
def test_homology_invariant_under_subdivision(cx):
    a = homology(cx)
    b = homology(barycentric_subdivision(cx))
    assert a.betti_numbers() == b.betti_numbers()
    assert [g.torsion for g in a.groups] == [g.torsion for g in b.groups]


def test_profile_json_round_trip():
    prof = homology(projective_plane_6())
    again = HomologyProfile.from_json(prof.to_json())
    assert again == prof
