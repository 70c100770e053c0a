import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from plmarkov import invariants
from plmarkov.complex_core import Complex, validate, barycentric_subdivision
from plmarkov.groups import parse_presentation
from plmarkov.invariants import (
    HomologyProfile,
    betti_numbers,
    boundary_matrix,
    homology,
    smith_diagonal,
)
from plmarkov.markov import realize_boundary

from oracles import (betti_over_rationals, boundary_matrix_by_slices, boundary_matrix_dense,
                     dense_rows, homology_per_degree, smith_diagonal_min_key,
                     smith_diagonal_reference, snf_diagonal_via_minor_gcds, sparse_rows)


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

def smith_of_dense(mat):
    return smith_diagonal(sparse_rows(mat))


def test_smith_small_cases():
    assert smith_of_dense([[1, 0], [0, 2]]) == [1, 2]
    assert smith_of_dense([[2, 0], [0, 3]]) == [1, 6]
    assert smith_of_dense([[2, 4], [4, 8]]) == [2]
    assert smith_of_dense([[6, 4], [4, 6]]) == [2, 10]
    assert smith_of_dense([[0, 0], [0, 0]]) == []
    assert smith_of_dense([]) == []


def test_smith_skips_zero_values_and_leaves_its_input_alone():
    rows = [[(0, 0), (1, 2)], [(0, 3), (2, 0)], [(1, 0)]]
    assert smith_diagonal(rows) == [1, 6]
    assert rows == [[(0, 0), (1, 2)], [(0, 3), (2, 0)], [(1, 0)]]
    cx = simplex_sphere(3)
    d2 = boundary_matrix(cx, 2)
    before = [list(row) for row in d2]
    assert smith_diagonal(d2) == [1, 1, 1, 1, 1, 1]
    assert d2 == before


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
        assert smith_of_dense(mat) == snf_diagonal_via_minor_gcds(mat), mat


def test_smith_divisibility_chain():
    diag = smith_of_dense([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
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
    assert smith_of_dense(rows) == snf_diagonal_via_minor_gcds(rows)


def test_integer_rank():
    # the rank is the number of invariant factors
    assert len(smith_of_dense([[1, 2], [2, 4]])) == 1
    assert len(smith_of_dense([[1, 0], [0, 1]])) == 2


# entries are mostly 0 and +-1, as in boundary and exponent matrices,
# with a few small and a few huge ones to force the residual pass
_entries = st.one_of(
    st.just(0), st.just(0), st.just(0), st.sampled_from([1, -1]), st.sampled_from([1, -1]),
    st.integers(-6, 6), st.integers(-10 ** 30, 10 ** 30),
)


@st.composite
def rectangular_matrices(draw):
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(1, 12))
    return [draw(st.lists(_entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@given(rectangular_matrices())
@example([[2, 3], [4, 5]])
@example([[0, 2, 0], [3, 0, 0], [0, 0, 10 ** 30]])
@example([[1, 1, 0], [1, -1, 0], [0, 0, 0]])
def test_smith_matches_the_reference_kernel(rows):
    assert smith_of_dense(rows) == smith_diagonal_reference(rows)


def _dense_unit_columns(rng, nrows, ncols):
    """A sparse matrix of small entries in which a few columns hold +-1
    in most rows, so a row's first unit entry often lies in a dense
    column while a sparse column holds another: the fewest-rows pivot
    and the first unit entry then fill in differently."""
    rows = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(ncols)]
            for _ in range(nrows)]
    for j in rng.sample(range(ncols), rng.randint(1, min(3, ncols))):
        for row in rows:
            if rng.random() < 0.8:
                row[j] = rng.choice((1, -1))
    return rows


@st.composite
def matrices_with_dense_unit_columns(draw):
    rng = draw(st.randoms(use_true_random=False))
    return _dense_unit_columns(rng, draw(st.integers(1, 30)), draw(st.integers(1, 30)))


@settings(max_examples=60)
@given(matrices_with_dense_unit_columns())
@example(_dense_unit_columns(random.Random(0), 30, 30))
@example(_dense_unit_columns(random.Random(1), 30, 12))
@example(_dense_unit_columns(random.Random(2), 12, 30))
@example([[1, 1, 0], [1, 0, 1], [1, 1, 1]])
def test_smith_matches_the_reference_kernel_with_dense_unit_columns(rows):
    assert smith_of_dense(rows) == smith_diagonal_reference(rows)


@given(rectangular_matrices())
@example([[1, 1, 0], [1, -1, 0], [0, 0, 0]])
@example([[0, 2, 0], [3, 0, 0], [0, 0, 10 ** 30]])
def test_smith_collects_unit_pivot_columns_and_changes_nothing_else(dense):
    rows = sparse_rows(dense)
    before = [list(row) for row in rows]
    units = set()
    diag = smith_diagonal(rows, units)
    assert diag == smith_diagonal(rows)
    assert rows == before
    assert units <= {j for row in rows for j, _ in row}
    assert len(units) <= diag.count(1)


@st.composite
def sparse_integer_rows(draw):
    """Up to 7 rows over up to 7 columns, each row its (column, value)
    pairs on distinct ascending columns; rows may be empty, and values
    may be zero or non-units."""
    ncols = draw(st.integers(1, 7))
    return [[(j, draw(_entries)) for j in draw(st.sets(st.integers(0, ncols - 1)).map(sorted))]
            for _ in range(draw(st.integers(0, 7)))]


@given(sparse_integer_rows())
@example([[(0, 1), (1, 1)], [(0, -1), (1, 1)], []])
@example([[(0, 2), (1, 0)], [(0, 3), (1, 1)], [(1, -1), (2, 5)]])
@example([[(0, 2)], [], [(0, 1), (1, 1)]])  # the first unit is not the sparsest
def test_smith_matches_the_min_key_oracle_with_its_unit_columns(rows):
    # same pivots as the min-over-generator pass: same diagonal, same units
    units, expect = set(), set()
    assert smith_diagonal(rows, units) == smith_diagonal_min_key(rows, expect)
    assert units == expect


def test_smith_handles_large_entries():
    big = 10 ** 30
    # entries 2 and big have gcd 2 and lcm big
    assert smith_of_dense([[big, 0], [0, 2]]) == [2, big]


# -- boundary matrices -------------------------------------------------

def test_boundary_squares_to_zero():
    cx = simplex_sphere(3)
    fvec = cx.f_vector()
    d2 = dense_rows(boundary_matrix(cx, 2), fvec[2])
    d3 = dense_rows(boundary_matrix(cx, 3), fvec[3])
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
        rows = true_boundary(cx, d)
        if d == k:
            row = next(row for row in rows if any(j == 5 for j, _ in row))
            row[:] = [(j, -v if j == 5 else v) for j, v in row]
        return rows

    monkeypatch.setattr(invariants, "boundary_matrix", flipped)
    with pytest.raises(AssertionError, match="boundary of boundary"):
        homology(simplex_sphere(4))


def test_homology_checks_boundaries_above_200_facets(monkeypatch):
    # the check used to stop at 200 facets; M(a,b|ab,b) has 450
    m = Complex(realize_boundary(parse_presentation("a,b|ab,b"), 4).facets)
    assert len(m.facets) > 200
    true_boundary = invariants.boundary_matrix

    def flipped(cx, d):
        rows = true_boundary(cx, d)
        if d == 3:
            rows[0][0] = (rows[0][0][0], -rows[0][0][1])
        return rows

    monkeypatch.setattr(invariants, "boundary_matrix", flipped)
    with pytest.raises(AssertionError, match="boundary of boundary"):
        homology(m)


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


def test_homology_counts_faces_from_the_face_table():
    cx = Complex(simplex_sphere(3).facets)
    assert homology(cx).betti_numbers() == (1, 0, 0, 1)
    assert "faces" in cx._cache and "f_vector" not in cx._cache


@pytest.mark.parametrize("d", [1, 2, 3])
def test_homology_makes_one_smith_call_per_degree_then_none(monkeypatch, d):
    # a fresh complex, so no profile cached by earlier tests is read
    calls = []

    def counted(rows, units=None):
        calls.append(len(rows))
        return smith_diagonal(rows, units)

    monkeypatch.setattr(invariants, "smith_diagonal", counted)
    cx = Complex(simplex_sphere(d).facets)
    homology(cx)
    assert len(calls) == d
    homology(cx)
    assert len(calls) == d


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
    return Complex.generated_by(facets)


@given(small_complexes())
def test_betti_match_rational_rank_oracle(cx):
    assert list(homology(cx).betti_numbers()) == betti_over_rationals(cx)


def assert_boundaries_match_the_dense_oracle(cx):
    faces = cx.face_tuples()
    for k in range(1, cx.dim + 1):
        rows = boundary_matrix(cx, k)
        assert rows == boundary_matrix_by_slices(cx, k), k
        dense = boundary_matrix_dense(cx, k)
        assert all(row == sorted(row) for row in rows)  # columns ascending
        assert dense_rows(rows, len(faces[k])) == dense
        assert smith_diagonal(rows) == smith_diagonal_reference(dense)


@given(small_complexes())
def test_smith_matches_the_reference_kernel_on_boundaries(cx):
    assert_boundaries_match_the_dense_oracle(cx)


@pytest.mark.parametrize("build", [
    lambda: simplex_sphere(4),
    lambda: realize_boundary(parse_presentation("a,b|ab,b"), 4),
], ids=["simplex_sphere(4)", "M(a,b|ab,b)"])
def test_sparse_boundaries_match_the_dense_oracle(build):
    assert_boundaries_match_the_dense_oracle(Complex(build().facets))


# -- rows dropped across degrees ---------------------------------------

@st.composite
def medium_complexes(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    facets = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=min(5, n), unique=True),
        min_size=1, max_size=10))
    return Complex.generated_by(facets)


def kept_and_full_boundaries(cx):
    """Per degree k, the rows of d_k that homology reduces (without the
    rows at d_{k-1}'s unit pivot columns) and all rows of d_k."""
    units = set()
    for k in range(1, cx.dim + 1):
        rows = boundary_matrix(cx, k)
        kept = [row for i, row in enumerate(rows) if i not in units]
        units = set()
        smith_diagonal(kept, units)
        yield k, kept, rows


def assert_dropped_rows_keep_the_invariant_factors(cx) -> int:
    """Check every degree; return the number of rows dropped."""
    dropped = 0
    for k, kept, rows in kept_and_full_boundaries(cx):
        assert smith_diagonal(kept) == smith_diagonal(rows), k
        dropped += len(rows) - len(kept)
    return dropped


NAMED_COMPLEXES = {
    "M(g|gg)": lambda: realize_boundary(parse_presentation("g|gg"), 4),
    "M(a,b|abAB)": lambda: realize_boundary(parse_presentation("a,b|abAB"), 4),
    **{f"simplex_sphere({n})": (lambda n=n: simplex_sphere(n)) for n in (1, 2, 3, 4)},
}


@given(st.one_of(small_complexes(), medium_complexes()))
def test_homology_matches_the_per_degree_oracle(cx):
    expect = homology_per_degree(cx)
    assert homology(cx) == expect


@pytest.mark.parametrize("name", NAMED_COMPLEXES)
def test_homology_matches_the_per_degree_oracle_on_named_complexes(name):
    cx = Complex(NAMED_COMPLEXES[name]().facets)
    expect = homology_per_degree(cx)
    assert homology(cx) == expect
    if name == "M(g|gg)":
        assert expect.group(1).torsion == (2,) and expect.group(2).torsion == (2,)


@given(st.one_of(small_complexes(), medium_complexes()))
def test_dropped_rows_keep_the_invariant_factors(cx):
    assert_dropped_rows_keep_the_invariant_factors(cx)


@pytest.mark.parametrize("name", NAMED_COMPLEXES)
def test_dropped_rows_keep_the_invariant_factors_on_named_complexes(name):
    cx = Complex(NAMED_COMPLEXES[name]().facets)
    dropped = assert_dropped_rows_keep_the_invariant_factors(cx)
    assert (dropped > 0) == (cx.dim > 1)


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
