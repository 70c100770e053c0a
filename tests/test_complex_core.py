import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, strategies as st

from plmarkov.builders import sphere_product
from plmarkov.complex_core import (
    Complex,
    InvalidComplexError,
    barycentric_subdivision,
    boundary_complex,
    derived_subdivision_raw,
    from_text,
    from_json_obj,
    isomorphism,
    join,
    link,
    loads,
    star,
    to_json_obj,
    to_text,
    validate,
)

from oracles import (
    canonical_pair_unpruned,
    iso_exhaustive,
    orientable_exhaustive,
    refinement_colors_per_incidence,
)


def full_simplex(n):
    return validate([range(n + 1)])


def sphere_facets(n):
    return [s for s in itertools.combinations(range(n + 2), n + 1)]


def simplex_sphere(n):
    return validate(sphere_facets(n))


MOEBIUS = [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0], [4, 0, 1]]
ANNULUS = [[0, 1, 3], [1, 3, 4], [1, 2, 4], [2, 4, 5], [0, 2, 5], [0, 3, 5]]


# -- validation --------------------------------------------------------

def test_validate_rejects_empty_input():
    with pytest.raises(InvalidComplexError):
        validate([])


def test_validate_rejects_empty_facet():
    with pytest.raises(InvalidComplexError):
        validate([[0, 1], []])


def test_validate_rejects_duplicate_facet():
    with pytest.raises(InvalidComplexError):
        validate([[0, 1], [1, 0]])


def test_validate_rejects_contained_facet():
    with pytest.raises(InvalidComplexError):
        validate([[0, 1, 2], [1, 2]])


def test_validate_rejects_non_integer_labels():
    with pytest.raises(InvalidComplexError):
        validate([["a", "b"]])
    with pytest.raises(InvalidComplexError):
        validate([[True, False]])


def test_validate_keeps_labels():
    cx = validate([[7, 9], [9, 11]])
    assert cx.vertices == (7, 9, 11)


# -- f-vectors and Euler characteristics -------------------------------

def test_f_vector_boundary_of_5_simplex():
    cx = simplex_sphere(4)
    assert cx.f_vector() == (6, 15, 20, 15, 6)
    assert cx.euler_characteristic() == 2


def test_f_vector_full_simplex():
    cx = full_simplex(3)
    assert cx.f_vector() == (4, 6, 4, 1)
    assert cx.euler_characteristic() == 1


def test_euler_of_spheres_alternates():
    for n in range(1, 5):
        assert simplex_sphere(n).euler_characteristic() == 1 + (-1) ** n


# -- stars, links, boundary --------------------------------------------

def test_link_of_vertex_in_sphere():
    cx = simplex_sphere(2)
    lk = cx.link([0])
    assert lk.is_isomorphic_to(simplex_sphere(1))


def test_star_is_join_of_face_and_link():
    cx = simplex_sphere(2)
    st_ = cx.star([0])
    lk = cx.link([0])
    rebuilt = join(validate([[0]]), lk)
    assert set(rebuilt.facets) == set(st_.facets)


def test_link_of_missing_face_raises():
    with pytest.raises(InvalidComplexError):
        simplex_sphere(2).link([0, 1, 2, 3])


def test_link_of_facet_is_empty():
    cx = full_simplex(2)
    assert cx.link([0, 1, 2]).is_empty


def test_boundary_of_simplex():
    cx = full_simplex(3)
    assert cx.boundary().is_isomorphic_to(simplex_sphere(2))


def test_boundary_of_closed_sphere_is_empty():
    assert simplex_sphere(3).boundary().is_empty


def test_module_level_ops_are_canonical():
    cx = validate([[10, 20, 30], [20, 30, 40]])
    out = boundary_complex(cx)
    assert out.vertices == tuple(range(len(out.vertices)))
    lk = link(cx, [20])
    assert lk.vertices == tuple(range(len(lk.vertices)))


# -- pseudomanifold structure ------------------------------------------

def test_closed_pseudomanifold_checks():
    assert simplex_sphere(3).is_closed_pseudomanifold()
    assert not full_simplex(3).is_closed_pseudomanifold()
    assert full_simplex(3).is_pseudomanifold_with_boundary()
    # two tetrahedra meeting at one vertex: ridge degrees fine but not
    # strongly connected through ridges
    pinched = validate([[0, 1, 2, 3], [3, 4, 5, 6]])
    assert not pinched.is_closed_pseudomanifold()
    assert not pinched.is_pseudomanifold_with_boundary()


def test_moebius_is_pseudomanifold():
    cx = validate(MOEBIUS)
    assert cx.is_closed_pseudomanifold() is False  # it has boundary
    assert cx.is_pseudomanifold_with_boundary()


# -- orientation -------------------------------------------------------

def test_sphere_orientable():
    for n in (1, 2, 3):
        cx = simplex_sphere(n)
        assert cx.is_orientable()
        assert orientable_exhaustive(cx)


def test_moebius_not_orientable():
    cx = validate(MOEBIUS)
    # frozen: the 32 sign assignments all fail
    assert orientable_exhaustive(cx) is False
    assert cx.is_orientable() is False


def test_annulus_orientable():
    cx = validate(ANNULUS)
    assert orientable_exhaustive(cx) is True
    assert cx.is_orientable() is True


def test_orientation_signs_are_coherent():
    cx = simplex_sphere(2)
    signs = cx.orientation()
    deg = cx.ridge_degrees()
    for r, d in deg.items():
        assert d == 2
        cof = [f for f in cx.facets if r < f]
        vals = []
        for f in cof:
            v = next(iter(f - r))
            vals.append(signs[f] * (-1) ** sorted(f).index(v))
        assert vals[0] == -vals[1]


# -- barycentric subdivision -------------------------------------------

def test_subdivision_of_triangle():
    sd = barycentric_subdivision(full_simplex(2))
    assert len(sd.vertices) == 7
    assert len(sd.facets) == 6
    assert sd.euler_characteristic() == 1


def test_subdivision_of_2_sphere():
    sd = barycentric_subdivision(simplex_sphere(2))
    assert len(sd.vertices) == 14
    assert len(sd.facets) == 24
    assert sd.euler_characteristic() == 2


def test_subdivision_preserves_closedness():
    sd = barycentric_subdivision(simplex_sphere(2))
    assert sd.is_closed_pseudomanifold()
    assert sd.is_orientable()


# -- canonical form and signatures -------------------------------------

def test_signature_of_tetrahedron_boundary_is_stable():
    assert (
        simplex_sphere(2).iso_signature()
        == "2:4,6,4:0 1 2|0 1 3|0 2 3|1 2 3"
    )


def test_signature_ignores_labels():
    a = simplex_sphere(2)
    b = a.relabeled({0: 40, 1: 17, 2: 2, 3: 99})
    assert a.iso_signature() == b.iso_signature()
    assert a.is_isomorphic_to(b)


def test_signature_distinguishes_iso_classes():
    # same f-vector (5, 7, 3), isomorphic strips
    k1 = validate([[0, 1, 2], [1, 2, 3], [2, 3, 4]])
    k2 = validate([[0, 1, 2], [1, 2, 3], [1, 3, 4]])
    assert iso_exhaustive(k1, k2) is True
    assert k1.is_isomorphic_to(k2)
    # same f-vector (6, 6), different shapes
    cycle6 = validate([[i, (i + 1) % 6] for i in range(6)])
    two_triangles = validate(
        [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
    )
    assert iso_exhaustive(cycle6, two_triangles) is False
    assert not cycle6.is_isomorphic_to(two_triangles)


def test_canonical_uses_dense_labels():
    cx = validate([[5, 9], [9, 50]])
    canon = cx.canonical()
    assert canon.vertices == (0, 1, 2)
    assert canon.iso_signature() == cx.iso_signature()


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
def test_signature_carries_the_f_vector(cx):
    assert cx.iso_signature().split(":")[1] == ",".join(map(str, cx.f_vector()))


@given(small_complexes(), st.randoms(use_true_random=False))
def test_signature_invariant_under_relabeling(cx, rng):
    verts = list(cx.vertices)
    images = list(range(0, 3 * len(verts), 3))
    rng.shuffle(images)
    relabeled = cx.relabeled(dict(zip(verts, images)))
    assert relabeled.iso_signature() == cx.iso_signature()


@given(small_complexes())
def test_signature_matches_exhaustive_iso_on_self(cx):
    canon = cx.canonical()
    assert iso_exhaustive(cx, canon)


def _relabeled_randomly(cx, rng):
    verts = list(cx.vertices)
    images = rng.sample(range(5 * len(verts)), len(verts))
    return cx.relabeled(dict(zip(verts, images)))


def assert_matches_unpruned_search(cx):
    canon, mapping = canonical_pair_unpruned(cx)
    assert cx._refinement_colors() == refinement_colors_per_incidence(cx)
    assert cx.canonical().facets == canon.facets
    # insertion order too: the map lists vertices in canonical-label order
    assert list(cx.canonical_mapping().items()) == list(mapping.items())


# boundary of the cyclic 4-polytope on 7 vertices (Gale evenness)
CYCLIC_7_4 = [
    [0, 1, 2, 3], [0, 1, 2, 6], [0, 1, 3, 4], [0, 1, 4, 5], [0, 1, 5, 6],
    [0, 2, 3, 6], [0, 3, 4, 6], [0, 4, 5, 6], [1, 2, 3, 4], [1, 2, 4, 5],
    [1, 2, 5, 6], [2, 3, 4, 5], [2, 3, 5, 6], [3, 4, 5, 6],
]


ORACLE_CASES = {
    **{"S%d" % n: (lambda n=n: simplex_sphere(n)) for n in range(1, 6)},
    "S1xS1": lambda: sphere_product(1, 1),
    "S1xS2": lambda: sphere_product(1, 2),
    "sd S2": lambda: derived_subdivision_raw(simplex_sphere(2)),
    # A pruning that ignores the seed facet, or that takes automorphisms
    # from the wrong reference leaf, changes the canonical form or the
    # canonical mapping of these two.
    "C(7,4) permuted": lambda: validate(CYCLIC_7_4).relabeled(
        dict(enumerate((0, 1, 3, 5, 2, 6, 4)))
    ),
    "octahedron strip": lambda: validate(
        [[0, 2, 4], [0, 3, 4], [0, 3, 5], [1, 2, 4], [1, 2, 5], [1, 3, 5]]
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_canonical_form_matches_unpruned_search(name):
    cx = ORACLE_CASES[name]()
    assert_matches_unpruned_search(cx)
    rng = random.Random(name)
    for _ in range(2):
        assert_matches_unpruned_search(_relabeled_randomly(cx, rng))


@given(small_complexes(), st.randoms(use_true_random=False))
def test_canonical_form_matches_unpruned_search_on_small_complexes(cx, rng):
    assert_matches_unpruned_search(cx)
    assert_matches_unpruned_search(_relabeled_randomly(cx, rng))


def test_signatures_of_symmetric_complexes_are_pinned():
    # Both strings were captured from the unpruned search, which labels
    # 9 * 8! = 362,880 leaves on simplex_sphere(7).
    assert simplex_sphere(7).iso_signature() == (
        "7:9,36,84,126,126,84,36,9:0 1 2 3 4 5 6 7|0 1 2 3 4 5 6 8"
        "|0 1 2 3 4 5 7 8|0 1 2 3 4 6 7 8|0 1 2 3 5 6 7 8"
        "|0 1 2 4 5 6 7 8|0 1 3 4 5 6 7 8|0 2 3 4 5 6 7 8"
        "|1 2 3 4 5 6 7 8"
    )
    sig = barycentric_subdivision(simplex_sphere(3)).iso_signature()
    assert sig.startswith("3:30,150,240,120:0 1 2 3|0 1 2 4|0 1 3 5|")
    assert hashlib.sha256(sig.encode()).hexdigest() == (
        "c1761a6eac854b7dc3996ab9067773ebf73d1470a310b2667a3a5e9d248db121"
    )


@st.composite
def complex_pairs(draw):
    """Pairs of small complexes: a relabelled copy, two graphs with the
    same numbers of vertices and edges (equal f-vectors, often not
    isomorphic), or two independent draws."""
    kind = draw(st.sampled_from(["relabeled", "graphs", "independent"]))
    if kind == "relabeled":
        a = draw(small_complexes())
        return a, _relabeled_randomly(a, draw(st.randoms(use_true_random=False)))
    if kind == "independent":
        return draw(small_complexes()), draw(small_complexes())
    n = draw(st.integers(min_value=3, max_value=7))
    edges = list(itertools.combinations(range(n), 2))
    k = draw(st.integers(min_value=1, max_value=len(edges)))
    points = [[v] for v in range(n)]
    a, b = (
        Complex.generated_by(
            points + draw(st.lists(st.sampled_from(edges), min_size=k, max_size=k, unique=True))
        )
        for _ in range(2)
    )
    return a, b


K33 = Complex([[i, j] for i in range(3) for j in range(3, 6)])
PRISM = Complex([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [0, 3], [1, 4], [2, 5]])


@given(complex_pairs())
@example((K33, PRISM))
@example((validate([[i, (i + 1) % 6] for i in range(6)]),
          validate([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])))
def test_signatures_agree_exactly_with_isomorphism(pair):
    a, b = pair
    same = a.iso_signature() == b.iso_signature()
    assert same == (isomorphism(a, b) is not None)
    assert same == iso_exhaustive(a, b)


@given(small_complexes())
def test_subdivision_preserves_euler(cx):
    sd = barycentric_subdivision(cx)
    assert sd.euler_characteristic() == cx.euler_characteristic()
    assert len(sd.vertices) == sum(cx.f_vector())


@given(small_complexes(), small_complexes())
def test_join_euler_product_rule(a, b):
    shift = max(a.vertices) + 1
    b2 = b.relabeled({v: v + shift for v in b.vertices})
    j = join(a, b2)
    ea, eb = a.euler_characteristic(), b.euler_characteristic()
    assert j.euler_characteristic() == ea + eb - ea * eb


def test_join_requires_disjoint_labels():
    with pytest.raises(InvalidComplexError):
        join(full_simplex(1), full_simplex(2))


# -- skeleton and connectivity -----------------------------------------

def test_skeleton():
    cx = full_simplex(3)
    sk1 = cx.skeleton(1)
    assert sk1.f_vector() == (4, 6)
    assert cx.skeleton(5) is cx


def test_connectivity():
    assert simplex_sphere(2).is_connected()
    assert not validate([[0, 1], [2, 3]]).is_connected()


# -- serialization -----------------------------------------------------

def test_text_round_trip():
    cx = simplex_sphere(2)
    assert from_text(to_text(cx)) == cx


def test_text_comments_and_blanks():
    text = "# a triangle\n0 1 2\n\n  # trailing\n"
    cx = from_text(text)
    assert cx.facets == (frozenset({0, 1, 2}),)


def test_text_rejects_garbage():
    with pytest.raises(InvalidComplexError):
        from_text("0 one 2\n")


def test_json_round_trip():
    cx = validate(MOEBIUS)
    obj = to_json_obj(cx)
    assert from_json_obj(json.loads(json.dumps(obj))) == cx


@pytest.mark.parametrize(
    "text",
    ['{"facets": 3}', '{"facets": [3]}', '{"facets": [[0, 1], 2]}', '{"facets": null}', "{}"],
)
def test_loads_rejects_malformed_json_with_a_named_error(text):
    with pytest.raises(InvalidComplexError):
        loads(text)


def test_loads_sniffs_format():
    cx = simplex_sphere(1)
    assert loads(to_text(cx)) == cx
    assert loads(json.dumps(to_json_obj(cx))) == cx
