import hashlib
import inspect
import itertools
import json
import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from plmarkov import complex_core, markov
from plmarkov.builders import cone, reference_manifold, sphere_product
from plmarkov.complex_core import (
    Complex,
    InvalidComplexError,
    IsoIndex,
    barycentric_subdivision,
    boundary_complex,
    derived_subdivision_raw,
    fingerprint,
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
from plmarkov.groups import parse_presentation
from plmarkov.markov import enumerate_spheres, realize_boundary
from plmarkov.stellar_moves import (stellar_subdivide, stellar_weld,
                                    subdivision_candidates, weld_candidates)

from oracles import (
    IsoIndexCanonical,
    canonical_pair_unpruned,
    check_maximal_pairwise,
    derived_subdivision_recursive,
    facet_sort_key,
    faces_by_dim_key_sorted,
    fingerprint_with_f_vector,
    is_connected,
    is_strongly_connected_own_map,
    iso_exhaustive,
    iso_signature_via_canonical,
    isomorphism_backtracking,
    orbit_representatives_any_scan,
    orientable_exhaustive,
    orientation_own_map,
    refinement_colors_per_incidence,
    ridge_degrees_own_map,
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
    for out in (boundary_complex(cx), link(cx, [20]), star(cx, [20])):
        assert out.vertices == tuple(range(len(out.vertices)))


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


def test_closed_pseudomanifold_walks_no_facet_graph_with_boundary(monkeypatch):
    def refuse(self):
        raise AssertionError("facet graph walked")

    monkeypatch.setattr(Complex, "is_strongly_connected", refuse)
    for facets in (MOEBIUS, ANNULUS, [[0, 1, 2, 3]], [[0, 1, 2], [0, 1, 3], [0, 1, 4]]):
        assert not validate(facets).is_closed_pseudomanifold()


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


def test_canonical_of_a_long_cycle_stays_off_the_call_stack():
    # the labelling search goes one level deeper per labelled vertex, so
    # a recursive search would need hundreds of frames here
    cycle = Complex([[i, (i + 1) % 300] for i in range(300)])
    shifted = cycle.relabeled({v: 1000 - v for v in cycle.vertices})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        canon = cycle.canonical()
        assert shifted.canonical() == canon
    finally:
        sys.setrecursionlimit(limit)
    assert canon.vertices == tuple(range(300))
    assert sorted(cycle.canonical_mapping().values()) == list(range(300))


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
    assert same == (isomorphism_backtracking(a, b) is not None)


@st.composite
def relabeled_pairs(draw):
    a = draw(small_complexes())
    return a, _relabeled_randomly(a, draw(st.randoms(use_true_random=False)))


@st.composite
def complex_mixes(draw):
    """Small complexes, relabellings of them and single stellar moves
    of them, shuffled."""
    out = []
    for cx in draw(st.lists(small_complexes(), min_size=1, max_size=4)):
        moved = ([stellar_subdivide(cx, s) for s in subdivision_candidates(cx)]
                 + [stellar_weld(cx, v, s) for v, s in weld_candidates(cx)])
        out += [cx, _relabeled_randomly(cx, draw(st.randoms(use_true_random=False)))]
        if moved:
            out += draw(st.lists(st.sampled_from(moved), max_size=3))
    return draw(st.permutations(out))


@given(complex_mixes())
def test_iso_index_matches_first_match_grouping(cxs):
    # first-match grouping: each complex joins the first class whose
    # first member the backtracking search maps onto it
    firsts, want = [], []
    for cx in cxs:
        hit = next((i for i, m in enumerate(firsts)
                    if isomorphism_backtracking(m, cx) is not None), None)
        if hit is None:
            hit = len(firsts)
            firsts.append(cx)
        want.append(hit)
    index = IsoIndex()
    got = [index.add(cx) for cx in cxs]
    assert [i for i, _ in got] == want
    assert [new for _, new in got] == [want[k] not in want[:k] for k in range(len(cxs))]
    assert len(index.members) == len(firsts)
    assert all(m is f for m, f in zip(index.members, firsts))
    assert [index.find(cx) for cx in cxs] == want


@given(st.one_of(complex_pairs(), relabeled_pairs()))
@example((K33, PRISM))
@example((Complex([]), Complex([])))
@example((validate(MOEBIUS), validate(ANNULUS)))
def test_isomorphism_matches_the_backtracking_search(pair):
    a, b = pair
    m = isomorphism(a, b)
    assert (m is None) == (isomorphism_backtracking(a, b) is None)
    if m is not None:
        assert a.relabeled(m) == b


def _fresh(cx):
    return Complex._from_trusted(cx.facets)


def _items(maps):
    # the maps with their entry order
    return [list(g.items()) for g in maps]


def _encoding(cx):
    return _fresh(cx)._canonical_code()[0]


def assert_targeted_search_matches(cx, *target_sets):
    """Search a fresh copy of cx against each set of canonical
    encodings: the same form and mapping as the unpruned oracle and a
    fresh full search, stopping exactly when a target is met, and the
    full search's automorphisms afterwards.  The boundary of a simplex
    reads its form off its labels, so it runs no search until its
    automorphisms are asked for."""
    full = _fresh(cx)
    code, autos = full._canonical_code(), _items(full.automorphisms())
    canon, mapping = canonical_pair_unpruned(cx)
    for targets in target_sets:
        hit = _fresh(cx)
        assert hit._canonical_code(targets) == code
        assert hit.canonical().facets == canon.facets
        assert list(hit.canonical_mapping().items()) == list(mapping.items())
        if code[0] in targets or complex_core._is_simplex_boundary(cx):
            assert "autos" not in hit._cache
        else:
            assert _items(hit._cache["autos"]) == autos
        assert _items(hit.automorphisms()) == autos


@given(st.one_of(relabeled_pairs(), complex_pairs()), small_complexes())
@example((K33, PRISM), PRISM)
@example((validate(MOEBIUS), validate(ANNULUS)), validate(MOEBIUS))
def test_targeted_search_matches_the_full_search(pair, third):
    a, b = pair
    assert_targeted_search_matches(a, {_encoding(b)}, {_encoding(b), _encoding(third)})


def _link_classes(cx):
    index = IsoIndex()
    for v in cx.vertices:
        index.add(cx.link([v]))
    return index.members


TARGETED_CASES = {
    **{"S%d" % n: (lambda n=n: [simplex_sphere(n), stellar_subdivide(
        simplex_sphere(n), range(n + 1))]) for n in range(1, 5)},
    "M(a,b|ab,b) links": lambda: _link_classes(
        realize_boundary(parse_presentation("a,b|ab,b"), 4)),
}


@pytest.mark.parametrize("name", sorted(TARGETED_CASES))
def test_targeted_search_matches_the_full_search_on_named_complexes(name):
    # pairwise non-isomorphic complexes, each searched as a relabelled
    # copy against itself, against the others and against all of them
    cxs = TARGETED_CASES[name]()
    codes = [_encoding(cx) for cx in cxs]
    rng = random.Random(name)
    for cx, code in zip(cxs, codes):
        assert_targeted_search_matches(
            _relabeled_randomly(cx, rng), {code}, set(codes) - {code}, set(codes))


@pytest.mark.parametrize("d", range(8))
def test_a_simplex_boundary_reads_its_form_off_its_labels(d):
    # the form the full search caches, under random labels, with no
    # search run for it; automorphisms() still runs the full search
    rng = random.Random(d)
    for _ in range(30):
        cx = _relabeled_randomly(simplex_sphere(d), rng)
        searched = _fresh(cx)
        searched._search(())
        short = _fresh(cx)
        assert short._canonical_code() == searched._cache["canonical"]
        assert "autos" not in short._cache
        assert _items(short.automorphisms()) == _items(searched._cache["autos"])


def test_a_search_that_meets_its_target_stops_early():
    # a search stopped at its target caches the code but not the
    # automorphisms, which only a search run to the end collects
    # (a subdivided 3-sphere: two simplex boundaries map with no search)
    sub = stellar_subdivide(simplex_sphere(3), range(4))
    sub._canonical_code()
    copy = _relabeled_randomly(sub, random.Random(3))
    assert isomorphism(copy, sub) is not None
    assert "canonical" in copy._cache and "autos" not in copy._cache
    assert "autos" in sub._cache
    # K33 and PRISM share a fingerprint: the second opens a class in
    # the first one's bucket by a full search, and a repeat of either
    # stops at its class's encoding
    index = IsoIndex()
    k33, prism = _fresh(K33), _fresh(PRISM)
    assert index.add(k33) == (0, True)
    assert "canonical" not in k33._cache
    assert index.add(prism) == (1, True)
    assert "autos" in k33._cache and "autos" in prism._cache
    rng = random.Random(4)
    for i, cx in [(1, PRISM), (0, K33), (1, PRISM)]:
        repeat = _relabeled_randomly(cx, rng)
        assert index.add(repeat) == (i, False)
        assert "canonical" in repeat._cache and "autos" not in repeat._cache


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
    # facets below dimension k stay in the k-skeleton
    assert Complex([[0, 1, 2], [3, 4], [5]]).skeleton(1) == Complex(
        [[0, 1], [0, 2], [1, 2], [3, 4], [5]])
    assert Complex([[0, 1, 2, 3], [4, 5]]).skeleton(2) == Complex(
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [4, 5]])


def test_connectivity():
    assert is_connected(simplex_sphere(2))
    assert not is_connected(validate([[0, 1], [2, 3]]))


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


# -- derived tables against the old code -------------------------------

@st.composite
def facet_lists(draw):
    """Raw facet lists, some with duplicate or contained facets."""
    facets = draw(st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=8,
    ))
    for _ in range(draw(st.integers(0, 2))):
        f = draw(st.sampled_from(facets))
        # a permuted copy (duplicate) or a proper nonempty part (contained)
        part = draw(st.lists(st.sampled_from(f), min_size=1, max_size=len(f), unique=True))
        facets.insert(draw(st.integers(0, len(facets))), part)
    return facets


@st.composite
def one_size_facet_lists(draw):
    """Raw facet lists of one facet size, some with permuted duplicates."""
    size = draw(st.integers(1, 4))
    facets = draw(st.lists(
        st.lists(st.integers(0, 6), min_size=size, max_size=size, unique=True),
        min_size=1, max_size=8,
    ))
    for _ in range(draw(st.integers(0, 2))):
        f = draw(st.sampled_from(facets))
        facets.insert(draw(st.integers(0, len(facets))), draw(st.permutations(f)))
    return facets


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except InvalidComplexError as e:
        return ("error", str(e))


@given(st.one_of(facet_lists(), one_size_facet_lists()))
@example([[0, 1, 2], [1, 2], [0, 1, 2, 3]])
@example([[4, 5], [0, 1, 2], [1, 2, 3], [1, 2], [2, 3]])
@example([[0, 1], [1, 0], [0]])
@example([[0, 1, 2], [2, 1, 0]])
@example([[0, 1], [2, 3]])
@example([[3, 4, 5], [0, 1, 2], [5, 1, 0]])
def test_construction_errors_match_pairwise_check(facets):
    got = _outcome(Complex, facets)
    want = _outcome(check_maximal_pairwise, facets)
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert got[1].facets == Complex._from_trusted(map(frozenset, facets)).facets


@pytest.mark.parametrize("facets", [
    [[0, 1], [True, 2]],
    # a bool or a float equal to an earlier int label
    [[1, 2], [True, 3]],
    [[1, 2], [1.0, 3]],
    [[0, 1], ["a", 2]],
    [[0, 2.5]],
    [[0, 1], []],
    [[], ["a"]],
    [[0, 1], [1, 0]],
    [[0, 1], [2, 3], [1, 0], [3, 2]],
    [[0, 1, 2], [1, 2]],
    # the first error in facet order wins over later kinds
    [[0, 1], [1, 0], ["a"]],
    [[0, 1, 2], [1, 2], [0, 2, 1]],
], ids=["bool", "bool-after-1", "float-after-1", "str", "float", "empty", "empty-then-str",
        "duplicate", "two-duplicates", "nested", "duplicate-then-str", "nested-and-duplicate"])
def test_checked_construction_raises_the_per_facet_error(facets):
    # the labels are checked all at once and the per-facet check runs
    # only to name the first error, which must be the one it names alone
    got, want = _outcome(Complex, facets), _outcome(check_maximal_pairwise, facets)
    assert got[0] == want[0] == "error"
    assert got[1] == want[1]


@given(facet_lists())
@example([[3], [0, 1, 2], [1, 2], [0, 4], [2]])
def test_facet_order_is_the_size_then_labels_order(facets):
    raw = [frozenset(f) for f in facets]
    want = tuple(sorted(raw, key=facet_sort_key))
    assert Complex._from_trusted(raw).facets == want
    if _outcome(check_maximal_pairwise, facets)[0] == "ok":
        assert Complex(facets).facets == want


@given(small_complexes())
@example(simplex_sphere(0))
@example(simplex_sphere(4))
@example(sphere_product(1, 2))
@example(validate([[0, 1, 2], [2, 3], [3, 4, 5, 6], [7]]))
def test_derived_subdivision_matches_the_recursive_walk(cx):
    assert derived_subdivision_raw(cx) == derived_subdivision_recursive(cx)


@given(small_complexes(), st.booleans())
def test_f_vector_counts_the_face_table(cx, table_first):
    if table_first:
        cx.face_tuples()
    counts = cx.f_vector()
    assert counts == tuple(len(cx.faces(k)) for k in range(cx.dim + 1))
    assert counts == Complex(cx.facets).f_vector()


def gate4_manifold(text):
    return realize_boundary(parse_presentation(text), 4)


@given(small_complexes())
@example(Complex(()))
@example(validate([[0, 1, 2], [2, 3], [3, 4, 5, 6], [7]]))
@example(gate4_manifold("|"))
@example(gate4_manifold("g|g"))
@example(gate4_manifold("g|gg"))
@example(gate4_manifold("a,b|a,b"))
@example(gate4_manifold("a,b|ab,b"))
@example(gate4_manifold("a,b|abAB"))
def test_face_table_matches_the_key_sorted_oracle(cx):
    cx = Complex._from_trusted(cx.facets)  # a fresh cache
    want = faces_by_dim_key_sorted(cx)
    # one cached table, of ascending label tuples in the same order
    table = cx.face_tuples()
    assert list(cx._cache) == ["faces"]
    assert list(table) == list(want)
    for k, fs in want.items():
        assert table[k] == tuple(tuple(sorted(f)) for f in fs)
    assert cx.faces() == tuple(itertools.chain.from_iterable(want.values()))
    for k in range(-1, cx.dim + 2):
        assert cx.faces(k) == want.get(k, ())
    assert list(cx._cache) == ["faces"]


@st.composite
def pure_complexes(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    k = draw(st.integers(min_value=2, max_value=min(4, n)))
    facets = draw(st.lists(
        st.sampled_from(list(itertools.combinations(range(n), k))),
        min_size=1, max_size=8, unique=True,
    ))
    return validate(facets)


def assert_ridge_users_match_own_maps(cx):
    # the same values, with dict entries in the same order
    for fn, oracle in [(cx.orientation, orientation_own_map),
                       (cx.ridge_degrees, ridge_degrees_own_map)]:
        got, want = _outcome(fn), _outcome(oracle, cx)
        assert got == want
        if isinstance(got[1], dict):
            assert list(got[1].items()) == list(want[1].items())
    assert cx.is_strongly_connected() is is_strongly_connected_own_map(cx)


@given(st.one_of(small_complexes(), pure_complexes()))
@example(validate(MOEBIUS))
@example(validate(ANNULUS))
def test_ridge_index_users_match_their_own_maps(cx):
    assert_ridge_users_match_own_maps(cx)


@pytest.mark.parametrize("build", [
    lambda: sphere_product(2, 2),
    lambda: reference_manifold(2, 4),
], ids=["S2xS2", "T(2,4)"])
def test_ridge_index_users_match_their_own_maps_on_manifolds(build):
    cx = Complex(build().facets)
    assert_ridge_users_match_own_maps(cx)


@st.composite
def disjoint_pairs(draw):
    """Two complexes on disjoint labels, each pure with or without
    boundary, or the boundary of a simplex; of one size or two."""
    parts = draw(st.lists(st.one_of(pure_complexes(), st.integers(1, 3).map(simplex_sphere)),
                          min_size=2, max_size=2))
    return validate([sorted(f) for f in parts[0].facets]
                    + [[v + 10 for v in f] for f in parts[1].facets])


@given(st.one_of(small_complexes(), pure_complexes(), disjoint_pairs()))
@example(simplex_sphere(3))
@example(validate(MOEBIUS))
@example(validate([[0, 1, 2, 3], [3, 4, 5, 6]]))
def test_closed_pseudomanifold_matches_bounded_with_every_ridge_in_two(cx):
    # fresh copies, so neither side reads the other's cached ridge index
    want = Complex(cx.facets)
    want = want.is_pseudomanifold_with_boundary() and all(
        d == 2 for d in want.ridge_degrees().values())
    assert Complex(cx.facets).is_closed_pseudomanifold() is want


@pytest.mark.parametrize("facets, connected", [
    (ANNULUS, True),
    # a ridge [0, 1] in three facets
    ([[0, 1, 2], [0, 1, 3], [0, 1, 4]], True),
    ([[0, 1, 2], [0, 1, 3], [0, 1, 4], [4, 5, 6]], False),
    # two triangles that share only a vertex, and two disjoint edges
    ([[0, 1, 2], [0, 3, 4]], False),
    ([[0, 1], [2, 3]], False),
    ([[0, 1], [1, 2], [0, 2], [2, 3]], True),
], ids=["annulus", "ridge-in-three", "ridge-in-three-and-apart", "bowtie", "two-edges",
        "graph"])
def test_strong_connectivity_matches_its_own_map(facets, connected):
    cx = validate(facets)
    assert cx.is_strongly_connected() is connected is is_strongly_connected_own_map(cx)


@given(pure_complexes())
@example(validate(sphere_facets(1)))
@example(validate(ANNULUS))
@example(simplex_sphere(3))
@example(simplex_sphere(4))
@example(stellar_subdivide(simplex_sphere(4), [0, 1]))
@example(validate([[0, 1, 2, 3, 4], [0, 1, 2, 3, 5], [0, 1, 2, 3, 6]]))
def test_f_vector_with_the_ridge_index_matches_the_key_sorted_oracle(cx):
    # the sphere gates build the ridge index before the Euler number,
    # and f_{d-1} is then read off its keys
    cx = Complex._from_trusted(cx.facets)
    cx._ridges()
    want = tuple(len(fs) for fs in faces_by_dim_key_sorted(cx).values())
    assert cx.f_vector() == want
    assert "faces" not in cx._cache


@given(st.one_of(small_complexes(), pure_complexes()))
@example(Complex(()))
@example(simplex_sphere(0))
@example(validate([[0, 1], [1, 2], [2, 0], [2, 3]]))
@example(validate(MOEBIUS))
@example(simplex_sphere(6))
@example(full_simplex(6))
@example(validate([[0, 1, 2], [2, 3], [3, 4, 5, 6], [7]]))
def test_f_vector_matches_the_key_sorted_oracle(cx):
    cx = Complex._from_trusted(cx.facets)  # a fresh cache
    want = tuple(len(fs) for fs in faces_by_dim_key_sorted(cx).values())
    assert cx.f_vector() == want
    assert "faces" not in cx._cache


@given(small_complexes())
@example(validate([[0, 1, 2], [2, 3], [3, 4, 5, 6], [7]]))
# facet sizes reorder the colour profiles
@example(Complex([[0, 1, 2, 4], [0, 1, 3], [1, 2, 3, 6], [1, 3, 4, 6], [2, 4, 6]]))
# one round from a discrete colouring, not pure and pure
@example(Complex([[0, 2], [1, 5], [1, 6], [2, 6], [3, 5, 6]]))
@example(Complex([[0, 4, 7], [0, 5, 6], [1, 2, 7], [1, 4, 6], [1, 6, 7], [2, 4, 5],
                  [2, 5, 6], [4, 6, 7]]))
# a discrete colouring from the facet sizes at each vertex: degrees 2, 5,
# 7, 4, 1, 3, then with the edge [4, 6] size profiles all distinct too
@example(Complex([[0, 1, 2], [0, 2, 3], [1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 5],
                  [2, 3, 5]]))
@example(Complex([[0, 1, 2], [0, 2, 3], [1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 5],
                  [2, 3, 5], [4, 6]]))
def test_refinement_colors_match_the_per_incidence_oracle(cx):
    cx = Complex._from_trusted(cx.facets)
    assert cx._refinement_colors() == refinement_colors_per_incidence(cx)


def test_counting_faces_builds_no_face_table():
    def fresh(facets):
        cx = Complex(facets)
        assert not cx._cache
        return cx

    a = fresh(sphere_product(1, 2).facets)
    b = fresh(a.relabeled({v: v + 100 for v in a.vertices}).facets)
    c = fresh(simplex_sphere(3).facets)
    a.euler_characteristic()
    fingerprint(b)
    assert isomorphism(a, b) is not None
    assert isomorphism(a, c) is None
    for cx in (a, b, c):
        assert "faces" not in cx._cache


def boundary_via_generated_by(cx):
    if not cx.is_pure():
        raise InvalidComplexError("ridge degrees need a pure complex")
    return Complex.generated_by(r for r, fs in cx._ridges().items() if len(fs) == 1)


@given(st.one_of(small_complexes(), pure_complexes()))
@example(validate(MOEBIUS))
@example(validate(ANNULUS))
@example(cone(reference_manifold(1, 3)))
def test_boundary_matches_the_generated_rims(cx):
    got, want = _outcome(cx.boundary), _outcome(boundary_via_generated_by, cx)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got[1].facets == want[1].facets
    else:
        assert got[1] == want[1]


# -- the fingerprint, orbit pruning and signature against their oracles --


def _iso_index_adds(cxs):
    """IsoIndex.add over fresh copies of cxs, and each class's first
    member's facets."""
    index = IsoIndex()
    got = [index.add(Complex._from_trusted(cx.facets)) for cx in cxs]
    return got, [m.facets for m in index.members]


def assert_iso_index_ignores_the_f_vector(cxs):
    # the same classes, class indices and first members whether buckets
    # are keyed by the facet count or by the f-vector
    got = _iso_index_adds(cxs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(complex_core, "fingerprint", fingerprint_with_f_vector)
        assert _iso_index_adds(cxs) == got


RECOGNITION_MANIFOLDS = {
    "boundary_4_simplex": lambda: simplex_sphere(4),
    "torus": lambda: sphere_product(1, 1),
    "s1_x_s3": lambda: sphere_product(1, 3),
    "s2_x_s2": lambda: sphere_product(2, 2),
    "reference_manifold_2_4": lambda: reference_manifold(2, 4),
    "M(g|g)": lambda: realize_boundary(parse_presentation("g|g"), 4),
    "M(a,b|ab,b)": lambda: realize_boundary(parse_presentation("a,b|ab,b"), 4),
}
CENSUS_ENUMERATIONS = ((1, 12), (2, 14), (3, 12))


def test_iso_index_ignores_the_f_vector_on_the_recognition_links():
    # one index per manifold, as classify_links keeps: 161 links, 76 classes
    nlinks = nclasses = 0
    for make in RECOGNITION_MANIFOLDS.values():
        cx = make()
        links = [cx.link([v]) for v in cx.vertices]
        assert_iso_index_ignores_the_f_vector(links)
        nlinks += len(links)
        nclasses += len(_iso_index_adds(links)[1])
    assert (nlinks, nclasses) == (161, 76)


def _census_states(n, cap):
    """Every complex the enumeration looks up, and its signatures."""
    states = []
    real = IsoIndex.add

    def recording(index, cx):
        states.append(cx)
        return real(index, cx)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(IsoIndex, "add", recording)
        sigs = list(enumerate_spheres(n, cap))
    return states, sigs


@pytest.mark.parametrize("n, cap", CENSUS_ENUMERATIONS)
def test_iso_index_ignores_the_f_vector_on_the_census_states(n, cap):
    # every complex the enumeration looks up, replayed into fresh indexes
    states, sigs = _census_states(n, cap)
    assert_iso_index_ignores_the_f_vector(states)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(complex_core, "fingerprint", fingerprint_with_f_vector)
        assert list(enumerate_spheres(n, cap)) == sigs


@given(complex_mixes())
@example([K33, PRISM, _relabeled_randomly(PRISM, random.Random(1))])
# one facet count and colour histogram, different f-vectors
@example([validate([[0, 2, 3, 4], [0, 5], [1, 2, 4]]),
          validate([[0, 2, 5], [0, 3, 4], [1, 3, 4, 5]])])
def test_iso_index_ignores_the_f_vector_on_small_complexes(cxs):
    assert_iso_index_ignores_the_f_vector(cxs)


def _is_discrete(cx):
    key = fingerprint(cx)
    return len(key) > 1 and all(n == 1 for _, n in key[2])


def assert_discrete_key_keeps_the_classes(cxs):
    # the same classes, class indices and first members whether a
    # discrete bucket is keyed by colours or by canonical encodings
    got = _iso_index_adds(cxs)
    index = IsoIndexCanonical()
    want = [index.add(Complex._from_trusted(cx.facets)) for cx in cxs]
    assert got == (want, [m.facets for m in index.members])


def test_discrete_key_keeps_the_classes_of_the_recognition_links():
    discrete = 0
    for make in RECOGNITION_MANIFOLDS.values():
        cx = make()
        links = [cx.link([v]) for v in cx.vertices]
        assert_discrete_key_keeps_the_classes(links)
        discrete += sum(map(_is_discrete, links))
    assert discrete > 0


@pytest.mark.parametrize("n, cap", CENSUS_ENUMERATIONS)
def test_discrete_key_keeps_the_classes_of_the_census_states(n, cap):
    states, sigs = _census_states(n, cap)
    assert_discrete_key_keeps_the_classes(states)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(markov, "IsoIndex", IsoIndexCanonical)
        assert list(enumerate_spheres(n, cap)) == sigs


@given(complex_mixes())
@example([K33, PRISM, _relabeled_randomly(PRISM, random.Random(1))])
def test_discrete_key_keeps_the_classes_of_small_complexes(cxs):
    assert_discrete_key_keeps_the_classes(cxs)


# two graphs with 7 vertices and 7 edges, each discretely coloured by
# refinement, with one fingerprint; not isomorphic
DISCRETE_A = Complex([[0, 1], [0, 2], [0, 4], [2, 3], [3, 4], [4, 6], [5, 6]])
DISCRETE_B = Complex([[0, 2], [0, 5], [1, 4], [2, 3], [2, 5], [3, 4], [5, 6]])


def test_discrete_buckets_tell_classes_apart_without_a_search():
    a, b = _fresh(DISCRETE_A), _fresh(DISCRETE_B)
    assert fingerprint(a) == fingerprint(b) and _is_discrete(a)
    assert isomorphism(DISCRETE_A, DISCRETE_B) is None
    index = IsoIndex()
    assert index.add(a) == (0, True)
    assert index.add(b) == (1, True)
    rng = random.Random(28)
    copies = [_relabeled_randomly(cx, rng) for cx in (DISCRETE_B, DISCRETE_A, DISCRETE_B)]
    assert [index.add(cx) for cx in copies] == [(1, False), (0, False), (1, False)]
    assert [index.find(cx) for cx in copies] == [1, 0, 1]
    assert index.members == [a, b]
    for cx in (a, b, *copies):
        assert "canonical" not in cx._cache


def _lockstep_orbit_representatives(grew):
    """An ``_orbit_representatives`` that draws each child from it and
    from the any-scan oracle at the same moment, with the same
    automorphism list, and checks that both give the same child.
    ``grew`` counts the calls whose list grew while they ran."""
    real = complex_core._orbit_representatives

    def lockstep(children, autos, act):
        children, start, done = list(children), len(autos), object()
        old = orbit_representatives_any_scan(children, autos, act)
        for c in real(children, autos, act):
            assert next(old, done) == c
            yield c
        assert next(old, done) is done
        grew[0] += len(autos) > start
    return lockstep


SYMMETRIC = {
    "S%d" % n: (lambda n=n: simplex_sphere(n)) for n in range(1, 5)
} | {
    "K33": lambda: K33,
    "prism": lambda: PRISM,
    "torus": lambda: sphere_product(1, 1),
    "sd S2": lambda: barycentric_subdivision(simplex_sphere(2)),
    "octahedron": lambda: validate([[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]),
}


def search_in_lockstep(cx):
    """Run a fresh full canonical search of cx, started through
    ``automorphisms`` (a simplex boundary's form needs none), with its
    orbit pruning checked against the oracle; the number of pruning
    calls whose automorphism list grew while they ran."""
    grew = [0]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(complex_core, "_orbit_representatives", _lockstep_orbit_representatives(grew))
        Complex._from_trusted(cx.facets).automorphisms()
    return grew[0]


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_orbit_pruning_matches_the_any_scan_on_symmetric_complexes(name):
    # automorphisms reach the pruning while the search explores a child
    assert search_in_lockstep(SYMMETRIC[name]()) > 0


@given(small_complexes())
def test_orbit_pruning_matches_the_any_scan_on_small_complexes(cx):
    search_in_lockstep(cx)


def _search_digest(cx):
    """sha256 of a fresh search's canonical encoding, canonical vertex
    order and cached automorphisms, in list and entry order."""
    fresh = _fresh(cx)
    code, order = fresh._canonical_code()
    return hashlib.sha256(repr((code, order, _items(fresh.automorphisms()))).encode()).hexdigest()


# taken from the search that ran orbit pruning at every node
SYMMETRIC_SEARCH_SHA256 = {
    "K33": "1b32ce474995f233caa0dbf8d77dbfd0460b57e80ff48acfbc7955f9cfae3dc3",
    "S1": "2ec00889802bb0d059baa4def3afa4f80a6113d6773f180f00bab04326fde343",
    "S2": "6b1a5eecd353e4d3b8f1fe42b6fa3334c3a9a4dd15683beb102189607505d248",
    "S3": "a6eaff8d3bec324cbc3866f71f119df5da3528271bdf202948604604a58f36c1",
    "S4": "9b57a89e99556f92a98a25d89c03971d29b0fbfd11eabe7dec1dcb34c6cfbe4d",
    "octahedron": "5caef1a298d5dde8b686ac757cd5f35d089c80bce11205aa513211382abfe349",
    "prism": "46169978faec42117e6e91c6db08f0d5b2e556dc03ee9f45b107d3a4f02a26bd",
    "sd S2": "c383dabda80a71cd4cbf3b38b80614ad21551fa938dae3b53a9eab2d1205d0dd",
    "torus": "453716d5f3b7ba0cf1432a39796384b46d716fc2fb733c12b20fba3402d4222c",
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_searches_of_symmetric_complexes_are_pinned(name):
    assert _search_digest(SYMMETRIC[name]()) == SYMMETRIC_SEARCH_SHA256[name]


def test_searches_of_the_census_states_are_pinned():
    states, _ = _census_states(2, 12)
    digests = "\n".join(map(_search_digest, states))
    assert len(states) == 111
    assert hashlib.sha256(digests.encode()).hexdigest() == (
        "d71f5af9481fcb55246fb2262a795509e78794f863fbb8a6d0ab6eb41ee58d81")


# (count, sha256 of the sorted signatures joined by newlines), the
# census digests of the benchmark's expected outputs
CENSUS_SHA256 = {
    (1, 12): (10, "564d0d5c1281b09cc94548f584084ccbd95920cf1348d07c5742362e5087831e"),
    (2, 14): (73, "1a1bff74177e600c7bcb5b3fd0dbeab324257da12abe485d0ab2c3bfa3464955"),
    (3, 12): (6, "59adb906e3a66a90aac1191ea00e0fee2b0901e401d9deb0d1776e249d325e97"),
}


@pytest.mark.parametrize("n, cap", CENSUS_ENUMERATIONS)
def test_census_enumerations_are_pinned(n, cap):
    sigs = list(enumerate_spheres(n, cap))
    digest = hashlib.sha256("\n".join(sorted(sigs)).encode()).hexdigest()
    assert (len(sigs), digest) == CENSUS_SHA256[(n, cap)]


def test_census_move_pruning_matches_the_any_scan():
    # the census prunes moves with each state's full automorphism list
    want = list(enumerate_spheres(2, 12))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(markov, "_orbit_representatives", _lockstep_orbit_representatives([0]))
        assert list(enumerate_spheres(2, 12)) == want


@given(small_complexes())
@example(validate([[0, 1, 2], [2, 3], [3, 4, 5, 6], [7]]))
@example(validate([[0, 1], [1, 2, 3], [4]]))
@example(Complex(()))
def test_signature_matches_the_canonical_copy_oracle(cx):
    # non-pure complexes order their facets by size before labels
    assert (Complex._from_trusted(cx.facets).iso_signature()
            == iso_signature_via_canonical(Complex._from_trusted(cx.facets)))
