import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from plmarkov import complex_core, stellar_moves
from plmarkov import verdict as vd
from plmarkov.builders import (
    cone,
    ordered_product,
    reference_manifold,
    simplex_sphere,
    sphere_product,
    standard_simplex,
)
from plmarkov.complex_core import Complex, InvalidComplexError, isomorphism
from plmarkov.invariants import betti_numbers, homology
from plmarkov.stellar_moves import (
    Certificate,
    StellarMove,
    _escape_plateau,
    _link_factor,
    _link_splits,
    apply_certificate,
    apply_flip,
    descend,
    flip_candidates,
    format_certificate,
    parse_certificate,
    reduce_with_trace,
    search_equivalence,
    stellar_subdivide,
    stellar_weld,
    subdivision_candidates,
    weld_candidates,
    weld_parts,
)
from plmarkov.complex_core import barycentric_subdivision

from test_complex_core import small_complexes
from oracles import (
    facets_containing_linear,
    flip_candidates_with_vertex_flips,
    has_face_linear,
    link_factor_by_expected_set,
    link_splits_min_first,
    reduce_with_trace_two_loops,
    search_equivalence_invariants_first,
    weld_candidates_linear,
    weld_candidates_unpruned,
)

OCTA = Complex([[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 2],
                [6, 2, 3], [6, 3, 4], [6, 4, 5], [6, 5, 2]])

TORUS_9 = Complex([
    [0, 1, 3], [1, 3, 4], [1, 2, 4], [2, 4, 5], [0, 2, 5], [0, 3, 5],
    [3, 4, 6], [4, 6, 7], [4, 5, 7], [5, 7, 8], [3, 5, 8], [3, 6, 8],
    [0, 6, 7], [0, 1, 7], [1, 7, 8], [1, 2, 8], [2, 6, 8], [0, 2, 6],
])

# the 7-vertex torus: 2-neighbourly, so every s or B of a move is a face
TORUS_7 = Complex([[i, (i + a) % 7, (i + 3) % 7] for i in range(7) for a in (1, 2)])


class TestSubdivide:
    def test_edge_of_triangle_boundary(self):
        cyc = Complex([[0, 1], [1, 2], [0, 2]])
        out = stellar_subdivide(cyc, [0, 1])
        assert out.f_vector() == (4, 4)
        assert out.has_face([0, 3]) and out.has_face([1, 3])
        assert not out.has_face([0, 1])

    def test_facet_of_triangle(self):
        out = stellar_subdivide(standard_simplex(2), [0, 1, 2])
        assert out.f_vector() == (4, 6, 3)
        assert out.euler_characteristic() == 1

    def test_fresh_vertex_is_max_plus_one(self):
        out = stellar_subdivide(simplex_sphere(2), [0, 1])
        assert out.vertices == (0, 1, 2, 3, 4)

    def test_non_face_rejected(self):
        with pytest.raises(InvalidComplexError):
            stellar_subdivide(Complex([[0, 1], [1, 2]]), [0, 2])

    def test_vertex_rejected(self):
        with pytest.raises(InvalidComplexError):
            stellar_subdivide(simplex_sphere(2), [0])

    def test_preserves_homology_and_closedness(self):
        s3 = simplex_sphere(3)
        for face in ([0, 1], [0, 1, 2], [0, 1, 2, 3]):
            out = stellar_subdivide(s3, face)
            assert out.is_closed_pseudomanifold()
            assert homology(out) == homology(s3)


class TestWeld:
    def test_undoes_subdivision(self):
        s3 = simplex_sphere(3)
        mid = stellar_subdivide(s3, [1, 2, 3])
        back = stellar_weld(mid, 5, [1, 2, 3])
        assert back == s3

    def test_cone_point_weld(self):
        # link of the apex is exactly the boundary of the base
        c = cone(simplex_sphere(1))
        apex = c.vertices[-1]
        assert stellar_weld(c, apex, [0, 1, 2]) == standard_simplex(2)

    def test_octahedron_diagonal_weld(self):
        parts = weld_parts(OCTA, 1, [2, 4])
        assert parts == [frozenset([3]), frozenset([5])]
        out = stellar_weld(OCTA, 1, [2, 4])
        assert out.f_vector() == (5, 9, 6)
        assert out.is_closed_pseudomanifold()
        assert betti_numbers(out) == (1, 0, 1)

    def test_weld_rejects_existing_face(self):
        assert weld_parts(OCTA, 1, [2, 3]) is None  # {2,3} is an edge
        with pytest.raises(InvalidComplexError):
            stellar_weld(OCTA, 1, [2, 3])

    @pytest.mark.parametrize("vertex, s", [(0, [1]), (0, [1, 4]), (9, [1, 3]), (0, [1, 3])],
                             ids=["one-vertex", "face", "no-vertex", "no-split"])
    def test_weld_rejections_on_the_torus(self, vertex, s):
        # a one-vertex s; the edge {1, 4}; a vertex outside the complex;
        # a hexagon link that is no suspension over {1, 3}
        torus = sphere_product(1, 1)
        assert weld_parts(torus, vertex, s) is None
        with pytest.raises(InvalidComplexError, match="is not legal"):
            stellar_weld(torus, vertex, s)

    def test_replaying_a_weld_with_no_simplex_is_a_named_error(self):
        with pytest.raises(InvalidComplexError, match="is not legal"):
            apply_certificate(sphere_product(1, 1), parse_certificate("W 3\n"))

    def test_weld_rejects_wrong_link(self):
        # link of 1 in the torus is a 6-cycle, never a suspension
        for v, s in weld_candidates(TORUS_9):
            raise AssertionError(f"unexpected weld {v} {sorted(s)}")

    def test_candidates_on_octahedron(self):
        cands = list(weld_candidates(OCTA))
        assert (1, frozenset([2, 4])) in cands
        # every candidate replays legally and keeps the sphere profile
        for v, s in cands:
            out = stellar_weld(OCTA, v, s)
            assert out.is_closed_pseudomanifold()
            assert betti_numbers(out) == (1, 0, 1)


def _weld_scan_inputs():
    s1s3 = sphere_product(1, 3)
    links = {f"s1xs3-link-{v}": s1s3.link([v]) for v in s1s3.vertices}
    return {"torus": TORUS_9, "octahedron": OCTA, **links}


WELD_SCAN_INPUTS = _weld_scan_inputs()


@pytest.mark.parametrize("name", WELD_SCAN_INPUTS)
def test_weld_candidates_match_linear_oracle(name):
    cx = WELD_SCAN_INPUTS[name]
    assert list(weld_candidates(cx)) == weld_candidates_linear(cx)


SUBDIVISION_BASES = [simplex_sphere(2), simplex_sphere(3), OCTA,
                     sphere_product(1, 1), sphere_product(1, 2)]


@given(st.integers(0, len(SUBDIVISION_BASES) - 1), st.data())
def test_degree_pruned_weld_scan_matches_unpruned(idx, data):
    # subdividing at a k-face leaves a fresh vertex whose link splits as
    # the face's boundary joined with a factor: a weld of size k + 1
    cx = SUBDIVISION_BASES[idx]
    for _ in range(data.draw(st.integers(0, 4))):
        faces = [f for k in range(1, cx.dim + 1) for f in cx.faces(k)]
        cx = stellar_subdivide(cx, faces[data.draw(st.integers(0, len(faces) - 1))])
    assert list(weld_candidates(cx)) == weld_candidates_unpruned(cx)


@pytest.mark.parametrize("name", WELD_SCAN_INPUTS)
def test_face_lookups_match_linear_scan(name):
    cx = WELD_SCAN_INPUTS[name]
    # every face, plus non-faces: all small vertex sets and an unused label
    probes = [frozenset()] + list(cx.faces())
    for k in (1, 2, 3):
        probes += [frozenset(c) for c in itertools.combinations(cx.vertices, k)]
    probes.append(frozenset([max(cx.vertices) + 1]))
    for s in probes:
        assert cx.has_face(s) == has_face_linear(cx, s), sorted(s)
        assert cx.facets_containing(s) == facets_containing_linear(cx, s), sorted(s)


class TestCertificates:
    def test_format_parse_round_trip(self):
        cert = Certificate(
            (StellarMove("S", (0, 1), 4), StellarMove("W", (2, 3), 4)),
            (3, 0, 1, 2),
        )
        text = format_certificate(cert)
        back = parse_certificate(text)
        assert back.relabel == cert.relabel
        assert [(m.kind, m.simplex) for m in back.moves] == [
            ("S", (0, 1)), ("W", (2, 3))
        ]
        assert format_certificate(back) == text

    def test_parse_ignores_comments_and_blanks(self):
        cert = parse_certificate("# intro\n\nS 0 1  # inline\nP 1 0\n")
        assert cert.moves == (StellarMove("S", (0, 1), -1),)
        assert cert.relabel == (1, 0)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_certificate("Q 1 2\n")
        with pytest.raises(ValueError):
            parse_certificate("S one two\n")

    def test_replay_subdivide_then_weld(self):
        s2 = simplex_sphere(2)
        cert = parse_certificate("S 0 1\nW 4 0 1\n")
        assert apply_certificate(s2, cert) == s2

    def test_replay_relabel_only(self):
        s2 = simplex_sphere(2)
        cert = Certificate((), (10, 11, 12, 13))
        out = apply_certificate(s2, cert)
        assert out.vertices == (10, 11, 12, 13)
        assert isomorphism(s2, out) is not None

    def test_relabel_length_checked(self):
        with pytest.raises(InvalidComplexError):
            apply_certificate(simplex_sphere(2), Certificate((), (1, 0)))


class TestFlips:
    def test_tetrahedron_boundary_only_offers_facet_moves(self):
        cands = list(flip_candidates(simplex_sphere(2)))
        assert [(sorted(a), sorted(b)) for a, b in cands] == [
            ([0, 1, 2], [0, 1, 2]),
            ([0, 1, 3], [0, 1, 3]),
            ([0, 2, 3], [0, 2, 3]),
            ([1, 2, 3], [1, 2, 3]),
        ]

    def test_octahedron_edge_flip(self):
        out, recs = apply_flip(OCTA, frozenset([2, 3]), frozenset([1, 6]))
        assert out.has_face([1, 6]) and not out.has_face([2, 3])
        assert len(out.facets) == len(OCTA.facets)
        assert betti_numbers(out) == (1, 0, 1)
        # the emitted stellar lines replay to the same complex
        replay = apply_certificate(OCTA, Certificate(tuple(recs)))
        assert replay == out

    def test_flip_partner_must_be_missing(self):
        # every edge of the tetrahedron boundary has its opposite edge
        # present, so no edge flips are offered
        for a, b in flip_candidates(simplex_sphere(2)):
            assert len(a) == 3

    def test_facet_flip_is_cone_subdivision(self):
        out, recs = apply_flip(simplex_sphere(2), frozenset([0, 1, 2]),
                               frozenset([0, 1, 2]))
        assert len(out.facets) == 6
        assert [m.kind for m in recs] == ["S"]


class TestReduction:
    def test_octahedron_reduces_to_tetrahedron_boundary(self):
        red, moves = reduce_with_trace(OCTA, vd.Budget(1000))
        assert isomorphism(red, simplex_sphere(2)) is not None
        replay = apply_certificate(OCTA, Certificate(tuple(moves)))
        assert replay == red

    def test_barycentric_sphere_reduces_fully(self):
        sd = barycentric_subdivision(simplex_sphere(2))
        red, moves = reduce_with_trace(sd, vd.Budget(10000))
        assert isomorphism(red, simplex_sphere(2)) is not None
        assert apply_certificate(sd, Certificate(tuple(moves))) == red

    def test_torus_has_no_reduction_below_minimum(self):
        # 14 facets is the floor for a torus; descent must stop at it
        red, _ = reduce_with_trace(TORUS_9, vd.Budget(10000))
        assert len(red.facets) >= 14
        assert betti_numbers(red) == (1, 2, 1)

    def test_zero_budget_is_identity(self):
        red, moves = reduce_with_trace(OCTA, vd.Budget(0))
        assert red == OCTA and moves == []


class TestSearchEquivalence:
    def verify(self, a, b, verdict):
        assert verdict.is_yes
        assert apply_certificate(a, verdict.witness) == b

    def test_equal_complexes(self):
        v = search_equivalence(OCTA, OCTA, 100)
        self.verify(OCTA, OCTA, v)
        assert len(v.witness.moves) == 0

    def test_isomorphic_complexes(self):
        other = OCTA.relabeled({v: v + 10 for v in OCTA.vertices})
        v = search_equivalence(OCTA, other, 100)
        self.verify(OCTA, other, v)
        assert len(v.witness.moves) == 0

    def test_sphere_vs_barycentric_subdivision(self):
        s2 = simplex_sphere(2)
        sd = barycentric_subdivision(s2)
        v = search_equivalence(s2, sd, 100000)
        self.verify(s2, sd, v)

    def test_octahedron_vs_tetrahedron_boundary(self):
        v = search_equivalence(OCTA, simplex_sphere(2), 100000)
        self.verify(OCTA, simplex_sphere(2), v)

    def test_three_sphere_subdivision(self):
        s3 = simplex_sphere(3)
        big = stellar_subdivide(stellar_subdivide(s3, [0, 1, 2]), [2, 3, 5])
        v = search_equivalence(big, s3, 100000)
        self.verify(big, s3, v)

    def test_dimension_mismatch(self):
        v = search_equivalence(simplex_sphere(2), simplex_sphere(3), 1000)
        assert v.is_no and v.reason == "dimension-mismatch"

    def test_homology_mismatch(self):
        # projective plane vs disk: same dimension and Euler number,
        # homology torsion tells them apart
        rp2 = Complex([
            [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 5, 6],
            [2, 3, 5], [2, 3, 6], [2, 4, 6], [3, 4, 5], [4, 5, 6],
        ])
        v = search_equivalence(rp2, standard_simplex(2), 1000)
        assert v.is_no and v.reason == "homology-mismatch"

    def test_shared_edge_pair_is_a_disk(self):
        # the search discovers the weld collapsing two triangles glued
        # along an edge down to one
        a = Complex([[0, 1, 2], [1, 2, 3]])
        b = standard_simplex(2)
        self.verify(a, b, search_equivalence(a, b, 1000))

    def test_euler_mismatch(self):
        a = Complex([[0, 1, 2], [3, 4, 5]])
        b = standard_simplex(2)
        v = search_equivalence(a, b, 1000)
        assert v.is_no and v.reason == "euler-mismatch"

    def test_orientability_mismatch(self):
        # the Moebius strip and the annulus agree in dimension, Euler
        # number and homology; only orientability tells them apart
        mobius = Complex([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0], [4, 0, 1]])
        annulus = Complex([[0, 1, 3], [1, 3, 4], [1, 2, 4], [2, 4, 5], [2, 0, 5],
                           [0, 5, 3]])
        v = search_equivalence(mobius, annulus, 1000)
        assert v.is_no and v.reason == "orientability-mismatch"
        assert v.detail == {"left": False, "right": True}
        v = search_equivalence(annulus, mobius, 1000)
        assert v.is_no and v.reason == "orientability-mismatch"
        assert v.detail == {"left": True, "right": False}

    def test_orientability_is_skipped_where_it_is_undefined(self):
        # a ridge in three facets has no orientation to compare, so the
        # search goes on and finds the relabelling
        fan = Complex([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        with pytest.raises(InvalidComplexError):
            fan.is_orientable()
        other = fan.relabeled({v: v + 10 for v in fan.vertices})
        self.verify(fan, other, search_equivalence(fan, other, 1000))

    def test_tiny_budget_gives_unknown(self):
        sd = barycentric_subdivision(simplex_sphere(2))
        v = search_equivalence(simplex_sphere(2), sd, 2)
        assert v.is_unknown

    def test_product_torus_vs_nine_vertex_torus(self):
        prod = ordered_product(Complex([[0, 1], [1, 2], [2, 3], [0, 3]]),
                               Complex([[0, 1], [1, 2], [2, 3], [0, 3]]))
        v = search_equivalence(prod, TORUS_9, 200000)
        self.verify(prod, TORUS_9, v)


# the octahedron subdivided at {1, 2}, which welds at 7, plus facets of
# dimension 1 and 3
NON_PURE = Complex(list(stellar_subdivide(OCTA, [1, 2]).facets) + [[6, 20], [20, 21, 22, 23]])


def _disjoint(*cxs):
    facets, shift = [], 0
    for cx in cxs:
        facets += [[v + shift for v in f] for f in cx.facets]
        shift += cx.vertices[-1] + 1
    return Complex(facets)


def _equivalence_inputs():
    """The gate-1 corpus, simplex spheres and sphere products with their
    barycentric subdivisions, and non-pure and disconnected complexes;
    pairs of one dimension and Euler number reach the descent."""
    out = {
        "S4": simplex_sphere(4),
        "S1xS1": sphere_product(1, 1),
        "S1xS3": sphere_product(1, 3),
        "S2xS2": sphere_product(2, 2),
        "T(2,4)": reference_manifold(2, 4),
        "S1xS2": sphere_product(1, 2),
    }
    for d in (1, 2, 3):
        out["S%d" % d] = simplex_sphere(d)
    for name in ("S1", "S2", "S3", "S1xS1", "S1xS2"):
        out["sd " + name] = barycentric_subdivision(out[name])
    out["fin"] = Complex([[0, 1, 2], [2, 3]])
    out["disc"] = standard_simplex(2)
    out["non-pure"] = NON_PURE
    out["mobius"] = Complex([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0], [4, 0, 1]])
    out["annulus"] = Complex([[0, 1, 3], [1, 3, 4], [1, 2, 4], [2, 4, 5], [2, 0, 5],
                              [0, 5, 3]])
    out["two circles"] = _disjoint(simplex_sphere(1), simplex_sphere(1))
    out["S1xS1 + S2"] = _disjoint(sphere_product(1, 1), simplex_sphere(2))
    out["two S2"] = _disjoint(simplex_sphere(2), simplex_sphere(2))
    return out


EQUIVALENCE_INPUTS = _equivalence_inputs()


@pytest.mark.parametrize("budget", [1, 10, 200])
def test_search_matches_the_invariants_first_search(budget):
    # a certified pair has equal invariants, and the descent is the same
    # computation on the same budget, so only the order of work changed
    reached = Counter()
    for (na, a), (nb, b) in itertools.product(EQUIVALENCE_INPUTS.items(), repeat=2):
        got = search_equivalence(a, b, budget)
        want = search_equivalence_invariants_first(a, b, budget)
        assert got.to_json() == want.to_json(), (na, nb)
        if got.is_yes:
            assert format_certificate(got.witness) == format_certificate(want.witness)
        reached[got.status, got.reason] += 1
    # both invariant nos that now follow an unsettled descent
    assert reached["no", "homology-mismatch"] and reached["no", "orientability-mismatch"]


def test_a_homology_no_comes_after_the_descent(monkeypatch):
    # S1 x S2 and the 3-sphere share dimension and Euler number
    order = []
    monkeypatch.setattr(stellar_moves, "descend",
                        lambda a, b, n, real=descend: order.append("descend") or real(a, b, n))
    monkeypatch.setattr(stellar_moves, "homology",
                        lambda cx, real=homology: order.append("homology") or real(cx))
    v = search_equivalence(Complex(sphere_product(1, 2).facets), simplex_sphere(3), 1000)
    assert v.is_no and v.reason == "homology-mismatch"
    assert order == ["descend", "homology", "homology"]


def test_a_certified_search_computes_no_homology(monkeypatch):
    calls = []
    monkeypatch.setattr(stellar_moves, "homology",
                        lambda cx, real=homology: calls.append(cx) or real(cx))
    s3 = Complex(simplex_sphere(3).facets)
    sd = barycentric_subdivision(s3)
    v = search_equivalence(s3, sd, 100000)
    assert v.is_yes and apply_certificate(s3, v.witness) == sd
    assert calls == []


MOVE_BASES = [OCTA, simplex_sphere(3), TORUS_9]


@given(st.integers(0, len(MOVE_BASES) - 1), st.data())
def test_any_single_move_preserves_homology(idx, data):
    cx = MOVE_BASES[idx]
    moves = []
    for k in range(1, cx.dim + 1):
        moves.extend(("S", f) for f in cx.faces(k))
    moves.extend(("W", c) for c in weld_candidates(cx))
    pick = data.draw(st.integers(0, len(moves) - 1))
    kind, payload = moves[pick]
    if kind == "S":
        out = stellar_subdivide(cx, payload)
    else:
        out = stellar_weld(cx, payload[0], payload[1])
    assert homology(out) == homology(cx)
    assert out.euler_characteristic() == cx.euler_characteristic()


# The descent and the flip set against the two-loop descent and the flip
# scan that included vertex flips.  The order of the plateau escape and
# the reducing flip shows only in dimension 4 and up: below it a complex
# has sideways flips or reducing flips, never both.
SUBDIVISION_BASES = [simplex_sphere(2), simplex_sphere(3), OCTA, sphere_product(1, 1),
                     sphere_product(1, 2), simplex_sphere(4)]


# a weld, a reducing edge flip and two more welds take it back to the
# boundary of the 5-simplex; an escape tried before that flip leaves
# another trace
S4_SUBDIVIDED = stellar_subdivide(
    stellar_subdivide(stellar_subdivide(simplex_sphere(4), [0, 1, 2, 4, 5]), [2, 3, 4, 5]),
    [0, 4])


# descents that meet a star twice: the derived 2-sphere revisits weld
# stars, and the largest vertex link of the gate-2 manifold T(2, 4)
# revisits weld and flip stars
SD_S2 = barycentric_subdivision(simplex_sphere(2))
REF_LINK = max((reference_manifold(2, 4).link([v]) for v in reference_manifold(2, 4).vertices),
               key=lambda lk: len(lk.facets))


@st.composite
def stellar_subdivisions(draw):
    cx = draw(st.sampled_from(SUBDIVISION_BASES))
    for _ in range(draw(st.integers(0, 4))):
        cx = stellar_subdivide(cx, draw(st.sampled_from(list(subdivision_candidates(cx)))))
    return cx


@settings(max_examples=60, deadline=None)
@given(stellar_subdivisions(), st.integers(0, 30))
@example(S4_SUBDIVIDED, 30)
@example(SD_S2, 1000)
@example(REF_LINK, 1000)
# d + 2 facets, or d + 2 vertices, but not the boundary of a simplex
@example(Complex([[0, 1], [1, 2], [2, 3]]), 30)
@example(Complex([[0, 1], [1, 2]]), 30)
@example(Complex(()), 30)
def test_descent_matches_the_two_loop_descent(cx, budget):
    new_budget, old_budget = vd.Budget(budget), vd.Budget(budget)
    assert (reduce_with_trace(cx, new_budget)
            == reduce_with_trace_two_loops(cx, old_budget))
    assert new_budget.used == old_budget.used


def test_each_link_condition_is_judged_once_per_descent(monkeypatch):
    # the link condition of a weld depends only on the star of its
    # vertex, and a flip's only on the star of its face: the descent
    # tests each (link, s) once; its table lives for that descent, so a
    # second descent from the same complex judges them all again
    calls = Counter()

    def counting(link_facets, s, real=stellar_moves._link_factor):
        calls[frozenset(link_facets), s] += 1
        return real(link_facets, s)

    monkeypatch.setattr(stellar_moves, "_link_factor", counting)
    for cx in (SD_S2, REF_LINK):
        calls.clear()
        red, _ = reduce_with_trace(Complex(cx.facets), vd.Budget(1000))
        assert isomorphism(red, simplex_sphere(cx.dim)) is not None
        assert calls and max(calls.values()) == 1
    # no move applies on the 7-vertex torus, yet its link conditions must
    # be judged; the boundary of a simplex judges none (see below)
    torus = Complex(TORUS_7.facets)
    calls.clear()
    assert reduce_with_trace(torus, vd.Budget(1000)) == (torus, [])
    first = Counter(calls)
    assert first and max(first.values()) == 1
    calls.clear()
    assert reduce_with_trace(torus, vd.Budget(1000)) == (torus, [])
    assert calls == first


@pytest.mark.parametrize("d", range(6))
def test_descent_stops_at_once_on_a_simplex_boundary(monkeypatch, d):
    # every s or B of a move on the boundary of a (d+1)-simplex is a face,
    # so the descent returns it without judging a link condition
    calls = []

    def counting(link_facets, s, real=stellar_moves._link_factor):
        calls.append(s)
        return real(link_facets, s)

    monkeypatch.setattr(stellar_moves, "_link_factor", counting)
    sphere = Complex(simplex_sphere(d).facets)
    moved = sphere.relabeled({v: 10 * (d + 2 - v) + 3 for v in sphere.vertices})
    for cx in (sphere, moved):
        budget = vd.Budget(1000)
        assert reduce_with_trace(cx, budget) == (cx, [])
        assert budget.used == 0
    assert not calls


def test_descent_searches_its_ends_unless_both_are_simplex_boundaries(monkeypatch):
    # isomorphism maps two boundaries of simplices of one dimension in
    # label order without a canonical search; other pairs of one
    # f-vector are searched
    searched = []

    def counting(cx, targets, real=Complex._search):
        searched.append(cx)
        return real(cx, targets)

    monkeypatch.setattr(Complex, "_search", counting)
    s2 = simplex_sphere(2)
    moved = s2.relabeled({v: 9 - 2 * v for v in s2.vertices})
    psi = isomorphism(moved, s2)
    assert list(psi.items()) == list(zip(moved.vertices, s2.vertices))
    assert descend(moved, s2, 10).verdict.witness.relabel == (0, 1, 2, 3)
    # only a boundary of a simplex has its f-vector, so a pair with one
    # is told apart without a search; a budget of 0 leaves both sides as
    # they are, so both descent ends are the inputs
    disc = Complex(s2.facets[:3])
    sub = stellar_subdivide(s2, [0, 1])
    for a, b in [(s2, disc), (disc, s2), (s2, sub), (sub, s2), (s2, simplex_sphere(3))]:
        assert descend(a, b, 0).verdict is None
    assert not searched
    # the two 6-vertex 2-spheres share an f-vector: the inputs are
    # searched, and their descents end at boundaries of simplices, which
    # are not
    other = stellar_subdivide(stellar_subdivide(s2, [0, 1, 2]), [0, 1, 4])
    octahedron = stellar_subdivide(stellar_subdivide(s2, [0, 1]), [2, 3])
    assert descend(other, octahedron, 0).verdict is None
    assert searched == [other, octahedron]
    searched.clear()
    other, octahedron = Complex(other.facets), Complex(octahedron.facets)
    assert descend(other, octahedron, 100).verdict.is_yes
    assert searched == [other, octahedron]


@settings(max_examples=60, deadline=None)
@given(st.one_of(stellar_subdivisions(), small_complexes()))
@example(TORUS_9)
@example(REF_LINK)
@example(Complex([[0, 1, 2], [0, 3], [3, 4, 5], [2, 5, 6], [6, 7]]))
# a mixed star with a split: at 0, the link is the join of {10, 11} with
# the mixed complex {1, 2}, {3}
@example(Complex([[10, 0, 1, 2], [10, 0, 3], [11, 0, 1, 2], [11, 0, 3]]))
def test_link_splits_match_the_min_first_oracle(cx):
    at = cx._incidence()
    for v in cx.vertices:
        assert _link_splits(v, at[v]) == link_splits_min_first(v, at[v])


@st.composite
def link_factor_inputs(draw):
    """Candidate link facets and a simplex s: the facets of (boundary of
    s) * L for a drawn s and L, less some of them, plus some others."""
    s = draw(st.frozensets(st.integers(0, 3), min_size=1))
    rest = draw(st.sets(st.frozensets(st.integers(4, 7), max_size=3), min_size=1, max_size=4))
    facets = {(s - {w}) | t for w in s for t in rest}
    drop = draw(st.sets(st.sampled_from(sorted(facets, key=sorted)), max_size=2))
    extra = draw(st.sets(st.frozensets(st.integers(0, 7), min_size=1, max_size=5), max_size=2))
    return (facets - drop) | extra, s


def _fs(*facets):
    return {frozenset(f) for f in facets}


@settings(max_examples=300, deadline=None)
@given(link_factor_inputs())
# L trivial: the link is exactly the boundary of s
@example((_fs([0, 1], [0, 2], [1, 2]), frozenset([0, 1, 2])))
# vertex 2 of s lies in no facet: every facet misses it, but too few
@example((_fs([0, 1, 4], [0, 1, 5]), frozenset([0, 1, 2])))
# a facet misses two vertices of s
@example((_fs([0, 4], [1, 4], [4, 5]), frozenset([0, 1])))
# every facet misses one vertex of s, one pair (vertex, L facet) absent
@example((_fs([0, 4], [1, 4], [0, 5]), frozenset([0, 1])))
def test_link_factor_counts_as_the_expected_set_compares(case):
    facets, s = case
    want = link_factor_by_expected_set(facets, s)
    assert _link_factor(facets, s) == want
    assert _link_factor(tuple(sorted(facets, key=sorted)), s) == want


@settings(max_examples=60, deadline=None)
@given(stellar_subdivisions())
def test_flip_set_is_the_old_one_without_vertex_flips(cx):
    old = list(flip_candidates_with_vertex_flips(cx))
    assert list(flip_candidates(cx)) == [(a, b) for a, b in old if len(a) > 1]
    welds = set(weld_candidates(cx))
    for a, b in old:
        if len(a) == 1:
            assert (next(iter(a)), b) in welds


@pytest.mark.parametrize("cx, fingerprinted", [(simplex_sphere(3), False),
                                                (TORUS_9, True)],
                         ids=["S3", "torus"])
def test_plateau_escape_only_searches_even_dimensions(monkeypatch, cx, fingerprinted):
    # a facet-count-preserving flip has 2 * dim A = d, so an odd-dimensional
    # state returns at once, without fingerprinting it for the seen index
    calls = []

    def counting(c, real=complex_core.fingerprint):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(complex_core, "fingerprint", counting)
    budget, moves = vd.Budget(5), []
    assert _escape_plateau(cx, budget, moves, {}) is None
    assert bool(calls) == fingerprinted
    assert (budget.used > 0) == fingerprinted and moves == []


def derived_children(cx):
    """Each child that a move, a link or a star derives from cx, with the
    facet set that defines it: every weld of ``weld_candidates``, every
    subdivision, and the star and link of every vertex and edge."""
    for v, s in weld_candidates(cx):
        rest = weld_parts(cx, v, s)
        yield (stellar_weld(cx, v, s),
               {f for f in cx.facets if v not in f} | {s | t for t in rest})
    fresh = max(cx.vertices, default=-1) + 1
    for a in subdivision_candidates(cx):
        cof = {f for f in cx.facets if a <= f}
        yield (stellar_subdivide(cx, a),
               (set(cx.facets) - cof) | {(f - {u}) | {fresh} for f in cof for u in a})
    for k in (0, 1):
        for s in cx.faces(k):
            cof = {f for f in cx.facets if s <= f}
            yield cx.star(s), cof
            yield cx.link(s), {f - s for f in cof if f != s}


def assert_children_match_the_sorting_oracle(cx):
    # the oracle sorts the child's facets and counts its labels afresh
    for child, facets in derived_children(cx):
        want = Complex._from_trusted(facets)
        assert (child.facets, child.vertices) == (want.facets, want.vertices)


@settings(max_examples=60, deadline=None)
@given(small_complexes())
@example(NON_PURE)
def test_derived_children_match_the_sorting_oracle(cx):
    assert_children_match_the_sorting_oracle(cx)


def test_derived_children_of_finding_b_sphere_match_the_sorting_oracle():
    # the 864-facet sphere: three derived subdivisions of the 2-simplex boundary
    cx = simplex_sphere(2)
    for _ in range(3):
        cx = complex_core.derived_subdivision_raw(cx)
    assert len(cx.facets) == 864
    assert_children_match_the_sorting_oracle(cx)
