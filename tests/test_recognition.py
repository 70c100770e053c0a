import hashlib
import json
import time

import pytest

from plmarkov import invariants, recognition, stellar_moves, verdict as vd
from plmarkov.builders import (
    cone,
    connected_sum,
    ordered_product,
    simplex_sphere,
    sphere_product,
    standard_simplex,
    suspension,
)
from plmarkov.complex_core import Complex, barycentric_subdivision
from plmarkov.recognition import (
    classify_links,
    is_closed_manifold,
    is_combinatorial_ball,
    is_combinatorial_sphere,
    is_pl_manifold,
)
from plmarkov.stellar_moves import apply_certificate, descend, format_certificate, meet

from oracles import (is_combinatorial_ball_by_rim, is_combinatorial_sphere_gates_first,
                     meet_by_branches)

OCTA = Complex([[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 2],
                [6, 2, 3], [6, 3, 4], [6, 4, 5], [6, 5, 2]])

TORUS_9 = Complex([
    [0, 1, 3], [1, 3, 4], [1, 2, 4], [2, 4, 5], [0, 2, 5], [0, 3, 5],
    [3, 4, 6], [4, 6, 7], [4, 5, 7], [5, 7, 8], [3, 5, 8], [3, 6, 8],
    [0, 6, 7], [0, 1, 7], [1, 7, 8], [1, 2, 8], [2, 6, 8], [0, 2, 6],
])

ANNULUS = Complex([[0, 1, 3], [1, 3, 4], [1, 2, 4], [2, 4, 5],
                   [0, 2, 5], [0, 3, 5]])

MOEBIUS = Complex([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0], [4, 0, 1]])

RP2_6 = Complex([
    [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 5, 6],
    [2, 3, 5], [2, 3, 6], [2, 4, 6], [3, 4, 5], [4, 5, 6],
])


class TestSphereRecognition:
    def test_reference_spheres(self):
        for d in range(0, 4):
            v = is_combinatorial_sphere(simplex_sphere(d))
            assert v.is_yes, d

    def test_yes_comes_with_replayable_certificate(self):
        sd = barycentric_subdivision(simplex_sphere(2))
        v = is_combinatorial_sphere(sd)
        assert v.is_yes
        assert apply_certificate(sd, v.witness) == simplex_sphere(2)

    def test_octahedron_and_suspensions(self):
        assert is_combinatorial_sphere(OCTA).is_yes
        assert is_combinatorial_sphere(suspension(OCTA)).is_yes

    def test_connected_sum_of_spheres(self):
        two = connected_sum(simplex_sphere(3), simplex_sphere(3))
        assert is_combinatorial_sphere(two).is_yes

    def test_torus_rejected_by_invariants(self):
        v = is_combinatorial_sphere(TORUS_9)
        assert v.is_no
        assert v.reason in ("euler-mismatch", "homology-mismatch")

    def test_projective_plane_rejected(self):
        v = is_combinatorial_sphere(RP2_6)
        assert v.is_no
        assert v.reason in ("euler-mismatch", "homology-mismatch")

    def test_non_orientable_closed_manifold_fails_the_homology_gate(self):
        # RP2 x S1 has a sphere's Euler number, so only homology stops it:
        # a non-orientable closed pseudomanifold has top homology 0
        cx = ordered_product(RP2_6, simplex_sphere(1))
        assert len(cx.facets) == 90 and cx.euler_characteristic() == 0
        assert not cx.is_orientable()
        v = is_combinatorial_sphere(cx)
        assert v.is_no and v.reason == "homology-mismatch"

    def test_ball_rejected(self):
        v = is_combinatorial_sphere(standard_simplex(2))
        assert v.is_no and v.reason == "not-closed-pseudomanifold"

    def test_impure_complex(self):
        v = is_combinatorial_sphere(Complex([[0, 1, 2], [2, 3]]))
        assert v.is_no and v.reason == "not-pure"

    def test_empty_complex_is_the_minus_one_sphere(self):
        empty = standard_simplex(0).link([0])
        assert is_combinatorial_sphere(empty).is_yes

    def test_budget_exhaustion_reports_unknown(self):
        sd = barycentric_subdivision(simplex_sphere(2))
        v = is_combinatorial_sphere(sd, budget=2)
        assert v.is_unknown


class TestBallRecognition:
    def test_single_simplex(self):
        for d in range(0, 4):
            assert is_combinatorial_ball(standard_simplex(d)).is_yes, d

    def test_cone_over_sphere(self):
        c = cone(OCTA)
        v = is_combinatorial_ball(c)
        assert v.is_yes

    def test_subdivided_triangle(self):
        sub = barycentric_subdivision(standard_simplex(2))
        assert is_combinatorial_ball(sub).is_yes

    def test_path_is_a_one_ball(self):
        assert is_combinatorial_ball(Complex([[0, 1], [1, 2], [2, 3]])).is_yes

    def test_sphere_rejected(self):
        v = is_combinatorial_ball(simplex_sphere(2))
        assert v.is_no and v.reason == "no-boundary"

    # a no names an obstruction of the cone closure: a strip's closure
    # has Euler number 1, where a 2-sphere has 2
    def test_annulus_rejected(self):
        v = is_combinatorial_ball(ANNULUS)
        assert v.is_no
        assert (v.reason, v.detail) == ("euler-mismatch", {"have": 1, "want": 2})

    def test_moebius_strip_rejected(self):
        v = is_combinatorial_ball(MOEBIUS)
        assert v.is_no
        assert (v.reason, v.detail) == ("euler-mismatch", {"have": 1, "want": 2})

    def test_subdivided_four_simplex_is_a_ball_within_two_seconds(self):
        # a search against the solid simplex spends its whole default
        # budget (100,000 states) here and answers unknown; the
        # closure's descent settles it
        sd = barycentric_subdivision(standard_simplex(4))
        start = time.perf_counter()
        v = is_combinatorial_ball(sd)
        assert time.perf_counter() - start < 2.0
        assert v.is_yes
        assert apply_certificate(_cone_closure(sd), v.witness) == simplex_sphere(4)

    def test_cones_over_non_spheres_fail_on_the_closure(self):
        # the closure of a cone over X is the suspension of X
        v = is_combinatorial_ball(cone(TORUS_9))
        assert (v.reason, v.detail) == ("euler-mismatch", {"have": 2, "want": 0})
        v = is_combinatorial_ball(cone(sphere_product(1, 2)))
        assert v.reason == "homology-mismatch" and set(v.detail) == {"left", "right"}

    def test_agrees_with_the_rim_search_and_replays_every_closure(self):
        for i, cx in enumerate(_ball_corpus()):
            new = is_combinatorial_ball(cx)
            old = is_combinatorial_ball_by_rim(cx)
            assert not new.is_unknown, i
            if not old.is_unknown:
                assert new.status == old.status, (i, new, old)
            if new.is_yes and len(cx.facets) > 1:
                closure = _cone_closure(cx)
                assert apply_certificate(closure, new.witness) == simplex_sphere(cx.dim), i

    def test_closures_match_the_checked_constructor(self, monkeypatch):
        # the closure inserts the cone facets into cx's facets in order
        # and extends cx's vertex tuple by the apex
        built = []
        monkeypatch.setattr(recognition, "_sphere_gates", lambda c: built.append(c) or vd.unknown())
        for cx in _ball_corpus():
            built.clear()
            is_combinatorial_ball(cx)
            if built:
                want = _cone_closure(cx)
                assert (built[0].facets, built[0].vertices) == (want.facets, want.vertices)


def _cone_closure(cx):
    apex = max(cx.vertices) + 1
    return Complex(list(cx.facets) + [r | {apex} for r in cx.boundary().facets])


def _ball_corpus():
    """107 balls and non-balls: every vertex link of six manifolds with
    boundary, five of those manifolds, cones, strips, a path, two
    triangles meeting at a vertex, and a sphere."""
    sd = barycentric_subdivision
    manifolds = [sd(standard_simplex(3)), ordered_product(standard_simplex(1), simplex_sphere(2)),
                 ordered_product(simplex_sphere(1), standard_simplex(2)),
                 sd(sd(standard_simplex(2))), ordered_product(standard_simplex(2), standard_simplex(1))]
    linked = manifolds + [sd(standard_simplex(4))]
    corpus = [cx.link([v]) for cx in linked for v in cx.vertices] + manifolds + [
        cone(TORUS_9), cone(OCTA), cone(sphere_product(1, 2)), ANNULUS, MOEBIUS,
        Complex([[0, 1], [1, 2], [2, 3]]), Complex([[0, 1, 2], [2, 3, 4]]), simplex_sphere(2)]
    assert len(corpus) == 107
    return corpus


class TestManifoldRecognition:
    def test_spheres_are_closed_manifolds(self):
        for cx in (simplex_sphere(2), simplex_sphere(3), OCTA):
            v = is_closed_manifold(cx)
            assert v.is_yes
            assert not v.witness.boundary_vertices

    def test_torus_is_a_closed_manifold(self):
        assert is_closed_manifold(TORUS_9).is_yes

    def test_product_four_manifold(self):
        v = is_closed_manifold(sphere_product(1, 3), budget=2000000)
        assert v.is_yes

    def test_ball_is_manifold_with_boundary(self):
        c = cone(OCTA)
        v = is_pl_manifold(c)
        assert v.is_yes
        report = v.witness
        # six base vertices on the boundary, the apex interior
        assert len(report.boundary_vertices) == 6
        interior = set(c.vertices) - set(report.boundary_vertices)
        assert len(interior) == 1
        assert is_closed_manifold(c).is_no

    def test_pinched_sphere_rejected(self):
        # two tetrahedron boundaries sharing one vertex: the link at
        # the pinch is two disjoint triangles, neither sphere nor ball
        a = simplex_sphere(2)
        b = a.relabeled({0: 0, 1: 11, 2: 12, 3: 13})
        pinch = Complex(list(a.facets) + list(b.facets))
        v = is_pl_manifold(pinch)
        assert v.is_no
        report = classify_links(pinch)
        entry = report.entries[0]
        assert entry.vertex == 0 and entry.status == vd.NO

    def test_impure_rejected(self):
        assert is_pl_manifold(Complex([[0, 1, 2], [2, 3]])).is_no

    def test_link_classes_are_shared(self):
        # every vertex of the octahedron has the same link shape, so
        # the report classifies one representative and reuses it
        report = classify_links(OCTA)
        assert {e.status for e in report.entries} == {vd.YES}
        assert {e.f_vector for e in report.entries} == {(4, 4)}


class TestReportDeterminism:
    def test_report_json_shape(self):
        report = classify_links(OCTA)
        blob = json.loads(report.to_text())
        assert blob["status"] == "yes"
        assert blob["closed"] is True
        assert len(blob["links"]) == 6
        assert blob["links"][0]["vertex"] == 1

    def test_report_with_boundary_lists_vertices(self):
        blob = classify_links(standard_simplex(2)).to_json()
        assert blob["closed"] is False
        assert blob["boundary_vertices"] == [0, 1, 2]


# manifolds with boundary and the sha256 of is_pl_manifold(cx).witness.to_text(),
# taken before ball recognition went through the cone closure
BOUNDARY_REPORTS = {
    "sd-simplex-3": (lambda: barycentric_subdivision(standard_simplex(3)),
                     "9c534f798ec840791d815d04835b7b22e2603abaf14646b6daa4c567c8a695b3"),
    "sd-simplex-4": (lambda: barycentric_subdivision(standard_simplex(4)),
                     "c1275ca66c4100be9ea7793738b038c5c0dfaaaa30cc808ccd067038baada6b6"),
    "interval-x-sphere-2": (lambda: ordered_product(standard_simplex(1), simplex_sphere(2)),
                            "3010e5af3fea666da31d1304758a8e0cd7c3d3ab7de4669a9cf811e8161904d9"),
    "circle-x-triangle": (lambda: ordered_product(simplex_sphere(1), standard_simplex(2)),
                          "4aff21ed72b111b4f01c4c0ff77b4fdd7d2f92fd535c5f5cf2a4a73d867f85f2"),
}


@pytest.mark.parametrize("name", BOUNDARY_REPORTS)
def test_reports_with_boundary_vertices_are_pinned(name):
    build, digest = BOUNDARY_REPORTS[name]
    v = is_pl_manifold(build())
    assert v.is_yes and v.witness.boundary_vertices
    assert hashlib.sha256(v.witness.to_text().encode()).hexdigest() == digest


def test_reference_complexes_compute_homology_once(monkeypatch):
    # The homology gates compare against simplex_sphere(d); the builder
    # hands back one shared complex per dimension, so its cached homology
    # profile serves every later gate.
    # Sphere links settled by the descent never reach the gate, so the
    # apex links of the suspended S1 x S2 (S1 x S2 itself) bring it in.
    computed = []

    def counting_homology(cx, real=invariants.homology):
        if not cx.is_empty and "homology" not in cx._cache:
            computed.append(cx.facets)
        return real(cx)

    for module in (recognition, stellar_moves):
        monkeypatch.setattr(module, "homology", counting_homology)
    simplex_sphere.cache_clear()
    inputs = [sphere_product(1, 2), simplex_sphere(4), TORUS_9,
              suspension(sphere_product(1, 2))]
    inputs = [cx.relabeled({v: v + 100 for v in cx.vertices}) for cx in inputs]
    for _ in range(3):
        for cx in inputs[:3]:
            assert is_closed_manifold(cx, budget=20000).is_yes
        v = is_closed_manifold(inputs[3], budget=20000)
        assert v.is_no and "sphere: homology-mismatch" in v.reason
    refs = {simplex_sphere(d).facets for d in range(1, 5)}
    per_ref = [computed.count(r) for r in refs if r in computed]
    assert per_ref and all(k == 1 for k in per_ref)


def test_links_settled_by_the_descent_compute_no_homology(monkeypatch):
    computed = []

    def counting_homology(cx, real=invariants.homology):
        computed.append(cx.facets)
        return real(cx)

    for module in (recognition, stellar_moves):
        monkeypatch.setattr(module, "homology", counting_homology)
    for cx in (sphere_product(1, 2), simplex_sphere(4), TORUS_9, OCTA):
        assert is_closed_manifold(cx, budget=20000).is_yes
    sd = barycentric_subdivision(simplex_sphere(3))
    assert is_combinatorial_sphere(sd).is_yes
    assert computed == []


def _euler_sphere_non_spheres():
    s1s2 = sphere_product(1, 2)
    apex = max(suspension(s1s2).vertices)
    return {
        "s1xs2": s1s2,
        "s1xs2-subdivided": stellar_moves.stellar_subdivide(
            s1s2, min(s1s2.facets, key=sorted)),
        "s1xs4": sphere_product(1, 4),
        "suspended-s1xs2": suspension(s1s2),
        "suspended-s1xs2-apex-link": suspension(s1s2).link([apex]),
    }


EULER_SPHERE_NON_SPHERES = _euler_sphere_non_spheres()


def _same_sphere_verdicts(cx, budget):
    new = is_combinatorial_sphere(cx, budget)
    old = is_combinatorial_sphere_gates_first(cx, budget)
    assert new.to_json() == old.to_json()
    if new.is_yes:
        assert format_certificate(new.witness) == format_certificate(old.witness)
    return new


@pytest.mark.parametrize("name", EULER_SPHERE_NON_SPHERES)
def test_euler_sphere_non_spheres_match_gates_first_oracle(name):
    cx = EULER_SPHERE_NON_SPHERES[name]
    assert cx.euler_characteristic() == simplex_sphere(cx.dim).euler_characteristic()
    v = _same_sphere_verdicts(cx, 100000)
    assert v.is_no and v.reason == "homology-mismatch"


@pytest.mark.parametrize("budget", range(1, 21))
def test_searches_past_the_descent_match_gates_first_oracle(budget):
    # small budgets cut the descent short, so these reach the homology
    # gate and the two-sided search, or run out of budget
    for cx in (barycentric_subdivision(simplex_sphere(1)),
               suspension(barycentric_subdivision(simplex_sphere(1))),
               barycentric_subdivision(simplex_sphere(2))):
        _same_sphere_verdicts(cx, budget)


def test_recognition_and_search_build_no_signature(monkeypatch):
    # link classes, plateau escapes and the two-sided search group
    # complexes through IsoIndex; signature strings are output only
    def refuse(self):
        raise AssertionError("iso_signature called")

    monkeypatch.setattr(Complex, "iso_signature", refuse)
    assert is_closed_manifold(sphere_product(1, 2)).is_yes
    # budget 18 leaves the descent unsettled: a yes from meet
    assert is_combinatorial_sphere(barycentric_subdivision(simplex_sphere(2)), 18).is_yes
    # the descent of this search escapes plateaus by sideways flips
    assert stellar_moves.search_equivalence(sphere_product(1, 1), TORUS_9, 200000).is_yes


# sha256 of every verdict and certificate below, pinned before the
# searches grouped their states with IsoIndex
MEET_PIN = "1538cbaca92c407afa4ff732394ef965a1da245870110fcdc4accb4d0a1a4910"


def test_meet_verdicts_and_certificates_are_pinned():
    sd1 = barycentric_subdivision(simplex_sphere(1))
    runs = ([(sd1, b) for b in range(1, 9)]
            + [(suspension(sd1), b) for b in range(1, 9)]
            + [(barycentric_subdivision(simplex_sphere(2)), b) for b in range(1, 21)])
    verdicts = [is_combinatorial_sphere(cx, b) for cx, b in runs]
    verdicts.append(stellar_moves.search_equivalence(sphere_product(1, 1), TORUS_9, 200000))
    digest = hashlib.sha256()
    for v in verdicts:
        digest.update(json.dumps(v.to_json(), sort_keys=True).encode())
        if v.is_yes:
            digest.update(format_certificate(v.witness).encode())
    assert digest.hexdigest() == MEET_PIN


# RP^2 on 6 vertices, fanned around vertex 1; two of them sum to a Klein
# bottle, which shares its Euler characteristic with the torus
RP2_FAN = Complex([[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
                   [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]])

# sha256 of the certificate that settles the barycentric subdivision of
# the 3-simplex boundary after one full frontier of meet
SD_S3_CERT_SHA256 = "2af358fd9d84e0718fbd1c958281e9b3e63b7fdd9655ca6e1e80cdb8d4443e9c"


def test_meet_past_its_first_frontier_is_pinned():
    sd = barycentric_subdivision(simplex_sphere(3))
    v = is_combinatorial_sphere(sd, 55)
    assert v.is_yes and len(v.witness.moves) == 33
    assert apply_certificate(sd, v.witness) == simplex_sphere(3)
    assert hashlib.sha256(format_certificate(v.witness).encode()).hexdigest() == SD_S3_CERT_SHA256
    # the homology gate of a search stops this pair, so its two stages
    # are called directly: one side runs empty before the other does
    kb, torus = connected_sum(RP2_FAN, RP2_FAN), sphere_product(1, 1)
    assert meet(kb, torus, descend(kb, torus, 100000)).to_json() == {
        "status": "unknown", "reason": "search-exhausted", "detail": {"states": 4058}}


def test_meet_matches_the_branching_oracle():
    # MEET_PIN's searches and the two above; each stage gets its own
    # descent, since meet spends the descent's budget
    sd1 = barycentric_subdivision(simplex_sphere(1))
    spheres = ([(sd1, b) for b in range(1, 9)]
               + [(suspension(sd1), b) for b in range(1, 9)]
               + [(barycentric_subdivision(simplex_sphere(2)), b) for b in range(1, 21)]
               + [(barycentric_subdivision(simplex_sphere(3)), 55)])
    kb = connected_sum(RP2_FAN, RP2_FAN)
    runs = ([(cx, simplex_sphere(cx.dim), b) for cx, b in spheres]
            + [(sphere_product(1, 1), TORUS_9, 200000), (kb, sphere_product(1, 1), 100000)])
    reached = 0
    for a, b, budget in runs:
        if descend(a, b, budget).verdict is not None:
            continue
        reached += 1
        got = meet(a, b, descend(a, b, budget))
        want = meet_by_branches(a, b, descend(a, b, budget))
        assert got.to_json() == want.to_json()
        if got.is_yes:
            assert format_certificate(got.witness) == format_certificate(want.witness)
    assert reached > len(runs) // 2


# sha256 of the manifold verdict below, pinned before meet's sides
# shared one loop
MANIFOLD_UNKNOWN_SHA256 = "be47a9d08d15c8c4b35bcdd5cc76f8dd516414daa6306ec2584226a4b8265007"


def test_a_starved_manifold_check_is_unknown_with_its_report():
    cx = sphere_product(1, 2)
    v = is_pl_manifold(cx, budget=100)
    assert v.is_unknown and v.reason == "vertex 0 unresolved"
    assert v.detail == classify_links(cx, 100).to_json()
    digest = hashlib.sha256(json.dumps(v.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == MANIFOLD_UNKNOWN_SHA256
    assert is_pl_manifold(cx, budget=200).is_yes
