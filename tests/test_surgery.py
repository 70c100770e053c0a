import gc
import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from plmarkov import markov, surgery
from plmarkov import verdict as vd
from plmarkov.builders import ordered_product_with_chart, simplex_sphere
from plmarkov.complex_core import Complex, to_text
from plmarkov.fabric import double_lap_corridor
from plmarkov.groups import parse_presentation
from plmarkov.invariants import betti_numbers
from plmarkov.stellar_moves import (Certificate, StellarMove, stellar_subdivide,
                                    subdivision_candidates)

from oracles import (detect_hi_depth_first, do_surgery_three_routes,
                     resolve_tube_full_index, shell_cap_full_rebuild,
                     staircase_cap_triple_loop, verify_tube_frozenset_faces)

ROTATION = {0: 0, 1: 2, 2: 3, 3: 1}

# seam maps of the fiber fixing vertex 0: the plain gluing, a reflection
# of its link (the lateral surface is then a Klein bottle, which no
# move path joins to the reference torus) and the two rotations
SEAMS = [{0: 0, 1: 1, 2: 2, 3: 3}, {0: 0, 1: 2, 2: 1, 3: 3},
         ROTATION, {0: 0, 1: 3, 2: 1, 3: 2}]

# the presentations whose 15 surgeries the pipeline oracles replay
PIPELINE = ("|", "g|g", "g|gg", "a,b|a,b", "a,b|ab,b", "a,b|abAB")


def rotated_mapping_torus(m):
    """S1 x S2 as a ring of m fiber columns, the last glued back onto
    the first through a rotation of the link of fiber vertex 0."""
    return mapping_torus(m, ROTATION)


def mapping_torus(m, psi):
    """A ring of m columns of the 2-sphere fiber, the last glued back
    onto the first through psi, with the sections of the star of fiber
    vertex 0 along it."""
    fiber = simplex_sphere(2)
    path = Complex([[t, t + 1] for t in range(m)])
    deck, chart = ordered_product_with_chart(path, fiber)
    seam = {chart[(m, s)]: chart[(0, psi[s])] for s in fiber.vertices}
    cx = Complex([frozenset(seam.get(v, v) for v in f) for f in deck.facets])
    ball = Complex([f for f in fiber.facets if 0 in f])
    secs = [{s: chart[(t, s)] for s in ball.vertices} for t in range(m)]
    return cx, secs, ball


def test_twisted_tube_is_capped_against_the_reference_torus(monkeypatch):
    # the rotation is the tube's monodromy, so no scripted certificate
    # exists and the cap closes a searched reference torus instead
    searches = []

    def counting(*args, real=surgery.search_equivalence):
        searches.append(args)
        return real(*args)

    monkeypatch.setattr(surgery, "search_equivalence", counting)
    cx, secs, ball = rotated_mapping_torus(3)
    assert betti_numbers(cx) == (1, 1, 1, 1)
    out = surgery.do_surgery(cx, secs, ball, 0)
    assert len(searches) == 1
    assert betti_numbers(out) == (1, 0, 0, 1)
    assert hashlib.sha256(to_text(out).encode()).hexdigest() == (
        "876503ce1c38eee223ac6ebfa64b2bce6a127fd7cbb37591a43b7ae4976876be")


@given(st.integers(0, 3), st.integers(2, 4), st.randoms(use_true_random=False))
def test_staircase_cap_matches_the_triple_loop_oracle(d, n, rnd):
    lk = simplex_sphere(d).relabeled(
        dict(zip(range(d + 2), rnd.sample(range(-5, 5), d + 2))))
    images = rnd.sample(range(-50, 50), n * (d + 2))
    cols = [dict(zip(lk.vertices, images[i :: n])) for i in range(n)]
    bands = [(cols[i], cols[(i + 1) % n]) for i in range(n)]
    cells = surgery.staircase_cap(bands, lk, itertools.count(100).__next__)
    apex = {s: 100 + r for r, s in enumerate(lk.vertices)}
    assert cells == staircase_cap_triple_loop(bands, lk, apex)


def _outcome(build):
    try:
        return build().facets
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("m", range(3, 7))
@pytest.mark.parametrize("psi", SEAMS, ids=["plain", "reflection", "rotation", "inverse"])
def test_mapping_torus_cap_matches_the_three_route_oracle(m, psi):
    args = (*mapping_torus(m, psi), 0)
    assert _outcome(lambda: surgery.do_surgery(*args)) == _outcome(
        lambda: do_surgery_three_routes(*args))


def test_pipeline_caps_match_the_three_route_oracle(monkeypatch):
    checked = []

    def both(*args, real=surgery.do_surgery):
        out = real(*args)
        assert out.facets == do_surgery_three_routes(*args).facets
        checked.append(args)
        return out

    monkeypatch.setattr(markov, "do_surgery", both)
    for text in PIPELINE:
        markov.realize_boundary(parse_presentation(text), 4)
    assert len(checked) == 15


def test_outside_facet_on_the_tube_interior_is_rejected():
    cx, secs, ball = mapping_torus(3, SEAMS[0])
    tube = surgery.resolve_tube(cx, secs, ball)
    lk = ball.link([0])
    surgery.verify_tube(cx, tube, lk)
    # the core curve's vertices lie inside the tube, off its lateral torus
    stray = Complex(list(cx.facets) + [[secs[0][0], 100, 101, 102]])
    with pytest.raises(ValueError, match="meets the tube interior"):
        surgery.verify_tube(stray, tube, lk)


def test_pipeline_tube_checks_match_the_frozenset_oracles(monkeypatch):
    checked = []

    def resolve(m, sections, ball, real=surgery.resolve_tube):
        tube = real(m, sections, ball)
        old = resolve_tube_full_index(m, sections, ball)
        assert (tube.edges, tube.cells) == (old.edges, old.cells)
        return tube

    def verify(m, tube, lk, real=surgery.verify_tube):
        torus = real(m, tube, lk)
        assert torus.facets == verify_tube_frozenset_faces(m, tube, lk).facets
        checked.append(m)
        return torus

    monkeypatch.setattr(surgery, "resolve_tube", resolve)
    monkeypatch.setattr(surgery, "verify_tube", verify)
    for text in PIPELINE:
        markov.realize_boundary(parse_presentation(text), 4)
    assert len(checked) == 15


def test_resolving_a_tube_leaves_no_reference_cycles():
    # a reference cycle left by the chart walk would keep the coface
    # index alive until the next cycle collection
    cx, secs, ball = rotated_mapping_torus(4)
    gc.collect()
    gc.disable()
    try:
        surgery.resolve_tube(cx, secs, ball)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _tube_outcome(resolve, verify, cx, secs, ball):
    try:
        tube = resolve(cx, secs, ball)
        return tube.edges, tube.cells, verify(cx, tube, ball.link([0])).facets
    except ValueError as exc:
        return str(exc)


def _second_arrival(cx, secs, ball, i, perm, forward):
    """cx with a staircase chunk from section i to a permuted copy of
    section i + 1 added beside the one already there."""
    nxt = secs[(i + 1) % len(secs)]
    labels = sorted(nxt)
    twisted = {s: nxt[p] for s, p in zip(labels, perm)}
    cols = [secs[i], twisted] if forward else [twisted, secs[i]]
    return Complex(set(cx.facets) | surgery.chunk(cols, ball.facets))


def _assert_tube_checks_match(cx, secs, ball):
    got = _tube_outcome(surgery.resolve_tube, surgery.verify_tube, cx, secs, ball)
    want = _tube_outcome(resolve_tube_full_index, verify_tube_frozenset_faces,
                         cx, secs, ball)
    assert got == want
    return got


def test_tube_check_errors_match_the_frozenset_oracles():
    cx, secs, ball = mapping_torus(4, SEAMS[0])
    planted = _second_arrival(cx, secs, ball, 1, (0, 2, 1, 3), True)
    assert _assert_tube_checks_match(planted, secs, ball) == (
        "ambiguous continuation at edge 1")
    moved = [secs[0], secs[2], secs[1], secs[3]]
    assert _assert_tube_checks_match(cx, moved, ball) == (
        "curve is not in product position at edge 0")
    stray = Complex(list(cx.facets) + [[secs[0][0], 100, 101, 102]])
    assert "meets the tube interior" in _assert_tube_checks_match(stray, secs, ball)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 5), st.sampled_from(SEAMS), st.data())
def test_perturbed_tube_checks_match_the_frozenset_oracles(m, psi, data):
    cx, secs, ball = mapping_torus(m, psi)
    i = data.draw(st.integers(0, m - 1))
    labels = sorted(secs[i])
    kind = data.draw(st.sampled_from(["permuted", "moved", "swapped", "planted"]))
    if kind == "permuted":
        perm = data.draw(st.permutations(labels))
        secs[i] = {s: secs[i][p] for s, p in zip(labels, perm)}
    elif kind == "moved":
        secs[i][data.draw(st.sampled_from(labels))] = data.draw(st.sampled_from(cx.vertices))
    elif kind == "swapped":
        j = data.draw(st.integers(0, m - 1))
        secs[i], secs[j] = secs[j], secs[i]
    else:
        perm = data.draw(st.permutations(labels))
        cx = _second_arrival(cx, secs, ball, i, perm, data.draw(st.booleans()))
    _assert_tube_checks_match(cx, secs, ball)
    # the breadth-first chart walk finds the depth-first walk's charts,
    # in the same order, on every edge and in both directions
    idx = surgery._coface_index(cx.facets)
    for t, lo in enumerate(secs):
        vnext = frozenset(secs[(t + 1) % m].values())
        for forward in (True, False):
            assert surgery._detect_hi(idx, lo, vnext, ball, forward) == (
                detect_hi_depth_first(idx, lo, vnext, ball, forward))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.integers(1, 6), st.data())
def test_shell_stack_matches_the_full_rebuild_oracle(m, k, data):
    # k random subdivisions of the plain torus, then the k inverse welds
    # in reverse order: every weld's shell holds the face its subdivision
    # removed, so each walk back through the stack needs prism layers
    cx, secs, ball = mapping_torus(m, SEAMS[0])
    tube = surgery.resolve_tube(cx, secs, ball)
    lk = ball.link([0])
    torus = surgery.verify_tube(cx, tube, lk)
    _, _, bands = surgery._certificate(tube, lk, torus)
    surface, there = torus, []
    for _ in range(k):
        s = data.draw(st.sampled_from(list(subdivision_candidates(surface))))
        surface = stellar_subdivide(surface, s)
        there.append((tuple(sorted(s)), surface.vertices[-1]))
    moves = ([StellarMove("S", s, v) for s, v in there]
             + [StellarMove("W", s, v) for s, v in reversed(there)])
    start = cx.vertices[-1] + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surgery, "_certificate", lambda *args: (moves, (), bands))
        new = surgery.shell_cap(tube, lk, torus, itertools.count(start).__next__)
        old = shell_cap_full_rebuild(tube, lk, torus, itertools.count(start).__next__)
    assert new == old


def test_scripted_certificate_must_reach_the_plain_torus(monkeypatch):
    monkeypatch.setattr(surgery, "_untwist_moves", lambda *args: [])
    amb, secs, ball = double_lap_corridor()
    with pytest.raises(ValueError, match="certificate missed the plain torus"):
        surgery.do_surgery(amb, secs, ball, 0)


def test_searched_certificate_must_reach_the_plain_torus(monkeypatch):
    monkeypatch.setattr(surgery, "search_equivalence",
                        lambda *args: vd.yes(witness=Certificate(())))
    cx, secs, ball = rotated_mapping_torus(3)
    with pytest.raises(ValueError, match="certificate missed the plain torus"):
        surgery.do_surgery(cx, secs, ball, 0)
