import hashlib
import itertools

from hypothesis import given, strategies as st

from plmarkov import surgery
from plmarkov.builders import ordered_product_with_chart, simplex_sphere
from plmarkov.complex_core import Complex, to_text
from plmarkov.invariants import betti_numbers

from oracles import staircase_cap_triple_loop


def rotated_mapping_torus(m):
    """S1 x S2 as a ring of m fiber columns, the last glued back onto
    the first through a rotation of the link of fiber vertex 0."""
    psi = {0: 0, 1: 2, 2: 3, 3: 1}
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
