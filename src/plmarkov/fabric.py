"""Marked ambient complexes for handle boundaries and relator curves.

Three families of ambient are built here.  Product handles are rings
crossed with a simplex boundary sphere, connected-summed away from
their marked core columns; every single-letter relator curve lives on
such a core and its tube is a plain product.  The trivial-loop prefab
is a once-around solid torus closed into a sphere, planted into a host
facet by connected sum, carrying a null-homotopic curve with a ready
tube.  The corridors realize the two relator shapes that revisit a
handle: a doubled lap through a two-lane fiber for a squared generator
and an interleaved four-junction corridor for a commutator word.  Both
corridors are boundaries of a thickened prism with neck slabs removed
and rims reglued crosswise, which is how the revisit becomes a plain
column crossing instead of an impossible in-product lane change.

Every summand is joined by ``builders.marked_csum``, the one connected
sum, and every product cell comes from ``builders.staircase``.
"""

import functools
import itertools
import types

from .builders import marked_csum, ordered_product_with_chart, simplex_sphere
from .complex_core import Complex
from .surgery import _oriented, resolve_tube, staircase_cap


def star_ball(sphere, v):
    """Closed star of a vertex, the model fiber ball for all tubes."""
    return Complex([f for f in sphere.facets if v in f])


def product_handle(n):
    """Ring times (n-1)-sphere with core sections along fiber vertex 0.

    Returns (complex, sections, ball).  The core of the handle is the
    column ring over fiber vertex 0; its sections are the star of 0
    carried around the three ring columns.
    """
    ring = simplex_sphere(1)
    fiber = simplex_sphere(n - 1)
    amb, chart = ordered_product_with_chart(ring, fiber)
    ball = star_ball(fiber, 0)
    secs = [{s: chart[(t, s)] for s in ball.vertices} for t in range(3)]
    return amb, secs, ball


def _avoiding_facet(cx, avoid):
    for f in sorted(cx.facets, key=sorted):
        if not (f & avoid):
            return f
    raise ValueError("no facet clear of the marked cells")


def handle_chain(k, n):
    """Chain of k product handles summed away from all marked cores.

    Returns (complex, per-generator core sections, ball).  Cores keep
    their product-chart labels; each summand is glued in along a facet
    whose fiber cell misses the core star.
    """
    if k == 0:
        return simplex_sphere(n), [], star_ball(simplex_sphere(n - 1), 0)
    amb, secs, ball = product_handle(n)
    all_secs = [list(secs)]
    for _ in range(1, k):
        nxt, nsecs, _ = product_handle(n)
        # every tube cell contains a core-circle label, so a facet
        # clear of the cores is never cut out from under a mark
        core = {col[0] for gen in all_secs for col in gen}
        fa = _avoiding_facet(amb, core)
        ncore = {col[0] for col in nsecs}
        fb = _avoiding_facet(nxt, ncore)
        amb, lift = marked_csum(amb, fa, nxt, fb)
        all_secs.append([{s: lift[col[s]] for s in col} for col in nsecs])
    return amb, all_secs, ball


@functools.lru_cache(maxsize=8)
def trivial_loop_prefab(n):
    """Sphere holding a null-homotopic curve with a product tube.

    A once-around solid torus (3-ring times the fiber star ball) closed
    by the staircase cap.  Returns (sphere, sections, ball, donor) with
    donor a cap facet disjoint from the tube, ready to be cut out when
    the prefab is planted.  Built once per dimension and shared, so the
    sections are a tuple of read-only mappings.
    """
    fiber = simplex_sphere(n - 1)
    ball = star_ball(fiber, 0)
    lk = ball.link([0])
    solid, chart = ordered_product_with_chart(simplex_sphere(1), ball)
    secs = tuple(types.MappingProxyType({s: chart[(t, s)] for s in ball.vertices})
                 for t in range(3))
    bands = _oriented(resolve_tube(solid, secs, ball).edges)
    fresh = itertools.count(solid.vertices[-1] + 1)
    cap = staircase_cap(bands, lk, fresh.__next__)
    prefab = Complex(set(solid.facets) | cap)
    donor = max(cap, key=lambda f: (len(f - set(solid.vertices)),
                                    tuple(sorted(f))))
    return prefab, secs, ball, donor


def plant_trivial_loop(host, n, avoid=frozenset()):
    """Graft the prefab loop into a host facet clear of avoid.

    Connected sum with the prefab sphere, so the host manifold is
    unchanged.  Returns (planted complex, sections, ball).
    """
    prefab, secs, ball, donor = trivial_loop_prefab(n)
    target = _avoiding_facet(host, frozenset(avoid))
    planted, lift = marked_csum(host, target, prefab, donor)
    secs2 = [{s: lift[col[s]] for s in col} for col in secs]
    return planted, secs2, ball


def _necked_fabric(m_len, fiber, psi, neck_pairs):
    """Boundary of path x fiber x interval with neck slabs reglued.

    Removes the bottom-sheet slabs over each neck's two column pairs
    and identifies the rims crosswise through psi, which reverses the
    fiber boundary order so the wall triangulations match.  Returns
    (complex, lab, cut) where lab(t, s, side) is the fabric label of a
    column vertex and cut is the rim identification map.
    """
    path = Complex([[t, t + 1] for t in range(m_len)])
    deck, chart = ordered_product_with_chart(path, fiber)
    prism, chart5 = ordered_product_with_chart(deck, Complex([[0, 1]]))
    sigma = prism.boundary()

    def lab(t, s, side=0):
        return chart5[(chart[(t, s)], side)]

    def slab(u):
        cols = {lab(u, s) for s in fiber.vertices}
        cols |= {lab(u + 1, s) for s in fiber.vertices}
        return {f for f in sigma.facets if f <= cols}

    cut = {}
    removed = set()
    for t1, t2 in neck_pairs:
        for s in fiber.vertices:
            cut[lab(t2 + 1, psi[s])] = lab(t1, s)
            cut[lab(t2, psi[s])] = lab(t1 + 1, s)
        removed |= slab(t1) | slab(t2)
    remaining = set(sigma.facets) - removed
    collapsed = {frozenset(cut.get(v, v) for v in f) for f in remaining}
    if len(collapsed) != len(remaining):
        raise ValueError("facet collision at a neck")
    return Complex(collapsed), lab, cut


# Two-lane fiber: two cone beads over boundary tetrahedra joined by a
# staircase bridge, a ball whose rim involution swaps the lanes while
# reversing the boundary order.  Both lane apexes sit below every
# boundary label so that either lap's departure sections stay aligned.
_TWO_LANE_FACETS = (
    (0, 2, 3, 4), (0, 2, 3, 5), (0, 2, 4, 5), (0, 3, 4, 5),
    (3, 6, 7, 8), (3, 4, 7, 8), (3, 4, 5, 8),
    (1, 6, 7, 8), (1, 6, 7, 9), (1, 6, 8, 9), (1, 7, 8, 9),
)
_TWO_LANE_PSI = {0: 1, 1: 0, 2: 9, 3: 8, 4: 7, 5: 6, 6: 5, 7: 4, 8: 3, 9: 2}
_LANE_MAP = {0: 1, 2: 6, 3: 7, 4: 8, 5: 9}


def double_lap_corridor():
    """Corridor for a squared generator: one neck, two stacked laps.

    The curve runs the three interior columns of the first lane, hops
    to the second lane at the junction the neck identification creates,
    runs them again, and closes.  Returns (complex, sections, ball)
    with the model ball the first lane's bead.
    """
    fiber = Complex(_TWO_LANE_FACETS)
    model = Complex([f for f in fiber.facets if 0 in f])
    t1, t2 = 2, 6
    necked, lab, cut = _necked_fabric(9, fiber, _TWO_LANE_PSI,
                                      [(t1, t2)])
    sections = []
    for t in (t1 + 1, t1 + 2, t1 + 3):
        sections.append({m: lab(t, m) for m in model.vertices})
    for t in (t1 + 1, t1 + 2, t1 + 3):
        sections.append({m: lab(t, _LANE_MAP[m]) for m in model.vertices})
    return necked, sections, model


def commutator_corridor():
    """Corridor for a commutator word: two interleaved necks.

    Four junction columns are crossed once each, in the interleaved
    order that spells one generator conjugated against the other, and
    the curve runs home along the intact top sheet.  Returns
    (complex, sections, ball).
    """
    fiber = Complex([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4],
                     [0, 2, 3, 4]])
    psi = {0: 0, 1: 4, 2: 3, 3: 2, 4: 1}
    m_len = 9
    necked, lab, cut = _necked_fabric(m_len, fiber, psi,
                                      [(1, 5), (3, 7)])

    def sec(t, twisted):
        out = {}
        for s in fiber.vertices:
            v = lab(t, psi[s] if twisted else s)
            out[s] = cut.get(v, v)
        return out

    # through the four junctions in interleaved order, then home along
    # the top copy; each junction is charted by its exit side
    sections = [
        sec(0, False),
        sec(1, True),
        sec(4, False),
        sec(2, False),
        sec(3, True),
        sec(9, False),
    ]
    for t in range(m_len, -1, -1):
        sections.append({s: lab(t, s, 1) for s in fiber.vertices})
    return necked, sections, fiber

