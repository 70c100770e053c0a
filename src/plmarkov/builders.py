"""Constructions of standard complexes and combining operations.

Builders return complexes with dense deterministic labels 0..n-1 fixed
by the construction itself (not by canonical relabeling): identical
calls produce identical complexes, which is what reproducible pipelines
need, while canonical forms stay available via ``Complex.canonical``.

Two routines do all the assembling.  ``staircase`` is the one emitter of
product cells: products here and the tubes and caps of ``surgery`` take
their cells from it.  ``marked_csum`` is the one connected sum: the
handle chains of ``fabric`` use it directly, and ``connected_sum`` is it
plus the orientation-matching seam map and a dense relabel.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Iterable, List, Tuple

from .complex_core import Complex, InvalidComplexError, join
from .groups import FinitePresentation


def _dense(cx: Complex) -> Complex:
    """Relabel by ascending original label to 0..n-1."""
    m = {v: i for i, v in enumerate(cx.vertices)}
    return cx.relabeled(m)


# Complexes are immutable, so each simplex and simplex sphere is built
# once and shared: a sphere's cached homology and canonical form then
# serve every recognition gate and search that compares against it.
@functools.lru_cache(maxsize=32)
def standard_simplex(n: int) -> Complex:
    """The solid n-simplex on labels 0..n."""
    if n < 0:
        raise InvalidComplexError("dimension must be >= 0")
    return Complex([range(n + 1)])


@functools.lru_cache(maxsize=32)
def simplex_sphere(n: int) -> Complex:
    """Boundary of the (n+1)-simplex: the minimal n-sphere."""
    if n < 0:
        raise InvalidComplexError("dimension must be >= 0")
    return Complex(itertools.combinations(range(n + 2), n + 1))


def cone(cx: Complex) -> Complex:
    """Join with one fresh apex."""
    if cx.is_empty:
        raise InvalidComplexError("cone needs a nonempty complex")
    return _dense(join(cx, Complex([[cx.vertices[-1] + 1]])))


def suspension(cx: Complex) -> Complex:
    """Join with two fresh apexes."""
    if cx.is_empty:
        raise InvalidComplexError("suspension needs a nonempty complex")
    a = cx.vertices[-1] + 1
    return _dense(join(cx, Complex([[a], [a + 1]])))


# -- ordered products --------------------------------------------------


def staircase(columns, order):
    """Cells of the staircase through the grid of order x columns.

    One cell per monotone path from the first label in the first column
    to the last label in the last column: each column contributes a run
    of consecutive labels, read through its chart, and consecutive runs
    share one label.  Every product and cap cell is emitted here.
    """
    last = len(order) - 1
    for cuts in itertools.combinations_with_replacement(
        range(len(order)), len(columns) - 1
    ):
        ends = (0,) + cuts + (last,)
        yield frozenset(
            col[s]
            for c, col in enumerate(columns)
            for s in order[ends[c] : ends[c + 1] + 1]
        )


def ordered_product_with_chart(
    a: Complex, b: Complex
) -> Tuple[Complex, Dict[Tuple[int, int], int]]:
    """Staircase triangulation of the product of two complexes.

    Vertices are the pairs (u, v); faces are the chains in the
    componentwise order on pairs whose two projections are faces of the
    factors.  The maximal simplices are the monotone staircase paths
    through each facet pair's grid, C(p+q, p) of them per pair, and they
    glue consistently across shared faces because chains restrict to
    chains.  Returns the complex plus the pair-to-label chart.
    """
    if a.is_empty or b.is_empty:
        raise InvalidComplexError("product needs nonempty factors")
    va, vb = a.vertices, b.vertices
    chart = {
        (u, v): i * len(vb) + j
        for i, u in enumerate(va)
        for j, v in enumerate(vb)
    }
    columns = {v: {u: chart[(u, v)] for u in va} for v in vb}
    facets = set()
    for fa in a.facets:
        ta = sorted(fa)
        for fb in b.facets:
            facets.update(staircase([columns[v] for v in sorted(fb)], ta))
    return Complex._from_trusted(facets), chart


def ordered_product(a: Complex, b: Complex) -> Complex:
    return ordered_product_with_chart(a, b)[0]


def sphere_product(p: int, q: int) -> Complex:
    """Product of minimal spheres of the given dimensions."""
    return ordered_product(simplex_sphere(p), simplex_sphere(q))


# -- connected sums ----------------------------------------------------


def marked_csum(
    a: Complex, fa: Iterable[int], b: Complex, fb: Iterable[int]
) -> Tuple[Complex, Dict[int, int]]:
    """Connected sum that never relabels the first summand.

    Removes facet fa from a and fb from b, glues the boundary spheres
    by ascending label order, and shifts the remaining b-labels past a.
    Returns the sum and the label map applied to b.
    """
    off = a.vertices[-1] + 1 - b.vertices[0]
    fa, fb = frozenset(fa), frozenset(fb)
    pair = dict(zip(sorted(fb), sorted(fa)))
    lift = {v: pair.get(v, v + off) for v in b.vertices}
    out = set(a.facets) - {fa}
    for f in b.facets:
        if f == fb:
            continue
        out.add(frozenset(lift[v] for v in f))
    return Complex(out), lift


def connected_sum(a: Complex, b: Complex) -> Complex:
    """Connected sum of closed pseudomanifolds of equal dimension.

    One facet is removed from each side (the lexicographically smallest)
    and the boundary spheres are identified by ``marked_csum``: ascending
    labels to ascending labels, with the first two images swapped when
    both sides are oriented and the plain map would align rather than
    oppose the seam orientations; for non-orientable input the plain map
    is used.  The sum is relabelled densely.
    """
    if a.dim != b.dim:
        raise InvalidComplexError("summands must have equal dimension")
    if not a.is_closed_pseudomanifold() or not b.is_closed_pseudomanifold():
        raise InvalidComplexError("connected sum needs closed pseudomanifolds")
    fa = min(a.facets, key=lambda f: tuple(sorted(f)))
    fb = min(b.facets, key=lambda f: tuple(sorted(f)))
    ori_a, ori_b = a.orientation(), b.orientation()
    if ori_a is not None and ori_b is not None and ori_a[fa] * ori_b[fb] > 0:
        # swapping b's two smallest seam labels swaps their images
        u, v = sorted(fb)[:2]
        b = b.relabeled({**{w: w for w in b.vertices}, u: v, v: u})
    return _dense(marked_csum(a, fa, b, fb)[0])


# shared like the reference spheres, so each report's comparison target
# keeps its homology across reports
@functools.lru_cache(maxsize=32)
def reference_manifold(l: int, n: int) -> Complex:
    """Connected sum of l copies of the product of a 2-sphere and an
    (n-2)-sphere; l = 0 gives the minimal n-sphere."""
    if n < 3:
        raise InvalidComplexError("reference manifolds need dimension >= 3")
    if l < 0:
        raise InvalidComplexError("number of summands must be >= 0")
    if l == 0:
        return simplex_sphere(n)
    block = sphere_product(2, n - 2)
    out = block
    for _ in range(l - 1):
        out = connected_sum(out, block)
    return out


# -- presentation complexes --------------------------------------------


def presentation_complex(p: FinitePresentation) -> Complex:
    """A 2-complex with fundamental group presented by ``p``.

    One basepoint, a three-edge circle per generator, and one disk per
    relator: the disk is a polygon with a ring of fresh vertices between
    its boundary walk and a fresh center, so repeated letters never
    produce duplicate triangles.  Empty relators are skipped (they do
    not change the fundamental group).
    """
    facets: List[Iterable[int]] = []
    base = 0
    circle: Dict[int, Tuple[int, int]] = {}
    nxt = 1
    for g in range(1, p.num_generators + 1):
        c1, c2 = nxt, nxt + 1
        nxt += 2
        circle[g] = (c1, c2)
        facets.extend([[base, c1], [c1, c2], [c2, base]])
    if p.num_generators == 0:
        return Complex([[base]])
    for r in p.relators:
        if not r:
            continue
        walk = [base]
        for x in r:
            c1, c2 = circle[abs(x)]
            if x > 0:
                walk.extend([c1, c2, base])
            else:
                walk.extend([c2, c1, base])
        m = len(walk) - 1  # = 3 * len(r) steps
        ring = list(range(nxt, nxt + m))
        nxt += m
        center = nxt
        nxt += 1
        for j in range(m):
            wj, wj1 = walk[j], walk[j + 1]
            rj, rj1 = ring[j], ring[(j + 1) % m]
            facets.append([wj, wj1, rj])
            facets.append([wj1, rj, rj1])
            facets.append([center, rj, rj1])
    return _dense(Complex.generated_by(facets))
