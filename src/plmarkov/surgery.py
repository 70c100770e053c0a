"""Tubes around positioned curves and the caps that replace them.

A positioned curve is a cyclic run of fiber sections: section i maps the
model ball's vertices onto distinct vertices of the ambient complex, and
consecutive sections span a chunk of product cells.  How fiber
coordinates continue across an edge is not prescribed; the arrival chart
is detected from the cells actually present, so a curve crossing a glued
seam needs no bookkeeping on the caller's side.  ``resolve_tube`` is the
one chart detector: every edge's arrival chart and staircase direction,
also those of the prefab tube in ``fabric``, come from its breadth-first
walk over the fiber's staircase cells.

Every tube is capped the same way.  A certificate of stellar moves from
the tube's lateral torus to a plain torus replays as a stack of cone
shells, one per move, and the plain torus is closed with staircase
prisms over a fresh apex sphere.  A prism layer over the whole surface
goes under any shell holding a face subdivided earlier: every face that
left the surface holds a subdivided face or a welded vertex, and fresh
vertices never reuse a welded one's label.  A tube whose torus is
already a plain product is the zero-move certificate: its cap is the
staircase cap alone.  Every product cell here, of a tube, a prism layer
or a cap, comes from ``builders.staircase``, and ``chunk`` collects them
over the facets of a fiber.  Cells are frozensets, but the face sets
that the tube check and the shell stack compare hold each face as its
ascending label tuple, the form of ``Complex.face_tuples``.

Certificates for twisted tori mostly need no search.  Composing the edge
pairings around the ring turns every band into an identity-paired
staircase over chart labels, running in some permuted order; an adjacent
transposition in that order is exactly two bistellar flips, so sorting
each band back to the reference order writes the move list directly.
Whenever the composed pairings close up to the identity (every seam is
crossed an even number of times in total) the scripted moves end at a
torus the plain cap closes.  Otherwise a stellar search against a
reference product torus is attempted; that only ever happens for small
tubes.
"""

import itertools

from .builders import ordered_product_with_chart, staircase
from .complex_core import Complex
from .stellar_moves import (
    StellarMove,
    search_equivalence,
    stellar_subdivide,
    stellar_weld,
    weld_parts,
)

# states the search for a twisted torus's path to the reference torus
# may generate
_SEARCH_BUDGET = 200000


def chunk(columns, facets):
    """Staircase cells over every facet, in ascending label order."""
    out = set()
    for f in facets:
        out.update(staircase(columns, sorted(f)))
    return out


def _oriented(edges):
    """Each tube edge's two charts in staircase order."""
    return [(lo, hi) if flag > 0 else (hi, lo) for lo, hi, flag in edges]


class Tube:
    """Solid tube of ambient cells plus its per-edge section charts."""

    def __init__(self, edges, cells):
        self.edges = edges          # list of (lo, hi, flag)
        self.cells = frozenset(cells)


def _coface_index(facets):
    idx = {}
    for f in facets:
        for v in f:
            idx.setdefault(f - {v}, []).append(v)
    return idx


def _detect_hi(idx, lo, vnext, ball, forward):
    """Arrival charts that make every staircase cell a cell of m.

    ``resolve_tube``, the one chart detector, calls this per edge and
    direction.  The walk is breadth-first over each fiber facet's
    staircase, one cell at a time: the cell is the face assembled so
    far plus one unknown arrival vertex, so the coface index pins that
    vertex to at most two choices, and choices outside the arrival
    section or colliding with earlier ones die.  Each step replaces the
    partial charts by their extensions, in order.
    """
    charts = [{}]
    for f in sorted(ball.facets, key=sorted):
        order = sorted(f)
        js = range(len(order))
        for j in (reversed(js) if forward else js):
            s = order[j]
            # departure labels come from lo, arrival labels from the chart
            dep, arr = ((order[:j + 1], order[j + 1:]) if forward
                        else (order[j:], order[:j]))
            nxt = []
            for asg in charts:
                known = [lo[v] for v in dep] + [asg[v] for v in arr]
                extras = idx.get(frozenset(known), ())
                if s in asg:
                    if asg[s] in extras:
                        nxt.append(asg)
                    continue
                taken = set(asg.values())
                nxt += [{**asg, s: x} for x in extras
                        if x in vnext and x not in taken]
            charts = nxt
    return [h for h in charts if frozenset(h.values()) == vnext]


def resolve_tube(m, sections, ball):
    """Locate the solid tube swept by the curve.

    sections[i]: model-ball vertex -> ambient vertex.  Both the arrival
    chart and the staircase direction of every edge are detected against
    the cells of m; an edge spanning no chunk at all means the curve is
    not in product position there.
    """
    n = len(sections)
    # every key _detect_hi looks up is a set of section vertices, so
    # facets missing them all add no key it could ask for
    near = {v for sec in sections for v in sec.values()}
    idx = _coface_index(f for f in m.facets if not near.isdisjoint(f))
    edges = []
    cells = set()
    for i in range(n):
        lo = sections[i]
        vnext = frozenset(sections[(i + 1) % n].values())
        hit = None
        for forward in (True, False):
            found = _detect_hi(idx, lo, vnext, ball, forward)
            if len(found) > 1:
                raise ValueError(f"ambiguous continuation at edge {i}")
            if found:
                hit = (found[0], 1 if forward else -1)
                break
        if hit is None:
            raise ValueError(f"curve is not in product position at edge {i}")
        hi, flag = hit
        ch = chunk([lo, hi] if flag > 0 else [hi, lo], ball.facets)
        edges.append((lo, hi, flag))
        cells |= ch
    return Tube(edges, cells)


def lateral_cells(bands, lk):
    """Cells of each band's chunk, a staircase through its charts in
    order; two-chart bands (a, b) give the torus running from a to b."""
    out = set()
    for band in bands:
        out |= chunk(band, lk.facets)
    return out


def verify_tube(m, tube, lk):
    """Check the tube is cleanly embedded: its boundary is the expected
    lateral torus and no outside facet reaches an interior face.
    Returns that torus."""
    torus = Complex(lateral_cells(_oriented(tube.edges), lk))
    nc = Complex(tube.cells)
    if frozenset(nc.boundary().facets) != frozenset(torus.facets):
        raise ValueError("tube boundary is not the expected torus")
    nverts = set(nc.vertices)
    interior = _faces(tube.cells) - _faces(torus.facets)
    # a facet missing the tube's vertices shares no face with it
    for f in m.facets:
        if (not nverts.isdisjoint(f) and f not in tube.cells
                and _faces([f & nverts]) & interior):
            raise ValueError(f"outside facet {sorted(f)} meets the tube interior")
    return torus


def _faces(cells):
    """Every nonempty face of the cells, as an ascending label tuple."""
    out = set()
    for cell in cells:
        verts = sorted(cell)
        for k in range(1, len(verts) + 1):
            out.update(itertools.combinations(verts, k))
    return out


def staircase_cap(bands, lk, alloc):
    """Cells closing a plain torus over a fresh apex sphere.

    bands holds each band's two charts (a, b), ordered so that the
    band's cells run a staircase from a to b; consecutive bands must
    pair their charts by the identity, whatever their directions.  The
    apex sphere takes one alloc() label per link label, in ascending
    order.  Each band contributes the three-column chunk (a, b, apex):
    over every link facet, a cell takes a prefix from a, a middle run
    from b and the rest from apex, consecutive runs sharing one label.
    """
    apex = {s: alloc() for s in sorted(lk.vertices)}
    return lateral_cells([(a, b, apex) for a, b in bands], lk)


def _chart_bands(tube, lk):
    """Compose the edge pairings around the ring.

    Returns one (a, b, order) per band, where the charts a, b are
    identity-paired column maps over the model link labels, oriented in
    staircase order, and order is the band's staircase order as seen
    through them, plus the total monodromy of the composition.
    """
    los = [{s: lo[s] for s in lk.vertices} for lo, hi, flag in tube.edges]
    his = [{s: hi[s] for s in lk.vertices} for lo, hi, flag in tube.edges]
    gam = {s: s for s in lk.vertices}
    bands = []
    n = len(tube.edges)
    for i in range(n):
        lo, hi = los[i], his[i]
        flag = tube.edges[i][2]
        inv_nxt = {v: s for s, v in los[(i + 1) % n].items()}
        chi_a = {s: lo[gam[s]] for s in lk.vertices}
        chi_b = {s: hi[gam[s]] for s in lk.vertices}
        inv_gam = {v: s for s, v in gam.items()}
        order = [inv_gam[s] for s in sorted(lk.vertices)]
        a, b = (chi_a, chi_b) if flag > 0 else (chi_b, chi_a)
        bands.append((a, b, order))
        gam = {s: inv_nxt[hi[gam[s]]] for s in lk.vertices}
    return bands, gam


def _swap_moves(lk, a, b, o, j, fresh):
    """Trade the order-adjacent labels at positions j, j+1 of a band.

    Two bistellar flips per swap: a 2-3 across the first link facet
    containing the pair opens the new diagonal, a 3-2 across the second
    consumes the old one.  Each flip subdivides and at once welds the
    new vertex away, so both take the label fresh.  A pair spanning no
    link edge costs nothing.
    """
    q, r = o[j], o[j + 1]
    fs = sorted((f for f in lk.facets if q in f and r in f),
                key=lambda f: tuple(sorted(f)))
    if not fs:
        return []
    if len(fs) != 2:
        raise ValueError("swapped pair does not span a surface edge")
    rank = {v: t for t, v in enumerate(o)}

    def third(f):
        (p,) = set(f) - {q, r}
        return a[p] if rank[p] < j else b[p]

    f1, f2 = fs
    flips = [({a[q], b[r], third(f1)}, {b[q], a[r]}),
             ({a[q], b[r]}, {a[r], b[q], third(f2)})]
    return [StellarMove(kind, tuple(sorted(s)), fresh)
            for opened, closed in flips
            for kind, s in (("S", opened), ("W", closed))]


def _untwist_moves(bands, lk, fresh):
    """Scripted certificate re-staircasing every band to sorted order."""
    moves = []
    for a, b, order in bands:
        o = list(order)
        while o != sorted(o):
            j = next(j for j in range(len(o) - 1) if o[j] > o[j + 1])
            moves += _swap_moves(lk, a, b, o, j, fresh)
            o[j], o[j + 1] = o[j + 1], o[j]
    return moves


def _certificate(tube, lk, torus):
    """Moves from the lateral torus to a plain torus, the relabeling
    that ends them (empty for none) and that plain torus's bands.

    With identity monodromy the moves are scripted band by band and
    end at the chart bands; otherwise a stellar search against a
    reference product torus supplies them.
    """
    bands, mono = _chart_bands(tube, lk)
    if all(mono[s] == s for s in mono):
        moves = _untwist_moves(bands, lk, torus.vertices[-1] + 1)
        return moves, (), [(a, b) for a, b, _ in bands]
    n = len(tube.edges)
    ring = Complex([[i, (i + 1) % n] for i in range(n)])
    target, chart = ordered_product_with_chart(ring, lk)
    res = search_equivalence(torus, target, _SEARCH_BUDGET)
    if res.status != "yes":
        raise ValueError(f"no move path to the reference torus: {res.status}")
    secs = [{s: chart[(i, s)] for s in lk.vertices} for i in range(n)]
    ref = resolve_tube(target, secs, lk)
    return res.witness.moves, res.witness.relabel, _oriented(ref.edges)


def shell_cap(tube, lk, torus, alloc):
    """Cap a tube over its lateral torus.

    A move certificate from the torus to a plain torus replays as a
    stack of cone shells, one per move: a subdivision cones its star
    from a fresh apex, a weld cones the rebuilt cells from the welded
    vertex.  Whenever a shell would hold a face subdivided earlier, a
    fresh prism layer over the whole current surface is inserted first,
    restarting the label space.  That test is exact: a face leaves the
    surface only by holding a subdivided face or a welded vertex, and a
    welded vertex's label never returns.  The plain torus is then closed
    with the staircase cap.  A plain tube is the zero-move certificate:
    its cap is the staircase cap alone.
    """
    moves, relabel, bands = _certificate(tube, lk, torus)
    cap = set()
    surface = torus
    amb = {v: v for v in torus.vertices}
    gone = set()

    def shell(top, cells):
        return {frozenset({amb[top]} | {amb[v] for v in f}) for f in cells}

    for mv in moves:
        s = frozenset(mv.simplex)
        if mv.kind == "S":
            cells = surface.facets_containing(s)
            if not cells:
                raise ValueError("certificate names a missing face")
            nxt = stellar_subdivide(surface, s)
            top = nxt.vertices[-1]
            amb[top] = alloc()
        else:
            parts = weld_parts(surface, mv.vertex, s)
            if parts is None:
                raise ValueError("certificate weld is not legal")
            cells = [s | t for t in parts]
            nxt = stellar_weld(surface, mv.vertex, s)
            top = mv.vertex
        ball = shell(top, cells)
        if _faces(ball) & gone:
            # fresh prism layer over the whole surface; restarts the
            # label space so nothing can land on an interior face again
            layer = {v: alloc() for v in surface.vertices}
            for f in surface.facets:
                cap.update(staircase([amb, layer], sorted(f, key=amb.get)))
            amb.update(layer)
            ball = shell(top, cells)
        if cap & ball:
            raise ValueError("shell stack collided")
        cap |= ball
        if mv.kind == "S":
            gone.add(tuple(sorted(amb[v] for v in s)))
        surface = nxt

    iso = dict(zip(surface.vertices, relabel or surface.vertices))
    end = {frozenset(iso[v] for v in f) for f in surface.facets}
    if end != lateral_cells(bands, lk):
        raise ValueError("certificate missed the plain torus")
    back = {t: amb[v] for v, t in iso.items()}
    ends = [({s: back[a[s]] for s in a}, {s: back[b[s]] for s in b})
            for a, b in bands]
    return cap | staircase_cap(ends, lk, alloc)


def do_surgery(m, sections, ball, center):
    """Replace the curve's solid tube by a cap over a fresh apex sphere.

    The tube is resolved and verified first, then capped through the
    shell stack; a tube whose torus is a plain product is the zero-move
    case and gets the staircase cap alone.  Output is the surgered
    complex.
    """
    tube = resolve_tube(m, sections, ball)
    lk = ball.link([center])
    torus = verify_tube(m, tube, lk)
    alloc = itertools.count(m.vertices[-1] + 1).__next__
    cells = shell_cap(tube, lk, torus, alloc)
    return Complex((frozenset(m.facets) - tube.cells) | cells)
