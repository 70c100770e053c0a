"""Tubes around positioned curves and the caps that replace them.

A positioned curve is a cyclic run of fiber sections: section i maps the
model ball's vertices onto distinct vertices of the ambient complex, and
consecutive sections span a chunk of product cells.  How fiber
coordinates continue across an edge is not prescribed; the arrival chart
is detected from the cells actually present, so a curve crossing a glued
seam needs no bookkeeping on the caller's side.

Capping a tube whose boundary torus is a plain product uses staircase
prisms over a fresh apex sphere.  Every product cell here, of a tube, a
prism layer or a cap, comes from ``builders.staircase``, and ``chunk``
collects them over the facets of a fiber.  When seam crossings twist
the torus, the cap is assembled from stellar-move shells: each move in
a certificate from the twisted torus to a plain torus contributes one
cone over the moved star, and the plain torus is closed with the
staircase cap.

Certificates for twisted tori do not need a search.  Composing the edge
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

    Walk each fiber facet's staircase one cell at a time: the cell is
    the face assembled so far plus one unknown arrival vertex, so the
    coface index pins that vertex to at most two choices, and choices
    outside the arrival section or colliding with earlier ones die.
    """
    facs = sorted(ball.facets, key=sorted)
    hits = []
    asg = {}

    def facet(fi):
        if fi == len(facs):
            hits.append(dict(asg))
            return
        order = sorted(facs[fi])
        k = len(order)

        def step(pos):
            if pos == k:
                facet(fi + 1)
                return
            j = k - 1 - pos if forward else pos
            s = order[j]
            if forward:
                known = {lo[order[i]] for i in range(j + 1)}
                known |= {asg[order[i]] for i in range(j + 1, k)}
            else:
                known = {asg[order[i]] for i in range(j)}
                known |= {lo[order[i]] for i in range(j, k)}
            extras = idx.get(frozenset(known), ())
            if s in asg:
                if asg[s] in extras:
                    step(pos + 1)
                return
            taken = set(asg.values())
            for x in extras:
                if x in vnext and x not in taken:
                    asg[s] = x
                    step(pos + 1)
                    del asg[s]

        step(0)

    facet(0)
    return [h for h in hits if frozenset(h.values()) == vnext]


def resolve_tube(m, sections, ball):
    """Locate the solid tube swept by the curve.

    sections[i]: model-ball vertex -> ambient vertex.  Both the arrival
    chart and the staircase direction of every edge are detected against
    the cells of m; an edge spanning no chunk at all means the curve is
    not in product position there.
    """
    n = len(sections)
    have = frozenset(m.facets)
    idx = _coface_index(have)
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


def lateral_cells(tube, lk):
    out = set()
    for a, b in _oriented(tube.edges):
        out |= chunk([a, b], lk.facets)
    return out


def verify_tube(m, tube, ball, center):
    """Check the tube is cleanly embedded: its boundary is the expected
    lateral torus and no outside facet reaches an interior face."""
    lk = ball.link([center])
    lat = lateral_cells(tube, lk)
    nc = Complex(tube.cells)
    if frozenset(nc.boundary().facets) != frozenset(lat):
        raise ValueError("tube boundary is not the expected torus")
    nverts = set(nc.vertices)
    interior = nc.face_set - Complex(lat).face_set
    for f in m.facets:
        if f in tube.cells:
            continue
        touch = f & nverts
        for k in range(1, len(touch) + 1):
            for sub in itertools.combinations(sorted(touch), k):
                if frozenset(sub) in interior:
                    raise ValueError(
                        f"outside facet {sorted(f)} meets the tube interior"
                    )
    return lat


def _touches_interior(ball, seen, current, fresh):
    """True when a cell face revisits a face that left the surface."""
    for cell in ball:
        verts = sorted(cell)
        for k in range(1, len(verts) + 1):
            for sub in itertools.combinations(verts, k):
                fs = frozenset(sub)
                if fs & fresh:
                    continue
                if fs in seen and fs not in current:
                    return True
    return False


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
    cells = set()
    for a, b in bands:
        cells |= chunk([a, b, apex], lk.facets)
    return cells


def _is_plain(tube):
    secs = [lo for lo, hi, flag in tube.edges]
    n = len(secs)
    for i, (lo, hi, flag) in enumerate(tube.edges):
        nxt = secs[(i + 1) % n]
        if any(hi[s] != nxt[s] for s in lo):
            return False
    return True


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


def _swap_moves(surface, lk, a, b, o, j):
    """Trade the order-adjacent labels at positions j, j+1 of a band.

    Two bistellar flips per swap: a 2-3 across the first link facet
    containing the pair opens the new diagonal, a 3-2 across the second
    consumes the old one.  A pair spanning no link edge costs nothing.
    """
    q, r = o[j], o[j + 1]
    fs = sorted((f for f in lk.facets if q in f and r in f),
                key=lambda f: tuple(sorted(f)))
    if not fs:
        return surface, []
    if len(fs) != 2:
        raise ValueError("swapped pair does not span a surface edge")
    rank = {v: t for t, v in enumerate(o)}

    def third(f):
        (p,) = set(f) - {q, r}
        return a[p] if rank[p] < j else b[p]

    f1, f2 = fs
    mvs = []
    tri = frozenset({a[q], b[r], third(f1)})
    fresh = surface.vertices[-1] + 1
    mvs.append(StellarMove("S", tuple(sorted(tri)), fresh))
    surface = stellar_subdivide(surface, tri)
    diag = (min(b[q], a[r]), max(b[q], a[r]))
    mvs.append(StellarMove("W", diag, fresh))
    surface = stellar_weld(surface, fresh, frozenset(diag))

    edge = frozenset({a[q], b[r]})
    fresh = surface.vertices[-1] + 1
    mvs.append(StellarMove("S", tuple(sorted(edge)), fresh))
    surface = stellar_subdivide(surface, edge)
    tri2 = frozenset({a[r], b[q], third(f2)})
    mvs.append(StellarMove("W", tuple(sorted(tri2)), fresh))
    surface = stellar_weld(surface, fresh, tri2)
    return surface, mvs


def _untwist_moves(x0, bands, lk):
    """Scripted certificate re-staircasing every band to sorted order."""
    surface = x0
    moves = []
    for a, b, order in bands:
        o = list(order)
        target = sorted(o)
        rank = {v: t for t, v in enumerate(target)}
        while o != target:
            for j in range(len(o) - 1):
                if rank[o[j]] > rank[o[j + 1]]:
                    surface, mvs = _swap_moves(surface, lk, a, b, o, j)
                    moves.extend(mvs)
                    o[j], o[j + 1] = o[j + 1], o[j]
                    break
    want = set()
    for a, b, order in bands:
        want |= chunk([a, b], lk.facets)
    if frozenset(surface.facets) != frozenset(want):
        raise ValueError("scripted moves missed the plain torus")
    return moves


def shell_cap(tube, lk, alloc):
    """Cap a tube whose boundary torus carries a seam twist.

    A move certificate from the twisted torus to a plain torus replays
    as a stack of cone shells, one per move.  Whenever stacking a shell
    would land on a cell the stack has already used, a fresh prism layer
    over the whole current surface is inserted first, restarting the
    label space.  The plain torus is then closed with the staircase cap.

    When the composed edge pairings have identity monodromy the
    certificate is scripted band by band; otherwise it comes from a
    stellar search against a reference product torus.
    """
    lat = lateral_cells(tube, lk)
    x0 = Complex(lat)
    bands, mono = _chart_bands(tube, lk)
    scripted = all(mono[s] == s for s in mono)
    if scripted:
        cert_moves = _untwist_moves(x0, bands, lk)
        cert = None
    else:
        n = len(tube.edges)
        ring = Complex([[i, (i + 1) % n] for i in range(n)])
        target, chart = ordered_product_with_chart(ring, Complex(lk.facets))
        res = search_equivalence(x0, target, _SEARCH_BUDGET)
        if res.status != "yes":
            raise ValueError(
                f"no move path to the reference torus: {res.status}"
            )
        cert = res.witness
        cert_moves = cert.moves

    cap = set()
    surface = x0
    amb = {v: v for v in x0.vertices}
    current = x0.face_set
    seen = set(current)

    def relayer():
        # fresh prism layer over the whole surface; restarts the label
        # space so nothing can land on an interior face again
        fresh = {v: alloc() for v in surface.vertices}
        for f in surface.facets:
            cap.update(staircase([amb, fresh], sorted(f, key=amb.get)))
        amb.clear()
        amb.update(fresh)

    def refresh_current():
        return {
            frozenset(amb[v] for v in f)
            for f in surface.face_set
        }

    for mv in cert_moves:
        if mv.kind == "S":
            star = surface.facets_containing(frozenset(mv.simplex))
            if not star:
                raise ValueError("certificate names a missing face")
            nxt = stellar_subdivide(surface, mv.simplex)
            fresh_cert = (set(nxt.vertices) - set(surface.vertices)).pop()
            fresh_amb = alloc()

            def mk_ball():
                bottom = {frozenset(amb[v] for v in f) for f in star}
                return {frozenset({fresh_amb}) | f for f in bottom}

            ball = mk_ball()
            if _touches_interior(ball, seen, current, {fresh_amb}):
                relayer()
                current = refresh_current()
                seen |= current
                ball = mk_ball()
            amb[fresh_cert] = fresh_amb
            surface = nxt
        else:
            parts = weld_parts(surface, mv.vertex, frozenset(mv.simplex))
            if parts is None:
                raise ValueError("certificate weld is not legal")
            s = frozenset(mv.simplex)
            post = [s | t for t in parts]

            def mk_ball():
                apex = amb[mv.vertex]
                return {
                    frozenset({apex} | {amb[v] for v in f}) for f in post
                }

            ball = mk_ball()
            if _touches_interior(ball, seen, current, set()):
                relayer()
                current = refresh_current()
                seen |= current
                ball = mk_ball()
            surface = stellar_weld(surface, mv.vertex, mv.simplex)
        if cap & ball:
            raise ValueError("shell stack collided")
        cap |= ball
        current = refresh_current()
        seen |= current

    if scripted:
        # the scripted moves end at the chart-plain torus; close it with
        # the staircase cap over a fresh apex sphere
        ends = [({s: amb[a[s]] for s in a}, {s: amb[b[s]] for s in b})
                for a, b, _ in bands]
        return cap | staircase_cap(ends, lk, alloc)

    # final relabeling onto the reference torus
    iso = (
        dict(zip(surface.vertices, cert.relabel))
        if cert.relabel
        else {v: v for v in surface.vertices}
    )
    back = {tv: amb[sv] for sv, tv in iso.items()}

    # close the reference torus with the plain staircase cap
    secs = [{s: chart[(i, s)] for s in lk.vertices} for i in range(n)]
    ref_tube = resolve_tube(target, secs, Complex(lk.facets))
    ends = [({s: back[a[s]] for s in a}, {s: back[b[s]] for s in b})
            for a, b in _oriented(ref_tube.edges)]
    return cap | staircase_cap(ends, lk, alloc)


def do_surgery(m, sections, ball, center):
    """Replace the curve's solid tube by a cap over a fresh apex sphere.

    The tube is resolved and verified first; a torus that is a plain
    product is capped directly, anything else goes through the shell
    stack.  Output is the surgered complex.
    """
    tube = resolve_tube(m, sections, ball)
    verify_tube(m, tube, ball, center)
    lk = ball.link([center])
    used = [max(m.vertices)]

    def alloc():
        used[0] += 1
        return used[0]

    if _is_plain(tube):
        cells = staircase_cap(_oriented(tube.edges), lk, alloc)
    else:
        cells = shell_cap(tube, lk, alloc)
    return Complex((frozenset(m.facets) - tube.cells) | cells)
