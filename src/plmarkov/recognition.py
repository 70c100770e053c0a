"""Semi-decision procedures for spheres, balls, and manifold structure.

Sphere recognition is certificate-first: only purity and the Euler
number are read before the descent of the stellar move search against
the boundary of a simplex, whose yes is a move certificate, so a sphere
it settles walks no facet graph and computes no homology.  What it
leaves open passes the pseudomanifold and homology gates before the
two-sided search; so a pure non-pseudomanifold with a sphere's Euler
number spends its descent before the gates' named no.  Ball recognition
gates the cone closure of the ball (Newman's criterion) and searches it
against a simplex boundary, homology after the descent.  A definite no
names its obstruction; yes carries a replayable move certificate;
unknown means the budget ran out.

Manifold recognition classifies every vertex link as a sphere (interior
vertex) or a ball (boundary vertex).  Isomorphic links share one
verdict through an ``IsoIndex`` (fingerprint buckets keyed by canonical
encoding, or by colour where refinement is discrete), so structured
complexes with many repeated link shapes settle quickly.  Per-vertex
budgets depend only on the input, so reports are reproducible byte for
byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

from . import verdict as vd
from .builders import simplex_sphere
from .complex_core import Complex, IsoIndex
from .invariants import homology
from .stellar_moves import descend, meet, search_equivalence

INTERIOR = "interior"
BOUNDARY = "boundary"


def _sphere_gates(cx: Complex) -> Optional[vd.Verdict]:
    """The combinatorial gates, complete in dimensions 0 and below."""
    if cx.is_empty:
        return vd.yes()
    if not cx.is_pure():
        return vd.no("not-pure")
    if cx.dim == 0:
        # complete in dimension zero: exactly two points
        if len(cx.facets) == 2:
            return vd.yes()
        return vd.no("not-two-points", detail={"points": len(cx.facets)})
    if not cx.is_closed_pseudomanifold():
        return vd.no("not-closed-pseudomanifold")
    have, want = cx.euler_characteristic(), simplex_sphere(cx.dim).euler_characteristic()
    if have != want:
        return vd.no("euler-mismatch", detail={"have": have, "want": want})
    return None


def is_combinatorial_sphere(cx: Complex, budget: int = 100000) -> vd.Verdict:
    """Is cx connected to the boundary of a simplex of its dimension by
    stellar moves?  The empty complex is the (-1)-sphere.

    A complex of dimension below 1, an impure one, or one without the
    reference sphere's Euler number gets the combinatorial gates alone.
    Otherwise the descent stage of the search runs first, and its yes is
    returned as it stands: stellar moves keep the PL type, so the gates
    would pass a certified complex.  An unsettled descent is followed by
    the gates, the homology gate and the two-sided search from the same
    reduced states and budget.  The gates have then made cx a strongly
    connected closed pseudomanifold of dimension at least 1, whose top
    homology is Z exactly when it is orientable, so the homology gate
    also rejects every non-orientable cx.  A yes witness is a move
    certificate replaying cx onto the reference sphere.  Unknown states
    that the budget ran out before the search met in the middle.
    """
    if (cx.dim < 1 or not cx.is_pure() or cx.euler_characteristic()
            != simplex_sphere(cx.dim).euler_characteristic()):
        return _sphere_gates(cx)
    ref = simplex_sphere(cx.dim)
    descent = descend(cx, ref, budget)
    if descent.verdict is not None:
        return descent.verdict
    gate = _sphere_gates(cx)
    if gate is not None:
        return gate
    if homology(cx) != homology(ref):
        return vd.no("homology-mismatch", detail=homology(cx).to_json())
    return meet(cx, ref, descent)


def is_combinatorial_ball(cx: Complex, budget: int = 100000) -> vd.Verdict:
    """Is cx a combinatorial ball?  A pure pseudomanifold with nonempty
    boundary is one exactly when its cone closure is a combinatorial
    sphere (Newman; see Lickorish, Geom. Topol. Monographs 2, 1999).
    The closure is cx plus r | {apex} for every boundary ridge r, with
    apex = max label + 1.  After the gates one certificate-first search
    runs on it, so a yes witness replays the closure onto the boundary
    of a simplex, and a no may name an obstruction of the closure.  A
    single simplex needs no witness."""
    if cx.is_empty:
        return vd.no("wrong-dimension")
    if not cx.is_pure():
        return vd.no("not-pure")
    if len(cx.facets) == 1:
        return vd.yes()
    if not cx.is_pseudomanifold_with_boundary():
        return vd.no("not-pseudomanifold-with-boundary")
    rim = cx.boundary()
    if rim.is_empty:
        return vd.no("no-boundary")
    apex = cx.vertices[-1] + 1
    closure = Complex._from_ordered(cx.facets, [r | {apex} for r in rim.facets],
                                    cx.vertices + (apex,))
    gate = _sphere_gates(closure)
    if gate is not None:
        return gate
    return search_equivalence(closure, simplex_sphere(cx.dim), budget)


# -- vertex link classification ----------------------------------------


@dataclass(frozen=True)
class LinkEntry:
    """Classification of one vertex link."""

    vertex: int
    f_vector: Tuple[int, ...]
    role: str         # "interior" / "boundary" / "" when unresolved
    status: str       # verdict status for this link
    reason: str = ""

    def to_json(self) -> dict:
        out = {
            "vertex": self.vertex,
            "f_vector": list(self.f_vector),
            "role": self.role,
            "status": self.status,
        }
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class RecognitionReport:
    """Full outcome of a manifold check, one entry per vertex."""

    dim: int
    f_vector: Tuple[int, ...]
    status: str
    reason: str
    entries: Tuple[LinkEntry, ...]

    @property
    def boundary_vertices(self) -> Tuple[int, ...]:
        return tuple(e.vertex for e in self.entries if e.role == BOUNDARY)

    def to_json(self) -> dict:
        out = {
            "dim": self.dim,
            "f_vector": list(self.f_vector),
            "status": self.status,
            "links": [e.to_json() for e in self.entries],
        }
        if self.reason:
            out["reason"] = self.reason
        if self.status == vd.YES:
            out["closed"] = not self.boundary_vertices
            if self.boundary_vertices:
                out["boundary_vertices"] = list(self.boundary_vertices)
        return out

    def to_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _classify_link(lk: Complex, budget: int) -> Tuple[str, str, str]:
    """(role, status, reason) for one link, sphere tried before ball."""
    sphere = is_combinatorial_sphere(lk, budget)
    if sphere.is_yes:
        return (INTERIOR, vd.YES, "")
    ball = is_combinatorial_ball(lk, budget)
    if ball.is_yes:
        return (BOUNDARY, vd.YES, "")
    if sphere.is_no and ball.is_no:
        return ("", vd.NO, f"sphere: {sphere.reason}; ball: {ball.reason}")
    return ("", vd.UNKNOWN, "budget-exhausted")


def classify_links(cx: Complex, budget: int = 1000000) -> RecognitionReport:
    """Classify every vertex link.

    The budget is divided evenly over the vertices up front.  The links
    are grouped by an ``IsoIndex``, so each isomorphism class of links
    is classified once, on the link of its smallest vertex, and entries
    are assembled in vertex order.
    """
    if cx.is_empty or not cx.is_pure():
        reason = "empty-complex" if cx.is_empty else "not-pure"
        return RecognitionReport(cx.dim, cx.f_vector(), vd.NO, reason, ())
    verts = cx.vertices
    share = max(budget // max(len(verts), 1), 1)
    links = IsoIndex()
    assign = {v: links.add(cx.link([v]))[0] for v in verts}
    results = [_classify_link(rep, share) for rep in links.members]
    entries = []
    for v in verts:
        role, status, reason = results[assign[v]]
        # isomorphic links share an f-vector: report the representative's
        entries.append(LinkEntry(v, links.members[assign[v]].f_vector(), role, status, reason))
    bad = [e for e in entries if e.status == vd.NO]
    open_ = [e for e in entries if e.status == vd.UNKNOWN]
    if bad:
        status, reason = vd.NO, f"vertex {bad[0].vertex}: {bad[0].reason}"
    elif open_:
        status, reason = vd.UNKNOWN, f"vertex {open_[0].vertex} unresolved"
    else:
        status, reason = vd.YES, ""
    return RecognitionReport(cx.dim, cx.f_vector(), status, reason, tuple(entries))


def is_pl_manifold(cx: Complex, budget: int = 1000000) -> vd.Verdict:
    """Does every vertex link reduce to a sphere or a ball?

    yes means cx is a combinatorial manifold (with boundary when any
    link is a ball); the witness is the per-vertex report.
    """
    report = classify_links(cx, budget)
    if report.status == vd.YES:
        return vd.yes(witness=report)
    if report.status == vd.NO:
        return vd.no(report.reason, detail=report.to_json())
    return vd.unknown(report.reason, detail=report.to_json())


def is_closed_manifold(cx: Complex, budget: int = 1000000) -> vd.Verdict:
    """Combinatorial manifold with every vertex interior: the vertex links
    of a closed pseudomanifold have no boundary, so none is a ball.  A
    nonempty set of points is a closed 0-manifold."""
    if not cx.is_pure():
        return vd.no("not-pure")
    if cx.dim != 0 and not cx.is_closed_pseudomanifold():
        return vd.no("not-closed-pseudomanifold")
    return is_pl_manifold(cx, budget)
