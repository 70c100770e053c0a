"""From finite group presentations to closed manifolds.

A presentation with k generators and l relators is realized as a plan:
thicken a wedge of k circles to dimension n+1, attach one 2-handle per
relator, and attach k more along null-homotopic curves.  Only the
boundary of that plan is ever triangulated.  The boundary before the
2-handles is a connected sum of k circle-sphere products carrying a
marked core circle per generator; each relator word is positioned as
an embedded closed edge path in product position, and attaching the
handle becomes a simplicial surgery that swaps the curve's tube for a
pair of capping disk bundles.  Each surgery raises the Euler
characteristic by 2, so the finished manifold has characteristic 2+2l
and first homology the abelianization of the presentation, and it is
equivalent to the reference connected sum of l copies of S2 x S(n-2)
exactly when the presented group is trivial.  The reduction report
compares the two by invariants and optional certificate search.

The module also houses the recursion-theoretic machinery the
equivalence problem plugs into: a dovetailer that interleaves a
semi-algorithm across an enumerated stream, and enumerators for sphere
triangulations and subcomplexes up to isomorphism.
"""

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .builders import reference_manifold, simplex_sphere
from .complex_core import Complex, IsoIndex, _orbit_representatives
from .fabric import (commutator_corridor, double_lap_corridor, handle_chain,
                     plant_trivial_loop)
from .groups import (FinitePresentation, Word, abelianization, cyclic_reduce,
                     edge_path_presentation, format_presentation, free_reduce,
                     semi_decide_trivial)
from .invariants import homology
from .stellar_moves import (search_equivalence, stellar_subdivide,
                            stellar_weld, subdivision_candidates,
                            weld_candidates)
from .surgery import do_surgery


@dataclass(frozen=True)
class HandlePlan:
    """Symbolic plan: k 1-handles, a 2-handle per relator word, and k
    extra 2-handles along trivial words.  The thickening itself stays
    symbolic; only its boundary is built."""
    dimension: int
    num_handles: int
    relator_words: Tuple[Word, ...]
    trivial_words: Tuple[Word, ...]


@dataclass(frozen=True)
class Marks:
    """Marked cells of a handle boundary: one core circle per summand.
    The section data records each core's product collar, one fiber
    chart per ring column, which is what surgery routing consumes.
    ``untouched`` is the boundary as built, before any surgery."""
    cores: Tuple[Tuple[int, ...], ...]
    sections: Tuple[Tuple[Dict[int, int], ...], ...]
    model: Complex
    untouched: Complex


@dataclass(frozen=True)
class PositionedCurve:
    """Closed edge path in product position, ready for surgery.

    The path is embedded (no repeated vertices) and each block of it
    lies inside one marked summand's circle-times-star region; the
    block list records which letter of the word each segment spells,
    with None for connecting runs; a block's sign is the word's, not the
    direction the path runs.  Framing is always the untwisted product
    framing, which the ambient-boundary construction forces.  The
    ambient carried here may be a documented re-triangulation of the
    complex the curve was requested on.
    """
    word: Word
    path: Tuple[int, ...]
    blocks: Tuple[Tuple[Optional[int], Tuple[int, int]], ...]
    framing: str
    ambient: Complex
    sections: Tuple[Dict[int, int], ...]
    model: Complex
    center: int


class DepthError(ValueError):
    """Raised when a word needs more parallel core copies than the
    documented subdivision depth provides; reports the depth that
    would be required."""

    def __init__(self, word: Word, required_depth: int):
        self.word = word
        self.required_depth = required_depth
        super().__init__(
            "insufficient parallel copies for %r after the documented "
            "subdivision depth; required depth %d" % (word, required_depth))


def plan_from_presentation(p: FinitePresentation, n: int) -> HandlePlan:
    """Handle plan for a presentation: one 1-handle per generator, one
    2-handle per relator, and one extra trivial-curve 2-handle per
    generator so the boundary's group is presented by p."""
    if n < 4:
        raise ValueError("plans live in ambient dimension n >= 4")
    extras = ((),) * p.num_generators
    return HandlePlan(n, p.num_generators, p.relators, extras)


def handlebody_boundary(k: int, n: int) -> Tuple[Complex, Marks]:
    """Boundary of k thickened circles: the k-fold connected sum of
    circle times (n-1)-sphere, with marked cores.

    The summands are glued along facets disjoint from every core, so
    the marks survive the sum with their product collars intact.
    """
    if k < 0 or n < 4:
        raise ValueError("need k >= 0 handles in dimension n >= 4")
    amb, cols, ball = handle_chain(k, n)
    cores = tuple(tuple(col[0] for col in gen) for gen in cols)
    sections = tuple(tuple(gen) for gen in cols)
    return amb, Marks(cores, sections, ball, amb)


def _check_edge_path(cx: Complex, path: Sequence[int]):
    if len(set(path)) != len(path):
        raise ValueError("curve path revisits a vertex")
    for u, v in zip(path, list(path[1:]) + [path[0]]):
        if not any(u in f and v in f for f in cx.facets):
            raise ValueError("curve path leaves the 1-skeleton")


def _commutator_rotation(w: Word) -> Optional[Word]:
    if len(w) != 4:
        return None
    for r in range(4):
        rot = w[r:] + w[:r]
        if (rot[2] == -rot[0] and rot[3] == -rot[1]
                and abs(rot[0]) != abs(rot[1])):
            return rot
    return None


def realize_curve(marked: Tuple[Complex, Marks], w: Word) -> PositionedCurve:
    """Position a relator word as an embedded closed curve with a
    product tube.

    The empty word is planted as a small triangle bounding a disk in
    one facet's region, via a prefabricated sphere summand.  A single
    letter rides the marked core itself.  A doubled letter or a
    commutator of two generators is realized by re-triangulating the
    pristine handle boundary into a corridor whose junction columns
    let the curve revisit a summand; any other repeat pattern raises
    DepthError with the parallel-copy depth it would need.
    """
    m, marks = marked
    w = tuple(w)
    if w != free_reduce(w):
        raise ValueError("word must be freely reduced")
    k = len(marks.cores)
    for x in w:
        if not (1 <= abs(x) <= k):
            raise ValueError("letter %d outside the %d marked handles"
                             % (x, k))
    n = m.dim

    if len(w) == 0:
        avoid = frozenset(v for core in marks.cores for v in core)
        amb, secs, ball = plant_trivial_loop(m, n, avoid)
        blocks = ((None, (0, 3)),)
    elif len(w) == 1:
        amb, secs, ball = m, marks.sections[abs(w[0]) - 1], marks.model
        blocks = ((w[0], (0, 3)),)
    elif len(w) == 2 and w[0] == w[1]:
        # the corridor re-triangulations are charted against the untouched
        # k-handle boundary; any prior surgery invalidates them
        if k != 1 or n != 4 or m != marks.untouched:
            raise DepthError(w, 2)
        amb, secs, ball = double_lap_corridor()
        blocks = ((w[0], (0, 3)), (w[1], (3, 6)))
    else:
        rot = _commutator_rotation(w)
        if rot is None:
            raise DepthError(w, max(sum(1 for x in w if abs(x) == g)
                                    for g in range(1, k + 1)))
        if k != 2 or n != 4 or m != marks.untouched:
            raise DepthError(w, 2)
        amb, secs, ball = commutator_corridor()
        blocks = ((rot[0], (0, 2)), (rot[1], (2, 3)), (rot[2], (3, 4)),
                  (rot[3], (4, 6)), (None, (6, len(secs))))
    # an inverse letter runs its core backwards; g^-2 attaches the same
    # 2-handle as g^2, so it keeps the forward corridor, as an inverse
    # commutator does
    if len(w) == 1 and w[0] < 0:
        secs = secs[::-1]
    path = tuple(s[0] for s in secs)
    _check_edge_path(amb, path)
    return PositionedCurve(w, path, blocks, "untwisted", amb, tuple(secs),
                           ball, 0)


def surgery(m: Complex, c: PositionedCurve) -> Complex:
    """Replace the curve's product tube with a capped disk pair.

    The tube is a block neighborhood curve x star; its boundary torus
    curve x link is kept and refilled with cone(curve) x link, which
    raises the Euler characteristic by 2 in even ambient dimension.
    The curve's ambient may be a re-triangulation of m; the two are
    sanity-checked by Euler characteristic before cutting.  An ambient
    that is m itself needs no recount.
    """
    amb = c.ambient
    if amb is not m and amb.euler_characteristic() != m.euler_characteristic():
        raise ValueError("curve ambient does not match the given complex")
    return do_surgery(amb, list(c.sections), c.model, c.center)


def _cascade_ops(plan: HandlePlan) -> List[Tuple[str, object]]:
    """Order of surgeries realizing the plan's relators.

    Single-letter relators are performed first; each kills its
    generator, so the surviving words are rewritten through the
    quotient (letters of killed generators deleted, then freely and
    cyclically reduced).  Words that collapse to the empty word become
    trivial-curve surgeries.  At most one corridor word can remain,
    and only on a pristine boundary.
    """
    words: List[Word] = [cyclic_reduce(w) for w in plan.relator_words]
    live = list(range(len(words)))
    ops: List[Tuple[str, object]] = []
    cores_done = 0
    while True:
        pick = next((i for i in live if len(words[i]) == 1), None)
        if pick is None:
            break
        g = abs(words[pick][0])
        ops.append(("core", words[pick]))
        cores_done += 1
        live.remove(pick)
        for j in live:
            words[j] = cyclic_reduce(
                tuple(x for x in words[j] if abs(x) != g))
    leftovers = [words[i] for i in live if words[i]]
    for i in live:
        if not words[i]:
            ops.append(("trivial", ()))
    if leftovers:
        if cores_done or len(leftovers) > 1:
            raise DepthError(leftovers[0], 2)
        ops.insert(0, ("corridor", leftovers[0]))
    ops.extend(("trivial", w) for w in plan.trivial_words)
    return ops


def realize_boundary(p: FinitePresentation, n: int) -> Complex:
    """Closed n-manifold realizing the presentation.

    Builds the marked handle boundary, then performs one surgery per
    relator and one per extra trivial curve.  Relator words are taken
    up to cyclic reduction (conjugation does not move the attached
    handle's effect).
    """
    plan = plan_from_presentation(p, n)
    ops = _cascade_ops(plan)
    cur, marks = handlebody_boundary(plan.num_handles, n)
    for kind, w in ops:
        curve = realize_curve((cur, marks), w)
        cur = surgery(cur, curve)
    return cur


def _invariants(cx: Complex) -> dict:
    # homology first, so the f-vector is counted off its face table
    prof = homology(cx).to_json()
    return {"euler_characteristic": cx.euler_characteristic(),
            "f_vector": list(cx.f_vector()), "homology": prof}


def reduction_report(p: FinitePresentation, n: int,
                     budgets: Optional[Dict[str, int]] = None) -> dict:
    """Compare the realized manifold against the reference sum.

    Builds M = realize_boundary(p, n) and the reference manifold with
    the same relator count, one invariants record for each, and the
    group-triviality semi-decision on the edge-path presentation of M,
    and only then issues a verdict: distinguished when a homology
    degree separates the two, equivalent-certified when a positive
    search budget finds a stellar-move certificate, consistent-unknown
    otherwise.
    """
    b = {"pi1": 100000, "search": 0}
    b.update(budgets or {})
    m = realize_boundary(p, n)
    t = reference_manifold(len(p.relators), n)
    inv_m, inv_t = _invariants(m), _invariants(t)

    pres = edge_path_presentation(m)
    pi1 = {"abelianization": abelianization(pres).to_json(),
           "trivial": semi_decide_trivial(pres, budget=b["pi1"]).to_json()}

    # chi(M) = chi(T) on every presentation, and chi is the alternating
    # sum of the Betti numbers, so homology is the only obstruction
    pairs = itertools.zip_longest(inv_m["homology"], inv_t["homology"])
    obstruction = next(("H%d %s vs %s" % (d, gm, gt)
                        for d, (gm, gt) in enumerate(pairs) if gm != gt), None)

    if obstruction is not None:
        equivalence = {"verdict": "distinguished", "obstruction": obstruction}
    elif b["search"] > 0 and search_equivalence(m, t, b["search"]).is_yes:
        equivalence = {"verdict": "equivalent-certified"}
    else:
        equivalence = {"verdict": "consistent-unknown"}

    return {"presentation": format_presentation(p), "n": n,
            "invariants_M": inv_m, "invariants_T": inv_t,
            "pi1_verdict": pi1, "equivalence_verdict": equivalence,
            "budgets": {"pi1": b["pi1"], "search": b["search"]}}


def report_to_text(report: dict) -> str:
    """Canonical serialization; byte-identical for equal reports."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


class Dovetailed:
    """Stream of the enumerated items the semi-algorithm accepts.

    Stage t runs step t-i of the semi-algorithm on item i for every
    i <= t, so an item halting at step s is discovered by stage i+s;
    each halting item is emitted exactly once, in discovery order
    (stage, then index).  Iteration never terminates on its own: a
    stream with finitely many halting items simply stops producing.
    """

    def __init__(self, enumerator: Callable[[int], object],
                 algorithm: Callable[[object, int], bool]):
        self._enum = enumerator
        self._algo = algorithm
        self._stage = 0
        self._found: List[Tuple[int, object, int]] = []
        self._halted = set()

    def _advance(self):
        t = self._stage
        for i in range(t + 1):
            if i in self._halted:
                continue
            item = self._enum(i)
            if self._algo(item, t - i):
                self._halted.add(i)
                self._found.append((i, item, t))
        self._stage += 1

    def up_to_stage(self, max_stage: int) -> List[Tuple[int, object, int]]:
        """All (index, item, stage) discoveries with stage <= max_stage."""
        while self._stage <= max_stage:
            self._advance()
        return [e for e in self._found if e[2] <= max_stage]

    def __call__(self, index: int) -> object:
        while len(self._found) <= index:
            self._advance()
        return self._found[index][1]

    def __iter__(self) -> Iterator[object]:
        k = 0
        while True:
            yield self(k)
            k += 1


def dovetail(enumerator: Callable[[int], object],
             algorithm: Callable[[object, int], bool]) -> Dovetailed:
    """Interleave the semi-algorithm across the enumerated stream."""
    return Dovetailed(enumerator, algorithm)


def _move_neighbors(cx: Complex, cap: int) -> Iterator[Complex]:
    """Results within cap of the subdivisions (by sorted face, sized
    before they are built), then the welds, applying the first move of
    each orbit under ``cx.automorphisms()``."""
    autos = cx.automorphisms()
    subs = sorted(subdivision_candidates(cx), key=lambda f: sorted(f))
    welds = list(weld_candidates(cx))
    for s in _orbit_representatives(
            subs, autos, lambda g: ((s, frozenset(map(g.get, s))) for s in subs)):
        if len(cx.facets) + len(cx.facets_containing(s)) * (len(s) - 1) <= cap:
            yield stellar_subdivide(cx, s)
    for v, s in _orbit_representatives(welds, autos, lambda g: (
            ((v, s), (g[v], frozenset(map(g.get, s)))) for v, s in welds)):
        out = stellar_weld(cx, v, s)
        if len(out.facets) <= cap:
            yield out


def enumerate_spheres(n: int, max_facets: int) -> Iterator[str]:
    """Signatures of n-sphere triangulations with at most max_facets
    facets, as the breadth-first stellar-move closure of the boundary
    of the (n+1)-simplex.

    Every emitted complex is a genuine sphere (moves preserve the
    homeomorphism type); completeness holds only in the limit of the
    cap, since a path between small spheres may pass above it.

    A state applies only the first move, in scan order, of each orbit
    under its cached automorphisms.  The first neighbour in each
    isomorphism class is the first of its orbit, so the output is that
    of applying every move, even if the automorphisms span a subgroup.
    A cap below the minimal sphere raises ValueError at the call, not
    when the iterator is first advanced.
    """
    if n < 1 or max_facets < n + 2:
        raise ValueError("cap must admit the minimal sphere")
    return _sphere_closure(n, max_facets)


def _sphere_closure(n: int, max_facets: int) -> Iterator[str]:
    start = simplex_sphere(n)
    seen = IsoIndex()
    seen.add(start)
    yield start.iso_signature()
    frontier = [start]
    while frontier:
        fresh = []
        for cx in frontier:
            for out in _move_neighbors(cx, max_facets):
                if seen.add(out)[1]:
                    fresh.append((out.iso_signature(), out))
        fresh.sort(key=lambda p: p[0])
        for sig, _ in fresh:
            yield sig
        frontier = [cx for _, cx in fresh]


def enumerate_subcomplexes(k: Complex) -> Iterator[str]:
    """Signatures of all nonempty subcomplexes up to isomorphism.

    Walks every downward-closed subset of the face poset, so it is
    exponential in the number of faces and meant for small complexes.
    """
    faces = k.faces()
    nf = len(faces)
    index = {f: i for i, f in enumerate(faces)}
    below = []
    for f in faces:
        mask = 0
        for g in faces:
            if g < f:
                mask |= 1 << index[g]
        below.append(mask)
    seen = IsoIndex()
    for mask in range(1, 1 << nf):
        ok = True
        for i in range(nf):
            if mask >> i & 1 and below[i] & ~mask:
                ok = False
                break
        if not ok:
            continue
        chosen = [faces[i] for i in range(nf) if mask >> i & 1]
        sub = Complex.generated_by(chosen)
        if seen.add(sub)[1]:
            yield sub.iso_signature()
