"""Stellar moves, move certificates, and the equivalence search.

The calculus has two local moves.  Subdividing at a face s replaces the
closed star of s by the cone from a fresh vertex over (boundary of s)
joined with link(s).  Welding is the exact inverse: a vertex z whose
link splits as (boundary of s) * L, for a simplex s that is not a face,
is removed and the facets s u t restored.  Two complexes are stellar
equivalent when some chain of these moves connects them; the chain plus
one final relabeling is a replayable certificate.

Replay convention: a subdivision line names only the face; the fresh
vertex is always (current max label) + 1.  All search code applies the
same convention, so recorded moves replay verbatim.

Bistellar flips are the derived accelerator used by the search: a face
A whose link is the boundary of a simplex B (with B not a face) can be
exchanged for B with link boundary-of-A.  For 0 < dim A < d this is a
subdivision at A followed by a weld at the fresh vertex with simplex B,
and a facet flip is the single subdivision.  A vertex flip is a weld,
so the flip set starts at dimension 1 and the welds cover dimension 0.
The search emits only stellar lines, never flip lines.

Each weld and flip test has a local half and a global half.  The local
half is the link condition: whether link(v) splits as (boundary of s) *
L, and whether link(A) is the boundary of B.  It depends only on the
vertex or face and its star, so it is a pure function of (v, star of v)
or (A, star of A), and its answer holds in every complex that has that
star.  The global half is whether s or B is a face, which depends on the
whole complex.  Every stage of a search keeps the local answers in a
table keyed by (vertex or face, star): one table per descent, shared
with its plateau escapes, and one per ``meet``.  Each stage reads its
welds off one scan, ``_welds``, and its flips off ``_flips``, and judges
only the global half again in each state.  The table needs no
invalidation.  The public scans, and replay through ``stellar_weld``,
judge both halves afresh.  The descent judges nothing at the boundary of
a simplex, where no move applies, so a descent from the reference sphere
stops at once.  The weld scan reads each star off the facet tuple, in
facet order, and tests whether s is a face against the facets, so a
state that welds builds no incidence index.

A move's child inherits its parent's facet order and vertex tuple: the
kept facets stay in order, the few new ones are inserted in their
places, and the vertices lose the welded label or gain the fresh one.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from . import verdict as vd
from .complex_core import (Complex, InvalidComplexError, IsoIndex, Simplex,
                           _is_simplex_boundary, isomorphism)
from .invariants import homology

# -- elementary moves --------------------------------------------------


def stellar_subdivide(cx: Complex, s) -> Complex:
    """Subdivide at the face s (dimension >= 1); the fresh vertex is
    max label + 1, as replay expects."""
    s = frozenset(s)
    if len(s) < 2:
        raise InvalidComplexError("subdivision needs a face of dimension >= 1")
    cof = cx.facets_containing(s)
    if not cof:
        raise InvalidComplexError(f"{sorted(s)} is not a face")
    fresh = cx.vertices[-1] + 1
    return Complex._from_ordered([f for f in cx.facets if f not in cof],
                                 [(f - {v}) | {fresh} for f in cof for v in s],
                                 cx.vertices + (fresh,))


def weld_parts(cx: Complex, vertex: int, s) -> Optional[List[Simplex]]:
    """When welding (vertex, s) is legal, the facets of the factor L
    with link(vertex) = (boundary of s) * L; otherwise None.

    L trivial (link exactly the boundary of s) is reported as [empty
    frozenset].
    """
    s = frozenset(s)
    if len(s) < 2:
        return None
    if cx.has_face(s):
        return None
    cof = cx.facets_containing(frozenset([vertex]))
    if not cof:
        return None
    rest = _link_factor({f - {vertex} for f in cof}, s)
    if rest is None:
        return None
    return sorted(rest, key=lambda t: tuple(sorted(t)))


def _link_factor(link_facets, s: Simplex) -> Optional[set]:
    """The facets of L when the distinct link facets are those of
    (boundary of s) * L; otherwise None: the link condition of a weld,
    without the requirement that s is not a face.  A facet f missing
    one vertex of s is (s - (s - f)) | (f - s), so f -> (s - f, f - s)
    is one-to-one into s x L, and onto exactly when the counts agree."""
    rest: set = set()
    for f in link_facets:
        if len(s - f) != 1:
            return None
        rest.add(f - s)
    if len(s) * len(rest) != len(link_facets):
        return None
    return rest


def stellar_weld(cx: Complex, vertex: int, s) -> Complex:
    """Remove ``vertex``, rebuilding the facets s u t; inverse of
    subdivision at s."""
    s = frozenset(s)
    rest = weld_parts(cx, vertex, s)
    if rest is None:
        raise InvalidComplexError(
            f"welding vertex {vertex} with simplex {sorted(s)} is not legal"
        )
    return _weld(cx, vertex, s, rest)


def _weld(cx: Complex, vertex: int, s: Simplex, rest: Iterable[Simplex]) -> Complex:
    """The weld (vertex, s), which must be legal with L given by its
    facets ``rest``."""
    return Complex._from_ordered([f for f in cx.facets if vertex not in f],
                                 [s | t for t in rest],
                                 tuple(u for u in cx.vertices if u != vertex))


@dataclass(frozen=True)
class StellarMove:
    """One certificate line.  kind "S": subdivide at ``simplex`` (the
    ``vertex`` records which fresh label replay will create).  kind
    "W": weld removing ``vertex`` with replacement ``simplex``."""

    kind: str
    simplex: Tuple[int, ...]
    vertex: int

    def __post_init__(self):
        if self.kind not in ("S", "W"):
            raise ValueError(f"unknown move kind {self.kind!r}")


# -- move enumeration --------------------------------------------------


def subdivision_candidates(cx: Complex) -> Iterator[Simplex]:
    """The faces of dimension >= 1 in ascending label order across
    dimensions (an edge before every face that extends it), read off
    the face table with one sort of its label tuples."""
    table = cx.face_tuples()
    return map(frozenset, sorted(itertools.chain.from_iterable(
        table[k] for k in range(1, cx.dim + 1))))


def weld_candidates(cx: Complex) -> Iterator[Tuple[int, Simplex]]:
    """All legal welds, deterministically ordered: by vertex v, then by
    the vertex w below, then by the labels of s.

    Any legal s satisfies: s is not a face, every vertex of s lies in
    link(v), and s has exactly one vertex outside each link facet; so s
    is (subset of first link facet) + (one vertex w outside it).  When
    the N link facets split as (boundary of s) * L, every vertex of s
    lies in exactly N - |L| of them and |s| = N / |L|, so the degree of
    w in the link fixes |s| and the subset is drawn from the vertices
    of that same degree; this is a necessary condition, so no weld is
    lost.  The link condition, a pure function of v and its star (see
    the module docstring), is tested first, since almost every
    candidate fails it; ``weld_parts`` judges the few that pass.  The
    search stages keep the link conditions in a star-keyed table; this
    scan works them out afresh.
    """
    for v in cx.vertices:
        for s, _ in _link_splits(v, cx._incidence()[v]):
            if weld_parts(cx, v, s) is not None:
                yield (v, s)


_UNSEEN = object()


def _judged(table: dict, judge, x, star):
    """``judge(x, star)``, the local half of a move test at the vertex
    or face x with that star, computed once per table."""
    key = (x, star)
    hit = table.get(key, _UNSEEN)
    if hit is _UNSEEN:
        hit = table[key] = judge(x, star)
    return hit


def _link_splits(v: int, star: Tuple[Simplex, ...]) -> Tuple[Tuple[Simplex, set], ...]:
    """The link condition of every weld at v, given the facets of its
    star in facet order: the pairs (s, L) in the order of
    ``weld_candidates``.  A link vertex lies in as many link facets as
    star facets, so the degrees are counted off the star, and the link
    is never built: v lies in no candidate s, so the star facets are
    judged in place of the link facets, and v is taken off the factor
    of a legal split."""
    # the least link facet of the smallest size, which misses max(s) for
    # every legal s, as the least facet of any size class does
    f0 = star[0] - {v}
    n = len(star)
    degree = Counter(itertools.chain.from_iterable(star))
    pools: Dict[int, List[int]] = {}
    for u in sorted(f0):
        pools.setdefault(degree[u], []).append(u)
    out = []
    for w in sorted(degree.keys() - star[0]):
        factor = n - degree[w]
        if n % factor:
            continue
        for a in itertools.combinations(pools.get(degree[w], ()), n // factor - 1):
            s = frozenset(a) | {w}
            rest = _link_factor(star, s)
            if rest is not None:
                out.append((s, {t - {v} for t in rest}))
    return tuple(out)


def _welds(cx: Complex, table: dict) -> Iterator[Tuple[int, Simplex, set]]:
    """The welds of ``weld_candidates``, in its order, with the link
    conditions from ``table`` and the factor L of each.  A star is keyed
    as the tuple of its facets in facet order, as the incidence index
    holds it; each scanned vertex reads its star off the facet tuple
    and each s is tested against the facets, so a state whose scan
    finds a weld builds no incidence index."""
    facets = cx.facets
    for v in cx.vertices:
        star = tuple(f for f in facets if v in f)
        for s, rest in _judged(table, _link_splits, v, star):
            if not any(map(s.issubset, facets)):
                yield v, s, rest


def flip_candidates(cx: Complex) -> Iterator[Tuple[Simplex, Simplex]]:
    """Faces A of dimension >= 1 with link the boundary of a missing
    simplex B, as (A, B); requires a pure complex.  Ordered by (dim A,
    labels).  A vertex flip is the weld (v, B), which ``weld_candidates``
    yields."""
    yield from _flips(cx, range(1, cx.dim + 1), {})


def _flips(cx: Complex, dims: Iterable[int], table: dict) -> Iterator[Tuple[Simplex, Simplex]]:
    """The flips (A, B) with dim A in dims, in that order, then by
    labels; the link conditions come from ``table``."""
    for k in dims:
        for a in cx.faces(k):
            b = _flip_partner(cx, a, table)
            if b is not None:
                yield (a, b)


def _flip_partner(cx: Complex, a: Simplex, table: dict) -> Optional[Simplex]:
    if len(a) == cx.dim + 1:
        # a is a facet; its flip is the cone subdivision, partner is a itself
        return a
    b = _judged(table, _link_sphere, a, cx.facets_containing(a))
    if b is None or cx.has_face(b):
        return None
    return b


def _link_sphere(a: Simplex, star: Iterable[Simplex]) -> Optional[Simplex]:
    """The simplex b when link(a) is the boundary of b, given the
    facets of the star of a; otherwise None."""
    link_facets = {f - a for f in star}
    b = frozenset().union(*link_facets)
    # the weld condition with L empty
    if _link_factor(link_facets, b) != {frozenset()}:
        return None
    return b


def apply_flip(cx: Complex, a: Simplex, b: Simplex) -> Tuple[Complex, List[StellarMove]]:
    """Exchange the face a (dimension >= 1) for b across the sphere
    (boundary a)*(boundary b), emitted as one or two stellar moves.
    (a, b) must be a flip of cx, as ``flip_candidates`` yields it.  The
    subdivision at a gives the fresh vertex the link (boundary a) *
    (boundary b), so the weld with b has L = boundary of a and its link
    is not judged again."""
    fresh = cx.vertices[-1] + 1
    mid = stellar_subdivide(cx, a)
    if len(a) == cx.dim + 1:
        return mid, [StellarMove("S", tuple(sorted(a)), fresh)]
    return _weld(mid, fresh, b, [a - {u} for u in a]), [
        StellarMove("S", tuple(sorted(a)), fresh),
        StellarMove("W", tuple(sorted(b)), fresh),
    ]


# -- certificates ------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A replayable equivalence witness: stellar moves followed by one
    relabeling (images of the final vertices in ascending order)."""

    moves: Tuple[StellarMove, ...]
    relabel: Tuple[int, ...] = ()


def format_certificate(cert: Certificate) -> str:
    lines = []
    for m in cert.moves:
        if m.kind == "S":
            lines.append("S " + " ".join(str(v) for v in m.simplex))
        else:
            lines.append(
                "W " + str(m.vertex) + " " + " ".join(str(v) for v in m.simplex)
            )
    if cert.relabel:
        lines.append("P " + " ".join(str(v) for v in cert.relabel))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_certificate(text: str) -> Certificate:
    moves: List[StellarMove] = []
    relabel: Tuple[int, ...] = ()
    for ln, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        try:
            if parts[0] == "S":
                moves.append(StellarMove("S", tuple(int(x) for x in parts[1:]), -1))
            elif parts[0] == "W":
                moves.append(
                    StellarMove("W", tuple(int(x) for x in parts[2:]), int(parts[1]))
                )
            elif parts[0] == "P":
                relabel = tuple(int(x) for x in parts[1:])
            else:
                raise ValueError(f"unknown line tag {parts[0]!r}")
        except (ValueError, IndexError) as e:
            raise ValueError(f"certificate line {ln}: {e}") from None
    return Certificate(tuple(moves), relabel)


def apply_certificate(cx: Complex, cert: Certificate) -> Complex:
    """Replay the moves (fresh labels always max+1), then relabel."""
    state = cx
    for m in cert.moves:
        if m.kind == "S":
            state = stellar_subdivide(state, m.simplex)
        else:
            state = stellar_weld(state, m.vertex, m.simplex)
    if cert.relabel:
        verts = state.vertices
        if len(cert.relabel) != len(verts):
            raise InvalidComplexError("relabel line has wrong length")
        state = state.relabeled(dict(zip(verts, cert.relabel)))
    return state


# -- greedy reduction --------------------------------------------------


def _reducing_flip(cx: Complex, table: dict) -> Optional[Tuple[Simplex, Simplex]]:
    """First flip that strictly lowers the facet count: dim A below
    half the dimension (welds are the dim-0 case, found separately)."""
    return next(_flips(cx, range(1, (cx.dim + 1) // 2), table), None)


_PLATEAU_DEPTH = 3


def _escape_plateau(
    state: Complex, budget: vd.Budget, moves_out: List[StellarMove], table: dict
) -> Optional[Complex]:
    """Search up to _PLATEAU_DEPTH facet-count-preserving flips deep
    for a state where the descent can continue; returns that smaller
    state (with the connecting moves appended) or None.  The flips
    that keep the facet count have 2 * dim A = d, so only a positive
    even dimension d has any.  Link conditions come from ``table``."""
    d = state.dim
    if d <= 0 or d % 2:
        return None
    seen = IsoIndex()
    seen.add(state)
    frontier: List[Tuple[Complex, List[StellarMove]]] = [(state, [])]
    for _ in range(_PLATEAU_DEPTH):
        nxt: List[Tuple[Complex, List[StellarMove]]] = []
        for cur, path in frontier:
            for a, b in _flips(cur, [d // 2], table):
                if not budget.spend():
                    return None
                cand, recs = apply_flip(cur, a, b)
                if not seen.add(cand)[1]:
                    continue
                if (next(_welds(cand, table), None) is not None
                        or _reducing_flip(cand, table) is not None):
                    moves_out.extend(path + recs)
                    return cand
                nxt.append((cand, path + recs))
        frontier = nxt
        if not frontier:
            break
    return None


def reduce_with_trace(
    cx: Complex, budget: vd.Budget
) -> Tuple[Complex, List[StellarMove]]:
    """Monotone descent as far as the budget allows: apply the first
    weld, else the first facet-count-reducing flip, else escape the
    plateau through sideways flips; returns the reduced state and the
    move trace.  The descent stops at the boundary of a simplex: every
    weld's s and every flip's B has at most d + 1 vertices, all of them
    a face there.  Every link condition is judged once per descent, in
    a star-keyed table (see the module docstring); each state judges
    only whether s or B is a face, and a weld is built from the factor
    L the table holds."""
    table: dict = {}
    state = cx
    moves: List[StellarMove] = []
    while not budget.exhausted and not _is_simplex_boundary(state):
        weld = next(_welds(state, table), None)
        if weld is not None:
            v, s, rest = weld
            state = _weld(state, v, s, rest)
            moves.append(StellarMove("W", tuple(sorted(s)), v))
            budget.spend()
            continue
        flip = _reducing_flip(state, table)
        if flip is not None:
            state, recs = apply_flip(state, *flip)
            moves.extend(recs)
            budget.spend()
            continue
        # the escape spends its own budget, one unit per sideways flip
        jumped = _escape_plateau(state, budget, moves, table)
        if jumped is None:
            break
        state = jumped
    return state, moves


# -- the equivalence search --------------------------------------------


def _count_obstruction(a: Complex, b: Complex) -> Optional[Tuple[str, dict]]:
    if a.dim != b.dim:
        return ("dimension-mismatch", {"left": a.dim, "right": b.dim})
    ea, eb = a.euler_characteristic(), b.euler_characteristic()
    if ea != eb:
        return ("euler-mismatch", {"left": ea, "right": eb})
    return None


def _invariant_obstruction(a: Complex, b: Complex) -> Optional[Tuple[str, dict]]:
    ha, hb = homology(a), homology(b)
    if ha != hb:
        return ("homology-mismatch", {"left": ha.to_json(), "right": hb.to_json()})
    try:
        oa, ob = a.is_orientable(), b.is_orientable()
    except InvalidComplexError:
        oa = ob = None
    if oa is not None and oa != ob:
        return ("orientability-mismatch", {"left": oa, "right": ob})
    return None


def _stitch_certificate(
    a_moves: List[StellarMove],
    a_end: Complex,
    b_moves: List[StellarMove],
    b_start: Complex,
    psi: Dict[int, int],
) -> Certificate:
    """Assemble A -> ... -> a_end, then the inverse of b_moves mapped
    through psi (a_end labels -> B-lineage labels), ending exactly at
    b_start; the final relabel line carries the leftover bijection.

    ``inv`` maps B-lineage labels to replay labels and stays a bijection
    move by move; fresh replay labels follow the max+1 convention, so
    the emitted lines replay verbatim."""
    state, lines = a_end, []
    inv = {w: r for r, w in psi.items()}
    for m in reversed(b_moves):
        s = frozenset(inv[x] for x in m.simplex)
        if m.kind == "S":
            # the move created m.vertex; welding it away undoes it
            v = inv.pop(m.vertex)
            state = stellar_weld(state, v, s)
            lines.append(StellarMove("W", tuple(sorted(s)), v))
        else:
            fresh = state.vertices[-1] + 1
            state = stellar_subdivide(state, s)
            inv[m.vertex] = fresh
            lines.append(StellarMove("S", tuple(sorted(s)), fresh))
    phi = {r: w for w, r in inv.items()}
    relabel = tuple(phi[v] for v in state.vertices)
    check = state.relabeled(dict(zip(state.vertices, relabel)))
    if check != b_start:
        raise AssertionError("certificate stitching lost the target")
    return Certificate(tuple(a_moves) + tuple(lines), relabel)


def _neighbors_for_meet(cx: Complex, cap: int,
                        table: dict) -> Iterator[Tuple[Complex, List[StellarMove]]]:
    for v, s, rest in _welds(cx, table):
        yield _weld(cx, v, s, rest), [StellarMove("W", tuple(sorted(s)), v)]
    for a, b in _flips(cx, range(1, cx.dim + 1), table):
        if len(cx.facets) + 2 * len(a) - 2 - cx.dim <= cap:
            yield apply_flip(cx, a, b)


def search_equivalence(a: Complex, b: Complex, budget: int) -> vd.Verdict:
    """Are two complexes connected by stellar moves?

    yes      witness: a Certificate replaying from the first input to
             the second, exactly
    no       an invariant preserved by the moves differs
    unknown  search space exhausted the budget

    Certificate-first: the dimension and Euler number are compared,
    then ``descend`` runs and its yes is returned as it stands (stellar
    moves keep the PL type, so a certified pair has equal invariants).
    Only an unsettled descent compares homology and orientability
    before ``meet`` runs on the rest of the budget.  Deterministic
    throughout; the budget counts generated states.
    """
    obstruction = _count_obstruction(a, b)
    if obstruction is None:
        descent = descend(a, b, budget)
        if descent.verdict is not None:
            return descent.verdict
        obstruction = _invariant_obstruction(a, b)
        if obstruction is None:
            return meet(a, b, descent)
    reason, detail = obstruction
    return vd.no(reason, detail=detail)


class Descent(NamedTuple):
    """Where ``descend`` left a search: its yes when isomorphism of the
    inputs or of their reduced forms settled it, otherwise the budget
    and both reduced states with the moves that reached them."""

    verdict: Optional[vd.Verdict]
    budget: Optional[vd.Budget] = None
    a_red: Optional[Complex] = None
    a_moves: Optional[List[StellarMove]] = None
    b_red: Optional[Complex] = None
    b_moves: Optional[List[StellarMove]] = None


def descend(a: Complex, b: Complex, budget: int) -> Descent:
    """The first stage of a search: test the inputs for isomorphism,
    reduce both sides by monotone descent on half the budget each, and
    compare the reduced forms.  Checks no invariant."""
    before = isomorphism(a, b)
    if before is not None:
        relabel = tuple(before[v] for v in a.vertices)
        return Descent(vd.yes(witness=Certificate((), relabel)))
    a_budget, b_budget = vd.Budget(budget // 2), vd.Budget(budget // 2)
    a_red, a_moves = reduce_with_trace(a, a_budget)
    b_red, b_moves = reduce_with_trace(b, b_budget)
    total = vd.Budget(budget)
    total.spend(a_budget.used + b_budget.used)
    psi = isomorphism(a_red, b_red)
    found = None
    if psi is not None:
        found = vd.yes(witness=_stitch_certificate(a_moves, a_red, b_moves, b, psi))
    return Descent(found, total, a_red, a_moves, b_red, b_moves)


def meet(a: Complex, b: Complex, descent: Descent) -> vd.Verdict:
    """The second stage of a search: a bounded two-sided search between
    the reduced forms of an unsettled ``descend``, on what is left of
    its budget.  Each side keeps its classes, the path to each class's
    first member, and a frontier of classes; each round expands the
    smaller nonempty frontier, the first side's on a tie."""
    _, total, a_red, a_moves, b_red, b_moves = descent
    cap = max(len(a_red.facets), len(b_red.facets)) + a.dim + 1
    table: dict = {}
    sides = [[IsoIndex(), [[]], [0]] for _ in range(2)]
    for side, red in zip(sides, (a_red, b_red)):
        side[0].add(red)
    while not total.exhausted:
        ours = min((side for side in sides if side[2]), key=lambda side: len(side[2]),
                   default=None)
        if ours is None:
            return vd.unknown("search-exhausted", detail={"states": total.used})
        theirs = sides[1] if ours is sides[0] else sides[0]
        (seen, paths, frontier), (their_seen, their_paths, _) = ours, theirs
        ours[2] = []
        for i in frontier:
            for nxt, recs in _neighbors_for_meet(seen.members[i], cap, table):
                if not total.spend():
                    return vd.unknown(detail={"states": total.used})
                j, new = seen.add(nxt)
                if not new:
                    continue
                paths.append(paths[i] + recs)
                ours[2].append(j)
                hit = their_seen.find(nxt)
                if hit is not None:
                    # the first member of the class on the other side
                    ends = [(nxt, paths[j]), (their_seen.members[hit], their_paths[hit])]
                    if ours is sides[1]:
                        ends.reverse()
                    (a_end, a_path), (b_end, b_path) = ends
                    meet_psi = isomorphism(a_end, b_end)
                    if meet_psi is None:
                        raise AssertionError("meet found no isomorphism in one class")
                    return vd.yes(witness=_stitch_certificate(
                        a_moves + a_path, a_end, b_moves + b_path, b, meet_psi))
    return vd.unknown(detail={"states": total.used})
