"""Slow, independent reference implementations used to freeze expected
values.  Everything here favors obviousness over speed and is only run
on tiny inputs."""

import bisect
import collections
import itertools
import math
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from plmarkov import surgery
from plmarkov import verdict as vd
from plmarkov.builders import (connected_sum, cone, ordered_product,
                               ordered_product_with_chart, presentation_complex,
                               reference_manifold, simplex_sphere, standard_simplex,
                               staircase, suspension)
from plmarkov.cli import _TOKEN, ExpressionError
from plmarkov.complex_core import (Complex, InvalidComplexError, IsoIndex, Simplex,
                                   _orbit_representatives, as_simplex, isomorphism)
from plmarkov.groups import (AbelianGroup, FinitePresentation, Word, _substitute,
                             abelianization, cyclic_reduce, free_reduce, inverse_word,
                             parse_presentation)
from plmarkov.invariants import (HomologyGroup, HomologyProfile, Row, boundary_matrix,
                                 homology, smith_diagonal)
from plmarkov.recognition import is_combinatorial_sphere
from plmarkov.stellar_moves import (StellarMove, _judged, _link_splits,
                                    _stitch_certificate, apply_flip, descend,
                                    flip_candidates, meet, search_equivalence,
                                    stellar_subdivide, stellar_weld,
                                    subdivision_candidates, weld_candidates, weld_parts)
from plmarkov.surgery import (_SEARCH_BUDGET, Tube, _chart_bands, _coface_index, _oriented,
                              chunk, lateral_cells, staircase_cap)


def iso_exhaustive(a: Complex, b: Complex, max_vertices: int = 8) -> bool:
    """Isomorphism by trying every vertex bijection."""
    va, vb = a.vertices, b.vertices
    if len(va) != len(vb) or len(a.facets) != len(b.facets):
        return False
    if len(va) > max_vertices:
        raise ValueError("oracle restricted to small complexes")
    target = set(b.facets)
    for perm in itertools.permutations(vb):
        m = dict(zip(va, perm))
        if {frozenset(m[v] for v in f) for f in a.facets} == target:
            return True
    return False


def orientable_exhaustive(cx: Complex, max_facets: int = 12) -> bool:
    """Orientability by trying every sign assignment to the facets."""
    facets = list(cx.facets)
    if len(facets) > max_facets:
        raise ValueError("oracle restricted to small complexes")
    ridge_pairs = []
    seen = {}
    for i, f in enumerate(facets):
        fl = sorted(f)
        for pos, v in enumerate(fl):
            r = f - {v}
            if r in seen:
                ridge_pairs.append((seen[r], (i, pos)))
            else:
                seen[r] = (i, pos)
    for signs in itertools.product((1, -1), repeat=len(facets)):
        ok = True
        for (i, pi), (j, pj) in ridge_pairs:
            if signs[i] * (-1) ** pi != -signs[j] * (-1) ** pj:
                ok = False
                break
        if ok:
            return True
    return False


def faces_by_dim_key_sorted(cx: Complex) -> Dict[int, Tuple[Simplex, ...]]:
    """The face table as the former ``Complex.faces_by_dim`` built it
    before the tuple face table: every face of every facet as a
    frozenset, sorted per dimension under the facet sort key (size, then
    ascending labels)."""
    table: Dict[int, set] = {}
    for f in cx.facets:
        fl = sorted(f)
        for k in range(1, len(fl) + 1):
            bucket = table.setdefault(k - 1, set())
            for c in itertools.combinations(fl, k):
                bucket.add(frozenset(c))
    return {k: tuple(sorted(v, key=lambda f: (len(f), tuple(sorted(f)))))
            for k, v in sorted(table.items())}


def betti_over_rationals(cx: Complex) -> list:
    """Rational Betti numbers from boundary-matrix ranks via exact
    Gaussian elimination over the rationals (no torsion information)."""
    faces = faces_by_dim_key_sorted(cx)
    dims = sorted(faces)
    index = {d: {f: i for i, f in enumerate(faces[d])} for d in dims}

    def boundary_matrix(d):
        # rows: (d-1)-faces, columns: d-faces
        rows = len(faces.get(d - 1, ()))
        cols = len(faces.get(d, ()))
        mat = [[Fraction(0)] * cols for _ in range(rows)]
        for j, f in enumerate(faces.get(d, ())):
            fl = sorted(f)
            for pos, v in enumerate(fl):
                r = f - {v}
                mat[index[d - 1][r]][j] = Fraction((-1) ** pos)
        return mat

    def rank(mat):
        if not mat or not mat[0]:
            return 0
        mat = [row[:] for row in mat]
        nrows, ncols = len(mat), len(mat[0])
        r = 0
        for c in range(ncols):
            piv = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            inv = 1 / mat[r][c]
            mat[r] = [x * inv for x in mat[r]]
            for i in range(nrows):
                if i != r and mat[i][c] != 0:
                    f = mat[i][c]
                    mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
            r += 1
            if r == nrows:
                break
        return r

    top = cx.dim
    ranks = {d: rank(boundary_matrix(d)) for d in range(1, top + 1)}
    ranks[0] = 0
    ranks[top + 1] = 0
    betti = []
    for d in range(top + 1):
        nd = len(faces.get(d, ()))
        betti.append(nd - ranks[d] - ranks[d + 1])
    return betti


def snf_diagonal_via_minor_gcds(mat: list, max_dim: int = 5) -> list:
    """Diagonal of the integer normal form from gcds of k x k minors.

    d_k = g_k / g_{k-1} where g_k is the gcd of all k x k minors; this
    is the classical determinantal characterization, practical only for
    very small matrices.
    """
    import math

    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    if max(nrows, ncols) > max_dim:
        raise ValueError("oracle restricted to tiny matrices")

    def det(sub):
        n = len(sub)
        if n == 0:
            return 1
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            if sub[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    diag = []
    prev_g = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rows in itertools.combinations(range(nrows), k):
            for cols in itertools.combinations(range(ncols), k):
                sub = [[mat[i][j] for j in cols] for i in rows]
                g = math.gcd(g, abs(det(sub)))
        if g == 0:
            break
        diag.append(g // prev_g)
        prev_g = g
    return diag


def has_face_linear(cx: Complex, s) -> bool:
    """Face test by scanning every facet."""
    s = frozenset(s)
    return any(s <= f for f in cx.facets)


def facets_containing_linear(cx: Complex, s) -> tuple:
    """Facets containing s, in facet order, by scanning every facet."""
    s = frozenset(s)
    return tuple(f for f in cx.facets if s <= f)


def weld_parts_linear(cx: Complex, vertex: int, s):
    """Legality of welding (vertex, s) straight from the definition:
    s is not a face and link(vertex) = (boundary of s) * L.  Returns the
    facets of L, sorted, or None."""
    s = frozenset(s)
    if len(s) < 2 or has_face_linear(cx, s):
        return None
    link_facets = {f - {vertex} for f in facets_containing_linear(cx, [vertex])}
    if not link_facets:
        return None
    rest = set()
    for f in link_facets:
        if len(s - f) != 1:
            return None
        rest.add(f - s)
    if {(s - {w}) | t for w in s for t in rest} != link_facets:
        return None
    return sorted(rest, key=lambda t: tuple(sorted(t)))


def weld_candidates_linear(cx: Complex) -> list:
    """Every legal weld in the enumeration order of
    ``weld_candidates``: per vertex, s is a nonempty subset of the first
    link facet plus one link vertex outside it, and each candidate is
    judged by ``weld_parts_linear`` on its own."""
    return list(_welds_linear(cx))


def _welds_linear(cx: Complex) -> Iterator[Tuple[int, Simplex]]:
    for v in cx.vertices:
        link_facets = sorted(
            {f - {v} for f in facets_containing_linear(cx, [v])},
            key=lambda t: tuple(sorted(t)),
        )
        if not link_facets or not link_facets[0]:
            continue
        f0 = sorted(link_facets[0])
        outside = sorted(set().union(*link_facets) - set(f0))
        for w in outside:
            for k in range(1, len(f0) + 1):
                for a in itertools.combinations(f0, k):
                    s = frozenset(a) | {w}
                    if weld_parts_linear(cx, v, s) is not None:
                        yield (v, s)


def canonical_pair_unpruned(cx: Complex):
    """The canonical form and the old-label -> canonical-label map by the
    unpruned search: every seed facet, every colour-respecting ordering
    of it, and every greedy extension are labelled in full, and the first
    leaf reaching the smallest facet-list encoding wins."""
    if not cx.facets:
        return cx, {}
    color = refinement_colors_per_incidence(cx)
    facets = cx.facets
    at = cx._incidence()
    profiles = {}
    for f in facets:
        profiles.setdefault(tuple(sorted(color[v] for v in f)), []).append(f)
    seed_profile = min(profiles, key=lambda p: (len(profiles[p]), p))
    best_enc = None
    best_lab = None
    for f0 in profiles[seed_profile]:
        for order in _color_respecting_orderings(f0, color):
            for lab in _greedy_labelings(cx, order, color, at):
                enc = tuple(
                    sorted(tuple(sorted(lab[v] for v in f)) for f in facets)
                )
                if best_enc is None or enc < best_enc:
                    best_enc = enc
                    best_lab = lab
    canon = Complex._from_trusted(frozenset(f) for f in best_enc)
    return canon, dict(best_lab)


def refinement_colors_per_incidence(cx: Complex) -> dict:
    """Iterated neighborhood refinement with every facet's colour profile
    sorted anew for each vertex it contains."""
    verts = cx.vertices
    at = cx._incidence()

    def dense_ranks(key):
        ranks = {k: i for i, k in enumerate(sorted(set(key.values())))}
        return {v: ranks[key[v]] for v in key}

    color = dense_ranks({v: tuple(sorted(len(f) for f in at[v])) for v in verts})
    ncolors = len(set(color.values()))
    for _ in range(len(verts)):
        key = {
            v: (
                color[v],
                tuple(
                    sorted(
                        (len(f), tuple(sorted(color[u] for u in f)))
                        for f in at[v]
                    )
                ),
            )
            for v in verts
        }
        color = dense_ranks(key)
        n2 = len(set(color.values()))
        if n2 == ncolors:
            break
        ncolors = n2
    return color


def _color_respecting_orderings(facet, color):
    """Orderings of a facet's vertices, ascending by color class, all
    permutations inside each class."""
    groups = {}
    for v in facet:
        groups.setdefault(color[v], []).append(v)
    parts = [sorted(groups[c]) for c in sorted(groups)]
    for perm_combo in itertools.product(
        *[itertools.permutations(p) for p in parts]
    ):
        yield tuple(itertools.chain.from_iterable(perm_combo))


def _greedy_labelings(cx, seed_order, color, at):
    """Extend a seed ordering to full labelings, branching on ties.

    The next label always goes to an unlabeled vertex minimizing
    (no labeled neighbor?, sorted labeled-part profile of its facets,
    color).  Vertices that remain tied under that key are genuinely
    interchangeable at this point, so each is tried.
    """
    n = len(cx.vertices)
    lab = {v: i for i, v in enumerate(seed_order)}

    def extend(lab):
        if len(lab) == n:
            yield lab
            return
        best_key = None
        best_vs = []
        for v in cx.vertices:
            if v in lab:
                continue
            prof = tuple(
                sorted(
                    tuple(sorted(lab[u] for u in f if u in lab))
                    for f in at[v]
                    if any(u in lab for u in f)
                )
            )
            k = (0 if prof else 1, prof, color[v])
            if best_key is None or k < best_key:
                best_key = k
                best_vs = [v]
            elif k == best_key:
                best_vs.append(v)
        nxt = len(lab)
        for v in best_vs:
            child = dict(lab)
            child[v] = nxt
            yield from extend(child)

    yield from extend(lab)


def subcomplex_classes_exhaustive(cx: Complex, max_faces: int = 10) -> int:
    """Number of isomorphism classes of nonempty subcomplexes, by
    enumerating every downward-closed nonempty face subset."""
    faces = list(cx.faces())
    if len(faces) > max_faces:
        raise ValueError("oracle restricted to small complexes")
    classes = []
    n = len(faces)
    for mask in range(1, 1 << n):
        chosen = [faces[i] for i in range(n) if mask & (1 << i)]
        chosen_set = set(chosen)
        # downward closure inside the ambient face set
        closed = all(
            frozenset(sub) in chosen_set
            for f in chosen
            for k in range(1, len(f))
            for sub in itertools.combinations(sorted(f), k)
        )
        if not closed:
            continue
        sub = Complex.generated_by(chosen)
        if not any(iso_exhaustive(sub, rep) for rep in classes):
            classes.append(sub)
    return len(classes)


def is_connected(cx: Complex) -> bool:
    """Vertices connected through shared facets."""
    vs = cx.vertices
    if len(vs) <= 1:
        return True
    adj: Dict[int, set] = {v: set() for v in vs}
    for f in cx.facets:
        fl = sorted(f)
        for a, b in zip(fl, fl[1:]):
            adj[a].add(b)
            adj[b].add(a)
        # chain is enough: a facet is a clique, connectivity survives
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def two_sphere_triangulations(max_facets: int):
    """Every triangulated 2-sphere with at most max_facets facets, up
    to isomorphism, by brute force over labeled triangle sets.

    A closed surface triangulation has 3F = 2E and chi = V - E + F, so
    chi = 2 pins V = 2 + F/2; candidates are facet subsets of the
    complete 3-uniform hypergraph on that many labels, kept when every
    edge lies in exactly two triangles, every vertex link is a single
    cycle, and the complex is connected.
    """
    reps = []
    for nf in range(4, max_facets + 1, 2):
        nv = 2 + nf // 2
        labels = range(nv)
        triangles = [frozenset(t) for t in itertools.combinations(labels, 3)]
        for chosen in itertools.combinations(triangles, nf):
            edge_count = {}
            for t in chosen:
                for e in itertools.combinations(sorted(t), 2):
                    edge_count[e] = edge_count.get(e, 0) + 1
            if any(c != 2 for c in edge_count.values()):
                continue
            if len(edge_count) != 3 * nf // 2:
                continue
            used = set()
            for t in chosen:
                used |= t
            if len(used) != nv:
                continue
            cx = Complex(chosen)
            if not is_connected(cx):
                continue
            link_ok = True
            for v in used:
                lk = cx.link([v])
                degs = {}
                for f in lk.facets:
                    for w in f:
                        degs[w] = degs.get(w, 0) + 1
                if any(d != 2 for d in degs.values()) or not is_connected(lk):
                    link_ok = False
                    break
            if not link_ok:
                continue
            if not any(iso_exhaustive(cx, r) for r in reps):
                reps.append(cx)
    return reps


def mod2_triangle_boundary(cx: Complex, cycle_edges) -> bool:
    """Is the given edge set a mod-2 sum of triangle boundaries?

    Gaussian elimination over GF(2) with edges as coordinates; rows
    are the boundaries of the 2-faces.
    """
    edges = sorted({e for f in cx.faces() if len(f) == 2
                    for e in [tuple(sorted(f))]})
    index = {e: i for i, e in enumerate(edges)}
    pivots = {}

    def reduce(vec):
        while vec:
            low = (vec & -vec).bit_length() - 1
            if low not in pivots:
                return vec, low
            vec ^= pivots[low]
        return 0, -1

    for f in cx.faces():
        if len(f) != 3:
            continue
        vec = 0
        for e in itertools.combinations(sorted(f), 2):
            vec |= 1 << index[e]
        vec, low = reduce(vec)
        if vec:
            pivots[low] = vec
    target = 0
    for e in cycle_edges:
        target |= 1 << index[tuple(sorted(e))]
    reduced, _ = reduce(target)
    return reduced == 0


# -- Tietze simplification --------------------------------------------


def _order(r: Word) -> Tuple[int, Word]:
    return len(r), r


def _drop_generator(relators: List[Word], gen: int, num: int) -> Tuple[List[Word], int]:
    """Renumber generators after deleting ``gen`` (which no relator uses)."""

    def renum(x: int) -> int:
        a = abs(x)
        a2 = a - 1 if a > gen else a
        return a2 if x > 0 else -a2

    return [tuple(renum(x) for x in r) for r in relators], num - 1


def tietze_simplify_reference(
    p: FinitePresentation, budget: int = 10000
) -> Tuple[FinitePresentation, List[str]]:
    """Reference for ``groups.tietze_simplify``: the same deterministic
    greedy simplification, renumbering the generators after every
    elimination and rewriting every relator on every move.

    Moves, in scan priority: discard empty and duplicate relators;
    cyclically reduce; eliminate a generator that occurs exactly once in
    some relator (shortest relator first); shorten a relator using
    another whose content overlaps more than half of it.  The budget
    counts applied moves.  The abelianization is recomputed and compared
    at the end as a safety net.
    """
    before = abelianization(p)
    relators = [cyclic_reduce(r) for r in p.relators]
    num = p.num_generators
    trace: List[str] = []
    spent = 0

    def dedupe() -> None:
        seen = set()
        out = []
        for r in sorted(relators, key=lambda r: (len(r), r)):
            if not r:
                continue
            key = min(
                min(r[i:] + r[:i] for i in range(len(r))),
                min(
                    inverse_word(r)[i:] + inverse_word(r)[:i]
                    for i in range(len(r))
                ),
            )
            if key in seen:
                continue
            seen.add(key)
            out.append(r)
        relators[:] = out

    dedupe()
    while spent < budget:
        # 1) a generator occurring exactly once in some relator can be
        #    solved for and removed
        move = None
        for r in sorted(relators, key=lambda r: (len(r), r)):
            counts: Dict[int, int] = {}
            for x in r:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            for g in sorted(counts):
                if counts[g] == 1:
                    move = (r, g)
                    break
            if move:
                break
        if move:
            r, g = move
            i = next(j for j, x in enumerate(r) if abs(x) == g)
            # r = u g v  =>  g = u^-1 v^-1 ; r = u g^-1 v => g = v u
            u, x, v = r[:i], r[i], r[i + 1 :]
            if x > 0:
                image = free_reduce(inverse_word(u) + inverse_word(v))
            else:
                image = free_reduce(v + u)
            relators.remove(r)
            relators[:] = [
                cyclic_reduce(_substitute(w, g, image)) for w in relators
            ]
            relators[:], num = _drop_generator(relators, g, num)
            dedupe()
            trace.append(f"eliminate generator {g} using relator of length {len(r)}")
            spent += 1
            continue
        # 2) overlap shortening: rewrite r2 with r1 when over half of r1
        #    appears inside r2
        move = None
        srt = sorted(relators, key=lambda r: (len(r), r))
        for r1 in srt:
            if len(r1) < 2:
                continue
            variants = set()
            for w in (r1, inverse_word(r1)):
                for i in range(len(w)):
                    variants.add(w[i:] + w[:i])
            half = len(r1) // 2 + 1
            for r2 in srt:
                if r2 == r1 or len(r2) < half:
                    continue
                for var in sorted(variants):
                    piece, rest = var[:half], var[half:]
                    for j in range(len(r2) - half + 1):
                        if r2[j : j + half] == piece:
                            new = free_reduce(
                                r2[:j] + inverse_word(rest) + r2[j + half :]
                            )
                            if len(new) < len(r2):
                                move = (r2, cyclic_reduce(new))
                                break
                    if move:
                        break
                if move:
                    break
            if move:
                break
        if move:
            old, new = move
            relators[relators.index(old)] = new
            dedupe()
            trace.append(f"shorten relator {len(old)} -> {len(new)}")
            spent += 1
            continue
        break

    out = FinitePresentation(num, tuple(sorted(relators, key=lambda r: (len(r), r))))
    after = abelianization(out)
    assert after == before, (
        "simplification changed the abelianization"
    )
    return out, trace


def tietze_simplify_scan(
    p: FinitePresentation, budget: int = 10000
) -> Tuple[FinitePresentation, List[str]]:
    """``groups.tietze_simplify`` before its generator -> relators index:
    each elimination scans every relator for the ones holding +-g."""
    before = abelianization(p)
    eliminated: List[int] = []  # original labels, ascending
    trace: List[str] = []
    spent = 0
    relators: List[Word] = []  # sorted by _order, one relator per key
    owner: Dict[Word, Word] = {}  # key -> the relator holding it
    facts: Dict[Word, Tuple[Word, int]] = {}  # word -> (key, least once-generator or 0)

    def fact(r: Word) -> Tuple[Word, int]:
        if r not in facts:
            counts = collections.Counter(map(abs, r))
            facts[r] = (
                min(w[i:] + w[:i] for w in (r, inverse_word(r)) for i in range(len(r))),
                min((g for g, c in counts.items() if c == 1), default=0),
            )
        return facts[r]

    def drop(r: Word) -> None:
        del relators[bisect.bisect_left(relators, _order(r), key=_order)]
        del owner[fact(r)[0]]

    def add(r: Word) -> None:
        if not r:
            return
        held = owner.get(fact(r)[0])
        if held is not None:
            if _order(held) <= _order(r):
                return
            drop(held)
        owner[fact(r)[0]] = r
        bisect.insort(relators, r, key=_order)

    for r in p.relators:
        add(cyclic_reduce(r))
    while spent < budget:
        move = next(((r, fact(r)[1]) for r in relators if fact(r)[1]), None)
        if move:
            r, g = move
            i = next(j for j, x in enumerate(r) if abs(x) == g)
            u, x, v = r[:i], r[i], r[i + 1 :]
            if x > 0:
                image = free_reduce(inverse_word(u) + inverse_word(v))
            else:
                image = free_reduce(v + u)
            drop(r)
            for w in [w for w in relators if g in w or -g in w]:
                drop(w)
                add(cyclic_reduce(_substitute(w, g, image)))
            index = g - bisect.bisect_left(eliminated, g)
            bisect.insort(eliminated, g)
            trace.append(f"eliminate generator {index} using relator of length {len(r)}")
            spent += 1
            continue
        move = None
        for r1 in relators:
            if len(r1) < 2:
                continue
            variants = set()
            for w in (r1, inverse_word(r1)):
                for i in range(len(w)):
                    variants.add(w[i:] + w[:i])
            half = len(r1) // 2 + 1
            for r2 in relators:
                if r2 == r1 or len(r2) < half:
                    continue
                for var in sorted(variants):
                    piece, rest = var[:half], var[half:]
                    for j in range(len(r2) - half + 1):
                        if r2[j : j + half] == piece:
                            new = free_reduce(
                                r2[:j] + inverse_word(rest) + r2[j + half :]
                            )
                            if len(new) < len(r2):
                                move = (r2, cyclic_reduce(new))
                                break
                    if move:
                        break
                if move:
                    break
            if move:
                break
        if move:
            old, new = move
            drop(old)
            add(new)
            trace.append(f"shorten relator {len(old)} -> {len(new)}")
            spent += 1
            continue
        break

    gone = set(eliminated)
    alive = [g for g in range(1, p.num_generators + 1) if g not in gone]
    rank = {g: i for i, g in enumerate(alive, 1)}
    out = FinitePresentation(
        len(rank),
        tuple(tuple(rank[x] if x > 0 else -rank[-x] for x in r) for r in relators),
    )
    if abelianization(out) != before:
        raise AssertionError("simplification changed the abelianization")
    return out, trace


def check_maximal_pairwise(facets) -> None:
    """The old construction check: duplicates first, then every facet
    against every larger facet kept so far, in size-descending order."""
    raw = [as_simplex(f) for f in facets]
    seen = set()
    for f in raw:
        if f in seen:
            raise InvalidComplexError(f"duplicate facet {sorted(f)}")
        seen.add(f)
    # A facet strictly contained in another is not maximal.
    by_size = sorted(raw, key=len, reverse=True)
    kept: List[Simplex] = []
    for f in by_size:
        for g in kept:
            if f < g:
                raise InvalidComplexError(
                    f"facet {sorted(f)} is contained in facet {sorted(g)}"
                )
        kept.append(f)


def ridge_degrees_own_map(cx: Complex) -> Dict[Simplex, int]:
    """The old ``ridge_degrees``, counting into its own map."""
    if not cx.is_pure():
        raise InvalidComplexError("ridge degrees need a pure complex")
    deg: Dict[Simplex, int] = {}
    for f in cx.facets:
        for v in f:
            r = f - {v}
            if r:
                deg[r] = deg.get(r, 0) + 1
    return deg


def is_strongly_connected_own_map(cx: Complex) -> bool:
    """The old ``is_strongly_connected``, with its own ridge map."""
    if not cx.facets:
        return True
    if not cx.is_pure():
        return False
    ridge_to_facets: Dict[Simplex, List[int]] = {}
    for i, f in enumerate(cx.facets):
        for v in f:
            r = f - {v}
            if r:
                ridge_to_facets.setdefault(r, []).append(i)
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for v in cx.facets[i]:
            r = cx.facets[i] - {v}
            for j in ridge_to_facets.get(r, ()):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    return len(seen) == len(cx.facets)


def orientation_own_map(cx: Complex):
    """The old ``orientation``, with its own ridge map."""
    if not cx.is_pure():
        raise InvalidComplexError("orientation needs a pure complex")
    deg = cx.ridge_degrees()
    if any(d > 2 for d in deg.values()):
        raise InvalidComplexError("orientation needs ridge degrees <= 2")
    facets = cx.facets
    ridge_to_facets: Dict[Simplex, List[Simplex]] = {}
    for f in facets:
        for v in f:
            r = f - {v}
            if r:
                ridge_to_facets.setdefault(r, []).append(f)
    sign: Dict[Simplex, int] = {}
    for root in facets:
        if root in sign:
            continue
        sign[root] = 1
        stack = [root]
        while stack:
            f = stack.pop()
            fl = sorted(f)
            for i, v in enumerate(fl):
                r = f - {v}
                side = sign[f] * (-1) ** i
                for g in ridge_to_facets.get(r, ()):
                    if g == f:
                        continue
                    gl = sorted(g)
                    j = gl.index(next(iter(g - r)))
                    # the shared ridge must inherit opposite signs
                    needed = -side * (-1) ** j
                    if g in sign:
                        if sign[g] != needed:
                            return None
                    else:
                        sign[g] = needed
                        stack.append(g)
    return sign


# -- dense boundary and exponent matrices, before sparse rows ----------

def boundary_matrix_dense(cx: Complex, k: int) -> List[List[int]]:
    """Matrix of the k-th boundary operator as a dense list of rows, in
    the bases of sorted k-faces and (k-1)-faces, each simplex oriented
    by ascending labels."""
    faces = faces_by_dim_key_sorted(cx)
    rows_basis = faces.get(k - 1, ())
    cols_basis = faces.get(k, ())
    index = {f: i for i, f in enumerate(rows_basis)}
    mat = [[0] * len(cols_basis) for _ in range(len(rows_basis))]
    for j, f in enumerate(cols_basis):
        fl = sorted(f)
        for pos, v in enumerate(fl):
            r = f - {v}
            mat[index[r]][j] = (-1) ** pos
    return mat


def sparse_rows(dense: Sequence[Sequence[int]]) -> List[List[Tuple[int, int]]]:
    """Each dense row as its (column, value) pairs of nonzero values."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in dense]


def dense_rows(rows, ncols: int) -> List[List[int]]:
    """Sparse (column, value) rows as dense rows of length ``ncols``."""
    mat = [[0] * ncols for _ in rows]
    for out, row in zip(mat, rows):
        for j, v in row:
            out[j] = v
    return mat


def homology_per_degree(cx: Complex) -> HomologyProfile:
    """``invariants.homology`` before it dropped rows across degrees:
    the full boundary matrix in every degree, and no cache."""
    if cx.is_empty:
        return HomologyProfile(())
    top = cx.dim
    faces = faces_by_dim_key_sorted(cx)
    fvec = [len(faces[k]) for k in range(top + 1)]
    snf = {0: [], top + 1: []}
    for k in range(1, top + 1):
        snf[k] = smith_diagonal(boundary_matrix(cx, k))
    return HomologyProfile(tuple(
        HomologyGroup(k, fvec[k] - len(snf[k]) - len(snf[k + 1]),
                      tuple(d for d in snf[k + 1] if d > 1))
        for k in range(top + 1)))


def smith_diagonal_min_key(rows: Sequence[Row], units: Optional[set] = None) -> List[int]:
    """``invariants.smith_diagonal`` before its unit pass got a pivot
    loop and a clear of its own: the unit pivot is picked by ``min`` over
    a generator, and both passes clear through one ``clear_column`` with
    floor division, a copy of the column set and a self-skip test."""
    mat = [{c: v for c, v in row if v} for row in rows]
    at: Dict[int, set] = {}  # column -> rows with an entry there
    for i, row in enumerate(mat):
        for j in row:
            at.setdefault(j, set()).add(i)

    def clear_column(i: int, j: int) -> bool:
        prow = mat[i]
        p = prow[j]
        for k in list(at[j]):
            row = mat[k]
            q = row[j] // p
            if k == i or not q:
                continue
            for c, v in prow.items():
                w = row.get(c, 0) - q * v
                if w:
                    if c not in row:
                        at.setdefault(c, set()).add(k)
                    row[c] = w
                else:
                    del row[c]
                    at[c].discard(k)
        return len(at[j]) == 1

    def drop(i: int) -> None:
        for c in mat[i]:
            at[c].discard(i)
        mat[i] = {}

    ones = 0
    for i, row in enumerate(mat):
        j = min((c for c, v in row.items() if v == 1 or v == -1),
                key=lambda c: len(at[c]), default=None)
        if j is not None:
            clear_column(i, j)
            drop(i)
            ones += 1
            if units is not None:
                units.add(j)
    diag: List[int] = []
    rest = [i for i, row in enumerate(mat) if row]
    while rest:
        _, i, j = min((abs(v), i, j) for i in rest for j, v in mat[i].items())
        prow = mat[i]
        if clear_column(i, j):
            p = prow[j]
            for c in [c for c in prow if c != j]:
                prow[c] %= p
                if not prow[c]:
                    del prow[c]
                    at[c].discard(i)
            if len(prow) == 1:
                diag.append(abs(p))
                drop(i)
        rest = [i for i in rest if mat[i]]
    diag.sort()
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if b % a:
                g = math.gcd(a, b)
                diag[i], diag[j] = g, a // g * b
    diag.sort()
    return [1] * ones + diag


def boundary_matrix_by_slices(cx: Complex, k: int) -> List[Row]:
    """``invariants.boundary_matrix`` before it read faces off
    ``itertools.combinations``: each face of a k-face is a slice of its
    label tuple, position i dropped with sign (-1)^i."""
    faces = cx.face_tuples()
    index = {f: i for i, f in enumerate(faces.get(k - 1, ()))}
    rows: List[Row] = [[] for _ in index]
    for j, f in enumerate(faces.get(k, ())):
        for i in range(len(f)):
            rows[index[f[:i] + f[i + 1:]]].append((j, -1 if i % 2 else 1))
    return rows


def abelianization_dense(p: FinitePresentation) -> AbelianGroup:
    """Abelianization through the dense relators x generators exponent
    matrix and the reference Smith kernel."""
    mat = [[0] * p.num_generators for _ in p.relators]
    for row, r in zip(mat, p.relators):
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
    diag = smith_diagonal_reference(mat)
    return AbelianGroup(p.num_generators - len(diag), tuple(d for d in diag if d > 1))


class _SparseMatrix:
    """Mutable sparse integer matrix addressed by (row, col)."""

    __slots__ = ("rows", "cols")

    def __init__(self):
        self.rows: Dict[int, Dict[int, int]] = {}
        self.cols: Dict[int, set] = {}

    def set(self, i: int, j: int, v: int):
        if v:
            self.rows.setdefault(i, {})[j] = v
            self.cols.setdefault(j, set()).add(i)
        else:
            row = self.rows.get(i)
            if row and j in row:
                del row[j]
                if not row:
                    del self.rows[i]
                self.cols[j].discard(i)
                if not self.cols[j]:
                    del self.cols[j]

    def get(self, i: int, j: int) -> int:
        return self.rows.get(i, {}).get(j, 0)

    def add_multiple_of_row(self, src: int, dst: int, q: int):
        # row_dst += q * row_src
        if not q:
            return
        for j, v in list(self.rows.get(src, {}).items()):
            self.set(dst, j, self.get(dst, j) + q * v)

    def add_multiple_of_col(self, src: int, dst: int, q: int):
        if not q:
            return
        for i in list(self.cols.get(src, ())):
            self.set(i, dst, self.get(i, dst) + q * self.rows[i][src])


def _to_sparse(rows: Sequence[Sequence[int]]) -> _SparseMatrix:
    m = _SparseMatrix()
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                m.set(i, j, v)
    return m


def smith_diagonal_reference(rows: Sequence[Sequence[int]]) -> List[int]:
    """The elimination kernel of ``invariants.smith_diagonal`` before it
    moved to plain row dicts: diagonal of the Smith normal form of an
    integer matrix.

    Returns the nonzero invariant factors d_1 | d_2 | ... as positive
    ints; zero columns/rows contribute nothing.  The input is a dense
    list of rows (possibly empty).
    """
    m = _to_sparse(rows)
    return _smith_of_sparse(m)


def _smith_of_sparse(m: _SparseMatrix) -> List[int]:
    diag: List[int] = []
    # operations only ever empty rows, never create them, so the lowest
    # remaining row is found by walking the initial rows in order
    row_order = sorted(m.rows)
    low = 0
    while m.rows:
        while row_order[low] not in m.rows:
            low += 1
        pi = row_order[low]
        pj = next((j for j, v in m.rows[pi].items() if v == 1 or v == -1), None)
        if pj is not None:
            pv = m.rows[pi][pj]
        else:
            # pivot: smallest |value|, deterministic position tie-break
            pi, pj, pv = None, None, None
            for i in sorted(m.rows):
                for j, v in m.rows[i].items():
                    if pv is None or abs(v) < abs(pv) or (
                        abs(v) == abs(pv) and (i, j) < (pi, pj)
                    ):
                        pi, pj, pv = i, j, v
        # clear the pivot column with row operations
        while True:
            changed = False
            for i in list(m.cols.get(pj, ())):
                if i == pi:
                    continue
                v = m.get(i, pj)
                q = -(v // pv) if pv else 0
                # exact division leaves zero; otherwise a smaller residue
                m.add_multiple_of_row(pi, i, q)
                r = m.get(i, pj)
                if r:
                    # residue became the smaller pivot
                    pi, pv = i, r
                    changed = True
                    break
            if not changed:
                break
        while True:
            changed = False
            for j in list(m.rows.get(pi, {})):
                if j == pj:
                    continue
                v = m.get(pi, j)
                q = -(v // pv)
                m.add_multiple_of_col(pj, j, q)
                r = m.get(pi, j)
                if r:
                    pj, pv = j, r
                    changed = True
                    break
            if not changed:
                break
            # column ops may have refilled the pivot column
            while True:
                refilled = [i for i in m.cols.get(pj, ()) if i != pi]
                if not refilled:
                    break
                for i in refilled:
                    v = m.get(i, pj)
                    q = -(v // pv)
                    m.add_multiple_of_row(pi, i, q)
                    r = m.get(i, pj)
                    if r:
                        pi, pv = i, r
                        break
        # pivot row and column are clear; retire them
        diag.append(abs(pv))
        for j in list(m.rows.get(pi, {})):
            m.set(pi, j, 0)
        for i in list(m.cols.get(pj, ())):
            m.set(i, pj, 0)
    # enforce d_1 | d_2 | ... with pairwise gcd/lcm exchanges
    diag.sort()
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if b % a:
                g = math.gcd(a, b)
                diag[i], diag[j] = g, a // g * b
    diag.sort()
    return diag


# The colour-guided backtracking search that `complex_core.isomorphism`
# ran before it read its map off the canonical forms.

def isomorphism_backtracking(a: Complex, b: Complex) -> Optional[Dict[int, int]]:
    """A vertex bijection carrying the facets of a onto those of b, or
    None.  Backtracking guided by refinement colors: images must share a
    color class and every facet of a must land on a facet of b.
    """
    if a.is_empty and b.is_empty:
        return {}
    if a.is_empty or b.is_empty:
        return None
    if a.f_vector() != b.f_vector():
        return None
    ca = a._refinement_colors()
    cb = b._refinement_colors()
    hist_a: Dict[int, List[int]] = {}
    hist_b: Dict[int, List[int]] = {}
    for v in a.vertices:
        hist_a.setdefault(ca[v], []).append(v)
    for v in b.vertices:
        hist_b.setdefault(cb[v], []).append(v)
    if sorted((c, len(vs)) for c, vs in hist_a.items()) != sorted(
        (c, len(vs)) for c, vs in hist_b.items()
    ):
        return None
    # same refinement ran on both sides, so classes correspond by id
    if set(hist_a) != set(hist_b) or any(
        len(hist_a[c]) != len(hist_b[c]) for c in hist_a
    ):
        return None
    at_a = a._incidence()
    b_facets = set(b.facets)
    # most-constrained first: rare color classes early, then adjacency
    order = sorted(a.vertices, key=lambda v: (len(hist_a[ca[v]]), ca[v], v))
    mapping: Dict[int, int] = {}
    used: set = set()

    def consistent(v: int, w: int) -> bool:
        for f in at_a[v]:
            img = {mapping[u] for u in f if u in mapping}
            img.add(w)
            if len(img) == len([u for u in f if u in mapping]) + 1:
                if not any(img <= g for g in b_facets):
                    return False
                if len(img) == len(f) and frozenset(img) not in b_facets:
                    return False
            else:
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            image = {frozenset(mapping[u] for u in f) for f in a.facets}
            return image == b_facets
        v = order[i]
        for w in hist_b[ca[v]]:
            if w in used:
                continue
            if consistent(v, w):
                mapping[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    if extend(0):
        return dict(mapping)
    return None


# `complex_core.isomorphism` before it matched two boundaries of
# simplices in label order: every pair is read off the canonical forms.

def isomorphism_by_canonical_search(a: Complex, b: Complex) -> Optional[Dict[int, int]]:
    """A vertex bijection carrying the facets of a onto those of b, or
    None: a's canonical labelling followed by the inverse of b's."""
    if a.f_vector() != b.f_vector():
        return None
    if "canonical" in b._cache:
        enc_b, order_b = b._canonical_code()
        enc_a, order_a = a._canonical_code((enc_b,))
    else:
        enc_a, order_a = a._canonical_code()
        enc_b, order_b = b._canonical_code((enc_a,))
    if enc_a != enc_b:
        return None
    return dict(zip(order_a, order_b))


# The weld scan and the sphere check as they ran before the scan pruned
# by link degree and the check ran the descent ahead of homology.

def link_factor_by_expected_set(link_facets: set, s: Simplex) -> Optional[set]:
    """``stellar_moves._link_factor`` before it counted: the facets of L
    when the link facets are exactly the set of (boundary of s) * L,
    built and compared; otherwise None."""
    rest: set = set()
    for f in link_facets:
        miss = s - f
        if len(miss) != 1:
            return None
        rest.add(f - s)
    expected = {(s - {w}) | t for w in s for t in rest}
    if expected != link_facets:
        return None
    return rest


def link_splits_min_first(v: int, star) -> tuple:
    """``stellar_moves._link_splits`` before it read the first link
    facet off the star: the first link facet is the least under the
    sorted-label key."""
    link_set = {f - {v} for f in star}
    f0 = min(link_set, key=lambda t: tuple(sorted(t)))
    if not f0:
        return ()
    n = len(link_set)
    degree = collections.Counter(u for t in link_set for u in t)
    f0l = sorted(f0)
    out = []
    for w in sorted(degree.keys() - f0):
        factor = n - degree[w]
        if n % factor:
            continue
        pool = [u for u in f0l if degree[u] == degree[w]]
        for a in itertools.combinations(pool, n // factor - 1):
            s = frozenset(a) | {w}
            rest = link_factor_by_expected_set(link_set, s)
            if rest is not None:
                out.append((s, rest))
    return tuple(out)


def weld_candidates_unpruned(cx: Complex) -> list:
    """Every legal weld, per vertex: every nonempty subset of the first
    link facet plus one link vertex outside it, link condition first."""
    out = []
    for v in cx.vertices:
        link_set = {f - {v} for f in cx.facets_containing([v])}
        f0 = min(link_set, key=lambda t: tuple(sorted(t)))
        if not f0:
            continue
        outside = sorted(set().union(*link_set) - f0)
        f0l = sorted(f0)
        for w in outside:
            for k in range(1, len(f0l) + 1):
                for a in itertools.combinations(f0l, k):
                    s = frozenset(a) | {w}
                    if (link_factor_by_expected_set(link_set, s) is not None
                            and weld_parts(cx, v, s) is not None):
                        out.append((v, s))
    return out


def search_equivalence_invariants_first(a: Complex, b: Complex, budget: int) -> vd.Verdict:
    """``stellar_moves.search_equivalence`` before it went
    certificate-first: the dimension, Euler number, homology and
    orientability are all compared before ``descend``, so a no spends
    no budget."""
    if a.dim != b.dim:
        return vd.no("dimension-mismatch", detail={"left": a.dim, "right": b.dim})
    if a.euler_characteristic() != b.euler_characteristic():
        return vd.no("euler-mismatch", detail={
            "left": a.euler_characteristic(),
            "right": b.euler_characteristic(),
        })
    ha, hb = homology(a), homology(b)
    if ha != hb:
        return vd.no("homology-mismatch", detail={"left": ha.to_json(), "right": hb.to_json()})
    try:
        oa, ob = a.is_orientable(), b.is_orientable()
    except InvalidComplexError:
        oa = ob = None
    if oa is not None and oa != ob:
        return vd.no("orientability-mismatch", detail={"left": oa, "right": ob})
    descent = descend(a, b, budget)
    if descent.verdict is not None:
        return descent.verdict
    return meet(a, b, descent)


def is_combinatorial_sphere_gates_first(cx: Complex, budget: int = 100000,
                                        dim: Optional[int] = None):
    """Sphere recognition with every invariant gate (Euler number,
    homology, orientability) ahead of the full search."""
    if dim is None:
        dim = cx.dim
    if cx.is_empty:
        return vd.yes() if dim == -1 else vd.no("wrong-dimension")
    if cx.dim != dim:
        return vd.no("wrong-dimension", detail={"have": cx.dim, "want": dim})
    if not cx.is_pure():
        return vd.no("not-pure")
    if dim == 0:
        if len(cx.facets) == 2:
            return vd.yes()
        return vd.no("not-two-points", detail={"points": len(cx.facets)})
    if not cx.is_closed_pseudomanifold():
        return vd.no("not-closed-pseudomanifold")
    ref = simplex_sphere(dim)
    if cx.euler_characteristic() != ref.euler_characteristic():
        return vd.no("euler-mismatch", detail={
            "have": cx.euler_characteristic(),
            "want": ref.euler_characteristic(),
        })
    if homology(cx) != homology(ref):
        return vd.no("homology-mismatch", detail=homology(cx).to_json())
    if not cx.is_orientable():
        return vd.no("non-orientable")
    return search_equivalence(cx, ref, budget)


def is_combinatorial_ball_by_rim(cx: Complex, budget: int = 100000):
    """Ball recognition as ``recognition.is_combinatorial_ball`` ran it
    before the cone closure: Euler and homology gates against the solid
    simplex, the rim checked as a sphere on half the budget, then a
    two-sided search against the solid simplex."""
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
    ref = standard_simplex(cx.dim)
    if cx.euler_characteristic() != 1:
        return vd.no("euler-mismatch", detail={"have": cx.euler_characteristic()})
    if homology(cx) != homology(ref):
        return vd.no("homology-mismatch", detail=homology(cx).to_json())
    half = max(budget // 2, 1)
    rim_verdict = is_combinatorial_sphere(rim, half)
    if rim_verdict.is_no:
        return vd.no("boundary-not-sphere", detail=rim_verdict.reason)
    return search_equivalence(cx, ref, budget)


def derived_subdivision_recursive(cx: Complex) -> Complex:
    """The derived subdivision by a recursive walk down each facet,
    dropping one vertex at a time, with the face labels of
    ``derived_subdivision_raw``."""
    if cx.is_empty:
        return cx
    face_id = {f: i for i, f in enumerate(cx.faces())}
    out: List[Simplex] = []

    def chains(top: Simplex) -> Iterator[Tuple[Simplex, ...]]:
        def go(cur: Simplex, acc: List[Simplex]):
            acc.append(cur)
            if len(cur) == 1:
                yield tuple(acc)
            else:
                for v in sorted(cur):
                    yield from go(cur - {v}, acc)
            acc.pop()

        yield from go(top, [])

    for top in cx.facets:
        for chain in chains(top):
            out.append(frozenset(face_id[f] for f in chain))
    return Complex._from_trusted(set(out))


# -- the stellar kernel before one descent loop and one flip set ---------

def _flip_partner_by_sizes(cx: Complex, a: Simplex) -> Optional[Simplex]:
    cof = cx.facets_containing(a)
    if not cof:
        return None
    d = cx.dim
    if len(a) == d + 1:
        return a
    link_facets = {f - a for f in cof}
    verts = set().union(*link_facets)
    m = len(verts)
    if len(link_facets) != m or any(len(t) != m - 1 for t in link_facets):
        return None
    b = frozenset(verts)
    if {b - {w} for w in b} != link_facets:
        return None
    if cx.has_face(b):
        return None
    return b


def _flips_by_sizes(cx: Complex, dims) -> Iterator[Tuple[Simplex, Simplex]]:
    for k in dims:
        for a in cx.faces(k):
            b = _flip_partner_by_sizes(cx, a)
            if b is not None:
                yield (a, b)


def flip_candidates_with_vertex_flips(cx: Complex) -> Iterator[Tuple[Simplex, Simplex]]:
    """Every face A, vertices included, whose link is the boundary of a
    missing simplex B, as (A, B), ordered by (dim A, labels); the link
    is compared by its size and then facet by facet."""
    if cx.dim >= 1:
        yield from _flips_by_sizes(cx, range(cx.dim + 1))


def _apply_flip_by_moves(cx: Complex, a: Simplex, b: Simplex):
    """A flip as the checked stellar moves it is recorded as."""
    fresh = cx.vertices[-1] + 1
    out = stellar_subdivide(cx, a)
    recs = [StellarMove("S", tuple(sorted(a)), fresh)]
    if len(a) < cx.dim + 1:
        out = stellar_weld(out, fresh, b)
        recs.append(StellarMove("W", tuple(sorted(b)), fresh))
    return out, recs


def _escape_plateau_by_sizes(state: Complex, budget: vd.Budget,
                             moves_out: List[StellarMove]) -> Optional[Complex]:
    """The plateau escape: breadth-first through up to three
    facet-count-preserving flips (2 dim A = d) for a state with a weld
    or a reducing flip."""
    d = state.dim
    if d <= 0 or d % 2:
        return None
    seen = IsoIndex()
    seen.add(state)
    frontier = [(state, [])]
    for _ in range(3):
        nxt = []
        for cur, path in frontier:
            for a, b in _flips_by_sizes(cur, [d // 2]):
                if not budget.spend():
                    return None
                cand, recs = _apply_flip_by_moves(cur, a, b)
                if not seen.add(cand)[1]:
                    continue
                if (next(_welds_linear(cand), None) is not None
                        or next(_flips_by_sizes(cand, range(1, (d + 1) // 2)), None)
                        is not None):
                    moves_out.extend(path + recs)
                    return cand
                nxt.append((cand, path + recs))
        frontier = nxt
    return None


def reduce_with_trace_two_loops(
    cx: Complex, budget: vd.Budget
) -> Tuple[Complex, List[StellarMove]]:
    """The descent as an inner loop of welds and reducing flips, run
    again after each plateau escape by an outer loop.  Every weld and
    flip is judged from scratch in each state (``weld_candidates_linear``,
    ``_flips_by_sizes``) and applied by the checked moves."""

    def simplify(state: Complex, moves_out: List[StellarMove]) -> Complex:
        while not budget.exhausted:
            cand = next(_welds_linear(state), None)
            if cand is not None:
                v, s = cand
                state = stellar_weld(state, v, s)
                moves_out.append(StellarMove("W", tuple(sorted(s)), v))
                budget.spend()
                continue
            flip = next(_flips_by_sizes(state, range(1, (state.dim + 1) // 2)), None)
            if flip is not None:
                state, recs = _apply_flip_by_moves(state, *flip)
                moves_out.extend(recs)
                budget.spend()
                continue
            break
        return state

    moves: List[StellarMove] = []
    state = simplify(cx, moves)
    while not budget.exhausted:
        jumped = _escape_plateau_by_sizes(state, budget, moves)
        if jumped is None:
            break
        state = simplify(jumped, moves)
    return state, moves


# -- the old product, cap and connected-sum constructions --------------


def _monotone_paths(p: int, q: int) -> List[Tuple[Tuple[int, int], ...]]:
    """Lattice paths through a (p+1) x (q+1) grid, as index pairs."""
    paths = []
    for advance_a in itertools.combinations(range(p + q), p):
        path = [(0, 0)]
        i = j = 0
        for step in range(p + q):
            if step in advance_a:
                i += 1
            else:
                j += 1
            path.append((i, j))
        paths.append(tuple(path))
    return paths


def staircase_by_paths(columns, order) -> set:
    """Staircase cells read off the lattice-path enumeration."""
    return {
        frozenset(columns[j][order[i]] for i, j in path)
        for path in _monotone_paths(len(order) - 1, len(columns) - 1)
    }


def ordered_product_with_chart_paths(a: Complex, b: Complex):
    """The old product: one cell per lattice path of each facet pair."""
    if a.is_empty or b.is_empty:
        raise InvalidComplexError("product needs nonempty factors")
    va, vb = a.vertices, b.vertices
    chart = {
        (u, v): i * len(vb) + j
        for i, u in enumerate(va)
        for j, v in enumerate(vb)
    }
    facets = set()
    for fa in a.facets:
        ta = sorted(fa)
        for fb in b.facets:
            tb = sorted(fb)
            for path in _monotone_paths(len(ta) - 1, len(tb) - 1):
                facets.add(
                    frozenset(chart[(ta[i], tb[j])] for i, j in path)
                )
    return Complex._from_trusted(facets), chart


def staircase_two_column(col_a, col_b, order) -> list:
    """The old two-column staircase, cell j switching columns at j."""
    d = len(order)
    out = []
    for j in range(d):
        top = [col_a[s] for s in order[: j + 1]]
        bot = [col_b[s] for s in order[j:]]
        out.append(frozenset(top + bot))
    return out


def staircase_cap_triple_loop(bands, lk: Complex, apex) -> set:
    """The old cap: prefix from a, middle run from b, rest from apex."""
    cells = set()
    for a, b in bands:
        for f in lk.facets:
            order = sorted(f)
            d = len(order)
            for j in range(d):
                for k in range(j, d):
                    cell = (
                        [a[s] for s in order[: j + 1]]
                        + [b[s] for s in order[j : k + 1]]
                        + [apex[s] for s in order[k:]]
                    )
                    cells.add(frozenset(cell))
    return cells


def glue(a: Complex, b: Complex, identify: Dict[int, int]) -> Complex:
    """The old gluing routine: identify b-vertices with a-vertices,
    give the rest fresh labels past both sides, relabel densely."""
    va = set(a.vertices)
    for bv, av in identify.items():
        if bv not in set(b.vertices):
            raise InvalidComplexError(f"{bv} is not a vertex of the second complex")
        if av not in va:
            raise InvalidComplexError(f"{av} is not a vertex of the first complex")
    images = list(identify.values())
    if len(set(images)) != len(images):
        raise InvalidComplexError("identification is not injective")
    nxt = max(a.vertices[-1], b.vertices[-1]) + 1
    mapping: Dict[int, int] = dict(identify)
    for v in b.vertices:
        if v not in mapping:
            mapping[v] = nxt
            nxt += 1
    b2 = b.relabeled(mapping)
    fa, fb = set(a.facets), set(b2.facets)
    for f in fa & fb:
        raise InvalidComplexError(
            f"gluing would identify facet {sorted(f)} of both sides"
        )
    for f in fb:
        if any(f < g for g in fa):
            raise InvalidComplexError(
                f"facet {sorted(f)} would be swallowed by the other side"
            )
    for f in fa:
        if any(f < g for g in fb):
            raise InvalidComplexError(
                f"facet {sorted(f)} would be swallowed by the other side"
            )
    out = Complex._from_trusted(fa | fb)
    return out.relabeled({v: i for i, v in enumerate(out.vertices)})


def connected_sum_by_glue(a: Complex, b: Complex) -> Complex:
    """The old connected sum: smallest facets removed, seams glued by
    ascending labels, the first two images swapped when both sides are
    oriented and the plain map would align the seam orientations."""
    if a.dim != b.dim:
        raise InvalidComplexError("summands must have equal dimension")
    if not a.is_closed_pseudomanifold() or not b.is_closed_pseudomanifold():
        raise InvalidComplexError("connected sum needs closed pseudomanifolds")
    fa = min(a.facets, key=lambda f: tuple(sorted(f)))
    fb = min(b.facets, key=lambda f: tuple(sorted(f)))
    ta, tb = sorted(fa), sorted(fb)
    swap = False
    ori_a, ori_b = a.orientation(), b.orientation()
    if ori_a is not None and ori_b is not None:
        if ori_a[fa] * ori_b[fb] > 0:
            swap = True
    images = list(ta)
    if swap:
        images[0], images[1] = images[1], images[0]
    return glue(Complex._from_trusted(set(a.facets) - {fa}),
                Complex._from_trusted(set(b.facets) - {fb}),
                dict(zip(tb, images)))


# -- the sphere census before it pruned moves by automorphism orbit ----

def move_neighbors_unpruned(cx: Complex, cap: int) -> Iterator[Complex]:
    """Every legal subdivision (by sorted face), then every legal weld,
    each result kept when it has at most cap facets."""
    for s in sorted(subdivision_candidates(cx), key=lambda f: sorted(f)):
        out = stellar_subdivide(cx, s)
        if len(out.facets) <= cap:
            yield out
    for v, s in weld_candidates(cx):
        out = stellar_weld(cx, v, s)
        if len(out.facets) <= cap:
            yield out


def move_neighbors_by_public_scans(cx: Complex, cap: int) -> Iterator[Complex]:
    """The census neighbours of cx, in the order of
    ``markov._move_neighbors``, through the public scans alone: the
    subdivision candidates sorted as label lists, and every weld judged
    again and built by ``stellar_weld``."""
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


def enumerate_spheres_unpruned(n: int, max_facets: int) -> Iterator[str]:
    """The breadth-first census of n-spheres over every neighbour of
    every frontier state, in the order ``markov.enumerate_spheres``
    emits."""
    start = simplex_sphere(n)
    seen = IsoIndex()
    seen.add(start)
    yield start.iso_signature()
    frontier = [start]
    while frontier:
        fresh = []
        for cx in frontier:
            for out in move_neighbors_unpruned(cx, max_facets):
                if seen.add(out)[1]:
                    fresh.append((out.iso_signature(), out))
        fresh.sort(key=lambda p: p[0])
        for sig, _ in fresh:
            yield sig
        frontier = [cx for _, cx in fresh]


def edge_path_presentation_by_combinations(cx: Complex) -> FinitePresentation:
    """The edge-path presentation with its edges read off every facet's
    vertex pairs and connectivity checked by a separate walk."""
    if cx.is_empty:
        raise ValueError("empty complex has no fundamental group")
    if not is_connected(cx):
        raise ValueError("edge-path presentation needs a connected complex")
    verts = cx.vertices
    basepoint = verts[0]
    edges = set()
    for f in cx.facets:
        for a, b in itertools.combinations(sorted(f), 2):
            edges.add((a, b))
    adj: Dict[int, List[int]] = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    parent: Dict[int, int] = {basepoint: basepoint}
    order = [basepoint]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    tree = {tuple(sorted((v, parent[v]))) for v in parent if parent[v] != v}
    chords = sorted(e for e in edges if e not in tree)
    gen_of = {e: i + 1 for i, e in enumerate(chords)}

    def step(a: int, b: int) -> Tuple[int, ...]:
        e = (a, b) if a < b else (b, a)
        if e in tree:
            return ()
        g = gen_of[e]
        return (g,) if (a, b) == e else (-g,)

    relators = []
    for t in cx.faces(2):
        a, b, c = sorted(t)
        w = free_reduce(step(a, b) + step(b, c) + step(c, a))
        if w:
            relators.append(w)
    return FinitePresentation(len(chords), tuple(relators))


def edge_path_presentation_spanning_tree(cx: Complex) -> FinitePresentation:
    """The edge-path presentation relative to a breadth-first spanning
    tree alone: each non-tree edge is a generator and each triangle
    contributes the relator spelled by its three sides."""
    if cx.is_empty:
        raise ValueError("empty complex has no fundamental group")
    verts = cx.vertices
    basepoint = verts[0]
    edges = [tuple(sorted(e)) for e in cx.faces(1)]
    adj: Dict[int, List[int]] = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent: Dict[int, int] = {basepoint: basepoint}
    order = [basepoint]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    if len(order) != len(verts):
        raise ValueError("edge-path presentation needs a connected complex")
    tree = {tuple(sorted((v, parent[v]))) for v in parent if parent[v] != v}
    chords = [e for e in edges if e not in tree]
    gen_of = {e: i + 1 for i, e in enumerate(chords)}

    def step(a: int, b: int) -> Tuple[int, ...]:
        e = (a, b) if a < b else (b, a)
        if e in tree:
            return ()
        g = gen_of[e]
        return (g,) if (a, b) == e else (-g,)

    relators = []
    for t in cx.faces(2):
        a, b, c = sorted(t)
        w = free_reduce(step(a, b) + step(b, c) + step(c, a))
        if w:
            relators.append(w)
    return FinitePresentation(len(chords), tuple(relators))


def edge_path_presentation_collapsed(cx: Complex) -> FinitePresentation:
    """The spanning-tree presentation with the chords that the
    triangles absorb deleted.  Each triangle's relator holds one letter
    per chord side, so a triangle absorbs its last chord side when its
    relator has one letter left after deleting the absorbed chords.
    Naive full passes over every relator run until one absorbs nothing;
    the absorbed chords are then deleted from every relator, each is
    freely reduced, empty ones are dropped and the generators left are
    renumbered in chord order."""
    p = edge_path_presentation_spanning_tree(cx)
    absorbed = set()
    changed = True
    while changed:
        changed = False
        for r in p.relators:
            left = [x for x in r if abs(x) not in absorbed]
            if len(left) == 1:
                absorbed.add(abs(left[0]))
                changed = True
    alive = [g for g in range(1, p.num_generators + 1) if g not in absorbed]
    rank = {g: i for i, g in enumerate(alive, 1)}
    relators = []
    for r in p.relators:
        w = free_reduce(rank[x] if x > 0 else -rank[-x] for x in r if abs(x) in rank)
        if w:
            relators.append(w)
    return FinitePresentation(len(alive), tuple(relators))


# -- surgery caps by three routes ----------------------------------------


def _is_plain_tube(tube) -> bool:
    secs = [lo for lo, hi, flag in tube.edges]
    n = len(secs)
    for i, (lo, hi, flag) in enumerate(tube.edges):
        nxt = secs[(i + 1) % n]
        if any(hi[s] != nxt[s] for s in lo):
            return False
    return True


def _swap_moves_replayed(surface, lk, a, b, o, j):
    """Two bistellar flips trading order positions j, j+1 of a band,
    each replayed on the surface as it is written."""
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


def _untwist_moves_replayed(x0, bands, lk):
    """Scripted certificate, replayed and checked against the plain
    torus as it is written."""
    surface = x0
    moves = []
    for a, b, order in bands:
        o = list(order)
        target = sorted(o)
        rank = {v: t for t, v in enumerate(target)}
        while o != target:
            for j in range(len(o) - 1):
                if rank[o[j]] > rank[o[j + 1]]:
                    surface, mvs = _swap_moves_replayed(surface, lk, a, b, o, j)
                    moves.extend(mvs)
                    o[j], o[j + 1] = o[j + 1], o[j]
                    break
    want = set()
    for a, b, order in bands:
        want |= chunk([a, b], lk.facets)
    if frozenset(surface.facets) != frozenset(want):
        raise ValueError("scripted moves missed the plain torus")
    return moves


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


def shell_cap_full_rebuild(tube, lk, torus, alloc):
    """``surgery.shell_cap`` tracking every face the stack has seen and
    the surface's current faces, rebuilt in ambient labels after each
    move, and layering whenever a shell face has been seen but is not
    current (the shell's own fresh apex excepted)."""
    moves, relabel, bands = surgery._certificate(tube, lk, torus)
    cap = set()
    surface = torus
    amb = {v: v for v in torus.vertices}

    def image():
        return {frozenset(amb[v] for v in f) for f in frozenset(surface.faces())}

    def shell(top, cells):
        return {frozenset({amb[top]} | {amb[v] for v in f}) for f in cells}

    current = frozenset(torus.faces())
    seen = set(current)
    for mv in moves:
        s = frozenset(mv.simplex)
        if mv.kind == "S":
            cells = surface.facets_containing(s)
            if not cells:
                raise ValueError("certificate names a missing face")
            nxt = stellar_subdivide(surface, s)
            top = nxt.vertices[-1]
            amb[top] = alloc()
            fresh = {amb[top]}
        else:
            parts = weld_parts(surface, mv.vertex, s)
            if parts is None:
                raise ValueError("certificate weld is not legal")
            cells = [s | t for t in parts]
            nxt = stellar_weld(surface, mv.vertex, s)
            top, fresh = mv.vertex, set()
        ball = shell(top, cells)
        if _touches_interior(ball, seen, current, fresh):
            layer = {v: alloc() for v in surface.vertices}
            for f in surface.facets:
                cap.update(staircase([amb, layer], sorted(f, key=amb.get)))
            amb.update(layer)
            current = image()
            seen |= current
            ball = shell(top, cells)
        if cap & ball:
            raise ValueError("shell stack collided")
        cap |= ball
        surface = nxt
        current = image()
        seen |= current

    iso = dict(zip(surface.vertices, relabel or surface.vertices))
    end = {frozenset(iso[v] for v in f) for f in surface.facets}
    if end != lateral_cells(bands, lk):
        raise ValueError("certificate missed the plain torus")
    back = {t: amb[v] for v, t in iso.items()}
    ends = [({s: back[a[s]] for s in a}, {s: back[b[s]] for s in b})
            for a, b in bands]
    return cap | staircase_cap(ends, lk, alloc)


def _shell_cap_two_closings(tube, lk, alloc):
    """The twisted-tube cap with one shell builder per move kind and a
    separate closing step for scripted and searched certificates."""
    x0 = Complex(lateral_cells(_oriented(tube.edges), lk))
    bands, mono = _chart_bands(tube, lk)
    scripted = all(mono[s] == s for s in mono)
    if scripted:
        cert_moves = _untwist_moves_replayed(x0, bands, lk)
        cert = None
    else:
        n = len(tube.edges)
        ring = Complex([[i, (i + 1) % n] for i in range(n)])
        target, chart = ordered_product_with_chart(ring, Complex(lk.facets))
        res = search_equivalence(x0, target, _SEARCH_BUDGET)
        if res.status != "yes":
            raise ValueError(f"no move path to the reference torus: {res.status}")
        cert = res.witness
        cert_moves = cert.moves

    cap = set()
    surface = x0
    amb = {v: v for v in x0.vertices}
    current = frozenset(x0.faces())
    seen = set(current)

    def relayer():
        fresh = {v: alloc() for v in surface.vertices}
        for f in surface.facets:
            cap.update(staircase([amb, fresh], sorted(f, key=amb.get)))
        amb.clear()
        amb.update(fresh)

    def refresh_current():
        return {frozenset(amb[v] for v in f) for f in frozenset(surface.faces())}

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
                return {frozenset({apex} | {amb[v] for v in f}) for f in post}

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
        ends = [({s: amb[a[s]] for s in a}, {s: amb[b[s]] for s in b})
                for a, b, _ in bands]
        return cap | staircase_cap(ends, lk, alloc)

    iso = (dict(zip(surface.vertices, cert.relabel)) if cert.relabel
           else {v: v for v in surface.vertices})
    back = {tv: amb[sv] for sv, tv in iso.items()}
    secs = [{s: chart[(i, s)] for s in lk.vertices} for i in range(n)]
    ref_tube = resolve_tube_full_index(target, secs, Complex(lk.facets))
    ends = [({s: back[a[s]] for s in a}, {s: back[b[s]] for s in b})
            for a, b in _oriented(ref_tube.edges)]
    return cap | staircase_cap(ends, lk, alloc)


def detect_hi_depth_first(idx, lo, vnext, ball: Complex, forward: bool) -> list:
    """``surgery._detect_hi`` as a depth-first walk: one recursive step
    per staircase cell, each arrival choice assigned, explored and
    undone in turn.  Hits come out in the order the walk finishes them."""
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


def resolve_tube_full_index(m: Complex, sections, ball: Complex) -> Tube:
    """``surgery.resolve_tube`` with the coface index over every facet
    of m and the depth-first chart walk."""
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
            found = detect_hi_depth_first(idx, lo, vnext, ball, forward)
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


def _frozenset_faces(cells) -> set:
    """Every nonempty face of the cells, as a frozenset."""
    out = set()
    for cell in cells:
        verts = sorted(cell)
        for k in range(1, len(verts) + 1):
            out.update(map(frozenset, itertools.combinations(verts, k)))
    return out


def verify_tube_frozenset_faces(m: Complex, tube: Tube, lk: Complex) -> Complex:
    """``surgery.verify_tube`` with frozenset faces, testing every
    outside facet of m."""
    torus = Complex(lateral_cells(_oriented(tube.edges), lk))
    nc = Complex(tube.cells)
    if frozenset(nc.boundary().facets) != frozenset(torus.facets):
        raise ValueError("tube boundary is not the expected torus")
    nverts = set(nc.vertices)
    interior = _frozenset_faces(tube.cells) - _frozenset_faces(torus.facets)
    for f in m.facets:
        if f not in tube.cells and _frozenset_faces([f & nverts]) & interior:
            raise ValueError(f"outside facet {sorted(f)} meets the tube interior")
    return torus


def do_surgery_three_routes(m: Complex, sections, ball: Complex, center: int) -> Complex:
    """Surgery that caps a plain tube straight with the staircase cap and
    a twisted one through the scripted or the searched shell stack."""
    tube = resolve_tube_full_index(m, sections, ball)
    lk = ball.link([center])
    verify_tube_frozenset_faces(m, tube, lk)
    alloc = itertools.count(m.vertices[-1] + 1).__next__
    if _is_plain_tube(tube):
        cells = staircase_cap(_oriented(tube.edges), lk, alloc)
    else:
        cells = _shell_cap_two_closings(tube, lk, alloc)
    return Complex((frozenset(m.facets) - tube.cells) | cells)


def prefab_bands_by_mantle(n: int) -> list:
    """The staircase bands of ``fabric.trivial_loop_prefab``'s solid
    torus, each edge's direction chosen by testing which of its two
    staircase chunks lies on the solid's boundary."""
    fiber = simplex_sphere(n - 1)
    ball = Complex([f for f in fiber.facets if 0 in f])
    lk = ball.link([0])
    solid, chart = ordered_product_with_chart(simplex_sphere(1), ball)
    secs = [{s: chart[(t, s)] for s in lk.vertices} for t in range(3)]
    mantle = set(solid.boundary().facets)
    bands = []
    for i in range(3):
        lo, hi = secs[i], secs[(i + 1) % 3]
        if chunk([lo, hi], lk.facets) <= mantle:
            bands.append((lo, hi))
        elif chunk([hi, lo], lk.facets) <= mantle:
            bands.append((hi, lo))
        else:
            raise ValueError(f"no staircase chunk of edge {i} on the mantle")
    return bands


def fingerprint_with_f_vector(cx: Complex) -> tuple:
    """The ``fingerprint`` that buckets on the f-vector: dimension,
    face counts per dimension and the colour histogram."""
    if cx.is_empty:
        return (-1,)
    color = cx._refinement_colors()
    hist: Dict[int, int] = {}
    for v in cx.vertices:
        hist[color[v]] = hist.get(color[v], 0) + 1
    return (cx.dim, cx.f_vector(), tuple(sorted(hist.items())))


def orbit_representatives_any_scan(children: Sequence, autos: List[Dict[int, int]],
                                   act) -> Iterator:
    """``_orbit_representatives`` testing each child against every tried
    child's root in turn, folding new automorphisms in from the second
    child on."""
    root: dict = {}

    def find(x):
        while root.get(x, x) != x:
            x = root[x]
        return x

    used = 0
    tried: List = []
    for c in children:
        if tried:
            for g in autos[used:]:
                for x, y in act(g):
                    rx, ry = find(x), find(y)
                    if rx != ry:
                        root[rx] = ry
            used = len(autos)
            rc = find(c)
            if any(find(t) == rc for t in tried):
                continue
        yield c
        tried.append(c)


def iso_signature_via_canonical(cx: Complex) -> str:
    """The isomorphism signature read off the relabelled ``canonical()``
    copy: dimension, f-vector, and its facets in facet order."""
    if not cx.facets:
        return "-1::"
    canon = cx.canonical()
    fvec = ",".join(map(str, cx.f_vector()))
    body = "|".join(" ".join(str(v) for v in sorted(f)) for f in canon.facets)
    return f"{canon.dim}:{fvec}:{body}"


# The facet order, the weld scan and the link index as they ran before
# the constructors sorted in two C-level passes, the scan read stars off
# the facet tuple and the index keyed discrete buckets by colours.

def facet_sort_key(f: Simplex) -> tuple:
    """The facet order: size, then ascending labels."""
    return (len(f), tuple(sorted(f)))


def first_weld_by_incidence(cx: Complex, table: dict):
    """The first weld of ``stellar_moves._welds``, reading each star off
    the incidence index and testing s with ``has_face``."""
    at = cx._incidence()
    for v in cx.vertices:
        for s, rest in _judged(table, _link_splits, v, at[v]):
            if not cx.has_face(s):
                return v, s, rest
    return None


class IsoIndexCanonical(IsoIndex):
    """``IsoIndex`` keying every bucket by canonical encodings."""

    @staticmethod
    def _encoding(cx: Complex, key: tuple, targets) -> tuple:
        return cx._canonical_code(targets)[0]


# The constructor parser as it ran before the constructor table: a
# tokenizer that tries each group in turn and one branch per name.

def _tokenize_by_groups(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ExpressionError(
                    "line 1, column %d: unexpected character %r"
                    % (pos + 1, text[pos]))
            break
        for kind in ("name", "int", "str", "punct"):
            if m.group(kind) is not None:
                out.append((kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def parse_expression_by_cases(text: str) -> Complex:
    """``cli.parse_expression`` with an ``if``/``elif`` per constructor."""
    toks = _tokenize_by_groups(text)
    idx = [0]

    def err(msg, tok):
        raise ExpressionError("line 1, column %d: %s" % (tok[2] + 1, msg))

    def take(kind, what):
        tok = toks[idx[0]]
        if tok[0] != kind:
            err("expected %s, found %r" % (what, tok[1] or "end of input"),
                tok)
        idx[0] += 1
        return tok

    def punct(ch):
        tok = take("punct", "'%s'" % ch)
        if tok[1] != ch:
            err("expected '%s'" % ch, tok)

    def expr():
        tok = take("name", "a constructor name")
        punct("(")
        name = tok[1]
        if name == "ball":
            out = standard_simplex(number())
        elif name == "sphere":
            out = simplex_sphere(number())
        elif name == "cone":
            out = cone(expr())
        elif name == "susp":
            out = suspension(expr())
        elif name == "prod":
            a = expr()
            comma()
            out = ordered_product(a, expr())
        elif name == "csum":
            a = expr()
            comma()
            out = connected_sum(a, expr())
        elif name == "ref":
            l = number()
            comma()
            out = reference_manifold(l, number())
        elif name == "prescx":
            s = take("str", "a quoted presentation")
            out = presentation_complex(parse_presentation(s[1][1:-1]))
        else:
            err("unknown constructor %r" % name, tok)
        punct(")")
        return out

    def comma():
        punct(",")

    def number():
        return int(take("int", "an integer")[1])

    try:
        out = expr()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    take("end", "end of input")
    return out


# The two-sided search as it ran before its sides shared one loop and
# one link table: each state expands through the public scans, which
# judge every link afresh, and one branch per side picks the frontier.

def _neighbors_by_public_scans(cx: Complex, cap: int):
    for v, s in weld_candidates(cx):
        yield stellar_weld(cx, v, s), [StellarMove("W", tuple(sorted(s)), v)]
    for a, b in flip_candidates(cx):
        delta = 2 * len(a) - 2 - cx.dim
        if len(cx.facets) + delta > cap:
            continue
        out, recs = apply_flip(cx, a, b)
        yield out, recs


def meet_by_branches(a: Complex, b: Complex, descent) -> vd.Verdict:
    """``stellar_moves.meet`` with one branch per side; each side's
    paths are kept by class index beside its ``IsoIndex``."""
    _, total, a_red, a_moves, b_red, b_moves = descent
    cap = max(len(a_red.facets), len(b_red.facets)) + a.dim + 1
    seen_a, seen_b = IsoIndex(), IsoIndex()
    seen_a.add(a_red)
    seen_b.add(b_red)
    paths_a, paths_b = [[]], [[]]
    front_a = [(a_red, [])]
    front_b = [(b_red, [])]
    while (front_a or front_b) and not total.exhausted:
        if not front_a:
            expand_a = False
        elif not front_b:
            expand_a = True
        else:
            expand_a = len(front_a) <= len(front_b)
        frontier = front_a if expand_a else front_b
        ours, theirs = (seen_a, seen_b) if expand_a else (seen_b, seen_a)
        our_paths, their_paths = (paths_a, paths_b) if expand_a else (paths_b, paths_a)
        new_frontier = []
        for cur, path in frontier:
            for nxt, recs in _neighbors_by_public_scans(cur, cap):
                if not total.spend():
                    return vd.unknown(detail={"states": total.used})
                state = (nxt, path + recs)
                if not ours.add(nxt)[1]:
                    continue
                our_paths.append(state[1])
                new_frontier.append(state)
                hit = theirs.find(nxt)
                if hit is not None:
                    other = (theirs.members[hit], their_paths[hit])
                    (a_end, a_path), (b_end, b_path) = (
                        (state, other) if expand_a else (other, state))
                    meet_psi = isomorphism(a_end, b_end)
                    if meet_psi is None:
                        raise AssertionError("meet found no isomorphism in one class")
                    return vd.yes(
                        witness=_stitch_certificate(
                            a_moves + a_path, a_end, b_moves + b_path, b, meet_psi
                        )
                    )
        if expand_a:
            front_a = new_frontier
        else:
            front_b = new_frontier
    if total.exhausted:
        return vd.unknown(detail={"states": total.used})
    return vd.unknown("search-exhausted", detail={"states": total.used})
