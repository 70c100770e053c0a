"""Slow, independent reference implementations used to freeze expected
values.  Everything here favors obviousness over speed and is only run
on tiny inputs."""

import itertools
from fractions import Fraction
from typing import Dict, List, Tuple

from plmarkov.complex_core import Complex
from plmarkov.groups import (FinitePresentation, Word, _substitute, abelianization,
                             cyclic_reduce, free_reduce, homology_style, inverse_word)


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


def betti_over_rationals(cx: Complex) -> list:
    """Rational Betti numbers from boundary-matrix ranks via exact
    Gaussian elimination over the rationals (no torsion information)."""
    faces = cx.faces_by_dim()
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
    out = []
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
                        out.append((v, s))
    return out


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
            if not cx.is_connected():
                continue
            link_ok = True
            for v in used:
                lk = cx.link([v])
                degs = {}
                for f in lk.facets:
                    for w in f:
                        degs[w] = degs.get(w, 0) + 1
                if any(d != 2 for d in degs.values()) or not lk.is_connected():
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
    assert homology_style(after) == homology_style(before), (
        "simplification changed the abelianization"
    )
    return out, trace
