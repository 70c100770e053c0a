"""Finite abstract simplicial complexes with integer vertex labels.

A complex is stored by its facets (inclusion-maximal simplices); every
face is a nonempty subset of a facet and is materialized on demand.
``Complex`` objects are immutable: all operations return new instances
and cache derived data (faces, the vertex-to-facets incidence, ridge
degrees, canonical form, and the homology profile computed by
``invariants.homology``) on first use.

Label conventions.  Vertices are arbitrary ints.  Operations exposed at
module level (``validate``, ``star``, ``link``, ``boundary_complex``,
``barycentric_subdivision``, ``join``) return canonically relabeled
complexes so that pipelines are reproducible; the methods of ``Complex``
preserve the caller's labels and are what the internal machinery uses.

The canonical form is the lexicographically smallest facet-list encoding
found by a depth-first search over traversal labelings: seeds are drawn
from an isomorphism-invariant facet class, seed orderings respect vertex
color classes computed by iterated neighborhood refinement, and the
greedy extension branches whenever the refinement cannot break a tie.
The canonical labeling is the first leaf, in search order, that reaches
the smallest encoding.  Two complexes receive equal signatures exactly
when they are isomorphic: any isomorphism maps seeds to seeds and
traversals to traversals, so both searches minimize over matching
candidate sets.

The search prunes with the automorphisms it discovers (McKay-Piperno,
"Practical graph isomorphism, II", 2014).  A leaf whose encoding equals
that of the first or the best leaf gives the automorphism
lab_ref^-1 o lab.  A child is skipped when automorphisms fixing the
labeled prefix pointwise and the seed facet setwise carry it onto a
sibling already explored, and a seed facet is skipped when the
automorphisms found so far carry it onto an earlier seed.  Such an
automorphism maps the skipped subtree onto the subtree of an earlier
sibling, leaf for leaf with equal encodings, so every skipped leaf has
an equal twin earlier in search order and the first leaf reaching the
minimum is never skipped: the canonical form, the canonical mapping and
the signature are exactly those of the unpruned search.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

Simplex = FrozenSet[int]


class InvalidComplexError(ValueError):
    """Raised when input data does not describe a simplicial complex."""


def _facet_sort_key(f: Simplex) -> tuple:
    return (len(f), tuple(sorted(f)))


def as_simplex(vertices: Iterable[int]) -> Simplex:
    s = frozenset(vertices)
    if not s:
        raise InvalidComplexError("empty simplex")
    for v in s:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidComplexError(f"vertex label {v!r} is not an int")
    return s


class Complex:
    """Immutable abstract simplicial complex given by its facets."""

    __slots__ = ("_facets", "_cache")

    def __init__(self, facets: Iterable[Iterable[int]]):
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
        self._facets: Tuple[Simplex, ...] = tuple(sorted(raw, key=_facet_sort_key))
        self._cache: dict = {}

    @classmethod
    def _from_trusted(cls, facets: Iterable[Simplex]) -> "Complex":
        """Build without validation; callers guarantee maximality."""
        self = object.__new__(cls)
        self._facets = tuple(sorted(facets, key=_facet_sort_key))
        self._cache = {}
        return self

    @classmethod
    def generated_by(cls, simplices: Iterable[Iterable[int]]) -> "Complex":
        """Smallest complex containing every given simplex."""
        raw = {as_simplex(s) for s in simplices}
        maximal = [s for s in raw if not any(s < t for t in raw)]
        return cls._from_trusted(maximal)

    # -- basic structure ------------------------------------------------

    @property
    def facets(self) -> Tuple[Simplex, ...]:
        return self._facets

    @property
    def vertices(self) -> Tuple[int, ...]:
        if "vertices" not in self._cache:
            vs: set = set()
            for f in self._facets:
                vs.update(f)
            self._cache["vertices"] = tuple(sorted(vs))
        return self._cache["vertices"]

    @property
    def dim(self) -> int:
        if not self._facets:
            return -1
        return len(self._facets[-1]) - 1

    @property
    def is_empty(self) -> bool:
        return not self._facets

    def faces_by_dim(self) -> Dict[int, Tuple[Simplex, ...]]:
        if "faces" not in self._cache:
            table: Dict[int, set] = {}
            for f in self._facets:
                fl = sorted(f)
                for k in range(1, len(fl) + 1):
                    bucket = table.setdefault(k - 1, set())
                    for c in itertools.combinations(fl, k):
                        bucket.add(frozenset(c))
            self._cache["faces"] = {
                k: tuple(sorted(v, key=_facet_sort_key)) for k, v in sorted(table.items())
            }
        return self._cache["faces"]

    def faces(self, k: Optional[int] = None) -> Tuple[Simplex, ...]:
        table = self.faces_by_dim()
        if k is not None:
            return table.get(k, ())
        return tuple(itertools.chain.from_iterable(table[d] for d in sorted(table)))

    @property
    def face_set(self) -> FrozenSet[Simplex]:
        if "face_set" not in self._cache:
            self._cache["face_set"] = frozenset(self.faces())
        return self._cache["face_set"]

    def has_face(self, s: Iterable[int]) -> bool:
        s = frozenset(s)
        return any(s <= f for f in self._facets_through(s))

    def f_vector(self) -> Tuple[int, ...]:
        table = self.faces_by_dim()
        return tuple(len(table.get(k, ())) for k in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * fk for k, fk in enumerate(self.f_vector()))

    def is_pure(self) -> bool:
        if not self._facets:
            return True
        d = self.dim
        return all(len(f) == d + 1 for f in self._facets)

    # -- local structure ------------------------------------------------

    def _incidence(self) -> Dict[int, Tuple[Simplex, ...]]:
        """Vertex -> the facets containing it, each in facet order."""
        if "incidence" not in self._cache:
            at: Dict[int, List[Simplex]] = {}
            for f in self._facets:
                for v in f:
                    at.setdefault(v, []).append(f)
            self._cache["incidence"] = {v: tuple(fs) for v, fs in at.items()}
        return self._cache["incidence"]

    def _facets_through(self, s: Simplex) -> Tuple[Simplex, ...]:
        # every facet containing s lies in the shortest incidence list
        # of a vertex of s; the empty simplex lies in every facet
        if not s:
            return self._facets
        at = self._incidence()
        return min((at.get(v, ()) for v in s), key=len)

    def facets_containing(self, s: Iterable[int]) -> Tuple[Simplex, ...]:
        s = frozenset(s)
        return tuple(f for f in self._facets_through(s) if s <= f)

    def star(self, s: Iterable[int]) -> "Complex":
        """Closed star: the complex generated by all facets containing s."""
        s = frozenset(s)
        cof = self.facets_containing(s)
        if not cof:
            raise InvalidComplexError(f"{sorted(s)} is not a face")
        return Complex._from_trusted(cof)

    def link(self, s: Iterable[int]) -> "Complex":
        """Faces disjoint from s whose union with s is again a face."""
        s = frozenset(s)
        cof = self.facets_containing(s)
        if not cof:
            raise InvalidComplexError(f"{sorted(s)} is not a face")
        facets = {f - s for f in cof if f != s}
        return Complex._from_trusted(facets) if facets else Complex._from_trusted(())

    def ridge_degrees(self) -> Dict[Simplex, int]:
        """Number of facets containing each codimension-1 face (pure only)."""
        if "ridge_degrees" not in self._cache:
            if not self.is_pure():
                raise InvalidComplexError("ridge degrees need a pure complex")
            deg: Dict[Simplex, int] = {}
            for f in self._facets:
                for v in f:
                    r = f - {v}
                    if r:
                        deg[r] = deg.get(r, 0) + 1
            self._cache["ridge_degrees"] = deg
        return self._cache["ridge_degrees"]

    def boundary(self) -> "Complex":
        """Subcomplex generated by ridges lying in exactly one facet."""
        deg = self.ridge_degrees()
        rims = [r for r, d in deg.items() if d == 1]
        if not rims:
            return Complex._from_trusted(())
        return Complex.generated_by(rims)

    def is_closed_pseudomanifold(self) -> bool:
        """Pure, every ridge in exactly two facets, strongly connected."""
        if not self._facets or self.dim < 1:
            return False
        if not self.is_pure():
            return False
        deg = self.ridge_degrees()
        if any(d != 2 for d in deg.values()):
            return False
        return self.is_strongly_connected()

    def is_pseudomanifold_with_boundary(self) -> bool:
        if not self._facets or self.dim < 1 or not self.is_pure():
            return False
        deg = self.ridge_degrees()
        if any(d > 2 for d in deg.values()):
            return False
        return self.is_strongly_connected()

    def is_strongly_connected(self) -> bool:
        """Facet graph through shared ridges is connected (pure only)."""
        if not self._facets:
            return True
        if not self.is_pure():
            return False
        ridge_to_facets: Dict[Simplex, List[int]] = {}
        for i, f in enumerate(self._facets):
            for v in f:
                r = f - {v}
                if r:
                    ridge_to_facets.setdefault(r, []).append(i)
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for v in self._facets[i]:
                r = self._facets[i] - {v}
                for j in ridge_to_facets.get(r, ()):
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
        return len(seen) == len(self._facets)

    def is_connected(self) -> bool:
        """Vertices connected through shared facets."""
        vs = self.vertices
        if len(vs) <= 1:
            return True
        adj: Dict[int, set] = {v: set() for v in vs}
        for f in self._facets:
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

    def skeleton(self, k: int) -> "Complex":
        """All faces of dimension at most k."""
        if k < 0:
            raise InvalidComplexError("skeleton dimension must be >= 0")
        if k >= self.dim:
            return self
        return Complex.generated_by(self.faces(k))

    def orientation(self) -> Optional[Dict[Simplex, int]]:
        """Coherent facet signs, or None when none exist.

        A facet's sign is taken relative to the ascending order of its
        labels.  Two facets sharing a ridge must induce opposite
        orientations on it; the signs are propagated across the facet
        graph and any contradiction means non-orientability.  Requires a
        pure complex whose ridges lie in at most two facets.
        """
        if not self.is_pure():
            raise InvalidComplexError("orientation needs a pure complex")
        deg = self.ridge_degrees()
        if any(d > 2 for d in deg.values()):
            raise InvalidComplexError("orientation needs ridge degrees <= 2")
        facets = self._facets
        index = {f: i for i, f in enumerate(facets)}
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

    def is_orientable(self) -> bool:
        return self.orientation() is not None

    # -- relabeling and canonical form ---------------------------------

    def relabeled(self, mapping: Dict[int, int]) -> "Complex":
        vs = self.vertices
        img = [mapping[v] for v in vs]
        if len(set(img)) != len(img):
            raise InvalidComplexError("relabeling is not injective")
        return Complex._from_trusted(
            frozenset(mapping[v] for v in f) for f in self._facets
        )

    def _refinement_colors(self) -> Dict[int, int]:
        """Iterated neighborhood refinement; dense, order-stable ids."""
        verts = self.vertices
        at = self._incidence()
        key = {v: tuple(sorted(len(f) for f in at[v])) for v in verts}
        color = _dense_ranks(key)
        ncolors = len(set(color.values()))
        for _ in range(len(verts)):
            shape = {f: (len(f), tuple(sorted(color[u] for u in f))) for f in self._facets}
            key = {v: (color[v], tuple(sorted(shape[f] for f in at[v]))) for v in verts}
            color = _dense_ranks(key)
            n2 = len(set(color.values()))
            if n2 == ncolors:
                break
            ncolors = n2
        return color

    def _canonical_pair(self) -> Tuple["Complex", Dict[int, int]]:
        if "canonical" in self._cache:
            return self._cache["canonical"]
        if not self._facets:
            pair = (self, {})
            self._cache["canonical"] = pair
            return pair
        color = self._refinement_colors()
        facets = self._facets
        verts = self.vertices
        n = len(verts)
        index = {f: i for i, f in enumerate(facets)}
        at = {v: [index[f] for f in fs] for v, fs in self._incidence().items()}
        profiles: Dict[tuple, List[Simplex]] = {}
        for f in facets:
            profiles.setdefault(tuple(sorted(color[v] for v in f)), []).append(f)
        seeds = profiles[min(profiles, key=lambda p: (len(profiles[p]), p))]
        # part[i]: the labels placed so far in facet i, ascending because
        # labels are handed out in increasing order along a branch
        part: List[Tuple[int, ...]] = [()] * len(facets)
        order: List[int] = []
        lab: Dict[int, int] = {}
        autos: List[Dict[int, int]] = []
        # the first leaf and the best leaf so far: (encoding, labelled order)
        refs: List[Tuple[tuple, Tuple[int, ...]]] = []

        def leaf() -> None:
            enc = tuple(sorted(part))
            if not refs:
                refs.extend([(enc, tuple(order))] * 2)
                return
            for ref_enc, ref_order in refs:
                if enc == ref_enc:
                    # lab_ref^-1 o lab carries facets onto facets
                    sigma = dict(zip(order, ref_order))
                    if any(v != w for v, w in sigma.items()):
                        autos.append(sigma)
                    return
            if enc < refs[1][0]:
                refs[1] = (enc, tuple(order))

        def ties() -> List[int]:
            """Unlabelled vertices minimizing (no labelled neighbour?,
            sorted labelled parts of its facets, colour), ascending."""
            best_key = None
            best_vs: List[int] = []
            for v in verts:
                if v in lab:
                    continue
                prof = tuple(sorted(part[i] for i in at[v] if part[i]))
                key = (0 if prof else 1, prof, color[v])
                if best_key is None or key < best_key:
                    best_key = key
                    best_vs = [v]
                elif key == best_key:
                    best_vs.append(v)
            return best_vs

        def visit(f0: Simplex, slots: List[List[int]]) -> None:
            k = len(order)
            if k == n:
                leaf()
                return
            if k < len(slots):
                children = [v for v in slots[k] if v not in lab]
            else:
                children = ties()

            def act(g: Dict[int, int]):
                if all(g[v] == v for v in order) and all(g[v] in f0 for v in f0):
                    return g.items()
                return ()

            for c in _orbit_representatives(children, autos, act):
                lab[c] = k
                order.append(c)
                for i in at[c]:
                    part[i] += (k,)
                visit(f0, slots)
                for i in at[c]:
                    part[i] = part[i][:-1]
                order.pop()
                del lab[c]

        def act_on_seeds(g: Dict[int, int]):
            return ((f, frozenset(g[v] for v in f)) for f in seeds)

        for f0 in _orbit_representatives(seeds, autos, act_on_seeds):
            classes: Dict[int, List[int]] = {}
            for v in sorted(f0):
                classes.setdefault(color[v], []).append(v)
            visit(f0, [classes[c] for c in sorted(classes) for _ in classes[c]])
        best_enc, best_order = refs[1]
        canon = Complex._from_trusted(frozenset(f) for f in best_enc)
        pair = (canon, {v: i for i, v in enumerate(best_order)})
        self._cache["canonical"] = pair
        return pair

    def canonical(self) -> "Complex":
        """The canonically relabeled copy (vertices 0..n-1)."""
        return self._canonical_pair()[0]

    def canonical_mapping(self) -> Dict[int, int]:
        """Mapping old label -> canonical label."""
        return dict(self._canonical_pair()[1])

    def iso_signature(self) -> str:
        """Total isomorphism invariant, equal exactly for isomorphic complexes."""
        if "sig" not in self._cache:
            if not self._facets:
                self._cache["sig"] = "-1::"
            else:
                canon = self.canonical()
                # the f-vector of the input, which is isomorphic to canon;
                # counting faces this way builds no sorted face table
                faces: List[set] = [set() for _ in range(self.dim + 1)]
                for f in self._facets:
                    fl = sorted(f)
                    for k in range(1, len(fl) + 1):
                        faces[k - 1].update(itertools.combinations(fl, k))
                fvec = ",".join(str(len(s)) for s in faces)
                body = "|".join(
                    " ".join(str(v) for v in sorted(f)) for f in canon.facets
                )
                self._cache["sig"] = f"{canon.dim}:{fvec}:{body}"
        return self._cache["sig"]

    def is_isomorphic_to(self, other: "Complex") -> bool:
        return self.iso_signature() == other.iso_signature()

    # -- dunder ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Complex) and self._facets == other._facets

    def __hash__(self):
        return hash(self._facets)

    def __repr__(self):
        return f"Complex(dim={self.dim}, facets={len(self._facets)})"


def _dense_ranks(key: Dict[int, tuple]) -> Dict[int, int]:
    ranks = {k: i for i, k in enumerate(sorted(set(key.values())))}
    return {v: ranks[key[v]] for v in key}


def _orbit_representatives(children: Sequence, autos: List[Dict[int, int]], act) -> Iterator:
    """Yield the children in turn, skipping each one that lies in the
    orbit of a child yielded before.  Orbits are those of the group
    generated by the automorphisms recorded so far, each acting through
    ``act(g)``: the pairs (x, g(x)), or none when g is not to be used.
    A caller adds automorphisms while it explores a yielded child."""
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


def fingerprint(cx: Complex) -> tuple:
    """Cheap isomorphism invariant for hashing and pre-filtering.

    Collisions are possible; equality of fingerprints must be confirmed
    by ``isomorphism`` when it matters.
    """
    if cx.is_empty:
        return (-1,)
    color = cx._refinement_colors()
    hist: Dict[int, int] = {}
    for v in cx.vertices:
        hist[color[v]] = hist.get(color[v], 0) + 1
    return (
        cx.dim,
        cx.f_vector(),
        tuple(sorted(hist.items())),
    )


def isomorphism(a: Complex, b: Complex) -> Optional[Dict[int, int]]:
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
    b_faces = b.face_set
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


# -- module-level operations (canonical output labels) -----------------


def validate(facets: Iterable[Iterable[int]]) -> Complex:
    """Check raw facet data and return the complex it describes.

    Raises InvalidComplexError on an empty facet list, an empty facet,
    non-integer labels, duplicate facets, or a facet contained in
    another.  Labels are preserved.
    """
    facets = list(facets)
    if not facets:
        raise InvalidComplexError("a complex needs at least one facet")
    return Complex(facets)


def star(cx: Complex, s: Iterable[int]) -> Complex:
    return cx.star(s).canonical()

def link(cx: Complex, s: Iterable[int]) -> Complex:
    return cx.link(s).canonical()

def boundary_complex(cx: Complex) -> Complex:
    return cx.boundary().canonical()


def join(a: Complex, b: Complex) -> Complex:
    """Join of two complexes on disjoint label sets (labels preserved)."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    if set(a.vertices) & set(b.vertices):
        raise InvalidComplexError("join needs disjoint vertex labels")
    return Complex._from_trusted(f | g for f in a.facets for g in b.facets)


def barycentric_subdivision(cx: Complex) -> Complex:
    """First derived subdivision: vertices are the faces of the input,
    facets are the maximal chains of the face order (canonical labels)."""
    return derived_subdivision_raw(cx).canonical()


def derived_subdivision_raw(cx: Complex) -> Complex:
    """Derived subdivision with deterministic fresh labels: face f gets
    the label of its position in the (dim, sorted tuple) face order."""
    if cx.is_empty:
        return cx
    all_faces = sorted(cx.faces(), key=_facet_sort_key)
    face_id = {f: i for i, f in enumerate(all_faces)}
    out: List[Simplex] = []

    def chains(top: Simplex) -> Iterator[Tuple[Simplex, ...]]:
        # maximal chains below a facet: drop one vertex at a time
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


# -- serialization -----------------------------------------------------


def to_text(cx: Complex) -> str:
    """One facet per line, ascending labels, deterministic order."""
    lines = [" ".join(str(v) for v in sorted(f)) for f in cx.facets]
    return "\n".join(lines) + ("\n" if lines else "")


def from_text(text: str) -> Complex:
    """Parse the facet-per-line format; '#' starts a comment."""
    facets = []
    for ln, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            facets.append([int(tok) for tok in body.split()])
        except ValueError as e:
            raise InvalidComplexError(f"line {ln}: {e}") from None
    return validate(facets)


def to_json_obj(cx: Complex) -> dict:
    return {"facets": [sorted(f) for f in cx.facets]}


def from_json_obj(obj) -> Complex:
    facets = obj.get("facets") if isinstance(obj, dict) else None
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise InvalidComplexError('expected an object with a "facets" list of lists')
    return validate(facets)


def loads(text: str) -> Complex:
    """Parse either serialization; JSON when the text starts with '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json_obj(json.loads(text))
    return from_text(text)
