"""Finite abstract simplicial complexes with integer vertex labels.

A complex is stored by its facets (inclusion-maximal simplices); every
face is a nonempty subset of a facet and is materialized on demand.
``Complex`` objects are immutable: all operations return new instances
(a stellar move's child, a link and a star keep their parent's facet
order, and a move's child its parent's vertex tuple, so none is re-sorted)
and cache derived data on first use, each table built in one place:
the face table of ascending label tuples (``face_tuples``; only the
callers that need ordered faces build it, and the f-vector is counted
without it), the vertex-to-facets incidence, the ridge-to-facets index
behind ridge degrees, strong connectivity, orientation and a pure
f-vector's ridge count, the refinement colours, the canonical form,
and the homology profile computed by ``invariants.homology``.

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
the signature are exactly those of the unpruned search.  A node with a
single child skips the orbit bookkeeping, since a first child is never
pruned.

A search given targets, the canonical encodings of other complexes,
stops at the first leaf whose encoding is a target.  Equal encodings
mean isomorphic complexes, so that leaf is minimal; the traversal up to
it is the full search's, so it is the first minimal leaf and the form
and mapping are the same.  Only a search run to the end caches its
automorphisms; ``automorphisms`` runs one when they are missing.

``isomorphism`` compares the two canonical forms and composes one
canonical mapping with the inverse of the other; a side whose form is
not cached is searched against the other side's encoding.  The
boundary of a simplex on n vertices has its form read off its labels
with no search: the search labels its vertices in ascending order, so
its encoding is the (n-1)-subsets of range(n) in order.  ``isomorphism``
shares that fact and matches two such boundaries of one dimension in
label order; only ``automorphisms`` searches a simplex boundary.

``IsoIndex`` groups complexes up to isomorphism in ``fingerprint``
buckets, keyed by dimension, facet count and colour histogram, each a
dict from canonical encoding to class: a lookup is one search targeted
at the bucket's encodings and one dict lookup.  A bucket whose colours
are discrete is keyed instead by the facets relabelled by colour, and
its lookups run no search; canonical forms are unchanged.  Signature
strings are built only where they are output, from the cached encoding.
"""

from __future__ import annotations

import bisect
import itertools
import json
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

Simplex = FrozenSet[int]


class InvalidComplexError(ValueError):
    """Raised when input data does not describe a simplicial complex."""


def as_simplex(vertices: Iterable[int]) -> Simplex:
    s = frozenset(vertices)
    if not s:
        raise InvalidComplexError("empty simplex")
    for v in s:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidComplexError(f"vertex label {v!r} is not an int")
    return s


def _in_facet_order(facets: Iterable[Simplex]) -> Tuple[Simplex, ...]:
    """The facet order, by size and then ascending labels, as two stable
    C-level sorts: by labels, then by size."""
    out = sorted(facets, key=sorted)
    out.sort(key=len)
    return tuple(out)


class Complex:
    """Immutable abstract simplicial complex given by its facets."""

    __slots__ = ("_facets", "_cache")

    def __init__(self, facets: Iterable[Iterable[int]]):
        raw = list(map(frozenset, facets))
        # every label's type at C speed (a set of distinct labels would
        # let True or 1.0 hide behind an equal int); on a bad label or an
        # empty facet, the per-facet check raises the first error
        if not all(raw) or set(map(type, itertools.chain.from_iterable(raw))) - {int}:
            raw = [as_simplex(f) for f in raw]
        if len(set(raw)) < len(raw):
            first = next(f for i, f in enumerate(raw) if f in raw[:i])
            raise InvalidComplexError(f"duplicate facet {sorted(first)}")
        # A facet strictly contained in another is not maximal.  A strict
        # subset is smaller, so facets of one size cannot nest and need
        # no scan.  Otherwise every superset of f lies in the incidence
        # list of each vertex of f, and the lists grow in size-descending
        # order, so the first hit is the first superset in that order.
        if len({len(f) for f in raw}) > 1:
            at: Dict[int, List[Simplex]] = {}
            for f in sorted(raw, key=len, reverse=True):
                for g in min((at.get(v, ()) for v in f), key=len):
                    if f < g:
                        raise InvalidComplexError(
                            f"facet {sorted(f)} is contained in facet {sorted(g)}"
                        )
                for v in f:
                    at.setdefault(v, []).append(f)
        self._facets: Tuple[Simplex, ...] = _in_facet_order(raw)
        self._cache: dict = {}

    @classmethod
    def _from_trusted(cls, facets: Iterable[Simplex]) -> "Complex":
        """Build without validation; callers guarantee maximality."""
        return cls._from_ordered(_in_facet_order(facets))

    @classmethod
    def _from_ordered(cls, kept: Iterable[Simplex], new: Iterable[Simplex] = (),
                      vertices: Optional[Tuple[int, ...]] = None) -> "Complex":
        """Build a child of a complex with no full sort: ``kept``, part
        of the parent's facets, is in facet order, and each ``new`` facet
        is inserted by labels into its size class.  ``vertices``, when the
        caller knows it, is the child's vertex tuple: no label is recounted."""
        out = list(kept)
        for f in new:
            lo = bisect.bisect_left(out, len(f), key=len)
            hi = bisect.bisect_right(out, len(f), lo, key=len)
            bisect.insort(out, f, lo, hi, key=sorted)
        self = object.__new__(cls)
        self._facets = tuple(out)
        self._cache = {} if vertices is None else {"vertices": vertices}
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

    def face_tuples(self) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
        """The face table: per dimension, every face as its ascending
        label tuple, in label order (the facet order within a dimension).
        Built once and cached; homology, the boundary matrices and the
        edge-path presentation read it directly."""
        if "faces" not in self._cache:
            self._cache["faces"] = {k: tuple(sorted(s)) for k, s in enumerate(self._face_sets())}
        return self._cache["faces"]

    def _face_sets(self, lo: int = 0, hi: Optional[int] = None) -> List[set]:
        """Every face of dimension lo..hi (default: every dimension) as
        a label tuple, in one set per dimension."""
        hi = self.dim if hi is None else hi
        faces: List[set] = [set() for _ in range(lo, hi + 1)]
        for f in self._facets:
            fl = sorted(f)
            for k in range(lo + 1, min(len(fl), hi + 1) + 1):
                faces[k - 1 - lo].update(itertools.combinations(fl, k))
        return faces

    def faces(self, k: Optional[int] = None) -> Tuple[Simplex, ...]:
        """The k-faces (all faces when k is None, by dimension) as
        frozensets in label order, built afresh from ``face_tuples``."""
        table = self.face_tuples()
        if k is not None:
            return tuple(map(frozenset, table.get(k, ())))
        return tuple(map(frozenset, itertools.chain.from_iterable(table.values())))

    def has_face(self, s: Iterable[int]) -> bool:
        s = frozenset(s)
        return any(s <= f for f in self._facets_through(s))

    def f_vector(self) -> Tuple[int, ...]:
        """Face counts per dimension; counts the face table when one is
        built and otherwise builds none.  A pure complex of dimension
        d >= 2 counts its vertices and facets as they stand, reads its
        (d-1)-faces off the ridge index when that is cached (a manifold
        check's pseudomanifold gate builds it first), and enumerates
        only the faces of the dimensions left between."""
        if "f_vector" not in self._cache:
            table = self._cache.get("faces")
            d = self.dim
            if table is not None:
                counts = tuple(map(len, table.values()))
            elif d >= 2 and self.is_pure():
                ridges = self._cache.get("ridges")
                hi = d - 1 if ridges is None else d - 2
                middle = list(map(len, self._face_sets(1, hi))) if hi else []
                if ridges is not None:
                    middle.append(len(ridges))
                counts = (len(self.vertices), *middle, len(self._facets))
            else:
                counts = tuple(map(len, self._face_sets()))
            self._cache["f_vector"] = counts
        return self._cache["f_vector"]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * fk for k, fk in enumerate(self.f_vector()))

    def is_pure(self) -> bool:
        # the facets are in size order
        return not self._facets or len(self._facets[0]) == len(self._facets[-1])

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
        return Complex._from_ordered(cof)

    def link(self, s: Iterable[int]) -> "Complex":
        """Faces disjoint from s whose union with s is again a face, in
        the star's order: dropping s shrinks every facet by |s|, and two of
        one size compare by the least label of their symmetric difference."""
        s = frozenset(s)
        cof = self.facets_containing(s)
        if not cof:
            raise InvalidComplexError(f"{sorted(s)} is not a face")
        return Complex._from_ordered(f - s for f in cof if f != s)

    def _ridges(self) -> Dict[Simplex, List[Simplex]]:
        """Ridge -> the facets containing it, in facet order (pure only)."""
        if "ridges" not in self._cache:
            at: Dict[Simplex, List[Simplex]] = {}
            for f in self._facets:
                for v in f:
                    r = f - {v}
                    if r:
                        at.setdefault(r, []).append(f)
            self._cache["ridges"] = at
        return self._cache["ridges"]

    def ridge_degrees(self) -> Dict[Simplex, int]:
        """Number of facets containing each codimension-1 face (pure only)."""
        if not self.is_pure():
            raise InvalidComplexError("ridge degrees need a pure complex")
        return {r: len(fs) for r, fs in self._ridges().items()}

    def boundary(self) -> "Complex":
        """Subcomplex generated by ridges lying in exactly one facet.
        The rims of a pure complex are distinct and all of one size, so
        each is maximal."""
        return Complex._from_trusted(r for r, d in self.ridge_degrees().items() if d == 1)

    def is_closed_pseudomanifold(self) -> bool:
        """A pseudomanifold with boundary whose every ridge is in two
        facets; the facet graph is walked only once that holds."""
        return (self.dim >= 1 and self.is_pure()
                and all(len(fs) == 2 for fs in self._ridges().values())
                and self.is_strongly_connected())

    def is_pseudomanifold_with_boundary(self) -> bool:
        if not self._facets or self.dim < 1 or not self.is_pure():
            return False
        return (all(len(fs) <= 2 for fs in self._ridges().values())
                and self.is_strongly_connected())

    def is_strongly_connected(self) -> bool:
        """Facet graph through shared ridges is connected (pure only);
        read off the facet lists of the ridge index."""
        if not self._facets:
            return True
        if not self.is_pure():
            return False
        near: Dict[Simplex, List[Simplex]] = {}
        for fs in self._ridges().values():
            for g in fs:
                near.setdefault(g, []).extend(fs)
        seen = {self._facets[0]}
        stack = [self._facets[0]]
        while stack:
            for g in near.get(stack.pop(), ()):
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        return len(seen) == len(self._facets)

    def skeleton(self, k: int) -> "Complex":
        """All faces of dimension at most k."""
        if k < 0:
            raise InvalidComplexError("skeleton dimension must be >= 0")
        if k >= self.dim:
            return self
        # the facets below dimension k, then the k-faces: maximal, in order
        return Complex._from_ordered(
            [f for f in self._facets if len(f) <= k] + list(self.faces(k)))

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
        ridges = self._ridges()
        if any(len(fs) > 2 for fs in ridges.values()):
            raise InvalidComplexError("orientation needs ridge degrees <= 2")
        sign: Dict[Simplex, int] = {}
        for root in self._facets:
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
                    for g in ridges.get(r, ()):
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
        if "colors" in self._cache:
            return self._cache["colors"]
        verts = self.vertices
        at = self._incidence()
        # on a pure complex the facet sizes are all equal, so degree and
        # colour profile alone give the same order and the same ids
        pure = self.is_pure()
        if pure:
            key = {v: len(at[v]) for v in verts}
        else:
            key = {v: tuple(sorted(map(len, at[v]))) for v in verts}
        color = _dense_ranks(key)
        ncolors = len(set(color.values()))
        # a discrete colouring keeps every id in a further round, and so
        # does a round that splits no colour: each key starts with the
        # old colour, so ranking the keys would give the old ids back
        while ncolors < len(verts):
            shape = {f: tuple(sorted(map(color.__getitem__, f))) for f in self._facets}
            if not pure:
                shape = {f: (len(f), c) for f, c in shape.items()}
            key = {v: (color[v], tuple(sorted(map(shape.__getitem__, at[v])))) for v in verts}
            n2 = len(set(key.values()))
            if n2 == ncolors:
                break
            color, ncolors = _dense_ranks(key), n2
        self._cache["colors"] = color
        return color

    def _canonical_code(self, targets=()) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
        """The smallest encoding (each facet as its ascending canonical
        labels, the facets sorted) and the vertices in canonical-label
        order.  Cached as plain tuples rather than as the relabelled
        ``Complex``, which keeps the cached forms small.

        A search with ``targets`` (canonical encodings of other
        complexes) stops at the first leaf whose encoding is one of
        them, with the same result; see the module docstring."""
        if "canonical" not in self._cache:
            if _is_simplex_boundary(self):
                n = len(self.vertices)
                self._cache["canonical"] = (tuple(itertools.combinations(range(n), n - 1)),
                                            self.vertices)
            else:
                self._search(targets)
        return self._cache["canonical"]

    def _search(self, targets) -> None:
        if not self._facets:
            self._cache["canonical"], self._cache["autos"] = ((), ()), ()
            return
        color = self._refinement_colors()
        facets = self._facets
        verts = self.vertices
        n = len(verts)
        index = {f: i for i, f in enumerate(facets)}
        at = {v: [index[f] for f in fs] for v, fs in self._incidence().items()}
        profiles: Dict[tuple, List[Simplex]] = {}
        for f in facets:
            profiles.setdefault(tuple(sorted(map(color.__getitem__, f))), []).append(f)
        seeds = profiles[min(profiles, key=lambda p: (len(profiles[p]), p))]
        # part[i]: the labels placed so far in facet i, ascending because
        # labels are handed out in increasing order along a branch
        part: List[Tuple[int, ...]] = [()] * len(facets)
        order: List[int] = []
        lab: Dict[int, int] = {}
        autos: List[Dict[int, int]] = []
        # the first leaf and the best leaf so far: (encoding, labelled order)
        refs: List[Tuple[tuple, Tuple[int, ...]]] = []

        def leaf() -> bool:
            """Record the leaf; True when its encoding is a target."""
            enc = tuple(sorted(part))
            if not refs:
                refs.extend([(enc, tuple(order))] * 2)
                return enc in targets
            for ref_enc, ref_order in refs:
                if enc == ref_enc:
                    # lab_ref^-1 o lab carries facets onto facets
                    sigma = dict(zip(order, ref_order))
                    if any(v != w for v, w in sigma.items()):
                        autos.append(sigma)
                    return False
            if enc < refs[1][0]:
                refs[1] = (enc, tuple(order))
            return enc in targets

        def ties() -> List[int]:
            """Unlabelled vertices minimizing (no labelled neighbour?,
            sorted labelled parts of its facets, colour), ascending."""
            best_key = None
            best_vs: List[int] = []
            for v in verts:
                if v in lab:
                    continue
                prof = tuple(sorted(filter(None, map(part.__getitem__, at[v]))))
                key = (0 if prof else 1, prof, color[v])
                if best_key is None or key < best_key:
                    best_key = key
                    best_vs = [v]
                elif key == best_key:
                    best_vs.append(v)
            return best_vs

        def visit(f0: Simplex, slots: List[List[int]]) -> bool:
            """Depth-first over the labellings that start in f0, until a
            leaf meets a target.  The children still to try at each
            depth sit on an explicit stack, so the depth is not bounded
            by the recursion limit; leaving a depth unlabels the vertex
            above it."""

            def act(g: Dict[int, int]):
                # read when the next child is drawn: order is then the
                # prefix above that child
                if all(g[v] == v for v in order) and all(g[v] in f0 for v in f0):
                    return g.items()
                return ()

            def pending() -> Iterator[int]:
                k = len(order)
                if k < len(slots):
                    children = [v for v in slots[k] if v not in lab]
                else:
                    children = ties()
                if len(children) < 2:
                    return iter(children)
                return _orbit_representatives(children, autos, act)

            stack = [pending()]
            while stack:
                c = next(stack[-1], None)
                if c is None:
                    stack.pop()
                    if order:
                        c = order.pop()
                        del lab[c]
                        for i in at[c]:
                            part[i] = part[i][:-1]
                    continue
                k = len(order)
                lab[c] = k
                order.append(c)
                for i in at[c]:
                    part[i] += (k,)
                if k + 1 == n:
                    if leaf():
                        return True
                    stack.append(iter(()))
                else:
                    stack.append(pending())
            return False

        def act_on_seeds(g: Dict[int, int]):
            return ((f, frozenset(g[v] for v in f)) for f in seeds)

        for f0 in _orbit_representatives(seeds, autos, act_on_seeds):
            classes: Dict[int, List[int]] = {}
            for v in sorted(f0):
                classes.setdefault(color[v], []).append(v)
            if visit(f0, [classes[c] for c in sorted(classes) for _ in classes[c]]):
                break
        else:
            self._cache["autos"] = tuple(autos)
        self._cache["canonical"] = refs[1]

    def automorphisms(self) -> Tuple[Dict[int, int], ...]:
        """The non-identity automorphisms, as vertex maps, that the full
        canonical search meets.  They may generate only a subgroup of
        Aut(self); the empty complex gives ()."""
        if "autos" not in self._cache:
            self._search(())
        return self._cache["autos"]

    def canonical(self) -> "Complex":
        """The canonically relabeled copy (vertices 0..n-1)."""
        return Complex._from_trusted(frozenset(f) for f in self._canonical_code()[0])

    def canonical_mapping(self) -> Dict[int, int]:
        """Mapping old label -> canonical label."""
        return {v: i for i, v in enumerate(self._canonical_code()[1])}

    def iso_signature(self) -> str:
        """Total isomorphism invariant, equal exactly for isomorphic complexes."""
        if "sig" not in self._cache:
            if not self._facets:
                self._cache["sig"] = "-1::"
            else:
                # the canonical copy's facets in facet order: the encoding
                # is sorted, so a stable sort by size gives (size, labels)
                enc = sorted(self._canonical_code()[0], key=len)
                fvec = ",".join(map(str, self.f_vector()))
                body = "|".join(" ".join(map(str, f)) for f in enc)
                self._cache["sig"] = f"{self.dim}:{fvec}:{body}"
        return self._cache["sig"]

    def is_isomorphic_to(self, other: "Complex") -> bool:
        return isomorphism(self, other) is not None

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
    # the roots of the tried children, rebuilt when automorphisms arrive
    roots: set = set()
    for c in children:
        if used < len(autos):
            for g in autos[used:]:
                for x, y in act(g):
                    rx, ry = find(x), find(y)
                    if rx != ry:
                        root[rx] = ry
            used = len(autos)
            roots = {find(t) for t in tried}
        rc = find(c)
        if rc in roots:
            continue
        yield c
        tried.append(c)
        roots.add(rc)


def fingerprint(cx: Complex) -> tuple:
    """Cheap isomorphism invariant for hashing and pre-filtering: the
    dimension, the number of facets and the histogram of refinement
    colours.  It enumerates no face, so a lookup counts no f-vector.

    Collisions are possible; equality of fingerprints must be confirmed
    by ``isomorphism`` when it matters.
    """
    if cx.is_empty:
        return (-1,)
    color = cx._refinement_colors()
    hist: Dict[int, int] = {}
    for v in cx.vertices:
        hist[color[v]] = hist.get(color[v], 0) + 1
    return (cx.dim, len(cx.facets), tuple(sorted(hist.items())))


def _is_simplex_boundary(cx: Complex) -> bool:
    """Whether cx is the boundary of a (d+1)-simplex: d + 2 facets of
    d + 1 vertices each, on d + 2 vertices (none when cx is empty)."""
    n = cx.dim + 2
    return len(cx.facets) == n == len(cx.vertices) and len(cx.facets[0]) == n - 1


def isomorphism(a: Complex, b: Complex) -> Optional[Dict[int, int]]:
    """A vertex bijection carrying the facets of a onto those of b, or
    None.  Read off the canonical forms: they are equal exactly when the
    complexes are isomorphic, and then a's canonical labelling followed
    by the inverse of b's carries a onto b, so the vertices with equal
    canonical labels correspond.  Two boundaries of simplices of one
    dimension map in label order, which is that same map, with no search.
    """
    if a.dim == b.dim and _is_simplex_boundary(a) and _is_simplex_boundary(b):
        return dict(zip(a.vertices, b.vertices))
    if a.f_vector() != b.f_vector():
        return None
    # search a side with no cached form against the other's encoding
    if "canonical" in b._cache:
        enc_b, order_b = b._canonical_code()
        enc_a, order_a = a._canonical_code((enc_b,))
    else:
        enc_a, order_a = a._canonical_code()
        enc_b, order_b = b._canonical_code((enc_a,))
    if enc_a != enc_b:
        return None
    return dict(zip(order_a, order_b))


class IsoIndex:
    """Complexes up to isomorphism.  Each class keeps its first member
    at its class index in ``members``.  Classes are bucketed by
    ``fingerprint``, and a bucket maps each class's encoding to its
    index.  A lookup runs one canonical search that stops at the first
    leaf matching an encoding of the bucket, and then one dict lookup.
    A bucket's first class is encoded only when a second complex
    reaches the bucket, so a complex whose fingerprint is new computes
    no canonical form.

    A colour histogram of all ones is a discrete colouring, which is a
    canonical labelling (McKay-Piperno 2014): isomorphisms keep colours,
    so the facets relabelled by colour key such a bucket exactly, with
    no search.  That key stays internal; canonical forms are untouched."""

    def __init__(self):
        self.members: List[Complex] = []
        # fingerprint -> {encoding: class index}; None while unencoded
        self._buckets: Dict[tuple, Dict[Optional[tuple], int]] = {}

    @staticmethod
    def _encoding(cx: Complex, key: tuple, targets) -> tuple:
        if len(key) > 1 and all(n == 1 for _, n in key[2]):
            color = cx._refinement_colors()
            return tuple(sorted(tuple(sorted(map(color.__getitem__, f))) for f in cx.facets))
        return cx._canonical_code(targets)[0]

    def _lookup(self, cx: Complex) -> Tuple[tuple, Optional[tuple], Optional[int]]:
        """cx's fingerprint, its encoding (None in an empty bucket) and
        the index of its class.  A search that meets no class of the
        bucket runs to the end, so a new class gets the full form."""
        key = fingerprint(cx)
        bucket = self._buckets.get(key)
        if not bucket:
            return key, None, None
        if None in bucket:
            i = bucket.pop(None)
            bucket[self._encoding(self.members[i], key, ())] = i
        enc = self._encoding(cx, key, bucket)
        return key, enc, bucket.get(enc)

    def find(self, cx: Complex) -> Optional[int]:
        """The index of cx's class, or None."""
        return self._lookup(cx)[2]

    def add(self, cx: Complex) -> Tuple[int, bool]:
        """The index of cx's class, and whether cx opened it."""
        key, enc, i = self._lookup(cx)
        if i is not None:
            return i, False
        self._buckets.setdefault(key, {})[enc] = len(self.members)
        self.members.append(cx)
        return len(self.members) - 1, True


# -- module-level operations (canonical output labels) -----------------


def validate(facets: Iterable[Iterable[int]]) -> Complex:
    """Check raw facet data and return the complex it describes.

    Raises InvalidComplexError on an empty facet list, an empty facet,
    a facet that repeats a vertex, non-integer labels, duplicate facets,
    or a facet contained in another.  Labels are preserved.
    """
    facets = [list(f) for f in facets]
    if not facets:
        raise InvalidComplexError("a complex needs at least one facet")
    for f in facets:
        if len(set(f)) != len(f):
            raise InvalidComplexError(f"facet {f} repeats a vertex")
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
    face_id = {f: i for i, f in enumerate(cx.faces())}
    # a maximal chain below a facet drops one vertex at a time: the
    # suffixes of one ordering of the facet's vertices
    return Complex._from_trusted({
        frozenset(face_id[frozenset(p[i:])] for i in range(len(p)))
        for top in cx.facets
        for p in itertools.permutations(sorted(top))
    })


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
    # lists and objects are the JSON values that cannot be vertex labels
    if not isinstance(facets, list) or not all(
            isinstance(f, list) and not any(isinstance(v, (list, dict)) for v in f) for f in facets):
        raise InvalidComplexError('expected an object with a "facets" list of lists')
    return validate(facets)


def loads(text: str) -> Complex:
    """Parse either serialization; JSON when the text starts with '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except RecursionError:
            raise InvalidComplexError("JSON nested too deeply") from None
        return from_json_obj(obj)
    return from_text(text)
