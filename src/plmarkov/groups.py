"""Finitely presented groups: words, presentations, simplification.

Words are tuples of nonzero ints: letter +k is the k-th generator
(1-based), -k its inverse.  The text syntax uses one lowercase letter
per generator and the matching uppercase letter for its inverse, e.g.
``a,b|abAB,aa`` presents <a, b | aba^-1b^-1, a^2>.

The fundamental group of a complex is presented relative to a
contractible 2-subcomplex grown from a spanning tree, so few generators
reach Tietze simplification, a plain loop that rewrites the relators
a move touches and re-sorts them all.  Everything here is
deterministic: simplification applies the first applicable rewrite in
a fixed scan order, so equal inputs yield equal traces and results.
"""

from __future__ import annotations

import collections
import functools
import itertools
import string
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from . import verdict as vd
from .complex_core import Complex
from .invariants import smith_diagonal

Word = Tuple[int, ...]


def free_reduce(word: Iterable[int]) -> Word:
    out: List[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(word: Iterable[int]) -> Word:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def inverse_word(word: Iterable[int]) -> Word:
    return tuple(-x for x in reversed(tuple(word)))


@dataclass(frozen=True)
class FinitePresentation:
    """Generators and relators; relators are kept freely reduced."""

    num_generators: int
    relators: Tuple[Word, ...]
    names: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.names and len(self.names) != self.num_generators:
            raise ValueError("one name per generator required")
        _check_names(self.names)
        for r in self.relators:
            for x in r:
                if x == 0 or abs(x) > self.num_generators:
                    raise ValueError(f"letter {x} outside generator range")
        object.__setattr__(
            self, "relators", tuple(free_reduce(r) for r in self.relators)
        )

    def generator_names(self) -> Tuple[str, ...]:
        if self.names:
            return self.names
        if self.num_generators > 26:
            raise ValueError(f"{self.num_generators} generators: the compact "
                             "presentation syntax has only 26 letters")
        return tuple(string.ascii_lowercase[: self.num_generators])

    def __repr__(self):
        return (
            f"FinitePresentation({self.num_generators} generators, "
            f"{len(self.relators)} relators)"
        )


def _check_names(names: Sequence[str]) -> None:
    """Names the text syntax can write: distinct single lowercase letters."""
    for n in names:
        if len(n) != 1 or n not in string.ascii_lowercase:
            raise ValueError(f"generator name {n!r} must be one lowercase letter")
    if len(set(names)) != len(names):
        raise ValueError("repeated generator name")


def parse_presentation(text: str) -> FinitePresentation:
    """Parse ``names|words``, e.g. ``a,b|abAB,aa`` or ``|`` for the
    presentation of the trivial group with no generators."""
    if "|" not in text:
        raise ValueError("presentation text needs a '|' separator")
    left, right = text.split("|", 1)
    names = [t.strip() for t in left.split(",") if t.strip()]
    _check_names(names)
    relators = []
    for tok in right.split(","):
        tok = tok.strip()
        if not tok:
            continue
        relators.append(parse_word(tok, tuple(names)))
    return FinitePresentation(len(names), tuple(relators), tuple(names))


def parse_word(text: str, names: Sequence[str]) -> Word:
    index = {n: i + 1 for i, n in enumerate(names)}
    word = []
    for ch in text.strip():
        if ch in index:
            word.append(index[ch])
        elif ch.lower() in index and ch in string.ascii_uppercase:
            word.append(-index[ch.lower()])
        elif ch.isspace():
            continue
        else:
            raise ValueError(f"letter {ch!r} is not a declared generator")
    return tuple(word)


def format_word(word: Word, names: Sequence[str]) -> str:
    out = []
    for x in word:
        n = names[abs(x) - 1]
        if len(n) != 1:
            raise ValueError("compact word syntax needs single-letter names")
        out.append(n if x > 0 else n.upper())
    return "".join(out)


def format_presentation(p: FinitePresentation) -> str:
    # an empty relator is written as xX, which reads back as the empty word
    names = p.generator_names()
    if not names and () in p.relators:
        raise ValueError("an empty relator needs a generator to be written with")
    right = ",".join(format_word(r, names) or names[0] + names[0].upper() for r in p.relators)
    return f"{','.join(names)}|{right}"


# -- abelianization ----------------------------------------------------


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus torsion factors
    d_1 | d_2 | ... (each > 1)."""

    rank: int
    torsion: Tuple[int, ...] = ()

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


@functools.lru_cache(maxsize=8)
def abelianization(p: FinitePresentation) -> AbelianGroup:
    """Quotient by all commutators, via the normal form of the exponent
    matrix (relators x generators), one sparse row of nonzero exponent
    sums per relator.  Memoized: presentations and the result are
    immutable, and one report abelianizes the same large edge-path
    presentation several times."""
    if p.num_generators == 0:
        return AbelianGroup(0)
    rows = []
    for r in p.relators:
        row: Dict[int, int] = {}
        for x in r:
            g = abs(x) - 1
            row[g] = row.get(g, 0) + (1 if x > 0 else -1)
        rows.append(sorted((g, e) for g, e in row.items() if e))
    diag = smith_diagonal(rows) if rows else []
    rank = p.num_generators - len(diag)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianGroup(rank, torsion)


# -- Tietze simplification ---------------------------------------------


def _substitute(word: Word, gen: int, image: Word) -> Word:
    """Replace generator ``gen`` by ``image`` (and its inverse
    accordingly), then freely reduce."""
    out: List[int] = []
    inv = inverse_word(image)
    for x in word:
        if x == gen:
            out.extend(image)
        elif x == -gen:
            out.extend(inv)
        else:
            out.append(x)
    return free_reduce(out)


def _once(r: Word) -> int:
    """The least generator occurring exactly once in ``r``, or 0."""
    counts = collections.Counter(map(abs, r))
    return min((g for g, c in counts.items() if c == 1), default=0)


def _renumber(w: Word, g: int) -> Word:
    """``w`` with the letters above generator ``g`` moved down one place."""
    return tuple(y - (y > g) + (y < -g) for y in w)


def _order(r: Word) -> Tuple[int, Word]:
    return len(r), r


def _rotations(r: Word) -> Set[Word]:
    """The rotations of ``r`` and of its inverse: the least is its key."""
    return {w[i:] + w[:i] for w in (r, inverse_word(r)) for i in range(len(r))}


def _merge(kept: List[Word], fresh: List[Word]) -> List[Word]:
    """The nonempty relators of both lists sorted by (length, word),
    keeping the first of each key.  ``kept`` must be sorted and unique
    already: only its relators sharing a key with a fresh one are keyed
    again."""
    taken = set().union(*map(_rotations, fresh))
    out = [w for w in kept if w not in taken]
    seen: Set[Word] = set()
    for r in sorted(fresh + [w for w in kept if w in taken], key=_order):
        key = min(_rotations(r), default=())
        if r and key not in seen:
            seen.add(key)
            out.append(r)
    return sorted(out, key=_order)


def _shortenings(relators: List[Word]) -> Iterator[Tuple[Word, Word]]:
    """(r2, shorter r2) for each rewrite of r2 by a relator r1 of which
    over half appears inside r2, in scan order."""
    for r1 in relators:
        if len(r1) < 2:
            continue
        variants = sorted(_rotations(r1))
        half = len(r1) // 2 + 1
        for r2 in relators:
            if r2 == r1 or len(r2) < half:
                continue
            for var in variants:
                piece, rest = var[:half], var[half:]
                for j in range(len(r2) - half + 1):
                    if r2[j : j + half] == piece:
                        new = free_reduce(r2[:j] + inverse_word(rest) + r2[j + half :])
                        if len(new) < len(r2):
                            yield r2, cyclic_reduce(new)


def tietze_simplify(
    p: FinitePresentation, budget: int = 10000
) -> Tuple[FinitePresentation, List[str]]:
    """Deterministic greedy simplification, in a plain loop that
    rewrites the relators a move touches, then renumbers and re-sorts.

    Moves, in scan priority: discard empty and duplicate relators;
    cyclically reduce; eliminate a generator that occurs exactly once in
    some relator (shortest relator first, least such generator);
    shorten a relator using another whose content overlaps more than
    half of it.  The budget counts applied moves.  The abelianization is
    recomputed and compared at the end as a safety net.
    """
    before = abelianization(p)
    num = p.num_generators
    relators = _merge([], [cyclic_reduce(r) for r in p.relators])
    trace: List[str] = []
    while len(trace) < budget:
        move = next(((r, g) for r in relators for g in [_once(r)] if g), None)
        if move:
            r, g = move
            i = next(j for j, x in enumerate(r) if abs(x) == g)
            # r = u g v  =>  g = u^-1 v^-1 ; r = u g^-1 v => g = v u
            u, x, v = r[:i], r[i], r[i + 1 :]
            if x > 0:
                image = free_reduce(inverse_word(u) + inverse_word(v))
            else:
                image = free_reduce(v + u)
            # only the relators holding +-g are rewritten; letters above
            # g move down one place, which keeps the order and keys of
            # the others
            held = {w for w in relators if g in w or -g in w}
            relators = _merge(
                [_renumber(w, g) for w in relators if w not in held],
                [_renumber(cyclic_reduce(_substitute(w, g, image)), g) for w in held if w != r])
            num -= 1
            trace.append(f"eliminate generator {g} using relator of length {len(r)}")
            continue
        move = next(_shortenings(relators), None)
        if move is None:
            break
        old, new = move
        relators = _merge([w for w in relators if w != old], [new])
        trace.append(f"shorten relator {len(old)} -> {len(new)}")

    out = FinitePresentation(num, tuple(relators))
    if abelianization(out) != before:
        raise AssertionError("simplification changed the abelianization")
    return out, trace


# -- triviality search -------------------------------------------------


def _perms(m: int) -> List[Tuple[int, ...]]:
    return sorted(itertools.permutations(range(m)))


def _compose(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    # apply b first, then a
    return tuple(a[b[i]] for i in range(len(a)))


def _invert(a: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def _eval_word(word: Word, images: Sequence[Tuple[int, ...]], m: int) -> Tuple[int, ...]:
    acc = tuple(range(m))
    for x in word:
        g = images[abs(x) - 1]
        acc = _compose(acc, g if x > 0 else _invert(g))
    return acc


_MAX_PERMUTATION_DEGREE = 5


def nontrivial_permutation_image(
    p: FinitePresentation, budget: vd.Budget
) -> Optional[dict]:
    """Search for a homomorphism onto a nontrivial subgroup of a
    symmetric group of degree at most 5; a witness proves the group
    nontrivial.

    Returns {"degree": m, "images": [perm, ...]} or None.  Deterministic
    order; the budget counts partial assignments visited.
    """
    if p.num_generators == 0:
        return None
    for m in range(2, _MAX_PERMUTATION_DEGREE + 1):
        perms = _perms(m)
        ident = tuple(range(m))
        images: List[Tuple[int, ...]] = []

        def relators_ok(full: bool) -> bool:
            for r in p.relators:
                if full or all(abs(x) <= len(images) for x in r):
                    if _eval_word(r, images, m) != ident:
                        return False
            return True

        def dfs() -> bool:
            if not budget.spend():
                return False
            if len(images) == p.num_generators:
                return relators_ok(True) and any(g != ident for g in images)
            for cand in perms:
                images.append(cand)
                if relators_ok(False) and dfs():
                    return True
                images.pop()
            return False

        if dfs():
            return {"degree": m, "images": [list(g) for g in images]}
        if budget.exhausted:
            return None
    return None


def semi_decide_trivial(p: FinitePresentation, budget: int = 20000) -> vd.Verdict:
    """Is the presented group trivial?

    yes      simplification reached the empty presentation (witness:
             the rewrite trace)
    no       the abelianization is nontrivial, or a nontrivial
             permutation image exists (witness in detail)
    unknown  neither side settled within budget
    """
    ab = abelianization(p)
    if not ab.is_trivial:
        return vd.no("nontrivial-abelianization", detail=ab.to_json())
    simplified, trace = tietze_simplify(p, budget=max(1, budget // 2))
    if simplified.num_generators == 0:
        return vd.yes(witness=trace)
    b = vd.Budget(max(1, budget // 2))
    image = nontrivial_permutation_image(simplified, b)
    if image is not None:
        return vd.no("nontrivial-permutation-image", detail=image)
    return vd.unknown(
        "budget-exhausted",
        detail={
            "generators_left": simplified.num_generators,
            "relators_left": len(simplified.relators),
        },
    )


# -- fundamental group of a complex ------------------------------------


def edge_path_presentation(cx: Complex) -> FinitePresentation:
    """Edge-path presentation of the fundamental group of a connected
    complex, based at its smallest vertex, relative to a contractible
    2-subcomplex.

    A breadth-first spanning tree from that vertex grows into the
    subcomplex: once two sides of a triangle lie in it, the triangle
    and its third side join it (an elementary expansion; in the group,
    the triangle's relator eliminates the third side).  A worklist over
    an edge -> triangles index runs this to its fixpoint, a monotone
    closure that does not depend on the order of the moves.  This is
    the spanning-tree half of a discrete gradient (Brendel, Dlotko,
    Ellis, Juda and Mrozek, "Computing fundamental groups from point
    clouds", AAECC 26, 2015).  Each edge left outside becomes a
    generator, in label order, and each triangle with a side outside
    contributes the relator spelled by its three sides.  The result
    depends only on the complex, not on dict ordering.
    """
    if cx.is_empty:
        raise ValueError("empty complex has no fundamental group")
    verts = cx.vertices
    basepoint = verts[0]
    # the face table lists the edges as label tuples in label order, so
    # every adjacency list comes out ascending
    faces = cx.face_tuples()
    edges = faces.get(1, ())
    adj: Dict[int, List[int]] = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    # breadth-first tree with ascending neighbor order
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
    trivial = {tuple(sorted((v, parent[v]))) for v in order[1:]}
    triangles = faces.get(2, ())
    cofaces: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
    for t in triangles:
        a, b, c = t
        for e in ((a, b), (b, c), (a, c)):
            cofaces.setdefault(e, []).append(t)
    work = list(trivial)
    while work:
        for a, b, c in cofaces.get(work.pop(), ()):
            left = [e for e in ((a, b), (b, c), (a, c)) if e not in trivial]
            if len(left) == 1:
                trivial.add(left[0])
                work.append(left[0])
    gen_of = {e: i for i, e in enumerate((e for e in edges if e not in trivial), 1)}
    relators = []
    for a, b, c in triangles:
        # the boundary a -> b -> c -> a, skipping the sides inside
        w = tuple(sign * gen_of[e] for sign, e in ((1, (a, b)), (1, (b, c)), (-1, (a, c)))
                  if e in gen_of)
        if w:
            relators.append(w)
    return FinitePresentation(len(gen_of), tuple(relators))
