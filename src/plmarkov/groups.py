"""Finitely presented groups: words, presentations, simplification.

Words are tuples of nonzero ints: letter +k is the k-th generator
(1-based), -k its inverse.  The text syntax uses one lowercase letter
per generator and the matching uppercase letter for its inverse, e.g.
``a,b|abAB,aa`` presents <a, b | aba^-1b^-1, a^2>.

Everything here is deterministic: simplification applies the first
applicable rewrite in a fixed scan order, so equal inputs yield equal
traces and results.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import string
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
        if self.num_generators <= 26:
            return tuple(string.ascii_lowercase[: self.num_generators])
        return tuple(f"x{i + 1}" for i in range(self.num_generators))

    def __repr__(self):
        return (
            f"FinitePresentation({self.num_generators} generators, "
            f"{len(self.relators)} relators)"
        )


def parse_presentation(text: str) -> FinitePresentation:
    """Parse ``names|words``, e.g. ``a,b|abAB,aa`` or ``|`` for the
    presentation of the trivial group with no generators."""
    if "|" not in text:
        raise ValueError("presentation text needs a '|' separator")
    left, right = text.split("|", 1)
    names = [t.strip() for t in left.split(",") if t.strip()]
    for n in names:
        if len(n) != 1 or n not in string.ascii_lowercase:
            raise ValueError(f"generator name {n!r} must be one lowercase letter")
    if len(set(names)) != len(names):
        raise ValueError("repeated generator name")
    index = {n: i + 1 for i, n in enumerate(names)}
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
    names = p.generator_names()
    left = ",".join(names)
    right = ",".join(format_word(r, names) for r in p.relators)
    return f"{left}|{right}"


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


def _order(r: Word) -> Tuple[int, Word]:
    return len(r), r


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


def tietze_simplify(
    p: FinitePresentation, budget: int = 10000
) -> Tuple[FinitePresentation, List[str]]:
    """Deterministic greedy simplification.

    Moves, in scan priority: discard empty and duplicate relators;
    cyclically reduce; eliminate a generator that occurs exactly once in
    some relator (shortest relator first); shorten a relator using
    another whose content overlaps more than half of it.  The budget
    counts applied moves.  The abelianization is recomputed and compared
    at the end as a safety net.  Relators live in one list sorted by
    (length, word), one per key (the least rotation of the word or of
    its inverse), beside a key -> relator dict.  A move takes out only
    the relators it rewrites and bisects the rewrites back in, keeping
    the smaller (length, word) on a key collision, as a full
    sort-and-dedupe would.  Each word's key and least once-occurring
    generator are cached.

    Generators keep their original labels until the loop ends and are
    renumbered once, in the output.  Renumbering keeps signs and the
    order of |x|, so it is strictly increasing on letters: it keeps the
    (length, word) order of relators, the least rotation of each, and
    the least generator occurring once.  Every move is therefore the one
    that renumbering after each elimination would choose, and a trace
    line names the generator by that current index.  An elimination
    rewrites only the relators that hold +-g, read off a generator ->
    relators index; the others are cyclically reduced already and would
    come back unchanged.
    """
    before = abelianization(p)
    eliminated: List[int] = []  # original labels, ascending
    trace: List[str] = []
    spent = 0
    relators: List[Word] = []  # sorted by _order, one relator per key
    owner: Dict[Word, Word] = {}  # key -> the relator holding it
    facts: Dict[Word, Tuple[Word, int]] = {}  # word -> (key, least once-generator or 0)
    holding: Dict[int, Set[Word]] = {}  # generator -> relators holding it or its inverse

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
        for g in set(map(abs, r)):
            holding[g].discard(r)

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
        for g in set(map(abs, r)):
            holding.setdefault(g, set()).add(r)

    for r in p.relators:
        add(cyclic_reduce(r))
    while spent < budget:
        # 1) a generator occurring exactly once in some relator can be
        #    solved for and removed; the shortest such relator goes first
        move = next(((r, fact(r)[1]) for r in relators if fact(r)[1]), None)
        if move:
            r, g = move
            i = next(j for j, x in enumerate(r) if abs(x) == g)
            # r = u g v  =>  g = u^-1 v^-1 ; r = u g^-1 v => g = v u
            u, x, v = r[:i], r[i], r[i + 1 :]
            if x > 0:
                image = free_reduce(inverse_word(u) + inverse_word(v))
            else:
                image = free_reduce(v + u)
            drop(r)
            # in any order: no rewrite holds g, so none displaces a
            # relator still to rewrite, and a key collision keeps the
            # smaller (length, word) whichever comes first
            for w in list(holding[g]):
                drop(w)
                add(cyclic_reduce(_substitute(w, g, image)))
            index = g - bisect.bisect_left(eliminated, g)
            bisect.insort(eliminated, g)
            trace.append(f"eliminate generator {index} using relator of length {len(r)}")
            spent += 1
            continue
        # 2) overlap shortening: rewrite r2 with r1 when over half of r1
        #    appears inside r2
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
    # renumbering keeps the (length, word) order of the list
    out = FinitePresentation(
        len(rank),
        tuple(tuple(rank[x] if x > 0 else -rank[-x] for x in r) for r in relators),
    )
    after = abelianization(out)
    assert after == before, (
        "simplification changed the abelianization"
    )
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
    complex, based at its smallest vertex.

    A breadth-first spanning tree from that vertex collapses; each
    non-tree edge of the 1-skeleton becomes a generator, and each
    triangle contributes the relator spelled by its three sides.  The
    result depends only on the complex, not on dict ordering.
    """
    if cx.is_empty:
        raise ValueError("empty complex has no fundamental group")
    verts = cx.vertices
    basepoint = verts[0]
    # the face table lists the edges in label order, so every adjacency
    # list comes out ascending
    edges = [tuple(sorted(e)) for e in cx.faces(1)]
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
