"""Integral invariants: Smith normal form and simplicial homology.

All arithmetic is exact over Python ints, so torsion coefficients of
any size are safe.  Matrices are sparse throughout: each row is a list
of (column, value) pairs with distinct columns, ascending as every
builder here emits them, and no dense matrix is ever built.  Boundary
matrices and face counts are read off the complex's one face table
(``Complex.face_tuples``): each face is its ascending label tuple, in
label order, and its own faces are its ``itertools.combinations``.
The elimination copies the rows into {column: value} dicts, skipping
zero values, with a column -> rows index, and works in two passes.  The
unit pass walks the rows lowest first and, where a row has a +-1 entry,
pivots on the first, in row order, whose column holds the fewest rows
(a Markowitz-style rule against fill-in; see Dumas, Heckenbach,
Saunders and Welker, 2003).  The pivot row leaves the index, and every
other row in the pivot's column loses q = row[j] * p times it: with
p = +-1 that step is exact and needs no division.  Column steps would
then change only the pivot row, so the row is dropped with invariant
factor 1.  Boundary and exponent matrices are almost all +-1, so this
pass does nearly all the work.  The residual pass runs gcd steps on
what is left, each time pivoting on an entry of smallest absolute
value, and a pairwise gcd/lcm exchange puts the factors in
divisibility order.  The invariant factors are unique, so neither
pivot rule changes the result.  Homology drops rows across
degrees: column steps behind a unit pivot in column j of d_k change only
row j of d_{k+1}, which d_k d_{k+1} = 0 makes zero, so it is left out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .complex_core import Complex

Row = List[Tuple[int, int]]  # (column, value) pairs, columns ascending


# -- Smith normal form -------------------------------------------------


def smith_diagonal(rows: Sequence[Row], units: Optional[Set[int]] = None) -> List[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the nonzero invariant factors d_1 | d_2 | ... as positive
    ints; zero columns/rows contribute nothing.  The input is a list of
    rows (possibly empty), each a list of (column, value) pairs with
    distinct columns; pairs with value 0 are skipped.  The rows are
    read, never changed.  Given a set ``units``, the unit pass adds the
    column of each of its pivots to it.
    """
    mat = [{c: v for c, v in row if v} for row in rows]
    at: Dict[int, set] = {}  # column -> rows with an entry there
    for i, row in enumerate(mat):
        for j in row:
            at.setdefault(j, set()).add(i)

    def clear_column(i: int, j: int) -> bool:
        """Subtract multiples of row i from every other row with an entry
        in column j; True when column j is left holding row i alone."""
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

    # unit pass: once a unit pivot's column is clear, column steps would
    # change only its own row, so the row is dropped with a factor of 1
    ones = 0
    for i, prow in enumerate(mat):
        j = None
        for c, v in prow.items():  # the first +-1 in the sparsest column
            if v == 1 or v == -1:
                n = len(at[c])
                if j is None or n < best:
                    j, best = c, n
                    if n == 1:
                        break
        if j is None:
            continue
        drop(i)
        p = prow.pop(j)
        for k in at.pop(j):  # q = row[j] // p exactly, as p is +-1
            row = mat[k]
            q = row.pop(j) * p
            for c, v in prow.items():
                w = row.get(c, 0) - q * v
                if w:
                    if c not in row:
                        at[c].add(k)
                    row[c] = w
                else:
                    del row[c]
                    at[c].discard(k)
        ones += 1
        if units is not None:
            units.add(j)
    # residual pass: pivot on an entry of smallest |value| until its row
    # and column are clear; every remainder left is smaller than the pivot
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
    # enforce d_1 | d_2 | ... with pairwise gcd/lcm exchanges
    diag.sort()
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if b % a:
                g = math.gcd(a, b)
                diag[i], diag[j] = g, a // g * b
    diag.sort()
    return [1] * ones + diag


# -- boundary operators ------------------------------------------------


def boundary_matrix(cx: Complex, k: int) -> List[Row]:
    """The k-th boundary operator, one row per (k-1)-face, in the basis
    of k-faces, each in the order of the face table and oriented by
    ascending labels; dropping position i of a face tuple gives the face
    of sign (-1)^i."""
    faces = cx.face_tuples()
    index = {f: i for i, f in enumerate(faces.get(k - 1, ()))}
    rows: List[Row] = [[] for _ in index]
    # combinations(f, k) drops position k first and position 0 last
    signs = [(-1) ** (k - m) for m in range(k + 1)]
    for j, f in enumerate(faces.get(k, ())):
        for g, s in zip(itertools.combinations(f, k), signs):
            rows[index[g]].append((j, s))
    return rows


def _check_boundary_of_boundary(lower: List[Row], upper: List[Row]) -> None:
    """Raise AssertionError unless the product of two consecutive
    boundary matrices is zero in every entry."""
    for row in lower:
        acc: Dict[int, int] = {}
        for i, a in row:
            for j, b in upper[i]:
                acc[j] = acc.get(j, 0) + a * b
        if any(acc.values()):
            raise AssertionError("boundary of boundary is not zero")


# -- homology ----------------------------------------------------------


@dataclass(frozen=True)
class HomologyGroup:
    """One graded piece: free rank and torsion coefficients."""

    degree: int
    betti: int
    torsion: Tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "betti": self.betti,
            "torsion": list(self.torsion),
        }


@dataclass(frozen=True)
class HomologyProfile:
    groups: Tuple[HomologyGroup, ...]

    def betti_numbers(self) -> Tuple[int, ...]:
        return tuple(g.betti for g in self.groups)

    def group(self, degree: int) -> HomologyGroup:
        for g in self.groups:
            if g.degree == degree:
                return g
        return HomologyGroup(degree, 0)

    def euler_characteristic(self) -> int:
        return sum((-1) ** g.degree * g.betti for g in self.groups)

    def to_json(self) -> list:
        return [g.to_json() for g in self.groups]

    @classmethod
    def from_json(cls, obj) -> "HomologyProfile":
        return cls(
            tuple(
                HomologyGroup(e["degree"], e["betti"], tuple(e["torsion"]))
                for e in obj
            )
        )


def homology(cx: Complex) -> HomologyProfile:
    """Unreduced integral simplicial homology in every degree.

    H_k = Z^betti + sum of Z/d for the invariant factors d > 1 of the
    (k+1)-boundary less its rows at the k-boundary's unit pivot columns,
    which d_k d_{k+1} = 0 makes redundant (see above).  Every product of
    consecutive boundary matrices is checked to be zero in every entry,
    on every complex, which catches sign bugs.  Torsion in the Euler
    characteristic cancels, which is checked as a cross-check.  The
    profile is cached on the complex, so the computation and both
    checks run on the first call only.
    """
    if cx.is_empty:
        return HomologyProfile(())
    cached = cx._cache.get("homology")
    if cached is not None:
        return cached
    top = cx.dim
    fvec = [len(fs) for fs in cx.face_tuples().values()]
    snf: Dict[int, List[int]] = {}
    lower = None
    units: Set[int] = set()  # unit pivot columns of d_{k-1}
    for k in range(1, top + 1):
        rows = boundary_matrix(cx, k)
        if lower is not None:
            _check_boundary_of_boundary(lower, rows)
        lower = rows
        kept = [row for i, row in enumerate(rows) if i not in units]
        units = set()
        snf[k] = smith_diagonal(kept, units)
    snf[0] = []
    snf[top + 1] = []
    groups = []
    for k in range(top + 1):
        betti = fvec[k] - len(snf[k]) - len(snf[k + 1])
        torsion = tuple(d for d in snf[k + 1] if d > 1)
        groups.append(HomologyGroup(k, betti, torsion))
    profile = HomologyProfile(tuple(groups))
    if profile.euler_characteristic() != sum((-1) ** k * n for k, n in enumerate(fvec)):
        raise AssertionError("homology disagrees with the Euler characteristic")
    cx._cache["homology"] = profile
    return profile


def betti_numbers(cx: Complex) -> Tuple[int, ...]:
    return homology(cx).betti_numbers()
