"""Integral invariants: Smith normal form and simplicial homology.

All arithmetic is exact over Python ints, so torsion coefficients of
any size are safe.  Boundary matrices are kept sparse.  The elimination
pivots on a unit (+-1) entry of the lowest remaining row when there is
one: boundary matrices are almost all +-1, and a unit pivot clears its
row and column by exact steps.  Otherwise it pivots on an entry of
smallest absolute value, which both limits coefficient growth and tends
to preserve sparsity.  The invariant factors are unique, so the pivot
rule never changes the result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .complex_core import Complex


# -- Smith normal form -------------------------------------------------


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


def smith_diagonal(rows: Sequence[Sequence[int]]) -> List[int]:
    """Diagonal of the Smith normal form of an integer matrix.

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


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(smith_diagonal(rows))


# -- boundary operators ------------------------------------------------


def boundary_matrix(cx: Complex, k: int) -> List[List[int]]:
    """Matrix of the k-th boundary operator in the bases of sorted
    k-faces and (k-1)-faces, each simplex oriented by ascending labels."""
    faces = cx.faces_by_dim()
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


def _sparse_rows(mat: List[List[int]]) -> List[List[Tuple[int, int]]]:
    return [[(j, row[j]) for j in itertools.compress(range(len(row)), row)] for row in mat]


def _check_boundary_of_boundary(lower, upper) -> None:
    """Assert that the product of two consecutive boundary matrices,
    each given by its sparse rows, is zero in every entry."""
    for row in lower:
        acc: Dict[int, int] = {}
        for i, a in row:
            for j, b in upper[i]:
                acc[j] = acc.get(j, 0) + a * b
        assert not any(acc.values()), "boundary of boundary is not zero"


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
    (k+1)-boundary.  On complexes of at most 200 facets every product of
    consecutive boundary matrices is checked to be zero, which catches
    sign bugs.  Torsion in the Euler characteristic cancels, which is
    asserted as a cross-check.  The profile is cached on the complex,
    so the computation and both checks run on the first call only.
    """
    if cx.is_empty:
        return HomologyProfile(())
    cached = cx._cache.get("homology")
    if cached is not None:
        return cached
    check = __debug__ and len(cx.facets) <= 200
    fvec = cx.f_vector()
    top = cx.dim
    snf: Dict[int, List[int]] = {}
    lower = None
    for k in range(1, top + 1):
        mat = boundary_matrix(cx, k)
        if check:
            upper = _sparse_rows(mat)
            if lower is not None:
                _check_boundary_of_boundary(lower, upper)
            lower = upper
        snf[k] = smith_diagonal(mat)
        del mat  # the dense matrix is large: free it before building the next
    snf[0] = []
    snf[top + 1] = []
    groups = []
    for k in range(top + 1):
        betti = fvec[k] - len(snf[k]) - len(snf[k + 1])
        torsion = tuple(d for d in snf[k + 1] if d > 1)
        groups.append(HomologyGroup(k, betti, torsion))
    profile = HomologyProfile(tuple(groups))
    assert profile.euler_characteristic() == cx.euler_characteristic()
    cx._cache["homology"] = profile
    return profile


def betti_numbers(cx: Complex) -> Tuple[int, ...]:
    return homology(cx).betti_numbers()
