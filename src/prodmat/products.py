"""Building, recognizing and factoring 1-products and 2-products.

A matrix is a 1-product when its column multiset is the full "Cartesian"
combination of the columns of two smaller matrices stacked on a row
bipartition.  Recognition minimizes the mutual-information function f with
the pendent-pair minimizer and then re-verifies the candidate bipartition by
the exact multiplicity identity before reconstructing integer factors.

A 2-product glues two matrices along 0/1 special rows; recognition guesses
the special row r and minimizes the conditional information
I(C_X; C_Xc | C_r) over the remaining rows, which is zero exactly when both
column blocks r = 0 and r = 1 are 1-products over one common bipartition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .info import InfoFunction, ZERO_EPS, multiplicity_table
from .matrix import Matrix, ONE, ZERO, dedupe_rows
from .queyranne import minimize_symmetric_with_candidates


def one_product(S1: Matrix, S2: Matrix) -> Matrix:
    """Concatenation of each column of S1 with each column of S2.

    Column j of the result (0-based) is S1's column j // n2 stacked on S2's
    column j % n2.
    """
    n2 = S2.n
    n = S1.n * n2
    rows = []
    for row in S1.rows:
        rows.append(tuple(row[j // n2] for j in range(n)))
    for row in S2.rows:
        rows.append(tuple(row[j % n2] for j in range(n)))
    return Matrix(rows)


@dataclass(frozen=True)
class OneProductCert:
    """Witness that S is a 1-product with respect to the bipartition (X, complement)."""

    X: tuple
    S1: Matrix
    S2: Matrix
    row_map: tuple  # per row of S: ("S1"|"S2", row index in the factor)

    @property
    def Xc(self):
        m = self.S1.m + self.S2.m
        inX = set(self.X)
        return tuple(i for i in range(m) if i not in inX)


@dataclass(frozen=True)
class TwoProductCert:
    """Witness that S is a 2-product: special row, bipartition and factors."""

    special_row: int
    X: tuple  # original row indices going to S1 (ascending)
    S1: Matrix
    x1_index: int
    S2: Matrix
    y1_index: int
    row_map: tuple  # per row of S: ("S1"|"S2", factor row) or ("special", None)


@dataclass(frozen=True)
class Factorization:
    """Partition of the rows into the minimal blocks of irreducible factors."""

    blocks: tuple  # tuple of tuples of original row indices
    factors: tuple  # matching irreducible factor matrices

    @property
    def t(self):
        return len(self.blocks)


def _column_multiset(S: Matrix) -> dict:
    return multiplicity_table(S, range(S.m)).counts


def _stack_rows(S: Matrix, order: Sequence[int]) -> Matrix:
    return Matrix(tuple(S.rows[i] for i in order))


def reconstruct_factors(S: Matrix, X: Sequence[int]) -> Tuple[Matrix, Matrix]:
    """Integer factors (S1, S2) with one_product(S1, S2) column-equivalent to S.

    Requires the exact independence identity on (X, complement).  The
    rank-1 multiplicity matrix mu(a_i, b_j) = u_i * v_j is turned integral by
    clearing denominators of u in ascending i; any valid integral split is
    acceptable, the expansion check decides validity.
    """
    X = tuple(sorted(set(X)))
    Xc = tuple(i for i in range(S.m) if i not in set(X))
    if not X or not Xc:
        raise ValueError("X must be a nonempty proper row subset")
    F = InfoFunction(S)
    if not F.is_independent_exact(X):
        raise ValueError("rows are not independent across the bipartition")
    n = S.n

    pats_a, idx_a, cnt_a = [], {}, []
    pats_b, idx_b, cnt_b = [], {}, []
    for j in range(n):
        a = tuple(S.rows[i][j] for i in X)
        b = tuple(S.rows[i][j] for i in Xc)
        if a not in idx_a:
            idx_a[a] = len(pats_a)
            pats_a.append(a)
            cnt_a.append(0)
        if b not in idx_b:
            idx_b[b] = len(pats_b)
            pats_b.append(b)
            cnt_b.append(0)
        cnt_a[idx_a[a]] += 1
        cnt_b[idx_b[b]] += 1

    u = [Fraction(c, n) for c in cnt_a]
    v = [Fraction(c) for c in cnt_b]
    for i in range(len(u)):
        if u[i].denominator != 1:
            q = u[i].denominator
            u = [x * q for x in u]
            v = [x / q for x in v]
    assert all(x.denominator == 1 for x in u) and all(x.denominator == 1 for x in v)

    def build(patterns, reps, row_ids):
        cols = []
        for p, r in zip(patterns, reps):
            cols.extend([p] * int(r))
        return Matrix(tuple(tuple(col[i] for col in cols) for i in range(len(row_ids))))

    S1 = build(pats_a, u, X)
    S2 = build(pats_b, v, Xc)
    assert S1.n * S2.n == n
    return S1, S2


def _expansion_matches(S: Matrix, X: tuple, S1: Matrix, S2: Matrix) -> bool:
    """Column multiset of one_product(S1, S2) equals that of S with rows reordered X then Xc."""
    Xc = tuple(i for i in range(S.m) if i not in set(X))
    reordered = _stack_rows(S, X + Xc)
    return _column_multiset(one_product(S1, S2)) == _column_multiset(reordered)


def recognize_one_product(S: Matrix) -> Optional[OneProductCert]:
    """Decide whether S is a 1-product up to permutation; return a certificate if so.

    The pendent-pair minimizer supplies the candidate bipartition; the
    verdict itself is the exact multiplicity identity.  If the minimizer's
    argmin fails the exact test, every recorded pendent candidate whose float
    value is within the screening threshold is re-tested exactly.
    """
    if S.m < 2:
        return None
    F = InfoFunction(S)
    X, val, cands = minimize_symmetric_with_candidates(F)
    found = None
    if F.is_independent_exact(X):
        found = X
    else:
        for cs, cv in sorted(set(cands), key=lambda c: (c[1], c[0])):
            if cv > ZERO_EPS:
                break
            if cs != X and F.is_independent_exact(cs):
                found = cs
                break
    if found is None:
        return None
    S1, S2 = reconstruct_factors(S, found)
    assert _expansion_matches(S, found, S1, S2)
    inX = set(found)
    Xc = tuple(i for i in range(S.m) if i not in inX)
    row_map = tuple(
        ("S1", found.index(i)) if i in inX else ("S2", Xc.index(i)) for i in range(S.m)
    )
    return OneProductCert(found, S1, S2, row_map)


def factorize_irreducible(S: Matrix) -> Factorization:
    """Split S into the unique partition of minimal irreducible 1-product blocks."""

    def rec(sub: Matrix, orig: tuple):
        cert = recognize_one_product(sub)
        if cert is None:
            return [(orig, sub)]
        Xc = cert.Xc
        left = tuple(orig[i] for i in cert.X)
        right = tuple(orig[i] for i in Xc)
        return rec(cert.S1, left) + rec(cert.S2, right)

    parts = rec(S, tuple(range(S.m)))
    parts.sort(key=lambda p: p[0][0])
    return Factorization(tuple(p[0] for p in parts), tuple(p[1] for p in parts))


# ---------------------------------------------------------------------------
# 2-products
# ---------------------------------------------------------------------------


def _special_row_split(S: Matrix, r: int):
    row = S.rows[r]
    if any(x != 0 and x != 1 for x in row):
        raise ValueError(f"row {r} is not 0/1")
    J0 = [j for j in range(S.n) if row[j] == 0]
    J1 = [j for j in range(S.n) if row[j] == 1]
    if not J0 or not J1:
        raise ValueError(f"row {r} must take both values 0 and 1")
    return J0, J1


def two_product(S1: Matrix, x1: int, S2: Matrix, y1: int) -> Matrix:
    """Glued product [S1^0 x S2^0 | S1^1 x S2^1] with the new 0...0 1...1 special row.

    S1^a is S1 without row x1, restricted to the columns where row x1 equals
    a; none of the four blocks may be empty.
    """
    J0a, J1a = _special_row_split(S1, x1)
    J0b, J1b = _special_row_split(S2, y1)
    rows1 = [i for i in range(S1.m) if i != x1]
    rows2 = [i for i in range(S2.m) if i != y1]
    if not rows1 or not rows2:
        raise ValueError("factors must have rows besides the special row")
    A0 = S1.submatrix(rows1, J0a)
    A1 = S1.submatrix(rows1, J1a)
    B0 = S2.submatrix(rows2, J0b)
    B1 = S2.submatrix(rows2, J1b)
    left = one_product(A0, B0)
    right = one_product(A1, B1)
    rows = []
    for i in range(left.m):
        rows.append(left.rows[i] + right.rows[i])
    rows.append((ZERO,) * left.n + (ONE,) * right.n)
    return Matrix(rows)


def recognize_two_product(S: Matrix) -> Optional[TwoProductCert]:
    """Decide whether S is a 2-product; first success in ascending special-row order.

    For each candidate 0/1 row r the columns split into the r=0 and r=1
    blocks; both blocks must be 1-products with respect to one common row
    bipartition, found by minimizing I(C_X; C_Xc | C_r) over the other rows.
    Acceptance requires the exact identity within both values of r.
    """
    m = S.m
    if m < 3:
        return None
    for r in range(m):
        row = S.rows[r]
        if any(x != 0 and x != 1 for x in row):
            continue
        if all(x == row[0] for x in row):
            continue
        F = InfoFunction(S, given=r)
        X, val, cands = minimize_symmetric_with_candidates(F)
        found = None
        for cs, cv in [(X, val)] + sorted(set(cands), key=lambda c: (c[1], c[0])):
            if cv > ZERO_EPS:
                continue
            if F.is_independent_exact(cs):
                found = cs
                break
        if found is None:
            continue
        rest = F.ground
        A = S.submatrix(rest, [j for j in range(S.n) if row[j] == 0])
        B = S.submatrix(rest, [j for j in range(S.n) if row[j] == 1])
        A1f, A2f = reconstruct_factors(A, found)
        B1f, B2f = reconstruct_factors(B, found)
        X_orig = tuple(rest[i] for i in found)
        Xc_local = tuple(i for i in range(m - 1) if i not in set(found))
        Xc_orig = tuple(rest[i] for i in Xc_local)
        S1 = Matrix(
            tuple(A1f.rows[i] + B1f.rows[i] for i in range(A1f.m))
            + ((ZERO,) * A1f.n + (ONE,) * B1f.n,)
        )
        S2 = Matrix(
            tuple(A2f.rows[i] + B2f.rows[i] for i in range(A2f.m))
            + ((ZERO,) * A2f.n + (ONE,) * B2f.n,)
        )
        assert _expansion_matches(A, found, A1f, A2f)
        assert _expansion_matches(B, found, B1f, B2f)
        row_map = []
        for i in range(m):
            if i == r:
                row_map.append(("special", None))
            elif i in set(X_orig):
                row_map.append(("S1", X_orig.index(i)))
            else:
                row_map.append(("S2", Xc_orig.index(i)))
        return TwoProductCert(r, X_orig, S1, S1.m - 1, S2, S2.m - 1, tuple(row_map))
    return None


# ---------------------------------------------------------------------------
# Exhaustive certificate enumeration for 0/1 matrices with distinct columns.
#
# Used by the matroid recognizer, which must backtrack over all 2-product
# certificates.  On distinct-column matrices the exact independence test
# reduces to the pattern-count identity kX * kXc == n, and any zero
# bipartition is a union of the connected components of the pairwise
# dependence graph, which keeps the enumeration small.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactTwoProductCert:
    """A 2-product certificate plus the column bookkeeping the recognizer needs."""

    special_row: int
    X: tuple  # original row indices on the S1 side
    S1p: Matrix  # S1 with the complement of its special row added, deduped
    x1_pos: int
    S2p: Matrix
    y1_pos: int
    colmap1: tuple  # per original column: column index in S1p
    colmap2: tuple
    sides1: tuple  # (n1_0, n1_1) column counts of the S1 blocks
    sides2: tuple
    block_sizes: tuple  # (|J0|, |J1|)


def _pairwise_dependent(A: np.ndarray) -> np.ndarray:
    """Boolean matrix: rows i,j fail pairwise exact independence (0/1 entries)."""
    m, n = A.shape
    C = A @ A.T
    s = A.sum(axis=1)
    return n * C != np.outer(s, s)


def _distinct_count(A: np.ndarray, rows: Sequence[int]) -> int:
    sub = A[list(rows)]
    if len(rows) <= 63:
        shifts = np.arange(len(rows), dtype=np.uint64)[:, None]
        keys = (sub.astype(np.uint64) << shifts).sum(axis=0, dtype=np.uint64)
        return len(np.unique(keys))
    return np.unique(sub, axis=1).shape[1]


def _patterns_first_occurrence(S: Matrix, rows: tuple, cols: Sequence[int]):
    pats, idx = [], {}
    where = []
    for j in cols:
        key = tuple(S.rows[i][j] for i in rows)
        if key not in idx:
            idx[key] = len(pats)
            pats.append(key)
        where.append(idx[key])
    return pats, where


def iter_two_product_certs_exact(S: Matrix) -> Iterator[ExactTwoProductCert]:
    """All 2-product certificates of a 0/1 distinct-column matrix, lazily.

    Certificates come in ascending special-row order; for a fixed special row
    the bipartitions run over unions of pairwise-dependence components (the
    component holding the smallest row stays on the S2 side).
    """
    m, n = S.m, S.n
    if m < 3 or not S.is_zero_one():
        return
    full = np.array([[int(x) for x in row] for row in S.rows], dtype=np.int64)
    for r in range(m):
        row = S.rows[r]
        if all(x == row[0] for x in row):
            continue
        J0 = [j for j in range(n) if row[j] == 0]
        J1 = [j for j in range(n) if row[j] == 1]
        rest = [i for i in range(m) if i != r]
        A0 = full[np.ix_(rest, J0)]
        A1 = full[np.ix_(rest, J1)]
        dep = _pairwise_dependent(A0) | _pairwise_dependent(A1)

        # connected components of the pairwise dependence graph
        k = len(rest)
        comp = list(range(k))

        def find(a):
            while comp[a] != a:
                comp[a] = comp[comp[a]]
                a = comp[a]
            return a

        for i in range(k):
            for j in range(i + 1, k):
                if dep[i, j]:
                    ra, rb = find(i), find(j)
                    if ra != rb:
                        comp[rb] = ra
        blocks = {}
        for i in range(k):
            blocks.setdefault(find(i), []).append(i)
        blocks = sorted(blocks.values(), key=lambda b: b[0])
        q = len(blocks)
        if q < 2:
            continue

        for mask in range(1, 1 << (q - 1)):
            X = []
            for b in range(1, q):
                if mask >> (b - 1) & 1:
                    X.extend(blocks[b])
            X = sorted(X)
            Xc = sorted(set(range(k)) - set(X))
            n1_0 = _distinct_count(A0, X)
            n2_0 = _distinct_count(A0, Xc)
            if n1_0 * n2_0 != len(J0):
                continue
            n1_1 = _distinct_count(A1, X)
            n2_1 = _distinct_count(A1, Xc)
            if n1_1 * n2_1 != len(J1):
                continue

            Xrows = tuple(rest[i] for i in X)
            Xcrows = tuple(rest[i] for i in Xc)
            pats1_0, w1_0 = _patterns_first_occurrence(S, Xrows, J0)
            pats1_1, w1_1 = _patterns_first_occurrence(S, Xrows, J1)
            pats2_0, w2_0 = _patterns_first_occurrence(S, Xcrows, J0)
            pats2_1, w2_1 = _patterns_first_occurrence(S, Xcrows, J1)

            def factor_with_special(p0, p1, nrows):
                cols = [p + (ZERO,) for p in p0] + [p + (ONE,) for p in p1]
                return Matrix(tuple(tuple(c[i] for c in cols) for i in range(nrows + 1)))

            S1 = factor_with_special(pats1_0, pats1_1, len(Xrows))
            S2 = factor_with_special(pats2_0, pats2_1, len(Xcrows))

            def augment(F):
                comp_row = tuple(ONE - x for x in F.rows[-1])
                out, keep = dedupe_rows(Matrix(F.rows + (comp_row,)))
                return out, keep[F.m - 1]

            S1p, x1_pos = augment(S1)
            S2p, y1_pos = augment(S2)

            colmap1 = [0] * n
            colmap2 = [0] * n
            for pos, j in enumerate(J0):
                colmap1[j] = w1_0[pos]
                colmap2[j] = w2_0[pos]
            for pos, j in enumerate(J1):
                colmap1[j] = n1_0 + w1_1[pos]
                colmap2[j] = n2_0 + w2_1[pos]

            yield ExactTwoProductCert(
                special_row=r,
                X=Xrows,
                S1p=S1p,
                x1_pos=x1_pos,
                S2p=S2p,
                y1_pos=y1_pos,
                colmap1=tuple(colmap1),
                colmap2=tuple(colmap2),
                sides1=(n1_0, n1_1),
                sides2=(n2_0, n2_1),
                block_sizes=(len(J0), len(J1)),
            )
