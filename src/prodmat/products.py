"""Building, recognizing and factoring 1-products and 2-products.

Each product is built in one place, on arrays (`_one_product`,
`_two_product`), and so are the matroid slack builder's sum steps.

A matrix is a 1-product when its column multiset is the full "Cartesian"
combination of the columns of two smaller matrices stacked on a row
bipartition.  Every recognizer reads its zero sets from
`InfoFunction.atoms`, whose unions are exactly the zeros of the
mutual-information function f.  One chain of exact checks merges them from
the components of the pairwise-dependence graph (`InfoFunction._merge`), so
no float enters a verdict.  Two or more atoms make a 1-product, and
atoms[0], the block holding the smallest row, is the canonical cut.  Each
check (`InfoFunction._split_counts`) gives every column the keys and counts
of its two patterns and the verdict of the identity there, and
`_factor_columns` selects the columns of the factors of atom k and the
later atoms from the chain's own counts, only when the identity holds at
every column, which is also the statement that the factors re-expand to S.

A 2-product glues two matrices along 0/1 special rows; recognition guesses
the special row r and reads the atoms of the conditional information
I(C_X; C_Xc | C_r) over the remaining rows, which is zero exactly when both
column blocks r = 0 and r = 1 are 1-products over one common bipartition.
The candidates and their conditional components come from one screen
(`info._special_row_candidates`), which counts the triples given every 0/1
row in one batch on the matrix's shared pair counts, and one generator
(`_two_product_splits`) merges them into atoms.  Both recognizers take
their split from it: `recognize_two_product` and the matroid recognizer's
one split per node (`matroids._two_product_split`), which splits its
1-products on the atoms directly, without `factorize_irreducible`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .info import InfoFunction, _special_row_candidates
from .matrix import Matrix


def _one_product(A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """The 1-product of 2-D arrays: column j is A1's column j // n2 over A2's column j % n2."""
    return np.concatenate((np.repeat(A1, A2.shape[1], axis=1), np.tile(A2, A1.shape[1])))


def one_product(S1: Matrix, S2: Matrix) -> Matrix:
    """Concatenation of each column of S1 with each column of S2 (`_one_product`)."""
    return Matrix(_one_product(S1.array, S2.array))


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


def _first_columns(keys: np.ndarray) -> np.ndarray:
    """The first column of each distinct key, ascending: the keys in order of first occurrence."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    return np.sort(order[new])


def _factor_columns(counts, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Columns (J1, J2) with S[X, J1], S[Xc, J2] the integer factors of S's columns `cols`.

    The columns `cols` share one value of z, and counts is
    `InfoFunction._split_counts` between the rows X and Xc of S.
    With mu_X and mu_Xc the pattern counts of the two sides over the n_z
    columns, the rank-1 split mu_X(a_i) * mu_Xc(b_k) / n_z = u_i * v_k is made
    integral by dividing the u side by g = gcd_i mu_X(a_i); S1 repeats the
    first column of each X pattern u_i times and S2 the first column of each
    Xc pattern v_k times, patterns in order of first occurrence.  The columns
    are returned only if the identity holds at every column, there are at
    most n_z pattern pairs and every v_k is an integer: then every pair is
    observed and mu(a_i, b_k) = u_i * v_k, so the factors re-expand to the
    columns exactly; otherwise ValueError.
    """
    ka, kb, a, b, ok = (c[cols] for c in counts[:5])
    n = len(cols)
    first_a, first_b = _first_columns(ka), _first_columns(kb)
    cnt_a, cnt_b = a[first_a], b[first_b]
    g = math.gcd(*cnt_a.tolist())
    u = cnt_a // g
    v = cnt_b * g // n
    if not ok.all() or len(first_a) * len(first_b) > n or (v * n != cnt_b * g).any():
        raise ValueError("rows are not independent across the bipartition")
    return np.repeat(cols[first_a], u), np.repeat(cols[first_b], v)


def reconstruct_factors(S: Matrix, X: Sequence[int]) -> Tuple[Matrix, Matrix]:
    """Integer factors (S1, S2) with one_product(S1, S2) column-equivalent to S.

    The rows X go to S1 and the rest to S2, each in ascending order; the
    factors are read from the exact check's counts on (X, complement)
    (`_factor_columns`), and ValueError means the rows are dependent.
    """
    F = InfoFunction(S)
    X = tuple(sorted(set(X)))
    F._check_range(X)
    Xc = F._complement(X)
    if not X or not Xc:
        raise ValueError("X must be a nonempty proper row subset")
    cols1, cols2 = _factor_columns(F._split_counts(X, Xc), np.arange(S.n))
    return S.submatrix(X, cols1), S.submatrix(Xc, cols2)


def recognize_one_product(S: Matrix) -> Optional[OneProductCert]:
    """Decide whether S is a 1-product up to permutation; return a certificate if so.

    The bipartition is (atoms[0], rest), with atoms[0] the irreducible block
    holding row 0; the factors are read from the counts of the merge's own
    check of atoms[0] against the rest, where the identity held.
    """
    F = InfoFunction(S)
    atoms, splits = F._merge(F.components())
    if len(atoms) < 2:
        return None
    X = atoms[0]
    Xc = F._complement(X)
    cols1, cols2 = _factor_columns(splits[0], np.arange(S.n))
    S1, S2 = S.submatrix(X, cols1), S.submatrix(Xc, cols2)
    row_map = tuple(("S1", X.index(i)) if i in X else ("S2", Xc.index(i)) for i in range(S.m))
    return OneProductCert(X, S1, S2, row_map)


def factorize_irreducible(S: Matrix) -> Factorization:
    """Split S into the unique partition of minimal irreducible 1-product blocks.

    The blocks are the atoms, and factor k is read from the merge's counts
    of block k against the later blocks.  S is the product of the factors,
    so the last one repeats each pattern of its block (the last check's
    b side) its count in S over the product of the other factors' widths.
    """
    F = InfoFunction(S)
    blocks, splits = F._merge(F.components())
    cols = np.arange(S.n)
    factors = [S.submatrix(block, _factor_columns(counts, cols)[0]) for block, counts in zip(blocks, splits)]
    if factors:
        first = _first_columns(splits[-1][1])
        S = S.submatrix(blocks[-1], np.repeat(first, splits[-1][3][first] // math.prod(f.n for f in factors)))
    return Factorization(tuple(blocks), tuple(factors) + (S,))


# ---------------------------------------------------------------------------
# 2-products
# ---------------------------------------------------------------------------


def _check_special_row(S: Matrix, r: int) -> None:
    """Raise unless r is a row of S that is 0/1 and takes both values."""
    if not 0 <= r < S.m:
        raise IndexError(f"special row {r} out of range for {S.m} rows")
    values = set(S.array[r].tolist())
    if not values <= {0, 1}:
        raise ValueError(f"row {r} is not 0/1")
    if len(values) < 2:
        raise ValueError(f"row {r} must take both values 0 and 1")


def _two_product(A1: np.ndarray, x: int, A2: np.ndarray, y: int):
    """(A, c1, c2): the 2-product of 2-D arrays A1, A2 along their 0/1 rows x, y.

    Column j of A pairs A1's column c1[j] with A2's column c2[j]: the pairs
    with x = y = 0, then x = y = 1, each A1-major.  The rows are A1's without
    x, A2's without y, then x over c1, the 0...0 1...1 special row.
    """
    x1, y1 = A1[x], A2[y]
    c1, c2 = map(np.concatenate, zip(*(np.nonzero(np.logical_and.outer(x1 == a, y1 == a)) for a in (0, 1))))
    L, R = A1[:, c1], A2[:, c2]
    return np.concatenate((L[:x], L[x + 1 :], R[:y], R[y + 1 :], L[x : x + 1])), c1, c2


def two_product(S1: Matrix, x1: int, S2: Matrix, y1: int) -> Matrix:
    """Glued product [S1^0 x S2^0 | S1^1 x S2^1] with the new 0...0 1...1 special row.

    S1^a is S1 without row x1, restricted to the columns where row x1 equals
    a; none of the four blocks may be empty (`_two_product`).  A special
    row outside the factor raises IndexError.
    """
    _check_special_row(S1, x1)
    _check_special_row(S2, y1)
    if S1.m < 2 or S2.m < 2:
        raise ValueError("factors must have rows besides the special row")
    return Matrix(_two_product(S1.array, x1, S2.array, y1)[0])


def _two_product_splits(S: Matrix, out: Optional[np.ndarray] = None):
    """Yield (r, atoms, splits), in increasing r, for the rows r of the screen
    (`_special_row_candidates`, without the rows out[r]) whose components merge
    (`InfoFunction(S, given=r)._merge`) into two or more atoms, given as rows of S."""
    for r, comps in _special_row_candidates(S, out):
        F = InfoFunction(S, given=r)
        atoms, splits = F._merge(comps)
        if len(atoms) >= 2:
            yield r, [tuple(F.ground[i] for i in A) for A in atoms], splits


def recognize_two_product(S: Matrix) -> Optional[TwoProductCert]:
    """Decide whether S is a 2-product; first success in ascending special-row order.

    For each candidate 0/1 row r the columns split into the r=0 and r=1
    blocks; both blocks must be 1-products with respect to one common row
    bipartition, read from the atoms of I(C_X; C_Xc | C_r) over the other
    rows (atoms[0], the block holding the smallest of them), from
    `_two_product_splits`.  Acceptance requires the exact identity within
    both values of r.
    """
    for r, atoms, splits in _two_product_splits(S):
        X = atoms[0]
        Xc = tuple(i for i in range(S.m) if i != r and i not in X)
        # the columns where the 0/1 row r is 0, then 1: r ends each factor as 0...0 1...1
        (A1, A2), (B1, B2) = (_factor_columns(splits[0], np.flatnonzero(S.array[r] == a)) for a in (0, 1))
        S1 = S.submatrix(X + (r,), np.concatenate((A1, B1)))
        S2 = S.submatrix(Xc + (r,), np.concatenate((A2, B2)))
        row_map = tuple(
            ("special", None) if i == r else ("S1", X.index(i)) if i in X else ("S2", Xc.index(i))
            for i in range(S.m)
        )
        return TwoProductCert(r, X, S1, S1.m - 1, S2, S2.m - 1, row_map)
    return None
