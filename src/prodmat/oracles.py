"""Independent brute-force oracles used by tests and derived examples.

Every oracle enumerates exhaustively and never calls the algorithm it
validates; guards are hard errors, not silent truncation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

from .info import InfoFunction
from .matrix import Matrix
from .matroids import GuardExceeded, Matroid
from .queyranne import SymmetricOracle


@dataclass
class OracleReport:
    verdict: bool
    witnesses: tuple = ()
    evaluations: int = 0


def _proper_subsets_avoiding_zero(m: int):
    """One representative per bipartition class: subsets of [m] not containing 0."""
    rest = list(range(1, m))
    for size in range(1, m):
        for comb in itertools.combinations(rest, size):
            yield comb


def bf_one_product(S: Matrix) -> OracleReport:
    """Exact independence test on all 2^(m-1) - 1 bipartition classes."""
    m = S.m
    if m > 16:
        raise GuardExceeded(f"{m} rows exceeds the brute-force bound of 16")
    if m < 2:
        return OracleReport(False)
    F = InfoFunction(S)
    zero_sets = []
    count = 0
    for X in _proper_subsets_avoiding_zero(m):
        count += 1
        if F.is_independent_exact(X):
            zero_sets.append(X)
    return OracleReport(bool(zero_sets), tuple(zero_sets), count)


def bf_submodular_min(oracle) -> Tuple[tuple, float]:
    """Exhaustive minimum of a symmetric function over nonempty proper subsets.

    Returns the lexicographically smallest argmin (ties by sorted tuple).
    """
    m = oracle.m
    if m > 16:
        raise GuardExceeded(f"{m} elements exceeds the brute-force bound of 16")
    if m < 2:
        raise ValueError("need at least 2 elements")
    best = None
    for size in range(1, m):
        for X in itertools.combinations(range(m), size):
            v = oracle.eval(X)
            if best is None or v < best[1] or (v == best[1] and X < best[0]):
                best = (X, v)
    return best


def bf_two_product(S: Matrix) -> OracleReport:
    """All (special row, bipartition) pairs, exact independence on both blocks."""
    m = S.m
    if m > 12:
        raise GuardExceeded(f"{m} rows exceeds the brute-force bound of 12")
    witnesses = []
    count = 0
    if m >= 3:
        rows = S.rows
        for r in range(m):
            row = rows[r]
            if any(x != 0 and x != 1 for x in row):
                continue
            if all(x == row[0] for x in row):
                continue
            J0 = [j for j in range(S.n) if row[j] == 0]
            J1 = [j for j in range(S.n) if row[j] == 1]
            rest = [i for i in range(m) if i != r]
            A = S.submatrix(rest, J0)
            B = S.submatrix(rest, J1)
            FA, FB = InfoFunction(A), InfoFunction(B)
            for X in _proper_subsets_avoiding_zero(m - 1):
                count += 1
                if FA.is_independent_exact(X) and FB.is_independent_exact(X):
                    witnesses.append((r, tuple(rest[i] for i in X)))
    return OracleReport(bool(witnesses), tuple(witnesses), count)


def base_exchange_validator(M: Matroid) -> bool:
    """Equal cardinality plus the exchange axiom, checked exhaustively."""
    if len(M.bases) > 10**5:
        raise GuardExceeded("too many bases for exhaustive validation")
    bases = list(M.bases)
    sizes = {len(b) for b in bases}
    if len(sizes) != 1:
        return False
    bset = M.bases
    for b1 in bases:
        for b2 in bases:
            for e in b1 - b2:
                if not any(b1 - {e} | {f} in bset for f in b2 - b1):
                    return False
    return True


def cut_oracle(n: int, edges: Sequence[Tuple[int, int, float]]) -> SymmetricOracle:
    """Weighted graph cut function as a symmetric submodular oracle."""

    def cut(X: tuple) -> float:
        inX = set(X)
        return float(sum(w for u, v, w in edges if (u in inX) != (v in inX)))

    return SymmetricOracle(n, cut)
