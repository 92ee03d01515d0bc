"""Slack matrices of explicit polytope descriptions.

The slack matrix of a polytope given by vertices v_1..v_n and valid
inequalities a_i . x <= b_i has entries b_i - a_i . v_j, all nonnegative.
A slack matrix is a 1-product exactly when the polytope is affinely
equivalent to a Cartesian product, and the irreducible blocks of
`products.factorize_irreducible` are slack matrices of the Cartesian
factors.  Whether an arbitrary nonnegative matrix
is a slack matrix of *some* polytope is not decided here (that verification
problem is open); callers assert it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import Matrix, MatrixFormatError, _header, parse_matrix


class SlackError(ValueError):
    """Inconsistent vertex/inequality descriptions (negative slack)."""


@dataclass(frozen=True)
class VRep:
    """Vertex description: n points in dimension d, exact coordinates."""

    d: int
    points: tuple  # tuple of coordinate tuples

    def __post_init__(self):
        if not self.points:
            raise ValueError("need at least one point")
        if any(len(p) != self.d for p in self.points):
            raise ValueError("point dimension mismatch")


@dataclass(frozen=True)
class HRep:
    """Inequality description: rows (a, b) meaning a . x <= b."""

    d: int
    ineqs: tuple  # tuple of (coefficient tuple, rhs)

    def __post_init__(self):
        if not self.ineqs:
            raise ValueError("need at least one inequality")
        if any(len(a) != self.d for a, _ in self.ineqs):
            raise ValueError("coefficient dimension mismatch")


def parse_vrep(text: str) -> VRep:
    """Vertex file: the matrix file of n points, header "n d" then n rows of d coordinates."""
    M = parse_matrix(text)
    return VRep(M.n, M.rows)


def parse_hrep(text: str) -> HRep:
    """Inequality file: header "m d", then the m rows "a_1 ... a_d b" of an m x (d+1) matrix file."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MatrixFormatError("empty inequality file")
    m, d = _header(lines[0])
    M = parse_matrix("\n".join([f"{m} {d + 1}"] + lines[1:]))
    return HRep(d, tuple((row[:-1], row[-1]) for row in M.rows))


def slack_from_vh(V: VRep, H: HRep) -> Matrix:
    """Exact slack matrix S[i][j] = b_i - a_i . v_j, one product of object
    arrays; rejects a negative slack, naming the first in row-major order."""
    if V.d != H.d:
        raise ValueError(f"dimension mismatch: points in R^{V.d}, inequalities in R^{H.d}")
    A = np.array([a for a, _ in H.ineqs], dtype=object).reshape(len(H.ineqs), H.d)
    b = np.array([b for _, b in H.ineqs], dtype=object)
    P = np.array(V.points, dtype=object).reshape(len(V.points), V.d)
    S = b[:, None] - A @ P.T
    negative = np.argwhere(S < 0)
    if len(negative):
        i, j = negative[0].tolist()
        raise SlackError(f"point {j} violates inequality {i} (slack {S[i, j]})")
    return Matrix(S)
