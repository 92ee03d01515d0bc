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

from .matrix import Matrix, MatrixFormatError, _header, _parse_token


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
    """Vertex file: header "n d" then n rows of d coordinates."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MatrixFormatError("empty vertex file")
    n, d = _header(lines[0])
    if len(lines) != n + 1:
        raise MatrixFormatError(f"expected {n} points")
    pts = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != d:
            raise MatrixFormatError(f"expected {d} coordinates in {ln!r}")
        pts.append(tuple(_parse_token(t) for t in toks))
    return VRep(d, tuple(pts))


def parse_hrep(text: str) -> HRep:
    """Inequality file: header "m d" then m rows "a_1 ... a_d b"."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MatrixFormatError("empty inequality file")
    m, d = _header(lines[0])
    if len(lines) != m + 1:
        raise MatrixFormatError(f"expected {m} inequalities")
    ineqs = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != d + 1:
            raise MatrixFormatError(f"expected {d + 1} numbers in {ln!r}")
        nums = [_parse_token(t) for t in toks]
        ineqs.append((tuple(nums[:-1]), nums[-1]))
    return HRep(d, tuple(ineqs))


def slack_from_vh(V: VRep, H: HRep) -> Matrix:
    """Exact slack matrix S[i][j] = b_i - a_i . v_j; rejects negative slacks."""
    if V.d != H.d:
        raise ValueError(f"dimension mismatch: points in R^{V.d}, inequalities in R^{H.d}")
    rows = []
    for i, (a, b) in enumerate(H.ineqs):
        row = []
        for j, v in enumerate(V.points):
            s = b - sum(ai * vi for ai, vi in zip(a, v))
            if s < 0:
                raise SlackError(f"point {j} violates inequality {i} (slack {s})")
            row.append(s)
        rows.append(tuple(row))
    return Matrix(rows)
