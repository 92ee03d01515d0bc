import random
from fractions import Fraction

import pytest

from prodmat import (
    HRep,
    Matrix,
    MatrixFormatError,
    SlackError,
    VRep,
    factorize_irreducible,
    is_isomorphic,
    one_product,
    recognize_one_product,
    seeded_shuffle,
    slack_from_vh,
)
from prodmat.matrix import _parse_token
from prodmat.polytopes import parse_hrep, parse_vrep

SEGMENT_V = VRep(1, ((Fraction(0),), (Fraction(1),)))
SEGMENT_H = HRep(1, (((Fraction(-1),), Fraction(0)), ((Fraction(1),), Fraction(1))))
SEGMENT_SLACK = Matrix([[0, 1], [1, 0]])


def square_vh():
    pts = tuple((Fraction(x), Fraction(y)) for x in (0, 1) for y in (0, 1))
    ineqs = (
        ((Fraction(-1), Fraction(0)), Fraction(0)),
        ((Fraction(1), Fraction(0)), Fraction(1)),
        ((Fraction(0), Fraction(-1)), Fraction(0)),
        ((Fraction(0), Fraction(1)), Fraction(1)),
    )
    return VRep(2, pts), HRep(2, ineqs)


def triangle_slack():
    return Matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def test_segment_slack():
    assert slack_from_vh(SEGMENT_V, SEGMENT_H) == SEGMENT_SLACK


def test_square_slack_is_product_of_segments():
    S = slack_from_vh(*square_vh())
    assert S.m == 4 and S.n == 4 and S.is_zero_one()
    prod = one_product(SEGMENT_SLACK, SEGMENT_SLACK)
    assert is_isomorphic(S, prod) is not None


def test_negative_slack_rejected():
    V = VRep(1, ((Fraction(2),),))
    with pytest.raises(SlackError):
        slack_from_vh(V, SEGMENT_H)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        slack_from_vh(VRep(2, ((Fraction(0), Fraction(0)),)), SEGMENT_H)


def test_cartesian_factorize_square():
    S = slack_from_vh(*square_vh())
    fac = factorize_irreducible(S)
    assert fac.t == 2
    for F in fac.factors:
        assert is_isomorphic(F, SEGMENT_SLACK) is not None


def test_triangle_irreducible():
    fac = factorize_irreducible(triangle_slack())
    assert fac.t == 1


def test_triangle_times_segment():
    P = one_product(triangle_slack(), SEGMENT_SLACK)
    sh, _, _ = seeded_shuffle(P, 3)
    fac = factorize_irreducible(sh)
    assert fac.t == 2
    assert sorted(len(b) for b in fac.blocks) == [2, 3]


def test_normalize_preserves_recognizer_verdicts():
    S = one_product(triangle_slack(), SEGMENT_SLACK)
    padded = Matrix(S.rows + (S.rows[0],))  # duplicate row
    N = Matrix(list(dict.fromkeys(padded.rows)))
    assert (recognize_one_product(N) is not None) == (recognize_one_product(S) is not None)


def test_parse_vrep_hrep():
    V = parse_vrep("2 1\n0\n1")
    H = parse_hrep("2 1\n-1 0\n1 1")
    assert slack_from_vh(V, H) == SEGMENT_SLACK
    with pytest.raises(Exception):
        parse_vrep("2 1\n0")
    with pytest.raises(Exception):
        parse_hrep("1 2\n1 1")


@pytest.mark.parametrize("header", ["2", "2 1 1", "2_0 1", "2 1.0", "x 1"])
def test_parse_vrep_hrep_reject_a_bad_header(header):
    with pytest.raises(MatrixFormatError, match="bad header"):
        parse_vrep(f"{header}\n0\n1")
    with pytest.raises(MatrixFormatError, match="bad header"):
        parse_hrep(f"{header}\n-1 0\n1 1")


SLACK_TOKENS = ["0", "1", "2", "-1", "+3", "007", "0.5", "-1.25", "3/4", "-2/6", "4/2", "2.0"]
SLACK_TOKENS += [str(2**70), str(-(2**65))]


def slack_reference(V, H):
    """(slack rows, None) from b_i - a_i . v_j entry by entry, or (None, the
    message of the first negative slack in row-major order)."""
    rows = []
    for i, (a, b) in enumerate(H.ineqs):
        row = []
        for j, v in enumerate(V.points):
            s = b - sum(ai * vi for ai, vi in zip(a, v))
            if s < 0:
                return None, f"point {j} violates inequality {i} (slack {s})"
            row.append(s)
        rows.append(row)
    return rows, None


def test_vertex_and_inequality_files_are_matrix_files():
    # every coordinate and coefficient is its token's `_parse_token` value,
    # and the slack, or the first negative slack, is the per-entry loop's
    rng = random.Random(73)
    outcomes = {"slack": 0, "negative": 0}
    for _ in range(200):
        n, m, d = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3)
        points = [[rng.choice(SLACK_TOKENS) for _ in range(d)] for _ in range(n)]
        rhs = SLACK_TOKENS + [str(10**25)] * 6  # a large b makes a nonnegative slack likely
        ineqs = [[rng.choice(SLACK_TOKENS) for _ in range(d)] + [rng.choice(rhs)] for _ in range(m)]
        if d == 0:
            points = [[]]  # a vertex file holds at least one coordinate per row
            V = VRep(0, ((),))
        else:
            V = parse_vrep(f"{n} {d}\n" + "".join(" ".join(p) + "\n" for p in points))
            assert V.d == d and V.points == tuple(tuple(map(_parse_token, p)) for p in points)
        H = parse_hrep(f"{m} {d}\n" + "".join(" ".join(r) + "\n" for r in ineqs))
        assert H.d == d and H.ineqs == tuple((tuple(map(_parse_token, r[:-1])), _parse_token(r[-1])) for r in ineqs)
        rows, message = slack_reference(V, H)
        if rows is None:
            with pytest.raises(SlackError) as exc:
                slack_from_vh(V, H)
            assert str(exc.value) == message
            outcomes["negative"] += 1
        else:
            assert slack_from_vh(V, H) == Matrix(rows)
            outcomes["slack"] += 1
    assert min(outcomes.values()) >= 40, outcomes
