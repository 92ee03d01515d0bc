from fractions import Fraction

import pytest

from prodmat import (
    HRep,
    Matrix,
    MatrixFormatError,
    SlackError,
    VRep,
    dedupe_rows,
    factorize_irreducible,
    is_isomorphic,
    one_product,
    recognize_one_product,
    seeded_shuffle,
    slack_from_vh,
)
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
    N = dedupe_rows(padded)[0]
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
