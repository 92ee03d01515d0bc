"""Seeded differential fuzz: the recognizers against the brute-force oracles.

Every verdict must equal the exhaustive oracle's, and every positive
certificate must re-expand to a matrix isomorphic to the input.
"""

import random

from prodmat import (
    Matrix,
    is_isomorphic,
    one_product,
    recognize_one_product,
    recognize_two_product,
    seeded_shuffle,
    two_product,
)
from prodmat.oracles import bf_one_product, bf_two_product

from helpers import random_matrix


def _small_factor(rng):
    # nonconstant rows, so that a flipped entry cannot hide behind a
    # constant row (which always splits off as a factor of its own)
    rows = [rng.sample(range(3), 2) for _ in range(rng.randint(1, 2))]
    F = Matrix(rows)
    return F.submatrix(range(F.m), [0, 1] + [rng.randrange(2) for _ in range(rng.randint(0, 1))])


def _flip_one(rng, S):
    rows = [list(r) for r in S.rows]
    i, j = rng.randrange(S.m), rng.randrange(S.n)
    rows[i][j] = (rows[i][j] + rng.randint(1, 2)) % 3
    return Matrix(rows)


def _check_one_product(S):
    cert = recognize_one_product(S)
    assert (cert is not None) == bf_one_product(S).verdict
    if cert is not None:
        assert is_isomorphic(one_product(cert.S1, cert.S2), S) is not None


def _check_two_product(S):
    cert = recognize_two_product(S)
    assert (cert is not None) == bf_two_product(S).verdict
    if cert is not None:
        re = two_product(cert.S1, cert.x1_index, cert.S2, cert.y1_index)
        assert is_isomorphic(re, S) is not None


def test_differential_products_and_near_misses():
    rng = random.Random(61)
    for k in range(120):
        P = _small_factor(rng)
        for _ in range(rng.randint(1, 3)):
            P = one_product(P, _small_factor(rng))
        if k % 2:
            P = _flip_one(rng, P)
        S = seeded_shuffle(P, rng.getrandbits(64))[0]
        _check_one_product(S)
        if S.m >= 3:
            _check_two_product(S)


def test_differential_two_products():
    rng = random.Random(62)
    done = 0
    while done < 60:
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        x1 = tuple(rng.randint(0, 1) for _ in range(n1))
        y1 = tuple(rng.randint(0, 1) for _ in range(n2))
        if len(set(x1)) < 2 or len(set(y1)) < 2:
            continue
        hi = rng.randint(1, 2)
        S1 = Matrix(random_matrix(rng, rng.randint(1, 3), n1, 0, hi).rows + (x1,))
        S2 = Matrix(random_matrix(rng, rng.randint(1, 3), n2, 0, hi).rows + (y1,))
        T = two_product(S1, S1.m - 1, S2, S2.m - 1)
        if done % 2:
            T = _flip_one(rng, T)
        S = seeded_shuffle(T, rng.getrandbits(64))[0]
        _check_two_product(S)
        _check_one_product(S)
        done += 1


def test_differential_two_products_with_a_function_of_the_special_row():
    # a row that is a function of a 0/1 row r (1 - r or 2*r) is constant
    # within both values of r, so it is a component of its own given r; the
    # screen keeps it, and the verdict still matches brute force.  Half of
    # the inputs are 2-products, half random 0/1 and 0..2 rows; half of each
    # have one flipped entry
    rng = random.Random(63)
    for k in range(80):
        if k % 4 < 2:
            n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
            S1 = Matrix(random_matrix(rng, rng.randint(1, 2), n1, 0, 2).rows + ((0, 1) + (1,) * (n1 - 2),))
            S2 = Matrix(random_matrix(rng, rng.randint(1, 2), n2, 0, 1).rows + ((1, 0) + (0,) * (n2 - 2),))
            rows = list(two_product(S1, S1.m - 1, S2, S2.m - 1).rows)
        else:
            n = rng.randint(3, 9)
            rows = list(random_matrix(rng, rng.randint(1, 3), n, 0, 2).rows) + [tuple(rng.randint(0, 1) for _ in range(n))]
        r = rows[-1]
        rows.append(tuple(1 - x for x in r) if rng.random() < 0.5 else tuple(2 * x for x in r))
        T = Matrix(rows)
        if k % 2:
            T = _flip_one(rng, T)
        S = seeded_shuffle(T, rng.getrandbits(64))[0]
        _check_two_product(S)
