import itertools
import math
import random

import pytest

from prodmat import (
    InfoFunction,
    Matrix,
    SymmetricOracle,
    minimize_symmetric,
    one_product,
    pendent_pair,
    seeded_shuffle,
)
from prodmat.oracles import bf_submodular_min, cut_oracle
from prodmat.queyranne import minimize_symmetric_with_candidates

from helpers import minimize_info_exact, random_cut_oracle_edges, random_matrix


def test_two_elements():
    oracle = cut_oracle(2, [(0, 1, 3)])
    t, u = pendent_pair(oracle, [(0,), (1,)], (0,))
    assert (t, u) == ((0,), (1,))
    X, v = minimize_symmetric(cut_oracle(2, [(0, 1, 3)]))
    assert X == (0,) and v == 3.0


def test_path_graph_pendent_pair():
    # path 0-1-2 with unit weights: cuts {0}:1, {1}:2, {2}:1 (by enumeration)
    oracle = cut_oracle(3, [(0, 1, 1), (1, 2, 1)])
    t, u = pendent_pair(oracle, [(0,), (1,), (2,)], (0,))
    assert oracle.eval(u) == 1.0


def test_pendent_pair_guarantee_random():
    # f(u) equals the minimum over all sets separating u from t
    rng = random.Random(21)
    for _ in range(30):
        nv = rng.randint(2, 8)
        edges = random_cut_oracle_edges(rng, nv)
        oracle = cut_oracle(nv, edges)
        t, u = pendent_pair(oracle, [(i,) for i in range(nv)], (0,))
        check = cut_oracle(nv, edges)
        best = min(
            check.eval(X)
            for size in range(1, nv)
            for X in itertools.combinations(range(nv), size)
            if (u[0] in X) != (t[0] in X)
        )
        assert oracle.eval(u) == pytest.approx(best, abs=1e-12)


def test_minimize_matches_bruteforce_matrix_f():
    rng = random.Random(22)
    for _ in range(40):
        S = random_matrix(rng, rng.randint(2, 9), rng.randint(1, 8), 0, 2)
        F = InfoFunction(S)
        o1 = SymmetricOracle(F.m, F.f)
        X, v = minimize_symmetric(o1)
        assert o1.calls <= S.m**3
        _, bv = bf_submodular_min(SymmetricOracle(F.m, F.f))
        assert v == pytest.approx(bv, abs=1e-9)


def test_minimize_matches_bruteforce_cuts():
    rng = random.Random(23)
    for _ in range(40):
        nv = rng.randint(2, 9)
        edges = random_cut_oracle_edges(rng, nv)
        o1 = cut_oracle(nv, edges)
        X, v = minimize_symmetric(o1)
        assert o1.calls <= nv**3
        _, bv = bf_submodular_min(cut_oracle(nv, edges))
        assert v == pytest.approx(bv, abs=1e-9)


def _tie_inputs(rng):
    """200 random 3-7 row matrices with entries 0..2, then 200 shuffled
    1-products of two random factors and 200 of three."""
    for _ in range(200):
        yield random_matrix(rng, rng.randint(3, 7), rng.randint(2, 9), 0, 2)
    for factors in (2, 3):
        for _ in range(200):
            P = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 0, 2)
            for _ in range(factors - 1):
                P = one_product(P, random_matrix(rng, rng.randint(1, 2), rng.randint(1, 3), 0, 2))
            yield seeded_shuffle(P, rng.getrandbits(64))[0]


def test_minimize_ties_follow_the_exact_rule():
    # products have many tied minima (every union of atoms reads 0); the
    # argmin must be the one the tie rules pick in exact arithmetic, not
    # the one float rounding picks
    rng = random.Random(25)
    ties = 0
    for S in _tie_inputs(rng):
        F = InfoFunction(S)
        X, v = minimize_symmetric(SymmetricOracle(F.m, F.f))
        want, q = minimize_info_exact(S)
        assert X == want, S.rows
        assert v == pytest.approx((math.log2(q.numerator) - math.log2(q.denominator)) / S.n, abs=1e-9)
        assert (v == 0.0) == (q == 1)
        ties += v == 0.0
    assert ties > 300


def test_paper_product_min_is_zero():
    P = one_product(Matrix([[1, 0], [2, 3]]), Matrix([[1, 0, 0], [0, 1, 1]]))
    F = InfoFunction(P)
    X, v = minimize_symmetric(SymmetricOracle(F.m, F.f))
    assert abs(v) <= 1e-12
    assert X in ((0, 1), (2, 3))


def test_deterministic():
    rng = random.Random(24)
    S = random_matrix(rng, 7, 6, 0, 2)
    F, G = InfoFunction(S), InfoFunction(S)
    r1 = minimize_symmetric_with_candidates(SymmetricOracle(F.m, F.f))
    r2 = minimize_symmetric_with_candidates(SymmetricOracle(G.m, G.f))
    assert r1[0] == r2[0] and r1[1] == r2[1] and r1[2] == r2[2]


def test_generic_oracle_counts_calls():
    oracle = SymmetricOracle(3, lambda X: float(len(X) % 3 != 0))
    minimize_symmetric(oracle)
    assert 0 < oracle.calls <= 27


def test_min_requires_two_elements():
    with pytest.raises(ValueError):
        minimize_symmetric(cut_oracle(1, []))
