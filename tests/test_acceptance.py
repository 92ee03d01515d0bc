"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest -v -s tests/test_acceptance.py
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import random
import time
from fractions import Fraction

from prodmat import (
    HRep,
    InfoFunction,
    Matrix,
    VRep,
    expr_to_slack,
    factorize_irreducible,
    hypersimplex_slack,
    is_isomorphic,
    one_product,
    recognize_2level_matroid_slack,
    recognize_hypersimplex,
    recognize_one_product,
    recognize_two_product,
    seeded_shuffle,
    slack_from_vh,
    uniform_bases,
)
from prodmat.oracles import bf_one_product, bf_submodular_min, bf_two_product, cut_oracle
from prodmat.queyranne import SymmetricOracle, minimize_symmetric

from helpers import (
    base_families_match,
    hypersimplex_col_bases,
    random_cut_oracle_edges,
    random_feasible_expr,
    random_matrix,
)
from math import comb


def report(num, ok, desc):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_worked_examples():
    first = one_product(Matrix([[1, 0]]), Matrix([[0]]))
    ok = first == Matrix([[1, 0], [0, 0]])
    second = one_product(Matrix([[1, 0], [2, 3]]), Matrix([[1, 0, 0], [0, 1, 1]]))
    ok = ok and second == Matrix(
        [[1, 1, 1, 0, 0, 0], [2, 2, 2, 3, 3, 3], [1, 0, 0, 1, 0, 0], [0, 1, 1, 0, 1, 1]]
    )
    report(1, ok, "worked product examples reproduced exactly")


def test_criterion_02_one_product_roundtrip():
    rng = random.Random(1002)
    t0 = time.time()
    good = 0
    for _ in range(200):
        A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5), 0, 3)
        B = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5), 0, 3)
        P = one_product(A, B)
        sh, _, _ = seeded_shuffle(P, rng.getrandbits(64))
        cert = recognize_one_product(sh)
        if cert is not None and is_isomorphic(one_product(cert.S1, cert.S2), sh) is not None:
            good += 1
    elapsed = time.time() - t0
    report(
        2,
        good == 200 and elapsed < 60.0,
        f"200/200 shuffled 1-products recognized and re-expanded ({elapsed:.1f}s < 60s)"
        if good == 200
        else f"only {good}/200 succeeded ({elapsed:.1f}s)",
    )


def test_criterion_03_soundness_vs_oracle():
    rng = random.Random(1003)
    mismatch1 = 0
    for _ in range(500):
        S = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 12), 0, 2)
        if (recognize_one_product(S) is not None) != bf_one_product(S).verdict:
            mismatch1 += 1
    mismatch2 = 0
    for _ in range(200):
        S = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 12), 0, 2)
        if (recognize_two_product(S) is not None) != bf_two_product(S).verdict:
            mismatch2 += 1
    report(
        3,
        mismatch1 == 0 and mismatch2 == 0,
        f"recognizer = oracle on 500 1-product and 200 2-product instances "
        f"({mismatch1}+{mismatch2} mismatches)",
    )


def test_criterion_04_queyranne_correctness():
    rng = random.Random(1004)
    bad = 0
    over_budget = 0
    for _ in range(100):
        m = rng.randint(2, 12)
        S = random_matrix(rng, m, rng.randint(1, 10), 0, 2)
        F = InfoFunction(S)
        oracle = SymmetricOracle(F.m, F.f)
        _, v = minimize_symmetric(oracle)
        if oracle.calls > m**3:
            over_budget += 1
        _, bv = bf_submodular_min(SymmetricOracle(F.m, F.f))
        if abs(v - bv) > 1e-9:
            bad += 1
    for _ in range(100):
        nv = rng.randint(2, 12)
        edges = random_cut_oracle_edges(rng, nv)
        oracle = cut_oracle(nv, edges)
        _, v = minimize_symmetric(oracle)
        if oracle.calls > nv**3:
            over_budget += 1
        _, bv = bf_submodular_min(cut_oracle(nv, edges))
        if abs(v - bv) > 1e-9:
            bad += 1
    report(
        4,
        bad == 0 and over_budget == 0,
        f"minimizer = brute force within 1e-9 on 200 oracles, calls <= m^3 "
        f"({bad} value mismatches, {over_budget} over budget)",
    )


def test_criterion_05_f_properties():
    rng = random.Random(1005)
    checked = 0
    ok = True
    while checked < 1000:
        S = random_matrix(rng, rng.randint(2, 8), rng.randint(1, 10), 0, 2)
        F = InfoFunction(S)
        for _ in range(5):
            X = {i for i in range(S.m) if rng.random() < 0.5}
            Y = {i for i in range(S.m) if rng.random() < 0.5}
            Xc = set(range(S.m)) - X
            fX = F.f(X)
            fY = F.f(Y)
            submod = fX + fY >= F.f(X | Y) + F.f(X & Y) - 1e-9
            sym = abs(fX - F.f(Xc)) <= 1e-12
            nonneg = fX >= -1e-12
            ok = ok and submod and sym and nonneg
            checked += 1
            if checked >= 1000:
                break
    report(5, ok, "1000 (S, X, Y) triples satisfy submodularity, symmetry, nonnegativity")


def _random_irreducible(rng):
    while True:
        S = random_matrix(rng, rng.randint(2, 4), rng.randint(2, 4), 0, 2)
        if not bf_one_product(S).verdict:
            return S


def test_criterion_06_unique_factorization():
    rng = random.Random(1006)
    ok = True
    for _ in range(20):
        P = one_product(
            one_product(_random_irreducible(rng), _random_irreducible(rng)),
            _random_irreducible(rng),
        )
        reference = None
        for _ in range(20):
            sh, rp, _ = seeded_shuffle(P, rng.getrandbits(64))
            fac = factorize_irreducible(sh)
            mapped = frozenset(frozenset(rp[i] for i in blk) for blk in fac.blocks)
            if reference is None:
                reference = mapped
            ok = ok and mapped == reference
    report(6, ok, "partitions of 20 shuffles x 20 triple products agree as set families")


def test_criterion_07_hypersimplex_counts_and_recognition():
    rng = random.Random(1007)
    ok = True
    for d in range(2, 9):
        for k in range(1, d):
            S = hypersimplex_slack(d, k)
            if 2 <= k <= d - 2:
                ok = ok and S.m == 2 * d and S.n == comb(d, k)
            else:
                ok = ok and S.m == d and S.n == d
            sh, _, _ = seeded_shuffle(S, rng.getrandbits(64))
            form = recognize_hypersimplex(sh)
            ok = ok and form is not None and form.d == d and form.k == min(k, d - k)
            if form is not None:
                bases = hypersimplex_col_bases(sh, form)
                ok = ok and set(bases) == uniform_bases(d, form.k).bases
    report(7, ok, "hypersimplex shapes exact and recognizer inverts shuffles for d <= 8")


def test_criterion_08_matroid_roundtrip():
    rng = random.Random(1008)
    t0 = time.time()
    good = 0
    for _ in range(100):
        e, S, bases = random_feasible_expr(rng, max_leaves=5, dmax=6, max_cols=600, max_rows=40)
        sh, _, cp = seeded_shuffle(S, rng.getrandbits(64))
        rec = recognize_2level_matroid_slack(sh)
        if rec is None:
            continue
        if is_isomorphic(expr_to_slack(rec.expr), sh) is None:
            continue
        orig = [bases[cp[j]] for j in range(S.n)]
        if base_families_match(orig, rec):
            good += 1
    elapsed = time.time() - t0
    report(
        8,
        good == 100 and elapsed < 600.0,
        f"100/100 matroid slack round trips with base-family match ({elapsed:.1f}s < 600s)"
        if good == 100
        else f"only {good}/100 matroid round trips succeeded ({elapsed:.1f}s)",
    )


def test_criterion_09_square_slack_geometry():
    V = VRep(2, tuple((Fraction(x), Fraction(y)) for x in (0, 1) for y in (0, 1)))
    H = HRep(
        2,
        (
            ((Fraction(-1), Fraction(0)), Fraction(0)),
            ((Fraction(1), Fraction(0)), Fraction(1)),
            ((Fraction(0), Fraction(-1)), Fraction(0)),
            ((Fraction(0), Fraction(1)), Fraction(1)),
        ),
    )
    S = slack_from_vh(V, H)
    cert = recognize_one_product(S)
    segment = Matrix([[0, 1], [1, 0]])
    ok = (
        cert is not None
        and is_isomorphic(cert.S1, segment) is not None
        and is_isomorphic(cert.S2, segment) is not None
    )
    report(9, ok, "unit-square slack splits into two segment slacks exactly")


def test_criterion_10_performance_smoke():
    rng = random.Random(1010)
    A = random_matrix(rng, 30, 40, 0, 4)
    B = random_matrix(rng, 30, 50, 0, 4)
    P = one_product(A, B)
    sh, _, _ = seeded_shuffle(P, 161803)
    t0 = time.time()
    cert = recognize_one_product(sh)
    elapsed = time.time() - t0
    report(
        10,
        cert is not None and elapsed < 10.0,
        f"60x2000 shuffled 1-product recognized in {elapsed:.2f}s (< 10s)",
    )
