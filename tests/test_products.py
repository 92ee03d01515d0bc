import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from prodmat import (
    InfoFunction,
    Matrix,
    factorize_irreducible,
    is_isomorphic,
    multiplicity_table,
    one_product,
    recognize_one_product,
    recognize_two_product,
    reconstruct_factors,
    seeded_shuffle,
    two_product,
)
from prodmat import products
from prodmat.oracles import bf_one_product, bf_two_product
from prodmat.products import _factor_columns

from helpers import (
    factorize_irreducible_reference,
    parity_rows,
    random_feasible_expr,
    random_matrix,
    reconstruct_factors_reference,
)

A_26 = Matrix([[1, 0], [2, 3]])
B_23 = Matrix([[1, 0, 0], [0, 1, 1]])
PAPER_4x6 = Matrix([[1, 1, 1, 0, 0, 0], [2, 2, 2, 3, 3, 3], [1, 0, 0, 1, 0, 0], [0, 1, 1, 0, 1, 1]])


def columns_multiset(S):
    return multiplicity_table(S, range(S.m)).counts


def glued(L, R):
    """[L | R] with the special row 0...0 1...1 appended: a 2-product factor."""
    return Matrix([a + b for a, b in zip(L.rows, R.rows)] + [(0,) * L.n + (1,) * R.n])


def test_one_product_paper_displays():
    assert one_product(Matrix([[1, 0]]), Matrix([[0]])) == Matrix([[1, 0], [0, 0]])
    assert one_product(A_26, B_23) == PAPER_4x6


def test_one_product_single_column():
    S = Matrix([[1, 2], [3, 4]])
    c = Matrix([[7], [8]])
    P = one_product(S, c)
    assert P == Matrix([[1, 2], [3, 4], [7, 7], [8, 8]])


def test_one_product_matches_the_column_definition():
    rng = random.Random(4)
    for _ in range(30):
        S1 = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), -2, 3)
        S2 = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), -2, 3)
        P = one_product(S1, S2)
        assert P.n == S1.n * S2.n
        assert P.array.T.tolist() == [S1.array[:, j // S2.n].tolist() + S2.array[:, j % S2.n].tolist() for j in range(P.n)]


def test_recognize_shuffled_paper_product():
    sh, _, _ = seeded_shuffle(PAPER_4x6, 5)
    cert = recognize_one_product(sh)
    assert cert is not None
    pair = {is_isomorphic(cert.S1, A_26) is not None, is_isomorphic(cert.S1, B_23) is not None}
    assert True in pair
    assert is_isomorphic(one_product(cert.S1, cert.S2), sh) is not None


def test_recognize_negative_cases():
    assert recognize_one_product(Matrix([[1, 0, 2]])) is None
    assert recognize_one_product(Matrix([[0, 1, 1], [0, 1, 0]])) is None
    assert not bf_one_product(Matrix([[0, 1, 1], [0, 1, 0]])).verdict


def test_reconstruct_factors_examples():
    S1, S2 = reconstruct_factors(Matrix([[1, 0], [0, 0]]), {0})
    assert S1 == Matrix([[1, 0]]) and S2 == Matrix([[0]])
    # multiplicity split: either factorization of [[2],[2]] is fine
    S = Matrix([[1, 1, 0, 0], [5, 5, 5, 5]])
    S1, S2 = reconstruct_factors(S, {0})
    assert S1.n * S2.n == 4
    assert columns_multiset(one_product(S1, S2)) == columns_multiset(S)
    with pytest.raises(ValueError):
        reconstruct_factors(Matrix([[0, 1, 1], [0, 1, 0]]), {0})
    # negative indices must not wrap around to the last rows
    for X in ({-1}, {2}, {0, 2}):
        with pytest.raises(IndexError):
            reconstruct_factors(Matrix([[0, 1], [5, 5]]), X)


def _with_repeated_columns(rng, S):
    return S.submatrix(range(S.m), list(range(S.n)) + [rng.randrange(S.n) for _ in range(rng.randint(1, 3))])


def test_reconstruct_factors_agrees_with_exact_check():
    # the joint count check inside reconstruct_factors accepts exactly the
    # independent bipartitions, and what it accepts re-expands to S
    rng = random.Random(37)
    inputs = [Matrix([[0, 1, 2], [0, 1, 2]])]  # X = {0}: 3 * 3 patterns > 3 columns
    for _ in range(60):
        inputs.append(random_matrix(rng, rng.randint(2, 6), rng.randint(1, 10), 0, 2))
    for _ in range(40):
        A = _with_repeated_columns(rng, random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 0, 2))
        B = _with_repeated_columns(rng, random_matrix(rng, rng.randint(1, 3), rng.randint(1, 2), 0, 2))
        inputs.append(seeded_shuffle(one_product(A, B), rng.getrandbits(64))[0])
    accepted = 0
    for S in inputs:
        F = InfoFunction(S)
        for size in range(1, S.m):
            for X in itertools.combinations(range(S.m), size):
                Xc = tuple(i for i in range(S.m) if i not in X)
                if not F.is_independent_exact(X):
                    with pytest.raises(ValueError):
                        reconstruct_factors(S, X)
                    continue
                S1, S2 = reconstruct_factors(S, X)
                assert (S1.m, S2.m) == (len(X), len(Xc))
                assert columns_multiset(one_product(S1, S2)) == columns_multiset(
                    Matrix(tuple(S.rows[i] for i in X + Xc))
                )
                accepted += 1
    assert accepted > 100


def _factors_or_error(fn, S, X):
    try:
        return fn(S, X)
    except ValueError:
        return ValueError


FRACTIONS = (0, Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2))


def _fraction_matrix(rng, m, n):
    return Matrix([[rng.choice(FRACTIONS) for _ in range(n)] for _ in range(m)])


def _diagonal(A, B):
    """A stacked on B, with every column repeated A.n times.  When the columns
    of A and of B are distinct, each side has A.n patterns of A.n columns, so
    the pattern counts pass every guard but the identity, which fails."""
    return Matrix(A.rows + B.rows).submatrix(range(A.m + B.m), list(range(A.n)) * A.n)


def _wide(rng, kind="product"):
    """A shuffled 22x64 matrix whose rows take 8 values each, so that the
    joint span of its rows is 8**22 >= 2**63 and the exact check packs wide
    keys; and the rows X of its first 11-row half.  kind "product": a
    1-product over X; "flip": one with an entry changed; "diagonal": A and B
    stacked by `_diagonal`."""
    A, B = (Matrix([rng.sample(range(8), 8) for _ in range(11)]) for _ in range(2))
    rows = [list(row) for row in (_diagonal(A, B) if kind == "diagonal" else one_product(A, B)).rows]
    if kind == "flip":
        rows[rng.randrange(22)][rng.randrange(64)] = rng.randrange(8)
    S, rp, _ = seeded_shuffle(Matrix(rows), rng.getrandbits(64))
    assert math.prod(InfoFunction(S)._radix) >= 1 << 63
    # rp[i]: the row of the unshuffled matrix that row i of S holds
    return S, tuple(i for i in range(22) if rp[i] < 11)


def test_factors_equal_the_reference():
    # the factors read from the exact check's counts are the factors of the
    # grouping-and-table reference, entry for entry and column for column
    rng = random.Random(39)
    inputs = [random_matrix(rng, rng.randint(2, 5), rng.randint(1, 10), 0, 2) for _ in range(40)]
    inputs += _random_products(rng, 40)
    inputs += [_fraction_matrix(rng, rng.randint(2, 5), rng.randint(1, 8)) for _ in range(20)]
    for _ in range(20):
        A = _with_repeated_columns(rng, _fraction_matrix(rng, rng.randint(1, 2), rng.randint(1, 3)))
        B = _fraction_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        inputs.append(seeded_shuffle(one_product(A, B), rng.getrandbits(64))[0])
    accepted = 0
    for S in inputs:
        for size in range(1, S.m):
            for X in itertools.combinations(range(S.m), size):
                want = _factors_or_error(reconstruct_factors_reference, S, X)
                assert _factors_or_error(reconstruct_factors, S, X) == want
                accepted += want is not ValueError
    assert accepted > 200
    for kind in ("product", "flip", "diagonal") * 2:
        S, X = _wide(rng, kind)
        splits = [X] + [tuple(rng.sample(range(22), rng.randint(1, 21))) for _ in range(5)]
        for Y in splits:
            want = _factors_or_error(reconstruct_factors_reference, S, Y)
            assert _factors_or_error(reconstruct_factors, S, Y) == want
            assert (want is ValueError) == (kind != "product" or Y is not X)


def _two_product_inputs(rng, count, lo=0, hi=2):
    out = []
    while len(out) < count:
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        m1, m2 = rng.randint(2, 4), rng.randint(2, 4)
        x1 = tuple(rng.randint(0, 1) for _ in range(n1))
        y1 = tuple(rng.randint(0, 1) for _ in range(n2))
        if len(set(x1)) < 2 or len(set(y1)) < 2:
            continue
        S1 = Matrix(random_matrix(rng, m1 - 1, n1, lo, hi).rows + (x1,))
        S2 = Matrix(random_matrix(rng, m2 - 1, n2, lo, hi).rows + (y1,))
        out.append(seeded_shuffle(two_product(S1, m1 - 1, S2, m2 - 1), rng.getrandbits(64))[0])
    return out


def test_two_product_factors_equal_the_reference():
    # each side of a certificate glues the reference factors of the r = 0
    # and the r = 1 block, also when the special row starts with a 1
    rng = random.Random(40)
    first_one = 0
    for T in _two_product_inputs(rng, 40) + _two_product_inputs(rng, 20, -1, 3):
        cert = recognize_two_product(T)
        assert cert is not None
        r = cert.special_row
        row = T.rows[r]
        rest = tuple(i for i in range(T.m) if i != r)
        found = [rest.index(i) for i in cert.X]
        A1, A2 = reconstruct_factors_reference(T.submatrix(rest, [j for j in range(T.n) if row[j] == 0]), found)
        B1, B2 = reconstruct_factors_reference(T.submatrix(rest, [j for j in range(T.n) if row[j] == 1]), found)
        assert cert.S1 == glued(A1, B1) and cert.S2 == glued(A2, B2)
        first_one += row[0] == 1
    assert first_one >= 10


def test_block_factors_reject_every_dependent_split():
    # in both key branches: the place-value keys and the wide keys
    rng = random.Random(41)
    inputs = [random_matrix(rng, rng.randint(2, 5), rng.randint(1, 10), 0, 2) for _ in range(30)]
    for _ in range(20):
        c = rng.randint(2, 3)
        A = Matrix([tuple(range(c)), *random_matrix(rng, 1, c, 0, 2).rows[: rng.randint(0, 1)]])
        B = Matrix([rng.sample(range(c), c), *random_matrix(rng, 1, c, 0, 2).rows[: rng.randint(0, 1)]])
        inputs.append(seeded_shuffle(_diagonal(A, B), rng.getrandbits(64))[0])
    wide = [_wide(rng, kind) for kind in ("flip", "diagonal") * 2]
    rejected = 0
    for S, half in [(S, None) for S in inputs] + wide:
        F = InfoFunction(S)
        splits = (
            [X for size in range(1, S.m) for X in itertools.combinations(range(S.m), size)]
            if half is None
            else [half] + [tuple(sorted(rng.sample(range(S.m), rng.randint(1, S.m - 1)))) for _ in range(8)]
        )
        for X in splits:
            Xc = F._complement(X)
            if F._independent(X, Xc):
                continue
            with pytest.raises(ValueError):
                _factor_columns(F._split_counts(X, Xc), np.arange(S.n))
            rejected += 1
    assert rejected > 100


@pytest.mark.parametrize("wide", [False, True])
def test_block_factors_reject_the_dependent_block_of_a_given_row(wide):
    # given the last row r, the r = 0 block L is a 1-product over (X, Xc)
    # and the r = 1 block R is not, though its counts pass the other guards
    rng = random.Random(42)
    k, c = (11, 8) if wide else (1, 3)
    A, B = (Matrix([rng.sample(range(c), c) for _ in range(k)]) for _ in range(2))
    L, R, X = one_product(A, B), _diagonal(A, B), tuple(range(k))
    with pytest.raises(ValueError):
        reconstruct_factors_reference(R, X)
    S = glued(L, R)
    r = S.m - 1
    Xc = tuple(range(k, r))
    F = InfoFunction(S, given=r)
    assert (F._kz * math.prod(F._radix) >= 1 << 63) == wide
    counts = F._split_counts(X, Xc)
    cols1, cols2 = _factor_columns(counts, np.arange(L.n))
    assert (S.submatrix(X, cols1), S.submatrix(Xc, cols2)) == reconstruct_factors_reference(L, X)
    with pytest.raises(ValueError):
        _factor_columns(counts, np.arange(L.n, S.n))


def test_factorize_paper_product():
    fac = factorize_irreducible(PAPER_4x6)
    assert fac.t == 2
    assert fac.blocks == ((0, 1), (2, 3))


def test_factorize_irreducible_matrix():
    S = Matrix([[0, 1, 1], [0, 1, 0]])
    fac = factorize_irreducible(S)
    assert fac.t == 1 and fac.factors[0] == S


def test_factorize_three_factors_through_shuffle():
    rng = random.Random(31)
    A = Matrix([[0, 1], [1, 3]])
    B = Matrix([[2, 0], [0, 1]])
    C = Matrix([[1, 0, 0], [0, 2, 1], [5, 0, 3]])
    P = one_product(one_product(A, B), C)
    base = factorize_irreducible(P)
    assert base.t == 3
    for _ in range(5):
        seed = rng.getrandbits(64)
        sh, rp, cp = seeded_shuffle(P, seed)
        fac = factorize_irreducible(sh)
        # map the shuffled partition back through the row permutation
        mapped = {frozenset(rp[i] for i in blk) for blk in fac.blocks}
        assert mapped == {frozenset(blk) for blk in base.blocks}


def _peel_inputs(rng):
    """Shuffled products of 3-4 blocks, the last one or more with repeated
    columns, and products of parity rows, whose components merge."""
    inputs = [one_product(one_product(A_26, B_23), Matrix([[0, 0, 1]]))]
    for _ in range(30):
        P = random_matrix(rng, rng.randint(1, 2), rng.randint(1, 3), 0, 2)
        for _ in range(rng.randint(2, 3)):
            B = random_matrix(rng, rng.randint(1, 2), rng.randint(1, 3), 0, 2)
            P = one_product(P, _with_repeated_columns(rng, B) if rng.random() < 0.5 else B)
        inputs.append(seeded_shuffle(_with_repeated_columns(rng, P) if rng.random() < 0.3 else P, rng.getrandbits(64))[0])
    for _ in range(15):
        P = parity_rows(2)
        for _ in range(rng.randint(1, 2)):
            B = random_matrix(rng, rng.randint(1, 2), rng.randint(1, 3), 0, 2)
            P = one_product(_with_repeated_columns(rng, B) if rng.random() < 0.5 else B, P)
        inputs.append(seeded_shuffle(P, rng.getrandbits(64))[0])
    return inputs


def test_factorize_irreducible_equals_the_peel():
    # the blocks and the factors read from the merge's chain of checks are
    # those of peeling one block at a time off the factor left before,
    # byte for byte, also where the last factor repeats its columns
    rng = random.Random(44)
    many = repeated = merged = 0
    for S in _peel_inputs(rng):
        fac = factorize_irreducible(S)
        blocks, factors = factorize_irreducible_reference(S)
        assert fac.blocks == blocks and fac.factors == factors
        many += fac.t >= 3
        last = fac.factors[-1]
        repeated += len(set(zip(*last.rows))) < last.n
        merged += len(InfoFunction(S).components()) > fac.t
    assert many > 20 and repeated > 10 and merged > 10


def test_one_chain_of_checks_builds_every_factor(monkeypatch):
    # on q blocks whose dependence graphs are connected, the merge makes q - 1
    # exact checks, and the recognizer and the factorizer build their
    # factors from these: no other check, one InfoFunction each
    rng = random.Random(45)
    cases = []
    while len(cases) < 30:
        blocks = [random_matrix(rng, rng.randint(1, 3), rng.randint(2, 3), 0, 2) for _ in range(rng.randint(2, 4))]
        if all(len(InfoFunction(B).components()) == 1 < B.n for B in blocks):
            P = blocks[0]
            for B in blocks[1:]:
                P = one_product(P, B)
            cases.append((seeded_shuffle(P, rng.getrandbits(64))[0], len(blocks)))
    checks, built = [], []
    real_counts, real_init = InfoFunction._split_counts, InfoFunction.__init__

    def counts_spy(self, X, Y):
        checks.append((X, Y))
        return real_counts(self, X, Y)

    def init_spy(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(InfoFunction, "_split_counts", counts_spy)
    monkeypatch.setattr(InfoFunction, "__init__", init_spy)
    monkeypatch.setattr(products, "reconstruct_factors", lambda *args: pytest.fail("a factor was peeled"))
    for S, q in cases:
        for run in (recognize_one_product, factorize_irreducible):
            checks.clear()
            built.clear()
            assert run(S) is not None
            assert len(checks) == q - 1 and len(built) == 1, (run.__name__, q)
        assert factorize_irreducible(S).t == q
    assert {q for _, q in cases} == {2, 3, 4}


def _random_products(rng, count):
    """Shuffled 1-products of 2-4 small factors, some with repeated columns."""
    out = []
    for _ in range(count):
        P = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 0, 2)
        for _ in range(rng.randint(1, 3)):
            B = random_matrix(rng, rng.randint(1, 2), rng.randint(1, 3), 0, 2)
            P = one_product(P, _with_repeated_columns(rng, B) if rng.random() < 0.3 else B)
        out.append(seeded_shuffle(P, rng.getrandbits(64))[0])
    return out


def test_one_product_cut_is_the_first_block():
    # with two or more blocks, the 1-product cut is the block holding row 0,
    # and the factors, stacked by blocks, re-expand to S
    rng = random.Random(34)
    inputs = _random_products(rng, 60)
    inputs += [random_matrix(rng, rng.randint(2, 6), rng.randint(1, 9), 0, 2) for _ in range(60)]
    split = 0
    for S in inputs:
        fac = factorize_irreducible(S)
        assert sorted(i for b in fac.blocks for i in b) == list(range(S.m))
        assert all(len(InfoFunction(factor).atoms()) == 1 for factor in fac.factors)
        P = fac.factors[0]
        for factor in fac.factors[1:]:
            P = one_product(P, factor)
        assert columns_multiset(P) == columns_multiset(Matrix(tuple(S.rows[i] for b in fac.blocks for i in b)))
        cert = recognize_one_product(S)
        assert (cert is not None) == (fac.t >= 2)
        if cert is not None:
            assert cert.X == fac.blocks[0]
            split += fac.t >= 3
    assert split > 20


def test_roundtrip_random_products():
    rng = random.Random(32)
    for _ in range(40):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 4), 0, 3)
        B = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 4), 0, 3)
        P = one_product(A, B)
        sh, _, _ = seeded_shuffle(P, rng.getrandbits(64))
        cert = recognize_one_product(sh)
        assert cert is not None
        assert columns_multiset(one_product(cert.S1, cert.S2)) == columns_multiset(
            Matrix(tuple(sh.rows[i] for i in cert.X + cert.Xc))
        )
        assert is_isomorphic(one_product(cert.S1, cert.S2), sh) is not None


def test_soundness_vs_bruteforce_small():
    rng = random.Random(33)
    for _ in range(80):
        S = random_matrix(rng, rng.randint(2, 7), rng.randint(1, 8), 0, 2)
        assert (recognize_one_product(S) is not None) == bf_one_product(S).verdict


def test_two_product_example():
    F = Matrix([[0, 1], [1, 0]])
    T = two_product(F, 0, F, 0)
    assert T == Matrix([[1, 0], [1, 0], [0, 1]])
    assert Matrix(list(dict.fromkeys(T.rows))) == Matrix([[1, 0], [0, 1]])


def test_two_product_column_count():
    rng = random.Random(34)
    for _ in range(20):
        m1, n1 = rng.randint(2, 4), rng.randint(2, 5)
        m2, n2 = rng.randint(2, 4), rng.randint(2, 5)
        S1 = random_matrix(rng, m1 - 1, n1, 0, 3)
        S2 = random_matrix(rng, m2 - 1, n2, 0, 3)
        x1 = tuple(0 if j < n1 // 2 else 1 for j in range(n1))
        y1 = tuple(0 if j < n2 // 2 else 1 for j in range(n2))
        S1 = Matrix(S1.rows + (x1,))
        S2 = Matrix(S2.rows + (y1,))
        n10, n11 = x1.count(0), x1.count(1)
        n20, n21 = y1.count(0), y1.count(1)
        T = two_product(S1, S1.m - 1, S2, S2.m - 1)
        assert T.n == n10 * n20 + n11 * n21


def test_two_product_errors():
    F = Matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        two_product(Matrix([[0, 2], [1, 0]]), 0, F, 0)  # non-0/1 special row
    with pytest.raises(ValueError):
        two_product(Matrix([[1, 1], [1, 0]]), 0, F, 0)  # constant special row
    # a special row outside a factor, also a negative index naming a row from the end
    S1, S2 = Matrix([[0, 1, 1], [5, 6, 7]]), Matrix([[3, 4], [1, 0]])
    for x1, y1 in ((-2, -1), (-1, 0), (2, 0), (0, -1), (0, 2)):
        with pytest.raises(IndexError):
            two_product(S1, x1, S2, y1)


def test_two_product_matches_the_column_definition():
    # the special rows at any position; int64, Fraction and beyond-int64 entries
    rng = random.Random(44)
    entries = (
        lambda: rng.randint(-2, 3),
        lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        lambda: rng.randint(0, 3) + 2**64,
    )
    dtypes = set()
    for k in range(60):
        factors = []
        for kind in (k % 3, rng.randrange(3)):
            m, n = rng.randint(2, 4), rng.randint(2, 5)
            rows = [[entries[kind]() for _ in range(n)] for _ in range(m)]
            x = rng.randrange(m)
            rows[x] = rng.sample([0, 1] + [rng.randint(0, 1) for _ in range(n - 2)], n)
            factors.append((Matrix(rows), x))
        (S1, x1), (S2, y1) = factors
        P = two_product(S1, x1, S2, y1)
        want = []
        for a in (0, 1):
            for j1 in range(S1.n):
                for j2 in range(S2.n):
                    c1, c2 = S1.array[:, j1].tolist(), S2.array[:, j2].tolist()
                    if c1[x1] == c2[y1] == a:
                        want.append(c1[:x1] + c1[x1 + 1 :] + c2[:y1] + c2[y1 + 1 :] + [a])
        assert P.array.T.tolist() == want
        dtypes.add(P.array.dtype)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_recognize_two_product_roundtrip():
    F = Matrix([[0, 1], [1, 0]])
    T = two_product(F, 0, F, 0)
    sh, _, _ = seeded_shuffle(T, 9)
    cert = recognize_two_product(sh)
    assert cert is not None
    re = two_product(cert.S1, cert.x1_index, cert.S2, cert.y1_index)
    assert is_isomorphic(re, sh) is not None


def test_recognize_two_product_no_candidate_row():
    S = Matrix([[2, 3], [4, 5], [6, 7]])
    assert recognize_two_product(S) is None
    assert not bf_two_product(S).verdict


def test_two_product_from_hypersimplex_factors():
    from prodmat.matroids import hypersimplex_slack

    S42 = hypersimplex_slack(4, 2)
    I3 = hypersimplex_slack(3, 1)
    S31p = Matrix(I3.rows + (tuple(1 - x for x in I3.rows[0]),))  # add the upper row
    T = two_product(S42, 0, S31p, S31p.m - 1)
    sh, _, _ = seeded_shuffle(T, 11)
    cert = recognize_two_product(sh)
    assert cert is not None
    re = two_product(cert.S1, cert.x1_index, cert.S2, cert.y1_index)
    assert is_isomorphic(re, sh) is not None


def _splits_per_row(S, out=None):
    """(r, atoms) for each row r the 2-product split takes, found by building
    the atoms given every 0/1 row in turn, with no screen; the rows out[r]
    are constant given r, so each is a singleton atom, and is left out."""
    found = []
    for r, row in enumerate(S.rows):
        if set(row) != {0, 1}:
            continue
        F = InfoFunction(S, given=r)
        atoms = [tuple(F.ground[i] for i in A) for A in F.atoms()]
        if out is not None:
            atoms = [A for A in atoms if not (len(A) == 1 and out[r, A[0]])]
        if len(atoms) >= 2:
            found.append((r, atoms))
    return found


def _checked_splits(S, out=None):
    """(r, atoms) of `_two_product_splits`, each yield's splits checked: one
    holding check of every atom but the last against the later ones."""
    found = []
    for r, atoms, splits in products._two_product_splits(S, out):
        assert len(splits) == len(atoms) - 1 and all(counts[4].all() for counts in splits)
        found.append((r, atoms))
    return found


def test_two_product_splits_match_the_per_row_search():
    # the one split that both recognizers iterate yields the rows, atoms and
    # order of the per-row search; recognize_two_product takes its first
    # row, X the first atom.  With the matroid recognizer's twin mask (the
    # rows equal to r or to 1 - r) the twin singleton is left out
    rng = random.Random(66)
    inputs = _two_product_inputs(rng, 30) + _two_product_inputs(rng, 10, -1, 3)
    inputs += [random_matrix(rng, rng.randint(2, 7), rng.randint(2, 9), 0, rng.choice((1, 1, 2))) for _ in range(200)]
    yields = 0
    for S in inputs:
        found = _checked_splits(S)
        assert found == _splits_per_row(S)
        yields += len(found)
        cert = recognize_two_product(S)
        assert (cert is None) == (not found)
        if found:
            assert (cert.special_row, cert.X) == (found[0][0], found[0][1][0])
    assert yields >= 200, yields
    outcomes = {"split": 0, "none": 0}
    for _ in range(30):
        _, S, _ = random_feasible_expr(rng, max_leaves=5, dmax=5, max_cols=300, max_rows=30)
        sh = seeded_shuffle(S, rng.getrandbits(64))[0]
        rows = [list(r) for r in sh.rows]
        i, j = rng.randrange(S.m), rng.randrange(S.n)
        rows[i][j] = 1 - rows[i][j]
        for T in (sh, Matrix(rows)):
            twins = np.array([[a in (b, tuple(1 - x for x in b)) for a in T.rows] for b in T.rows])
            assert _checked_splits(T) == _splits_per_row(T)
            found = _checked_splits(T, twins)
            assert found == _splits_per_row(T, twins)
            outcomes["split" if found else "none"] += 1
    assert outcomes["split"] >= 15 and outcomes["none"] >= 15, outcomes


def test_two_product_soundness_random():
    rng = random.Random(35)
    for _ in range(50):
        S = random_matrix(rng, rng.randint(3, 7), rng.randint(2, 8), 0, 2)
        assert (recognize_two_product(S) is not None) == bf_two_product(S).verdict


def test_roundtrip_random_two_products():
    rng = random.Random(36)
    done = 0
    while done < 20:
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        m1, m2 = rng.randint(2, 4), rng.randint(2, 4)
        S1 = random_matrix(rng, m1 - 1, n1, 0, 2)
        S2 = random_matrix(rng, m2 - 1, n2, 0, 2)
        x1 = tuple(rng.randint(0, 1) for _ in range(n1))
        y1 = tuple(rng.randint(0, 1) for _ in range(n2))
        if len(set(x1)) < 2 or len(set(y1)) < 2:
            continue
        T = two_product(Matrix(S1.rows + (x1,)), m1 - 1, Matrix(S2.rows + (y1,)), m2 - 1)
        sh, _, _ = seeded_shuffle(T, rng.getrandbits(64))
        cert = recognize_two_product(sh)
        assert cert is not None
        re = two_product(cert.S1, cert.x1_index, cert.S2, cert.y1_index)
        assert is_isomorphic(re, sh) is not None
        done += 1


def test_exact_certs_sound_on_repeated_columns():
    # repeated columns: a bipartition whose pattern counts multiply to the
    # block size is not necessarily independent, so no count shortcut; the
    # certificate is one of the brute-force witnesses and re-expands
    S = Matrix(
        [
            [0, 1, 0, 0, 1, 0, 0, 0, 0],
            [1, 1, 0, 1, 0, 1, 0, 1, 0],
            [1, 1, 1, 1, 0, 1, 1, 0, 1],
            [0, 1, 1, 1, 1, 1, 1, 1, 1],
        ]
    )
    assert recognize_two_product(S) is None and not bf_two_product(S).verdict
    rng = random.Random(38)
    hits = 0
    for k in range(60):
        while True:
            S1 = _with_repeated_columns(rng, random_matrix(rng, rng.randint(2, 3), rng.randint(2, 3), 0, 1))
            S2 = _with_repeated_columns(rng, random_matrix(rng, rng.randint(2, 3), rng.randint(2, 3), 0, 1))
            if len(set(S1.rows[-1])) == 2 and len(set(S2.rows[-1])) == 2:
                break
        T = two_product(S1, S1.m - 1, S2, S2.m - 1)
        if k % 2:
            rows = [list(r) for r in T.rows]
            i, j = rng.randrange(T.m), rng.randrange(T.n)
            rows[i][j] = 1 - rows[i][j]
            T = Matrix(rows)
        T = seeded_shuffle(T, rng.getrandbits(64))[0]
        cert = recognize_two_product(T)
        bf = bf_two_product(T)
        assert (cert is not None) == bf.verdict
        if cert is None:
            continue
        r = cert.special_row
        Xc = tuple(i for i in range(T.m) if i != r and i not in cert.X)
        assert (r, cert.X) in bf.witnesses or (r, Xc) in bf.witnesses
        re = two_product(cert.S1, cert.x1_index, cert.S2, cert.y1_index)
        assert is_isomorphic(re, T) is not None
        hits += 1
    assert hits >= 20
