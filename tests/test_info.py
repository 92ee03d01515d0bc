import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from prodmat import (
    InfoFunction,
    Matrix,
    SymmetricOracle,
    entropy,
    multiplicity_table,
    one_product,
    recognize_two_product,
    seeded_shuffle,
    two_product,
)
from prodmat import info
from prodmat.info import group_columns, mutual_info_direct
from prodmat.matroids import _two_product_split
from prodmat.oracles import bf_one_product, bf_two_product

from helpers import parity_rows, random_feasible_expr, random_matrix

PAPER_4x6 = one_product(Matrix([[1, 0], [2, 3]]), Matrix([[1, 0, 0], [0, 1, 1]]))

# frozen: hand evaluation of the double sum for [[0,1,1],[0,1,0]], X={0}
MI_2x3 = 0.2516291673878228


def test_multiplicity_table_examples():
    t = multiplicity_table(Matrix([[1, 0], [0, 0]]), {0})
    assert t.counts == {(Fraction(1),): 1, (Fraction(0),): 1}
    t = multiplicity_table(Matrix([[1, 1]]), {0})
    assert t.counts == {(Fraction(1),): 2}
    t = multiplicity_table(PAPER_4x6, {2, 3})
    assert t.counts == {(Fraction(1), Fraction(0)): 2, (Fraction(0), Fraction(1)): 4}


def test_entropy_values():
    assert entropy(multiplicity_table(Matrix([[1, 2]]), {0})) == pytest.approx(1.0)
    assert entropy(multiplicity_table(Matrix([[3, 3, 3, 3]]), {0})) == 0.0
    # {a:1, b:1, c:2} -> 1.5 by direct evaluation of -sum p log2 p
    t = multiplicity_table(Matrix([[1, 2, 3, 3]]), {0})
    assert entropy(t) == pytest.approx(1.5, abs=1e-12)


def test_mutual_info_examples():
    F = InfoFunction(Matrix([[1, 0], [0, 0]]))
    assert F.f({0}) == pytest.approx(0.0, abs=1e-12)
    F = InfoFunction(Matrix([[0, 1, 1], [0, 1, 0]]))
    assert F.f({0}) == pytest.approx(MI_2x3, abs=1e-12)
    assert F.f(set()) == pytest.approx(0.0, abs=1e-12)
    assert F.f({0, 1}) == pytest.approx(0.0, abs=1e-12)
    # negative indices must not wrap around to the last rows
    for X in ({-1}, {2}, {0, 2}):
        with pytest.raises(IndexError):
            F.f(X)
    G = InfoFunction(PAPER_4x6, given=2)
    with pytest.raises(IndexError):
        G.f({3})


def test_is_independent_exact_examples():
    F = InfoFunction(PAPER_4x6)
    assert F.is_independent_exact({0, 1})
    F2 = InfoFunction(Matrix([[0, 1, 1], [0, 1, 0]]))
    assert not F2.is_independent_exact({0})
    F3 = InfoFunction(Matrix([[1, 0], [0, 0]]))
    assert F3.is_independent_exact({0})
    with pytest.raises(ValueError):
        F3.is_independent_exact(set())
    with pytest.raises(ValueError):
        F3.is_independent_exact({0, 1})
    for X in ({-1}, {2}, {0, 5}):
        with pytest.raises(IndexError):
            F3.is_independent_exact(X)


def test_nonnegativity_symmetry_random():
    rng = random.Random(11)
    for _ in range(60):
        S = random_matrix(rng, rng.randint(2, 7), rng.randint(1, 9), 0, 2)
        F = InfoFunction(S)
        for _ in range(5):
            X = {i for i in range(S.m) if rng.random() < 0.5}
            Xc = set(range(S.m)) - X
            fx = F.f(X)
            assert fx >= -1e-12
            assert fx == F.f(Xc)


def test_submodularity_random():
    rng = random.Random(12)
    for _ in range(60):
        S = random_matrix(rng, rng.randint(2, 7), rng.randint(1, 9), 0, 2)
        F = InfoFunction(S)
        for _ in range(5):
            X = {i for i in range(S.m) if rng.random() < 0.5}
            Y = {i for i in range(S.m) if rng.random() < 0.5}
            lhs = F.f(X) + F.f(Y)
            rhs = F.f(X | Y) + F.f(X & Y)
            assert lhs >= rhs - 1e-9


def test_exactness_bridge_random():
    # exact verdict iff float value below the screen; independent => exactly 0.0
    zero_eps = 1e-9
    rng = random.Random(13)
    for _ in range(80):
        S = random_matrix(rng, rng.randint(2, 6), rng.randint(1, 8), 0, 2)
        for given in [None] + list(range(S.m)):
            F = InfoFunction(S, given=given)
            for size in range(1, F.m):
                X = tuple(sorted(rng.sample(range(F.m), size)))
                indep = F.is_independent_exact(X)
                val = F.f(X)
                assert indep == (val <= zero_eps)
                if indep:
                    assert val == 0.0


def test_direct_formula_agreement():
    rng = random.Random(14)
    for _ in range(40):
        S = random_matrix(rng, rng.randint(2, 6), rng.randint(1, 8), 0, 3)
        F = InfoFunction(S)
        X = tuple(sorted(rng.sample(range(S.m), rng.randint(1, S.m - 1))))
        assert F.f(X) == pytest.approx(mutual_info_direct(S, X), abs=1e-9)


def test_rational_entries_grouped_exactly():
    # 1/2 and 0.5 are the same entry; 1/3 differs from 0.333...
    S = Matrix([[Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]])
    t = multiplicity_table(S, {0})
    assert t.counts == {(Fraction(1, 2),): 2, (Fraction(1, 3),): 1}


def _random_with_01_rows(rng):
    """Entries 0..2, m 3..8; about a third of the rows are non-constant 0/1."""
    while True:
        m, n = rng.randint(3, 8), rng.randint(2, 9)
        rows = [[rng.randint(0, 1 if rng.random() < 0.35 else 2) for _ in range(n)] for _ in range(m)]
        S = Matrix(rows)
        split = [r for r in range(m) if set(rows[r]) == {0, 1}]
        if split:
            return S, split


def test_conditional_f_is_weighted_block_sum():
    # I(C_X; C_Xc | C_r) = (n0*f_A(X) + n1*f_B(X))/n, and its exact zero set is
    # the common zero set of the two blocks, for every non-constant 0/1 row r
    rng = random.Random(15)
    for _ in range(40):
        S, split = _random_with_01_rows(rng)
        for r in split:
            F = InfoFunction(S, given=r)
            assert F.m == S.m - 1 and F.ground == tuple(i for i in range(S.m) if i != r)
            J0 = [j for j in range(S.n) if S.rows[r][j] == 0]
            J1 = [j for j in range(S.n) if S.rows[r][j] == 1]
            FA = InfoFunction(S.submatrix(F.ground, J0))
            FB = InfoFunction(S.submatrix(F.ground, J1))
            for size in range(F.m + 1):
                for X in itertools.combinations(range(F.m), size):
                    want = (len(J0) * FA.f(X) + len(J1) * FB.f(X)) / S.n
                    assert abs(F.f(X) - want) <= 1e-9
                    if 0 < size < F.m:
                        both = FA.is_independent_exact(X) and FB.is_independent_exact(X)
                        assert F.is_independent_exact(X) == both
    with pytest.raises(IndexError):
        InfoFunction(S, given=S.m)


@pytest.mark.parametrize("m", [63, 64, 65])
def test_packed_key_width_boundary(m):
    # X = S1's single row; the key of the complement side packs m - 1 rows
    # plus the given row (a constant row when there is none), so from m = 64
    # on it outgrows one int64 and is renumbered.  S2's row 0 becomes the
    # given row: both of its values cover two distinct columns, so flipping
    # one entry of X or of the highest row breaks independence in either block.
    rng = random.Random(16 + m)
    head = [[0, 0, 1, 1], [0, 1, 0, 1]]
    S2 = Matrix(head + [[rng.randint(0, 1) for _ in range(4)] for _ in range(m - 3)])
    P, row_perm, _ = seeded_shuffle(one_product(Matrix([[0, 1]]), S2), 1000 + m)
    x, g = row_perm.index(0), row_perm.index(1)
    local_x = x - (x > g)
    assert InfoFunction(P).is_independent_exact({x})
    assert InfoFunction(P, given=g).is_independent_exact({local_x})
    for i in (x, max(set(range(m)) - {x, g})):
        flipped = [list(row) for row in P.rows]
        flipped[i][0] = 1 - flipped[i][0]
        near = Matrix(flipped)
        assert not InfoFunction(near).is_independent_exact({x})
        assert not InfoFunction(near, given=g).is_independent_exact({local_x})


def _group_columns_reference(sub):
    seen, inv, counts, first = {}, [], [], []
    for j in range(sub.shape[1]):
        key = tuple(int(x) for x in sub[:, j])
        if key not in seen:
            seen[key] = len(counts)
            counts.append(0)
            first.append(j)
        inv.append(seen[key])
        counts[seen[key]] += 1
    return inv, counts, first


@pytest.mark.parametrize("rows,values", [(62, 2), (63, 2), (64, 2), (65, 2), (39, 3), (40, 3)])
def test_group_columns_packed_key_boundary(rows, values):
    # Keys are packed in one product while the product of the row ranges
    # stays below 2**63 and renumbered before the next row beyond: 62 binary
    # and 39 ternary rows pack at once, 63 and 40 do not (3**39 < 2**63 <
    # 3**40).  The pool holds the all-zero and all-max columns and pairs that
    # differ only in the first row, which a key wrapped modulo 2**64 merges
    # from 65 binary rows on.
    rng = random.Random(17 + rows)
    top = values - 1
    pool = [[0] * rows, [top] * rows]
    for _ in range(6):
        col = [rng.randint(0, top) for _ in range(rows)]
        pool.append(col)
        pool.append([(col[0] + 1) % values] + col[1:])
    cols = [rng.choice(pool) for _ in range(60)] + pool
    rng.shuffle(cols)
    sub = np.array(cols, dtype=np.int64).T
    inv, counts, first = group_columns(sub)
    want_inv, want_counts, want_first = _group_columns_reference(sub)
    assert inv.tolist() == want_inv
    assert counts.tolist() == want_counts
    assert first.tolist() == want_first


def _components_reference(S, given):
    # pairwise multiplicity_table counts within each value of the given row,
    # then union-find over the dependent pairs
    ground = [i for i in range(S.m) if i != given]
    if given is None:
        blocks = [S]
    else:
        values = sorted(set(S.rows[given]))
        blocks = [S.submatrix(range(S.m), [j for j in range(S.n) if S.rows[given][j] == v]) for v in values]
    parent = list(range(len(ground)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in itertools.combinations(range(len(ground)), 2):
        i, j = ground[a], ground[b]
        for B in blocks:
            joint = multiplicity_table(B, (i, j)).counts
            mi = multiplicity_table(B, (i,)).counts
            mj = multiplicity_table(B, (j,)).counts
            if any(B.n * joint.get(x + y, 0) != mi[x] * mj[y] for x in mi for y in mj):
                parent[find(b)] = find(a)
    comps = {}
    for a in range(len(ground)):
        comps.setdefault(find(a), []).append(a)
    return sorted(tuple(c) for c in comps.values())


def _components_by_counters(S, given):
    # the identity of _components_reference, counted with Counters over the
    # observed (z, x, y) triples: an unobserved value pair (x, y) within z has
    # n_z * 0 != mu(x, z) * mu(y, z) and is a dependence by itself.  Pairs
    # already joined are skipped, which leaves the components as they are
    # and keeps wide inputs fast.
    ground = [i for i in range(S.m) if i != given]
    z = S.rows[given] if given is not None else (0,) * S.n
    nz = Counter(z)
    marg = [Counter(zip(z, S.rows[i])) for i in ground]  # mu(x, z)
    kinds = [Counter(v for v, _ in mu) for mu in marg]  # values x seen with z
    parent = list(range(len(ground)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in itertools.combinations(range(len(ground)), 2):
        if find(a) == find(b):
            continue
        joint = Counter(zip(z, S.rows[ground[a]], S.rows[ground[b]]))
        if len(joint) != sum(kinds[a][v] * kinds[b][v] for v in nz) or any(
            nz[v] * c != marg[a][v, x] * marg[b][v, y] for (v, x, y), c in joint.items()
        ):
            parent[find(b)] = find(a)
    comps = {}
    for a in range(len(ground)):
        comps.setdefault(find(a), []).append(a)
    return sorted(tuple(c) for c in comps.values())


def _component_inputs(rng):
    inputs = []
    for _ in range(40):
        inputs.append(random_matrix(rng, rng.randint(1, 7), rng.randint(1, 10), 0, 2))
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 0, 2)
        B = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 0, 1)
        P = one_product(A, B).submatrix(range(A.m + B.m), list(range(A.n * B.n)) + [0])
        inputs.append(seeded_shuffle(P, rng.getrandbits(64))[0])
    inputs.append(Matrix([[Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)], [0, 1, 0], [5, 5, 5]]))
    return inputs


@pytest.fixture
def dependence_paths(monkeypatch):
    """Counts the calls of the reduced-indicator and of the chunked dependence graph."""
    calls = {"gram": 0, "chunked": 0}
    for key, name in (("gram", "_indicator_dependence"), ("chunked", "_chunked_dependence")):
        real = getattr(info, name)

        def spy(*args, _real=real, _key=key):
            calls[_key] += 1
            return _real(*args)

        monkeypatch.setattr(info, name, spy)
    return calls


def _chunked_components(monkeypatch, S, given):
    # with the cap below 0 no input fits the Gram matrix, not even one whose
    # rows are all constant and have no reduced indicator
    with monkeypatch.context() as mp:
        mp.setattr(info, "_GRAM_CAP", -1)
        return InfoFunction(S, given=given).components()


def test_components_match_reference(monkeypatch, dependence_paths):
    rng = random.Random(18)
    runs = 0
    for S in _component_inputs(rng):
        for given in [None] + list(range(S.m)):
            F = InfoFunction(S, given=given)
            got = F.components()
            assert got == sorted(got) and all(c == tuple(sorted(c)) for c in got)
            assert got == _components_reference(S, given)
            assert got == _components_by_counters(S, given)
            assert _chunked_components(monkeypatch, S, given) == got
            runs += F.m > 0  # an empty ground set builds no graph
    assert dependence_paths == {"gram": runs, "chunked": runs}


def test_components_chunked_pairs(monkeypatch, dependence_paths):
    # grouping the row pairs a few columns' worth at a time changes nothing
    rng = random.Random(19)
    inputs = _component_inputs(rng)
    want = [[InfoFunction(S, given=g).components() for g in [None] + list(range(S.m))] for S in inputs]
    assert dependence_paths["chunked"] == 0
    for chunk in (info._PAIR_CHUNK, 7):
        monkeypatch.setattr(info, "_PAIR_CHUNK", chunk)
        got = [[_chunked_components(monkeypatch, S, g) for g in [None] + list(range(S.m))] for S in inputs]
        assert got == want
    assert dependence_paths["chunked"] == dependence_paths["gram"] * 2


def test_components_near_distinct_rows_take_the_chunked_path(dependence_paths):
    # 36 rows of near-distinct values make D, the number of (row, value)
    # pairs after each row's first value, about 36,000: the Gram matrix
    # would hold over 10**9 cells
    rng = random.Random(22)
    n = 1000
    rows = [[rng.randrange(10**6) for _ in range(n)] for _ in range(36)]
    rows += [[7] * n, [j // 125 for j in range(n)], [3] * n, [j % 125 for j in range(n)]]
    S = Matrix(rows)
    k = S.codes.max(axis=1)
    assert int(k.sum()) ** 2 > info._GRAM_CAP
    for given in (None, 0, 37):
        t0 = time.perf_counter()
        got = InfoFunction(S, given=given).components()
        assert time.perf_counter() - t0 < 1.0
        assert got == _components_by_counters(S, given)
    assert dependence_paths == {"gram": 0, "chunked": 3}


def test_components_edges():
    assert InfoFunction(Matrix([[0, 1, 1]]), given=0).components() == []
    assert InfoFunction(Matrix([[0, 1, 1]])).components() == [(0,)]
    # a constant row is independent of everything
    assert InfoFunction(Matrix([[0, 1, 1], [2, 2, 2], [1, 0, 0]])).components() == [(0, 2), (1,)]
    assert InfoFunction(PAPER_4x6).components() == [(0, 1), (2, 3)]


def _is_union_of(X, comps):
    return all(set(c) <= set(X) or not set(c) & set(X) for c in comps)


def test_zero_sets_are_unions_of_components():
    rng = random.Random(20)
    unions = 0
    for S in _component_inputs(rng):
        comps = InfoFunction(S).components()
        for X in bf_one_product(S).witnesses:
            assert _is_union_of(X, comps)
            unions += 1
        if S.m < 3:
            continue
        for r, X in bf_two_product(S).witnesses:
            F = InfoFunction(S, given=r)
            assert _is_union_of([F.ground.index(i) for i in X], F.components())
            unions += 1
    assert unions > 30


def test_f_does_not_depend_on_the_exact_path():
    # f values do not depend on whether the exact path ran first, and the
    # evaluations behind one ordering key of the minimizer agree across
    # instances
    rng = random.Random(21)
    for _ in range(20):
        S = random_matrix(rng, rng.randint(3, 6), rng.randint(2, 9), 0, 2)
        for given in (None, 0):
            F = InfoFunction(S, given=given)
            F.components()
            F.atoms()
            F.is_independent_exact((0,))
            G = InfoFunction(S, given=given)
            subsets = [X for k in range(F.m + 1) for X in itertools.combinations(range(F.m), k)]
            assert [F.f(X) for X in subsets] == [G.f(X) for X in subsets]
            H = SymmetricOracle(G.m, InfoFunction(S, given=given).f)
            assert [H.eval((0, 1)), H.eval((1,))] == [G.f((0, 1)), G.f((1,))]
            assert H.calls == 2


def _independent_reference(S, given, X, Y):
    # C_X ⊥ C_Y | C_given by multiplicity_table counts within each value of
    # the given row; X and Y are rows of S, in any order (the tables are
    # keyed by the sorted rows)
    X, Y = sorted(X), sorted(Y)
    if given is None:
        blocks = [S]
    else:
        values = sorted(set(S.rows[given]))
        blocks = [S.submatrix(range(S.m), [j for j in range(S.n) if S.rows[given][j] == v]) for v in values]
    for B in blocks:
        joint = multiplicity_table(B, X + Y).counts
        pos = {i: k for k, i in enumerate(sorted(X + Y))}
        ma = multiplicity_table(B, X).counts
        mb = multiplicity_table(B, Y).counts
        for a in ma:
            for b in mb:
                key = [None] * len(pos)
                for i, x in zip(X, a):
                    key[pos[i]] = x
                for i, y in zip(Y, b):
                    key[pos[i]] = y
                if B.n * joint.get(tuple(key), 0) != ma[a] * mb[b]:
                    return False
    return True


def _atoms_reference(S, given):
    # for each ground row, the intersection of every zero set or complement
    # holding it, over all bipartitions of the ground rows
    ground = [i for i in range(S.m) if i != given]
    m = len(ground)
    cell = [set(range(m)) for _ in range(m)]
    for size in range(1, m):
        for X in itertools.combinations(range(m), size):
            Xc = tuple(i for i in range(m) if i not in X)
            if _independent_reference(S, given, [ground[i] for i in X], [ground[i] for i in Xc]):
                for side in (X, Xc):
                    for i in side:
                        cell[i] &= set(side)
    return sorted({tuple(sorted(c)) for c in cell})


def _nonconstant_rows(rng, m, n, top):
    rows = []
    while len(rows) < m:
        row = [rng.randint(0, top) for _ in range(n)]
        if len(set(row)) > 1:
            rows.append(row)
    return rows


#: (factor rows, top value, factor columns) of the planted 1-products per
#: branch of `InfoFunction._independent`: small keys are counted by
#: np.bincount, 8 + 8 rows of 0..2 over at most 36 columns span over 2**15
#: and are counted by np.unique, and 32 + 32 rows of 0/1 span 2**63 or more
#: even without the given row, so their keys come from `_column_keys`
_EXACT_BRANCHES = {"bincount": ((1, 3), 2, (2, 4)), "unique": ((8, 8), 2, (4, 6)), "wide": ((32, 32), 1, (5, 6))}


def _exact_check_inputs(rng, branch):
    """(S, given, X, Y): X, Y disjoint rows of S other than `given`.

    Shuffled 1-products split along their factors, whole or in part, with
    the given row (if any) in either factor: C_X ⊥ C_Y | C_given holds.  The
    same with one entry changed, which mostly breaks it.  For the bincount
    branch also random matrices with a given row of 2-3 values or none, and
    one 1-product whose sides are not listed in row order.
    """
    (lo, hi), top, (c_lo, c_hi) = _EXACT_BRANCHES[branch]
    out = []
    for t in range(24):
        ma, mb = rng.randint(lo, hi), rng.randint(lo, hi)
        A = Matrix(_nonconstant_rows(rng, ma, rng.randint(c_lo, c_hi), top))
        B = Matrix(_nonconstant_rows(rng, mb, rng.randint(c_lo, c_hi), top))
        S, row_perm, _ = seeded_shuffle(one_product(A, B), rng.getrandbits(64))
        side_a = [row_perm.index(i) for i in range(ma)]
        side_b = [row_perm.index(ma + i) for i in range(mb)]
        given = None if t % 3 == 0 else rng.choice(side_a if t % 3 == 1 else side_b)
        if t % 2:
            rows = [list(r) for r in S.rows]
            i, j = rng.randrange(S.m), rng.randrange(S.n)
            rows[i][j] = (rows[i][j] + 1) % (top + 1)
            S = Matrix(rows)
        X = [i for i in side_a if i != given]
        Y = [i for i in side_b if i != given]
        if not X or not Y:
            continue
        out.append((S, given, X, Y))
        if len(X) > 1 and rng.random() < 0.5:  # X without one row
            out.append((S, given, rng.sample(X, len(X) - 1), Y))
    if branch == "bincount":
        for _ in range(40):
            m = rng.randint(2, 6)
            S = random_matrix(rng, m, rng.randint(1, 10), 0, 2)
            given = rng.choice([None, rng.randrange(m)])
            rows = [i for i in range(m) if i != given]
            if len(rows) < 2:
                continue
            X = rng.sample(rows, rng.randint(1, len(rows) - 1))
            Y = [i for i in rows if i not in X]
            out.append((S, given, X, Y))
            if len(Y) > 1:
                out.append((S, given, X, Y[1:]))
        # rows out of order: A's rows at 2, 0, 4 and B's at 1, 3 of A x B
        S = Matrix(
            [
                [0, 0, 0, 0, 1, 1, 1, 1],
                [0, 1, 1, 0, 0, 1, 1, 0],
                [1, 1, 1, 1, 0, 0, 0, 0],
                [0, 0, 1, 2, 0, 0, 1, 2],
                [2, 2, 2, 2, 0, 0, 0, 0],
            ]
        )
        out.append((S, None, [2, 0, 4], [1, 3]))
    return out


@pytest.mark.parametrize("branch", sorted(_EXACT_BRANCHES))
def test_exact_check_matches_reference(monkeypatch, branch):
    # is_independent_exact (Y the complement of X) and _independent on
    # disjoint X and Y agree with the multiplicity_table reference, on each
    # branch of the key counting
    paths = Counter()
    real_counts, real_keys = info._key_counts, info._column_keys

    def counts(keys, span):
        paths["bincount" if span <= max(info._BINCOUNT_PER_KEY * len(keys), info._BINCOUNT_MIN) else "unique"] += 1
        return real_counts(keys, span)

    def column_keys(sub):
        paths["wide"] += 1
        return real_keys(sub)

    monkeypatch.setattr(info, "_key_counts", counts)
    monkeypatch.setattr(info, "_column_keys", column_keys)
    rng = random.Random(26 + len(branch))
    verdicts = Counter()
    checks = 0
    for S, given, X, Y in _exact_check_inputs(rng, branch):
        want = _independent_reference(S, given, X, Y)
        F = InfoFunction(S, given=given)
        x, y = (tuple(sorted(F.ground.index(i) for i in side)) for side in (X, Y))
        assert F._independent(x, y) == want, (S, given, X, Y)
        assert InfoFunction(S, given=given)._independent(y, x) == want
        checks += 2
        if len(x) + len(y) == F.m:
            assert InfoFunction(S, given=given).is_independent_exact(x) == want
            checks += 1
        verdicts[want] += 1
    assert verdicts[True] >= 8 and verdicts[False] >= 8
    if branch == "wide":
        assert paths["wide"] >= 2 * checks
    else:
        assert paths["wide"] == 0 and paths[branch] >= checks
        if branch == "bincount":
            assert paths["unique"] == 0


def _atom_inputs(rng):
    """Random matrices, shuffled 1-products of 2-4 factors, and parity rows.

    Three or more parity rows are pairwise independent but not jointly, so
    there the atoms are coarser than the components.
    """
    inputs = [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 9), 0, 2) for _ in range(40)]
    for _ in range(40):
        P = random_matrix(rng, rng.randint(1, 2), rng.randint(1, 3), 0, 2)
        for _ in range(rng.randint(1, 3)):
            P = one_product(P, random_matrix(rng, rng.randint(1, 2), rng.randint(1, 3), 0, 2))
        inputs.append(seeded_shuffle(P, rng.getrandbits(64))[0])
    for _ in range(40):
        P = parity_rows(rng.randint(2, 3))
        P = P.submatrix(sorted(rng.sample(range(P.m), rng.randint(3, min(P.m, 5)))), range(P.n))
        if rng.random() < 0.6:
            P = one_product(P, random_matrix(rng, rng.randint(1, 2), rng.randint(1, 3), 0, 2))
        inputs.append(seeded_shuffle(P, rng.getrandbits(64))[0])
    return inputs


def test_atoms_match_bruteforce_partition():
    # the merge's splits are the exact check of each atom against the union
    # of the later atoms, and that check holds at every column, also where
    # the components merge and the chain runs again over the atoms
    rng = random.Random(22)
    pairs = finer = merged = 0
    for S in _atom_inputs(rng):
        for given in [None] + list(range(S.m)):
            F = InfoFunction(S, given=given)
            got, splits = F._merge(F.components())
            assert got == F.atoms() == _atoms_reference(S, given)
            assert len(splits) == max(len(got) - 1, 0)
            for k, counts in enumerate(splits):
                later = tuple(sorted(i for A in got[k + 1 :] for i in A))
                want = F._split_counts(got[k], later)
                assert all(np.array_equal(c, w) for c, w in zip(counts, want))
                assert counts[4].all()
            pairs += 1
            finer += len(got) >= 3
            merged += got != F.components()
    assert pairs > 600 and finer > 250 and merged > 80


@pytest.mark.parametrize("k", [3, 4, 6])
def test_atoms_of_pairwise_independent_rows(k):
    # every pair of parity rows is independent, so each row is its own
    # component, yet no bipartition is a zero: one atom.  Beside a factor
    # that is one row, the product has exactly the two blocks.
    P = parity_rows(k)
    F = InfoFunction(P)
    assert F.components() == [(i,) for i in range(P.m)]
    assert F.atoms() == [tuple(range(P.m))]
    rng = random.Random(23 + k)
    row = [rng.randint(0, 2) for _ in range(3)]
    row[rng.randrange(3)] = 3  # not constant
    S, row_perm, _ = seeded_shuffle(one_product(P, Matrix([row])), rng.getrandbits(64))
    single = (row_perm.index(P.m),)
    want = sorted([single, tuple(i for i in range(S.m) if i != single[0])])
    assert InfoFunction(S).atoms() == want


def _distinct_01(rng, m, n):
    """A 0/1 matrix of m distinct non-constant rows over n columns (m < 2**n - 1)."""
    rows = set()
    while len(rows) < m:
        row = tuple(rng.randint(0, 1) for _ in range(n))
        if 0 < sum(row) < n:
            rows.add(row)
    return Matrix(sorted(rows, key=lambda _: rng.random()))


def _binary_screen_inputs(rng):
    """0/1 matrices with distinct non-constant rows: random ones, 1-products
    (whose graphs split given any row), and both with a planted row 1 - r."""
    inputs = []
    for _ in range(30):
        inputs.append(_distinct_01(rng, rng.randint(2, 7), rng.randint(4, 12)))
    for _ in range(30):
        A = _distinct_01(rng, rng.randint(1, 3), rng.randint(3, 4))
        B = _distinct_01(rng, rng.randint(1, 3), rng.randint(3, 4))
        inputs.append(seeded_shuffle(one_product(A, B), rng.getrandbits(64))[0])
    for S in inputs[::3]:
        r = rng.randrange(S.m)
        rows = list(S.rows) + [tuple(1 - x for x in S.rows[r])]
        inputs.append(seeded_shuffle(Matrix(rows), rng.getrandbits(64))[0])
    return inputs


def _graph_components(dep, rows):
    """Components of the adjacency dep over the given rows (BFS reference)."""
    left, comps = set(rows), set()
    while left:
        todo = [min(left)]
        comp = set(todo)
        while todo:
            i = todo.pop()
            for j in left - comp:
                if dep[i, j]:
                    comp.add(j)
                    todo.append(j)
        left -= comp
        comps.add(frozenset(comp))
    return comps


def _conditional_components(S, r):
    """InfoFunction(S, given=r).components() as rows of S, without the row 1 - r."""
    comp = tuple(1 - x for x in S.rows[r])
    F = InfoFunction(S, given=r)
    got = {frozenset(F.ground[i] for i in c) for c in F.components()}
    return {c - {i for i in c if S.rows[i] == comp} for c in got} - {frozenset()}


def _twins(S):
    """out[r, i]: row i is 1 - row r, the row the matroid split leaves out."""
    comp = [tuple(1 - x for x in row) for row in S.rows]
    return np.array([[row == comp[r] for row in S.rows] for r in range(S.m)])


def _check_binary_screen(S):
    """The batched graphs give each row's components, and the screen the rows
    with two or more; returns the numbers of blocks and of those rows."""
    blocks = list(info._dependence_graphs(S, S.codes))
    dep = np.concatenate(blocks)
    assert len(dep) == S.m
    twin = _twins(S)
    want_rows = []
    for r in range(S.m):
        keep = [i for i in range(S.m) if i != r and not twin[r, i]]
        want = _conditional_components(S, r)
        assert _graph_components(dep[r], keep) == want, (S, r)
        if len(want) >= 2:
            want_rows.append(r)
    got = list(info._special_row_candidates(S, twin))
    assert [r for r, _ in got] == want_rows
    for r, comps in got:  # ground rows given r, as rows of S
        assert {frozenset(i + (i >= r) for i in c) for c in comps} == _conditional_components(S, r)
    return len(blocks), len(want_rows)


def test_binary_screen_matches_conditional_components(monkeypatch):
    # each row's batched dependence graph has the components of
    # InfoFunction(S, given=r), and the screen yields exactly the rows whose
    # graph has two or more components besides r and the row 1 - r; with a
    # one-cell budget every given row is its own block
    rng = random.Random(24)
    inputs = _binary_screen_inputs(rng)
    found = [_check_binary_screen(S) for S in inputs]
    assert sum(c > 0 for _, c in found) > 20 and sum(c == 0 for _, c in found) > 10
    monkeypatch.setattr(info, "_PAIR_CHUNK", 1)
    assert [_check_binary_screen(S) for S in inputs] == [(S.m, c) for S, (_, c) in zip(inputs, found)]


def test_binary_screen_in_several_blocks():
    # 16 x 400 and a 1-product of two 8 x 20 factors go over the cell budget
    # in one block, so the given rows are counted a few at a time
    rng = random.Random(25)
    big = _distinct_01(rng, 16, 400)
    rows = list(one_product(_distinct_01(rng, 8, 20), _distinct_01(rng, 8, 20)).rows)
    rows.append(tuple(1 - x for x in rows[3]))
    planted = seeded_shuffle(Matrix(rows), rng.getrandbits(64))[0]
    for S, splits in ((big, False), (planted, True)):
        blocks, found = _check_binary_screen(S)
        assert 1 < blocks < S.m
        assert (found > 0) == splits


def test_reduced_kernel_matches_reference(dependence_paths):
    # given rows of 3 and 4 values, constant rows (no reduced indicator, or
    # a given row with none) and Fraction entries: the graph of one kernel
    # call has the components of the Counter reference
    rng = random.Random(26)
    inputs = []
    for _ in range(60):
        n = rng.randint(2, 12)
        rows = [[rng.randint(0, rng.choice((0, 1, 2, 3))) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        rows.append([rng.randrange(rng.choice((3, 4))) for _ in range(n)])
        if len(inputs) % 2:
            rows.insert(rng.randrange(len(rows) + 1), [rng.randint(0, 2)] * n)
        inputs.append(Matrix(rows))
    for _ in range(10):
        n = rng.randint(2, 10)
        inputs.append(Matrix([[Fraction(rng.randint(0, 2), rng.choice((1, 3))) for _ in range(n)] for _ in range(4)]))
    runs = many = constant = 0
    for S in inputs:
        for given in [None] + list(range(S.m)):
            F = InfoFunction(S, given=given)
            assert F.components() == _components_by_counters(S, given)
            runs += F.m > 0
            many += given is not None and len(set(S.rows[given])) >= 3
            constant += any(len(set(row)) == 1 for row in S.rows)
    assert dependence_paths == {"gram": runs, "chunked": 0}
    assert many > 150 and constant > 100, (many, constant)


def _screen_inputs(rng):
    """Matrices with entries 0..2 plus planted 0/1 rows (and 2-products of
    such factors), with rows that are functions of a planted row: 1 - r, 2*r."""
    inputs = []
    while len(inputs) < 80:
        n = rng.randint(3, 10)
        rows = list(random_matrix(rng, rng.randint(1, 4), n, 0, 2).rows)
        rows += [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 2))]
        if len(inputs) % 2:
            S1 = Matrix(random_matrix(rng, rng.randint(1, 3), 3, 0, 2).rows + ((0, 1, 1),))
            S2 = Matrix(random_matrix(rng, rng.randint(1, 3), 3, 0, 1).rows + ((1, 0, 1),))
            rows = list(two_product(S1, S1.m - 1, S2, S2.m - 1).rows)
        r = rows[-1]
        rows += [tuple(1 - x for x in r), tuple(2 * x for x in r)][: rng.randint(0, 2)]
        inputs.append(seeded_shuffle(Matrix(rows), rng.getrandbits(64))[0])
    return inputs


def _screen_reference(S, out):
    """(r, components) of every 0/1 row r whose graph given r, without the
    rows out[r], has two or more components, by the Counter reference on
    the rows kept."""
    got = []
    for r, row in enumerate(S.rows):
        if set(row) != {0, 1}:
            continue
        keep = [i for i in range(S.m) if i != r and (out is None or not out[r, i])]
        comps = _components_by_counters(S.submatrix(keep + [r], range(S.n)), len(keep))
        if len(comps) >= 2:
            got.append((r, [tuple(keep[i] - (keep[i] > r) for i in c) for c in comps]))
    return got


def _screen_cases(rng, inputs):
    """(S, out) for each input: left out none, the rows that are functions of
    the given row r (isolated in its graph) and random rows (which may carry
    edges)."""
    cases = []
    for S in inputs:
        func = np.array([[len(set(zip(S.rows[r], row))) == len(set(S.rows[r])) for row in S.rows] for r in range(S.m)])
        rand = np.array([[rng.random() < 0.3 for _ in range(S.m)] for _ in range(S.m)])
        cases += [(S, None), (S, func), (S, rand)]
    return cases


def test_special_row_screen_on_any_matrix(monkeypatch):
    # the given rows are the 0/1 rows; the screen yields exactly those whose
    # graph, with the rows of out[r] left out, has two or more components,
    # and those components.  The same with a one-cell budget per block and
    # on the chunked path.  A second family puts one or two constant rows
    # into each input, and sets constant rows beside one 0/1 row: a constant
    # row's block of E is one zero row, a node with no edge
    rng = random.Random(27)
    inputs = _screen_inputs(rng)
    cases = _screen_cases(rng, inputs)
    want = [_screen_reference(S, out) for S, out in cases]
    assert sum(bool(w) for w in want) > 120 and sum(not w for w in want) > 60
    assert sum(len(comps) >= 3 for w in want for _, comps in w) > 150
    constant = []
    for S in inputs:
        rows = list(S.rows)
        for _ in range(rng.randint(1, 2)):
            rows.insert(rng.randint(0, len(rows)), (rng.randint(0, 2),) * S.n)
        constant.append(Matrix(rows))
    for c in range(1, 6):
        n = rng.randint(2, 8)
        binary = (0, 1) + tuple(rng.randint(0, 1) for _ in range(n - 2))
        rows = [(rng.randint(0, 2),) * n for _ in range(c)]
        rows.insert(rng.randint(0, c), binary)
        constant.append(Matrix(rows))
    constant_cases = _screen_cases(rng, constant)
    constant_want = [_screen_reference(S, out) for S, out in constant_cases]
    # a constant row kept in r's graph is a component by itself
    alone = sum(
        len(comp) == 1 and len(set(S.rows[comp[0] + (comp[0] >= r)])) == 1
        for (S, _), w in zip(constant_cases, constant_want)
        for r, comps in w
        for comp in comps
    )
    assert sum(bool(w) for w in constant_want) > 150 and alone > 500, alone
    cases += constant_cases
    want += constant_want
    for patch in ({}, {"_PAIR_CHUNK": 1}, {"_GRAM_CAP": -1}):
        with monkeypatch.context() as mp:
            for name, value in patch.items():
                mp.setattr(info, name, value)
            assert [list(info._special_row_candidates(S, out)) for S, out in cases] == want, patch


def test_recognizers_build_each_graph_once(monkeypatch):
    # the 2-product recognizer and the matroid split take every candidate's
    # components from the screen: each 0/1 row's graph is built once, in
    # the screen's batched calls, each matrix's reduced indicators E and
    # pair counts P are built once, and InfoFunction.components never runs
    given, built, indicators = [], [], []
    real, real_pairs, real_indicators = info._indicator_dependence, info._pair_counts, info._indicators

    def spy(*args):
        given.append(len(args[-1]))  # the given rows' codes come last
        return real(*args)

    def pairs_spy(S, q):
        built.append(S._pairs is None or S._pairs[0] is None)
        return real_pairs(S, q)

    def indicators_spy(codes, k):
        indicators.append(len(codes))
        return real_indicators(codes, k)

    monkeypatch.setattr(info, "_indicator_dependence", spy)
    monkeypatch.setattr(info, "_pair_counts", pairs_spy)
    monkeypatch.setattr(info, "_indicators", indicators_spy)
    monkeypatch.setattr(InfoFunction, "components", lambda self: pytest.fail("a graph was built again"))
    rng = random.Random(28)
    found = 0
    for S in _screen_inputs(rng):
        given.clear()
        built.clear()
        indicators.clear()
        found += recognize_two_product(S) is not None
        binary = sum(set(row) == {0, 1} for row in S.rows)
        # a matrix of two rows cannot split: no graph at all
        assert sum(given) == (S.m >= 3) * binary
        assert sum(built) == len(indicators) == (S.m >= 3 and binary > 0)
        assert not any(a.flags.writeable for a in (S._pairs or ())[:4])  # P, E, k, starts
        assert S._pairs is None or S._pairs[0].dtype == np.int32
    for _ in range(10):
        _, S, _ = random_feasible_expr(rng, max_leaves=4, dmax=5, max_cols=120, max_rows=24)
        given.clear()
        built.clear()
        indicators.clear()
        found += _two_product_split(seeded_shuffle(S, rng.getrandbits(64))[0]) is not None
        assert sum(given) == (S.m >= 3) * S.m
        assert sum(built) == len(indicators) == (S.m >= 3)
    assert found > 50
