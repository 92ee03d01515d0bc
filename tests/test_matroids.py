import random
import tracemalloc
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest

from prodmat import (
    CoherenceError,
    GuardExceeded,
    InfoFunction,
    Leaf,
    Matrix,
    MatroidInputError,
    OneSum,
    TwoSum,
    dual,
    dual_expr,
    expr_to_bases,
    expr_to_slack,
    expr_to_text,
    factorize_irreducible,
    hypersimplex_slack,
    is_isomorphic,
    one_product,
    one_sum,
    parse_expr,
    recognize_2level_matroid_slack,
    recognize_hypersimplex,
    seeded_shuffle,
    two_sum,
    uniform_bases,
)
from prodmat import matroids, products
from prodmat.info import group_columns
from prodmat.matroids import (
    Matroid,
    _base_lists,
    _base_sets,
    _build,
    _facet_rows,
    _reexpands,
    _recognize_rec,
    _screen,
    _two_product_split,
    _two_sum,
    expr_to_slack_with_bases,
)
from prodmat.oracles import base_exchange_validator

from helpers import (
    base_families_match,
    expr_to_slack_reference,
    facet_rows_reference,
    hypersimplex_col_bases,
    hypersimplex_slack_reference,
    random_expr,
    random_feasible_expr,
    row_provenance_reference,
    two_sum_slack_reference,
    u42_chain,
    verify_candidate,
)


def test_uniform_bases():
    M = uniform_bases(2, 1)
    assert M.bases == {frozenset({0}), frozenset({1})}
    assert len(uniform_bases(4, 2).bases) == 6
    assert uniform_bases(3, 0).bases == {frozenset()}
    with pytest.raises(ValueError):
        uniform_bases(3, 4)


def test_dual():
    assert dual(uniform_bases(4, 1)) == uniform_bases(4, 3)
    M = uniform_bases(5, 2)
    assert dual(dual(M)) == M


def test_one_sum():
    A = uniform_bases(2, 1)
    B = Matroid(range(2, 4), [frozenset({2}), frozenset({3})])
    M = one_sum(A, B)
    assert len(M.bases) == 4 and M.rank == 2
    with pytest.raises(ValueError):
        one_sum(A, A)


def test_two_sum_tiny():
    # U21 on {a,p} with U21 on {p,b} collapses to U21 on {a,b}
    A = Matroid(["a", "p"], [frozenset({"a"}), frozenset({"p"})])
    B = Matroid(["p", "b"], [frozenset({"p"}), frozenset({"b"})])
    M = two_sum(A, B, "p")
    assert M.bases == {frozenset({"a"}), frozenset({"b"})}


def test_two_sum_rank_and_validator():
    rng = random.Random(41)
    for _ in range(15):
        d1, d2 = rng.randint(2, 5), rng.randint(2, 5)
        k1 = rng.randint(1, d1 - 1)
        k2 = rng.randint(1, d2 - 1)
        A = Matroid(range(d1), uniform_bases(d1, k1).bases)
        B = Matroid(range(d1 - 1, d1 + d2 - 1),
                    [frozenset(x + d1 - 1 for x in b) for b in uniform_bases(d2, k2).bases])
        M = two_sum(A, B, d1 - 1)
        assert M.rank == k1 + k2 - 1
        assert base_exchange_validator(M)


def test_two_sum_dual_commutes():
    A = Matroid(range(4), uniform_bases(4, 2).bases)
    B = Matroid(range(3, 6), [frozenset(x + 3 for x in b) for b in uniform_bases(3, 1).bases])
    lhs = dual(two_sum(A, B, 3))
    rhs = two_sum(dual(A), dual(B), 3)
    assert lhs == rhs


def test_two_sum_preconditions():
    A = uniform_bases(3, 1)
    B = Matroid(range(3, 6), [frozenset(x + 3 for x in b) for b in uniform_bases(3, 1).bases])
    with pytest.raises(ValueError):
        two_sum(A, B, 0)  # grounds do not intersect
    C = Matroid([2, 3], [frozenset({2, 3})])  # 2,3 are coloops
    with pytest.raises(ValueError):
        two_sum(uniform_bases(3, 1), C, 2)


def test_hypersimplex_slack_shapes():
    # every leaf with d <= 9 is kept by `_uniform`, so the second pass builds
    # from the kept arrays: they equal the tuple reference, refuse writes,
    # are the same objects on every call, and no Matrix the builder returns
    # is a view of them
    for _ in range(2):
        for d in range(2, 10):
            for k in range(1, d):
                S, slack = hypersimplex_slack(d, k), expr_to_slack(Leaf(d, k))
                built, bases = expr_to_slack_with_bases(Leaf(d, k))
                want, want_bases = hypersimplex_slack_reference(d, k)
                assert S == slack == built == want and bases == want_bases
                A, B = leaf = matroids._uniform(d, k)
                assert all(a is b for a, b in zip(leaf, matroids._uniform(d, k)))
                for M in (S, slack, built):
                    assert not np.shares_memory(M.array, A) and not np.shares_memory(M.array, B)
                for kept in (A, B):
                    with pytest.raises(ValueError, match="read-only"):
                        kept[0, 0] = 1
                if k in (1, d - 1):
                    assert S.m == d and S.n == d
                else:
                    assert S.m == 2 * d and S.n == comb(d, k)
                    # every column has exactly d ones: v plus 1-v
                    for j in range(S.n):
                        assert (S.array[:, j] == 1).sum() == d
    assert hypersimplex_slack(3, 1) == Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        hypersimplex_slack(4, 0)


def test_kept_leaves_stay_under_the_stated_size():
    # `_uniform` keeps at most 64 leaves, of at most 2^14 slack entries, each
    # under 96 KB: 6 MB at worst.  Each leaf is measured on its second build,
    # once the allocator's free lists hold the garbage of the first.  Every
    # leaf is a (slack, incidence) pair of read-only arrays, and a leaf over
    # the bound is built afresh on each call, not kept.
    assert matroids._kept_uniform.cache_info().maxsize == matroids._KEPT_LEAVES == 64
    assert matroids._KEPT_LEAF_CELLS == 1 << 14
    kept = [
        (d, k)
        for d in range(2, 129)
        for k in range(1, d)
        if (d * d if k in (1, d - 1) else 2 * d * comb(d, k)) <= matroids._KEPT_LEAF_CELLS
    ]
    sizes = {}
    for d, k in kept:
        matroids._kept_uniform.__wrapped__(d, k)
        tracemalloc.start()
        try:
            leaf = matroids._kept_uniform.__wrapped__(d, k)
            sizes[d, k] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del leaf
    assert len(sizes) == 327 and max(sizes.values()) < 96 << 10
    assert matroids._KEPT_LEAVES * max(sizes.values()) < 6 << 20
    for d, k in ((4, 2), (11, 5), (128, 1), (128, 127)):
        first, second = matroids._uniform(d, k), matroids._uniform(d, k)
        assert (d, k) in sizes and len(first) == 2 and all(a is b for a, b in zip(first, second))
        assert not any(a.flags.writeable for a in first)
        assert matroids._reexpands(hypersimplex_slack(d, k), Leaf(d, k), first[1])
    for d, k in ((12, 6), (129, 1), (129, 128)):
        first, second = matroids._uniform(d, k), matroids._uniform(d, k)
        assert (d, k) not in sizes and len(first) == len(second) == 2
        assert not any(a is b for a, b in zip(first, second))
        assert (first[0] == second[0]).all() and (first[1] == second[1]).all()
        assert matroids._reexpands(hypersimplex_slack(d, k), Leaf(d, k), first[1])


def test_hypersimplex_self_complementary():
    for d, k in ((4, 2), (5, 2), (6, 2), (6, 3)):
        A = hypersimplex_slack(d, k)
        B = hypersimplex_slack(d, d - k)
        assert is_isomorphic(A, B) is not None


def test_recognize_hypersimplex_roundtrip():
    rng = random.Random(42)
    for d in range(2, 9):
        for k in range(1, d):
            S = hypersimplex_slack(d, k)
            sh, _, _ = seeded_shuffle(S, rng.getrandbits(64))
            form = recognize_hypersimplex(sh)
            assert form is not None
            assert form.d == d and form.k == min(k, d - k)
            # side labeling reads back a valid base family
            bases = hypersimplex_col_bases(sh, form)
            assert set(bases) == uniform_bases(d, form.k).bases


def test_recognize_hypersimplex_negative():
    S = hypersimplex_slack(4, 2)
    rows = [list(r) for r in S.rows]
    rows[0][0] = 1 - rows[0][0]
    assert recognize_hypersimplex(Matrix(rows)) is None
    assert recognize_hypersimplex(Matrix([[1, 0], [1, 1]])) is None


def test_recognize_hypersimplex_rejects_flipped_pairs():
    # flipping both rows of a complement pair in one column keeps every row
    # paired with its complement, so only the column check that runs after
    # the orientation can reject the matrix
    rng = random.Random(51)
    cases = 0
    for d in range(4, 8):
        for k in range(2, d - 1):
            sh, _, _ = seeded_shuffle(hypersimplex_slack(d, k), rng.getrandbits(64))
            index = {row: i for i, row in enumerate(sh.rows)}
            for i, row in enumerate(sh.rows):
                i2 = index[tuple(1 - x for x in row)]
                if i > i2:
                    continue
                for j in range(sh.n):
                    rows = [list(r) for r in sh.rows]
                    for h in (i, i2):
                        rows[h][j] = 1 - rows[h][j]
                    assert recognize_hypersimplex(Matrix(rows)) is None, (d, k, i, j)
                    cases += 1
    assert cases == 1208


def test_recognize_identity():
    I6 = hypersimplex_slack(6, 1)
    sh, _, _ = seeded_shuffle(I6, 77)
    form = recognize_hypersimplex(sh)
    assert form is not None and (form.d, form.k) == (6, 1)


def test_expr_to_bases():
    assert expr_to_bases(Leaf(3, 1)).bases == uniform_bases(3, 1).bases
    M = expr_to_bases(TwoSum(Leaf(2, 1), Leaf(2, 1), 1, 0))
    assert M.bases == {frozenset({0}), frozenset({1})}


def _leaf_product(e):
    """Product of the leaves' base counts: a bound on the base pairs a sum visits."""
    if isinstance(e, Leaf):
        return comb(e.d, e.k)
    return prod(_leaf_product(p) for p in (e.parts if isinstance(e, OneSum) else (e.left, e.right)))


def _manual_bases(expr):
    """expr's matroid folded through uniform_bases, one_sum and two_sum."""
    if isinstance(expr, Leaf):
        return uniform_bases(expr.d, expr.k)
    if isinstance(expr, OneSum):
        acc = None
        off = 0
        for p in expr.parts:
            sub = _manual_bases(p)
            sub = Matroid(
                [x + off for x in sub.ground],
                [frozenset(x + off for x in b) for b in sub.bases],
            )
            acc = sub if acc is None else one_sum(acc, sub)
            off += len(sub.ground)
        return acc
    L = _manual_bases(expr.left)
    R = _manual_bases(expr.right)
    off = len(L.ground)
    glue = expr.glue_left
    relabel = {}
    for x in R.ground:
        relabel[x] = glue if x == expr.glue_right else x + off
    R2 = Matroid(
        [relabel[x] for x in R.ground],
        [frozenset(relabel[x] for x in b) for b in R.bases],
    )
    M2 = two_sum(L, R2, glue)
    # normalize labels to 0..size-1 in ground order
    order = {x: i for i, x in enumerate(sorted(M2.ground))}
    return Matroid(
        sorted(order[x] for x in M2.ground),
        [frozenset(order[x] for x in b) for b in M2.bases],
    )


def test_expr_to_bases_matches_manual_composition():
    # coherent expressions; incoherent ones of up to 5 leaves, on which the
    # builder raises and expr_to_bases does not; 1-sums of three parts;
    # 2-sums of small parts glued at every element of both; and the duals
    # of all of these
    rng = random.Random(43)
    exprs = [random_feasible_expr(rng, max_leaves=3, dmax=5, max_cols=200, max_rows=30)[0] for _ in range(20)]
    coherent, incoherent = [], []
    while len(incoherent) < 20:
        e = random_expr(rng, rng.randint(2, 5), dmax=5)
        if _leaf_product(e) > 2000:
            continue
        try:
            expr_to_slack(e)
        except CoherenceError:
            incoherent.append(e)
        else:
            coherent.append(e)
    exprs += coherent[:40] + incoherent
    bridge = TwoSum(Leaf(3, 1), Leaf(3, 2), 2, 0)
    exprs += [
        OneSum((Leaf(2, 1), Leaf(3, 2), Leaf(4, 2))),
        OneSum((Leaf(3, 1), bridge, OneSum((Leaf(2, 1), Leaf(3, 1))))),
    ]
    pairs = [
        (Leaf(3, 1), Leaf(4, 2)),
        (Leaf(4, 3), Leaf(3, 1)),
        (bridge, Leaf(3, 1)),
        (OneSum((Leaf(2, 1), Leaf(3, 1))), bridge),
    ]
    for left, right in pairs:
        exprs += [TwoSum(left, right, i, j) for i in range(left.size) for j in range(right.size)]
    for e in exprs + [dual_expr(e) for e in exprs]:
        M = expr_to_bases(e)
        man = _manual_bases(e)
        assert man == M and M.ground == tuple(range(e.size))
        assert len(man.bases) == len(M.bases)
        assert {frozenset(b) for b in man.bases} == {
            frozenset(b) for b in _relabel_like(man, M)
        }


def _relabel_like(man, M):
    # both matroids live on 0..size-1 but may order elements differently;
    # match elements by their base-membership column patterns
    cols_m = sorted(M.bases, key=sorted)
    vec = lambda mat, e: tuple(e in b for b in sorted(mat.bases, key=sorted))
    used = set()
    mapping = {}
    for e in man.ground:
        for f in M.ground:
            if f not in used and vec(man, e) == vec(M, f):
                mapping[e] = f
                used.add(f)
                break
        else:
            return []
    return [frozenset(mapping[x] for x in b) for b in man.bases]


def test_expr_to_slack_examples():
    assert expr_to_slack(Leaf(4, 2)) == hypersimplex_slack(4, 2)
    assert expr_to_slack(TwoSum(Leaf(2, 1), Leaf(2, 1), 1, 0)) == Matrix([[1, 0], [0, 1]])
    square = expr_to_slack(OneSum((Leaf(2, 1), Leaf(2, 1))))
    assert is_isomorphic(square, one_product(Matrix([[1, 0], [0, 1]]), Matrix([[1, 0], [0, 1]]))) is not None


def test_expr_to_slack_coherence_error():
    # a d >= 3 simplex leaf carries only nonnegativity rows, so it cannot
    # supply the "<= 1" side, and its dual cannot supply the ">= 0" side
    with pytest.raises(CoherenceError):
        expr_to_slack(TwoSum(Leaf(3, 1), Leaf(3, 1), 0, 0))


@pytest.mark.parametrize("gl, gr", [(9, 9), (-1, 0), (0, 4)])
def test_expr_to_slack_glue_out_of_range(gl, gr):
    # a 2-sum refuses a glue element outside its parts' grounds when it is
    # built, so neither the builder nor expr_to_bases ever sees one
    with pytest.raises(ValueError, match="glue element out of range") as exc:
        TwoSum(Leaf(4, 2), Leaf(4, 2), gl, gr)
    assert exc.type is ValueError


def test_builder_guard_counts_each_sum_steps_columns(monkeypatch):
    # the builder counts a sum step's columns, one per base, before building
    # it: an expression builds under a bound equal to its column count and
    # raises GuardExceeded one below it; a part of a sum never has more
    # columns than the sum
    rng = random.Random(65)
    sums = []
    while len(sums) < 12:
        e, S, _ = random_feasible_expr(rng, max_leaves=4, dmax=5, max_cols=300, max_rows=40)
        if not isinstance(e, Leaf):
            sums.append((e, S))
    for e, S in sums:
        monkeypatch.setattr(matroids, "_MAX_COLUMNS", S.n)
        assert expr_to_slack(e) == S
        monkeypatch.setattr(matroids, "_MAX_COLUMNS", S.n - 1)
        with pytest.raises(GuardExceeded, match=f"would have {S.n} columns"):
            expr_to_slack(e)


def test_expr_to_slack_column_bases_consistent():
    rng = random.Random(44)
    for _ in range(15):
        e, S, bases = random_feasible_expr(rng, max_leaves=4, dmax=5, max_cols=300, max_rows=35)
        M = expr_to_bases(e)
        assert set(bases) == M.bases
        assert len(bases) == S.n == len(M.bases)


def test_expr_text_roundtrip():
    for text, expr in [
        ("(u 4 2)", Leaf(4, 2)),
        ("(1sum (u 2 1) (u 3 2))", OneSum((Leaf(2, 1), Leaf(3, 2)))),
        ("(2sum (u 2 1) (u 2 1))", TwoSum(Leaf(2, 1), Leaf(2, 1), 1, 0)),
        ("(2sum [0 1] (u 3 1) (u 4 2))", TwoSum(Leaf(3, 1), Leaf(4, 2), 0, 1)),
    ]:
        assert parse_expr(text) == expr
        assert parse_expr(expr_to_text(expr)) == expr
    with pytest.raises(ValueError):
        parse_expr("(3sum (u 2 1) (u 2 1))")


def test_depth_400_left_deep_chains():
    # each node holds its size, so no walker recounts a subtree; a 2-sum of
    # U(2,1) with U(2,1) is U(2,1) again, and 400 2-sums of 401 U(3,1)
    # leaves make U(403,1), its elements relabeled at every level
    for d in (2, 3):
        text = "(2sum " * 400 + f"(u {d} 1)" + f" (u {d} 1))" * 400
        e = parse_expr(text)
        size = d + 400 * (d - 2)  # each 2-sum adds d - 2 elements
        assert e.size == size and e.left.size == size - (d - 2)
        assert expr_to_text(e) == text
        M = expr_to_bases(e)
        assert M.ground == tuple(range(size)) and M == uniform_bases(size, 1)
    # equality, hashing and repr go through the text, which any depth that
    # parse_expr reads takes, for chains of either sum
    for kind in ("1sum", "2sum"):
        text = f"({kind} " * 400 + "(u 3 1)" + " (u 3 1))" * 400
        e, f = parse_expr(text), parse_expr(text)
        assert e == f and hash(e) == hash(f) and e is not f
        assert eval(repr(e)) == e and repr(e) == f"parse_expr({text!r})"
        assert expr_to_text(e) == text and parse_expr(expr_to_text(e)) == e
        g = parse_expr(text.replace("(u 3 1))", "(u 3 2))", 1))
        assert g != e and e != text


def test_dual_expr_same_slack():
    rng = random.Random(45)
    for _ in range(10):
        e, S, _ = random_feasible_expr(rng, max_leaves=3, dmax=5, max_cols=200, max_rows=30)
        Sd = expr_to_slack(dual_expr(e))
        assert is_isomorphic(S, Sd) is not None


def test_recognize_matroid_leaf():
    sh, _, _ = seeded_shuffle(hypersimplex_slack(5, 2), 4)
    rec = recognize_2level_matroid_slack(sh)
    assert rec is not None
    assert rec.expr in (Leaf(5, 2), Leaf(5, 3))


def test_recognize_matroid_two_sum():
    e = TwoSum(Leaf(4, 2), Leaf(3, 2), 3, 0)
    S = expr_to_slack(e)
    sh, _, _ = seeded_shuffle(S, 6)
    rec = recognize_2level_matroid_slack(sh)
    assert rec is not None
    assert is_isomorphic(expr_to_slack(rec.expr), sh) is not None


def test_recognize_matroid_negative_pentagon():
    P = Matrix(
        [
            [0, 0, 1, 1, 1],
            [1, 0, 0, 1, 1],
            [1, 1, 0, 0, 1],
            [1, 1, 1, 0, 0],
            [0, 1, 1, 1, 0],
        ]
    )
    assert recognize_2level_matroid_slack(P) is None


def test_recognize_matroid_preconditions():
    with pytest.raises(MatroidInputError):
        recognize_2level_matroid_slack(Matrix([[2, 0], [0, 1]]))
    with pytest.raises(MatroidInputError):
        recognize_2level_matroid_slack(Matrix([[1, 1], [0, 1]]))  # constant row
    with pytest.raises(MatroidInputError):
        recognize_2level_matroid_slack(Matrix([[1, 0], [1, 0], [0, 1]]))  # dup rows
    with pytest.raises(MatroidInputError):
        recognize_2level_matroid_slack(Matrix([[1, 1, 0], [0, 0, 1]]))  # dup cols


def test_screen_reasons_in_order():
    # each input breaks the conditions from its own onward, so the reason is
    # the first condition it breaks
    cases = [
        (Matrix([[2, 0], [0, 0], [0, 0]]), "entries must be 0/1"),
        (Matrix([[0, 1], [1, 1], [1, 1]]), "row 1 is constant"),
        (Matrix([[0, 1, 1], [1, 0, 0], [0, 1, 1]]), "rows must be distinct"),
        (Matrix([[0, 1, 1], [1, 0, 0]]), "columns must be distinct"),
        (Matrix([[Fraction(1, 2), 1], [0, 1]]), "entries must be 0/1"),
        (Matrix([[0, 1], [1, 0]]), None),
    ]
    for S, reason in cases:
        assert _screen(S) == reason
        if reason is not None:
            with pytest.raises(MatroidInputError, match=reason):
                recognize_2level_matroid_slack(S)


def test_recognizer_screens_only_its_input(monkeypatch):
    # recognize_2level_matroid_slack screens its input once; the recursion
    # screens no part, and every node of a recognized slack is reached
    calls = {"screen": 0, "node": 0}
    real_screen, real_rec = matroids._screen, matroids._recognize_rec

    def screen(S):
        calls["screen"] += 1
        return real_screen(S)

    def rec(S):
        calls["node"] += 1
        return real_rec(S)

    monkeypatch.setattr(matroids, "_screen", screen)
    monkeypatch.setattr(matroids, "_recognize_rec", rec)
    rng = random.Random(47)
    nodes = 0
    for _ in range(10):
        _, S, _ = random_feasible_expr(rng, max_leaves=4, dmax=5, max_cols=300, max_rows=32)
        calls.update(screen=0, node=0)
        assert recognize_2level_matroid_slack(seeded_shuffle(S, rng.getrandbits(64))[0]) is not None
        assert calls["screen"] == 1 and calls["node"] >= 1
        nodes += calls["node"]
    assert nodes > 10, nodes  # some recognitions recurse into parts


def test_one_sum_nodes_take_one_factor_per_atom(monkeypatch):
    # a 1-product node splits into one factor per atom, the block's distinct
    # patterns in first-occurrence order, without the products module's
    # factorizer; the factors equal factorize_irreducible's
    def fail(*args):
        pytest.fail("the recursion called the products factorizer")

    monkeypatch.setattr(products, "factorize_irreducible", fail)
    monkeypatch.setattr(products, "reconstruct_factors", fail)
    real_rec = matroids._recognize_rec
    nodes, stack = [], []

    def rec(S):
        if stack:  # a part: record it with the node that cut it
            stack[-1].append(S)
        nodes.append((S, []))
        stack.append(nodes[-1][1])
        try:
            return real_rec(S)
        finally:
            stack.pop()

    monkeypatch.setattr(matroids, "_recognize_rec", rec)
    rng = random.Random(48)
    for _ in range(12):
        kids = [random_feasible_expr(rng, max_leaves=2, dmax=4, max_cols=10, max_rows=10)[0] for _ in range(rng.randint(2, 3))]
        S = seeded_shuffle(expr_to_slack(OneSum(tuple(kids))), rng.getrandbits(64))[0]
        assert recognize_2level_matroid_slack(S) is not None
    _, S, _ = random_feasible_expr(random.Random(5), max_leaves=5, dmax=5, max_cols=300, max_rows=32)
    assert recognize_2level_matroid_slack(seeded_shuffle(S, 5)[0]) is not None
    monkeypatch.undo()
    one_sums = 0
    for S, parts in nodes:
        if len(InfoFunction(S).atoms()) >= 2:
            assert tuple(parts) == factorize_irreducible(S).factors
            one_sums += 1
    assert one_sums >= 12, one_sums  # at least every root


def test_recognize_matroid_roundtrip_random():
    rng = random.Random(46)
    for _ in range(25):
        e, S, bases = random_feasible_expr(rng, max_leaves=4, dmax=5, max_cols=300, max_rows=32)
        sh, rp, cp = seeded_shuffle(S, rng.getrandbits(64))
        rec = recognize_2level_matroid_slack(sh)
        assert rec is not None, expr_to_text(e)
        assert is_isomorphic(expr_to_slack(rec.expr), sh) is not None
        orig = [bases[cp[j]] for j in range(S.n)]
        assert base_families_match(orig, rec)


def test_recognize_matroid_near_misses():
    # one flipped entry in a shuffled slack matrix, and the same matrix with
    # one row deleted as well: the recognizer rejects the input, answers
    # None, or returns an expression whose slack matrix is the input up to
    # permutation.  With a row deleted, a recognized answer must still
    # re-expand to the input, so dropping dominated rows in the sides of a
    # split cannot hide a missing facet.
    rng = random.Random(49)
    drop_rng = random.Random(50)
    outcomes = {
        kind: {"input error": 0, "none": 0, "recognized": 0} for kind in ("flip", "flip and drop")
    }
    for _ in range(40):
        _, S, _ = random_feasible_expr(rng, max_leaves=4, dmax=5, max_cols=60, max_rows=32)
        rows = [list(r) for r in seeded_shuffle(S, rng.getrandbits(64))[0].rows]
        i, j = rng.randrange(S.m), rng.randrange(S.n)
        rows[i][j] = 1 - rows[i][j]
        h = drop_rng.randrange(S.m)
        for kind, near in (("flip", Matrix(rows)), ("flip and drop", Matrix(rows[:h] + rows[h + 1:]))):
            try:
                rec = recognize_2level_matroid_slack(near)
            except MatroidInputError:
                outcomes[kind]["input error"] += 1
                continue
            if rec is None:
                outcomes[kind]["none"] += 1
                continue
            assert is_isomorphic(expr_to_slack(rec.expr), near) is not None
            outcomes[kind]["recognized"] += 1
    assert outcomes["flip"]["none"] >= 10 and outcomes["flip and drop"]["none"] >= 10, outcomes


def test_row_provenance_tags_elements():
    e = TwoSum(Leaf(4, 2), Leaf(3, 2), 3, 0)
    S = expr_to_slack(e)
    rec = recognize_2level_matroid_slack(S)
    assert rec.bases.dtype == bool and rec.bases.shape == (S.n, rec.size) == (S.n, 5)
    assert not rec.bases.flags.writeable
    prov = rec.row_provenance(S)
    kinds = {t for t, _ in prov}
    assert "nonneg" in kinds and "upper" in kinds


def test_base_level_verification_of_recognitions():
    # the columns' bases are distinct and are the base family of the answer's
    # expression, and every tagged element row reads back the base
    # indicators (nonneg) or their complements (upper)
    rng = random.Random(47)
    for _ in range(10):
        e, S, _ = random_feasible_expr(rng, max_leaves=4, dmax=5, max_cols=300, max_rows=32)
        sh, _, _ = seeded_shuffle(S, rng.getrandbits(64))
        rec = recognize_2level_matroid_slack(sh)
        assert rec is not None
        col_bases = _base_sets(rec.bases)
        assert len(set(col_bases)) == sh.n
        assert rec.matroid().bases == set(col_bases)
        for i, (kind, elem) in enumerate(rec.row_provenance(sh)):
            if kind == "nonneg":
                assert sh.rows[i] == tuple(
                    1 if elem in b else 0 for b in col_bases
                )
            elif kind == "upper":
                assert sh.rows[i] == tuple(
                    0 if elem in b else 1 for b in col_bases
                )


def test_recognize_matroid_fuzz_at_scale():
    # up to 8 leaves and 2,000 columns: every shuffled slack is recognized
    # with its base family, and a one-flip near-miss is rejected as input,
    # answered None, or recognized with an expression that re-expands to it
    largest = 0
    for seed in (56, 58):
        rng = random.Random(seed)
        for _ in range(20):
            _, S, bases = random_feasible_expr(rng, max_leaves=8, dmax=5, max_cols=2000, max_rows=60)
            largest = max(largest, S.n)
            sh, _, cp = seeded_shuffle(S, rng.getrandbits(64))
            rec = recognize_2level_matroid_slack(sh)
            assert rec is not None
            assert base_families_match([bases[cp[j]] for j in range(S.n)], rec)
            rows = [list(r) for r in sh.rows]
            i, j = rng.randrange(S.m), rng.randrange(S.n)
            rows[i][j] = 1 - rows[i][j]
            near = Matrix(rows)
            try:
                rec = recognize_2level_matroid_slack(near)
            except MatroidInputError:
                continue
            assert rec is None or is_isomorphic(expr_to_slack(rec.expr), near) is not None
    assert largest >= 1000


def test_two_product_split_never_isolates_the_complement_row():
    # the row 1 - r is constant within both values of r, so it is always a
    # singleton atom; a side holding only it would be a two-column factor
    # that relabels S instead of shrinking it.  The sides of a split carry
    # complement rows, so splitting them again reaches inputs that hold the
    # row 1 - r of their own special row.  Each side is passed on as an
    # exact slack matrix, with no dominated row.
    rng = random.Random(50)
    splits = with_complement = 0
    for _ in range(80):
        _, S, _ = random_feasible_expr(rng, max_leaves=5, dmax=5, max_cols=300, max_rows=40)
        todo = [seeded_shuffle(S, rng.getrandbits(64))[0]]
        while todo:
            T = todo.pop()
            split = _two_product_split(T)
            if split is None:
                continue
            splits += 1
            (S1p, glue1, colmap1), (S2p, glue2, colmap2) = split
            special = tuple(glue1[c] for c in colmap1)
            assert special == tuple(glue2[c] for c in colmap2) and special in T.rows
            with_complement += tuple(1 - x for x in special) in T.rows
            for F in (S1p, S2p):
                assert 2 < F.n < T.n
                A = F.array
                assert _facet_rows(A) is A
            todo += [S1p, S2p]
    assert splits >= 20 and with_complement >= 10, (splits, with_complement)


def _two_product_split_per_row(S):
    """The split of `_two_product_split` found by building the atoms given
    every row in turn, with no screen, each side cut by grouping the
    columns of its rows of S (`_split_side_by_rows`)."""
    for r, row in enumerate(S.rows):
        F = InfoFunction(S, given=r)
        comp = tuple(1 - x for x in row)
        atoms = [tuple(F.ground[i] for i in A) for A in F.atoms()]
        atoms = [A for A in atoms if not (len(A) == 1 and S.rows[A[0]] == comp)]
        if len(atoms) < 2:
            continue
        X = tuple(sorted(i for A in atoms[1:] for i in A))
        Xc = tuple(i for i in F.ground if i not in X)
        order = [j for j in range(S.n) if row[j] == 0] + [j for j in range(S.n) if row[j] == 1]
        return _split_side_by_rows(S, X, r, order), _split_side_by_rows(S, Xc, r, order)
    return None


def _split_side_by_rows(S, rows, r, order):
    """(factor, glue pattern, column map) of one side, as lists: the first
    column of each distinct pattern over `rows` and r, r = 0 columns first,
    then r's complement, with dominated rows dropped."""
    F = S.array.take(rows + (r,), axis=0).take(order, axis=1)
    inv, _, first = group_columns(F)
    F = F[:, first]
    F = np.concatenate((F, 1 - F[-1:]))
    colmap = [0] * S.n
    for j, g in zip(order, inv.tolist()):
        colmap[j] = g
    return Matrix(_facet_rows(F)), F[-2].tolist(), colmap


def test_two_product_split_matches_the_per_row_search():
    # the screen builds atoms only for rows whose conditional graph splits;
    # the split is the one found by trying every row.  Inputs: shuffled
    # slacks, a one-flip near-miss of each, and the sides of every split
    rng = random.Random(64)
    outcomes = {"split": 0, "none": 0}
    for _ in range(100):
        _, S, _ = random_feasible_expr(rng, max_leaves=5, dmax=5, max_cols=300, max_rows=40)
        sh = seeded_shuffle(S, rng.getrandbits(64))[0]
        rows = [list(r) for r in sh.rows]
        i, j = rng.randrange(S.m), rng.randrange(S.n)
        rows[i][j] = 1 - rows[i][j]
        todo = [sh, Matrix(rows)]
        while todo:
            T = todo.pop()
            if _screen(T) is not None:
                continue
            split = _two_product_split(T)
            want = _two_product_split_per_row(T)
            if split is None:
                assert want is None
            else:
                assert [(P, glue.tolist(), colmap.tolist()) for P, glue, colmap in split] == list(want)
            outcomes["none" if split is None else "split"] += 1
            if split is not None:
                todo += [split[0][0], split[1][0]]
    assert outcomes["split"] > 80 and outcomes["none"] > 200, outcomes


def test_a_part_that_repeats_a_column_is_refused_without_a_screen():
    # a near-miss whose 2-product split has two sides that repeat a column,
    # once their dominated rows are dropped; neither side is screened, and
    # the recursion refuses each, since no check matches a repeated column
    S = Matrix([[1, 1, 1, 0], [1, 0, 1, 1], [1, 0, 1, 0], [1, 1, 0, 1]])
    assert _screen(S) is None
    split = _two_product_split(S)
    assert split is not None
    for side, _, _ in split:
        assert _screen(side) == "columns must be distinct"
        assert _recognize_rec(side) is None
    assert recognize_2level_matroid_slack(S) is None


def test_verify_candidate_rejects_a_missing_facet_row():
    # the true expression and column bases of a shuffled slack re-expand to
    # every row of it; with one facet row deleted, the rows left are a
    # proper subset of the re-expansion and the comparison must say no
    rng = random.Random(61)
    for _ in range(6):
        e, S, bases = random_feasible_expr(rng, max_leaves=4, dmax=5, max_cols=120, max_rows=24)
        sh, _, cp = seeded_shuffle(S, rng.getrandbits(64))
        col_bases = [bases[cp[j]] for j in range(S.n)]
        assert verify_candidate(sh, e, col_bases)
        for h in range(sh.m):
            assert not verify_candidate(Matrix(sh.rows[:h] + sh.rows[h + 1:]), e, col_bases)


def test_recognize_wide_u42_chains_and_near_misses():
    # 32x486 at 5 leaves, 38x1458 at 6, 44x4374 at 7, 50x13122 at 8 and
    # 56x39366 at 9, the widest 0/1 slacks whose pair counts stay under
    # `info._GRAM_CAP`: every shuffled slack is recognized with its base
    # family; each near-miss (one flipped entry, and from 7 leaves on also
    # deleted rows) is rejected as input, answered None, or recognized with
    # an expression that re-expands to it.  The cases from 7 leaves on draw
    # from their own generators, so the others stay unchanged
    outcomes = {"input error": 0, "none": 0, "recognized": 0}
    rng = random.Random(62)
    cases = (
        (5, (32, 486), rng, 0),
        (6, (38, 1458), rng, 0),
        (7, (44, 4374), random.Random(72), 3),
        (8, (50, 13122), random.Random(82), 1),
        (9, (56, 39366), random.Random(92), 1),
    )
    for leaves, shape, rng, deletions in cases:
        S, bases = expr_to_slack_with_bases(u42_chain(rng, leaves))
        assert (S.m, S.n) == shape
        sh, _, cp = seeded_shuffle(S, rng.getrandbits(64))
        rec = recognize_2level_matroid_slack(sh)
        assert rec is not None
        assert base_families_match([bases[cp[j]] for j in range(S.n)], rec)
        # the answer's column bases and row tags, read from its incidence
        # array, against the same read from one frozenset per column
        col_sets = [frozenset(e for e, x in enumerate(row) if x) for row in rec.bases.tolist()]
        assert _base_lists(rec.bases) == [sorted(b) for b in col_sets]
        assert rec.row_provenance(sh) == row_provenance_reference(sh, col_sets, rec.size)
        nears = []
        for _ in range(3):
            flipped = sh.array.copy()
            i, j = rng.randrange(S.m), rng.randrange(S.n)
            flipped[i, j] = 1 - flipped[i, j]
            nears.append(Matrix(flipped))
        for _ in range(deletions):
            nears.append(Matrix(np.delete(sh.array, rng.randrange(S.m), axis=0)))
        for near in nears:
            try:
                rec = recognize_2level_matroid_slack(near)
            except MatroidInputError:
                outcomes["input error"] += 1
                continue
            if rec is None:
                outcomes["none"] += 1
                continue
            assert is_isomorphic(expr_to_slack(rec.expr), near) is not None
            outcomes["recognized"] += 1
    assert sum(outcomes.values()) == 20, outcomes


def test_facet_rows_keeps_one_copy_of_each_maximal_zero_set():
    S = Matrix([[0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1], [0, 1, 1, 1]])
    # row 2 is a later copy of row 0, row 3 has no zero, and row 4's zero set
    # {0} lies strictly inside row 0's {0, 1}
    assert _facet_rows(S.array).tolist() == [[0, 0, 1, 1], [1, 1, 0, 0]]
    F = Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]).array
    assert _facet_rows(F) is F


def test_recognized_answers_pass_the_full_reexpansion():
    # each node checks its answer with the builder's sum step on its parts'
    # matrices, not by re-expanding its subtree; every answer must still pass
    # the full re-expansion of its expression.  Next to each shuffled slack
    # come a one-flip near-miss, the slack with one row deleted, and the
    # slack with an extra row whose zero set lies strictly inside a row's:
    # the sides of a split can drop such a row, and then only the sum
    # node's own comparison rejects the input
    rng = random.Random(63)
    outcomes = {"input error": 0, "none": 0, "recognized": 0}
    for _ in range(150):
        _, S, _ = random_feasible_expr(rng, max_leaves=5, dmax=5, max_cols=300, max_rows=40)
        sh = seeded_shuffle(S, rng.getrandbits(64))[0]
        flipped = [list(r) for r in sh.rows]
        i, j = rng.randrange(S.m), rng.randrange(S.n)
        flipped[i][j] = 1 - flipped[i][j]
        h = rng.randrange(S.m)
        extra = list(sh.rows[h])
        extra[rng.choice([c for c, x in enumerate(extra) if x == 0])] = 1
        near = (Matrix(flipped), Matrix(sh.rows[:h] + sh.rows[h + 1:]), Matrix(sh.rows + (tuple(extra),)))
        for T in (sh,) + near:
            try:
                rec = recognize_2level_matroid_slack(T)
            except MatroidInputError:
                outcomes["input error"] += 1
                continue
            if rec is None:
                outcomes["none"] += 1
                continue
            assert _reexpands(T, rec.expr, rec.bases), expr_to_text(rec.expr)
            outcomes["recognized"] += 1
    assert outcomes["recognized"] >= 150 and outcomes["none"] >= 300, outcomes


def _leaf_product(e):
    """Product of the leaves' base counts: a bound on the columns of e's slack."""
    if isinstance(e, Leaf):
        return comb(e.d, e.k)
    parts = e.parts if isinstance(e, OneSum) else (e.left, e.right)
    out = 1
    for p in parts:
        out *= _leaf_product(p)
    return out


def _two_sum_nodes(e):
    if isinstance(e, OneSum):
        return [n for p in e.parts for n in _two_sum_nodes(p)]
    if isinstance(e, TwoSum):
        return _two_sum_nodes(e.left) + _two_sum_nodes(e.right) + [e]
    return []


def _assert_builds_like_the_reference(e):
    """expr_to_slack_with_bases equals the tuple fold of tests/helpers.py in
    rows and column bases, and every 2-sum step gives the reference's column
    pairs; or both raise the same exception type.  True if e built."""
    try:
        want = expr_to_slack_reference(e)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            expr_to_slack_with_bases(e)
        assert got.type is type(exc)
        return False
    S, bases = expr_to_slack_with_bases(e)
    assert S.rows == want[0].rows and bases == want[1]
    assert expr_to_slack(e) == S
    for node in _two_sum_nodes(e):
        R, RB, cl, cr = _two_sum(node, _build(node.left), _build(node.right))
        ref = two_sum_slack_reference(node, expr_to_slack_reference(node.left), expr_to_slack_reference(node.right))
        assert list(zip(cl.tolist(), cr.tolist())) == ref[2]
        assert R.tolist() == [list(r) for r in ref[0].rows]
    return True


def test_builder_equals_the_tuple_reference():
    # random 1-sum/2-sum trees over leaves of every kind, identity leaves
    # included, so some 2-sums find no coherent row pair
    rng = random.Random(66)
    outcomes = {"leaf": 0, "sum": 0, "raised": 0}
    while sum(outcomes.values()) < 320:
        e = random_expr(rng, rng.randint(1, 5), dmax=6)
        if _leaf_product(e) > 3000:
            continue
        if not _assert_builds_like_the_reference(e):
            outcomes["raised"] += 1
        else:
            outcomes["leaf" if isinstance(e, Leaf) else "sum"] += 1
    assert outcomes["sum"] >= 120 and outcomes["raised"] >= 25, outcomes


def test_builder_equals_the_tuple_reference_on_u42_chains():
    rng = random.Random(62)
    for leaves in (5, 6, 7):
        assert _assert_builds_like_the_reference(u42_chain(rng, leaves))


def test_facet_rows_equals_the_bitmask_reference():
    # random 0/1 rows with planted copies, all-ones and all-zeros rows and
    # rows whose ones lie inside another row's
    rng = random.Random(67)
    for _ in range(300):
        m, n = rng.randint(1, 8), rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        for _ in range(rng.randint(0, 3)):
            src = list(rng.choice(rows))
            kind = rng.randrange(4)
            if kind == 1:
                src = [1] * n
            elif kind == 2:
                src = [0] * n
            elif kind == 3:
                src = [x * rng.randint(0, 1) for x in src]
            rows.insert(rng.randint(0, len(rows)), src)
        A = np.array(rows, dtype=np.uint8)
        assert _facet_rows(A).tolist() == [list(r) for r in facet_rows_reference(Matrix(rows)).rows]
