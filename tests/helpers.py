"""Shared generators and checkers for the test suite.

All randomness is seeded `random.Random` so every run is reproducible.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from prodmat import CoherenceError, Leaf, Matrix, OneSum, TwoSum, one_product, two_product
from prodmat.info import group_columns
from prodmat.matroids import _reexpands, expr_to_slack_with_bases


def random_matrix(rng, m, n, lo=0, hi=3):
    return Matrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def random_leaf(rng, dmax=6):
    d = rng.randint(2, dmax)
    return Leaf(d, rng.randint(1, d - 1))


def random_expr(rng, budget, dmax=6):
    if budget == 1:
        return random_leaf(rng, dmax)
    c = rng.random()
    if c < 0.3:
        return random_leaf(rng, dmax)
    if c < 0.55:
        t = rng.randint(2, min(3, budget))
        rem, parts = budget, []
        for i in range(t):
            take = rng.randint(1, rem - (t - 1 - i)) if i < t - 1 else rem
            parts.append(random_expr(rng, take, dmax))
            rem -= take
        return OneSum(tuple(parts))
    lb = rng.randint(1, budget - 1)
    left = random_expr(rng, lb, dmax)
    right = random_expr(rng, budget - lb, dmax)
    return TwoSum(left, right, rng.randrange(left.size), rng.randrange(right.size))


def random_feasible_expr(rng, max_leaves=5, dmax=6, max_cols=600, max_rows=40):
    """A coherence-feasible expression with a desk-scale slack matrix."""
    while True:
        try:
            e = random_expr(rng, rng.randint(1, max_leaves), dmax)
            S, bases = expr_to_slack_with_bases(e)
        except (CoherenceError, ValueError):
            continue
        if S.n > max_cols or S.m > max_rows:
            continue
        return e, S, bases


def u42_chain(rng, leaves):
    """2-sums of `leaves` copies of U(4,2), each glued at a random element."""
    e = Leaf(4, 2)
    for _ in range(leaves - 1):
        e = TwoSum(e, Leaf(4, 2), rng.randrange(e.size), rng.randrange(4))
    return e


def top_components(expr):
    return list(expr.parts) if isinstance(expr, OneSum) else [expr]


def base_families_match(orig_col_bases, rec):
    """Recovered base family equals the original's up to per-factor dualization.

    Elements are matched through their column-membership vectors; each
    irreducible component of the recovered expression may be flipped as a
    whole (a slack matrix determines a factor only up to its dual).
    """
    n = len(rec.bases)
    comps, off = [], 0
    for part in top_components(rec.expr):
        comps.append(list(range(off, off + part.size)))
        off += part.size
    ground = sorted({x for b in orig_col_bases for x in b})
    target = Counter(
        tuple(1 if e in orig_col_bases[j] else 0 for j in range(n)) for e in ground
    )
    rvec = {e: tuple(rec.bases[:, e].astype(int).tolist()) for e in range(rec.size)}
    for flips in itertools.product([0, 1], repeat=len(comps)):
        got = Counter()
        for ci, comp in enumerate(comps):
            for e in comp:
                v = rvec[e]
                got[tuple(1 - x for x in v) if flips[ci] else v] += 1
        if got == target:
            return True
    return False


def row_provenance_reference(S, col_sets, size):
    """`MatroidRecognition.row_provenance` from one frozenset base per column:
    a row equal to element e's membership row is ("nonneg", e), to its
    complement ("upper", e), the first element in order taking each row."""
    tags = {}
    for e in range(size):
        nonneg = tuple(1 if e in b else 0 for b in col_sets)
        tags.setdefault(nonneg, ("nonneg", e))
        tags.setdefault(tuple(1 - x for x in nonneg), ("upper", e))
    return [tags.get(row, ("other", None)) for row in S.rows]


def random_cut_oracle_edges(rng, nv, wmax=5, p=0.5):
    edges = []
    for u in range(nv):
        for w in range(u + 1, nv):
            if rng.random() < p:
                edges.append((u, w, rng.randint(1, wmax)))
    return edges


def reconstruct_factors_reference(S, X):
    """`reconstruct_factors` from its own pattern grouping and joint count table.

    Groups the columns over X and over its complement with `group_columns`,
    splits the counts as u_i = mu_X(a_i)/g and v_k = mu_Xc(b_k)*g/n with
    g = gcd_i mu_X(a_i), and accepts only if the joint table of pattern pairs
    equals the outer product of u and v; ValueError otherwise.
    """
    X = tuple(sorted(set(X)))
    Xc = tuple(i for i in range(S.m) if i not in X)
    if not X or not Xc:
        raise ValueError("X must be a nonempty proper row subset")
    n = S.n
    inv_a, cnt_a, first_a = group_columns(S.codes[list(X)])
    inv_b, cnt_b, first_b = group_columns(S.codes[list(Xc)])
    ka, kb = len(cnt_a), len(cnt_b)
    g = math.gcd(*cnt_a.tolist())
    u = cnt_a // g
    v = cnt_b * g // n
    if (
        ka * kb > n
        or (v * n != cnt_b * g).any()
        or (np.bincount(inv_a * kb + inv_b, minlength=ka * kb) != np.outer(u, v).ravel()).any()
    ):
        raise ValueError("rows are not independent across the bipartition")
    return S.submatrix(X, np.repeat(first_a, u).tolist()), S.submatrix(Xc, np.repeat(first_b, v).tolist())


def info_ratio(S, X):
    """Q_X = prod_j n*mu(a,b) / (mu(a)*mu(b)) over the columns j of S, as a
    `Fraction`, where column j holds the pattern a over the rows X and b over
    the others: n*f(X) = log2(Q_X), counted from S.rows alone."""
    cols = list(zip(*S.rows))
    pairs = [(tuple(c[i] for i in X), tuple(c[i] for i in range(S.m) if i not in X)) for c in cols]
    ab, a, b = Counter(pairs), Counter(p for p, _ in pairs), Counter(q for _, q in pairs)
    q = Fraction(1)
    for (x, y), c in ab.items():
        q *= Fraction(S.n * c, a[x] * b[y]) ** c
    return q


def minimize_info_exact(S):
    """(argmin, Q) of `queyranne.minimize_symmetric` over InfoFunction(S).f with
    every comparison exact.

    f(A) - f(B) < f(C) - f(D) exactly when Q_A/Q_B < Q_C/Q_D, so the ordering
    keys f(W + x) - f(x) compare as the ratios Q(W + x)/Q(x) and the values as
    Q (`info_ratio`).  The tie rules are the library's: a key tie goes to the
    smallest representative, and among equal values the smallest candidate
    set wins."""
    cache = {}

    def Q(X):
        X = tuple(sorted(X))
        if X not in cache:
            cache[X] = info_ratio(S, X)
        return cache[X]

    m = S.m
    elements, candidates = [(i,) for i in range(m)], []
    while len(elements) > 1:
        order, base, remaining = [elements[0]], elements[0], elements[1:]
        while remaining:
            chosen = min(remaining, key=lambda c: (Q(base + c) / Q(c), c[0]))
            remaining.remove(chosen)
            order.append(chosen)
            base = tuple(sorted(base + chosen))
        t, u = order[-2:]
        uc = tuple(i for i in range(m) if i not in u)
        candidates.append((Q(u), min(u, uc)))
        elements = sorted([e for e in elements if e != t and e != u] + [tuple(sorted(t + u))])
    value, X = min(candidates)
    return X, value


def parity_rows(k):
    """All 2**k - 1 nonzero GF(2) parity rows over the 2**k points of GF(2)**k."""
    return Matrix([[bin(v & x).count("1") % 2 for x in range(1 << k)] for v in range(1, 1 << k)])


def _first_split(S):
    """(X, (S1, S2)) for the smallest row subset X holding row 0, first in
    lexicographic order, that `reconstruct_factors_reference` splits off S;
    None when no proper subset does."""
    for size in range(1, S.m):
        for rest in itertools.combinations(range(1, S.m), size - 1):
            try:
                return (0,) + rest, reconstruct_factors_reference(S, (0,) + rest)
            except ValueError:
                pass
    return None


def factorize_irreducible_reference(S):
    """(blocks, factors) of `factorize_irreducible` by peeling: the block
    holding the smallest row left is the smallest subset of the rows left
    that splits off the factor left by the one before, and the last factor
    is what is left.  Each split-off subset is a zero of the rows left, so
    the smallest holding a row is its atom; the factor left repeats S's
    patterns on its rows in proportion, so the later atoms stay atoms in it.
    """
    blocks, factors, rows, rest = [], [], list(range(S.m)), S
    split = _first_split(rest)
    while split is not None:
        X, (factor, rest) = split
        blocks.append(tuple(rows[i] for i in X))
        factors.append(factor)
        rows = [r for i, r in enumerate(rows) if i not in X]
        split = _first_split(rest)
    return tuple(blocks) + (tuple(rows),), tuple(factors) + (rest,)


# ---------------------------------------------------------------------------
# Reference slack builder: the tuple fold the array builder replaced.  Each
# step works on Matrix rows and frozenset column bases, entry by entry.
# ---------------------------------------------------------------------------


def hypersimplex_slack_reference(d, k):
    """(slack, column bases) of U(d,k): the identity for k in {1, d-1}, else
    the columns (v, 1-v) over the weight-k vectors v in ascending order."""
    if k == 1 or k == d - 1:
        rows = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
        if k == 1:
            bases = [frozenset({j}) for j in range(d)]
        else:
            bases = [frozenset(range(d)) - {j} for j in range(d)]
        return Matrix(rows), bases
    vectors = sorted(
        tuple(1 if i in c else 0 for i in range(d)) for c in itertools.combinations(range(d), k)
    )
    rows = [tuple(v[e] for v in vectors) for e in range(d)]
    rows += [tuple(1 - v[e] for v in vectors) for e in range(d)]
    bases = [frozenset(i for i in range(d) if v[i] == 1) for v in vectors]
    return Matrix(rows), bases


def hypersimplex_col_bases(S, form):
    """Each column's base read off S's element rows in a `HypersimplexForm`."""
    V = S.array[[v for v, _ in form.elem_rows]]
    return [frozenset(np.flatnonzero(c == 1).tolist()) for c in V.T]


def verify_candidate(S, expr, col_bases):
    """Re-expand the expression and compare with S through the base matching
    (`matroids._reexpands`): S must be exactly the expression's
    non-redundant slack matrix, its column j having the base col_bases[j]."""
    B = np.zeros((len(col_bases), expr.size), dtype=bool)
    for j, b in enumerate(col_bases):
        if not all(0 <= x < expr.size for x in b):
            return False
        B[j, list(b)] = True
    return _reexpands(S, expr, B)


def facet_rows_reference(S):
    """S without every row whose zero set lies inside another row's, strictly
    or as a later copy of it, from one bit mask per row."""
    ones = [int.from_bytes(bytes(row), "big") for row in S.rows]
    keep = [
        i
        for i, a in enumerate(ones)
        if not any(b & a == b and (b != a or h < i) for h, b in enumerate(ones) if h != i)
    ]
    return Matrix([S.rows[i] for i in keep])


def _find_row(S, pattern):
    return next((i for i, row in enumerate(S.rows) if row == pattern), None)


def one_sum_slack_reference(e, parts):
    """The 1-sum step: the 1-product of the parts' slacks, bases unioned in
    mixed-radix column order, part 0 the most significant."""
    acc, bases = parts[0]
    offset = e.parts[0].size
    for part, (Sp, pb) in zip(e.parts[1:], parts[1:]):
        pb = [frozenset(x + offset for x in b) for b in pb]
        acc = one_product(acc, Sp)
        bases = [a | b for a in bases for b in pb]
        offset += part.size
    return acc, bases


def two_sum_slack_reference(e, left, right):
    """The 2-sum step: (slack, column bases, (left column, right column) per
    column), glued along the first coherent row pair, the reversed pair if
    there is none; CoherenceError if neither exists."""
    (SL, bl), (SR, br) = left, right
    gl, gr, sl = e.glue_left, e.glue_right, e.left.size
    nonneg = lambda bases, x: tuple(1 if x in b else 0 for b in bases)  # noqa: E731
    upper = lambda bases, x: tuple(0 if x in b else 1 for b in bases)  # noqa: E731
    xrow, yrow = _find_row(SL, nonneg(bl, gl)), _find_row(SR, upper(br, gr))
    if xrow is None or yrow is None:
        xrow, yrow = _find_row(SL, upper(bl, gl)), _find_row(SR, nonneg(br, gr))
        if xrow is None or yrow is None:
            raise CoherenceError("no coherent row pair")
    P = two_product(SL, xrow, SR, yrow)
    x1, y1 = SL.rows[xrow], SR.rows[yrow]
    pairs = [
        (cl, cr) for a in (0, 1) for cl in range(SL.n) if x1[cl] == a for cr in range(SR.n) if y1[cr] == a
    ]
    bases = [
        frozenset(x - (x > gl) for x in bl[cl] if x != gl)
        | frozenset(sl - 1 + y - (y > gr) for y in br[cr] if y != gr)
        for cl, cr in pairs
    ]
    return facet_rows_reference(P), bases, pairs


def expr_to_slack_reference(e):
    """(slack, column bases) of e: the fold of the three reference steps."""
    if isinstance(e, Leaf):
        return hypersimplex_slack_reference(e.d, e.k)
    if isinstance(e, OneSum):
        return one_sum_slack_reference(e, [expr_to_slack_reference(p) for p in e.parts])
    return two_sum_slack_reference(e, expr_to_slack_reference(e.left), expr_to_slack_reference(e.right))[:2]
