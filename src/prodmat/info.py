"""Empirical column distribution of a matrix and its mutual-information function.

A uniformly random column C of an m x n matrix S induces, for every row
subset X, the random vector C_X (the column restricted to X).  The set
function

    f(X) = I(C_X ; C_complement(X))        (bits)

is nonnegative, symmetric and submodular, and f(X) = 0 exactly when the
column multiset of S factors over the row bipartition (X, complement).
Conditioning on one row r, over the remaining rows,

    f(X) = I(C_X ; C_complement(X) | C_r)

keeps these properties and is zero exactly when the factorization holds
within each value of row r; for a 0/1 row that is the 2-product condition.
Float evaluation of f goes through entropies; the zero decision is never
made on floats -- `InfoFunction.is_independent_exact` checks the integer
identity n_z*mu(a,b,z) == mu(a,z)*mu(b,z) over all pattern pairs, and
`InfoFunction.components` applies the same identity to every pair of single
rows: every zero of f is a union of the components of that dependence graph.

`group_columns` is the one exact column grouping: given rows of
`Matrix.codes` it numbers the distinct column patterns and counts them.
Every exact pattern count in the package goes through it;
`multiplicity_table` stays as the independent dict-based reference.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .matrix import Matrix

#: float screening threshold; values above it cannot be zeros of f.
ZERO_EPS = 1e-9

_WEIGHT_SEED = 0x51AC_0DE5

#: (row pair, column) entries grouped at once by `InfoFunction.components`
_PAIR_CHUNK = 1 << 16


class MultiplicityTable:
    """Counts of distinct column patterns restricted to a row subset."""

    def __init__(self, subset: tuple, counts: dict, total: int):
        self.subset = subset
        self.counts = counts
        self.total = total
        assert sum(counts.values()) == total

    def __eq__(self, other):
        return (
            isinstance(other, MultiplicityTable)
            and self.counts == other.counts
            and self.total == other.total
        )

    def __repr__(self):
        return f"MultiplicityTable(|X|={len(self.subset)}, k={len(self.counts)}, n={self.total})"


def multiplicity_table(S: Matrix, X: Iterable[int]) -> MultiplicityTable:
    """Empirical distribution of columns of S restricted to rows X.

    X may be empty (degenerate single-pattern table, used internally).
    """
    X = tuple(sorted(set(X)))
    if X and (X[0] < 0 or X[-1] >= S.m):
        raise IndexError(f"row subset out of range: {X}")
    counts = {}
    for j in range(S.n):
        key = tuple(S.rows[i][j] for i in X)
        counts[key] = counts.get(key, 0) + 1
    return MultiplicityTable(X, counts, S.n)


def entropy(table: MultiplicityTable) -> float:
    """Shannon entropy in bits: -sum (mu/n) log2(mu/n)."""
    n = table.total
    if n < 1:
        raise ValueError("empty table")
    return math.log2(n) - sum(c * math.log2(c) for c in table.counts.values()) / n


def _entropy_from_counts(counts: np.ndarray, n: int) -> float:
    return math.log2(n) - float((counts * np.log2(counts)).sum()) / n


def group_columns(sub: np.ndarray):
    """Exact grouping of the columns of a 2-D array of nonnegative ints.

    Returns (inv, counts, first): inv[j] is the group of column j, counts[g]
    the number of columns in group g and first[g] its first column; groups
    are numbered in order of first occurrence.  When every key fits in int64
    (the product of the per-row ranges max+1 is at most 2**63) the columns
    are packed into one mixed-radix key each; otherwise they are compared as
    tuples.  Equality is never decided by a hash.
    """
    n = sub.shape[1]
    radix = (sub.max(axis=1) + 1).tolist()
    if math.prod(radix) <= 1 << 63:
        keys = np.zeros(n, dtype=np.int64)
        for row, r in zip(sub, radix):
            keys = keys * r + row
        _, first, inv, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return rank[inv], counts[order], first[order]
    seen = {}
    inv = np.empty(n, dtype=np.int64)
    first, counts = [], []
    for j, key in enumerate(map(tuple, sub.T.tolist())):
        g = seen.get(key)
        if g is None:
            g = seen[key] = len(first)
            first.append(j)
            counts.append(0)
        inv[j] = g
        counts[g] += 1
    return inv, np.array(counts, dtype=np.int64), np.array(first, dtype=np.int64)


class InfoFunction:
    """f(X) = I(C_X; C_Xc | C_given) for a fixed matrix; also the minimizer's oracle.

    The ground set is the rows of S other than `given`, renumbered 0..m-1 in
    order; `ground` maps them back to rows of S.  Without a given row
    f(X) = I(C_X; C_Xc).
    With a 0/1 given row r that splits the columns into blocks A (r = 0) and
    B (r = 1), f(X) = (n0*f_A(X) + n1*f_B(X))/n, so one run of the minimizer
    searches both blocks for a common bipartition.

    Columns are grouped by 64-bit additive signatures (random per-cell
    weights, summed over the chosen rows) for the float path; the weights are
    seeded deterministically, so evaluation is reproducible, and built on the
    first float evaluation.  All exact decisions group columns with
    `group_columns` over `S.codes` instead.

    As an oracle for `minimize_symmetric` it exposes `m`, `eval`,
    `ordering_keys` and `calls`, which counts every requested evaluation of f
    (including ones answered from the cache).
    """

    def __init__(self, S: Matrix, given: Optional[int] = None):
        if given is not None and not 0 <= given < S.m:
            raise IndexError(f"given row {given} out of range for {S.m} rows")
        self.S = S
        self.ground = tuple(i for i in range(S.m) if i != given)
        self.m = len(self.ground)
        self.n = n = S.n
        self.calls = 0
        self.given = given
        self.codes = S.codes[list(self.ground)]
        # no given row behaves as a constant one: code 0 (and zero signature)
        if given is None:
            self.given_codes = np.zeros(n, dtype=np.int64)
        else:
            self.given_codes = S.codes[given]
        self.cell_sig = None  # float path state, built by _build_float_path
        self._sig_cache = {}
        self._h_cache = {}
        self._f_cache = {}
        self._exact_cache = {}

    # -- float path ---------------------------------------------------------

    def _build_float_path(self) -> None:
        """Seeded signatures and the two constant entropies, on first float use.

        The exact path (`is_independent_exact`, `components`) never needs them.
        """
        if self.cell_sig is not None:
            return
        codes = self.S.codes
        rng = np.random.Generator(np.random.PCG64(_WEIGHT_SEED))
        ncodes = int(codes.max()) + 1
        weights = rng.integers(0, 1 << 63, size=(self.S.m, ncodes), dtype=np.uint64)
        weights = weights * np.uint64(2) + np.uint64(1)  # odd: distinct per cell in practice
        cell_sig = np.take_along_axis(weights, codes, axis=1)
        if self.given is None:
            self.given_sig = np.zeros(self.n, dtype=np.uint64)
            self.h_given = 0.0
        else:
            self.given_sig = cell_sig[self.given]
            self.h_given = self._h_sig(self.given_sig)
        self.cell_sig = cell_sig[list(self.ground)]
        self.sig_all = self.cell_sig.sum(axis=0, dtype=np.uint64)
        self.h_full = self._h_sig(self.sig_all + self.given_sig)

    def _h_sig(self, sig: np.ndarray) -> float:
        _, counts = np.unique(sig, return_counts=True)
        return _entropy_from_counts(counts, self.n)

    def sig(self, X: tuple) -> np.ndarray:
        """Additive signature vector of a row subset (cached)."""
        got = self._sig_cache.get(X)
        if got is None:
            self._build_float_path()
            if len(X) == 0:
                got = np.zeros(self.n, dtype=np.uint64)
            elif len(X) == 1:
                got = self.cell_sig[X[0]]
            else:
                got = self.cell_sig[list(X)].sum(axis=0, dtype=np.uint64)
            self._sig_cache[X] = got
        return got

    def _h(self, X: tuple) -> float:
        """H(C_X, C_given) for a sorted row subset (cached)."""
        got = self._h_cache.get(X)
        if got is None:
            got = self._h_sig(self.sig(X) + self.given_sig)
            self._h_cache[X] = got
        return got

    def _complement(self, X: tuple) -> tuple:
        inX = set(X)
        return tuple(i for i in range(self.m) if i not in inX)

    def _check_range(self, X: tuple) -> None:
        if X and (X[0] < 0 or X[-1] >= self.m):
            raise IndexError(f"row subset out of range for {self.m} rows: {X}")

    def f(self, X: Iterable[int]) -> float:
        """H(C_X,C_g) + H(C_Xc,C_g) - H(C) - H(C_g); symmetric in X by construction.

        X may be empty or the whole ground set (both give 0); an index outside
        the ground set raises IndexError.
        """
        X = tuple(sorted(set(X)))
        got = self._f_cache.get(X)
        if got is None:
            self._check_range(X)
            got = self._h(X) + self._h(self._complement(X)) - self.h_full - self.h_given
            self._f_cache[X] = got
        return got

    def eval(self, X: Sequence[int]) -> float:
        self.calls += 1
        return self.f(X)

    def ordering_keys(self, base: tuple, cands: Sequence[tuple]) -> list:
        """key(c) = f(base + c) - f(c) for each candidate merged element.

        f(base + c) comes from cached signatures, so one key costs two
        grouping passes instead of a fresh scan of the matrix.
        """
        self.calls += 2 * len(cands)
        sig_base = self.sig(base)
        fwd = sig_base + self.given_sig
        bwd = self.sig_all - sig_base + self.given_sig
        keys = []
        for c in cands:
            sig_c = self.sig(c)
            f_join = self._h_sig(fwd + sig_c) + self._h_sig(bwd - sig_c) - self.h_full - self.h_given
            keys.append(f_join - self.f(c))
        return keys

    # -- exact path ----------------------------------------------------------

    def is_independent_exact(self, X: Iterable[int]) -> bool:
        """True iff n_z*mu(a,b,z) == mu(a,z) * mu(b,z) for every pattern pair.

        Here a and b are patterns of C_X and C_Xc, z is a value of the given
        row (one constant value without one) and n_z its column count.
        Unobserved pairs have mu(a,b,z) = 0, so independence additionally
        forces every pair (a, b) that occurs with z on either side to occur
        with z jointly; both facts are checked with integer arithmetic only.
        """
        X = tuple(sorted(set(X)))
        self._check_range(X)
        if not X or len(X) >= self.m:
            raise ValueError("X must be a nonempty proper row subset")
        got = self._exact_cache.get(X)
        if got is not None:
            return got
        Xc = self._complement(X)
        z = self.given_codes  # first-occurrence codes 0..kz-1
        inv_a, cnt_a, _ = group_columns(np.vstack((z, self.codes[list(X)])))
        inv_b, cnt_b, _ = group_columns(np.vstack((z, self.codes[list(Xc)])))
        cnt_z = np.bincount(z)
        ka, kb, kz = len(cnt_a), len(cnt_b), len(cnt_z)
        z_a = np.empty(ka, dtype=np.int64)
        z_a[inv_a] = z
        z_b = np.empty(kb, dtype=np.int64)
        z_b[inv_b] = z
        upairs, joint = np.unique(inv_a * kb + inv_b, return_counts=True)
        need = int((np.bincount(z_a, minlength=kz) * np.bincount(z_b, minlength=kz)).sum())
        ok = len(upairs) == need
        if ok:
            a = (upairs // kb).astype(np.intp)
            b = (upairs % kb).astype(np.intp)
            lhs = joint.astype(object) * cnt_z[z_a[a]].astype(object)
            rhs = cnt_a[a].astype(object) * cnt_b[b].astype(object)
            ok = bool((lhs == rhs).all())
        self._exact_cache[X] = ok
        self._exact_cache[Xc] = ok
        return ok

    def components(self) -> list:
        """Connected components of the pairwise-dependence graph, as sorted tuples.

        Ground rows i and j are adjacent when some values x of row i, y of
        row j and z of the given row have n_z*mu(x,y,z) != mu(x,z)*mu(y,z),
        tested in integers on the observed (x, y, z) triples of every row
        pair, which `group_columns` counts a bounded chunk of pairs at a
        time.  (An unobserved pair of observed values needs no test: if every
        observed triple passes, both sides sum to n_z**2 over them.)  Every
        zero X of f is a union of components, since C_X ⊥ C_Xc | C_given
        forces C_i ⊥ C_j | C_given for i in X and j outside it.  Sorted by
        smallest row; [] on an empty ground set.
        """
        m, n = self.m, self.n
        if m == 0:
            return []
        z, codes = self.given_codes, self.codes
        cnt_z = np.bincount(z)
        # mu[i, j]: count of (value of row i, value of the given row) at column j
        inv, cnt, _ = group_columns(np.vstack((np.repeat(np.arange(m), n), np.tile(z, m), codes.ravel())))
        mu = cnt[inv].reshape(m, n)
        reach = np.eye(m, dtype=bool)
        iu, ju = np.triu_indices(m, 1)
        step = max(1, _PAIR_CHUNK // n)
        for lo in range(0, len(iu), step):
            a, b = iu[lo : lo + step], ju[lo : lo + step]
            pair = np.repeat(np.arange(len(a)), n)
            triples = np.vstack((pair, np.tile(z, len(a)), codes[a].ravel(), codes[b].ravel()))
            _, cnt, first = group_columns(triples)
            p, j = first // n, first % n
            bad = p[cnt_z[z[j]] * cnt != mu[a[p], j] * mu[b[p], j]]
            reach[a[bad], b[bad]] = reach[b[bad], a[bad]] = True
        # transitive closure by repeated squaring
        while True:
            nxt = (reach.astype(np.float64) @ reach) > 0
            if (nxt == reach).all():
                return sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})
            reach = nxt


def mutual_info_direct(S: Matrix, X: Iterable[int]) -> float:
    """Reference evaluation of I(C_X; C_Xc) by the double sum over pattern pairs.

    sum_{a,b} p(a,b) log2( p(a,b) / (p(a) p(b)) ); zero terms are skipped.
    Used to cross-check the entropy-based evaluation.
    """
    X = tuple(sorted(set(X)))
    Xc = tuple(i for i in range(S.m) if i not in set(X))
    n = S.n
    joint = {}
    ma = {}
    mb = {}
    for j in range(n):
        a = tuple(S.rows[i][j] for i in X)
        b = tuple(S.rows[i][j] for i in Xc)
        joint[(a, b)] = joint.get((a, b), 0) + 1
        ma[a] = ma.get(a, 0) + 1
        mb[b] = mb.get(b, 0) + 1
    total = 0.0
    for (a, b), c in joint.items():
        total += (c / n) * math.log2(c * n / (ma[a] * mb[b]))
    return total
