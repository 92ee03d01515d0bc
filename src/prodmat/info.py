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
`InfoFunction.is_independent_exact` checks the integer identity
n_z*mu(a,b,z) == mu(a,z)*mu(b,z) at every column, whose (z, a, b) is one
observed triple, and n*f is the sum of log2 of the ratio of its two sides
over the columns, so an exact zero reads 0.0; no decision is made on floats.
`InfoFunction.components` applies the same identity to every pair of single
rows: every zero of f is a union of the components of that dependence graph.

The exact check reads its counts per column (`InfoFunction._split_counts`).
One place-value product over the codes of X and Y, with the given row as the
top digit, packs each column into int64 keys for (z, a), (z, b) and
(z, a, b); np.bincount counts keys of a small span (`_key_counts`), np.unique
wider ones, and `_column_keys` packs rows whose joint span reaches 2**63.
Unobserved triples need no check: if the identity holds on every observed
one, both sides sum to n_z over the observed pairs of each z, and every term
mu(a,z)*mu(b,z)/n_z of the right side is positive, so no pair (a, b) seen
with z can be missing.  Every product is at most n**2 < 2**63, so int64 is
exact.  The same per-column keys and counts build the factors of a 1-product
or 2-product (`products._factor_columns`), so each factorization rests on the
identity checked on exactly the counts it is built from.

Every graph is read from reduced indicators: E gives each row i, whose
largest code is k_i, a block of max(k_i, 1) rows over the n columns, one
0/1 row [codes[i] == a] per code a >= 1, or for a constant row a single
zero row, which has no edge (n_v*0 == 0*s).  Rows i and j are
independent given z exactly when n_v*mu(a,b,v) == mu(a,v)*mu(b,v) for
every value v of z and all codes a, b >= 1: the cells of code 0 follow
from the margins, since then
n_v*mu(a,0,v) = n_v*mu(a,v) - sum_{b>=1} mu(a,v)*mu(b,v) = mu(a,v)*mu(0,v).
G_v = (E w_v) E^T, with w_v the indicator of z == v, holds every mu(a,b,v)
and its diagonal s_v every mu(a,v), so rows i and j are dependent exactly
when their block of some n_v*G_v - s_v s_v^T has a nonzero cell.  Each
value v >= 1 takes one weighted product, for a block of given rows at once,
and the value 0 takes P = E E^T less the others (`_indicator_dependence`);
without a given row z has one value, and the graph is n*P != s s^T.  Every
cell is a count, at most n, so the float64 products are exact; the identity
is compared in int64.  `_dependence_graphs` builds every graph over the rows
of a matrix (a given row of it is a node with no edge), on E and P built
together once per matrix and kept with it (`_pair_counts`).  Rows of
near-distinct values push D towards m*n, so above `_GRAM_CAP` cells the
same identity is checked on the observed value triples of every row pair,
grouped by `group_columns` a bounded chunk at a time (`_chunked_dependence`).

`InfoFunction.atoms` finds every zero at once.  Since f >= 0 and f is
submodular, f(X | Y) + f(X & Y) <= f(X) + f(Y), so the zeros are closed
under union and intersection, and by symmetry under complement: they form a
Boolean algebra whose atoms are the irreducible blocks, and the zeros are
exactly the unions of atoms.  They are merged from the components in
integers by one chain of exact checks, whose counts build every factor.

`group_columns` is the one exact column grouping: given rows of
`Matrix.codes` or a row of a check's keys (`_split_counts`) it numbers the
distinct column patterns and counts them, packing each column into one int64
key with `_column_keys`; `multiplicity_table` is the dict-based reference.

The pendent-pair minimizer takes f through
`queyranne.SymmetricOracle(F.m, F.f)`, which alone counts and caches the
evaluations.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from .matrix import Matrix

#: most cells of the reduced indicators E (D x n, times the given row's values
#: after its first) and of a Gram matrix (D x D): a float64 array of this size
#: takes 32 MB, and the product holds about four at once.  A matrix keeps its
#: E, at most this many float64 cells, beside P's int32 (`_pair_counts`).
#: Rows of near-distinct values, where D approaches m*n, go over it and are
#: grouped in chunks instead.
_GRAM_CAP = 1 << 22

#: cells of one weighted product of the special-row screen's given rows, and
#: (row pair, column) entries grouped at once when the Gram matrix is too large
_PAIR_CHUNK = 1 << 16

#: keys of an exact check are counted by np.bincount while their span is at
#: most this many times the number of columns, or at most _BINCOUNT_MIN
_BINCOUNT_PER_KEY = 4
_BINCOUNT_MIN = 1 << 12


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
    rows = S.rows
    counts = {}
    for j in range(S.n):
        key = tuple(rows[i][j] for i in X)
        counts[key] = counts.get(key, 0) + 1
    return MultiplicityTable(X, counts, S.n)


def entropy(table: MultiplicityTable) -> float:
    """Shannon entropy in bits: -sum (mu/n) log2(mu/n)."""
    n = table.total
    if n < 1:
        raise ValueError("empty table")
    return math.log2(n) - sum(c * math.log2(c) for c in table.counts.values()) / n


def _column_keys(sub: np.ndarray) -> np.ndarray:
    """One int64 key per column of a 2-D array of nonnegative ints.

    Two keys are equal exactly when their columns are.  The rows are
    mixed-radix digits (radix: per row, max + 1), packed by one product with
    their place values while the product of the radices stays below 2**63;
    the keys of a wider array are renumbered densely with np.unique and
    packed with the remaining rows as the first digit.  No key wraps and
    equality is never decided by a hash.
    """
    radix = (sub.max(axis=1) + 1).tolist()
    cut, span = len(radix), math.prod(radix)
    while span >= 1 << 63:  # pack the longest prefix that fits
        cut -= 1
        span //= radix[cut]
    place = []
    for r in radix[:cut]:
        span //= r
        place.append(span)
    keys = np.array(place, dtype=np.int64) @ sub[:cut]
    if cut == len(radix):
        return keys
    _, dense = np.unique(keys, return_inverse=True)
    return _column_keys(np.vstack((dense, sub[cut:])))


def group_columns(sub: np.ndarray):
    """Exact grouping of the columns of a 2-D array of nonnegative ints.

    Returns (inv, counts, first): inv[j] is the group of column j, counts[g]
    the number of columns in group g and first[g] its first column; groups
    are numbered in order of first occurrence.
    """
    _, first, inv, counts = np.unique(
        _column_keys(sub), return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inv], counts[order], first[order]


def _key_counts(keys: np.ndarray, span: int) -> np.ndarray:
    """c[j]: the number of entries of keys equal to keys[j], for int keys in [0, span).

    np.bincount counts keys that span at most `_BINCOUNT_PER_KEY` times their
    number (at least `_BINCOUNT_MIN`); wider keys are sorted by np.unique.
    """
    if span <= max(_BINCOUNT_PER_KEY * len(keys), _BINCOUNT_MIN):
        return np.bincount(keys)[keys]
    _, inv, cnt = np.unique(keys, return_inverse=True, return_counts=True)
    return cnt[inv]


def _indicator_dependence(E, starts, P, q: int, given) -> np.ndarray:
    """dep[t]: the m x m dependence graph given the row given[t] (codes of at most
    q + 1 values), diagonal True.  P = E E^T (D x D) of the reduced indicators E
    of the m rows; E is used only for q >= 1.  Rows are adjacent when their
    blocks of E, which start at `starts`, have a nonzero cell of some
    n_v*G_v - s_v s_v^T."""
    (b, n), D, m = given.shape, len(P), len(starts)
    counts, G0, n0, bad = [], P[None], n, None
    for v in range(1, q + 1):  # one weighted product per value
        w = given == v
        G = ((w[:, None, :] * E).reshape(-1, n) @ E.T).reshape(b, D, D)
        counts.append((G, np.add.reduce(w, axis=1)[:, None, None]))
        G0, n0 = G0 - G, n0 - counts[-1][1]
    for G, n_v in [(G0, n0)] + counts:  # the value 0: the unweighted product less the others
        G = G.astype(np.int64)
        s = G.diagonal(0, -2, -1)
        cell = n_v * G != s[..., :, None] * s[..., None, :]
        bad = cell if bad is None else bad | cell
    if D > m:  # one cell per pair of rows: any cell of their blocks
        bad = np.logical_or.reduceat(np.logical_or.reduceat(bad, starts, axis=-2), starts, axis=-1)
    bad.reshape(len(bad), -1)[:, :: m + 1] = True
    return bad


def _indicators(codes: np.ndarray, k: np.ndarray) -> np.ndarray:
    """E: the float64 reduced indicators of the rows of codes, one 0/1 row
    [codes[i] == a] per row i and code 1 <= a <= k[i] = max(max(codes[i]), 1),
    by row and then by code; a constant row's one row is zero.  When every
    row has one, E is codes itself."""
    m, D = len(codes), int(np.add.reduce(k))
    if D == m:
        return codes.astype(np.float64)
    # E[d] = [codes[i] == a] for the d-th pair (i, a >= 1), by row and then by code
    owner = np.arange(m).repeat(k)
    return (codes[owner] == (np.arange(1, D + 1) - (k.cumsum() - k)[owner])[:, None]).astype(np.float64)


def _pair_counts(S: Matrix, q: int):
    """[P, E, k, starts, cells] of S, kept with it, or None while the kernel
    given rows of q + 1 values takes more than `_GRAM_CAP` cells.

    k: each row's block size in the reduced indicators E (D x n), its largest
    code or 1, starts: where the blocks start, cells: D*max(D, n).  E and
    P = E E^T, in int32 (each cell is at most n), are built together on the
    first call within the cap: E at most `_GRAM_CAP` float64 cells (32 MB)
    beside P's 16 MB.  Every array is read-only."""
    pairs = S._pairs
    if pairs is None:
        k = np.maximum(np.maximum.reduce(S.codes, axis=1), 1)
        D = int(np.add.reduce(k))
        pairs = S._pairs = [None, None, k, k.cumsum() - k, D * max(D, S.n)]
        for a in pairs[2:4]:
            a.flags.writeable = False
    if max(q, 1) * pairs[4] > _GRAM_CAP:
        return None
    if pairs[0] is None:
        E = pairs[1] = _indicators(S.codes, pairs[2])
        pairs[0] = (E @ E.T).astype(np.int32)
        for a in pairs[:2]:
            a.flags.writeable = False
    return pairs


def _dependence_graphs(S: Matrix, given: np.ndarray):
    """Yield the dependence graphs of the rows of S given each row of `given`
    (codes of at most q + 1 values over S's columns), a block at a time.

    `_indicator_dependence` on S's `_pair_counts`, in blocks of `_PAIR_CHUNK`
    cells (or one given row), while they fit the cap, else `_chunked_dependence`.
    """
    q = int(given.max())
    pairs = _pair_counts(S, q)
    if pairs is None:
        for z in given:
            yield _chunked_dependence(S.codes, z)[None]
        return
    P, E, _, starts, cells = pairs
    step = max(1, _PAIR_CHUNK // max(max(q, 1) * cells, 1))
    for lo in range(0, len(given), step):
        yield _indicator_dependence(E, starts, P, q, given[lo : lo + step])


def _component_labels(adj: np.ndarray) -> np.ndarray:
    """label[t, i]: the smallest node of the component of i in the graph adj[t] (diagonal True)."""
    edges = np.count_nonzero(adj)
    while True:  # transitive closure by repeated squaring, until no edge is added
        a = adj.astype(np.float64)
        adj = (a @ a) > 0
        edges, last = np.count_nonzero(adj), edges
        if edges == last:
            return adj.argmax(axis=2)


def _grouped(labels: list, items) -> list:
    """The items grouped by their labels, as tuples in order of first item."""
    groups = {}
    for label, i in zip(labels, items):
        groups.setdefault(label, []).append(i)
    return [tuple(g) for g in groups.values()]


def _special_row_candidates(S: Matrix, out: Optional[np.ndarray] = None):
    """Yield (r, components) for the 0/1 rows r of S whose dependence graph given r splits.

    The graph given r is that of `InfoFunction(S, given=r).components()`
    without the rows out[r] (out: an m x m bool array, or None): the 0/1 rows
    go to one `_dependence_graphs` call on S as its given rows, in blocks,
    so they share S's pair counts.  r is yielded, in increasing order, with
    its components as `components()` gives them, when they number two or
    more; a row not yielded has at most one atom over the rows kept.  Row r
    has no edge in its own graph.
    """
    m = S.m
    zero, one = S.array == 0, S.array == 1
    rows = np.flatnonzero((zero | one).all(axis=1) & zero.any(axis=1) & one.any(axis=1)).tolist()
    if m < 3 or not rows:  # a graph of one row has one component
        return
    keep = ~np.eye(m, dtype=bool)  # keep[r]: the rows of r's graph
    if out is not None:
        keep &= ~out
    done = 0
    for dep in _dependence_graphs(S, S.codes[rows]):
        block = rows[done : done + len(dep)]
        done += len(dep)
        kept = keep[block]
        dep &= kept[:, :, None] & kept[:, None, :]
        labels = _component_labels(dep)
        # a kept row that labels itself is the smallest of its component
        splits = np.add.reduce((labels == np.arange(m)) & kept, axis=1) >= 2
        for t in splits.nonzero()[0].tolist():
            r, own = block[t], kept[t].nonzero()[0]
            yield r, _grouped(labels[t, own].tolist(), (own - (own > r)).tolist())


def _chunked_dependence(codes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The adjacency of `_indicator_dependence` in O(m*n + _PAIR_CHUNK) memory.

    The observed (x, y, z) triples of each row pair are counted by
    `group_columns`, a chunk of pairs at a time.  An unobserved pair of
    observed values needs no test: if every observed triple passes, both
    sides sum to n_z**2 over them.
    """
    m, n = codes.shape
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
    return reach


class InfoFunction:
    """f(X) = I(C_X; C_Xc | C_given) for a fixed matrix, and its exact zeros.

    The ground set is the rows of S other than `given`, renumbered 0..m-1 in
    order; `ground` maps them back to rows of S.  Without a given row
    f(X) = I(C_X; C_Xc).
    With a 0/1 given row r that splits the columns into blocks A (r = 0) and
    B (r = 1), f(X) = (n0*f_A(X) + n1*f_B(X))/n, so a common bipartition of
    both blocks is a zero of f.

    f is read from the exact check's column counts (`_split_counts`).  No
    float enters the exact decisions (`is_independent_exact`, `components`,
    `atoms`).

    To minimize f, wrap it: `minimize_symmetric(SymmetricOracle(F.m, F.f))`.
    """

    def __init__(self, S: Matrix, given: Optional[int] = None):
        if given is not None and not 0 <= given < S.m:
            raise IndexError(f"given row {given} out of range for {S.m} rows")
        self.ground = tuple(i for i in range(S.m) if i != given)
        self._S = S  # the dependence graph is built over the rows of S
        self.m = len(self.ground)
        self.n = n = S.n
        self.codes = S.codes[list(self.ground)]
        # no given row behaves as a constant one: code 0
        if given is None:
            self.given_codes = np.zeros(n, dtype=np.int64)
        else:
            self.given_codes = S.codes[given]
        self._radix = (self.codes.max(axis=1) + 1).tolist()
        self._kz = int(self.given_codes.max()) + 1
        self._n_z = np.bincount(self.given_codes)[self.given_codes]

    # -- f ------------------------------------------------------------------

    def _complement(self, X: tuple) -> tuple:
        inX = set(X)
        return tuple(i for i in range(self.m) if i not in inX)

    def _check_range(self, X: tuple) -> None:
        if X and (X[0] < 0 or X[-1] >= self.m):
            raise IndexError(f"row subset out of range for {self.m} rows: {X}")

    def f(self, X: Iterable[int]) -> float:
        """(1/n) sum_j log2(n_z*mu(a,b,z) / (mu(a,z)*mu(b,z))), over the columns j
        and their triples (z, a, b) counted by `_split_counts`, by math.fsum:
        an exact zero reads 0.0, f(X) == f(Xc), and the value does not depend
        on the column order.  X may be empty or the whole ground set (both
        give 0); an index outside the ground set raises IndexError.
        """
        X = tuple(sorted(set(X)))
        self._check_range(X)
        _, _, a, b, _, ab = self._split_counts(X, self._complement(X))
        return math.fsum(np.log2(self._n_z * ab / (a * b)).tolist()) / self.n

    # -- exact path ----------------------------------------------------------

    def is_independent_exact(self, X: Iterable[int]) -> bool:
        """True iff n_z*mu(a,b,z) == mu(a,z) * mu(b,z) for every pattern pair.

        Here a and b are patterns of C_X and C_Xc, z is a value of the given
        row (one constant value without one) and n_z its column count.  The
        identity is checked at every column, on the triple (z, a, b) it
        holds, in int64: each side is at most n**2 < 2**63.  Unobserved
        pairs need no check (module docstring).
        """
        X = tuple(sorted(set(X)))
        self._check_range(X)
        if not X or len(X) >= self.m:
            raise ValueError("X must be a nonempty proper row subset")
        return self._independent(X, self._complement(X))

    def _independent(self, X: tuple, Y: tuple) -> bool:
        """C_X ⊥ C_Y | C_given for disjoint row tuples X and Y, other rows ignored:
        `_split_counts` finds the identity of `is_independent_exact` at every column."""
        return bool(self._split_counts(X, Y)[4].all())

    def _split_counts(self, X: tuple, Y: tuple):
        """Per column j, for disjoint row tuples X and Y: (ka, kb, a, b, ok, ab).

        Column j holds one observed triple (z, a, b).  ka[j] and kb[j] are
        int keys of (z, a) and (z, b), equal exactly when the pairs are; a[j],
        b[j] and ab[j] count the columns holding (z, a), (z, b) and (z, a, b)
        (`_key_counts`), and ok[j] is the identity
        n_z*mu(a,b,z) == mu(a,z)*mu(b,z) at j.  The keys pack the codes of
        X + Y with one place-value product while the span of (z, a, b) stays
        below 2**63, and otherwise are (z, a) and (z, b) numbered densely
        over `_column_keys`.
        """
        z, radix, kz = self.given_codes, self._radix, self._kz
        place, span = [], 1  # place values of the rows X + Y, the last one 1
        for i in reversed(X + Y):
            place.append(span)
            span *= radix[i]
        span_y = math.prod(radix[i] for i in Y)
        span_x = span // span_y
        if kz * span < 1 << 63:
            key = np.array(place[::-1], dtype=np.int64) @ self.codes[list(X + Y)]
            kx = key // span_y
            ka, kb = z * span_x + kx, z * span_y + key - kx * span_y
            a, b = _key_counts(ka, kz * span_x), _key_counts(kb, kz * span_y)
            ab = _key_counts(z * span + key, kz * span)
        else:  # (z, a) and (z, b) numbered densely: (z, a, b) spans at most n**2
            (ka, a), (kb, b) = (
                np.unique(_column_keys(np.vstack((z, self.codes[list(R)]))), return_inverse=True, return_counts=True)[1:]
                for R in (X, Y)
            )
            ab = _key_counts(ka * len(b) + kb, len(a) * len(b))
            a, b = a[ka], b[kb]
        return ka, kb, a, b, self._n_z * ab == a * b, ab

    def components(self) -> list:
        """Connected components of the pairwise-dependence graph, as sorted tuples.

        Ground rows i and j are adjacent when some values x of row i, y of
        row j and z of the given row have n_z*mu(x,y,z) != mu(x,z)*mu(y,z),
        tested in integers (module docstring) by one call of
        `_dependence_graphs` on the rows of S and the given row's codes,
        zero without one; the given row's own node has no edge and is
        dropped.  Every zero X of f is a union of components,
        since C_X ⊥ C_Xc | C_given forces C_i ⊥ C_j | C_given for i in X and
        j outside it.  Sorted by smallest row; [] on an empty ground set.
        """
        if self.m == 0:
            return []
        labels = _component_labels(next(_dependence_graphs(self._S, self.given_codes[None])))[0]
        return _grouped(labels[list(self.ground)].tolist(), range(self.m))

    def atoms(self) -> list:
        """The finest partition of the ground rows into mutually independent blocks.

        These are the atoms of the Boolean algebra of zeros of f (module
        docstring), sorted by smallest row: X is a zero exactly when it is a
        union of atoms, so two or more atoms mean a factorization and atoms[0]
        is the block holding row 0.  [] on an empty ground set.
        """
        return self._merge(self.components())[0]

    def _merge(self, components: list):
        """(atoms, splits): the atoms over the rows of the components, sorted
        by smallest row as these are, and splits[k], the `_split_counts` of
        atoms[k] against the union of the later atoms.

        The chain checks each component C, last first, against the rows Y of
        the later ones.  If every check holds, the components are the atoms:
        C is connected, so no zero splits it, and a zero X over C + Y cuts
        down to the zero X & Y over Y, so the atoms of Y, the later
        components by induction, stay minimal.  Otherwise the atoms are kept
        for the rows Y seen so far, in order, and a component C merges every
        atom A for which C_A ⊥ C_(Y - A) | C_given fails, Y now holding C:
        each new atom is a union of old atoms and at most C, an old atom
        independent of the rest of Y is minimal, and an atom without C made
        of two or more old atoms would leave its first old atom a zero alone.
        The chain then runs over the atoms, which are mutually independent.
        """
        splits = self._chain(components)
        if splits is not None:
            return components, splits
        atoms, seen = [], set()
        for comp in components:
            seen.update(comp)
            kept, merged = [], list(comp)
            for A in atoms:
                if self._independent(A, tuple(sorted(seen.difference(A)))):
                    kept.append(A)
                else:
                    merged.extend(A)
            atoms = sorted(kept + [tuple(sorted(merged))])
        return atoms, self._chain(atoms)

    def _chain(self, blocks: list):
        """The `_split_counts` of each block against the union of the later
        ones, or None when one of these checks fails."""
        splits, later = [], blocks[-1] if blocks else ()
        for C in reversed(blocks[:-1]):
            splits.append(self._split_counts(C, later))
            if not splits[-1][4].all():
                return None
            later = tuple(sorted(later + C))
        return splits[::-1]


def mutual_info_direct(S: Matrix, X: Iterable[int]) -> float:
    """Reference evaluation of I(C_X; C_Xc) by the double sum over pattern pairs.

    sum_{a,b} p(a,b) log2( p(a,b) / (p(a) p(b)) ); zero terms are skipped.
    Used to cross-check `InfoFunction.f`.
    """
    X = tuple(sorted(set(X)))
    Xc = tuple(i for i in range(S.m) if i not in set(X))
    n = S.n
    rows = S.rows
    joint = {}
    ma = {}
    mb = {}
    for j in range(n):
        a = tuple(rows[i][j] for i in X)
        b = tuple(rows[i][j] for i in Xc)
        joint[(a, b)] = joint.get((a, b), 0) + 1
        ma[a] = ma.get(a, 0) + 1
        mb[b] = mb.get(b, 0) + 1
    total = 0.0
    for (a, b), c in joint.items():
        total += (c / n) * math.log2(c * n / (ma[a] * mb[b]))
    return total
