"""Dense matrices with exact rational entries and permutational operations.

A `Matrix` holds one read-only m x n numpy array, `Matrix.array`.  Entries
are exact: an integral value is an `int` and any other value a
`fractions.Fraction`, so each value has one stored form and column equality
(the basis of every multiplicity count elsewhere) is unambiguous.  The
dtype follows from the entries: int64 when every entry is an `int` that
fits in int64, else `object`, holding those `int`s and `Fraction`s.
Integral input of any type (`Fraction(4, 2)`, `True`, `2.0`, numpy
integers) becomes `int`; decimal input is converted exactly (0.25 -> 1/4).
Quantization of noisy real data is the caller's responsibility; this module
never rounds.

`Matrix(entries)` is the one constructor: it takes an int64 array as it is
and converts anything else entry by entry.  The structural operations
(submatrices, permutations, and the products built in `products`) index,
repeat and concatenate the array, for either dtype, and pass the result to
it, so a derived object matrix whose entries all fit is int64 again.

`Matrix.codes` is the one integer form of a matrix that the counting code
works on: each entry replaced by the index of its value among the distinct
values of its row, in order of first occurrence.  Two columns agree on a row
set exactly when their codes agree there, so every exact pattern count
(`info.group_columns` over rows of `codes`) needs no `Fraction` comparison.
They are numbered once, on first use (`_codes`): in numpy for an int64
array whose rows' values spread little (`_first_occurrence_codes`), else by
one dict per row.  `parse_matrix` reads a file of ASCII integers with
numpy's C text reader, `np.loadtxt`, into one int64 array and hands that
array over; any other file is read token by token, to the same values.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

import numpy as np

# an integer, optionally followed by a decimal part or a "/q" denominator
_TOKEN_RE = re.compile(r"[+-]?\d+(\.\d+|/\d+)?")
# parse_matrix hands a text to np.loadtxt only if it holds just these bytes,
# on which numpy's line breaks, tokens and integers are those of
# str.splitlines, str.split and int(); numpy reads \v, \f, \x1c-\x1f and
# U+00A0 as in-line whitespace, and has its own integer syntax
_INT_TEXT = b"0123456789+- \t\r\n"
# _first_occurrence_codes keeps one table slot per value in each row's range
# while that is at most this many slots per entry (or _TABLE_MIN in all); a
# matrix with wider rows numbers its codes with one dict per row
_TABLE_PER_ENTRY = 4
_TABLE_MIN = 1 << 12


class MatrixFormatError(ValueError):
    """Malformed matrix text or inconsistent dimensions."""


def _exact(x):
    """x as an exact value: `int` when integral, else `Fraction` (never rounds);
    MatrixFormatError for what `Fraction` refuses (NaN, inf, None, complex, ...)."""
    if type(x) is int or (type(x) is Fraction and x.denominator != 1):
        return x
    try:
        x = Fraction(x)
    except (TypeError, ValueError, ArithmeticError):
        raise MatrixFormatError(f"entry {x!r} is not a finite real number") from None
    num, den = int(x.numerator), int(x.denominator)  # numpy integers become int
    return num if den == 1 else Fraction(num, den)


def _exact_array(rows) -> np.ndarray:
    """The m x n array of a sequence of equal-length rows, each entry made exact
    (`_exact`): int64 when every entry is an `int` that fits, else object."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    rows = [tuple(r) for r in rows]
    if not rows or not rows[0]:
        raise MatrixFormatError("matrix must have at least one row and one column")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise MatrixFormatError("ragged rows")
    flat = list(chain.from_iterable(rows))
    if not set(map(type, flat)) <= {int}:
        flat = list(map(_exact, flat))
    if all(type(x) is int for x in flat):
        try:
            return np.array(flat, dtype=np.int64).reshape(len(rows), n)
        except OverflowError:  # an int beyond int64
            pass
    return np.array(flat, dtype=object).reshape(len(rows), n)


class Matrix:
    """Immutable m x n matrix of exact entries; equality and hashing are entrywise-exact.

    `array` is the read-only m x n array of the entries: int64 when every
    entry is an `int` that fits, else object, holding `int`s and `Fraction`s.
    An int64 array is taken as it is, unchecked and not copied, and made
    read-only.  Any other sequence of rows is converted entry by entry: each
    entry becomes an `int` when integral and a `Fraction` otherwise, whatever
    exact or float type it was given as (`bool`, `float`, `Decimal`, numpy
    integers, ...).  `rows` reads the entries back as tuples, built on each
    call.
    """

    __slots__ = ("array", "m", "n", "_hash", "_codes", "_pairs")

    def __init__(self, entries):
        if type(entries) is not np.ndarray or entries.dtype != np.int64:
            entries = _exact_array(entries)
        if entries.ndim != 2 or not entries.size:
            raise MatrixFormatError("matrix must have at least one row and one column")
        entries.setflags(write=False)
        self.array = entries
        self.m, self.n = entries.shape
        self._hash = None
        self._codes = None
        self._pairs = None  # its reduced indicators and their pair counts (`info._pair_counts`)

    @property
    def codes(self) -> np.ndarray:
        """Read-only int64 m x n array of per-row value codes.

        codes[i, j] is the index of the entry [i, j] among the distinct
        values of row i, numbered in order of first occurrence; built once,
        on first use (`_codes`).
        """
        if self._codes is None:
            self._codes = _codes(self.array)
        return self._codes

    @property
    def rows(self) -> tuple:
        return tuple(map(tuple, self.array.tolist()))

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        return Matrix(self.array.take(rows, axis=0).take(cols, axis=1))

    def is_zero_one(self) -> bool:
        # an object array holds a Fraction or an int beyond int64
        A = self.array
        return A.dtype == np.int64 and bool(0 <= A.min() and A.max() <= 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return False
        A, B = self.array, other.array
        # equal entries have equal dtypes: the dtype follows from them
        return A.shape == B.shape and A.dtype == B.dtype and bool((A == B).all())

    def __hash__(self) -> int:
        if self._hash is None:
            A = self.array
            self._hash = hash((A.shape, A.tobytes() if A.dtype == np.int64 else tuple(A.ravel().tolist())))
        return self._hash

    def __repr__(self) -> str:
        return f"Matrix({self.m}x{self.n})"


def _codes(A: np.ndarray) -> np.ndarray:
    """The read-only `Matrix.codes` of the entry array A: numbered in numpy when
    A is int64 and its rows' values spread little, else by one dict per row."""
    codes = _first_occurrence_codes(A) if A.dtype == np.int64 else None
    if codes is None:
        codes = np.empty(A.shape, dtype=np.int64)
        for i, row in enumerate(A.tolist()):
            seen = {}
            codes[i] = [seen.setdefault(x, len(seen)) for x in row]
        codes.flags.writeable = False
    return codes


def _first_occurrence_codes(A: np.ndarray) -> Optional[np.ndarray]:
    """The read-only `Matrix.codes` of an int64 array A, numbered in numpy.

    Each (row, value) pair gets one slot of a table: the value's offset from
    its row's minimum plus the row's base.  One `np.minimum.at` keeps the
    first column of each pair, and an entry's code is the number of first
    columns before its own in its row.  None when the values of some row
    spread too wide for the table.  When every row's values lie within two
    consecutive integers (a 0/1 matrix, say), an entry's code is whether it
    differs from its row's first entry, and no table is built.
    """
    m, n = A.shape
    # offsets from each row's minimum, exact in uint64 however wide the row
    d = A.view(np.uint64) - A.min(axis=1, keepdims=True).view(np.uint64)
    span = int(d.max()) + 1
    if span <= 2:  # at most two values per row: code 1 where an entry differs from its row's first
        codes = (A != A[:, :1]).astype(np.int64)
        codes.flags.writeable = False
        return codes
    if m * span > max(_TABLE_PER_ENTRY * m * n, _TABLE_MIN):
        return None
    keys = (d.astype(np.int64) + np.arange(0, m * span, span)[:, None]).ravel()
    flat = np.arange(m * n)
    first = np.full(m * span, m * n)
    np.minimum.at(first, keys, flat)
    first = first[keys]  # the flat index of each entry's first occurrence
    rank = np.cumsum((first == flat).reshape(m, n), axis=1).ravel() - 1
    codes = rank[first].reshape(m, n)
    codes.flags.writeable = False
    return codes


def _parse_token(tok: str):
    """One matrix entry: an `int` for an integer token, else an exact value."""
    match = _TOKEN_RE.fullmatch(tok)
    if not match:
        raise MatrixFormatError(f"malformed entry {tok!r}")
    try:
        if match.group(1) is None:
            return int(tok)
        return _exact(Fraction(tok))
    except (ValueError, ZeroDivisionError):
        raise MatrixFormatError(f"malformed entry {tok!r}") from None


def _row_tokens(ln: str, n: int) -> list:
    toks = ln.split()
    if len(toks) != n:
        raise MatrixFormatError(f"expected {n} entries, found {len(toks)} in {ln!r}")
    return toks


def _integer(tok: str) -> int:
    """An integer token: ASCII and `_TOKEN_RE` without a fraction part, so
    neither "1_0" nor non-ASCII digits, which `int()` takes, pass."""
    match = tok.isascii() and _TOKEN_RE.fullmatch(tok)
    if match and match.group(1) is None:
        try:
            return int(tok)
        except ValueError:  # more digits than int() takes
            pass
    raise MatrixFormatError(f"malformed integer {tok!r}")


def _header(line: str) -> tuple:
    """The two integers of a header line, each an `_integer`."""
    toks = line.split()
    if len(toks) == 2:
        try:
            return _integer(toks[0]), _integer(toks[1])
        except MatrixFormatError:
            pass
    raise MatrixFormatError(f"bad header {line!r}")


def _ascii(data: bytes) -> str:
    """The text of bytes that must be ASCII; MatrixFormatError names the first other byte."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"non-ASCII byte {data[exc.start]:#04x} at offset {exc.start}") from None


def parse_matrix(text) -> Matrix:
    """Parse the standard text format: a header line "m n", then m rows of n tokens.

    Tokens may be integers, decimals or "p/q"; decimals convert exactly.
    A text of ASCII digits, signs, spaces, tabs and line ends (`_INT_TEXT`)
    is read by numpy's C text reader, `np.loadtxt`, into an int64 array,
    which becomes the matrix as it is when it is m x n.  numpy refuses every
    token that `int()` refuses or int64 cannot hold, and every other file is
    read token by token through `_parse_token`, to the same values and the
    same errors, line by line in order.

    A `str` is read by Python's str rules: Unicode whitespace (U+00A0,
    U+2003, U+001F and the others `str.split()` splits at) separates
    tokens, and `int()` reads an entry's non-ASCII decimal digits, such as
    Arabic-Indic or full-width ones, to the same values as the text's ASCII
    spelling.  The header's two integers must be ASCII either way.  Bytes
    input, and so every file the CLI reads, must be ASCII.
    """
    if isinstance(text, bytes):
        text = _ascii(text)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MatrixFormatError("empty input")
    m, n = _header(lines[0])
    if m < 1 or n < 1:
        raise MatrixFormatError("m and n must be at least 1")
    if len(lines) != m + 1:
        raise MatrixFormatError(f"expected {m} rows, found {len(lines) - 1}")
    body = lines[1:]
    if not text.encode("ascii", "replace").translate(None, _INT_TEXT):  # "?" for a non-ASCII character
        try:
            A = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        except ValueError:  # a token that is no int64, or rows of unequal widths
            pass
        else:
            if A.shape == (m, n):
                return Matrix(A)
    return Matrix([tuple([_parse_token(t) for t in _row_tokens(ln, n)]) for ln in body])


def write_matrix(S: Matrix) -> str:
    """Inverse of parse_matrix: an `int` entry is written as "5", a `Fraction` as "-3/4".

    An int64 matrix with entries in 0..9 is written from one uint8 buffer
    of digits, spaces and newlines, any other by a per-entry `str` join.
    The text is the same either way.  An entry past Python's digit limit raises MatrixFormatError.
    """
    A = S.array
    if A.dtype == np.int64 and 0 <= A.min() and A.max() <= 9:
        text = np.full((S.m, 2 * S.n), ord(" "), dtype=np.uint8)
        text[:, ::2] = A
        text[:, ::2] += ord("0")
        text[:, -1] = ord("\n")
        return f"{S.m} {S.n}\n" + text.tobytes().decode("ascii")
    out = [f"{S.m} {S.n}"]
    try:
        out.extend(" ".join(map(str, row)) for row in A.tolist())
    except ValueError:  # str() of an int past the limit
        limit = f"{sys.get_int_max_str_digits()} digits, the limit of Python's integer to string conversion"
        raise MatrixFormatError(f"an entry has more than {limit}") from None
    return "\n".join(out) + "\n"


def check_permutation(perm: Sequence[int], k: int) -> tuple:
    perm = tuple(perm)
    if len(perm) != k or sorted(perm) != list(range(k)):
        raise ValueError(f"not a permutation of range({k}): {perm}")
    return perm


def permute(S: Matrix, row_perm: Sequence[int], col_perm: Sequence[int]) -> Matrix:
    """result[i][j] = S[row_perm[i]][col_perm[j]]."""
    row_perm = check_permutation(row_perm, S.m)
    col_perm = check_permutation(col_perm, S.n)
    return Matrix(S.array.take(row_perm, axis=0).take(col_perm, axis=1))


# ---------------------------------------------------------------------------
# Isomorphism up to row and column permutation.
#
# Backtracking over row assignments, pruned by iterated refinement of
# row/column classes (value-multiset signatures).  Worst case exponential;
# used for verification at desk scale only.
# ---------------------------------------------------------------------------


def _refine_classes(M: Matrix):
    """Stable row and column class labels under alternating refinement."""
    rows = M.rows
    rlab = [0] * M.m
    clab = [0] * M.n
    while True:
        rsig = [
            (rlab[i], tuple(sorted((clab[j], rows[i][j]) for j in range(M.n))))
            for i in range(M.m)
        ]
        rmap = {s: k for k, s in enumerate(sorted(set(rsig)))}
        new_rlab = [rmap[s] for s in rsig]
        csig = [
            (clab[j], tuple(sorted((new_rlab[i], rows[i][j]) for i in range(M.m))))
            for j in range(M.n)
        ]
        cmap = {s: k for k, s in enumerate(sorted(set(csig)))}
        new_clab = [cmap[s] for s in csig]
        if new_rlab == rlab and new_clab == clab:
            return rlab, clab
        rlab, clab = new_rlab, new_clab


def is_isomorphic(A: Matrix, B: Matrix) -> Optional[tuple]:
    """Search for (row_perm, col_perm) with permute(A, row_perm, col_perm) == B.

    Returns None when no such pair exists.  The witness is the
    lexicographically least one found by the deterministic search order.
    """
    if A.m != B.m or A.n != B.n:
        return None
    ra, ca = _refine_classes(A)
    rb, cb = _refine_classes(B)
    if sorted(ra) != sorted(rb) or sorted(ca) != sorted(cb):
        return None

    m, n = A.m, A.n
    # Column groups: pairs (A-cols, B-cols) with equal pattern under the rows
    # assigned so far.  Seeded by the refinement classes.
    groups = {}
    for j in range(n):
        groups.setdefault(ca[j], ([], []))[0].append(j)
    for j in range(n):
        if cb[j] not in groups:
            return None
        groups[cb[j]][1].append(j)
    init_groups = []
    for key in sorted(groups):
        acols, bcols = groups[key]
        if len(acols) != len(bcols):
            return None
        init_groups.append((acols, bcols))

    cand = [[a for a in range(m) if ra[a] == rb[i]] for i in range(m)]
    if any(not c for c in cand):
        return None

    row_perm = [-1] * m
    used = [False] * m
    arows, brows = A.rows, B.rows

    def split(groups_in, i, a):
        out = []
        for acols, bcols in groups_in:
            if len(acols) == 1:
                if arows[a][acols[0]] != brows[i][bcols[0]]:
                    return None
                out.append((acols, bcols))
                continue
            asub, bsub = {}, {}
            for c in acols:
                asub.setdefault(arows[a][c], []).append(c)
            for c in bcols:
                bsub.setdefault(brows[i][c], []).append(c)
            if len(asub) != len(bsub):
                return None
            for v, ac in asub.items():
                bc = bsub.get(v)
                if bc is None or len(bc) != len(ac):
                    return None
                out.append((ac, bc))
        return out

    def dfs(i, groups_in):
        if i == m:
            col_perm = [0] * n
            for acols, bcols in groups_in:
                for a, b in zip(sorted(acols), sorted(bcols)):
                    col_perm[b] = a
            return col_perm
        for a in cand[i]:
            if used[a]:
                continue
            nxt = split(groups_in, i, a)
            if nxt is None:
                continue
            used[a] = True
            row_perm[i] = a
            res = dfs(i + 1, nxt)
            if res is not None:
                return res
            used[a] = False
            row_perm[i] = -1
        return None

    col_perm = dfs(0, init_groups)
    if col_perm is None:
        return None
    witness = (tuple(row_perm), tuple(col_perm))
    assert permute(A, *witness) == B
    return witness


# ---------------------------------------------------------------------------
# Reproducible shuffling.  splitmix64 keyed by a 64-bit seed drives a
# Fisher-Yates shuffle (rows first, then columns); documented so that seeded
# examples are reproducible bit for bit.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator; deterministic across platforms."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        # rejection sampling: unbiased
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % bound)
        while True:
            v = self.next()
            if v < limit:
                return v % bound


def _fisher_yates(k: int, rng: SplitMix64) -> tuple:
    perm = list(range(k))
    for i in range(k - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def seeded_shuffle(S: Matrix, seed: int):
    """Deterministic row+column shuffle of S from a 64-bit seed.

    Returns (shuffled, row_perm, col_perm) with
    shuffled == permute(S, row_perm, col_perm).
    """
    rng = SplitMix64(seed)
    row_perm = _fisher_yates(S.m, rng)
    col_perm = _fisher_yates(S.n, rng)
    return permute(S, row_perm, col_perm), row_perm, col_perm
