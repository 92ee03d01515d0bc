import io
import random
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from prodmat import (
    Matrix,
    MatrixFormatError,
    is_isomorphic,
    one_product,
    parse_matrix,
    permute,
    seeded_shuffle,
    two_product,
    write_matrix,
)
from prodmat import matrix
from prodmat.matrix import _parse_token
from prodmat.matroids import hypersimplex_slack

PAPER_4x6 = Matrix([[1, 1, 1, 0, 0, 0], [2, 2, 2, 3, 3, 3], [1, 0, 0, 1, 0, 0], [0, 1, 1, 0, 1, 1]])


def test_parse_examples():
    assert parse_matrix("2 2\n1 0\n0 0") == Matrix([[1, 0], [0, 0]])
    assert parse_matrix("1 1\n7") == Matrix([[7]])
    assert parse_matrix("1 2\n1/3 0.5") == Matrix([[Fraction(1, 3), Fraction(1, 2)]])


def test_parse_decimal_exact():
    assert parse_matrix("1 1\n0.25").rows[0][0] == Fraction(1, 4)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 2\n1 0\n0",  # short row
        "2 2\n1 0",  # missing row
        "0 1\n",  # m < 1
        "1 1\nfoo",
        "1 1\n1e3",
        "1",
        "1 1\n1/0",
        # a header is two integer entries by the entries' rule
        "1_0 1\n" + "0\n" * 10,
        "1 1 1\n0",
        "1 1.0\n0",
        "1 1/1\n0",
        "1 " + "1" * 4301 + "\n0",
    ],
)
def test_parse_errors(text):
    with pytest.raises(MatrixFormatError):
        parse_matrix(text)


def test_entry_types_int_when_integral():
    S = Matrix([[Fraction(2), True, 2.0, np.int64(3), Fraction(1, 2), 0.25, Decimal("1.50"), Fraction(-4, 2), "1/2"]])
    assert [type(x) for x in S.rows[0]] == [int, int, int, int, Fraction, Fraction, Fraction, int, Fraction]
    assert S.rows[0] == (2, 1, 2, 3, Fraction(1, 2), Fraction(1, 4), Fraction(3, 2), -2, Fraction(1, 2))
    # the dtype follows from the entries: int64 when every entry is an int that fits
    assert S.array.dtype == object and Matrix(((0, 1), (2, 3))).array.dtype == np.int64
    assert Matrix([[2**63 - 1, -(2**63)]]).array.dtype == np.int64
    assert Matrix([[2**63, 0]]).array.dtype == object


@pytest.mark.parametrize(
    "entry",
    [
        float("nan"),
        Decimal("NaN"),
        float("inf"),
        -float("inf"),
        Decimal("Infinity"),
        np.float64("inf"),
        None,
        1j,
        complex(1, 0),
        [1],
        "abc",
        "1/0",
    ],
    ids=repr,
)
def test_non_real_entries_raise_matrix_format_error(entry):
    with pytest.raises(MatrixFormatError, match="not a finite real number") as info:
        Matrix([[0, entry]])
    assert repr(entry) in str(info.value)


def test_int_and_fraction_forms_equivalent():
    rng = random.Random(3)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        vals = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        A = Matrix(vals)
        B = Matrix([[Fraction(x) for x in row] for row in vals])
        assert all(type(x) is int for row in B.rows for x in row)
        assert A == B and hash(A) == hash(B)
        assert (A.codes == B.codes).all()
        assert write_matrix(A) == write_matrix(B)
        # a Fraction-holding tuple of the same values is the same row
        assert hash(tuple(Fraction(x) for x in A.rows[0])) == hash(A.rows[0])


@pytest.mark.parametrize("tok", ["+3", "-0", "007", "1.50", "3/6", "4/2", "0.25", "-12", "+1/3"])
def test_parse_token_values(tok):
    got = _parse_token(tok)
    want = Fraction(tok)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)
    # inside a file: an all-integer file is read as one array, any other per token
    row = parse_matrix(f"1 2\n5 {tok}").rows[0]
    assert row == (5, got) and [type(x) for x in row] == [int, type(got)]


@pytest.mark.parametrize("tok", ["1/0", "1e3", "0x1", "1_000", "--1", "1.", ".5", "1/-2", "nan"])
def test_parse_token_rejects(tok):
    with pytest.raises(MatrixFormatError):
        _parse_token(tok)
    with pytest.raises(MatrixFormatError):
        parse_matrix(f"1 2\n0 {tok}")


def _per_token_parse(text):
    """parse_matrix with every entry read by _parse_token: the reference for the array route."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MatrixFormatError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError(f"bad header {lines[0]!r}")
    m, n = int(header[0]), int(header[1])
    if len(lines) != m + 1:
        raise MatrixFormatError(f"expected {m} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != n:
            raise MatrixFormatError(f"expected {n} entries, found {len(toks)} in {ln!r}")
        rows.append(tuple([_parse_token(t) for t in toks]))
    return Matrix(rows)


def _outcome(parse, text):
    try:
        S = parse(text)
    except MatrixFormatError as exc:
        return "error", str(exc)
    # the codes, from the parser's array or from the rows, are the rows' codes
    assert not S.codes.flags.writeable and S.codes.dtype == np.int64
    assert np.array_equal(S.codes, Matrix(S.rows).codes)
    return S.rows, [[type(x) for x in row] for row in S.rows]


def test_parse_matches_per_token_reference(monkeypatch):
    tokens = []  # the tokens parse_matrix read one by one
    real = matrix._parse_token
    monkeypatch.setattr(matrix, "_parse_token", lambda tok: tokens.append(tok) or real(tok))
    arrays = 0  # matrices read by the array route, without a token read one by one
    rng = random.Random(11)
    ints = ["0", "7", "-3", "+12", "007", "-0", "+0", "123456789012345678901234567890"]
    short = ints[:-1]  # within int64, as the array route reads
    # around int64's bounds: 18, 19 and more digits
    edge = [
        "999999999999999999", "-123456789012345678", "+000000000000000042", "1000000000000000000",
        "9223372036854775807", "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
        "0000000000000000000001", "-00000000000000000000", "+00009223372036854775807",
    ]
    others = ["0.5", "-1.25", "3/4", "+2/6", "4/2", "007.50", "-0/3"]
    # the last six are made of bytes that the gate lets through to numpy, which refuses them
    bad = ["1_000", "0x1", "1.", "1/0", "1e3", ".5", "1/-2", "+-1", "1-2", "1+", "-", "+", "--1"]
    seps = [" ", "  ", "\t", " \t ", "\v", "\f"]
    ends = ["\n", "\r\n", "\n \t\n"]
    errors = 0
    for _ in range(600):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        lines = [f"{m} {n}"]
        # a plain file: short integers, bar an edge token on some lines, so
        # that whole files reach the array route or just miss it
        plain = rng.random() < 0.25
        for _ in range(m):
            kind = rng.uniform(0.45, 1) if plain else rng.random()
            toks = [rng.choice(short if plain else ints) for _ in range(n)]
            if kind < 0.3:
                toks[rng.randrange(n)] = rng.choice(others)
            elif kind < 0.4:
                toks[rng.randrange(n)] = rng.choice(bad)
            elif kind < 0.45 and n > 1:
                toks.pop()
            elif kind < 0.6:
                toks[rng.randrange(n)] = rng.choice(edge)
            line = "".join(t + rng.choice(seps) for t in toks[:-1]) + toks[-1]
            lines.append(rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\t "]))
        text = "".join(ln + rng.choice(ends) for ln in lines)
        want = _outcome(_per_token_parse, text)
        read = len(tokens)
        assert _outcome(parse_matrix, text) == want, text
        errors += want[0] == "error"
        arrays += want[0] != "error" and len(tokens) == read
    assert 100 < errors < 500  # both outcomes are exercised
    parsed = 600 - errors
    assert 20 < arrays < parsed - 20  # and both routes to a matrix


def test_parse_token_beyond_the_int_digit_limit():
    # int() refuses more than sys.get_int_max_str_digits() digits; numpy
    # refuses the token as beyond int64, so it goes to _parse_token and its
    # error
    tok = "1" * 5000
    with pytest.raises(MatrixFormatError, match="malformed entry"):
        parse_matrix(f"1 2\n1 {tok}\n")


def test_parse_unicode_whitespace_and_digits_as_ascii():
    # str.split() splits at U+00A0, U+2003 and U+001F, and int() reads
    # Arabic-Indic digits; such texts fail the gate of the array route
    # (`_INT_TEXT`) and are read token by token, to the same values as their
    # ASCII spelling
    ascii_text = "2 3\n1 -20 +3\n0 45 6\n"
    spellings = [
        "2 3\n1\u00a0-20 +3\n0\u2003\u200345 6\n",
        "2 3\n\u0661 -\u0662\u0660 +3\n0 \u0664\u0665\u001f6\u00a0\n",
    ]
    want = parse_matrix(ascii_text)
    for text in spellings:
        got = parse_matrix(text)
        assert got == want and {type(x) for row in got.rows for x in row} == {int}
    with pytest.raises(MatrixFormatError, match="malformed entry"):
        parse_matrix("1 2\n1\u00a0\u0661.\n")


def test_parse_array_route_raises_no_warning(monkeypatch):
    # the array route's np.loadtxt must stay free of deprecation and
    # conversion warnings
    monkeypatch.setattr(matrix, "_parse_token", None)  # no token is read on its own
    big = 2**63 - 1
    text = (
        f"4 4\n1 -2 3 +4\n  0 0 007 -0\t\n{big} {big - 2} +{big} {big - 1}\n"
        f"-{big} -{big - 1} -{big} -{big}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S = parse_matrix(text)
    assert S.rows == ((1, -2, 3, 4), (0, 0, 7, 0), (big, big - 2, big, big - 1), (-big, 1 - big, -big, -big))
    assert {type(x) for row in S.rows for x in row} == {int}
    assert S.array.dtype == np.int64
    assert S.codes.tolist() == [[0, 1, 2, 3], [0, 0, 1, 0], [0, 1, 0, 2], [0, 1, 0, 0]]


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c"])
def test_parse_gate_keeps_line_breaks_of_splitlines(sep):
    # numpy reads \v, \f and \x1c as whitespace within a line, but
    # str.splitlines breaks the line there: the file has three rows
    body = f"1{sep}2\n3 4\n"
    assert np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None).shape == (2, 2)
    text = "2 2\n" + body
    want = ("error", "expected 2 rows, found 3")
    assert _outcome(_per_token_parse, text) == want
    assert _outcome(parse_matrix, text) == want
    assert _outcome(parse_matrix, text.encode()) == want


def test_parse_gate_sends_no_break_space_token_by_token(monkeypatch):
    # numpy reads U+00A0 as whitespace, as str.split() does; the text fails
    # the gate and is read token by token, and as bytes it is no ASCII file
    tokens = []
    real = matrix._parse_token
    monkeypatch.setattr(matrix, "_parse_token", lambda tok: tokens.append(tok) or real(tok))
    text = "2 2\n1\xa02\n3 4\n"
    assert np.loadtxt(io.StringIO(text[4:]), dtype=np.int64, comments=None).tolist() == [[1, 2], [3, 4]]
    want = (((1, 2), (3, 4)), [[int, int], [int, int]])
    assert _outcome(parse_matrix, text) == _outcome(_per_token_parse, text) == want
    assert tokens == ["1", "2", "3", "4"]
    with pytest.raises(MatrixFormatError, match="non-ASCII byte 0xc2 at offset 5"):
        parse_matrix(text.encode())


def _first_occurrence_arrays(rng):
    """Random int64 arrays: small and wide values, thin shapes, constant rows, 0/1 rows."""
    top = 2**63 - 1
    for _ in range(200):
        m, n = rng.choice([(1, rng.randint(1, 12)), (rng.randint(1, 12), 1), (rng.randint(1, 8), rng.randint(1, 40))])
        kind = rng.randrange(5)
        if kind == 0:  # small, with negatives
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        elif kind == 1:  # a few values spread over the whole int64 range
            vals = [rng.randint(-top - 1, top) for _ in range(3)] + [-top - 1, top]
            rows = [[rng.choice(vals) for _ in range(n)] for _ in range(m)]
        elif kind == 2:  # each row at its own level, spread within or beyond the table
            jump = rng.choice([2, 4 * n, 5000])
            bases = [rng.randint(-10**12, 10**12) for _ in range(m)]
            rows = [[base + rng.choice([0, 1, jump]) for _ in range(n)] for base in bases]
        elif kind == 3:  # constant rows
            rows = [[rng.randint(-5, 5)] * n for _ in range(m)]
        else:  # 0/1 rows, most of them starting with 1
            rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
            rows = [[1] + row[1:] if rng.random() < 0.7 else row for row in rows]
        yield np.array(rows, dtype=np.int64)


def test_first_occurrence_codes_match_the_rows_codes():
    # the parser's numpy numbering equals Matrix.codes' per-row dict numbering;
    # beyond the table bound it leaves the codes to Matrix.codes
    wide = 0
    for A in _first_occurrence_arrays(random.Random(41)):
        m, n = A.shape
        got = matrix._first_occurrence_codes(A)
        span = max(max(r) - min(r) for r in A.tolist()) + 1
        if m * span > max(matrix._TABLE_PER_ENTRY * m * n, matrix._TABLE_MIN):
            assert got is None, A
            wide += 1
            continue
        assert got.dtype == np.int64 and got.shape == A.shape and not got.flags.writeable
        assert np.array_equal(got, Matrix(A.tolist()).codes), A
    assert 20 < wide < 180


def test_parse_rejects_non_ascii_bytes():
    with pytest.raises(MatrixFormatError, match="non-ASCII byte 0xc3 at offset 6"):
        parse_matrix(b"1 2\n1 \xc3\xa9\n")


def test_write_parse_roundtrip_random():
    rng = random.Random(1)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        S = Matrix(
            [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(m)
            ]
        )
        assert parse_matrix(write_matrix(S)) == S


def _write_reference(S):
    """The text format by a per-entry str join."""
    return f"{S.m} {S.n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in S.rows)


def test_write_matrix_equals_the_per_entry_join():
    # 0/1 and 0..9 matrices take the byte-buffer route; a 10, a -1, a 300, a
    # huge int or a Fraction anywhere sends the matrix to the str join
    rng = random.Random(5)
    cases = [
        Matrix([[0]]),
        Matrix([[9]]),
        Matrix([[1, 0, 1, 1, 0]]),
        Matrix([[3], [0], [9]]),
        hypersimplex_slack(5, 2),
        Matrix([[rng.randint(0, 1) for _ in range(40)] for _ in range(12)]),
        Matrix([[rng.randint(0, 9) for _ in range(17)] for _ in range(6)]),
    ]
    for odd in (10, -1, 300, 2**70, Fraction(-3, 4)):
        for m, n in ((1, 1), (1, 5), (4, 1), (3, 6)):
            rows = [[rng.randint(0, 9) for _ in range(n)] for _ in range(m)]
            rows[rng.randrange(m)][rng.randrange(n)] = odd
            cases.append(Matrix(rows))
    for S in cases:
        text = write_matrix(S)
        assert text == _write_reference(S)
        assert parse_matrix(text) == S


def test_rational_arithmetic_exact():
    rng = random.Random(2)
    for _ in range(100):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a


def test_restrict_stack_recovers():
    X = (0, 2)
    Xc = (1, 3)
    cols = range(PAPER_4x6.n)
    top = PAPER_4x6.submatrix(X, cols)
    bot = PAPER_4x6.submatrix(Xc, cols)
    stacked = Matrix(top.rows + bot.rows)
    perm = tuple(np.argsort(X + Xc).tolist())  # the inverse of X + Xc
    assert permute(stacked, perm, tuple(range(PAPER_4x6.n))) == PAPER_4x6


def test_permute_identity_and_involution():
    S = PAPER_4x6
    ident_r = tuple(range(S.m))
    ident_c = tuple(range(S.n))
    assert permute(S, ident_r, ident_c) == S
    swap = (1, 0, 2, 3)
    assert permute(permute(S, swap, ident_c), swap, ident_c) == S
    with pytest.raises(ValueError):
        permute(S, (0, 1), ident_c)


def test_is_isomorphic_basic():
    S = PAPER_4x6
    rp, cp = is_isomorphic(S, S)
    assert permute(S, rp, cp) == S
    A = Matrix([[1, 0], [0, 0]])
    B = Matrix([[0, 0], [0, 1]])
    w = is_isomorphic(A, B)
    assert w is not None and permute(A, *w) == B
    assert is_isomorphic(A, Matrix([[1, 0], [0, 1]])) is None
    assert is_isomorphic(A, Matrix([[1, 0]])) is None


def test_is_isomorphic_shuffled_hypersimplex():
    S = hypersimplex_slack(4, 2)
    sh, rp, cp = seeded_shuffle(S, 17)
    assert permute(S, rp, cp) == sh
    w = is_isomorphic(S, sh)
    assert w is not None and permute(S, *w) == sh
    # equivalence relation: symmetric direction as well
    w2 = is_isomorphic(sh, S)
    assert w2 is not None and permute(sh, *w2) == S


def test_is_isomorphic_rejects_different_multisets():
    A = Matrix([[1, 0], [0, 1]])
    B = Matrix([[1, 1], [0, 0]])
    assert is_isomorphic(A, B) is None


def test_derived_matrices_match_the_public_constructor():
    # the operations build their results from the entry array, for either
    # dtype; each result equals Matrix(...) of its rows, with the same dtype,
    # entry types, hash and codes, and permute follows
    # result[i][j] = S[row_perm[i]][col_perm[j]]
    rng = random.Random(7)
    big = 2**70
    sources = []
    for values in ([0, 1, 2, Fraction(1, 3), Fraction(-5, 2)], [0, 1, 2, big, -big - 1], [0, 1, 2, 3, -4]):
        rows = [[rng.choice(values) for _ in range(5)] for _ in range(4)]
        sources.append(Matrix(rows + [rows[1]]))
    S, W, I = sources
    assert [T.array.dtype for T in sources] == [object, object, np.int64]
    row_perm, col_perm = (2, 0, 4, 1, 3), (4, 2, 0, 3, 1)
    derived = []
    for T in sources:
        P = permute(T, row_perm, col_perm)
        assert [list(r) for r in P.rows] == [[T.rows[i][j] for j in col_perm] for i in row_perm]
        derived += [P, T.submatrix((3, 0), (1, 4)), T.submatrix(range(T.m), [2, 2]), T.submatrix((1, 3), range(T.n))]
    # products of mixed dtypes
    special = ((0, 1, 1, 0, 1),)
    for A, B in ((S, I), (I, W), (W, S)):
        derived.append(one_product(A, B))
        derived.append(two_product(Matrix(A.rows + special), A.m, Matrix(B.rows + special), B.m))
    # an object matrix's submatrix of int64-range entries is int64 again
    X = Matrix([[1, Fraction(1, 2), 2], [3, big, -4]])
    fit = X.submatrix((0, 1), (0, 2))
    want = Matrix([[1, 2], [3, -4]])
    assert fit.array.dtype == np.int64 and fit == want and hash(fit) == hash(want)
    derived += [fit, X.submatrix(range(X.m), [1])]
    for D in derived:
        public = Matrix(D.rows)
        assert D == public and hash(D) == hash(public) and (D.m, D.n) == (public.m, public.n)
        assert D.array.dtype == public.array.dtype and not D.array.flags.writeable
        assert [list(map(type, r)) for r in D.rows] == [list(map(type, r)) for r in public.rows]
        assert np.array_equal(D.codes, public.codes)
    assert {D.array.dtype for D in derived} == {np.dtype(object), np.dtype(np.int64)}
    with pytest.raises(MatrixFormatError):
        S.submatrix((0, 1), ())
    with pytest.raises(MatrixFormatError):
        S.submatrix((), (0, 1))


def test_seeded_shuffle_deterministic():
    S = hypersimplex_slack(4, 2)
    a = seeded_shuffle(S, 7)
    b = seeded_shuffle(S, 7)
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
    c = seeded_shuffle(S, 8)
    assert (c[1], c[2]) != (a[1], a[2])


def test_codes_first_occurrence_read_only_cached():
    S = Matrix([[3, 1, 3, Fraction(1, 2)], [0, 0, 0, 0], [Fraction(1, 2), 0.5, 2, 2]])
    C = S.codes
    assert C.dtype == np.int64
    assert C.tolist() == [[0, 1, 0, 2], [0, 0, 0, 0], [0, 0, 1, 1]]
    assert S.codes is C
    with pytest.raises(ValueError):
        C[0, 0] = 5
    assert S.codes.tolist()[0] == [0, 1, 0, 2]
