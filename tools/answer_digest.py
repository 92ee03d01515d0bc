"""Print one SHA-256 over every recognizer's answer on a fixed seeded input set.

Two checkouts whose recognizers give the same exact answers print the same
digest, so a refactor can show "same answers" with one command.  One
SHA-256 per part (1p, factor, 2p, matroid) comes first, so a change
shows which answers moved; then comes the combined digest:

    python3 tools/answer_digest.py

To compare against another commit, unpack that commit (for example with
`git archive <rev> | tar -x -C <dir>`), copy this file into `<dir>/tools/`
and run it there as well; the script imports `prodmat` from the `src/`
directory next to its own `tools/` directory.

The input set (1,080 matrices, all from `random.Random` with fixed seeds):
  - 400 random matrices with entries 0..2 (m 2..6, n 1..9)
  - 300 shuffled 1-products of 2-3 small factors with repeated columns,
    half with one flipped entry
  - 200 shuffled 2-products (factors with entries 0..2 or 0/1)
  - 100 0/1 matrices with distinct columns (2-products, deduplicated)
  - 80 shuffled 2-level matroid slack matrices, a quarter with one entry flipped

Digested per input: the `recognize_one_product` certificate, the
`factorize_irreducible` blocks and factors, the `recognize_two_product`
certificate, and for the slack matrices the `recognize_2level_matroid_slack`
expression and column bases (or the rejection).

The script also checks what it digests: every 1-product certificate, every
factorization and every 2-product certificate must re-expand to its input.
The product of the factors, with its rows put back in the input's order,
must equal the input up to a column permutation.  Every recognized slack
matrix must pass the matroid recognizer's full re-expansion
(`matroids._reexpands`): the expression's slack matrix, with its
columns matched to the input's through the column bases, must have exactly
the input's rows.  A further line counts the answers that fail these checks,
and the exit status is 1 when it is not 0, so a changed digest comes with a
proof that the new answers are valid.

A separate `build` line digests the build direction, which the recognizers'
answers do not cover: for 240 fixed-seed random expressions (1-5 uniform
leaves, d <= 5, at most 350 columns), the expression's text and either the
`write_matrix` text of `expr_to_slack_with_bases` with its column bases in
column order, or the type of the exception the builder raised (an
incoherent 2-sum raises CoherenceError).  It is not part of the combined
digest.

A separate `bases` line digests the reference evaluator, `expr_to_bases`,
on the same 240 expressions, incoherent ones included, since every
expression has a base family: the expression's text, the rank and the
bases, each as a sorted list, in sorted order.  A rewrite of the evaluator
that keeps every family keeps this line.  It is not part of the combined
digest.

A separate `exact` line digests the recognizers on matrices whose entries
do not all fit in int64: a fixed-seed sample of 150 of the inputs above
(120 matrices, 30 slack matrices), each in two forms, every entry divided
by 3 (`Fraction`s) and every entry plus 2**70 (wider ints).  All four
recognizers run on each (the matroid recognizer refuses as input errors
those whose entries are not all 0/1), their answers are checked for
re-expansion like the others, and the digest covers each input with its
answers.  It is not part of the
combined digest either.

A separate `parse` line digests `parse_matrix` on its own: for 3,000
fixed-seed adversarial texts, each given as a `str` and as UTF-8 bytes, the
rows with the type of every entry and the array's dtype, or the message of
the `MatrixFormatError` it raised.  The texts mix short integers with sign
and length edge tokens (int64's bounds and one beyond them, leading zeros,
`1-2`, `--1`, lone signs, more digits than `int()` takes), decimals and
`p/q`; `\\r\\n`, lone `\\r`, `\\v`, `\\f` and `\\x1c` line ends; `\\v`,
`\\f`, `\\x1f` and U+00A0 separators; blank and whitespace-only lines, and
files whose rows all have the same wrong width.  It is not part of the
combined digest.

A separate `product` line digests the two constructions on their own: the
`write_matrix` text and the dtype of `one_product` and `two_product` on 60
fixed-seed factor pairs with int64, `Fraction` or beyond-int64 entries,
`two_product` with a 0/1 special row inserted at every position of each
factor.  It is not part of the combined digest.

A separate `cli-matroid` line digests the command line's matroid answers:
the exit code and stdout of `cli.main(["recognize", "matroid", FILE])` on
each of the 80 slack matrices above, near-misses included, written to FILE
with `write_matrix`.  It covers the JSON the CLI prints from an answer: the
expression text, the element count, the column bases and the row
provenance.  It is not part of the combined digest.

A separate `minimizer` line digests the pendent-pair minimizer: the argmin,
and the value rounded to 9 decimals, of `minimize_symmetric` over
`InfoFunction(S).f` on the 400 random matrices and the 300 1-product inputs
above, skipping those with fewer than 2 rows.  It is not part of the
combined digest.

A separate `near-miss` line digests the matroid recognizer on 3,000
fixed-seed slack matrices of 1-4 uniform leaves (at most 120 columns and 30
rows), each with 1-3 random entries flipped (an entry drawn twice flips
back) and shuffled: the expression text and the column bases' bytes, None,
or the `MatroidInputError` message.  Some of them reach a part of a split
that repeats a column, which no check of the recursion matches.  It is not
part of the combined digest.

Each input is written with `write_matrix` and read back with `parse_matrix`,
and the recognizers run on the matrix read back, so the parser's codes are
the ones digested.  The last line counts the inputs whose parsed rows or
`Matrix.codes` differ from those of the constructed `Matrix`; those too
make the exit status 1.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import random
import sys
import tempfile
from collections import Counter
from math import comb
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from prodmat import (  # noqa: E402
    InfoFunction,
    Matrix,
    MatrixFormatError,
    MatroidInputError,
    factorize_irreducible,
    one_product,
    parse_matrix,
    recognize_2level_matroid_slack,
    recognize_one_product,
    recognize_two_product,
    SymmetricOracle,
    minimize_symmetric,
    seeded_shuffle,
    two_product,
    write_matrix,
)
from prodmat import cli  # noqa: E402
from prodmat.matroids import (  # noqa: E402
    CoherenceError,
    Leaf,
    MatroidRecognition,
    OneSum,
    TwoSum,
    _base_lists,
    _reexpands,
    expr_to_bases,
    expr_to_slack,
    expr_to_slack_with_bases,
    expr_to_text,
)


def canon(x):
    """A repr-stable form: matrices as their text, dataclasses field by field.

    A matroid recognition is digested as its expression, its column bases as
    ascending element tuples, and its element count."""
    if isinstance(x, Matrix):
        return write_matrix(x)
    if isinstance(x, MatroidRecognition):
        bases = tuple(map(tuple, _base_lists(x.bases)))
        return (type(x).__name__, ("expr", canon(x.expr)), ("col_bases", bases), ("size", x.size))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            (f.name, canon(getattr(x, f.name))) for f in dataclasses.fields(x)
        )
    if isinstance(x, (tuple, list)):
        return tuple(canon(y) for y in x)
    if isinstance(x, frozenset):
        return tuple(sorted(canon(y) for y in x))
    if isinstance(x, Fraction):
        return str(x)
    return x


def rand_matrix(rng, m, n, hi):
    return Matrix([[rng.randint(0, hi) for _ in range(n)] for _ in range(m)])


def flip_one(rng, S, hi):
    rows = [list(r) for r in S.rows]
    i, j = rng.randrange(S.m), rng.randrange(S.n)
    rows[i][j] = (rows[i][j] + rng.randint(1, hi)) % (hi + 1)
    return Matrix(rows)


def with_repeats(rng, S):
    """S with some of its columns repeated."""
    cols = list(range(S.n)) + [rng.randrange(S.n) for _ in range(rng.randint(0, 2))]
    return S.submatrix(range(S.m), cols)


def random_two_product(rng, hi):
    while True:
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        x1 = [rng.randint(0, 1) for _ in range(n1)]
        y1 = [rng.randint(0, 1) for _ in range(n2)]
        if len(set(x1)) == 2 and len(set(y1)) == 2:
            break
    S1 = Matrix(rand_matrix(rng, rng.randint(1, 3), n1, hi).rows + (tuple(x1),))
    S2 = Matrix(rand_matrix(rng, rng.randint(1, 3), n2, hi).rows + (tuple(y1),))
    return two_product(S1, S1.m - 1, S2, S2.m - 1)


def distinct_columns(S):
    seen, keep = set(), []
    for j in range(S.n):
        c = tuple(S.array[:, j].tolist())
        if c not in seen:
            seen.add(c)
            keep.append(j)
    return S.submatrix(range(S.m), keep)


def random_expr(rng, leaves):
    if leaves == 1:
        d = rng.randint(2, 5)
        return Leaf(d, rng.randint(1, d - 1))
    left = rng.randint(1, leaves - 1)
    a, b = random_expr(rng, left), random_expr(rng, leaves - left)
    if rng.random() < 0.5:
        return OneSum((a, b))
    return TwoSum(a, b, rng.randrange(a.size), rng.randrange(b.size))


def matrix_inputs():
    rng = random.Random(20240601)
    out = []
    for _ in range(400):
        out.append(rand_matrix(rng, rng.randint(2, 6), rng.randint(1, 9), 2))
    for k in range(300):
        P = with_repeats(rng, rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 3))
        for _ in range(rng.randint(1, 2)):
            P = one_product(P, with_repeats(rng, rand_matrix(rng, rng.randint(1, 2), rng.randint(1, 3), 3)))
        if k % 2:
            P = flip_one(rng, P, 3)
        out.append(seeded_shuffle(P, rng.getrandbits(64))[0])
    for k in range(200):
        T = random_two_product(rng, 1 if k % 2 else 2)
        out.append(seeded_shuffle(T, rng.getrandbits(64))[0])
    for _ in range(100):
        T = distinct_columns(random_two_product(rng, 1))
        out.append(seeded_shuffle(T, rng.getrandbits(64))[0])
    return out


def slack_inputs():
    rng = random.Random(20240602)
    out = []
    while len(out) < 80:
        try:
            S = expr_to_slack(random_expr(rng, rng.randint(1, 3)))
        except (CoherenceError, ValueError):
            continue
        if S.n > 200 or S.m > 30:
            continue
        if len(out) % 4 == 3:
            S = flip_one(rng, S, 1)
        out.append(seeded_shuffle(S, rng.getrandbits(64))[0])
    return out


def near_miss_inputs():
    """3,000 shuffled slack matrices of 1-4 leaves, each with 1-3 random entries flipped."""
    rng = random.Random(20240608)
    out = []
    while len(out) < 3000:
        try:
            S = expr_to_slack(random_expr(rng, rng.randint(1, 4)))
        except (CoherenceError, ValueError):
            continue
        if S.n > 120 or S.m > 30:
            continue
        for _ in range(rng.randint(1, 3)):
            S = flip_one(rng, S, 1)
        out.append(seeded_shuffle(S, rng.getrandbits(64))[0])
    return out


def near_miss_digest(inputs):
    """(SHA-256 over the matroid recognizer's answer on each input, their number):
    the expression text and the column bases' bytes, None, or the input error."""
    h = hashlib.sha256()
    for S in inputs:
        try:
            rec = recognize_2level_matroid_slack(S)
        except MatroidInputError as exc:
            answer = str(exc)
        else:
            answer = None if rec is None else (expr_to_text(rec.expr), rec.bases.tobytes())
        h.update(repr((write_matrix(S), answer)).encode())
    return h.hexdigest(), len(inputs)


def leaf_product(e):
    """Product of the leaves' base counts: a bound on the columns of e's slack."""
    if isinstance(e, Leaf):
        return comb(e.d, e.k)
    parts = e.parts if isinstance(e, OneSum) else (e.left, e.right)
    return leaf_product(parts[0]) * leaf_product(parts[1])


def build_answers():
    """The build expressions, each with the builder's answer on it."""
    rng = random.Random(20240604)
    out = []
    while len(out) < 240:
        e = random_expr(rng, rng.randint(1, 5))
        if leaf_product(e) > 2000:
            continue
        try:
            S, bases = expr_to_slack_with_bases(e)
        except (CoherenceError, ValueError) as exc:
            answer = type(exc).__name__
        else:
            if S.n > 350:
                continue
            answer = (write_matrix(S), [sorted(b) for b in bases])
        out.append((e, answer))
    return out


def build_digest(answers):
    """(SHA-256 over the builder's answers on the build expressions, their number)."""
    h = hashlib.sha256()
    for e, answer in answers:
        h.update(repr((expr_to_text(e), answer)).encode())
    return h.hexdigest(), len(answers)


def bases_digest(exprs):
    """(SHA-256 over `expr_to_bases` on the expressions, their number)."""
    h = hashlib.sha256()
    for e in exprs:
        M = expr_to_bases(e)
        h.update(repr((expr_to_text(e), M.rank, sorted(sorted(b) for b in M.bases))).encode())
    return h.hexdigest(), len(exprs)


PARSE_PLAIN = ["0", "1", "2", "7", "-3", "+12", "007", "-0", "+0", "40"]
PARSE_EDGE = [
    "999999999999999999", "1000000000000000000", "9223372036854775807", "-9223372036854775808",
    "9223372036854775808", "-9223372036854775809", "+00009223372036854775807", "-00000000000000000000",
    "0000000000000000000000001", "123456789012345678901234567890", "1" * 4301,
    "1-2", "1+", "-", "+", "--1", "+-1", "-+1", "1--", "\u0661\u0662", "#1",
]
PARSE_OTHER = ["0.5", "-1.25", "3/4", "+2/6", "4/2", "-0/3", "007.50", "1/0", "1e3", ".5", "1.", "0x1", "1_000"]
PARSE_SEPS = [" ", " ", " ", "  ", "\t", " \t ", "\v", "\f", "\x1f", "\xa0"]
PARSE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\n\n", "\n \t\n", "\n\t", "\v", "\f", "\x1c"]


def parse_texts():
    """The fixed-seed adversarial matrix texts of the `parse` digest."""
    rng = random.Random(20240606)
    out = []
    for _ in range(3000):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        width = n + rng.choice([-1, 1]) if rng.random() < 0.1 and n > 1 else n  # every row the same width
        plain = rng.random() < 0.4  # a file of short integers and the separators numpy reads
        lines = [rng.choice([f"{m} {n}", f" {m}\t{n} ", f"{m} {n}"])]
        for _ in range(m):
            toks = [rng.choice(PARSE_PLAIN) for _ in range(width)]
            kind = rng.random()
            if kind < 0.25:
                toks[rng.randrange(width)] = rng.choice(PARSE_EDGE)
            elif kind < 0.35:
                toks[rng.randrange(width)] = rng.choice(PARSE_OTHER)
            elif kind < 0.4 and width > 1:
                toks.pop()  # one short row
            seps = PARSE_SEPS[:6] if plain else PARSE_SEPS
            lines.append("".join(t + rng.choice(seps) for t in toks[:-1]) + toks[-1] + rng.choice(["", " ", "\t"]))
        if rng.random() < 0.1:
            lines.insert(rng.randint(1, len(lines)), rng.choice(["", " ", "\t \t"]))
        ends = PARSE_ENDS[:8] if plain else PARSE_ENDS
        out.append("".join(ln + rng.choice(ends) for ln in lines))
    return out


def parse_outcome(text):
    """`parse_matrix` on text: its dtype and rows with each entry's type, or its error message."""
    try:
        S = parse_matrix(text)
    except MatrixFormatError as exc:
        return "error", str(exc)
    return S.array.dtype.str, tuple(tuple((type(x).__name__, str(x)) for x in row) for row in S.rows)


def parse_digest():
    """(SHA-256 over `parse_matrix`'s outcome on the parse texts, as str and as bytes, their number)."""
    h = hashlib.sha256()
    texts = parse_texts()
    for text in texts:
        h.update(repr((text, parse_outcome(text), parse_outcome(text.encode()))).encode())
    return h.hexdigest(), len(texts)


def product_factor(rng, kind):
    """A small fixed-seed factor with int64 (kind 0), `Fraction` (1) or beyond-int64 (2) entries."""
    m, n = rng.randint(1, 3), rng.randint(2, 4)
    if kind == 0:
        return rand_matrix(rng, m, n, 3)
    if kind == 1:
        return Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)])
    return Matrix([[rng.randint(0, 3) + rng.choice([0, 2**70]) for _ in range(n)] for _ in range(m)])


def with_special_rows(rng, S):
    """S with one 0/1 row taking both values inserted at each position, as (matrix, row index) pairs."""
    row = [0, 1] + [rng.randint(0, 1) for _ in range(S.n - 2)]
    rng.shuffle(row)
    return [(Matrix(S.rows[:i] + (tuple(row),) + S.rows[i:]), i) for i in range(S.m + 1)]


def product_digest():
    """(SHA-256 over `one_product` and `two_product` on fixed-seed factors, the number of products)."""
    rng = random.Random(20240607)
    h = hashlib.sha256()
    count = 0
    for k in range(60):
        S1, S2 = product_factor(rng, k % 3), product_factor(rng, rng.randrange(3))
        products = [one_product(S1, S2)]
        for T1, x1 in with_special_rows(rng, S1):
            for T2, y1 in with_special_rows(rng, S2):
                products.append(two_product(T1, x1, T2, y1))
        for P in products:
            h.update(repr((write_matrix(P), P.array.dtype.str)).encode())
        count += len(products)
    return h.hexdigest(), count


def cli_matroid_digest(slacks):
    """(SHA-256 over the exit code and stdout of `recognize matroid` on each slack, their number)."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "slack.txt"
        for S in slacks:
            path.write_text(write_matrix(S))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["recognize", "matroid", str(path)])
            h.update(repr((code, out.getvalue())).encode())
    return h.hexdigest(), len(slacks)


def minimizer_digest(matrices):
    """(SHA-256 over the minimizer's argmin and rounded value on the matrices of
    two or more rows, their number)."""
    h = hashlib.sha256()
    count = 0
    for S in matrices:
        if S.m < 2:
            continue
        F = InfoFunction(S)
        X, value = minimize_symmetric(SymmetricOracle(F.m, F.f))
        h.update(repr((write_matrix(S), X, round(value, 9))).encode())
        count += 1
    return h.hexdigest(), count


def reexpands(S, P, order):
    """P equals S's rows `order` (one per row of P) up to a column permutation."""
    if len(order) != S.m or sorted(order) != list(range(S.m)) or P.n != S.n:
        return False
    return Counter(map(tuple, P.array.T.tolist())) == Counter(map(tuple, S.array.take(order, axis=0).T.tolist()))


def failed_reexpansions(S, cert1, fac, cert2):
    """How many of the three answers on S do not re-expand to S."""
    bad = 0
    if cert1 is not None:
        bad += not reexpands(S, one_product(cert1.S1, cert1.S2), cert1.X + cert1.Xc)
    P = fac.factors[0]
    for factor in fac.factors[1:]:
        P = one_product(P, factor)
    bad += not reexpands(S, P, [i for block in fac.blocks for i in block])
    if cert2 is not None:
        # two_product stacks S1's rows, then S2's, each without its special row,
        # then the special row
        rows = {side: {k: i for i, (s, k) in enumerate(cert2.row_map) if s == side} for side in ("S1", "S2")}
        order = (
            [rows["S1"].get(k, -1) for k in range(cert2.S1.m) if k != cert2.x1_index]
            + [rows["S2"].get(k, -1) for k in range(cert2.S2.m) if k != cert2.y1_index]
            + [cert2.special_row]
        )
        bad += not reexpands(S, two_product(cert2.S1, cert2.x1_index, cert2.S2, cert2.y1_index), order)
    return bad


PARTS = ("1p", "factor", "2p", "matroid")


def round_trip(S):
    """(S written and parsed back, whether its rows or codes differ from S's)."""
    P = parse_matrix(write_matrix(S))
    return P, P.rows != S.rows or not np.array_equal(P.codes, S.codes)


def exact_inputs(matrices, slacks):
    """A fixed-seed sample of the inputs, each divided by 3 and shifted by 2**70."""
    rng = random.Random(20240605)
    out = []
    for S in rng.sample(matrices, 120) + rng.sample(slacks, 30):
        rows = [list(r) for r in S.rows]
        out.append(Matrix([[Fraction(x, 3) for x in r] for r in rows]))
        out.append(Matrix([[x + 2**70 for x in r] for r in rows]))
    return out


def exact_digest(inputs):
    """(SHA-256 over the four recognizers' answers on the inputs, their number,
    failed re-expansions, round-trip differences)."""
    h = hashlib.sha256()
    failures = mismatches = 0
    for S in inputs:
        S, differs = round_trip(S)
        mismatches += differs
        cert1 = recognize_one_product(S)
        fac = factorize_irreducible(S)
        cert2 = recognize_two_product(S)
        failures += failed_reexpansions(S, cert1, fac, cert2)
        try:
            rec = recognize_2level_matroid_slack(S)
        except MatroidInputError as exc:
            rec = ("input error", str(exc))
        else:
            failures += rec is not None and not _reexpands(S, rec.expr, rec.bases)
        h.update(repr(canon((S, cert1, fac, cert2, rec))).encode())
    return h.hexdigest(), len(inputs), failures, mismatches


def main():
    h = hashlib.sha256()
    parts = {name: hashlib.sha256() for name in PARTS}
    count = failures = mismatches = 0
    matrices, slacks = matrix_inputs(), slack_inputs()
    for S in matrices:
        S, differs = round_trip(S)
        mismatches += differs
        cert1 = recognize_one_product(S)
        fac = factorize_irreducible(S)
        cert2 = recognize_two_product(S)
        failures += failed_reexpansions(S, cert1, fac, cert2)
        h.update(repr(canon((S, cert1, fac, cert2))).encode())
        for name, answer in zip(PARTS, (cert1, fac, cert2)):
            parts[name].update(repr(canon((S, answer))).encode())
        count += 1
    for S in slacks:
        S, differs = round_trip(S)
        mismatches += differs
        try:
            rec = recognize_2level_matroid_slack(S)
        except MatroidInputError as exc:
            rec = ("input error", str(exc))
        else:
            failures += rec is not None and not _reexpands(S, rec.expr, rec.bases)
        h.update(repr(canon((S, rec))).encode())
        parts["matroid"].update(repr(canon((S, rec))).encode())
        count += 1
    for name in PARTS:
        print(f"{parts[name].hexdigest()}  {name}")
    print(f"{h.hexdigest()}  {count} inputs")
    built = build_answers()
    print("{}  build, {} expressions".format(*build_digest(built)))
    print("{}  bases, {} expressions".format(*bases_digest([e for e, _ in built])))
    exact, exact_count, exact_failures, exact_mismatches = exact_digest(exact_inputs(matrices, slacks))
    failures += exact_failures
    mismatches += exact_mismatches
    print(f"{exact}  exact, {exact_count} inputs")
    print("{}  parse, {} texts".format(*parse_digest()))
    print("{}  product, {} products".format(*product_digest()))
    print("{}  cli-matroid, {} slacks".format(*cli_matroid_digest(slacks)))
    print("{}  minimizer, {} inputs".format(*minimizer_digest(matrices[:700])))
    print("{}  near-miss, {} inputs".format(*near_miss_digest(near_miss_inputs())))
    print(f"{failures} answers fail re-expansion")
    print(f"{mismatches} inputs differ after write_matrix and parse_matrix")
    return 1 if failures or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
