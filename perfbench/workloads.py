"""Seeded inputs, operations and exact answer checks for the benchmark workloads.

A workload turns a seed into a pool of inputs built with prodmat's own
constructors, runs one operation per input through a public entry point
(``prodmat.cli.main`` with stdout captured, or a library recognizer), and
checks every answer exactly after the timed loop.  The generators mirror the
shapes of the test-suite helpers but live here, so editing a test cannot
change a workload.

What drives an operation's cost -- matrix shapes, and for the matroid
workloads the matroids themselves -- is drawn from a constant per-workload
seed; the run seed draws everything else: entries, row and column shuffles,
near-miss flips, and the presentation of each expression.  Runs with
different seeds therefore get different inputs but do comparable work, and a
run that stops part-way through its pool has still seen every size class.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from math import comb, prod
from typing import Callable, List, Optional

import numpy as np

from prodmat import (
    CoherenceError,
    Leaf,
    Matrix,
    OneSum,
    TwoSum,
    bf_one_product,
    bf_two_product,
    expr_to_bases,
    expr_to_slack,
    expr_to_text,
    is_isomorphic,
    one_product,
    parse_expr,
    seeded_shuffle,
    two_product,
    write_matrix,
)
from prodmat import cli, products

# CLI exit codes: recognized, not recognized, input error.
OK, NO, ERR = 0, 1, 2


@dataclass
class Case:
    """One input of a workload pool."""

    text: str  # the bytes the program reads (matrix or expression text)
    label: str  # "yes", "near" (near-miss) or "mixed"
    matrix: Optional[Matrix] = None
    path: Optional[str] = None


@dataclass
class Workload:
    name: str
    make: Callable[[random.Random, random.Random], List[Case]]  # (run rng, shape rng) -> pool
    run: Callable[[Case], object]  # one operation
    check: Callable[[Case, object], str]  # "ok", "unverified" or a failure reason; may raise on a malformed answer
    cli: bool  # inputs are files read by the CLI


def _rng(name: str, seed) -> random.Random:
    # str seeds hash through sha512, so pools do not depend on PYTHONHASHSEED
    return random.Random(f"perfbench:{name}:{seed}")


def _random_rows(rng, m, n, hi):
    return [[rng.randint(0, hi) for _ in range(n)] for _ in range(m)]


def _shuffled(rng, M: Matrix) -> Matrix:
    return seeded_shuffle(M, rng.getrandbits(64))[0]


def _int_rows(M: Matrix) -> list:
    return [[int(x) for x in row] for row in M.rows]


def _columns(rows) -> Counter:
    return Counter(zip(*rows))


def run_cli(argv) -> tuple:
    """prodmat.cli.main in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--quiet"] + list(argv))
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# The benchmark's own exact tests, independent of the recognizers.
# ---------------------------------------------------------------------------


def dependence_connected(rows) -> bool:
    """True iff the pairwise-dependence graph of the rows is connected.

    Rows i and k are dependent when some value pair (a, b) has
    n * count(a, b) != count_i(a) * count_k(b), checked in integers.  A
    1-product bipartition (X, Xc) makes every row of X independent of every
    row of Xc, so a connected graph proves that no bipartition factors.
    """
    codes = [np.unique(np.asarray(r, dtype=np.int64), return_inverse=True)[1] for r in rows]
    m, n = len(codes), len(codes[0])
    comp = list(range(m))

    def find(a):
        while comp[a] != a:
            comp[a] = comp[comp[a]]
            a = comp[a]
        return a

    for i in range(m):
        ki = int(codes[i].max()) + 1
        for k in range(i + 1, m):
            kk = int(codes[k].max()) + 1
            joint = np.bincount(codes[i] * kk + codes[k], minlength=ki * kk).reshape(ki, kk)
            if not (n * joint == np.outer(joint.sum(axis=1), joint.sum(axis=0))).all():
                comp[find(k)] = find(i)
    return len({find(i) for i in range(m)}) == 1


def screen_matroid_input(rows) -> Optional[str]:
    """The matroid recognizer's preconditions; None when the input meets them."""
    if any(x not in (0, 1) for row in rows for x in row):
        return "entries must be 0/1"
    if any(len(set(row)) == 1 for row in rows):
        return "constant row"
    if len({tuple(r) for r in rows}) != len(rows):
        return "duplicate rows"
    if len(_columns(rows)) != len(rows[0]):
        return "duplicate columns"
    return None


def _parse_matrix_text(text: str) -> list:
    """Integer rows of the standard matrix text format; ValueError if malformed."""
    lines = text.split("\n")
    m, n = (int(t) for t in lines[0].split())
    rows = [[int(t) for t in ln.split()] for ln in lines[1 : m + 1]]
    if lines[m + 1 :] != [""] or any(len(r) != n for r in rows):
        raise ValueError("shape does not match the header")
    return rows


# ---------------------------------------------------------------------------
# wide-1p: CLI `recognize 1p` on shuffled 1-products and near-misses.
# ---------------------------------------------------------------------------

# Factor shapes (rows, columns) per cycle position; the product has the summed
# rows and the multiplied columns.
WIDE_SHAPES = (
    ((5, 8), (6, 12)),
    ((4, 5), (4, 5), (4, 6)),
    ((8, 10), (6, 12)),
    ((6, 16), (4, 8)),
    ((3, 4), (5, 6), (5, 5)),
    ((8, 12), (6, 10)),
)
WIDE_VALUES = 4  # entries 0..4
WIDE_ROUNDS = 20  # the pool cycles through every shape this many times


def _nonconstant_rows(rng, m, n):
    rows = []
    while len(rows) < m:
        row = [rng.randint(0, WIDE_VALUES) for _ in range(n)]
        if len(set(row)) > 1:
            rows.append(row)
    return Matrix(rows)


def make_wide(rng, shape) -> List[Case]:
    cases = []
    for i in range(WIDE_ROUNDS * len(WIDE_SHAPES)):
        shapes = WIDE_SHAPES[i % len(WIDE_SHAPES)]
        P = _nonconstant_rows(rng, *shapes[0])
        for m, n in shapes[1:]:
            P = one_product(P, _nonconstant_rows(rng, m, n))
        P = _shuffled(rng, P)
        label = "yes"
        if (i // len(WIDE_SHAPES)) % 2:
            P, label = _near_miss_wide(rng, P), "near"
        cases.append(Case(write_matrix(P), label, P))
    return cases


def _near_miss_wide(rng, P: Matrix) -> Matrix:
    """Change one entry so that the dependence graph becomes connected.

    The changed row nearly always turns dependent on every row that is not
    constant, and the factors have no constant rows, so few tries are needed.
    """
    while True:
        rows = [list(r) for r in P.rows]
        i, j = rng.randrange(P.m), rng.randrange(P.n)
        rows[i][j] = (rows[i][j] + rng.randint(1, WIDE_VALUES)) % (WIDE_VALUES + 1)
        if dependence_connected(rows):
            return Matrix(rows)


def run_wide(case: Case):
    return run_cli(["recognize", "1p", case.path])


def check_wide(case: Case, answer) -> str:
    code, out = answer
    if code not in (OK, NO):
        return f"exit {code}"
    rows = _int_rows(case.matrix)
    payload = json.loads(out)
    if code == NO:
        if payload != {"recognized": False}:
            return "exit 1 with a positive payload"
        return "ok" if dependence_connected(rows) else "'no' on an input with a disconnected dependence graph"
    if payload.get("recognized") is not True or payload.get("kind") != "1p":
        return f"exit 0 with payload {out.strip()[:80]}"
    X, Xc = payload["rowPartition"]
    F1, F2 = payload["factors"]
    if sorted(X + Xc) != list(range(len(rows))) or not X or not Xc:
        return "rowPartition is not a bipartition of the rows"
    if len(F1) != len(X) or len(F2) != len(Xc):
        return "factor row counts do not match rowPartition"
    expanded = Counter(a + b for a in zip(*F1) for b in zip(*F2))
    if expanded != _columns([rows[i] for i in X + Xc]):
        return "one_product(S1, S2) does not expand to the input"
    return "ok"


# ---------------------------------------------------------------------------
# small-classify: library 1p then 2p recognition on many tiny matrices.
# ---------------------------------------------------------------------------

SMALL_POOL = 480
SMALL_VALUES = 2  # entries 0..2


def _special_factor(rng, m, n, ones):
    """m x n matrix, entries 0..2, whose last row is 0/1 with `ones` ones."""
    rows = _random_rows(rng, m - 1, n, SMALL_VALUES)
    special = [1] * ones + [0] * (n - ones)
    rng.shuffle(special)
    return Matrix(rows + [special])


def make_small(rng, shape) -> List[Case]:
    cases = []
    for i in range(SMALL_POOL):
        kind = i % 3
        if kind == 0:  # random, mostly irreducible
            # Which rows are 0/1 is a shape: each candidate special row costs
            # the 2-product search one minimization.
            his = [shape.choice((1, SMALL_VALUES, SMALL_VALUES)) for _ in range(shape.randint(2, 10))]
            n = shape.randint(2, 16)
            S = Matrix([_random_rows(rng, 1, n, hi)[0] for hi in his])
        elif kind == 1:  # 1-product
            m1, m2, n1 = shape.randint(1, 5), shape.randint(1, 5), shape.randint(1, 4)
            n2 = shape.randint(1, 16 // n1)
            S = one_product(
                Matrix(_random_rows(rng, m1, n1, SMALL_VALUES)),
                Matrix(_random_rows(rng, m2, n2, SMALL_VALUES)),
            )
        else:  # 2-product
            m1, m2, n1, n2 = shape.randint(2, 5), shape.randint(2, 5), shape.randint(2, 4), shape.randint(2, 4)
            S = two_product(
                _special_factor(rng, m1, n1, shape.randint(1, n1 - 1)), m1 - 1,
                _special_factor(rng, m2, n2, shape.randint(1, n2 - 1)), m2 - 1,
            )
        S = _shuffled(rng, S)
        cases.append(Case(write_matrix(S), "mixed", S))
    return cases


def run_small(case: Case):
    S = case.matrix
    return (
        products.recognize_one_product(S) is not None,
        products.recognize_two_product(S) is not None,
    )


def check_small(case: Case, answer) -> str:
    expected = (bf_one_product(case.matrix).verdict, bf_two_product(case.matrix).verdict)
    if tuple(answer) != expected:
        return f"verdicts (1p, 2p) {tuple(answer)} differ from brute force {expected}"
    return "ok"


# ---------------------------------------------------------------------------
# Random expressions over uniform leaves (shared by matroid-slack and gen-expr).
# ---------------------------------------------------------------------------


def _size(e) -> int:
    if isinstance(e, Leaf):
        return e.d
    if isinstance(e, OneSum):
        return sum(_size(p) for p in e.parts)
    return _size(e.left) + _size(e.right) - 2


def random_expr(rng, leaves: int, dmax: int, coherent: bool, glued: bool = False):
    """A random 1-sum/2-sum tree with exactly `leaves` uniform leaves.

    With `coherent`, every leaf under a 2-sum is U(2,1) or a hypersimplex
    U(d,k) with 2 <= k <= d-2, whose slacks carry both an "x_e >= 0" and an
    "x_e <= 1" row for every element, so every glue finds its coherent rows
    without the slack being built to find out.
    """
    if leaves == 1:
        if coherent and glued:
            d = rng.choice([2] + list(range(4, dmax + 1)))
            return Leaf(2, 1) if d == 2 else Leaf(d, rng.randint(2, d - 2))
        d = rng.randint(2, dmax)
        return Leaf(d, rng.randint(1, d - 1))
    if rng.random() < 0.45:
        t = rng.randint(2, min(3, leaves))
        cuts = sorted(rng.sample(range(1, leaves), t - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [leaves])]
        return OneSum(tuple(random_expr(rng, s, dmax, coherent, glued) for s in sizes))
    lb = rng.randint(1, leaves - 1)
    left = random_expr(rng, lb, dmax, coherent, True)
    right = random_expr(rng, leaves - lb, dmax, coherent, True)
    return TwoSum(left, right, rng.randrange(_size(left)), rng.randrange(_size(right)))


def _bases_bound(e) -> int:
    """Product of the leaves' base counts, an upper bound on the slack's columns."""
    if isinstance(e, Leaf):
        return comb(e.d, e.k)
    parts = e.parts if isinstance(e, OneSum) else (e.left, e.right)
    return prod(_bases_bound(p) for p in parts)


def expr_with_columns(rng, leaves: int, cols: tuple, dmax: int, coherent: bool):
    """A random expression whose slack has a column count in `cols`.

    The slack has one column per base, so the base count decides without
    building the slack.
    """
    while True:
        e = random_expr(rng, leaves, dmax, coherent)
        if _bases_bound(e) <= 16 * cols[1] and cols[0] <= len(expr_to_bases(e).bases) <= cols[1]:
            return e


# ---------------------------------------------------------------------------
# matroid-slack: CLI `recognize matroid` on shuffled slacks and near-misses.
# ---------------------------------------------------------------------------

# (leaves, column range) per expression; d <= 6 and at most 40 rows.  Columns
# stay at most 100: a near-miss on 300-600 columns backtracks for seconds,
# which would leave too few operations in a run for a 90th percentile.
MATROID_SHAPES = ((2, (10, 30)), (3, (20, 50)), (4, (20, 60)), (2, (30, 60)), (3, (40, 60)), (5, (20, 60)))
MATROID_DMAX, MATROID_MAX_ROWS = 6, 40
MATROID_EXPRS, MATROID_VARIANTS = 20, 6  # variants alternate shuffle and near-miss


def make_matroid(rng, shape) -> List[Case]:
    slacks = []
    while len(slacks) < MATROID_EXPRS:
        leaves, cols = MATROID_SHAPES[len(slacks) % len(MATROID_SHAPES)]
        try:
            S = expr_to_slack(expr_with_columns(shape, leaves, cols, MATROID_DMAX, coherent=False))
        except (CoherenceError, ValueError):
            continue
        if S.m <= MATROID_MAX_ROWS:
            slacks.append(S)
    cases = []
    for v in range(MATROID_VARIANTS):
        for S in slacks:
            S = _shuffled(rng, S)
            label = "yes"
            if v % 2:
                rows = [list(r) for r in S.rows]
                r, c = rng.randrange(S.m), rng.randrange(S.n)
                rows[r][c] = 1 - rows[r][c]
                S, label = Matrix(rows), "near"
            cases.append(Case(write_matrix(S), label, S))
    return cases


def run_matroid(case: Case):
    return run_cli(["recognize", "matroid", case.path])


def check_matroid(case: Case, answer) -> str:
    code, out = answer
    rows = _int_rows(case.matrix)
    if code == ERR:
        return "ok" if screen_matroid_input(rows) else "exit 2 on an input that meets the preconditions"
    if code not in (OK, NO):
        return f"exit {code}"
    payload = json.loads(out)
    if code == NO:
        if payload != {"recognized": False}:
            return "exit 1 with a positive payload"
        # a near-miss may or may not be a slack of another matroid; the
        # benchmark has no independent decision procedure for it
        return "unverified" if case.label == "near" else "'no' on a generated matroid slack"
    if payload.get("recognized") is not True:
        return f"exit 0 with payload {out.strip()[:80]}"
    expr = parse_expr(payload["expr"])
    if is_isomorphic(expr_to_slack(expr), case.matrix) is None:
        return "the slack of the returned expression is not isomorphic to the input"
    col_bases = {frozenset(b) for b in payload["colBases"]}
    if len(col_bases) != len(rows[0]) or col_bases != expr_to_bases(expr).bases:
        return "colBases are not the distinct bases of the returned expression"
    return "ok"


# ---------------------------------------------------------------------------
# gen-expr: CLI `gen expr` on random feasible expressions.
# ---------------------------------------------------------------------------

# (leaves, column range) per cycle position, weighted toward wide slacks.
GEN_SHAPES = ((3, (100, 200)), (4, (150, 300)), (2, (50, 150)), (5, (200, 350)), (3, (10, 100)), (4, (100, 250)))
GEN_DMAX = 6
GEN_ROUNDS = 17


def relabel_glues(rng, e):
    """The same matroid up to isomorphism, with a new glue element on every leaf
    operand of a 2-sum; a uniform leaf looks the same from each of its elements,
    so the slack is built with the same steps."""
    if isinstance(e, Leaf):
        return e
    if isinstance(e, OneSum):
        return OneSum(tuple(relabel_glues(rng, p) for p in e.parts))
    left, right = relabel_glues(rng, e.left), relabel_glues(rng, e.right)
    gl = rng.randrange(left.d) if isinstance(left, Leaf) else e.glue_left
    gr = rng.randrange(right.d) if isinstance(right, Leaf) else e.glue_right
    return TwoSum(left, right, gl, gr)


def make_gen(rng, shape) -> List[Case]:
    cases = []
    for i in range(GEN_ROUNDS * len(GEN_SHAPES)):
        e = expr_with_columns(shape, *GEN_SHAPES[i % len(GEN_SHAPES)], GEN_DMAX, coherent=True)
        cases.append(Case(expr_to_text(relabel_glues(rng, e)) + "\n", "yes"))
    return cases


def run_gen(case: Case):
    return run_cli(["gen", "expr", case.path])


def check_gen(case: Case, answer) -> str:
    code, out = answer
    if code != OK:
        return f"exit {code}"
    try:
        rows = _parse_matrix_text(out)
    except ValueError:
        return "output is not a matrix"
    reason = screen_matroid_input(rows)
    if reason:
        return f"output breaks the slack shape: {reason}"
    if len(rows[0]) != len(expr_to_bases(parse_expr(case.text)).bases):
        return "column count differs from the number of bases"
    return "ok"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-1p", make_wide, run_wide, check_wide, cli=True),
        Workload("small-classify", make_small, run_small, check_small, cli=False),
        Workload("matroid-slack", make_matroid, run_matroid, check_matroid, cli=True),
        Workload("gen-expr", make_gen, run_gen, check_gen, cli=True),
    )
}


def build_pool(workload: Workload, seed: int, workdir: str) -> tuple:
    """Make the pool for a seed, write the CLI input files; returns (cases, sha256)."""
    cases = workload.make(_rng(workload.name, seed), _rng(workload.name, "shapes"))
    digest = hashlib.sha256()
    for i, case in enumerate(cases):
        digest.update(case.text.encode("ascii") + b"\0")
        if workload.cli:
            case.path = os.path.join(workdir, f"{i:04d}.txt")
            with open(case.path, "w") as fh:
                fh.write(case.text)
    return cases, digest.hexdigest()
