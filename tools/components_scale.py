"""Time `InfoFunction.components()`, `atoms()` and the special-row screen on large seeded inputs.

    python3 tools/components_scale.py [--repeats 3]

The inputs are the ones perfbench does not reach:
  - the criterion-10 input of the acceptance tests: a shuffled 60x2000
    1-product of two random 30-row matrices with entries 0..4, one call
    without a given row;
  - shuffled slack matrices of chains of L U(4,2) leaves joined by 2-sums at
    random elements, L = 5 to 9 (32x486, 38x1458, 44x4374, 50x13122,
    56x39366), one call per row as the given row, as the matroid recursion
    makes them.

Each line of output is a JSON object with the case, its shape, D (the
number of reduced indicators: (row, value) pairs after each row's first
value), the number of calls, how many graphs each dependence path built
("gram" for `info._indicator_dependence`, "chunked" for
`info._chunked_dependence`; the graph without a given row is the kernel's
one-value case and counts as "gram", so criterion-10 reads {"gram": 1}),
the median over the repeats of their total time in seconds, and a SHA-256
prefix of the components, so two checkouts can be compared on the same
answers.  Every timed repeat
builds the matrix's pair counts anew, as a recursion node does once.  A chain's line also has a SHA-256
prefix of its candidate special rows, the rows r whose components given r
number two or more besides the row 1 - r.  After it, a "-screen" line times
`info._special_row_candidates`, which finds the same rows with their
components in one batched call over all rows, leaving out the row 1 - r as
the matroid recursion does, and prints its own prefix of them and
`kernel_rows`, the number of rows that reach the triple-count kernel.

Right after each case's line, an "-atoms" line times `InfoFunction.atoms()`
(the components plus the exact checks of the atom merge) and prints a
SHA-256 prefix of the atoms: without a given row for criterion-10, whose
two 30-row sides pack past 2**63, and given each of a chain's candidate
special rows.

BLAS runs on one thread, as in perfbench.  The script imports `prodmat`
from the `src/` directory next to its own `tools/` directory; to time
another commit, unpack it (`git archive <rev> | tar -x -C <dir>`), copy
this file into `<dir>/tools/` and run it there.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from prodmat import InfoFunction, Matrix, info, one_product, seeded_shuffle  # noqa: E402
from prodmat.matroids import Leaf, TwoSum, expr_to_slack  # noqa: E402


def criterion_10_input() -> Matrix:
    rng = random.Random(1010)
    A = Matrix([[rng.randint(0, 4) for _ in range(40)] for _ in range(30)])
    B = Matrix([[rng.randint(0, 4) for _ in range(50)] for _ in range(30)])
    return seeded_shuffle(one_product(A, B), 161803)[0]


def u42_chain_slack(leaves: int, rng: random.Random) -> Matrix:
    e = Leaf(4, 2)
    for _ in range(leaves - 1):
        e = TwoSum(e, Leaf(4, 2), rng.randrange(e.size), rng.randrange(4))
    return seeded_shuffle(expr_to_slack(e), rng.getrandbits(64))[0]


def sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def timed(call, repeats: int, S: Matrix):
    """(median seconds, last answer) of `repeats` calls on S.

    Each call builds S's pair counts anew, as each recursion node does once;
    a checkout older than them has no `_pairs` to drop."""
    times = []
    for _ in range(repeats):
        if hasattr(S, "_pairs"):
            S._pairs = None
        t0 = time.perf_counter()
        answer = call()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times), 4), answer


def split_rows(S: Matrix, answers: list) -> list:
    """Rows r whose components given r, as rows of S, number two or more
    besides the row 1 - r."""
    out = []
    for r, comps in enumerate(answers):
        ground = [i for i in range(S.m) if i != r]
        comp = tuple(1 - x for x in S.rows[r])
        if sum(any(S.rows[ground[i]] != comp for i in c) for c in comps) >= 2:
            out.append(r)
    return out


def path_counts(call):
    """(answer of call(), graphs built by each dependence path during it, given
    rows they took: a row of the last argument, or the one given row)."""
    counts = {"gram": 0, "chunked": 0}
    given = [0]
    names = {"gram": "_indicator_dependence", "chunked": "_chunked_dependence"}
    real = {key: getattr(info, name) for key, name in names.items()}

    def spy(key):
        def counted(*args):
            counts[key] += 1
            given[0] += len(args[-1]) if key == "gram" else 1
            return real[key](*args)
        return counted

    for key, name in names.items():
        setattr(info, name, spy(key))
    try:
        return call(), counts, given[0]
    finally:
        for key, name in names.items():
            setattr(info, name, real[key])


def time_case(name: str, S: Matrix, givens: list, repeats: int):
    """(output line, components per given row)."""
    S.codes  # built once per matrix, as in the recognizers, and not timed
    call = lambda: [InfoFunction(S, given=g).components() for g in givens]  # noqa: E731
    _, paths, _ = path_counts(call)
    median, answers = timed(call, repeats, S)
    D = int(S.codes.max(axis=1).sum())
    return {"case": name, "shape": [S.m, S.n], "D": D, "calls": len(givens), "paths": paths,
            "median_s": median, "components_sha256": sha(answers)}, answers


def time_atoms(name: str, S: Matrix, givens: list, repeats: int) -> dict:
    median, answers = timed(lambda: [InfoFunction(S, given=g).atoms() for g in givens], repeats, S)
    return {"case": f"{name}-atoms", "shape": [S.m, S.n], "calls": len(givens),
            "median_s": median, "atoms_sha256": sha(answers)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    S = criterion_10_input()
    print(json.dumps(time_case("criterion-10", S, [None], args.repeats)[0]), flush=True)
    print(json.dumps(time_atoms("criterion-10", S, [None], args.repeats)), flush=True)
    rng = random.Random(9)
    for leaves in range(5, 10):
        S = u42_chain_slack(leaves, rng)
        name = f"u42-chain-L{leaves}"
        line, answers = time_case(name, S, list(range(S.m)), args.repeats)
        rows = split_rows(S, answers)
        line["candidates_sha256"] = sha(rows)
        print(json.dumps(line), flush=True)
        print(json.dumps(time_atoms(name, S, rows, args.repeats)), flush=True)
        # the row 1 - r has the codes of r, and a slack matrix has distinct rows
        _, key = np.unique(S.codes, axis=0, return_inverse=True)
        twins = key.reshape(-1)[:, None] == key.reshape(-1)
        screen = lambda: list(info._special_row_candidates(S, twins))  # noqa: E731
        _, _, kernel_rows = path_counts(screen)
        median, found = timed(screen, args.repeats, S)
        print(json.dumps({"case": f"{name}-screen", "shape": [S.m, S.n], "calls": 1, "median_s": median,
                          "kernel_rows": kernel_rows, "candidates_sha256": sha([r for r, _ in found])}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
