"""Compare a base commit and the working tree in one process, input by input.

    python3 tools/ab.py --base HEAD --workload gen-expr --seed 3 --rounds 5 --out AB.json

The base commit is unpacked with `git archive`, and its `src/prodmat` is
imported under the package name `prodmat_base`, beside the working tree's
`prodmat`; this works because every import inside the package is relative.
The inputs are one perfbench pool (`perfbench/workloads.build_pool`), built
once.  A CLI workload runs each input through each side's `cli.main` with
stdout captured; small-classify rebuilds each matrix with each side's `Matrix`.

Before any timing, each side answers every input once.  The first input on
which the answers differ stops the tool with exit code 1, naming the input,
and no report is written.  Then each round runs every input 3 times on
each side, alternating which side goes first per input and per
round, and keeps each side's best time per input.  A round's score is the
geometric mean over the inputs of the change/base time ratios: below 1 the
working tree is faster.  The JSON report holds, per workload, each round's
score and both sides' ms per operation, the spread of the scores across
rounds, and each input's median ratio over the rounds; a summary line per
workload goes to stderr.

The tool does not measure process start, `setup_s` or `peak_rss_mb`, and the
two sides share one process's allocator and caches.  It backs a speed claim
beside the perfbench pair runs of `tools/bench_pairs.py`, not instead of them.
"""

from __future__ import annotations

import os

# One core, as in perfbench/run.py: pin numeric libraries before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

REPEATS = 3  # runs per input, side and round; the best one counts


def load_package(name: str, src: Path):
    """The prodmat package in the directory `src`, imported as `name`, with
    its `cli` and `products` modules loaded."""
    pkg = Path(src) / "prodmat"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("cli", "products"):
        importlib.import_module(f"{name}.{sub}")
    return module


def _use(side) -> None:
    """Point the workloads' operations at `side`'s cli and products modules."""
    workloads.cli, workloads.products = side.cli, side.products


def _pool(workload, side, cases: list) -> list:
    """The inputs as `side` runs them: small-classify's matrices rebuilt with its Matrix."""
    if workload.cli:
        return cases
    return [dataclasses.replace(c, matrix=side.Matrix(c.matrix.array.tolist())) for c in cases]


def _geomean(ratios: list) -> float:
    return math.exp(statistics.fmean(map(math.log, ratios)))


def compare(workload, sides: dict, cases: list, rounds: int, repeats: int) -> dict:
    """The report of one workload on `cases` for sides {"base": package, "change": package};
    SystemExit naming the first input on which the sides' answers differ."""
    names = ("base", "change")
    pools = {s: _pool(workload, sides[s], cases) for s in names}
    restore = workloads.cli, workloads.products
    try:
        for i, case in enumerate(cases):
            answers = {}
            for s in names:
                _use(sides[s])
                answers[s] = workload.run(pools[s][i])
            if answers["base"] != answers["change"]:
                first = case.text.splitlines()[0][:60]
                raise SystemExit(
                    f"{workload.name} input {i} ({first!r}): base answered {str(answers['base'])[:200]!r}, "
                    f"change {str(answers['change'])[:200]!r}; no report written"
                )
        timed = []
        for r in range(rounds):
            best = {s: [math.inf] * len(cases) for s in names}
            for i in range(len(cases)):
                order = names if (i + r) % 2 == 0 else names[::-1]
                for _ in range(repeats):
                    for s in order:
                        _use(sides[s])
                        t0 = time.perf_counter()
                        workload.run(pools[s][i])
                        best[s][i] = min(best[s][i], time.perf_counter() - t0)
            timed.append(best)
    finally:
        workloads.cli, workloads.products = restore
    ratios = [[c / b for b, c in zip(best["base"], best["change"])] for best in timed]
    scores = [_geomean(r) for r in ratios]
    return {
        "inputs": len(cases),
        "rounds": [
            {
                "ratio": score,
                **{f"{s}_ms_per_op": 1e3 * math.fsum(best[s]) / len(cases) for s in names},
            }
            for score, best in zip(scores, timed)
        ],
        "ratio": {"median": statistics.median(scores), "min": min(scores), "max": max(scores)},
        "per_input": [round(statistics.median(r), 4) for r in zip(*ratios)],
    }


def summary_line(name: str, result: dict) -> str:
    r, rounds = result["ratio"], result["rounds"]
    ms = {s: statistics.median(x[f"{s}_ms_per_op"] for x in rounds) for s in ("base", "change")}
    return (
        f"{name}: change/base {r['median']:.4f} (rounds {r['min']:.4f}..{r['max']:.4f}), "
        f"base {ms['base']:.4f} ms/op, change {ms['change']:.4f} ms/op over {result['inputs']} inputs"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    ap.add_argument("--workload", action="append", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=3, help="perfbench pool seed (default 3)")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    commit = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, capture_output=True, text=True, check=True)
    report = {
        "base": commit.stdout.strip(),
        "change": "working tree",
        "seed": args.seed,
        "rounds": args.rounds,
        "repeats": REPEATS,
        "machine": {"platform": platform.platform(), "python": platform.python_version(), "nproc": os.cpu_count()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True, check=True)
        base = Path(tmp) / "base"
        base.mkdir()
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        sides = {"base": load_package("prodmat_base", base / "src"), "change": importlib.import_module("prodmat")}
        for name in args.workload:
            workload = workloads.WORKLOADS[name]
            workdir = Path(tmp) / name
            workdir.mkdir()
            cases, _ = workloads.build_pool(workload, args.seed, str(workdir))
            result = compare(workload, sides, cases, args.rounds, REPEATS)
            report["workloads"][name] = result
            print(summary_line(name, result), file=sys.stderr, flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
