"""Run perfbench on a base commit and on the working tree in alternating pairs.

    python3 tools/bench_pairs.py --base HEAD --workload matroid-slack \
        --seeds 1201-1210 --seconds 20 --out BENCH.json

The base commit is unpacked with `git archive` into a temporary directory;
the working tree is this checkout as it stands, uncommitted edits included.
For each workload and seed, one pair of `perfbench/run.py` runs is made,
base first on even pair indices and working tree first on odd ones, so a
slow phase of a shared machine does not always hit the same side.  The
output JSON holds every run's last stdout line (the perfbench verdict and
metrics), the `env` line of the first run of each side, the seeds, and per
workload, side and metric the median and the interquartile range, plus the
number of pairs in which the working tree did better.  Several `--workload`
options run one after the other.  A run that exits non-zero, prints nothing
on stdout, or whose last line says `correct: false` or `failed > 0` stops the
script with exit code 1, naming the workload, seed and side, and no report
is written: a wrong answer is never a median.  The script ends by printing
on stderr, from the summary it wrote, one line per workload and end-to-end
metric: each side's median and interquartile range (IQR) and the pairs the
working tree won.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, where: str) -> tuple:
    """(env dict, last JSON line) of one perfbench run in `checkout`; exits
    with code 1, naming `where`, if the run exits non-zero or prints nothing."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    out = run.stdout.splitlines()
    if run.returncode or not out:
        last = (run.stderr.strip().splitlines() or [""])[-1]
        raise SystemExit(f"{where}: exit code {run.returncode}, {len(out)} stdout lines, stderr {last!r}; no report written")
    env = next((json.loads(ln[4:]) for ln in out if ln.startswith("env ")), {})
    return env, json.loads(out[-1])


def check_verdict(last: dict, where: str) -> None:
    """Exit with code 1, naming `where`, unless the run was correct and no operation failed."""
    if last.get("correct") is not True or last.get("failed", 1) != 0:
        raise SystemExit(f"{where}: correct {last.get('correct')}, failed {last.get('failed')}; no report written")


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, better: dict) -> dict:
    summary = {}
    for name, direction in better.items():
        side = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in ("base", "change")}
        wins = sum((c > b) if direction == "higher" else (c < b) for b, c in zip(side["base"], side["change"]))
        summary[name] = {"base": quartiles(side["base"]), "change": quartiles(side["change"]), "change_better": wins}
    return summary


def summary_lines(workloads: dict) -> list:
    """One line per workload and metric of a report's `workloads`: both sides'
    median and IQR, and in how many of the pairs the change did better."""
    lines = []
    for workload, result in workloads.items():
        for name, s in result["summary"].items():
            b, c = s["base"], s["change"]
            lines.append(
                f"{workload} {name}: base {b['median']:.6g} (IQR {b['iqr']:.3g}), "
                f"change {c['median']:.6g} (IQR {c['iqr']:.3g}), "
                f"change better in {s['change_better']} of {len(result['runs'])} pairs"
            )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="for example 1201-1210 or 5,7,9")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    commit = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, capture_output=True, text=True, check=True)
    report = {
        "base": commit.stdout.strip(),
        "change": "working tree",
        "seconds": args.seconds,
        "seeds": seeds,
        "machine": {"platform": platform.platform(), "python": platform.python_version()},
        "env": {},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        sides = {"base": base, "change": ROOT}
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for s in order:
                    where = f"{workload} seed {seed} {s}"
                    env, pair[s] = run_once(sides[s], workload, seed, args.seconds, where)
                    check_verdict(pair[s], where)
                    report["env"].setdefault(s, env)
                pairs.append(pair)
                print(workload, seed, {s: round(pair[s]["metrics"]["ops_per_s"]["value"], 1) for s in sides},
                      file=sys.stderr, flush=True)
            report["workloads"][workload] = {"runs": pairs, "summary": summarize(pairs, better)}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(summary_lines(report["workloads"])), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
