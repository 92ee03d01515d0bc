"""prodmat benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a prodmat checkout; the program is imported from its
``src/`` directory.  The run builds the workload's inputs from the seed,
warms up, then runs operations back to back for the given seconds, each
starting only after the previous one returned.  Answers are checked exactly
after the timed loop.  Every metric is printed by name and unit, and the
last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The loop cycles through the pool, so each input runs several times.  Every
0.1 s it also times a fixed reference snippet of interpreter and numpy work
that does not touch prodmat.  Each operation's latency is scaled to the
machine speed at which the snippet takes `REF_NOMINAL_S`, using the median
of the seven snippet timings around it; the latency of an input is the best
of its scaled runs, and the latency metrics are taken over inputs.  Both
steps answer the noise of a shared machine, which only ever adds time and
comes in phases of seconds to minutes: on the 2-core development box a
pure-Python loop swung between 53 and 89 iterations per second within one
minute, and prodmat operations slowed by up to 1.9x, tracking the snippet
with correlation 0.92.  The plain operations per second of the loop are
printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with span tracing installed, and reports the
per-layer metrics, each per operation, plus the tracing overhead.
"""

import os

# One core per workload: pin numeric libraries before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3  # setup_s is the median over this many builds of the inputs
P90_TAIL = 10  # samples that must lie beyond the 90th percentile
REF_EVERY_S = 0.1  # how often the loop times the reference snippet
REF_NOMINAL_S = 0.00135  # the snippet's best time on the development box (Xeon, 2.1 GHz)


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next(ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def reference_snippet() -> None:
    """Fixed interpreter and numpy work, about 1.4 ms, that times the machine."""
    import numpy as np

    acc = {}
    for i in range(4000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i * i % 7
    keys = np.arange(4000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for _ in range(8):
        np.unique(keys % np.uint64(61), return_counts=True)


def closed_loop(workload, cases, seconds, tracer=None) -> dict:
    """Run operations back to back, cycling through `cases`, until `seconds` have passed.

    Returns the latencies of each input, the times of the reference snippet,
    the operation count, the wall time, and the distinct answers per input
    with their counts; an operation that raised is recorded as its exception.
    """
    latencies = [[] for _ in cases]
    answers = [Counter() for _ in cases]
    refs = []  # (start, duration) of each reference timing
    t_begin = time.perf_counter()
    deadline, next_ref = t_begin + seconds, t_begin
    i = 0
    while True:
        idx = tracer.begin_op(i) if tracer else None
        t0 = time.perf_counter()
        try:
            answer = workload.run(cases[i % len(cases)])
        except Exception as exc:  # a raising operation is a failed one
            answer = ("raised", repr(exc))
        t1 = time.perf_counter()
        if tracer:
            tracer.close(idx)
        latencies[i % len(cases)].append((t0, t1 - t0))
        answers[i % len(cases)][answer] += 1
        i += 1
        if t1 >= next_ref:
            r0 = time.perf_counter()
            reference_snippet()
            refs.append((r0, time.perf_counter() - r0))
            next_ref = r0 + REF_EVERY_S
        if t1 >= deadline or (tracer and tracer.full()):
            break
    wall = time.perf_counter() - t_begin - sum(d for _, d in refs)
    return {"latencies": latencies, "refs": refs, "ops": i, "wall": wall, "answers": answers}


def speed_scales(loop) -> list:
    """Per reference timing: nominal snippet time / median of the seven timings around it."""
    durations = [d for _, d in loop["refs"]]
    return [REF_NOMINAL_S / statistics.median(durations[max(0, j - 3) : j + 4]) for j in range(len(durations))]


def best_latencies(loop) -> list:
    """Per input that ran: the best of its runs, each scaled by the reference timing after it."""
    starts = [t for t, _ in loop["refs"]]
    scales = speed_scales(loop)

    def scale_at(t):
        return scales[min(bisect.bisect_left(starts, t), len(scales) - 1)]

    return [min(d * scale_at(t) for t, d in runs) for runs in loop["latencies"] if runs]


def check_answers(workload, cases, answers) -> Counter:
    """Outcome counts ("ok", "unverified", failure reasons) over all operations."""
    outcomes = Counter()
    for case, seen in zip(cases, answers):
        for answer, count in seen.items():
            if answer[0] == "raised":
                outcome = f"raised {answer[1]}"
            else:
                try:
                    outcome = workload.check(case, answer)
                except Exception as exc:  # a malformed answer fails; the run goes on
                    outcome = f"malformed answer, the check raised {exc!r}"
            outcomes[outcome] += count
    return outcomes


def end_to_end(loop, setup_s) -> dict:
    best = best_latencies(loop)
    setup_s *= speed_scales(loop)[0]  # the machine speed when the loop began
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(best) / sum(best), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(best), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(best, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, ops: int, overhead_ms: float) -> dict:
    """Per-operation counts and times by layer, plus the ratios built from them."""
    stats = tracer.layer_stats()
    counts = tracer.counts
    out = {}

    def per_op(name, value, unit):
        out[name] = (value / ops, unit)

    def layer(prefix, fields):
        got = stats.get(prefix, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for f in fields:
            if f in got:
                per_op(f"{prefix}.{f}", got[f], "s/op" if f.endswith("_s") else "count/op")
            else:
                per_op(f"{prefix}.{f}", counts[f"{prefix}.{f}"], "count/op")

    def ratio(name, num, den):
        out[name] = (num / den if den else 0.0, "ratio")

    layer("queyranne.minimize_symmetric_with_candidates", ("calls", "self_s"))
    per_op("queyranne.oracle_calls", counts["queyranne.oracle_calls"], "count/op")
    ratio("queyranne.oracle_calls_per_m3", counts["queyranne.oracle_calls"], counts["queyranne.sum_m3"])
    layer("info.InfoFunction", ("calls", "self_s"))
    layer("info.is_independent_exact", ("calls", "self_s", "true"))
    exact = stats.get("info.is_independent_exact", {"calls": 0})["calls"]
    ratio("info.is_independent_exact.hit_ratio", counts["info.is_independent_exact.true"], exact)
    layer("matrix.parse_matrix", ("calls", "self_s"))
    layer("matrix.Matrix", ("calls", "self_s"))
    layer("matrix.write_matrix", ("calls", "self_s"))
    layer("products.recognize_one_product", ("calls", "total_s", "self_s", "hits"))
    layer("products.recognize_two_product", ("calls", "total_s", "self_s", "hits"))
    layer("products.factorize_irreducible", ("calls", "total_s"))
    for name in ("reconstruct_factors", "one_product", "multiplicity_table", "two_product"):
        layer(f"products.{name}", ("calls", "self_s"))
    layer("products.iter_two_product_certs_exact", ("yields", "self_s"))
    per_op("matroids.certs_tried", counts["matroids.certs_tried"], "count/op")
    per_op("matroids.cert_backtracks", counts["matroids.cert_backtracks"], "count/op")
    ratio("matroids.cert_backtrack_ratio", counts["matroids.cert_backtracks"], counts["matroids.certs_tried"])
    layer("matroids.recognize_2level_matroid_slack", ("calls", "total_s", "self_s"))
    layer("matroids.recognize_hypersimplex", ("calls", "self_s", "hits"))
    layer("matroids.row_provenance", ("calls", "self_s"))
    layer("matroids.expr_to_slack_with_bases", ("calls", "total_s", "self_s"))
    layer("polytopes.normalize_nonredundant_with_maps", ("calls", "self_s"))
    layer("cli.main", ("calls", "total_s", "self_s"))
    per_op("trace.spans", len(tracer.start), "count/op")
    out["trace.overhead_ms"] = (overhead_ms, "ms/op")
    return out


def tracing_overhead_ms(untraced, traced) -> float:
    """Mean traced minus mean untraced best latency over the inputs both loops ran."""
    pairs = list(zip(best_latencies(untraced), best_latencies(traced)))
    return 1000 * sum(t - u for u, t in pairs) / len(pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "prodmat", "__init__.py")):
        print(f"perfbench: no prodmat sources in {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import prodmat

    if os.path.dirname(os.path.abspath(prodmat.__file__)) != os.path.join(SRC, "prodmat"):
        print(f"perfbench: imported prodmat from {prodmat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    t_import = time.perf_counter() - PROCESS_T0

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cases, digest = workloads.build_pool(workload, args.seed, workdir)
            builds.append((time.perf_counter() - t0, digest))
        if len({d for _, d in builds}) != 1:
            print("perfbench: one seed built different inputs", file=sys.stderr)
            return 3
        t0 = time.perf_counter()
        workload.run(cases[0])
        t_warm = time.perf_counter() - t0
        t_build = statistics.median(t for t, _ in builds)
        setup_s = t_import + t_build + t_warm

        if args.trace:
            untraced = closed_loop(workload, cases, args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                loop = closed_loop(workload, cases, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            runs = [untraced, loop]
        else:
            loop = closed_loop(workload, cases, args.seconds)
            runs = [loop]
        outcomes = Counter()
        for r in runs:
            outcomes += check_answers(workload, cases, r["answers"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = sum(outcomes.values())
    failed = attempted - outcomes["ok"] - outcomes["unverified"]
    ops = loop["ops"]
    inputs = len(best_latencies(loop))
    if args.trace:
        overhead = tracing_overhead_ms(untraced, loop)
        metrics = per_layer(tracer, ops, overhead)
    else:
        metrics = end_to_end(loop, setup_s)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"inputs {len(cases)} distinct, sha256 {builds[0][1]}")
    print(
        f"setup: import {t_import:.4f} s, median of {SETUP_REPEATS} input builds {t_build:.4f} s, "
        f"warm-up {t_warm:.4f} s"
    )
    visits = [len(v) for v in loop["latencies"] if v]
    print(
        f"closed loop, 1 client: {ops} operations in {loop['wall']:.3f} s ({ops / loop['wall']:.4g} ops/s), "
        f"{inputs} inputs run {min(visits)} to {max(visits)} times each"
    )
    scales = speed_scales(loop)
    print(
        f"machine speed: {len(scales)} reference timings, median {1000 * statistics.median(d for _, d in loop['refs']):.4f} ms "
        f"against nominal {1000 * REF_NOMINAL_S:.4f} ms; times scaled by {min(scales):.4f} to {max(scales):.4f}"
    )
    for name, (value, unit) in metrics.items():
        note = ""
        if name in ("op_p50_ms", "op_p90_ms"):
            note += f"  (best of each input's scaled runs, n={inputs})"
        if name == "op_p90_ms" and inputs - int(0.9 * inputs) < P90_TAIL:
            note += f"  (fewer than {P90_TAIL} samples beyond it, not valid)"
        print(f"{name:48s} {value:14.6g} {unit}{note}")
    print(f"{'fail_ratio':48s} {failed / attempted:14.6g} fraction  ({failed} of {attempted})")
    print(f"{'unverified':48s} {outcomes['unverified']:14d} count  (answers no exact check can confirm)")
    for outcome, count in sorted(outcomes.items()):
        if outcome not in ("ok", "unverified"):
            print(f"FAILED x{count}: {outcome}")
    if args.trace and tracer.absent:
        print("absent (reported as 0): " + ", ".join(sorted(tracer.absent)))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
