"""Tests of the benchmark itself: metrics printed, answer checks, inputs, tracing.

Run from the repository root:  python -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from prodmat import cli, matroids, products  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

END_TO_END_PRINTED = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "fail_ratio", "peak_rss_mb")


def bench(workload, trace=0, seed=1, seconds=0.3):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().split("\n")
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    """Seed-1 pool of every workload, input files written."""
    got = {}
    for name, w in workloads.WORKLOADS.items():
        workdir = str(tmp_path_factory.mktemp(name))
        got[name] = workloads.build_pool(w, 1, workdir)[0]
    return got


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smallest_run_prints_every_end_to_end_metric(workload):
    lines, result = bench(workload)
    printed = {ln.split()[0]: ln.split()[2] for ln in lines if ln.split() and ln.split()[0] in END_TO_END_PRINTED}
    assert sorted(printed) == sorted(END_TO_END_PRINTED)
    assert printed["fail_ratio"] == "fraction"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_the_per_layer_metrics():
    _, gen = bench("gen-expr", trace=1)
    _, wide = bench("wide-1p", trace=1)
    names = sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert sorted(gen["metrics"]) == names and sorted(wide["metrics"]) == names
    assert gen["correct"] and wide["correct"]
    value = lambda res, name: res["metrics"][name]["value"]  # noqa: E731
    assert value(gen, "queyranne.oracle_calls") == 0
    assert value(gen, "matrix.write_matrix.calls") >= 1
    assert value(wide, "products.iter_two_product_certs_exact.yields") == 0
    assert value(wide, "queyranne.oracle_calls") > 0
    assert 0 < value(wide, "queyranne.oracle_calls_per_m3") <= 1
    assert value(wide, "cli.main.calls") == 1


def test_directory_without_the_program_fails_without_a_result(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in ("run.py", "workloads.py", "spans.py"):
        with open(os.path.join(HERE, name)) as src, open(tmp_path / "perfbench" / name, "w") as dst:
            dst.write(src.read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-1p", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0 and out.stdout == ""


def test_same_seed_same_bytes(tmp_path):
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
        "print(workloads.build_pool(workloads.WORKLOADS['small-classify'], int(sys.argv[3]), '')[1])"
    )

    def digest(seed, hashseed):
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
        return subprocess.run(
            [sys.executable, "-c", code, os.path.join(ROOT, "src"), HERE, str(seed)],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()

    assert digest(5, 0) == digest(5, 1) != digest(6, 0)
    for name, w in workloads.WORKLOADS.items():
        a = workloads.build_pool(w, 3, str(tmp_path))[1]
        assert a == workloads.build_pool(w, 3, str(tmp_path))[1], name


# -- each answer check accepts the real answer and rejects a corrupted one ------


def first(cases, label):
    return next(c for c in cases if c.label == label)


def test_wide_check(pools):
    w = workloads.WORKLOADS["wide-1p"]
    yes, near = first(pools["wide-1p"], "yes"), first(pools["wide-1p"], "near")
    code, out = w.run(yes)
    assert code == 0 and w.check(yes, (code, out)) == "ok"
    payload = json.loads(out)
    payload["factors"][0][0][0] += 1  # one factor entry changed
    assert w.check(yes, (code, json.dumps(payload))) != "ok"
    assert w.check(yes, (1, '{"recognized":false}')) != "ok"  # flipped verdict
    assert w.check(yes, (2, "")) != "ok"
    assert w.check(near, w.run(near)) == "ok"
    assert w.check(near, (0, out)) != "ok"
    outcomes = run.check_answers(w, [yes], [Counter({(0, "not json"): 2})])
    assert outcomes["ok"] == 0 and sum(outcomes.values()) == 2


def test_small_check(pools):
    w = workloads.WORKLOADS["small-classify"]
    for case in pools["small-classify"][:6]:
        answer = w.run(case)
        assert w.check(case, answer) == "ok"
        assert w.check(case, (not answer[0], answer[1])) != "ok"
        assert w.check(case, (answer[0], not answer[1])) != "ok"


def test_matroid_check(pools):
    w = workloads.WORKLOADS["matroid-slack"]
    yes, near = first(pools["matroid-slack"], "yes"), first(pools["matroid-slack"], "near")
    code, out = w.run(yes)
    assert code == 0 and w.check(yes, (code, out)) == "ok"
    payload = json.loads(out)
    bases = payload["colBases"]
    bases[0] = bases[1]  # two columns on one base
    assert w.check(yes, (code, json.dumps(payload))) != "ok"
    payload = json.loads(out)
    payload["expr"] = "(1sum " + payload["expr"] + " (u 2 1))"  # a different matroid
    assert w.check(yes, (code, json.dumps(payload))) != "ok"
    assert w.check(yes, (1, '{"recognized":false}')) != "ok"
    assert w.check(yes, (2, "")) != "ok"
    assert w.check(near, (1, '{"recognized":false}')) == "unverified"


def test_gen_check(pools):
    w = workloads.WORKLOADS["gen-expr"]
    case = pools["gen-expr"][0]
    code, out = w.run(case)
    assert code == 0 and w.check(case, (code, out)) == "ok"
    lines = out.split("\n")
    m, n = map(int, lines[0].split())
    dropped = [f"{m} {n - 1}"] + [" ".join(ln.split()[1:]) for ln in lines[1 : m + 1]] + [""]
    assert w.check(case, (code, "\n".join(dropped))) != "ok"
    duplicated = lines[: m + 1] + [lines[m]] + [""]
    duplicated[0] = f"{m + 1} {n}"
    assert w.check(case, (code, "\n".join(duplicated))) != "ok"
    assert w.check(case, (2, "")) != "ok"


def test_dependence_connected_is_exact():
    # rows 0,1 depend on each other and rows 2,3 likewise; the pairs are independent
    product = [[0, 0, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 1, 0]]
    assert not workloads.dependence_connected(product)
    product[0][0] = 1
    assert workloads.dependence_connected(product)


# -- span tracing ---------------------------------------------------------------


def test_tracer_binds_everywhere_and_restores():
    originals = (products.one_product, matroids.one_product, cli.one_product)
    assert originals[0] is originals[1] is originals[2]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert products.one_product is matroids.one_product is cli.one_product
        assert products.one_product is not originals[0]
        tracer.begin_op(0)
        workloads.run_cli(["gen", "hypersimplex", "4", "2"])
        tracer.close(0)
    finally:
        tracer.uninstall()
    assert (products.one_product, matroids.one_product, cli.one_product) == originals
    stats = tracer.layer_stats()
    assert stats["cli.main"]["calls"] == 1 and stats["matrix.write_matrix"]["calls"] == 1
    assert stats["matrix.Matrix"]["calls"] >= 1
    root = stats[spans.OP]
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(root["total_s"], rel=1e-9)


def test_tracer_times_generator_steps():
    S = workloads.expr_to_slack(workloads.parse_expr("(2sum (u 4 2) (u 4 2))"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        certs = list(products.iter_two_product_certs_exact(S))
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()["products.iter_two_product_certs_exact"]
    assert tracer.counts["products.iter_two_product_certs_exact.yields"] == len(certs) >= 1
    assert stats["calls"] == len(certs) + 1  # the last step ends the iteration


def test_tracer_reports_missing_names(monkeypatch):
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + (("matrix.gone", "prodmat.matrix", "no_such_function"),))
    monkeypatch.delattr(matroids, "DECOMPOSITION_STATS")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "prodmat.matrix.no_such_function" in tracer.absent
    assert "matroids.DECOMPOSITION_STATS" in tracer.absent
