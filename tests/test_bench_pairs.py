"""`tools/bench_pairs.py` refuses to summarize a run that failed or whose
answers were wrong, and prints each workload's summary one metric a line."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize(
    "last", [{"correct": False, "failed": 0}, {"correct": True, "failed": 3}, {"correct": False, "failed": 2}, {}]
)
def test_a_wrong_run_stops_the_script(last):
    with pytest.raises(SystemExit) as stop:
        bench_pairs.check_verdict(last, "wide-1p seed 2401 change")
    assert stop.value.code != 0
    assert str(stop.value.code).startswith("wide-1p seed 2401 change: ")


def _fake_checkout(root: Path, run_py: str) -> None:
    """A git repository at root holding BENCHMARK.json and perfbench/run.py."""
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(run_py)
    (root / "BENCHMARK.json").write_text('{"end_to_end": [{"name": "ops_per_s", "better": "higher"}]}')
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "fake"]):
        subprocess.run(git + args, cwd=root, check=True, capture_output=True)


def test_a_run_that_exits_non_zero_stops_the_script(tmp_path, monkeypatch):
    root, out = tmp_path / "checkout", tmp_path / "BENCH.json"
    root.mkdir()
    _fake_checkout(root, "import sys\nprint('env {}')\nsys.exit(3)\n")
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--workload", "wide-1p", "--seeds", "2401", "--seconds", "1", "--out", str(out)])
    assert stop.value.code.startswith("wide-1p seed 2401 base: exit code 3, ")
    assert not out.exists()


def test_a_run_that_prints_nothing_stops_the_script(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    with pytest.raises(SystemExit) as stop:
        bench_pairs.run_once(tmp_path, "gen-expr", 7, 1, "gen-expr seed 7 change")
    assert stop.value.code.startswith("gen-expr seed 7 change: exit code 0, 0 stdout lines")


def test_a_correct_run_passes():
    bench_pairs.check_verdict({"correct": True, "failed": 0, "metrics": {}}, "gen-expr seed 1 base")


def test_the_summary_prints_one_line_per_workload_and_metric():
    # four pairs: ops_per_s (higher is better) wins 3, op_p50_ms (lower) wins 1
    ops = [(100.0, 110.0), (104.0, 103.0), (98.0, 120.0), (102.0, 111.0)]
    p50 = [(2.0, 1.5), (2.0, 2.5), (3.0, 3.0), (2.5, 2.5)]
    run = lambda o, p: {"metrics": {"ops_per_s": {"value": o}, "op_p50_ms": {"value": p}}}  # noqa: E731
    pairs = [{"base": run(ob, pb), "change": run(oc, pc)} for (ob, oc), (pb, pc) in zip(ops, p50)]
    summary = bench_pairs.summarize(pairs, {"ops_per_s": "higher", "op_p50_ms": "lower"})
    lines = bench_pairs.summary_lines({"gen-expr": {"runs": pairs, "summary": summary}})
    assert lines == [
        "gen-expr ops_per_s: base 101 (IQR 3), change 110.5 (IQR 5), change better in 3 of 4 pairs",
        "gen-expr op_p50_ms: base 2.25 (IQR 0.625), change 2.5 (IQR 0.375), change better in 1 of 4 pairs",
    ]
