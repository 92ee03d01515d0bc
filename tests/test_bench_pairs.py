"""`tools/bench_pairs.py` refuses to summarize a run whose answers were wrong."""

import importlib.util
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


def test_a_correct_run_passes():
    bench_pairs.check_verdict({"correct": True, "failed": 0, "metrics": {}}, "gen-expr seed 1 base")
