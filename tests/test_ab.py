"""`tools/ab.py` times two copies of prodmat in one process: a short round on
identical code reports every field, and answers that differ stop the tool."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
with mock.patch.dict(os.environ):  # the tool pins BLAS threads for its own process only
    spec.loader.exec_module(ab)


@pytest.fixture(scope="module")
def sides():
    # A = B: the working tree's package, loaded twice under names of its own
    return {s: ab.load_package(f"prodmat_ab_{s}", ROOT / "src") for s in ("base", "change")}


def _cases(name, tmp_path, count):
    workdir = tmp_path / name
    workdir.mkdir()
    cases, _ = ab.workloads.build_pool(ab.workloads.WORKLOADS[name], 3, str(workdir))
    return cases[:count]


@pytest.mark.parametrize("name", ["small-classify", "wide-1p"])
def test_a_short_round_on_identical_code_reports_every_field(sides, tmp_path, name):
    workload = ab.workloads.WORKLOADS[name]
    before = ab.workloads.cli, ab.workloads.products
    result = ab.compare(workload, sides, _cases(name, tmp_path, 6), rounds=1, repeats=1)
    assert (ab.workloads.cli, ab.workloads.products) == before
    assert set(result) == {"inputs", "rounds", "ratio", "per_input"}
    assert result["inputs"] == 6 and len(result["per_input"]) == 6
    assert [set(r) for r in result["rounds"]] == [{"ratio", "base_ms_per_op", "change_ms_per_op"}]
    ratio = result["ratio"]
    assert ratio["min"] == ratio["median"] == ratio["max"] == result["rounds"][0]["ratio"] > 0
    assert all(r > 0 for r in result["per_input"])
    assert ab.summary_line(name, result).startswith(f"{name}: change/base ")


def test_differing_answers_stop_the_tool_naming_the_input(sides, tmp_path, monkeypatch):
    # input 0 of the wide-1p pool is a 1-product; the change side now says no
    workload = ab.workloads.WORKLOADS["wide-1p"]
    before = ab.workloads.cli
    monkeypatch.setattr(sides["change"].cli, "recognize_one_product", lambda S: None)
    with pytest.raises(SystemExit) as stop:
        ab.compare(workload, sides, _cases("wide-1p", tmp_path, 4), rounds=1, repeats=1)
    assert isinstance(stop.value.code, str)  # exit code 1, with the message on stderr
    assert stop.value.code.startswith("wide-1p input 0 (")
    assert stop.value.code.endswith("; no report written")
    assert ab.workloads.cli is before
