"""Quick checks of the benchmark harness on test-sized cells, in process.

Each workload runs once untraced and once traced at its ``tiny`` size; the
span wrappers are removed after every cell, so the rest of the suite sees
the untouched simulator.
"""

import json
import time

import pytest

from bench import compare, layers, run, workloads
from bench.tracing import Recorder

SPEC = json.loads(run.BENCHMARK.read_text())
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def cells():
    """workload -> (untraced record, traced record), both at seed 3."""
    return {
        name: tuple(
            workloads.run_cell(workload, 3, traced=traced, tiny=True)
            for traced in (False, True)
        )
        for name, workload in workloads.WORKLOADS.items()
    }


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_every_listed_metric_is_emitted_with_its_unit(cells, name):
    untraced, traced = cells[name]
    e2e = run.end_to_end([untraced])
    assert {m: e["unit"] for m, e in e2e.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(e["value"] > 0 for e in e2e.values())
    layer = run.per_layer([untraced, traced])
    assert {m: e["unit"] for m, e in layer.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


@pytest.mark.parametrize("name", NAMES)
def test_self_times_account_for_the_traced_wall(cells, name):
    _, traced = cells[name]
    table = traced["layers"]
    assert all(row["self_s"] >= 0 for row in table.values())
    unattributed = table[layers.CELL_SPAN]["self_s"]
    attributed = sum(row["self_s"] for span, row in table.items() if span != layers.CELL_SPAN)
    assert attributed + unattributed == pytest.approx(traced["wall_s"], rel=0.01)


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_agree(cells, name):
    untraced, traced = cells[name]
    assert untraced["problems"] == [] and traced["problems"] == []
    assert untraced["digests"] and traced["digests"] == untraced["digests"]


def test_adversary_spans_only_fire_under_attack(cells):
    for name, (_, traced) in cells.items():
        calls = traced["per_layer"]["adversary.filter.calls"]
        assert (calls > 0) == (name == "attack-churn"), name


def test_golden_preflight_passes():
    assert workloads.preflight() == []


def test_corrupted_reference_digest_fails_every_cell(cells):
    pair = [{**cell, "input": 0} for cell in cells["fig3-300"]]
    good = dict(pair[0]["digests"])
    assert run.check_cells(pair, [good]) == []
    assert run.check_cells(pair, None) == []
    corrupted = {label: "0" * 64 for label in good}
    failures = run.check_cells(pair, [corrupted])
    assert len(failures) / len(pair) == 1


def test_compare_flags_a_rise_in_failed_cells(tmp_path):
    def record(name, failed):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        result = {"attempted": 4, "failed": failed, "failures": [], "metrics": metrics}
        path = tmp_path / name
        path.write_text(json.dumps({"workloads": {"fig3-300": result}}))
        return path

    a = [record(f"a{i}.json", 0) for i in range(3)]
    same = [record(f"b{i}.json", 0) for i in range(3)]
    worse = same[:2] + [record("c2.json", 1)]
    assert compare.main([*map(str, a), "--", *map(str, same)]) == 0
    assert compare.main([*map(str, a), "--", *map(str, worse)]) == 1


def test_excluded_work_is_taken_out_of_every_span_it_interrupted():
    recorder = Recorder()

    def burst():
        started = time.perf_counter_ns()
        sum(range(300_000))
        recorder.exclude(time.perf_counter_ns() - started)

    recorder.call("outer", recorder.call, ("inner", burst, (), {}), {})
    excluded = recorder.excluded_ns
    for name in ("outer", "inner"):
        calls, cumulative, self_ns = recorder.table[name]
        assert calls == 1 and 0 <= self_ns <= cumulative < excluded / 10
