"""Tests of the benchmark suite itself (not part of tier-1):

    python -m pytest benchmarks/suite
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
for path in (_HERE, os.path.join(_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import harness as H  # noqa: E402
import layer_trace as LT  # noqa: E402
import metrics as M  # noqa: E402
import run  # noqa: E402
import traffic as T  # noqa: E402
import workloads as W  # noqa: E402


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert H.percentile(values, 0.50) == 50.0
    assert H.percentile(values, 0.95) == 95.0
    assert H.percentile(values, 1.0) == 100.0
    assert H.percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        H.percentile([], 0.5)


def test_median_cycle_reports_quartiles_and_count():
    row = H.median_cycle([4.0, 1.0, 3.0, 2.0, 100.0])
    assert row["value"] == 3.0  # the burst moves one cycle, not the result
    assert row["cycles"] == 5
    assert row["q1"] == 1.5 and row["q3"] == 52.0
    assert H.median_cycle([2.5]) == {
        "value": 2.5, "q1": 2.5, "q3": 2.5, "cycles": 1,
    }
    assert compare.spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert compare.spread([3.0]) == 0.0


def test_reference_speed_scales_the_busy_part_only():
    # 1 s wall of which 0.4 s CPU, on a host at 0.5 speed: the 0.6 s of
    # waiting is kept, the 0.4 s of work would have taken 0.2 s.
    assert H.at_reference_speed(1.0, 0.4, 0.5) == pytest.approx(0.8)
    # CPU beyond the wall (two busy threads) counts as the whole wall.
    assert H.at_reference_speed(1.0, 1.5, 2.0) == pytest.approx(2.0)


def test_self_time_on_a_hand_built_tree():
    # thread A: root [0,10] -> child [1,4] -> grandchild [2,3]; child [5,9]
    spans_a = [
        ("OnlineRebuild.run", "rebuild", 0.0, 10.0, -1, -1),
        ("BufferPool.fetch", "buffer", 1.0, 4.0, 0, -1),
        ("Disk.read", "disk", 2.0, 3.0, 1, -1),
        ("LogManager.append", "wal", 5.0, 9.0, 0, -1),
    ]
    # thread B: one parentless span and one that never closed
    spans_b = [("BufferPool.flush_pages", "buffer", 3.0, 5.0, -1, -1), None]
    assert LT.self_times(spans_a) == [3.0, 2.0, 1.0, 4.0]
    summary = LT.summarize([("A", spans_a), ("B", spans_b)])
    assert summary.layer_self_s == {
        "rebuild": 3.0, "buffer": 4.0, "disk": 1.0, "wal": 4.0,
    }
    # No gaps, no double counting: self times add up to the root spans.
    assert sum(summary.layer_self_s.values()) == summary.root_total_s == 12.0
    assert summary.name_calls["BufferPool.fetch"] == 1
    assert summary.spans == 5


def test_open_loop_schedule_is_the_seed():
    def schedule(seed):
        gen = T.RequestGen(seed, 10_000, client=1, clients=2)
        return T.open_loop_schedule(gen, 20.0, 5.0)

    first, again, other = schedule(3), schedule(3), schedule(4)
    assert first == again
    assert first != other
    dues = [due for due, _req in first]
    assert dues == sorted(dues) and 0.0 < dues[0] and dues[-1] < 5.0
    assert 50 < len(first) < 150  # about rate * duration
    for _due, req in first:
        assert all(slot % 2 == 1 for slot in req.writes)  # client 1 of 2
        assert all(0 <= slot < 10_000 for slot in req.reads + req.writes)


def test_knob_filtering_drops_what_the_target_lacks():
    @dataclasses.dataclass(frozen=True)
    class Shrunk:
        ntasize: int = 32
        fillfactor: float = 1.0

    kept = H.declared(Shrunk, ntasize=8, pipeline_depth=4, ring_frames=128)
    assert kept == {"ntasize": 8}

    def engine_init(self, page_size=2048, buffer_capacity=64):
        pass

    assert H.declared(
        engine_init, page_size=2048, pool_shards=4
    ) == {"page_size": 2048}
    # Against the real config both profiles build.
    assert H.rebuild_config("paper", 256).ntasize == 32
    H.rebuild_config("tuned", 256, parallel_workers=2)
    with pytest.raises(ValueError):
        H.rebuild_config("fast", 256)


def _patched_attributes():
    import importlib

    out = {}
    for targets in LT.TRACE_POINTS.values():
        for module_name, class_name, methods in targets:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                out[(class_name, method)] = cls.__dict__.get(method)
    return out


def test_wrappers_are_restored_and_missing_callables_listed():
    before = _patched_attributes()
    points = dict(LT.TRACE_POINTS)
    points["ghost"] = [
        ("repro.storage.disk", "Disk", ("no_such_method",)),
        ("repro.no_such_module", "Nothing", ("run",)),
    ]
    trace = LT.LayerTrace(points).install()
    try:
        during = _patched_attributes()
        changed = [k for k in before if during[k] is not before[k]]
        assert len(changed) == len([v for v in before.values() if v])
        assert "Disk.no_such_method" in trace.untraced
        assert "Nothing.run" in trace.untraced
    finally:
        trace.restore()
    after = _patched_attributes()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_names_the_metrics_the_suite_reports():
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(W.SPECS) == list(W.CYCLES) == list(run.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == M.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == M.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def _records(workload, metric, values, **extra):
    return [
        {"workload": workload, "seed": i, "trace": 0, "correct": True,
         "metrics": {metric: {"value": v, "unit": "ms"}}, **extra}
        for i, v in enumerate(values)
    ]


def test_compare_verdicts():
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "m", "unit": "ms", "better": "lower", "bound": 0.10},
        ],
    }
    base = _records("w", "m", [100, 101, 99, 100])

    def what(values):
        rows = compare.compare(base, _records("w", "m", values), spec)
        return rows[0][2]

    assert what([104, 105, 103, 104]) == "within"
    assert what([130, 131, 129, 130]) == "worse"
    assert what([70, 71, 69, 70]) == "better"
    assert what([90, 170, 100, 160]) == "unresolved"  # spread hides it
    spec["end_to_end"][0]["better"] = "higher"
    assert what([130, 131, 129, 130]) == "better"


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_smoke(workload, trace, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the traced run writes .bench_out here
    out_json = tmp_path / "runs.jsonl"
    code = run.main([
        "--workload", workload, "--seed", "5", "--quick",
        "--trace", str(trace), "--json", str(out_json),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = M.PER_LAYER if trace else M.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, row in result["metrics"].items():
        assert row["unit"] == expected[name][0]
    if trace:
        layers = result["metrics"]
        assert layers["workload.trace_self_sum_ratio"]["value"] == (
            pytest.approx(1.0, abs=0.05)
        )
        assert layers["workload.trace_overhead_ratio"]["value"] > 0
        assert (tmp_path / ".bench_out" / f"spans-{workload}.jsonl").exists()
    else:
        assert all(row["value"] > 0 for row in result["metrics"].values())
    record = json.loads(out_json.read_text().splitlines()[-1])
    assert record["workload"] == workload and record["correct"] is True
    assert _patched_attributes() == _PRISTINE


_PRISTINE = _patched_attributes()
