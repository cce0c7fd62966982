"""The benchmark's own tests: tiny-scale smoke runs, metric names, seeding.

Run with ``python3 -m pytest e2ebench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from e2ebench import run, spans, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*arguments: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_metric_names_are_valid_and_match_the_code():
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_gives_the_same_spec():
    for build in (workloads.grid_campaign, workloads.service_campaign):
        assert build(7).to_dict() == build(7).to_dict()
        assert build(7).to_dict() != build(8).to_dict()
    assert workloads.paper_driver_seeds(7) == workloads.paper_driver_seeds(7)
    assert workloads.paper_driver_seeds(7) != workloads.paper_driver_seeds(8)
    first = workloads.PaperWorkload(7).campaigns()
    second = workloads.PaperWorkload(7).campaigns()
    assert {k: c.to_dict() for k, c in first.items()} == {
        k: c.to_dict() for k, c in second.items()
    }


def test_full_scale_sizes():
    assert len(workloads.grid_campaign(1)) == 18
    assert len(workloads.service_campaign(1)) == 18
    campaigns = workloads.PaperWorkload(1).campaigns()
    assert sum(len(c) for c in campaigns.values()) == 45


def test_tiny_smoke_of_all_workloads_reports_every_end_to_end_metric():
    completed = _run(
        "--workload", "all", "--seed", "3", "--seconds", "0", "--trace", "0", "--scale", "tiny"
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    results = [json.loads(line) for line in lines if line.startswith('{"correct"')]
    assert len(results) == len(workloads.WORKLOADS)
    assert json.loads(lines[-1]) == results[-1]
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert [name for name, _ in run.END_TO_END] == list(result["metrics"])
        for value in result["metrics"].values():
            assert value["value"] > 0


def test_tiny_traced_run_reports_every_per_layer_metric():
    completed = _run(
        "--workload", "service", "--seed", "3", "--seconds", "0", "--trace", "1", "--scale", "tiny"
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert [name for name, _ in spans.per_layer_metrics()] == list(result["metrics"])
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    assert metrics["service.lease_s"] > 0 and metrics["service.submit_s"] > 0
    assert metrics["store.bytes_written"] > 0
    assert metrics["sim.engine.tablepath.scenarios"] == 9


def test_span_self_time_excludes_children():
    recorder = spans.SpanRecorder()

    def inner():
        return 1

    def outer():
        return recorder.call("inner", inner, (), {})

    recorder.call("outer", outer, (), {})
    inner_span, outer_span = recorder.spans
    assert inner_span.parent is outer_span
    assert outer_span.self_s == pytest.approx(outer_span.duration - inner_span.duration)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "e2ebench"),
        tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    completed = _run(
        "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
