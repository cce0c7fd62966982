"""End-to-end benchmark of the reproduction, split by layer.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload paper --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads one after the other and prints
each metric by name and unit before each workload's JSON line.

Each pass of the workload runs in a fresh interpreter (``child.py``),
because every user invocation pays the import and a cold per-process
table cache.  Passes repeat until ``--seconds`` have elapsed; the reported
figures are medians over passes.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a report with the run's stamp (machine, versions, optional modules),
the workload's input properties and per-cell paper values.
"""

from __future__ import annotations

import argparse
import itertools
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
WORK = os.path.join(BENCH, "_work")

sys.path.insert(0, ROOT)
from e2ebench import spans, workloads  # noqa: E402

#: (name, unit) of the end-to-end metrics, reported on every workload.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_frames_per_s", "frames/s"),
    ("peak_rss_mb", "MB"),
    ("paper_gap", "ratio"),
]

#: How many passes and set-ups a run makes at least, per scale.
RUN_PLAN = {
    "full": {"min_passes": 3, "min_setups": 7, "warmup": True},
    "tiny": {"min_passes": 1, "min_setups": 1, "warmup": False},
}

#: A child that runs longer than this is killed and fails the run.
CHILD_TIMEOUT_S = 60.0
#: No new pass starts once a run has spent this long, so a run on a slow
#: machine still ends well within three minutes.
RUN_BUDGET_S = 90.0


class BenchError(RuntimeError):
    pass


def _child_env() -> Dict[str, str]:
    """The caller's environment without ``REPRO_*`` switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


_CHILD_NUMBER = itertools.count()


def _run_child(run_dir: str, options: Dict[str, object]) -> dict:
    out = os.path.join(run_dir, f"child-{next(_CHILD_NUMBER)}.json")
    command = [sys.executable, CHILD, "--workdir", run_dir, "--out", out]
    for key, value in options.items():
        command += [f"--{key.replace('_', '-')}", str(value)]
    command += ["--spawned", repr(time.monotonic())]
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise BenchError(
            f"pass {options} exited with {completed.returncode}:\n{completed.stderr[-4000:]}"
        )
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def _importable(module: str) -> bool:
    return importlib.util.find_spec(module) is not None


def stamp() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": _importable("numba"),
        "pyarrow_importable": _importable("pyarrow"),
    }


def unmeasured(machine: dict) -> Dict[str, str]:
    """Layers this run cannot measure, and why (never reported as zeros)."""
    notes = {
        "sim.engine.scalarpath": "auto negotiation never selects the scalar reference; "
        "it runs only in the grid workload's untimed correctness check",
    }
    if not machine["numba_importable"]:
        notes["sim.engine.jitpath"] = (
            "numba is not importable, so the compiled engine never negotiates"
        )
    if not machine["pyarrow_importable"]:
        notes["store.arrow"] = (
            "pyarrow is not importable, so --store auto resolves to the JSON formats"
        )
    return notes


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"e2ebench: no repro source tree under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(WORK, exist_ok=True)
    for name in names:
        run_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
        try:
            result, report = measure(args, name, run_dir)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"e2ebench: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        print(json.dumps({"report": report}, sort_keys=True))
        if len(names) > 1:
            for metric, value in result["metrics"].items():
                print(f"{name:8} {metric:18} {value['value']:>14.6g} {value['unit']}")
        print(json.dumps(result))
    return 0


def measure(args, workload: str, run_dir: str) -> Tuple[dict, dict]:
    plan = RUN_PLAN[args.scale]
    common = {"workload": workload, "seed": args.seed, "scale": args.scale}
    if plan["warmup"]:
        # Compiles the checkout's bytecode and warms the file cache once;
        # every user invocation after installation starts from there.
        _run_child(run_dir, {**common, "mode": "setup"})

    # The first pass also runs the workload's correctness check, so the
    # measuring window opens after it.
    untraced: List[dict] = [_run_child(run_dir, {**common, "mode": "pass", "check": 1})]
    traced: List[dict] = []
    trace_out = os.path.join(WORK, f"trace-{workload}.jsonl")
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        enough = len(untraced) >= plan["min_passes"] and (
            not args.trace or len(traced) >= plan["min_passes"]
        )
        if (elapsed >= args.seconds and enough) or elapsed >= RUN_BUDGET_S:
            break
        if args.trace and len(traced) < len(untraced):
            traced.append(
                _run_child(run_dir, {**common, "mode": "pass", "trace": 1, "trace_out": trace_out})
            )
        else:
            untraced.append(_run_child(run_dir, {**common, "mode": "pass"}))

    passes = untraced + traced
    failed = sum(p["failed"] for p in passes)
    failed += len(untraced[0].get("check_errors", []))
    # Every pass of a seed must produce the same bytes as the checked one.
    failed += sum(1 for p in passes if p["digest"] != untraced[0]["digest"])
    attempted = sum(p["scenarios"] for p in passes)

    machine = stamp()
    report = {
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": machine,
        "unmeasured": unmeasured(machine),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "scenarios_per_pass": untraced[0]["scenarios"],
        "frames_per_pass": untraced[0]["frames"],
        "details": untraced[0]["details"],
        "check_errors": untraced[0].get("check_errors", []),
        "wall_s_per_pass": [p["wall_s"] for p in untraced],
    }

    if args.trace:
        metrics = traced_metrics(untraced, traced)
        report["input_properties"] = {
            name: metrics[name]["value"]
            for name in (
                "workload.repeat_share",
                "executor.batch_mean_size",
                "executor.table_cache_hit_ratio",
            )
        }
        report["unmeasured_engine_spans"] = traced[-1]["unmeasured_engine_spans"]
        report["trace_file"] = os.path.relpath(trace_out, ROOT)
    else:
        setups = [p["setup_s"] for p in untraced]
        while len(setups) < plan["min_setups"]:
            setups.append(_run_child(run_dir, {**common, "mode": "setup"})["setup_s"])
        if workload == "paper":
            gap_pass = untraced[0]
        else:
            # paper_gap is a property of the code at this seed, not of the
            # workload: the grid and service runs compute it with the same
            # paper-scale drivers, outside their timed passes.
            gap_pass = _run_child(
                run_dir, {"workload": "paper", "seed": args.seed, "scale": args.scale,
                          "mode": "pass"}
            )
            failed += gap_pass["failed"]
            attempted += gap_pass["scenarios"]
        cells = gap_pass["details"].get("paper_cells")
        if cells is None:
            raise BenchError("the paper drivers failed; paper_gap cannot be computed")
        report["paper_cells"] = cells
        report["setup_s_samples"] = setups
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "sim_frames_per_s": statistics.median(p["frames"] / p["wall_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "paper_gap": workloads.paper_gap(cells),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def traced_metrics(untraced: List[dict], traced: List[dict]) -> Dict[str, dict]:
    """Medians of the traced passes' per-layer metrics, plus tracing overhead."""
    plain_wall = statistics.median(p["wall_s"] for p in untraced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in spans.per_layer_metrics()
    }


if __name__ == "__main__":
    sys.exit(main())
