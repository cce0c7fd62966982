"""One pass of one workload, in a fresh interpreter.

Run by ``run.py``, never by hand::

    python3 e2ebench/child.py --workload grid --seed 3 --mode pass \
        --spawned <time.monotonic() at spawn> --out result.json

``--mode setup`` stops after the set-up phase.  ``--trace 1`` installs the
span recorder after set-up and reports per-layer metrics; ``--check 1``
runs the workload's correctness check after the timed region.  The result
is written as one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--mode", choices=("pass", "setup"), default="pass")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--check", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", default="")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    # The library under test is the checkout's own source tree.
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from e2ebench import spans, workloads

    import_start = time.perf_counter()
    import repro
    from repro.campaign import executor

    for module in workloads.IMPORTS[args.workload]:
        importlib.import_module(module)
    import_s = time.perf_counter() - import_start
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"imported repro from {repro.__file__}, not from the checkout")

    workload = workloads.WORKLOAD_CLASSES[args.workload](args.seed, args.scale, args.workdir)
    setup_s = time.monotonic() - args.spawned
    report = {"setup_s": setup_s, "import_s": import_s}
    try:
        if args.mode == "pass":
            report.update(run_pass(args, workload, executor, spans, import_s))
    finally:
        workload.close()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


def run_pass(args, workload, executor, spans, import_s: float) -> dict:
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        spans.install(recorder)
    executor.reset_table_cache_stats()
    start = time.perf_counter()
    produced = workload.run()
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    output = workload.summarize(produced)
    report = {
        "wall_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "scenarios": output.scenarios,
        "frames": output.frames,
        "failed": output.failed,
        "digest": output.digest,
        "details": output.details,
    }
    if recorder is not None:
        report["layers"] = spans.layer_metrics(
            recorder,
            (start, end),
            import_s,
            executor.table_cache_stats(),
            getattr(workload, "journal_bytes", 0),
        )
        report["unmeasured_engine_spans"] = {
            engine: sum(1 for s in recorder.spans if s.name == f"sim.engine.{engine}")
            for engine in spans.ENGINES
            if engine not in spans.MEASURED_ENGINES
        }
        if args.trace_out:
            recorder.dump(args.trace_out)
    if args.check:
        report["check_errors"] = workload.check(produced)
    return report


if __name__ == "__main__":
    sys.exit(main())
