"""Span recorder for the traced pass, and the per-layer metrics it yields.

The recorder wraps the public classes and functions of each layer of
``repro`` from the outside: nothing in ``src/`` knows it exists.  It is
installed only in a traced pass, after the workload's set-up, so untraced
passes run the unmodified library.

Each call to a wrapped entry point records one span: a name, ``perf_counter``
start and end, and a link to the enclosing span of the same thread.  Spans
stay in memory and are written once, at the end of the pass.  A layer's
self time is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Engines whose frame loops are wrapped, keyed by the name a metric uses.
#: ``batch`` engines take a member list instead of one governor.
ENGINES = {
    "scalarpath": ("repro.sim.scalarpath", "simulate_scalar", False),
    "fastpath": ("repro.sim.fastpath", "simulate_schedule", False),
    "tablepath": ("repro.sim.tablepath", "simulate_closed_loop", False),
    "thermalpath": ("repro.sim.thermalpath", "simulate_closed_loop", False),
    "jitpath": ("repro.sim.jitpath", "simulate_closed_loop", False),
    "batchpath": ("repro.sim.batchpath", "simulate_batch", True),
}

#: Engines the three workloads exercise in a traced pass on a machine
#: without numba.  ``scalarpath`` runs only in the grid's untimed check and
#: ``jitpath`` needs numba, so neither has a per-layer metric.
MEASURED_ENGINES = ("fastpath", "tablepath", "thermalpath", "batchpath")

#: Registry names of the governors the workloads run.
GOVERNORS = (
    "proposed",
    "shen-upd",
    "multicore-dvfs",
    "ondemand",
    "conservative",
    "proposed-single",
    "oracle",
)

#: Functions timed as the analysis / experiments layer (module, attribute).
ANALYSIS_FUNCTIONS = (
    ("repro.sim.comparison", "compare_to_oracle"),
    ("repro.sim.comparison", "pairwise_energy_saving"),
    ("repro.sim.metrics", "summarize_result"),
    ("repro.analysis.stats", "mean"),
    ("repro.analysis.reporting", "format_table"),
    ("repro.analysis.reporting", "format_campaign_summary"),
    ("repro.experiments.table1", "format_table1"),
    ("repro.experiments.table2", "format_table2"),
    ("repro.experiments.table3", "format_table3"),
    ("repro.experiments.figure3", "format_figure3"),
)


def per_layer_metrics() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in reporting order."""
    names = [
        ("import.s", "s"),
        ("workload.generate_s", "s"),
        ("workload.apps_generated", "count"),
        ("workload.repeat_share", "ratio"),
        ("platform.table_build_s", "s"),
        ("platform.tables_built", "count"),
        ("executor.table_cache_hit_ratio", "ratio"),
        ("executor.batches", "count"),
        ("executor.batch_mean_size", "count"),
        ("executor.overhead_s", "s"),
        ("executor.unit_self_s", "s"),
        ("sim.negotiate_s", "s"),
    ]
    for engine in MEASURED_ENGINES:
        names += [
            (f"sim.engine.{engine}.scenarios", "count"),
            (f"sim.engine.{engine}.s", "s"),
            (f"sim.engine.{engine}.us_per_frame", "us"),
        ]
    names += [(f"governor.{name}.us_per_frame", "us") for name in GOVERNORS]
    names += [
        ("rtm.explorations", "count"),
        ("rtm.converged_epoch_mean", "epochs"),
        ("analysis.s", "s"),
        ("store.save_s", "s"),
        ("store.load_s", "s"),
        ("store.bytes_written", "bytes"),
        ("service.lease_s", "s"),
        ("service.submit_s", "s"),
        ("service.transport_s", "s"),
        ("service.worker_idle_s", "s"),
        ("service.journal_final_bytes", "bytes"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "ratio"),
    ]
    return names


class Span:
    """One timed call: name, interval, enclosing span and call attributes."""

    __slots__ = ("name", "parent", "start", "end", "child_s", "thread", "attrs")

    def __init__(self, name: str, parent: Optional["Span"], thread: int) -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.thread = thread
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


Describe = Callable[[tuple, dict, Any], Dict[str, Any]]


class SpanRecorder:
    """Collects spans in memory; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._governor_names: Dict[int, str] = {}

    def call(
        self,
        name: str,
        func: Callable,
        args: tuple,
        kwargs: dict,
        describe: Optional[Describe] = None,
    ) -> Any:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        span.start = perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.end - span.start
            self.spans.append(span)
        if describe is not None:
            span.attrs = describe(args, kwargs, result)
        return result

    def tag_governor(self, governor: Any, name: str) -> None:
        self._governor_names[id(governor)] = name

    def governor_name(self, governor: Any) -> str:
        return self._governor_names.get(id(governor), type(governor).__name__)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line (called once)."""
        index = {id(span): number for number, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for number, span in enumerate(self.spans):
                record = {
                    "id": number,
                    "name": span.name,
                    "parent": None if span.parent is None else index.get(id(span.parent)),
                    "thread": span.thread,
                    "start": span.start,
                    "end": span.end,
                    "self_s": span.self_s,
                }
                handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every ``repro`` module global that refers to ``original``.

    Catches ``from x import f`` aliases as well as the defining module.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attribute, value in list(namespace.items()):
            if value is original:
                namespace[attribute] = replacement


def _wrap_function(
    recorder: SpanRecorder, module: str, attribute: str, span: str,
    describe: Optional[Describe] = None,
) -> None:
    original = getattr(sys.modules[module], attribute)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return recorder.call(span, original, args, kwargs, describe)

    _replace_everywhere(original, traced)


def _wrap_method(
    recorder: SpanRecorder, cls: type, attribute: str, span: str,
    describe: Optional[Describe] = None,
) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        original = raw.__func__

        @functools.wraps(original)
        def traced_classmethod(*args, **kwargs):
            return recorder.call(span, original, args, kwargs, describe)

        setattr(cls, attribute, classmethod(traced_classmethod))
        return

    @functools.wraps(raw)
    def traced(*args, **kwargs):
        return recorder.call(span, raw, args, kwargs, describe)

    setattr(cls, attribute, traced)


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points so calls record spans."""
    from repro.campaign import executor, registry, service
    from repro.campaign.results import CampaignResult
    from repro.platform.cluster import Cluster, ThermalWorkloadTable
    from repro.sim import backends

    # workload: every generated application goes through the registry.
    original_application_factory = registry.application_factory

    def application_factory(name):
        factory = original_application_factory(name)

        def generate(*args, **kwargs):
            key = (name, repr(args), repr(sorted(kwargs.items())))
            return recorder.call(
                "workload.generate", factory, args, kwargs,
                lambda _a, _k, _r: {"key": key},
            )

        return generate

    _replace_everywhere(original_application_factory, application_factory)

    # governors: remember each governor's registry name for attribution.
    original_governor_factory = registry.governor_factory

    def governor_factory(name):
        factory = original_governor_factory(name)

        def build(*args, **kwargs):
            governor = factory(*args, **kwargs)
            recorder.tag_governor(governor, name)
            return governor

        return build

    _replace_everywhere(original_governor_factory, governor_factory)

    # platform: physics tables.
    built = lambda _a, _k, _r: {"built": True}  # noqa: E731
    _wrap_method(recorder, Cluster, "execute_workload_table", "platform.table", built)
    _wrap_method(
        recorder, Cluster, "execute_thermal_workload_table", "platform.table", built
    )
    _wrap_method(
        recorder, ThermalWorkloadTable, "prefill_power_slices", "platform.table"
    )

    # sim: negotiation and the engines' frame loops.
    _wrap_function(recorder, backends.__name__, "negotiate", "sim.negotiate")
    for engine, (module, attribute, batched) in ENGINES.items():
        importlib.import_module(module)
        if batched:
            describe = lambda args, _k, _r: {  # noqa: E731
                "frames": args[1].num_frames,
                "members": [(id(g), recorder.governor_name(g)) for _c, g in args[0]],
            }
        else:
            describe = lambda args, _k, _r: {  # noqa: E731
                "frames": args[1].num_frames,
                "members": [(id(args[2]), recorder.governor_name(args[2]))],
            }
        _wrap_function(recorder, module, attribute, f"sim.engine.{engine}", describe)

    # campaign.executor: scenario and batch units.
    _wrap_function(
        recorder, executor.__name__, "run_scenario", "executor.scenario",
        lambda _a, _k, outcome: {"outcomes": [outcome]},
    )
    _wrap_function(
        recorder, executor.__name__, "run_scenario_batch", "executor.batch",
        lambda _a, _k, outcomes: {"outcomes": list(outcomes)},
    )

    # analysis / experiments.
    for module, attribute in ANALYSIS_FUNCTIONS:
        importlib.import_module(module)
        _wrap_function(recorder, module, attribute, "analysis")

    # campaign.store: result persistence.
    _wrap_method(
        recorder, CampaignResult, "save", "store.save",
        lambda args, kwargs, _r: {
            "bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
        },
    )
    _wrap_method(recorder, CampaignResult, "load", "store.load")

    # campaign.service: coordinator ops, transport and worker loop.
    _wrap_method(recorder, service.Coordinator, "lease", "service.lease")
    _wrap_method(recorder, service.Coordinator, "submit", "service.submit")
    _wrap_function(recorder, service.__name__, "dispatch_op", "service.op")
    _wrap_method(recorder, service.HTTPClient, "call", "service.rpc")
    _wrap_method(recorder, service.WorkerSite, "run", "service.worker")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_metrics(
    recorder: SpanRecorder,
    window: Tuple[float, float],
    import_s: float,
    cache_stats: Dict[str, int],
    journal_bytes: int,
) -> Dict[str, float]:
    """Fold one traced pass's spans into the per-layer metrics.

    ``window`` is the pass's ``perf_counter`` interval, ``cache_stats`` the
    executor's table-cache counters over the pass.  Frame-loop self time
    is attributed to engines and, per member, to the member's governor; a
    batch's self time is split evenly over the members it stepped itself
    (members it routed to a per-scenario engine appear as child spans).
    """
    spans = recorder.spans
    self_time: Dict[str, float] = {}
    for span in spans:
        self_time[span.name] = self_time.get(span.name, 0.0) + span.self_s

    generations = [s.attrs["key"] for s in spans if s.name == "workload.generate" and s.attrs]
    seen: set = set()
    repeats = 0
    for key in generations:
        repeats += key in seen
        seen.add(key)

    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    engine_s = {name: 0.0 for name in ENGINES}
    engine_scenarios = {name: 0 for name in ENGINES}
    engine_frames = {name: 0 for name in ENGINES}
    governor_s: Dict[str, float] = {}
    governor_frames: Dict[str, int] = {}
    for span in spans:
        if not span.name.startswith("sim.engine.") or not span.attrs:
            continue
        engine = span.name[len("sim.engine."):]
        delegated = {
            member_id
            for child in children.get(id(span), ())
            if child.name.startswith("sim.engine.") and child.attrs
            for member_id, _ in child.attrs["members"]
        }
        members = [m for m in span.attrs["members"] if m[0] not in delegated]
        frames = span.attrs["frames"]
        engine_s[engine] += span.self_s
        engine_scenarios[engine] += len(members)
        engine_frames[engine] += frames * len(members)
        for _, name in members:
            governor_s[name] = governor_s.get(name, 0.0) + span.self_s / len(members)
            governor_frames[name] = governor_frames.get(name, 0) + frames

    units = [s for s in spans if s.name in ("executor.scenario", "executor.batch")]
    batches = [s for s in units if s.name == "executor.batch" and s.attrs]
    outcomes = [o for s in units if s.attrs for o in s.attrs["outcomes"]]
    results = [o.result for o in outcomes if o.result is not None]
    converged = [r.converged_epoch for r in results if r.converged_epoch is not None]
    start, end = window
    covered = _union_length(
        [(max(s.start, start), min(s.end, end)) for s in units if s.end > start]
    )
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    rpc = sum(s.duration for s in spans if s.name == "service.rpc")
    ops = sum(s.duration for s in spans if s.name == "service.op")

    metrics: Dict[str, float] = {
        "import.s": import_s,
        "workload.generate_s": self_time.get("workload.generate", 0.0),
        "workload.apps_generated": len(generations),
        "workload.repeat_share": repeats / len(generations) if generations else 0.0,
        "platform.table_build_s": self_time.get("platform.table", 0.0),
        "platform.tables_built": sum(
            1 for s in spans if s.name == "platform.table" and s.attrs
        ),
        "executor.table_cache_hit_ratio": (
            cache_stats.get("hits", 0) / lookups if lookups else 0.0
        ),
        "executor.batches": len(batches),
        "executor.batch_mean_size": (
            sum(len(s.attrs["outcomes"]) for s in batches) / len(batches)
            if batches else 0.0
        ),
        "executor.overhead_s": (end - start) - covered,
        "executor.unit_self_s": (
            self_time.get("executor.scenario", 0.0) + self_time.get("executor.batch", 0.0)
        ),
        "sim.negotiate_s": self_time.get("sim.negotiate", 0.0),
    }
    for engine in MEASURED_ENGINES:
        frames = engine_frames[engine]
        metrics[f"sim.engine.{engine}.scenarios"] = engine_scenarios[engine]
        metrics[f"sim.engine.{engine}.s"] = engine_s[engine]
        metrics[f"sim.engine.{engine}.us_per_frame"] = (
            engine_s[engine] / frames * 1e6 if frames else 0.0
        )
    for name in GOVERNORS:
        frames = governor_frames.get(name, 0)
        metrics[f"governor.{name}.us_per_frame"] = (
            governor_s[name] / frames * 1e6 if frames else 0.0
        )
    metrics.update(
        {
            "rtm.explorations": sum(r.exploration_count for r in results),
            "rtm.converged_epoch_mean": (
                sum(converged) / len(converged) if converged else 0.0
            ),
            "analysis.s": self_time.get("analysis", 0.0),
            "store.save_s": self_time.get("store.save", 0.0),
            "store.load_s": self_time.get("store.load", 0.0),
            "store.bytes_written": sum(
                s.attrs["bytes"] for s in spans if s.name == "store.save" and s.attrs
            ),
            "service.lease_s": self_time.get("service.lease", 0.0),
            "service.submit_s": self_time.get("service.submit", 0.0),
            "service.transport_s": rpc - ops,
            "service.worker_idle_s": self_time.get("service.worker", 0.0),
            "service.journal_final_bytes": journal_bytes,
            "trace.spans": len(spans),
        }
    )
    return metrics
