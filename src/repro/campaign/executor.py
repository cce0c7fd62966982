"""Campaign execution: fault-tolerant serial and process-pool backends.

The unit of work is :func:`run_scenario` — a module-level function so the
process-pool backend can pickle it.  Each invocation builds its *own*
cluster from the scenario spec: clusters are stateful (meters, PMU, thermal
and DVFS history) and must never be shared between concurrent runs.

Fault tolerance: backends execute scenarios through
:func:`run_scenario_safely`, which converts an exception on the final
allowed attempt into a ``failed`` :class:`ScenarioOutcome` (error message +
traceback captured) instead of letting it abort the campaign, and honours
the executor's :class:`RetryPolicy` in between.  Backends yield
``(index, outcome)`` pairs in *completion* order so the executor can
checkpoint incrementally — a slow early scenario never blocks persistence
of the work completing behind it — while the externally returned
:class:`CampaignResult` is re-ordered to campaign order, keeping a parallel
run bit-identical to a serial run of the same campaign (every scenario is
fully determined by its spec: workload seed, governor config seed, cluster
seed).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import traceback as traceback_module
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError, ScenarioTimeoutError
from repro.campaign import registry
from repro.campaign import store as result_store
from repro.campaign.results import CampaignResult, ScenarioOutcome
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.platform.cluster import ThermalWorkloadTable, WorkloadTable
from repro.rtm.governor import Governor
from repro.sim import backends as engine_backends
from repro.sim import batchpath, jitpath, tablepath, thermalpath
from repro.sim.engine import SimulationEngine

#: Optional per-scenario completion callback (label, index, total).
ProgressCallback = Callable[[str, int, int], None]

#: A backend's stream of results: (index into the submitted sequence, outcome),
#: yielded in completion order.
IndexedOutcomes = Iterable[Tuple[int, ScenarioOutcome]]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times — and on what schedule — a scenario may be (re)run.

    The same policy drives both layers of fault tolerance: the executor's
    in-process retries around :func:`run_scenario_safely`, and the
    distributed service's lease requeue/backoff in
    :mod:`repro.campaign.service`.

    Attributes
    ----------
    max_attempts:
        Total executions allowed per scenario (1 = no retries).  Only the
        final attempt's exception is recorded in a failed outcome.
    backoff_s:
        Base delay in seconds before re-running a failed attempt.  Kept
        under its original name (old specs and call sites load unchanged)
        but now seeds a *capped exponential* schedule: attempt ``k``
        waits ``backoff_s * 2**(k-1)`` seconds, capped at
        :attr:`backoff_cap_s`, then spread by deterministic jitter.  With
        one retry this degenerates to the historical fixed sleep.
    backoff_cap_s:
        Upper bound on the exponential delay (before jitter).
    backoff_jitter:
        Fractional jitter amplitude in ``[0, 1]``: the delay is scaled by
        a factor in ``[1 - jitter, 1 + jitter]`` drawn deterministically
        from ``(backoff_seed, key, attempt)``, so concurrent workers
        de-synchronise their retries without losing reproducibility.
    backoff_seed:
        Seed folded into the jitter hash.
    timeout_s:
        Optional per-attempt wall-clock budget.  A scenario still running
        after this many seconds is recorded as a ``failed`` attempt with
        :class:`~repro.errors.ScenarioTimeoutError` instead of wedging
        its worker forever (``None`` = no limit).
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    backoff_cap_s: float = 60.0
    backoff_jitter: float = 0.1
    backoff_seed: int = 0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_cap_s < 0:
            raise ConfigurationError(
                f"backoff_cap_s must be >= 0, got {self.backoff_cap_s}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ConfigurationError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive or None, got {self.timeout_s}"
            )

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Seconds to wait after failed ``attempt`` (1-based) before retrying.

        Deterministic: the same ``(policy, attempt, key)`` always yields
        the same delay — pass a stable ``key`` (e.g. the scenario id) so
        different scenarios spread out while any one scenario's schedule
        stays reproducible.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        if self.backoff_s <= 0:
            return 0.0
        delay = min(self.backoff_s * (2.0 ** (attempt - 1)), self.backoff_cap_s)
        if self.backoff_jitter > 0.0:
            token = f"{self.backoff_seed}:{key}:{attempt}".encode("utf-8")
            digest = hashlib.sha256(token).digest()
            unit = int.from_bytes(digest[:8], "big") / 2.0**64  # [0, 1)
            delay *= 1.0 + self.backoff_jitter * (2.0 * unit - 1.0)
        return delay


class CampaignInterrupted(ReproError):
    """A campaign run was interrupted (Ctrl-C) after completing some scenarios.

    Carries the partial result store so callers can persist it; when the
    executor was given a checkpoint path the store has already been saved
    there before this exception was raised.
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        partial: CampaignResult,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        self.campaign = campaign
        self.partial = partial
        self.checkpoint_path = checkpoint_path
        saved = f" (checkpoint saved to {checkpoint_path})" if checkpoint_path else ""
        super().__init__(
            f"campaign {campaign.name!r} interrupted after "
            f"{len(partial)}/{len(campaign)} scenarios{saved}"
        )


#: Per-worker-process cache of precomputed closed-loop physics tables.
#: Keyed by everything the tables depend on — application factory + seed,
#: cluster factory, deadline-padding flag, plus the table kind (isothermal
#: vs thermally-decomposed) — so scenarios of one campaign grid that sweep
#: governors over the same application and cluster (the common Table-I
#: shape) precompute the (frame x operating-point) tables once per worker
#: instead of once per scenario.  Thermal tables additionally carry their
#: lazily-filled per-temperature power slices, which therefore stay warm
#: across the scenarios sharing the entry.  Entries are validated against
#: the live cluster's physics on every reuse (see
#: :meth:`~repro.platform.cluster.WorkloadTable.matches` /
#: :meth:`~repro.platform.cluster.ThermalWorkloadTable.matches`), so a
#: stale or colliding entry degrades to a rebuild, never to wrong numbers.
_TABLE_CACHE: "OrderedDict[Tuple, object]" = OrderedDict()
_TABLE_CACHE_MAX_ENTRIES = 8

#: Per-worker-process table-cache traffic counters.  A hit means a scenario
#: reused tables precomputed by an earlier scenario of the same worker; the
#: hit rate is therefore a direct readout of how well the campaign's
#: scenario grouping (and the batch planner's compatibility keys) line up
#: with the cache key.
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def table_cache_stats() -> dict:
    """This process's physics-table cache counters (hits/misses/evictions)."""
    return dict(_CACHE_STATS)


def reset_table_cache_stats() -> None:
    """Zero the cache counters (the cache itself is left warm)."""
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


#: Upper bound on the quantised power slices prewarmed per thermal table;
#: trajectories spanning more buckets than this fall back to lazy filling.
_MAX_PREWARMED_SLICES = 64


def _warm_thermal_tables(tables: ThermalWorkloadTable, cluster) -> None:
    """Prefill a fresh shared thermal table's quantised power slices.

    The junction of a campaign run starts at the model's current
    temperature and relaxes towards the steady state of the power actually
    drawn, which is bounded by every core busy at the hottest operating
    point.  Warming the buckets spanning that range through
    :meth:`~repro.platform.cluster.ThermalWorkloadTable.prefill_power_slices`
    moves the leakage ``exp`` evaluations out of every scenario's hot loop;
    buckets outside the estimate (or beyond the prewarm bound) still fill
    lazily, so this is purely a cache warm, never a correctness input.
    """
    bucket = tables.bucket_c
    if bucket <= 0.0 or not cluster.thermal_model.enabled:
        return
    start = cluster.thermal_model.temperature_c
    busy, _ = cluster.power_model.power_table(cluster.vf_table.points, start)
    peak_power = max(busy) * cluster.num_cores + tables.uncore_power_w
    ceiling = cluster.thermal_model.steady_state_c(peak_power)
    low, high = min(start, ceiling), max(start, ceiling)
    count = int((high - low) / bucket) + 1
    if count > _MAX_PREWARMED_SLICES:
        return
    tables.prefill_power_slices(
        cluster, [low + step * bucket for step in range(count)]
    )


def _cached_table_provider(scenario: ScenarioSpec) -> tablepath.TableProvider:
    """A table provider backed by the worker cache.

    Serves whichever table kind the winning backend asks for: thermally
    decomposed tables (:mod:`repro.sim.thermalpath`, prewarmed via
    :func:`_warm_thermal_tables`) when the scenario pins the thermal
    backend or its cluster has the thermal model enabled, isothermal
    tables (:mod:`repro.sim.tablepath`) otherwise.
    """
    base_key = (
        scenario.application,
        scenario.seed,
        scenario.cluster,
        scenario.config.idle_until_deadline,
    )

    def provider(cluster, application, config):
        # The table kind follows the backend that will consume it: a pinned
        # engine decides directly (thermalpath also runs thermally-disabled
        # clusters), anything else by whether the thermal model is live.
        if scenario.engine == "thermalpath":
            thermal = True
        elif scenario.engine == "tablepath":
            thermal = False
        else:
            thermal = cluster.thermal_model.enabled
        if thermal:
            kind, table_type = "thermal", ThermalWorkloadTable
            precompute = thermalpath.precompute_tables
        else:
            kind, table_type = "isothermal", WorkloadTable
            precompute = tablepath.precompute_tables
        key = base_key + (kind,)
        tables = _TABLE_CACHE.get(key)
        if (
            isinstance(tables, table_type)
            and tables.num_frames == application.num_frames
            and tables.matches(cluster, config.idle_until_deadline)
        ):
            _TABLE_CACHE.move_to_end(key)
            _CACHE_STATS["hits"] += 1
            return tables
        _CACHE_STATS["misses"] += 1
        tables = precompute(cluster, application, config)
        if thermal:
            _warm_thermal_tables(tables, cluster)
        _TABLE_CACHE[key] = tables
        if len(_TABLE_CACHE) > _TABLE_CACHE_MAX_ENTRIES:
            _TABLE_CACHE.popitem(last=False)
            _CACHE_STATS["evictions"] += 1
        return tables

    return provider


def run_scenario(scenario: ScenarioSpec) -> ScenarioOutcome:
    """Execute one scenario from scratch and return its (``done``) outcome.

    Builds a fresh cluster, application and governor from the scenario's
    named factories, runs the closed-loop simulation, then applies the
    scenario's probe (if any) while the governor is still live.  Exceptions
    propagate — use :func:`run_scenario_safely` to record them instead.

    Engine selection goes through the backend registry in
    :mod:`repro.sim.backends`: the scenario's ``engine`` field either pins
    a backend by name (validated against its declared capabilities) or —
    the default ``"auto"`` — negotiates the fastest eligible one:
    static-schedule governors take the vectorised trace engine, closed-loop
    governors the (isothermal or thermally-coupled) table-driven engine,
    with precomputed physics shared through a per-worker cache across
    scenarios of the same application + cluster.  The backend that ran is
    recorded on the result as ``engine_used``.  Clusters built through the
    registry default to ``record_history=False``, so campaign memory stays
    bounded however many frames a scenario sweeps.
    """
    cluster = registry.cluster_factory(scenario.cluster.name)(**scenario.cluster.kwargs)
    app_kwargs = dict(scenario.application.kwargs)
    if scenario.seed is not None:
        app_kwargs["seed"] = scenario.seed
    application = registry.application_factory(scenario.application.name)(**app_kwargs)
    governor = registry.governor_factory(scenario.governor.name)(**scenario.governor.kwargs)

    engine = SimulationEngine(
        cluster,
        scenario.config,
        table_provider=_cached_table_provider(scenario),
        engine=scenario.engine,
    )
    result = engine.run(application, governor)

    probe_data = None
    if scenario.probe is not None:
        probe = registry.probe_factory(scenario.probe.name)
        probe_data = probe(governor, result, **scenario.probe.kwargs)
    return ScenarioOutcome(scenario=scenario, result=result, probe=probe_data)


def _run_scenario_with_timeout(
    scenario: ScenarioSpec, timeout_s: float
) -> ScenarioOutcome:
    """Run one scenario on a watchdog thread, bounded to ``timeout_s`` seconds.

    The scenario executes on a daemon thread and the caller waits at most
    ``timeout_s``; on expiry a :class:`~repro.errors.ScenarioTimeoutError`
    is raised (and recorded by :func:`run_scenario_safely` like any other
    attempt failure).  The abandoned thread cannot be killed — it is left
    to finish (or hang) as a daemon and its eventual result is discarded,
    which is the price of never wedging the worker.
    """
    box: dict = {}

    def target() -> None:
        try:
            box["outcome"] = run_scenario(scenario)
        except BaseException as exc:  # noqa: BLE001 — re-raised on the caller
            box["error"] = exc

    thread = threading.Thread(
        target=target, name=f"scenario-{scenario.scenario_id}", daemon=True
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise ScenarioTimeoutError(
            f"scenario {scenario.label!r} still running after timeout_s={timeout_s}"
        )
    if "error" in box:
        raise box["error"]
    return box["outcome"]


def run_scenario_safely(
    scenario: ScenarioSpec,
    max_attempts: int = 1,
    backoff_s: float = 0.0,
    retry: Optional[RetryPolicy] = None,
) -> ScenarioOutcome:
    """Execute one scenario, converting failure into a ``failed`` outcome.

    Runs :func:`run_scenario` up to ``max_attempts`` times.  The first
    successful attempt wins (its outcome is stamped with the attempt
    count); if every attempt raises, the final exception's message and
    traceback are captured in a ``failed`` outcome so the campaign records
    the crash instead of dying from it.  ``KeyboardInterrupt`` (and other
    non-``Exception`` interrupts) still propagate.

    Pass ``retry`` to drive the run from a full :class:`RetryPolicy`
    (capped exponential backoff with deterministic jitter, optional
    per-attempt ``timeout_s`` guard); the positional ``max_attempts`` /
    ``backoff_s`` arguments are kept for existing call sites and are
    ignored when a policy is given.
    """
    policy = retry if retry is not None else RetryPolicy(
        max_attempts=max_attempts, backoff_s=backoff_s
    )
    for attempt in range(1, policy.max_attempts + 1):
        try:
            if policy.timeout_s is not None:
                outcome = _run_scenario_with_timeout(scenario, policy.timeout_s)
            else:
                outcome = run_scenario(scenario)
        except Exception as exc:  # noqa: BLE001 — the whole point is to record it
            if attempt >= policy.max_attempts:
                return ScenarioOutcome.failure(
                    scenario,
                    error=f"{type(exc).__name__}: {exc}",
                    traceback_text=traceback_module.format_exc(),
                    attempts=attempt,
                )
            delay = policy.delay_for(attempt, scenario.scenario_id)
            if delay > 0:
                time.sleep(delay)
        else:
            if attempt > 1:
                outcome = ScenarioOutcome(
                    scenario=outcome.scenario,
                    result=outcome.result,
                    probe=outcome.probe,
                    attempts=attempt,
                )
            return outcome
    raise AssertionError("unreachable")  # pragma: no cover


# ---------------------------------------------------------------------------
# Batch planning: group compatible scenarios for the batched engine.
# ---------------------------------------------------------------------------

#: One unit of backend work: (batched, [(index into the submitted sequence,
#: scenario), ...]).  Singleton units carry batched=False and run through
#: :func:`run_scenario_safely`; batched units through
#: :func:`run_scenario_batch_safely`.
WorkUnit = Tuple[bool, List[Tuple[int, ScenarioSpec]]]

#: Memoised "does this governor factory yield a closed-loop governor"
#: probe, keyed by the (frozen, hashable) governor FactorySpec.
_CLOSED_LOOP_GOVERNORS: dict = {}


def _governor_is_closed_loop(scenario: ScenarioSpec) -> bool:
    """Whether the scenario's governor decides frame by frame.

    Static-schedule governors negotiate the trace-vectorised ``fastpath``
    backend under ``auto`` and gain nothing from scenario batching, so the
    planner leaves them alone.  The probe builds one throwaway governor per
    distinct factory spec and checks whether it overrides
    :meth:`~repro.rtm.governor.Governor.static_schedule`.
    """
    spec = scenario.governor
    cached = _CLOSED_LOOP_GOVERNORS.get(spec)
    if cached is None:
        try:
            governor = registry.governor_factory(spec.name)(**spec.kwargs)
        except Exception:  # noqa: BLE001 - the real run will report it
            cached = False
        else:
            cached = (
                type(governor).static_schedule is Governor.static_schedule
            )
        _CLOSED_LOOP_GOVERNORS[spec] = cached
    return cached


def _batchable(scenario: ScenarioSpec) -> bool:
    """Whether the batch planner may group ``scenario`` into a batched unit.

    ``auto`` and explicit ``batchpath`` pins go to the batched engine;
    explicit ``jitpath`` pins are grouped too (the compiled kernels run
    batches member-by-member — no lock-step needed once the frame loop is
    compiled) but only when the compiled path is actually available, so a
    numba-less worker reports the pin mismatch through engine negotiation
    rather than a mid-batch failure.
    """
    if scenario.engine == engine_backends.JITPATH:
        if not jitpath.available():
            return False
    elif scenario.engine not in ("auto", engine_backends.BATCHPATH):
        return False
    if not scenario.config.prefer_fast_path:
        return False
    return _governor_is_closed_loop(scenario)


def plan_batches(
    scenarios: Sequence[ScenarioSpec], batch_size: int
) -> List[WorkUnit]:
    """Group pending scenarios into batched and singleton work units.

    Scenarios are batch-compatible when they share the application factory
    (plus seed override), the cluster factory and the simulation config —
    the cluster spec fixes the physics *and* the thermal mode, so one
    precomputed table serves the whole group.  Compatible closed-loop
    scenarios are grouped (chunked to ``batch_size``) and dispatched to the
    batched engine; everything else stays a singleton.  Eligible scenarios
    are routed through ``batchpath`` *even as a group of one* so the
    ``engine_used`` stamp — and therefore the serialised outcome — does not
    depend on how the campaign was sharded.

    Units are emitted in first-member campaign order, so serial execution
    (and checkpoint growth) tracks the campaign's scenario order.
    """
    if batch_size < 0:
        raise ConfigurationError(f"batch_size must be >= 0, got {batch_size}")
    if batch_size == 0 or batchpath._np is None:
        return [(False, [(index, s)]) for index, s in enumerate(scenarios)]
    groups: "OrderedDict[Tuple, List[Tuple[int, ScenarioSpec]]]" = OrderedDict()
    units: List[Tuple[int, WorkUnit]] = []
    for index, scenario in enumerate(scenarios):
        if _batchable(scenario):
            key = (
                scenario.application,
                scenario.seed,
                scenario.cluster,
                scenario.config,
                # jitpath-pinned scenarios form their own groups: the unit's
                # dispatch engine is decided by its first member.  Constant
                # False for auto/batchpath scenarios, so pre-existing
                # campaigns group (and checkpoint) exactly as before.
                scenario.engine == engine_backends.JITPATH,
            )
            groups.setdefault(key, []).append((index, scenario))
        else:
            units.append((index, (False, [(index, scenario)])))
    for grouped in groups.values():
        for start in range(0, len(grouped), batch_size):
            chunk = grouped[start : start + batch_size]
            units.append((chunk[0][0], (True, chunk)))
    units.sort(key=lambda entry: entry[0])
    return [unit for _, unit in units]


def run_scenario_batch(scenarios: Sequence[ScenarioSpec]) -> List[ScenarioOutcome]:
    """Execute a planned group of compatible scenarios on the batched engine.

    Builds one shared application and a fresh cluster + governor per
    scenario, steps them simultaneously through
    :func:`repro.sim.batchpath.run_batch` (physics tables served by the
    worker cache), then applies each scenario's probe while its governor is
    still live.  Outcomes come back in scenario order, each stamped with
    ``engine_used="batchpath"``.  Exceptions propagate — use
    :func:`run_scenario_batch_safely` for the per-scenario fallback.
    """
    scenarios = list(scenarios)
    first = scenarios[0]
    app_kwargs = dict(first.application.kwargs)
    if first.seed is not None:
        app_kwargs["seed"] = first.seed
    application = registry.application_factory(first.application.name)(**app_kwargs)

    members = []
    for scenario in scenarios:
        cluster = registry.cluster_factory(scenario.cluster.name)(
            **scenario.cluster.kwargs
        )
        governor = registry.governor_factory(scenario.governor.name)(
            **scenario.governor.kwargs
        )
        members.append((cluster, governor))

    provider = _cached_table_provider(first)
    tables = provider(members[0][0], application, first.config)
    if first.engine == engine_backends.JITPATH:
        engine_used = engine_backends.JITPATH
        results = jitpath.run_batch(
            members,
            application,
            first.config,
            tables=tables,
        )
    else:
        engine_used = engine_backends.BATCHPATH
        results = batchpath.run_batch(
            members,
            application,
            first.config,
            tables=tables,
            scalar_cutoffs=batchpath.DEFAULT_SCALAR_CUTOFFS,
        )

    outcomes = []
    for scenario, result, (cluster, governor) in zip(scenarios, results, members):
        result.engine_used = engine_used
        probe_data = None
        if scenario.probe is not None:
            probe = registry.probe_factory(scenario.probe.name)
            probe_data = probe(governor, result, **scenario.probe.kwargs)
        outcomes.append(
            ScenarioOutcome(scenario=scenario, result=result, probe=probe_data)
        )
    return outcomes


def run_scenario_batch_safely(
    scenarios: Sequence[ScenarioSpec],
    max_attempts: int = 1,
    backoff_s: float = 0.0,
    retry: Optional[RetryPolicy] = None,
) -> List[ScenarioOutcome]:
    """Batch execution with per-scenario degradation on failure.

    Any exception from the batched run — one bad scenario, an incompatible
    member the planner mis-grouped, a backend bug — falls back to running
    every member through :func:`run_scenario_safely`, which applies the
    retry policy and records genuinely failing scenarios as ``failed``
    outcomes without poisoning their batch-mates.
    """
    try:
        return run_scenario_batch(scenarios)
    except Exception:  # noqa: BLE001 - degrade to the per-scenario path
        return [
            run_scenario_safely(scenario, max_attempts, backoff_s, retry=retry)
            for scenario in scenarios
        ]


class SerialBackend:
    """Runs scenarios one after another in the calling process."""

    name = "serial"

    def run_unordered(
        self, scenarios: Sequence[ScenarioSpec], retry: RetryPolicy
    ) -> Iterator[Tuple[int, ScenarioOutcome]]:
        units = [(False, [(index, s)]) for index, s in enumerate(scenarios)]
        return self.run_units(units, retry)

    def run_units(
        self, units: Sequence[WorkUnit], retry: RetryPolicy
    ) -> Iterator[Tuple[int, ScenarioOutcome]]:
        for batched, entries in units:
            if batched:
                outcomes = run_scenario_batch_safely(
                    [scenario for _, scenario in entries], retry=retry
                )
                for (index, _), outcome in zip(entries, outcomes):
                    yield index, outcome
            else:
                index, scenario = entries[0]
                yield index, run_scenario_safely(scenario, retry=retry)


class ProcessPoolBackend:
    """Runs scenarios concurrently on a :class:`ProcessPoolExecutor`.

    ``max_workers`` defaults to the machine's CPU count capped by the
    number of scenarios.  Outcomes are yielded in *completion* order (the
    executor re-orders them), so incremental checkpoints are never held up
    by a slow early scenario; retries happen inside the worker process.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be a positive integer")
        self.max_workers = max_workers

    def run_unordered(
        self, scenarios: Sequence[ScenarioSpec], retry: RetryPolicy
    ) -> Iterator[Tuple[int, ScenarioOutcome]]:
        units = [(False, [(index, s)]) for index, s in enumerate(scenarios)]
        return self.run_units(units, retry)

    def run_units(
        self, units: Sequence[WorkUnit], retry: RetryPolicy
    ) -> Iterator[Tuple[int, ScenarioOutcome]]:
        if not units:
            return
        workers = self.max_workers or min(len(units), os.cpu_count() or 1)
        workers = min(workers, len(units))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for batched, entries in units:
                if batched:
                    future = pool.submit(
                        run_scenario_batch_safely,
                        [scenario for _, scenario in entries],
                        retry=retry,
                    )
                else:
                    future = pool.submit(
                        run_scenario_safely, entries[0][1], retry=retry
                    )
                futures[future] = (batched, [index for index, _ in entries])
            try:
                remaining = set(futures)
                while remaining:
                    completed, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in completed:
                        batched, indices = futures[future]
                        if batched:
                            for index, outcome in zip(indices, future.result()):
                                yield index, outcome
                        else:
                            yield indices[0], future.result()
            except BaseException:
                # Run abandoned — GeneratorExit from the consumer, Ctrl-C
                # landing in wait(), or a broken pool: drop the queued
                # scenarios instead of draining them during pool shutdown.
                pool.shutdown(wait=False, cancel_futures=True)
                raise


#: Backend registry used by :class:`CampaignExecutor` and the CLI.
BACKENDS = ("serial", "process")


def make_backend(backend: str, max_workers: Optional[int] = None):
    """Build a backend by name (``"serial"`` or ``"process"``)."""
    if backend == "serial":
        return SerialBackend()
    if backend == "process":
        return ProcessPoolBackend(max_workers=max_workers)
    raise ConfigurationError(f"unknown campaign backend {backend!r}; expected one of {BACKENDS}")


class CampaignExecutor:
    """Runs campaigns on a pluggable backend with resume and checkpointing."""

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        batch_size: int = 0,
    ) -> None:
        if batch_size < 0:
            raise ConfigurationError(f"batch_size must be >= 0, got {batch_size}")
        self.backend = make_backend(backend, max_workers)
        self.retry = retry or RetryPolicy()
        self.batch_size = batch_size

    def run(
        self,
        campaign: CampaignSpec,
        resume: Optional[CampaignResult] = None,
        progress: Optional[ProgressCallback] = None,
        checkpoint_path: Optional[str] = None,
    ) -> CampaignResult:
        """Execute every scenario of ``campaign`` still pending in ``resume``.

        Parameters
        ----------
        campaign:
            The campaign to run.
        resume:
            A previously saved (possibly partial) result store; scenarios
            it already records as ``done`` are skipped and their stored
            outcomes carried over, while ``failed`` ones are re-run.
        progress:
            Optional callback invoked after each newly executed scenario
            with ``(label, completed_count, total_pending)``.
        checkpoint_path:
            When given, completed work is persisted to this path as the
            campaign runs, as a columnar store
            (:mod:`repro.campaign.store`): seeded atomically with the
            resume state before the first scenario runs, then each outcome
            is *appended and flushed* as it completes (O(1) per scenario,
            never O(campaign)), so whatever stops the run — Ctrl-C (which
            is re-raised as :class:`CampaignInterrupted` carrying the
            partial store), a broken worker pool, a crashing progress
            callback — every completion is already on disk.  Finally the
            file is atomically rewritten once in campaign order; it loads
            to the same :meth:`CampaignResult.to_dict` as the returned
            store.

        Returns
        -------
        CampaignResult
            A store with one outcome per campaign scenario, in the
            campaign's scenario order — bit-identical across backends and
            across interrupted-then-resumed runs.
        """
        store = CampaignResult(campaign_name=campaign.name)
        if resume is not None:
            for outcome in resume:
                store.add(outcome)
        pending: List[ScenarioSpec] = store.pending(campaign)
        units = plan_batches(pending, self.batch_size)
        writer: Optional[result_store.StoreWriter] = None
        completed = 0
        try:
            if checkpoint_path is not None:
                writer = result_store.seed_store(store, checkpoint_path)
            for _, outcome in self.backend.run_units(units, self.retry):
                store.add(outcome)
                if writer is not None:
                    writer.append(outcome)
                completed += 1
                if progress is not None:
                    progress(outcome.label, completed, len(pending))
            ordered = store.ordered_for(campaign)
            if writer is not None:
                writer.close()
                result_store.save_store(ordered, checkpoint_path)
        except KeyboardInterrupt as exc:
            raise CampaignInterrupted(campaign, store, checkpoint_path) from exc
        finally:
            if writer is not None:
                writer.close()
        return ordered


def run_campaign(
    campaign: CampaignSpec,
    backend: str = "serial",
    max_workers: Optional[int] = None,
    resume: Optional[CampaignResult] = None,
    retry: Optional[RetryPolicy] = None,
    checkpoint_path: Optional[str] = None,
    batch_size: int = 0,
) -> CampaignResult:
    """One-call convenience wrapper around :class:`CampaignExecutor`."""
    return CampaignExecutor(
        backend=backend,
        max_workers=max_workers,
        retry=retry,
        batch_size=batch_size,
    ).run(campaign, resume=resume, checkpoint_path=checkpoint_path)
