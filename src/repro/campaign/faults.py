"""Deterministic fault injection for the distributed campaign service.

The service's headline claim — any fault schedule yields a merged
:class:`~repro.campaign.results.CampaignResult` bit-identical to an
unsharded serial run, with no scenario lost or run-but-unrecorded — is
only worth trusting if it is *proved*, repeatedly, against adversarial
schedules.  This module is that proof harness.

:func:`run_with_faults` runs a campaign through a real
:class:`~repro.campaign.service.Coordinator` and simulated worker sites,
entirely in-process and without threads: workers are explicit state
machines stepped round-robin, time is a :class:`FakeClock` the scheduler
advances only when every worker is blocked, and scenario outcomes are
computed by the *real* :func:`~repro.campaign.executor.run_scenario_safely`
(the simulation itself is deterministic, so when its result lands is
independent of what it contains).  Requests and responses take a JSON
round-trip, exactly like the wire.

Faults are injected at **seeded, deterministic points** described by a
:class:`FaultSchedule`:

* ``crash-worker`` — the worker dies after computing a result but before
  submitting it (the classic lost-work window); its lease expires and the
  scenario is requeued.
* ``drop-response`` — a submit is swallowed by the network; the worker
  retries (at-least-once delivery).
* ``duplicate-response`` — a submit is delivered twice; the coordinator
  must flag the second as a duplicate and drop it.
* ``lose-heartbeats`` — the worker stops heartbeating from its next lease
  on; long scenarios outlive their lease, get requeued and re-run
  elsewhere, and the original's late submit must be reconciled
  first-wins.
* ``restart-coordinator`` — the coordinator is discarded after an
  accepted submit and rebuilt from its journal; in-flight leases vanish
  and late submits arrive bearing lease ids the new coordinator has
  never issued.

Every schedule — hand-written or :meth:`FaultSchedule.random` from a seed
— must end with :attr:`FaultRunReport.result` equal, as JSON bytes, to
``run_campaign(campaign, backend="serial")``.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ServiceError
from repro.campaign.executor import RetryPolicy, run_scenario_safely
from repro.campaign.results import CampaignResult, ScenarioOutcome
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.campaign.service import (
    STATE_DRAINED,
    STATE_GRANTED,
    STATE_WAIT,
    Coordinator,
    dispatch_op,
)

#: The injectable fault kinds, in a stable order (used by seeded schedules).
FAULT_KINDS = (
    "crash-worker",
    "drop-response",
    "duplicate-response",
    "lose-heartbeats",
    "restart-coordinator",
)


@dataclass(frozen=True)
class FaultEvent:
    """One injection point: the ``at``-th occurrence of ``kind``'s trigger.

    Triggers are counted globally per kind — lease grants for
    ``lose-heartbeats``, completed computations for ``crash-worker``,
    submit attempts for ``drop-response``, accepted submits for
    ``duplicate-response`` and ``restart-coordinator``.  ``worker``
    restricts the event to one site (``None`` = whichever site hits the
    trigger count).
    """

    kind: str
    at: int
    worker: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at < 1:
            raise ConfigurationError(f"fault trigger index must be >= 1, got {self.at}")


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable set of fault events, optionally derived from a seed."""

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None

    @classmethod
    def of(cls, *events: FaultEvent) -> "FaultSchedule":
        return cls(events=tuple(events))

    @classmethod
    def random(
        cls,
        seed: int,
        count: int = 4,
        kinds: Sequence[str] = FAULT_KINDS,
        horizon: int = 3,
    ) -> "FaultSchedule":
        """A deterministic schedule drawn from ``seed``.

        ``count`` events are sampled with kinds from ``kinds`` and trigger
        indices in ``[1, horizon]`` — the same seed always produces the
        same schedule, so a failing seed is a reproducible regression.
        """
        rng = random.Random(seed)
        events = tuple(
            FaultEvent(kind=rng.choice(list(kinds)), at=rng.randint(1, horizon))
            for _ in range(count)
        )
        return cls(events=events, seed=seed)


@dataclass
class FaultRunReport:
    """What a fault-injected run did, alongside its final result."""

    result: CampaignResult
    fired: List[FaultEvent]
    restarts: int
    respawned: int
    duplicates_acknowledged: int
    coordinator_stats: Dict[str, int]
    events_log: List[str] = field(default_factory=list)


class FakeClock:
    """A manually advanced monotonic clock shared by coordinator and scheduler."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance_to(self, moment: float) -> None:
        self.now = max(self.now, moment)


class _Injector:
    """Counts trigger points per fault kind and fires matching events."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.counters: Dict[str, int] = {}
        self.fired: List[FaultEvent] = []

    def fires(self, kind: str, worker: Optional[str] = None) -> bool:
        count = self.counters.get(kind, 0) + 1
        self.counters[kind] = count
        for event in self.schedule.events:
            if (
                event.kind == kind
                and event.at == count
                and (event.worker is None or event.worker == worker)
                and event not in self.fired
            ):
                self.fired.append(event)
                return True
        return False


class _BoxClient:
    """Client bound to a mutable coordinator slot (survives restarts).

    Mirrors :class:`~repro.campaign.service.LocalClient`'s JSON round-trip
    so the harness exercises exactly the wire encoding.
    """

    def __init__(self, box: Dict[str, Coordinator]) -> None:
        self.box = box

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        wire = json.loads(json.dumps(request))
        return json.loads(json.dumps(dispatch_op(self.box["coordinator"], wire)))


class _SimWorker:
    """One simulated worker site, stepped synchronously by the harness."""

    def __init__(
        self,
        worker_id: str,
        harness: "_Harness",
    ) -> None:
        self.worker_id = worker_id
        self.harness = harness
        self.client = _BoxClient(harness.box)
        self.alive = True
        self.heartbeats = True
        self.lease_id: Optional[str] = None
        self.outcome: Optional[ScenarioOutcome] = None
        self.ready_at = 0.0
        self.next_poll_at = 0.0

    # Each step performs at most one protocol interaction and reports
    # whether the worker advanced; False means it is blocked on time.
    def step(self) -> bool:
        if not self.alive:
            return False
        clock = self.harness.clock
        if self.lease_id is None:
            if clock.now < self.next_poll_at:
                return False
            return self._try_lease()
        if clock.now < self.ready_at:
            if self.heartbeats:
                self.client.call(
                    {
                        "op": "heartbeat",
                        "worker": self.worker_id,
                        "leases": [self.lease_id],
                    }
                )
            return False
        return self._complete()

    def _try_lease(self) -> bool:
        response = self.client.call({"op": "lease", "worker": self.worker_id})
        state = response.get("state")
        if state == STATE_DRAINED:
            self.alive = False
            self.harness.log(f"{self.worker_id}: drained, retiring")
            return True
        if state == STATE_WAIT:
            self.next_poll_at = self.harness.clock.now + float(
                response.get("retry_after_s", 0.1)
            )
            return False
        assert state == STATE_GRANTED, f"unexpected lease state {state!r}"
        lease = response["leases"][0]
        self.lease_id = lease["lease_id"]
        scenario = ScenarioSpec.from_dict(lease["scenario"])
        if self.harness.injector.fires("lose-heartbeats", self.worker_id):
            self.heartbeats = False
            self.harness.log(f"{self.worker_id}: heartbeats lost")
        # The simulation itself is deterministic, so computing the outcome
        # eagerly does not depend on fault timing — only on the spec.
        self.outcome = run_scenario_safely(scenario, retry=self.harness.worker_retry)
        self.ready_at = self.harness.clock.now + self.harness.work_time_s
        return True

    def _complete(self) -> bool:
        injector = self.harness.injector
        if injector.fires("crash-worker", self.worker_id):
            self.harness.log(
                f"{self.worker_id}: crashed before submitting "
                f"{self.outcome.label!r}"
            )
            self.alive = False
            self.lease_id = None
            self.outcome = None
            return True
        # At-least-once delivery: swallowed submits are retried until one
        # gets through (each swallow consumes a drop-response trigger).
        while injector.fires("drop-response", self.worker_id):
            self.harness.log(
                f"{self.worker_id}: submit of {self.outcome.label!r} dropped"
            )
        request = {
            "op": "submit",
            "worker": self.worker_id,
            "lease_id": self.lease_id,
            "outcome": self.outcome.to_dict(),
        }
        response = self.client.call(request)
        assert response.get("ok"), response
        if response.get("accepted"):
            self.harness.on_accepted_submit()
        if injector.fires("duplicate-response", self.worker_id):
            echo = self.client.call(request)
            assert echo.get("ok"), echo
            assert echo.get("duplicate") is True, (
                "re-delivered response was not flagged as a duplicate"
            )
            self.harness.duplicates_acknowledged += 1
            self.harness.log(
                f"{self.worker_id}: duplicated submit of {self.outcome.label!r}"
            )
        self.lease_id = None
        self.outcome = None
        return True


class _Harness:
    """Round-robin scheduler over simulated workers and a fake clock."""

    def __init__(
        self,
        campaign: CampaignSpec,
        schedule: FaultSchedule,
        num_workers: int,
        retry: RetryPolicy,
        worker_retry: Optional[RetryPolicy],
        lease_timeout_s: float,
        work_time_s: float,
        journal_path: Optional[str],
    ) -> None:
        self.campaign = campaign
        self.injector = _Injector(schedule)
        self.retry = retry
        self.worker_retry = worker_retry
        self.lease_timeout_s = lease_timeout_s
        self.work_time_s = work_time_s
        self.journal_path = journal_path
        self.clock = FakeClock()
        self.box: Dict[str, Coordinator] = {
            "coordinator": self._make_coordinator()
        }
        self.workers = [
            _SimWorker(f"w{index}", self) for index in range(num_workers)
        ]
        self.restarts = 0
        self.respawned = 0
        self.duplicates_acknowledged = 0
        self.events_log: List[str] = []

    def _make_coordinator(self) -> Coordinator:
        return Coordinator(
            self.campaign,
            retry=self.retry,
            lease_timeout_s=self.lease_timeout_s,
            journal_path=self.journal_path,
            clock=self.clock,
        )

    @property
    def coordinator(self) -> Coordinator:
        return self.box["coordinator"]

    def log(self, message: str) -> None:
        self.events_log.append(f"t={self.clock.now:.2f} {message}")

    def on_accepted_submit(self) -> None:
        if self.injector.fires("restart-coordinator"):
            if self.journal_path is None:  # pragma: no cover - guarded by caller
                raise ConfigurationError(
                    "restart-coordinator faults need a journal_path"
                )
            self.restarts += 1
            self.log("coordinator restarted from journal")
            # Every transition already flushed its appends, so closing the
            # old writer leaves the bytes a crash would.
            self.coordinator.close_journal()
            self.box["coordinator"] = self._make_coordinator()

    def _respawn(self) -> None:
        self.respawned += 1
        worker = _SimWorker(f"respawn{self.respawned}", self)
        self.workers.append(worker)
        self.log(f"{worker.worker_id}: spawned (elastic scale-up)")

    def _advance(self) -> None:
        """Jump the fake clock to the next moment anything can happen."""
        candidates: List[float] = []
        for worker in self.workers:
            if not worker.alive:
                continue
            if worker.lease_id is not None:
                candidates.append(worker.ready_at)
            else:
                candidates.append(worker.next_poll_at)
        deadline = self.coordinator.next_deadline()
        if deadline is not None:
            candidates.append(deadline)
        future = [moment for moment in candidates if moment > self.clock.now]
        if not future:
            raise ServiceError(
                "fault harness deadlocked: no worker can progress and no "
                "coordinator deadline is pending"
            )
        self.clock.advance_to(min(future))
        self.coordinator.tick()

    def run(self) -> FaultRunReport:
        while not self.coordinator.finished:
            progressed = False
            for worker in list(self.workers):
                progressed = worker.step() or progressed
            if self.coordinator.finished:
                break
            if not any(worker.alive for worker in self.workers):
                self._respawn()
                continue
            if not progressed:
                self._advance()
        return FaultRunReport(
            result=self.coordinator.result(),
            fired=list(self.injector.fired),
            restarts=self.restarts,
            respawned=self.respawned,
            duplicates_acknowledged=self.duplicates_acknowledged,
            coordinator_stats=dict(self.coordinator.stats),
            events_log=self.events_log,
        )


def run_with_faults(
    campaign: CampaignSpec,
    schedule: FaultSchedule,
    num_workers: int = 2,
    retry: Optional[RetryPolicy] = None,
    worker_retry: Optional[RetryPolicy] = None,
    lease_timeout_s: float = 5.0,
    work_time_s: float = 8.0,
    journal_path: Optional[str] = None,
) -> FaultRunReport:
    """Run ``campaign`` through the service under an adversarial schedule.

    Defaults make every fault kind observable: the simulated per-scenario
    work time exceeds the lease timeout, so a worker that stops
    heartbeating loses its lease mid-computation, while heartbeating
    workers keep theirs alive indefinitely.  The delivery policy defaults
    to a generous attempt budget so bounded fault schedules never exhaust
    a scenario (an exhausted scenario is *supposed* to differ from the
    serial run — it records a failure).

    When the schedule contains ``restart-coordinator`` events and no
    ``journal_path`` is given, a temporary journal is created (restarts
    resume from the journal; that is the point of the fault).
    """
    if num_workers < 1:
        raise ConfigurationError(f"num_workers must be >= 1, got {num_workers}")
    needs_journal = any(
        event.kind == "restart-coordinator" for event in schedule.events
    )
    temp_journal = journal_path is None and needs_journal
    if temp_journal:
        handle = tempfile.NamedTemporaryFile(
            prefix="campaign-fault-journal-", suffix=".json", delete=False
        )
        handle.close()
        journal_path = handle.name
        # The journal must start absent so the first coordinator begins fresh.
        os.unlink(journal_path)
    harness = _Harness(
        campaign=campaign,
        schedule=schedule,
        num_workers=num_workers,
        retry=retry
        or RetryPolicy(max_attempts=10, backoff_s=0.5, backoff_cap_s=30.0),
        worker_retry=worker_retry,
        lease_timeout_s=lease_timeout_s,
        work_time_s=work_time_s,
        journal_path=journal_path,
    )
    try:
        return harness.run()
    finally:
        harness.coordinator.close_journal()
        if temp_journal:
            for path in (journal_path, f"{journal_path}.outcomes"):
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
