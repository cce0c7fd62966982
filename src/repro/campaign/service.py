"""Fault-tolerant distributed campaign service: coordinator + worker sites.

The campaign runtime shards across machines only by hand (``--shard I/N``
+ ``merge``); this module adds the long-running layer that survives worker
crashes, network partitions and ``kill -9``:

* :class:`Coordinator` — the server-side state machine.  It holds the
  queue of pending :class:`~repro.campaign.spec.ScenarioSpec` ids and
  hands scenarios out as **leases with deadlines**; workers extend their
  leases with **heartbeats**, and a reaper (run lazily on every operation
  and explicitly via :meth:`Coordinator.tick`) requeues work whose lease
  expired — a dead or partitioned worker therefore delays its scenarios,
  never loses them.  Requeues are bounded by a
  :class:`~repro.campaign.executor.RetryPolicy` whose capped exponential
  backoff + deterministic jitter sets each requeued scenario's
  not-before time.  Every state transition is journalled: each accepted
  outcome is one O(1) append to a columnar
  :mod:`~repro.campaign.store` file, and delivery-attempt counts live in
  a small meta file rewritten atomically (write-temp + ``os.replace``),
  so the coordinator can crash and resume mid-campaign (corrupt
  journals are quarantined, not fatal).  Results are accepted
  *first-wins* by scenario id: duplicated or late responses (a partition
  healing after its lease was requeued) are acknowledged and dropped,
  which keeps the final store identical to an unsharded serial run —
  every scenario is fully determined by its spec.
* :class:`CoordinatorServer` / :class:`HTTPClient` — a minimal
  JSON-over-HTTP transport on the stdlib ``http.server`` /
  ``urllib.request`` (no new dependencies, mirroring the optional-dep
  pattern in :mod:`repro._compat`).  :class:`LocalClient` speaks the same
  protocol in-process (with a JSON round-trip, so wire behaviour and
  local behaviour cannot drift), which is what the fault-injection
  harness in :mod:`repro.campaign.faults` instruments.
* :class:`WorkerSite` — the pull-based worker loop.  It leases work,
  executes it through the *existing* campaign executor machinery (any
  registered executor backend: :class:`~repro.campaign.executor.SerialBackend`
  by default, the process pool via ``backend="process"``), heartbeats
  while computing, and submits outcomes.  A connection refused degrades
  gracefully: bounded reconnect with exponential backoff, then a local
  atomic checkpoint of in-flight results (``fallback_path``) that
  ``repro-campaign merge`` folds back in later.
* :func:`run_campaign_service` — one-call convenience that runs a
  coordinator plus N in-process worker threads and returns the ordered
  :class:`~repro.campaign.results.CampaignResult`, bit-identical to
  ``run_campaign(campaign, backend="serial")``.

Workers are elastic: a site can join (``repro-campaign work``) or vanish
at any point of a running campaign.  The protocol is four idempotent
operations (``lease`` / ``heartbeat`` / ``submit`` / ``status``) carried
as JSON objects, so third-party sites need nothing beyond an HTTP POST.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple
from urllib import request as urllib_request

from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.campaign import store as result_store
from repro.campaign.executor import RetryPolicy, make_backend
from repro.campaign.results import (
    CORRUPT_CHECKPOINT_ERRORS,
    CampaignResult,
    ScenarioOutcome,
    quarantine_corrupt_file,
)
from repro.campaign.spec import CampaignSpec, ScenarioSpec

#: Lease-grant response states.
STATE_GRANTED = "granted"
STATE_WAIT = "wait"
STATE_DRAINED = "drained"

#: Default seconds a lease lives without a heartbeat.
DEFAULT_LEASE_TIMEOUT_S = 60.0

#: Default delivery policy: how often a scenario may be re-leased after its
#: worker died, and on what backoff schedule.  Distinct from the *worker's*
#: in-process retry policy around genuinely crashing scenarios.
DEFAULT_DELIVERY_RETRY = RetryPolicy(
    max_attempts=5, backoff_s=0.5, backoff_cap_s=30.0
)


@dataclass
class _Lease:
    """One outstanding grant of a scenario to a worker."""

    lease_id: str
    scenario_id: str
    worker: str
    deadline: float  # coordinator-clock time after which the lease is dead


@dataclass
class ServiceEvent:
    """One coordinator state transition, for live progress streaming."""

    kind: str  # "done" | "failed" | "requeued" | "expired-failed"
    label: str
    worker: str
    done: int
    total: int


class Coordinator:
    """Server-side state machine of the distributed campaign service.

    All public methods are thread-safe (the HTTP transport serves from a
    thread pool) and take their timestamps from the injected ``clock``
    callable, which the fault-injection harness replaces with a fake
    clock to make lease expiry and backoff fully deterministic.

    Parameters
    ----------
    campaign:
        The campaign to serve.
    retry:
        Delivery policy: how many times a scenario may be *leased* (a
        worker that dies or partitions consumes one delivery attempt when
        its lease expires) and the backoff schedule of requeues.  A
        scenario whose deliveries are exhausted is recorded as ``failed``.
        Note this is separate from the workers' in-process retry policy —
        a worker-reported ``failed`` outcome (scenario code raised on
        every attempt) is a *successful delivery* and is final.
    lease_timeout_s:
        Seconds a lease survives without a heartbeat.
    journal_path:
        When given, every state transition persists the service state; an
        existing journal is resumed from on construction —
        ``done``/``failed`` outcomes carry over (failed ones with
        deliveries left are re-queued, mirroring the executor's resume
        semantics), so the coordinator survives its own crash or restart.
        A corrupt journal is quarantined with a warning and the campaign
        restarts from scratch.  Outcomes go to an append-only columnar
        store at ``<journal_path>.outcomes`` (O(1) per completion), next
        to a small atomically rewritten meta file at ``journal_path`` itself
        holding the campaign name and delivery attempts.  A monolithic
        JSON journal written by an older release is still read, and is
        rewritten in this layout.
    resume:
        Optional result store whose outcomes seed the coordinator (e.g. a
        previous run's ``--output``); applied before the journal.
    clock:
        Monotonic time source (seconds).
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        retry: Optional[RetryPolicy] = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        journal_path: Optional[str] = None,
        resume: Optional[CampaignResult] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ConfigurationError(
                f"lease_timeout_s must be positive, got {lease_timeout_s}"
            )
        self.campaign = campaign
        self.retry = retry or DEFAULT_DELIVERY_RETRY
        self.lease_timeout_s = lease_timeout_s
        self.journal_path = journal_path
        self._journal_writer: Optional[result_store.StoreWriter] = None
        self._clock = clock
        self._lock = threading.RLock()
        self._scenarios: Dict[str, ScenarioSpec] = {
            scenario.scenario_id: scenario for scenario in campaign.scenarios
        }
        self.store = CampaignResult(campaign_name=campaign.name)
        #: scenario_id -> delivery attempts consumed (leases granted).
        self._attempts: Dict[str, int] = {}
        #: scenario_id -> coordinator-clock time before which it may not lease.
        self._not_before: Dict[str, float] = {}
        self._leases: Dict[str, _Lease] = {}
        self._lease_by_scenario: Dict[str, str] = {}
        self._lease_counter = 0
        self._workers_seen: Dict[str, float] = {}
        self._events: Deque[ServiceEvent] = deque()
        self.stats = {
            "granted": 0,
            "requeued": 0,
            "duplicates": 0,
            "expired_failed": 0,
            "resumed": 0,
        }

        seeded: List[CampaignResult] = []
        if resume is not None:
            seeded.append(resume)
        if journal_path is not None:
            journalled = self._load_journal(journal_path)
            if journalled is not None:
                seeded.append(journalled)
        for store in seeded:
            for outcome in store:
                if outcome.scenario_id in self._scenarios:
                    self.store.add(outcome)
                    self.stats["resumed"] += 1
        # Failed outcomes with delivery budget left are re-run, like the
        # executor's resume; exhausted ones stay final.
        for outcome in list(self.store):
            if not outcome.ok and self._attempts.get(
                outcome.scenario_id, 0
            ) < self.retry.max_attempts:
                del self.store.outcomes[outcome.scenario_id]
        self._queue: Deque[str] = deque(
            scenario.scenario_id
            for scenario in campaign.scenarios
            if scenario.scenario_id not in self.store.outcomes
        )
        if journal_path is not None:
            # Seed the append-only outcomes store once (atomic rewrite of
            # whatever survived resume + requeue pruning), then every
            # completed scenario is a single O(1) append.
            self._journal_writer = result_store.seed_store(
                self.store, self._outcomes_path()
            )
            self._write_journal_meta()

    # -- persistence --------------------------------------------------------------
    def _outcomes_path(self) -> str:
        """The append-only outcomes store living next to the meta journal."""
        return f"{self.journal_path}.outcomes"

    def _load_journal(self, path: str) -> Optional[CampaignResult]:
        """Restore results + delivery-attempt counts from a journal file."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.loads(handle.read())
            if data.get("outcomes") == "store":
                # Columnar journal: outcomes live in the sidecar store
                # (a torn tail there is salvaged + quarantined).
                store = result_store.load_store_checkpoint(self._outcomes_path())
                if store is None:
                    store = CampaignResult(campaign_name=str(data["campaign_name"]))
            else:
                # Monolithic JSON journal written by an older release.
                store = CampaignResult.from_dict(data["results"])
            attempts = {str(k): int(v) for k, v in data.get("attempts", {}).items()}
        except FileNotFoundError:
            return None
        except CORRUPT_CHECKPOINT_ERRORS as exc:
            quarantine_corrupt_file(path, exc)
            return None
        self._attempts.update(attempts)
        return store

    def _record_outcome(self, outcome: ScenarioOutcome) -> None:
        """Store an outcome and append it to the journal's outcomes store."""
        self.store.add(outcome)
        if self._journal_writer is not None:
            self._journal_writer.append(outcome)

    def _write_journal_meta(self) -> None:
        """Atomically rewrite the small meta file of the journal."""
        data = {
            "campaign_name": self.campaign.name,
            "attempts": self._attempts,
            "outcomes": "store",
        }
        temp_path = f"{self.journal_path}.tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(data))
        os.replace(temp_path, self.journal_path)

    def _journal(self) -> None:
        """Persist the service state after a transition.

        Outcomes are already on disk (each append flushes); this
        atomically rewrites the meta file (campaign name + delivery
        attempts), which does not grow with the frames journalled.
        """
        if self._journal_writer is not None:
            self._write_journal_meta()

    def close_journal(self) -> None:
        """Flush and close the journal's append-only writer (idempotent)."""
        with self._lock:
            if self._journal_writer is None:
                return
            self._journal_writer.close()
            self._journal_writer = None

    # -- bookkeeping --------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether every campaign scenario has a final outcome."""
        with self._lock:
            return all(sid in self.store.outcomes for sid in self._scenarios)

    def _emit(self, kind: str, scenario_id: str, worker: str) -> None:
        self._events.append(
            ServiceEvent(
                kind=kind,
                label=self._scenarios[scenario_id].label,
                worker=worker,
                done=len(self.store),
                total=len(self.campaign),
            )
        )

    def drain_events(self) -> List[ServiceEvent]:
        """Return (and clear) the transitions since the previous drain."""
        with self._lock:
            events = list(self._events)
            self._events.clear()
            return events

    def _reap(self, now: float) -> None:
        """Requeue (or terminally fail) scenarios whose lease expired."""
        expired = [
            lease for lease in self._leases.values() if lease.deadline <= now
        ]
        for lease in expired:
            del self._leases[lease.lease_id]
            self._lease_by_scenario.pop(lease.scenario_id, None)
            sid = lease.scenario_id
            if sid in self.store.outcomes:
                continue  # a (late) result already landed
            used = self._attempts.get(sid, 0)
            if used >= self.retry.max_attempts:
                self._record_outcome(
                    ScenarioOutcome.failure(
                        self._scenarios[sid],
                        error=(
                            f"ServiceError: lease expired after {used} delivery "
                            f"attempt(s); worker {lease.worker!r} presumed dead"
                        ),
                        traceback_text="",
                        attempts=used,
                    )
                )
                self.stats["expired_failed"] += 1
                self._emit("expired-failed", sid, lease.worker)
            else:
                self._not_before[sid] = now + self.retry.delay_for(used, sid)
                self._queue.append(sid)
                self.stats["requeued"] += 1
                self._emit("requeued", sid, lease.worker)
            self._journal()

    def tick(self) -> None:
        """Reap expired leases now.

        The serving loop calls this on a timer so partitioned workers are
        detected even when no other operation arrives.
        """
        with self._lock:
            self._reap(self._clock())

    def next_deadline(self) -> Optional[float]:
        """Earliest clock time at which coordinator state changes by itself.

        The minimum over outstanding lease deadlines and backoff
        not-before times of queued scenarios — the fault harness's fake
        scheduler (and any event-driven serving loop) advances time to
        this point when every worker is blocked.  ``None`` when nothing
        is pending.
        """
        with self._lock:
            candidates = [lease.deadline for lease in self._leases.values()]
            candidates.extend(
                self._not_before[sid] for sid in self._queue if sid in self._not_before
            )
            return min(candidates) if candidates else None

    # -- protocol operations ------------------------------------------------------
    def lease(self, worker: str, count: int = 1) -> Dict[str, Any]:
        """Grant up to ``count`` scenario leases to ``worker``."""
        if count < 1:
            raise ConfigurationError(f"lease count must be >= 1, got {count}")
        with self._lock:
            now = self._clock()
            self._workers_seen[worker] = now
            self._reap(now)
            granted: List[Dict[str, Any]] = []
            delayed: List[str] = []
            while self._queue and len(granted) < count:
                sid = self._queue.popleft()
                if sid in self.store.outcomes or sid in self._lease_by_scenario:
                    continue  # stale queue entry
                if self._not_before.get(sid, 0.0) > now:
                    delayed.append(sid)
                    continue
                self._attempts[sid] = self._attempts.get(sid, 0) + 1
                self._lease_counter += 1
                lease = _Lease(
                    lease_id=f"L{self._lease_counter}",
                    scenario_id=sid,
                    worker=worker,
                    deadline=now + self.lease_timeout_s,
                )
                self._leases[lease.lease_id] = lease
                self._lease_by_scenario[sid] = lease.lease_id
                self.stats["granted"] += 1
                granted.append(
                    {
                        "lease_id": lease.lease_id,
                        "scenario": self._scenarios[sid].to_dict(),
                        "deadline_s": self.lease_timeout_s,
                    }
                )
            self._queue.extend(delayed)
            if granted:
                self._journal()
                return {
                    "ok": True,
                    "state": STATE_GRANTED,
                    "campaign": self.campaign.name,
                    "leases": granted,
                }
            if self.finished:
                return {"ok": True, "state": STATE_DRAINED}
            # Backoff-delayed work (or work leased to other workers): tell
            # the worker when it is worth asking again.
            wait_s = self.lease_timeout_s
            for sid in self._queue:
                wait_s = min(wait_s, max(self._not_before.get(sid, 0.0) - now, 0.0))
            for lease in self._leases.values():
                wait_s = min(wait_s, max(lease.deadline - now, 0.0))
            return {
                "ok": True,
                "state": STATE_WAIT,
                "retry_after_s": max(wait_s, 0.05),
            }

    def heartbeat(self, worker: str, lease_ids: List[str]) -> Dict[str, Any]:
        """Extend the deadlines of ``worker``'s live leases."""
        with self._lock:
            now = self._clock()
            self._workers_seen[worker] = now
            self._reap(now)
            unknown: List[str] = []
            for lease_id in lease_ids:
                lease = self._leases.get(lease_id)
                if lease is None or lease.worker != worker:
                    unknown.append(lease_id)
                else:
                    lease.deadline = now + self.lease_timeout_s
            return {"ok": True, "unknown": unknown, "drained": self.finished}

    def submit(
        self, worker: str, lease_id: Optional[str], outcome: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """Record a scenario outcome (idempotent; first result wins).

        A duplicated response, or a late one arriving after the lease was
        reaped and the scenario re-leased, is acknowledged and dropped:
        scenarios are deterministic functions of their spec, so the first
        recorded outcome is *the* outcome.
        """
        parsed = ScenarioOutcome.from_dict(outcome)
        with self._lock:
            now = self._clock()
            self._workers_seen[worker] = now
            sid = parsed.scenario_id
            if sid not in self._scenarios:
                return {
                    "ok": False,
                    "error": f"unknown scenario id {sid!r} "
                    f"for campaign {self.campaign.name!r}",
                }
            if lease_id is not None:
                lease = self._leases.pop(lease_id, None)
                if lease is not None:
                    self._lease_by_scenario.pop(lease.scenario_id, None)
            duplicate = sid in self.store.outcomes
            if duplicate:
                self.stats["duplicates"] += 1
            else:
                # The scenario may sit requeued (its lease expired before
                # this late submit landed): drop the stale queue entry.
                if sid in self._queue:
                    self._queue = deque(x for x in self._queue if x != sid)
                self._not_before.pop(sid, None)
                stale_lease = self._lease_by_scenario.pop(sid, None)
                if stale_lease is not None:
                    self._leases.pop(stale_lease, None)
                self._record_outcome(parsed)
                self._journal()
                self._emit("done" if parsed.ok else "failed", sid, worker)
            self._reap(now)
            return {
                "ok": True,
                "accepted": not duplicate,
                "duplicate": duplicate,
                "drained": self.finished,
            }

    def status(self, include_summary: bool = False) -> Dict[str, Any]:
        """Counts, worker liveness and (optionally) the live summary table."""
        with self._lock:
            now = self._clock()
            self._reap(now)
            done = sum(1 for outcome in self.store if outcome.ok)
            failed = len(self.store) - done
            payload: Dict[str, Any] = {
                "ok": True,
                "campaign": self.campaign.name,
                "total": len(self.campaign),
                "done": done,
                "failed": failed,
                "leased": len(self._leases),
                "pending": len(self._queue),
                "drained": self.finished,
                "workers": {
                    worker: round(now - seen, 3)
                    for worker, seen in self._workers_seen.items()
                },
                "stats": dict(self.stats),
            }
            if include_summary and len(self.store):
                from repro.analysis.reporting import format_campaign_summary

                payload["summary"] = format_campaign_summary(self.store)
            return payload

    # -- results ------------------------------------------------------------------
    def result(self) -> CampaignResult:
        """The completed store in campaign order.

        Raises :class:`~repro.errors.ServiceError` while scenarios are
        still outstanding.
        """
        with self._lock:
            if not self.finished:
                missing = len(self.campaign) - len(self.store)
                raise ServiceError(
                    f"campaign {self.campaign.name!r} still has {missing} "
                    f"scenario(s) without a final outcome"
                )
            return self.store.ordered_for(self.campaign)


def dispatch_op(coordinator: Coordinator, request: Mapping[str, Any]) -> Dict[str, Any]:
    """Route one protocol request to the coordinator (shared by transports)."""
    op = request.get("op")
    worker = str(request.get("worker", "?"))
    try:
        if op == "lease":
            return coordinator.lease(worker, int(request.get("count", 1)))
        if op == "heartbeat":
            return coordinator.heartbeat(worker, list(request.get("leases", [])))
        if op == "submit":
            return coordinator.submit(
                worker, request.get("lease_id"), request["outcome"]
            )
        if op == "status":
            return coordinator.status(bool(request.get("summary", False)))
        return {"ok": False, "error": f"unknown op {op!r}"}
    except ReproError as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class LocalClient:
    """In-process client: direct dispatch against a live coordinator.

    Requests and responses take a JSON round-trip so in-process behaviour
    is byte-for-byte the wire behaviour — what the fault harness proves
    locally holds over HTTP.
    """

    def __init__(self, coordinator: Coordinator) -> None:
        self.coordinator = coordinator

    def call(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        wire_request = json.loads(json.dumps(dict(request)))
        response = dispatch_op(self.coordinator, wire_request)
        return json.loads(json.dumps(response))


class HTTPClient:
    """JSON-over-HTTP client for a :class:`CoordinatorServer`."""

    def __init__(self, address: str, timeout_s: float = 30.0) -> None:
        self.address = address.rstrip("/")
        self.timeout_s = timeout_s

    def call(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        body = json.dumps(dict(request)).encode("utf-8")
        http_request = urllib_request.Request(
            f"{self.address}/rpc",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib_request.urlopen(http_request, timeout=self.timeout_s) as response:
            return json.loads(response.read().decode("utf-8"))


class _ServiceHandler(BaseHTTPRequestHandler):
    """Single-endpoint JSON POST handler (``/rpc``)."""

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            length = int(self.headers.get("Content-Length", 0))
            request = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._respond(400, {"ok": False, "error": "malformed request body"})
            return
        response = dispatch_op(self.server.coordinator, request)  # type: ignore[attr-defined]
        self._respond(200, response)

    def _respond(self, code: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # progress is streamed by the serving loop, not per-request


class CoordinatorServer(ThreadingHTTPServer):
    """HTTP front end of a :class:`Coordinator` (binds loopback by default)."""

    daemon_threads = True

    def __init__(
        self, coordinator: Coordinator, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__((host, port), _ServiceHandler)
        self.coordinator = coordinator
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        """The server's base URL (resolved port included)."""
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve requests on a background daemon thread."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="campaign-coordinator", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop serving and release the socket."""
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# ---------------------------------------------------------------------------
# Worker site
# ---------------------------------------------------------------------------

#: Bounded reconnect schedule for client calls hitting a dead coordinator.
DEFAULT_RECONNECT = RetryPolicy(max_attempts=6, backoff_s=0.2, backoff_cap_s=5.0)


@dataclass
class WorkerStats:
    """What one :meth:`WorkerSite.run` invocation accomplished."""

    completed: int = 0
    stranded: int = 0
    fallback_path: Optional[str] = None
    drained: bool = False
    errors: List[str] = field(default_factory=list)


class WorkerSite:
    """Pull-based campaign worker: lease, execute, heartbeat, submit.

    Leased scenarios run through the existing campaign executor machinery
    — ``backend="serial"`` (default) executes in this process,
    ``backend="process"`` fans a multi-scenario lease out over a local
    :class:`~repro.campaign.executor.ProcessPoolBackend` — so a site is
    just the distribution shell around the same
    :func:`~repro.campaign.executor.run_scenario_safely` path a local
    campaign uses (identical retry, timeout and outcome semantics,
    therefore identical bytes).

    Degradation: every client call retries connection failures on the
    ``reconnect`` policy's capped exponential backoff.  When the
    coordinator stays unreachable with results in hand, the results are
    checkpointed atomically to ``fallback_path`` (when configured) for a
    later ``repro-campaign merge``, and the site exits instead of
    spinning.
    """

    def __init__(
        self,
        client: Any,
        worker_id: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        lease_count: int = 1,
        poll_interval_s: float = 0.5,
        heartbeat_interval_s: Optional[float] = 2.0,
        reconnect: Optional[RetryPolicy] = None,
        fallback_path: Optional[str] = None,
        max_scenarios: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if lease_count < 1:
            raise ConfigurationError(f"lease_count must be >= 1, got {lease_count}")
        self.client = client
        self.worker_id = worker_id or f"site-{uuid.uuid4().hex[:8]}"
        self.retry = retry or RetryPolicy()
        self.backend = make_backend(backend, max_workers)
        self.lease_count = lease_count
        self.poll_interval_s = poll_interval_s
        self.heartbeat_interval_s = heartbeat_interval_s or None
        self.reconnect = reconnect or DEFAULT_RECONNECT
        self.fallback_path = fallback_path
        self.max_scenarios = max_scenarios
        self._sleep = sleep
        #: Optional (kind, payload) observer for progress logging.
        self.on_event: Optional[Callable[[str, Dict[str, Any]], None]] = None

    # -- plumbing -----------------------------------------------------------------
    def _call(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """One protocol call with bounded reconnect; ``None`` = unreachable."""
        request.setdefault("worker", self.worker_id)
        for attempt in range(1, self.reconnect.max_attempts + 1):
            try:
                return self.client.call(request)
            except OSError as exc:
                if attempt >= self.reconnect.max_attempts:
                    self._notify("unreachable", {"error": str(exc)})
                    return None
                self._sleep(
                    self.reconnect.delay_for(attempt, self.worker_id)
                )
        return None  # pragma: no cover - loop always returns

    def _notify(self, kind: str, payload: Dict[str, Any]) -> None:
        if self.on_event is not None:
            self.on_event(kind, payload)

    def _strand(self, outcomes: List[ScenarioOutcome], campaign_name: str) -> int:
        """Checkpoint undeliverable outcomes locally for a later merge."""
        if self.fallback_path is None or not outcomes:
            return 0
        store = (
            CampaignResult.load_checkpoint(self.fallback_path)
            or CampaignResult(campaign_name=campaign_name)
        )
        for outcome in outcomes:
            store.add(outcome)
        store.save(self.fallback_path)
        self._notify(
            "stranded", {"path": self.fallback_path, "count": len(outcomes)}
        )
        return len(outcomes)

    def _execute_leases(
        self, leases: List[Dict[str, Any]]
    ) -> List[Tuple[str, ScenarioOutcome]]:
        """Run the granted scenarios under a heartbeat, via the executor backend."""
        entries = [
            (index, ScenarioSpec.from_dict(lease["scenario"]))
            for index, lease in enumerate(leases)
        ]
        lease_ids = [lease["lease_id"] for lease in leases]
        stop = threading.Event()
        beat: Optional[threading.Thread] = None
        if self.heartbeat_interval_s is not None:
            def heartbeat_loop() -> None:
                while not stop.wait(self.heartbeat_interval_s):
                    try:
                        self.client.call(
                            {
                                "op": "heartbeat",
                                "worker": self.worker_id,
                                "leases": lease_ids,
                            }
                        )
                    except OSError:
                        pass  # reconnect logic handles persistent failure

            beat = threading.Thread(
                target=heartbeat_loop,
                name=f"heartbeat-{self.worker_id}",
                daemon=True,
            )
            beat.start()
        try:
            units = [(False, [entry]) for entry in entries]
            indexed: Dict[int, ScenarioOutcome] = {}
            for index, outcome in self.backend.run_units(units, self.retry):
                indexed[index] = outcome
        finally:
            stop.set()
            if beat is not None:
                beat.join(timeout=5.0)
        return [
            (lease_ids[index], indexed[index]) for index in sorted(indexed)
        ]

    # -- main loop ----------------------------------------------------------------
    def run(self) -> WorkerStats:
        """Work until the campaign drains or the coordinator is unreachable."""
        stats = WorkerStats(fallback_path=self.fallback_path)
        campaign_name = ""
        while True:
            if (
                self.max_scenarios is not None
                and stats.completed >= self.max_scenarios
            ):
                break
            response = self._call({"op": "lease", "count": self.lease_count})
            if response is None:
                break
            if not response.get("ok", False):
                stats.errors.append(response.get("error", "unknown error"))
                break
            state = response.get("state")
            if state == STATE_DRAINED:
                stats.drained = True
                break
            if state == STATE_WAIT:
                self._sleep(
                    min(
                        float(response.get("retry_after_s", self.poll_interval_s)),
                        self.poll_interval_s,
                    )
                )
                continue
            campaign_name = response.get("campaign", campaign_name)
            completed = self._execute_leases(response["leases"])
            undelivered: List[ScenarioOutcome] = []
            coordinator_lost = False
            for lease_id, outcome in completed:
                submit = self._call(
                    {
                        "op": "submit",
                        "lease_id": lease_id,
                        "outcome": outcome.to_dict(),
                    }
                )
                if submit is None:
                    undelivered.append(outcome)
                    coordinator_lost = True
                    continue
                if not submit.get("ok", False):
                    stats.errors.append(submit.get("error", "submit rejected"))
                    undelivered.append(outcome)
                    continue
                stats.completed += 1
                self._notify(
                    "submitted",
                    {
                        "label": outcome.label,
                        "status": outcome.status,
                        "duplicate": submit.get("duplicate", False),
                    },
                )
                if submit.get("drained"):
                    stats.drained = True
            if undelivered:
                stats.stranded += self._strand(undelivered, campaign_name)
            if coordinator_lost or stats.drained:
                break
        return stats


def run_campaign_service(
    campaign: CampaignSpec,
    num_workers: int = 2,
    retry: Optional[RetryPolicy] = None,
    worker_retry: Optional[RetryPolicy] = None,
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    journal_path: Optional[str] = None,
    resume: Optional[CampaignResult] = None,
    progress: Optional[Callable[[ServiceEvent], None]] = None,
) -> CampaignResult:
    """Run ``campaign`` through the service layer, entirely in-process.

    Starts a :class:`Coordinator` plus ``num_workers`` threaded
    :class:`WorkerSite`\\ s over :class:`LocalClient` transports, streams
    transitions to ``progress``, and returns the campaign-ordered result —
    bit-identical to ``run_campaign(campaign, backend="serial")``.
    """
    if num_workers < 1:
        raise ConfigurationError(f"num_workers must be >= 1, got {num_workers}")
    coordinator = Coordinator(
        campaign,
        retry=retry,
        lease_timeout_s=lease_timeout_s,
        journal_path=journal_path,
        resume=resume,
    )
    sites = [
        WorkerSite(
            LocalClient(coordinator),
            worker_id=f"local-{index}",
            retry=worker_retry,
            poll_interval_s=0.02,
        )
        for index in range(num_workers)
    ]
    threads = [
        threading.Thread(target=site.run, name=site.worker_id, daemon=True)
        for site in sites
    ]
    for thread in threads:
        thread.start()
    try:
        while not coordinator.finished:
            coordinator.tick()
            if progress is not None:
                for event in coordinator.drain_events():
                    progress(event)
            if not any(thread.is_alive() for thread in threads):
                if coordinator.finished:
                    break
                raise ServiceError(
                    f"all {num_workers} worker(s) exited with campaign "
                    f"{campaign.name!r} incomplete"
                )
            time.sleep(0.01)
    finally:
        for thread in threads:
            thread.join(timeout=10.0)
        coordinator.close_journal()
    if progress is not None:
        for event in coordinator.drain_events():
            progress(event)
    return coordinator.result()
