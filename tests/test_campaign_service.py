"""Tests for the distributed campaign service.

Covers the PR-7 tentpole surface: the lease/heartbeat/submit protocol of
:class:`~repro.campaign.service.Coordinator` (expiry + requeue with
bounded delivery retries, first-wins idempotent submits, journalled
crash-resume with quarantine of corrupt journals), the JSON-over-HTTP
transport, worker-site degradation (reconnect backoff + local fallback
checkpoint), the bit-identity of :func:`run_campaign_service` against a
serial run, and the ``serve`` / ``work`` CLI subcommands end to end.
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.campaign import (
    CampaignResult,
    CampaignSpec,
    Coordinator,
    CoordinatorServer,
    FactorySpec,
    HTTPClient,
    LocalClient,
    RetryPolicy,
    ScenarioOutcome,
    ScenarioSpec,
    WorkerSite,
    run_campaign,
    run_campaign_service,
)
from repro.campaign import store as result_store
from repro.campaign.cli import main as cli_main
from repro.campaign.service import (
    STATE_DRAINED,
    STATE_GRANTED,
    STATE_WAIT,
    dispatch_op,
)
from repro.errors import ConfigurationError, ServiceError

#: Small scale so the whole module stays fast.
FRAMES = 60


def small_campaign(name="service", seeds=(1, 2)):
    return CampaignSpec.from_grid(
        name,
        applications=[FactorySpec.of("mpeg4", num_frames=FRAMES)],
        governors={
            "ondemand": FactorySpec.of("ondemand"),
            "oracle": FactorySpec.of("oracle"),
        },
        seeds=seeds,
    )


@pytest.fixture(scope="module")
def campaign():
    return small_campaign()


@pytest.fixture(scope="module")
def serial_store(campaign):
    return run_campaign(campaign)


class FakeClock:
    """Manually advanced clock so lease expiry is deterministic in tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_coordinator(campaign, **kwargs):
    kwargs.setdefault("lease_timeout_s", 10.0)
    clock = kwargs.pop("clock", None) or FakeClock()
    return Coordinator(campaign, clock=clock, **kwargs), clock


class TestCoordinatorProtocol:
    def test_lease_grants_distinct_scenarios(self, campaign):
        coordinator, _ = make_coordinator(campaign)
        first = coordinator.lease("w0", count=2)
        second = coordinator.lease("w1", count=2)
        assert first["state"] == second["state"] == STATE_GRANTED
        assert first["campaign"] == campaign.name
        granted = first["leases"] + second["leases"]
        labels = {lease["scenario"]["label"] for lease in granted}
        assert labels == set(campaign.labels)
        # Everything is leased out: a third worker has to wait.
        assert coordinator.lease("w2")["state"] == STATE_WAIT

    def test_heartbeat_keeps_lease_alive(self, campaign):
        coordinator, clock = make_coordinator(campaign)
        lease = coordinator.lease("w0")["leases"][0]
        clock.now = 8.0
        coordinator.heartbeat("w0", [lease["lease_id"]])
        clock.now = 15.0  # past the original deadline, inside the extended one
        coordinator.tick()
        assert coordinator.stats["requeued"] == 0

    def test_expired_lease_requeues_with_backoff(self, campaign):
        # One scenario only, so a lease during its backoff window must wait.
        campaign = CampaignSpec(name=campaign.name, scenarios=campaign.scenarios[:1])
        coordinator, clock = make_coordinator(
            campaign, retry=RetryPolicy(max_attempts=3, backoff_s=2.0)
        )
        lease = coordinator.lease("w0")["leases"][0]
        clock.now = 11.0
        coordinator.tick()
        assert coordinator.stats["requeued"] == 1
        # The scenario is backoff-delayed: an immediate lease must wait...
        waiting = coordinator.lease("w1")
        assert waiting["state"] == STATE_WAIT
        # ...until the coordinator's next self-inflicted deadline passes.
        clock.now = coordinator.next_deadline() + 0.01
        regranted = coordinator.lease("w1")
        assert regranted["state"] == STATE_GRANTED
        assert (
            regranted["leases"][0]["scenario"]["label"]
            == lease["scenario"]["label"]
        )

    def test_exhausted_deliveries_fail_terminally(self, campaign):
        solo = CampaignSpec(name=campaign.name, scenarios=campaign.scenarios[:1])
        coordinator, clock = make_coordinator(
            solo, retry=RetryPolicy(max_attempts=1, backoff_s=0.0)
        )
        coordinator.lease("w0")
        clock.now = 11.0
        coordinator.tick()
        assert coordinator.stats["expired_failed"] == 1
        assert coordinator.finished
        outcome = next(iter(coordinator.result()))
        assert not outcome.ok
        assert "lease expired" in outcome.error

    def test_submit_is_first_wins(self, campaign, serial_store):
        coordinator, _ = make_coordinator(campaign)
        lease = coordinator.lease("w0")["leases"][0]
        sid = None
        for outcome in serial_store:
            if outcome.label == lease["scenario"]["label"]:
                sid = outcome
        first = coordinator.submit("w0", lease["lease_id"], sid.to_dict())
        assert first["ok"] and first["accepted"] and not first["duplicate"]
        again = coordinator.submit("w1", None, sid.to_dict())
        assert again["ok"] and again["duplicate"] and not again["accepted"]
        assert coordinator.stats["duplicates"] == 1

    def test_submit_unknown_scenario_rejected(self, campaign, serial_store):
        other = small_campaign(name="other", seeds=(9,))
        coordinator, _ = make_coordinator(other)
        stray = next(iter(serial_store)).to_dict()
        response = coordinator.submit("w0", None, stray)
        assert not response["ok"]
        assert "unknown scenario" in response["error"]

    def test_all_submits_drain_to_serial_bytes(self, campaign, serial_store):
        coordinator, _ = make_coordinator(campaign)
        for outcome in serial_store:
            coordinator.submit("w0", None, outcome.to_dict())
        assert coordinator.finished
        assert coordinator.lease("w0")["state"] == STATE_DRAINED
        assert coordinator.result().to_json() == serial_store.to_json()

    def test_result_before_drain_raises(self, campaign):
        coordinator, _ = make_coordinator(campaign)
        with pytest.raises(ServiceError, match="without a final outcome"):
            coordinator.result()

    def test_status_counts(self, campaign, serial_store):
        coordinator, _ = make_coordinator(campaign)
        coordinator.submit("w0", None, next(iter(serial_store)).to_dict())
        status = coordinator.status(include_summary=True)
        assert status["total"] == len(campaign)
        assert status["done"] == 1
        assert not status["drained"]
        assert "w0" in status["workers"]
        assert campaign.labels[0] in status["summary"]

    def test_dispatch_routes_and_reports_errors(self, campaign):
        coordinator, _ = make_coordinator(campaign)
        assert dispatch_op(coordinator, {"op": "status"})["ok"]
        assert not dispatch_op(coordinator, {"op": "nope"})["ok"]
        bad = dispatch_op(coordinator, {"op": "lease", "count": 0})
        assert not bad["ok"] and "ConfigurationError" in bad["error"]

    def test_lease_timeout_validated(self, campaign):
        with pytest.raises(ConfigurationError):
            Coordinator(campaign, lease_timeout_s=0.0)


class TestCoordinatorJournal:
    def test_restart_resumes_from_journal(self, campaign, serial_store, tmp_path):
        journal = str(tmp_path / "journal.json")
        coordinator, _ = make_coordinator(campaign, journal_path=journal)
        for outcome in list(serial_store)[:2]:
            coordinator.submit("w0", None, outcome.to_dict())
        coordinator.close_journal()
        # A brand-new coordinator (same journal) carries the work over.
        revived, _ = make_coordinator(campaign, journal_path=journal)
        assert revived.stats["resumed"] == 2
        assert len(revived.store) == 2
        grant = revived.lease("w0", count=len(campaign))
        assert len(grant["leases"]) == len(campaign) - 2
        revived.close_journal()

    def test_corrupt_journal_quarantined(self, campaign, tmp_path):
        journal = tmp_path / "journal.json"
        journal.write_text("{truncated by a crash", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            coordinator, _ = make_coordinator(campaign, journal_path=str(journal))
        assert len(coordinator.store) == 0
        coordinator.close_journal()
        quarantined = tmp_path / "journal.json.corrupt"
        assert quarantined.read_text(encoding="utf-8") == "{truncated by a crash"
        # The journal restarts from scratch: a fresh meta file and an
        # empty outcomes store.
        meta = json.loads(journal.read_text(encoding="utf-8"))
        assert meta["attempts"] == {}
        assert meta["outcomes"] == "store"
        sidecar = str(journal) + ".outcomes"
        assert result_store.is_store_file(sidecar)
        assert len(CampaignResult.load(sidecar)) == 0

    def test_legacy_blob_journal_resumes_and_is_rewritten(
        self, campaign, serial_store, tmp_path
    ):
        # The monolithic journal layout older releases wrote.
        journal = tmp_path / "journal.json"
        carried = CampaignResult(campaign_name=campaign.name)
        for outcome in list(serial_store)[:2]:
            carried.add(outcome)
        attempts = {outcome.scenario_id: 2 for outcome in carried}
        journal.write_text(
            json.dumps(
                {
                    "campaign_name": campaign.name,
                    "attempts": attempts,
                    "results": carried.to_dict(),
                }
            ),
            encoding="utf-8",
        )
        coordinator, _ = make_coordinator(campaign, journal_path=str(journal))
        assert coordinator.stats["resumed"] == 2
        assert coordinator.store.to_dict() == carried.to_dict()
        grant = coordinator.lease("w0", count=len(campaign))
        assert len(grant["leases"]) == len(campaign) - 2
        coordinator.close_journal()
        # Rewritten columnar: the meta file keeps the carried attempt
        # counts, the sidecar store the carried outcomes.
        meta = json.loads(journal.read_text(encoding="utf-8"))
        assert meta["outcomes"] == "store"
        assert {sid: meta["attempts"][sid] for sid in attempts} == attempts
        sidecar = CampaignResult.load(str(journal) + ".outcomes")
        assert sidecar.to_dict() == carried.to_dict()

    def test_journal_traffic_is_constant_per_transition(self, tmp_path):
        def journal_sizes(frames):
            spec = CampaignSpec.from_grid(
                "journal-size",
                applications=[FactorySpec.of("mpeg4", num_frames=frames)],
                governors={
                    "ondemand": FactorySpec.of("ondemand"),
                    "oracle": FactorySpec.of("oracle"),
                },
                seeds=(1,),
            )
            outcomes = list(run_campaign(spec))
            journal = str(tmp_path / f"journal-{frames}.json")
            sidecar = journal + ".outcomes"
            coordinator, _ = make_coordinator(spec, journal_path=journal)
            grant = coordinator.lease("w0", count=len(spec))
            lease_ids = {
                ScenarioSpec.from_dict(lease["scenario"]).scenario_id: lease["lease_id"]
                for lease in grant["leases"]
            }
            meta_sizes = []
            for accepted, outcome in enumerate(outcomes, start=1):
                coordinator.submit(
                    "w0", lease_ids[outcome.scenario_id], outcome.to_dict()
                )
                records = list(result_store.StoreReader(sidecar).iter_records())
                assert len(records) == accepted
                meta_sizes.append(os.path.getsize(journal))
            # A duplicate submit is acknowledged and appends nothing.
            before = os.path.getsize(sidecar)
            ack = coordinator.submit("w0", None, outcomes[0].to_dict())
            assert ack["duplicate"]
            assert os.path.getsize(sidecar) == before
            coordinator.close_journal()
            return meta_sizes

        assert journal_sizes(10) == journal_sizes(300)

    def test_resumed_failure_with_budget_is_rerun(self, campaign):
        seed = CampaignResult(campaign_name=campaign.name)
        seed.add(
            ScenarioOutcome.failure(
                campaign.scenarios[0], error="Killed", traceback_text=""
            )
        )
        coordinator, _ = make_coordinator(
            campaign, resume=seed, retry=RetryPolicy(max_attempts=2)
        )
        grant = coordinator.lease("w0", count=len(campaign))
        granted = {lease["scenario"]["label"] for lease in grant["leases"]}
        assert campaign.scenarios[0].label in granted


class TestInProcessService:
    def test_service_run_is_bit_identical_to_serial(self, campaign, serial_store):
        events = []
        store = run_campaign_service(campaign, num_workers=3, progress=events.append)
        assert store.to_json() == serial_store.to_json()
        # Live streaming observed every completion, in order.
        assert [event.kind for event in events] == ["done"] * len(campaign)
        assert events[-1].done == events[-1].total == len(campaign)

    def test_worker_count_validated(self, campaign):
        with pytest.raises(ConfigurationError):
            run_campaign_service(campaign, num_workers=0)

    def test_journalled_run_closes_its_journal(
        self, campaign, serial_store, tmp_path, open_files_under,
        retained_store_writers,
    ):
        journal = str(tmp_path / "journal.json")
        store = run_campaign_service(campaign, journal_path=journal)
        assert store.to_json() == serial_store.to_json()
        assert len(retained_store_writers) == 1
        assert open_files_under(tmp_path) == []
        sidecar = CampaignResult.load(journal + ".outcomes")
        assert len(sidecar) == len(campaign)


class _SubmitLostClient:
    """Delegates to a real client but loses the coordinator at submit time."""

    def __init__(self, inner):
        self.inner = inner

    def call(self, request):
        if request.get("op") == "submit":
            raise ConnectionRefusedError("coordinator gone")
        return self.inner.call(request)


class TestWorkerDegradation:
    def test_unreachable_submit_strands_to_fallback(self, campaign, tmp_path):
        solo = CampaignSpec(name=campaign.name, scenarios=campaign.scenarios[:1])
        coordinator, _ = make_coordinator(solo)
        fallback = str(tmp_path / "stranded.json")
        site = WorkerSite(
            _SubmitLostClient(LocalClient(coordinator)),
            worker_id="doomed",
            reconnect=RetryPolicy(max_attempts=2, backoff_s=0.0),
            fallback_path=fallback,
            poll_interval_s=0.01,
            heartbeat_interval_s=None,
        )
        stats = site.run()
        assert stats.completed == 0
        assert stats.stranded == 1
        stranded = CampaignResult.load(fallback)
        assert stranded.campaign_name == solo.name
        assert [outcome.label for outcome in stranded] == [solo.scenarios[0].label]

    def test_stranded_results_merge_back(self, campaign, serial_store, tmp_path):
        solo = CampaignSpec(name=campaign.name, scenarios=campaign.scenarios[:1])
        coordinator, _ = make_coordinator(solo)
        fallback = str(tmp_path / "stranded.json")
        WorkerSite(
            _SubmitLostClient(LocalClient(coordinator)),
            reconnect=RetryPolicy(max_attempts=1),
            fallback_path=fallback,
            heartbeat_interval_s=None,
        ).run()
        merged = CampaignResult.merge([CampaignResult.load(fallback)])
        assert merged.ordered_for(solo).to_json() == CampaignResult(
            campaign_name=solo.name,
            outcomes={
                s.scenario_id: serial_store.outcomes[s.scenario_id]
                for s in solo.scenarios
            },
        ).to_json()

    def test_never_reachable_coordinator_exits_cleanly(self, tmp_path):
        class DeadClient:
            def call(self, request):
                raise ConnectionRefusedError("nothing listening")

        site = WorkerSite(
            DeadClient(),
            reconnect=RetryPolicy(max_attempts=2, backoff_s=0.0),
            heartbeat_interval_s=None,
        )
        stats = site.run()
        assert stats.completed == 0 and not stats.drained


class TestHTTPTransport:
    def test_http_worker_sites_match_serial(self, campaign, serial_store):
        coordinator, _ = make_coordinator(campaign, clock=time.monotonic)
        server = CoordinatorServer(coordinator)
        server.start()
        try:
            status = HTTPClient(server.address).call({"op": "status"})
            assert status["ok"] and status["total"] == len(campaign)
            sites = [
                WorkerSite(
                    HTTPClient(server.address),
                    worker_id=f"http-{index}",
                    poll_interval_s=0.05,
                )
                for index in range(2)
            ]
            results = {}
            threads = [
                threading.Thread(
                    target=lambda s=site: results.setdefault(s.worker_id, s.run()),
                    daemon=True,
                )
                for site in sites
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert all(stats.drained for stats in results.values())
            assert coordinator.result().to_json() == serial_store.to_json()
        finally:
            server.stop()

    def test_malformed_request_is_a_400(self, campaign):
        from urllib import error, request

        coordinator, _ = make_coordinator(campaign)
        server = CoordinatorServer(coordinator)
        server.start()
        try:
            with pytest.raises(error.HTTPError) as info:
                request.urlopen(
                    request.Request(
                        f"{server.address}/rpc", data=b"not json", method="POST"
                    ),
                    timeout=5.0,
                )
            assert info.value.code == 400
        finally:
            server.stop()


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestServeWorkCli:
    def test_serve_and_work_roundtrip(self, campaign, serial_store, tmp_path):
        spec_path = str(tmp_path / "spec.json")
        campaign.save(spec_path)
        output = str(tmp_path / "service-results.json")
        port = _free_port()
        serve_rc = {}

        def serve():
            serve_rc["rc"] = cli_main(
                [
                    "serve",
                    spec_path,
                    "--port",
                    str(port),
                    "--output",
                    output,
                    "--quiet",
                ]
            )

        server_thread = threading.Thread(target=serve, daemon=True)
        server_thread.start()
        url = f"http://127.0.0.1:{port}"
        client = HTTPClient(url, timeout_s=5.0)
        deadline = time.monotonic() + 15.0
        while True:
            try:
                client.call({"op": "status"})
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        assert cli_main(
            ["work", "--coordinator", url, "--quiet", "--poll", "0.05"]
        ) == 0
        server_thread.join(timeout=60.0)
        assert not server_thread.is_alive()
        assert serve_rc["rc"] == 0
        assert CampaignResult.load(output).to_json() == serial_store.to_json()

    def test_work_against_nothing_fails(self, tmp_path):
        port = _free_port()  # nothing is listening on it
        rc = cli_main(
            ["work", "--coordinator", f"http://127.0.0.1:{port}", "--quiet"]
        )
        assert rc == 1

    def test_serve_rejects_bad_spec(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert cli_main(["serve", missing, "--quiet"]) == 2
        assert "serve" in capsys.readouterr().err
