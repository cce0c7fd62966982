"""Tests for the fault-tolerant campaign runtime.

Covers the PR-3 surface: per-scenario status (``done``/``failed`` with
captured error + traceback + attempts), the executor retry policy,
incremental atomic checkpointing with crash-resume bit-equivalence,
deterministic sharding, shard-store merging, and the CLI's ``--shard`` /
``merge`` / interrupt behaviour.
"""

import json
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.campaign import (
    CampaignExecutor,
    CampaignInterrupted,
    CampaignResult,
    CampaignSpec,
    FactorySpec,
    RetryPolicy,
    ScenarioOutcome,
    ScenarioSpec,
    register_governor,
    run_campaign,
    run_scenario_safely,
)
from repro.campaign.cli import main as cli_main
from repro.analysis.reporting import format_campaign_summary
from repro.errors import ConfigurationError, SimulationError
from repro.governors.performance import PerformanceGovernor

#: Small scale so the whole module stays fast.
FRAMES = 60


def small_campaign(name="runtime", seeds=(1, 2)):
    return CampaignSpec.from_grid(
        name,
        applications=[FactorySpec.of("mpeg4", num_frames=FRAMES)],
        governors={
            "ondemand": FactorySpec.of("ondemand"),
            "oracle": FactorySpec.of("oracle"),
        },
        seeds=seeds,
    )


def broken_scenario(label="broken"):
    """A scenario whose governor factory cannot resolve (fails in any process)."""
    return ScenarioSpec(
        label=label,
        application=FactorySpec.of("mpeg4", num_frames=FRAMES),
        governor=FactorySpec.of("no-such-governor"),
    )


@pytest.fixture(scope="module")
def campaign():
    return small_campaign()


@pytest.fixture(scope="module")
def full_store(campaign):
    return run_campaign(campaign)


#: Module-level counter driving the flaky governor factory below.
_FLAKY_CALLS = {"n": 0}


@register_governor("test-flaky-governor")
def _flaky_governor(fail_times=1):
    _FLAKY_CALLS["n"] += 1
    if _FLAKY_CALLS["n"] <= fail_times:
        raise RuntimeError(f"flaky failure {_FLAKY_CALLS['n']}")
    return PerformanceGovernor()


@register_governor("test-hanging-governor")
def _hanging_governor(hang_s=10.0):
    time.sleep(hang_s)
    return PerformanceGovernor()


@register_governor("test-kamikaze-governor")
def _kamikaze_governor(sentinel=""):
    # First construction (sentinel file absent) SIGKILLs its own process —
    # the moral equivalent of the OOM killer hitting a pool worker.  Any
    # later construction finds the sentinel and behaves.
    if sentinel and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("armed")
        os.kill(os.getpid(), signal.SIGKILL)
    return PerformanceGovernor()


#: What the checkpoint file held each time the probe governor below was built.
_CHECKPOINT_AT_START = []


@register_governor("test-checkpoint-probe-governor")
def _checkpoint_probe_governor(path=""):
    # Built when its scenario starts: record the checkpoint's size then.
    _CHECKPOINT_AT_START.append(
        len(CampaignResult.load(path)) if os.path.exists(path) else None
    )
    return PerformanceGovernor()


def flaky_campaign(fail_times):
    _FLAKY_CALLS["n"] = 0
    scenario = ScenarioSpec(
        label="flaky",
        application=FactorySpec.of("mpeg4", num_frames=FRAMES),
        governor=FactorySpec.of("test-flaky-governor", fail_times=fail_times),
    )
    return CampaignSpec(name="flaky", scenarios=(scenario,))


class TestScenarioOutcomeStatus:
    def test_failure_round_trips_through_json(self):
        outcome = ScenarioOutcome.failure(
            broken_scenario(),
            error="RuntimeError: boom",
            traceback_text="Traceback...\nRuntimeError: boom\n",
            attempts=3,
        )
        restored = ScenarioOutcome.from_dict(json.loads(json.dumps(outcome.to_dict())))
        assert restored == outcome
        assert not restored.ok
        assert restored.status == "failed"
        assert restored.error == "RuntimeError: boom"
        assert "boom" in restored.traceback
        assert restored.attempts == 3
        assert restored.result is None

    def test_legacy_dict_without_status_is_done(self, full_store):
        data = next(iter(full_store)).to_dict()
        del data["status"]
        del data["attempts"]
        restored = ScenarioOutcome.from_dict(data)
        assert restored.ok and restored.status == "done" and restored.attempts == 1

    def test_done_outcome_requires_result(self):
        with pytest.raises(SimulationError):
            ScenarioOutcome(scenario=broken_scenario(), result=None)

    def test_unknown_status_rejected(self, full_store):
        done = next(iter(full_store))
        with pytest.raises(SimulationError):
            ScenarioOutcome(scenario=done.scenario, result=done.result, status="maybe")


class TestFailureRecording:
    def test_factory_error_recorded_not_raised(self):
        outcome = run_scenario_safely(broken_scenario())
        assert outcome.status == "failed"
        assert "no-such-governor" in outcome.error
        assert "Traceback" in outcome.traceback
        assert outcome.attempts == 1

    def test_failing_scenario_does_not_kill_campaign(self, campaign):
        mixed = CampaignSpec(
            name=campaign.name, scenarios=campaign.scenarios + (broken_scenario(),)
        )
        store = CampaignExecutor().run(mixed)
        assert len(store) == len(mixed)
        assert [o.label for o in store.failed()] == ["broken"]
        assert sorted(store.results()) == sorted(campaign.labels)
        with pytest.raises(SimulationError):
            store.raise_on_failures()

    def test_process_backend_records_failure(self, campaign):
        mixed = CampaignSpec(
            name=campaign.name, scenarios=campaign.scenarios + (broken_scenario(),)
        )
        store = CampaignExecutor(backend="process", max_workers=2).run(mixed)
        assert [o.label for o in store.failed()] == ["broken"]

    def test_summary_is_failure_aware(self, campaign):
        mixed = CampaignSpec(
            name=campaign.name, scenarios=campaign.scenarios + (broken_scenario(),)
        )
        summary = format_campaign_summary(CampaignExecutor().run(mixed))
        assert "failed" in summary
        assert "no-such-governor" in summary
        assert f"{len(campaign)} done, 1 failed" in summary


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-1.0)

    def test_retry_succeeds_and_stamps_attempts(self):
        store = CampaignExecutor(retry=RetryPolicy(max_attempts=2)).run(flaky_campaign(1))
        outcome = store.outcome("flaky")
        assert outcome.ok
        assert outcome.attempts == 2
        assert _FLAKY_CALLS["n"] == 2

    def test_retries_exhausted_records_last_error(self):
        store = CampaignExecutor(retry=RetryPolicy(max_attempts=3)).run(flaky_campaign(99))
        outcome = store.outcome("flaky")
        assert not outcome.ok
        assert outcome.attempts == 3
        assert outcome.error == "RuntimeError: flaky failure 3"
        assert _FLAKY_CALLS["n"] == 3

    def test_no_retry_by_default(self):
        store = CampaignExecutor().run(flaky_campaign(1))
        assert not store.outcome("flaky").ok
        assert _FLAKY_CALLS["n"] == 1


class TestBackoffSchedule:
    def test_exponential_growth_is_capped(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_s=1.0, backoff_cap_s=4.0, backoff_jitter=0.0
        )
        assert [policy.delay_for(k) for k in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 4.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=3, backoff_s=1.0, backoff_jitter=0.5)
        first = policy.delay_for(1, "scenario-a")
        other = policy.delay_for(1, "scenario-b")
        assert policy.delay_for(1, "scenario-a") == first  # reproducible
        assert first != other  # keys de-synchronise
        assert 0.5 <= first <= 1.5 and 0.5 <= other <= 1.5

    def test_seed_changes_jitter(self):
        base = RetryPolicy(max_attempts=2, backoff_s=1.0)
        reseeded = RetryPolicy(max_attempts=2, backoff_s=1.0, backoff_seed=99)
        assert base.delay_for(1, "x") != reseeded.delay_for(1, "x")

    def test_zero_backoff_means_no_delay(self):
        assert RetryPolicy(max_attempts=3).delay_for(2, "x") == 0.0

    def test_new_fields_validated(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_cap_s=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay_for(0)

    def test_legacy_positional_call_still_works(self):
        outcome = run_scenario_safely(broken_scenario(), 1, 0.0)
        assert not outcome.ok and outcome.attempts == 1


class TestScenarioTimeout:
    def hung_scenario(self):
        return ScenarioSpec(
            label="hung",
            application=FactorySpec.of("mpeg4", num_frames=FRAMES),
            governor=FactorySpec.of("test-hanging-governor", hang_s=10.0),
        )

    def test_hung_scenario_becomes_failed_outcome(self):
        started = time.monotonic()
        outcome = run_scenario_safely(
            self.hung_scenario(), retry=RetryPolicy(timeout_s=0.2)
        )
        assert time.monotonic() - started < 5.0  # did not wait the 10 s hang out
        assert not outcome.ok
        assert "ScenarioTimeoutError" in outcome.error
        assert outcome.attempts == 1

    def test_timeout_guard_preserves_result_bits(self, campaign, full_store):
        scenario = campaign.scenarios[0]
        guarded = run_scenario_safely(scenario, retry=RetryPolicy(timeout_s=120.0))
        assert (
            guarded.to_dict()
            == full_store.outcomes[scenario.scenario_id].to_dict()
        )


class TestCheckpointQuarantine:
    def test_corrupt_checkpoint_quarantined_not_fatal(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{truncated by a crash", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert CampaignResult.load_checkpoint(str(path)) is None
        assert not path.exists()
        assert (tmp_path / "ckpt.json.corrupt").exists()

    def test_quarantine_suffix_increments(self, tmp_path):
        path = tmp_path / "ckpt.json"
        (tmp_path / "ckpt.json.corrupt").write_text("earlier", encoding="utf-8")
        path.write_text("[1, 2, 3]", encoding="utf-8")  # parses, wrong shape
        with pytest.warns(RuntimeWarning):
            assert CampaignResult.load_checkpoint(str(path)) is None
        assert (tmp_path / "ckpt.json.corrupt-2").exists()

    def test_missing_checkpoint_is_none_without_warning(self, tmp_path):
        assert CampaignResult.load_checkpoint(str(tmp_path / "absent.json")) is None

    def test_valid_checkpoint_loads(self, full_store, tmp_path):
        path = tmp_path / "ckpt.json"
        full_store.save(str(path))
        loaded = CampaignResult.load_checkpoint(str(path))
        assert loaded is not None and loaded.to_json() == full_store.to_json()

    def test_cli_quarantines_and_reruns(self, campaign, full_store, tmp_path):
        spec_path = str(tmp_path / "spec.json")
        campaign.save(spec_path)
        checkpoint = tmp_path / "ckpt.json"
        checkpoint.write_text("garbage{", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            rc = cli_main(
                # --batch-size 0 keeps engine_used stamps comparable to the
                # unbatched run_campaign reference store.
                [spec_path, "--quiet", "--batch-size", "0",
                 "--checkpoint", str(checkpoint)]
            )
        assert rc == 0
        assert CampaignResult.load(str(checkpoint)).to_json() == full_store.to_json()
        assert (tmp_path / "ckpt.json.corrupt").exists()


class TestExecutorFaultInjection:
    def test_killed_pool_worker_resume_reruns_failed_not_done(self, tmp_path):
        sentinel = str(tmp_path / "armed")
        victim = ScenarioSpec(
            label="kamikaze",
            application=FactorySpec.of("mpeg4", num_frames=FRAMES),
            governor=FactorySpec.of("test-kamikaze-governor", sentinel=sentinel),
        )
        chaos = CampaignSpec(
            name="chaos", scenarios=small_campaign(name="chaos").scenarios + (victim,)
        )
        path = tmp_path / "ckpt.json"
        with pytest.raises(BrokenProcessPool):
            CampaignExecutor(backend="process", max_workers=2).run(
                chaos, checkpoint_path=str(path)
            )
        # The emergency checkpoint holds only work that really finished;
        # the killed scenario is not in it.
        checkpoint = CampaignResult.load(str(path))
        assert victim.scenario_id not in {
            outcome.scenario_id for outcome in checkpoint if outcome.ok
        }
        pending = [scenario.label for scenario in checkpoint.pending(chaos)]
        executed = []
        resumed = CampaignExecutor().run(
            chaos,
            resume=checkpoint,
            progress=lambda label, done, total: executed.append(label),
            checkpoint_path=str(path),
        )
        # Resume re-ran exactly the failed-not-done set, nothing else.
        assert executed == pending
        assert "kamikaze" in executed
        assert not resumed.failed()
        # The sentinel now exists, so a clean serial run is the reference.
        assert resumed.to_json() == run_campaign(chaos).to_json()

    def test_interrupt_during_checkpoint_write_resumes_cleanly(
        self, campaign, full_store, tmp_path, monkeypatch
    ):
        import repro.campaign.store as store_module

        path = tmp_path / "ckpt.json"
        real_replace = os.replace
        armed = {"yes": False}

        def arm(label, done, total):
            armed["yes"] = done == total

        def interrupted_replace(src, dst):
            # Ctrl-C lands exactly inside the final campaign-ordered rewrite.
            if armed["yes"] and str(dst) == str(path):
                armed["yes"] = False
                raise KeyboardInterrupt
            return real_replace(src, dst)

        monkeypatch.setattr(store_module.os, "replace", interrupted_replace)
        with pytest.raises(CampaignInterrupted) as info:
            CampaignExecutor().run(campaign, progress=arm, checkpoint_path=str(path))
        # The appended checkpoint survives with every outcome, and the
        # aborted rewrite left no temp file behind.
        checkpoint = CampaignResult.load(str(path))
        assert len(checkpoint) == len(info.value.partial) == len(campaign)
        assert sorted(os.listdir(tmp_path)) == ["ckpt.json"]
        executed = []
        resumed = CampaignExecutor().run(
            campaign,
            resume=checkpoint,
            progress=lambda label, done, total: executed.append(label),
            checkpoint_path=str(path),
        )
        assert executed == []
        assert resumed.to_json() == full_store.to_json()


class TestResumeSemantics:
    def test_resume_reruns_failed_not_done(self, campaign, full_store):
        partial = CampaignResult.from_json(full_store.to_json())
        victim = campaign.scenarios[2]
        partial.add(
            ScenarioOutcome.failure(victim, error="Killed", traceback_text="...")
        )
        executed = []
        resumed = CampaignExecutor().run(
            campaign,
            resume=partial,
            progress=lambda label, done, total: executed.append(label),
        )
        assert executed == [victim.label]
        assert resumed.to_json() == full_store.to_json()

    def test_pending_lists_failed_and_missing(self, campaign, full_store):
        partial = CampaignResult.from_json(full_store.to_json())
        partial.add(
            ScenarioOutcome.failure(campaign.scenarios[0], error="x", traceback_text="")
        )
        del partial.outcomes[campaign.scenarios[3].scenario_id]
        pending = partial.pending(campaign)
        assert [s.label for s in pending] == [
            campaign.scenarios[0].label,
            campaign.scenarios[3].label,
        ]


class TestCheckpointing:
    def test_checkpoint_written_incrementally(self, campaign, full_store, tmp_path):
        path = tmp_path / "ckpt.json"
        sizes = []

        def watch(label, done, total):
            sizes.append(len(CampaignResult.load(str(path))))

        store = CampaignExecutor().run(
            campaign, progress=watch, checkpoint_path=str(path)
        )
        # Completion k is appended (and flushed) before progress fires, so
        # the file already holds k outcomes.
        assert sizes == [1, 2, 3, 4]
        assert store.to_json() == full_store.to_json()
        # The final checkpoint is the completed, campaign-ordered store.
        assert CampaignResult.load(str(path)).to_json() == full_store.to_json()
        assert not (tmp_path / "ckpt.json.tmp").exists()

    def test_checkpoint_seeded_before_first_completion(self, campaign, tmp_path):
        path = tmp_path / "ckpt.json"
        _CHECKPOINT_AT_START.clear()
        probe = ScenarioSpec(
            label="probe",
            application=FactorySpec.of("mpeg4", num_frames=FRAMES),
            governor=FactorySpec.of("test-checkpoint-probe-governor", path=str(path)),
        )
        probed = CampaignSpec(name="probed", scenarios=(probe,) + campaign.scenarios)
        CampaignExecutor().run(probed, checkpoint_path=str(path))
        # When the first scenario started, the (empty) checkpoint was
        # already on disk and loadable.
        assert _CHECKPOINT_AT_START == [0]

    def test_crash_resume_is_bit_identical(self, campaign, full_store, tmp_path):
        """Kill a checkpointing campaign mid-run, resume, compare JSON."""
        path = tmp_path / "ckpt.json"

        def bomb(label, done, total):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as info:
            CampaignExecutor().run(campaign, progress=bomb, checkpoint_path=str(path))
        assert len(info.value.partial) == 2
        assert info.value.checkpoint_path == str(path)
        # The interrupt saved a loadable checkpoint with the completed work.
        checkpoint = CampaignResult.load(str(path))
        assert len(checkpoint) == 2

        executed = []
        resumed = CampaignExecutor().run(
            campaign,
            resume=checkpoint,
            progress=lambda label, done, total: executed.append(label),
            checkpoint_path=str(path),
        )
        assert len(executed) == 2  # only the missing half re-ran
        assert resumed.to_json() == full_store.to_json()
        assert json.loads(resumed.to_json()) == json.loads(full_store.to_json())

    def test_fatal_error_still_saves_emergency_checkpoint(self, campaign, tmp_path):
        """Any fatal error (not just Ctrl-C) persists completed work first."""
        path = tmp_path / "ckpt.json"

        def bomb(label, done, total):
            if done == 2:
                raise RuntimeError("harness died")

        with pytest.raises(RuntimeError, match="harness died"):
            CampaignExecutor().run(campaign, progress=bomb, checkpoint_path=str(path))
        assert len(CampaignResult.load(str(path))) == 2

    def test_interrupt_without_checkpoint_carries_partial(self, campaign):
        def bomb(label, done, total):
            raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as info:
            CampaignExecutor().run(campaign, progress=bomb)
        assert info.value.checkpoint_path is None
        assert len(info.value.partial) == 1

    def test_atomic_save_replaces_not_truncates(self, full_store, tmp_path):
        path = tmp_path / "store.json"
        full_store.save(str(path))
        first = path.read_text()
        full_store.save(str(path))
        assert path.read_text() == first
        assert not (tmp_path / "store.json.tmp").exists()


class TestSharding:
    def test_shards_are_disjoint_and_cover(self, campaign):
        shards = [campaign.shard(i, 3) for i in range(3)]
        labels = [s.label for shard in shards for s in shard.scenarios]
        assert sorted(labels) == sorted(campaign.labels)
        assert all(shard.name == campaign.name for shard in shards)

    def test_shard_is_deterministic_interleave(self, campaign):
        assert [s.label for s in campaign.shard(0, 2).scenarios] == [
            campaign.labels[0],
            campaign.labels[2],
        ]
        assert [s.label for s in campaign.shard(1, 2).scenarios] == [
            campaign.labels[1],
            campaign.labels[3],
        ]

    def test_shard_validation(self, campaign):
        with pytest.raises(ConfigurationError):
            campaign.shard(2, 2)
        with pytest.raises(ConfigurationError):
            campaign.shard(-1, 2)
        with pytest.raises(ConfigurationError):
            campaign.shard(0, 0)
        with pytest.raises(ConfigurationError):
            campaign.shard(4, 5)  # only 4 scenarios: shard 4/5 is empty

    def test_sharded_run_merges_to_unsharded(self, campaign, full_store):
        stores = [run_campaign(campaign.shard(i, 2)) for i in range(2)]
        merged = CampaignResult.merge(stores).ordered_for(campaign)
        assert merged.to_json() == full_store.to_json()


class TestMerge:
    def test_merge_requires_stores(self):
        with pytest.raises(ConfigurationError):
            CampaignResult.merge([])

    def test_merge_rejects_different_campaigns(self, full_store):
        other = CampaignResult.from_json(full_store.to_json())
        other.campaign_name = "something-else"
        with pytest.raises(ConfigurationError):
            CampaignResult.merge([full_store, other])

    def test_merge_conflict_is_error(self, campaign, full_store):
        conflicting = CampaignResult(campaign_name=campaign.name)
        conflicting.add(
            ScenarioOutcome.failure(campaign.scenarios[0], error="x", traceback_text="")
        )
        with pytest.raises(SimulationError):
            CampaignResult.merge([full_store, conflicting])

    def test_identical_duplicates_union_silently(self, full_store):
        twin = CampaignResult.from_json(full_store.to_json())
        merged = CampaignResult.merge([full_store, twin])
        assert merged.to_json() == full_store.to_json()


class TestCli:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        small_campaign().save(str(path))
        return str(path)

    def test_shard_then_merge_equals_unsharded(self, spec_path, tmp_path, capsys):
        full = str(tmp_path / "full.json")
        assert cli_main([spec_path, "--quiet", "--output", full]) == 0
        shard_files = []
        for index in range(2):
            out = str(tmp_path / f"shard{index}.json")
            shard_files.append(out)
            assert cli_main(
                [spec_path, "--shard", f"{index}/2", "--quiet", "--output", out]
            ) == 0
        merged = str(tmp_path / "merged.json")
        assert cli_main(
            ["merge", *shard_files, "--spec", spec_path, "--output", merged, "--quiet"]
        ) == 0
        assert CampaignResult.load(merged).to_dict() == CampaignResult.load(full).to_dict()

    def test_bad_shard_selector_is_usage_error(self, spec_path, capsys):
        assert cli_main([spec_path, "--shard", "nope", "--quiet"]) == 2
        assert "--shard expects" in capsys.readouterr().err

    def test_failed_scenario_exit_code(self, tmp_path, capsys):
        campaign = CampaignSpec(name="bad", scenarios=(broken_scenario(),))
        path = tmp_path / "bad.json"
        campaign.save(str(path))
        out = str(tmp_path / "bad_results.json")
        assert cli_main([str(path), "--quiet", "--output", out]) == 1
        assert "failed" in capsys.readouterr().out
        # The failed outcome is still persisted for inspection/resume.
        assert len(CampaignResult.load(out).failed()) == 1

    def test_checkpoint_flag_resumes_automatically(self, spec_path, tmp_path, capsys):
        checkpoint = str(tmp_path / "ckpt.json")
        assert cli_main([spec_path, "--quiet", "--checkpoint", checkpoint]) == 0
        first = CampaignResult.load(checkpoint).to_json()
        # Second invocation finds everything done and re-runs nothing.
        assert cli_main([spec_path, "--checkpoint", checkpoint]) == 0
        assert capsys.readouterr().err == ""  # no per-scenario progress lines
        assert CampaignResult.load(checkpoint).to_json() == first

    def test_merge_conflict_exit_code(self, spec_path, tmp_path, capsys):
        campaign = CampaignSpec.load(spec_path)
        good = run_campaign(campaign)
        bad = CampaignResult(campaign_name=campaign.name)
        bad.add(
            ScenarioOutcome.failure(campaign.scenarios[0], error="x", traceback_text="")
        )
        good_path, bad_path = str(tmp_path / "good.json"), str(tmp_path / "bad.json")
        good.save(good_path)
        bad.save(bad_path)
        merged = str(tmp_path / "merged.json")
        assert cli_main(["merge", good_path, bad_path, "--output", merged]) == 2
        assert "conflicting outcomes" in capsys.readouterr().err


class TestExperimentSettingsCheckpointing:
    def test_run_campaign_checkpoints_and_resumes(self, tmp_path):
        from repro.experiments import ExperimentSettings

        settings = ExperimentSettings(num_frames=FRAMES, checkpoint_dir=str(tmp_path))
        campaign = small_campaign(name="exp-ckpt")
        store = settings.run_campaign(campaign)
        checkpoint = tmp_path / "exp-ckpt.checkpoint.json"
        assert checkpoint.exists()
        assert CampaignResult.load(str(checkpoint)).to_json() == store.to_json()
        # Second run resumes: no scenario re-executes (identical output).
        assert settings.run_campaign(campaign).to_json() == store.to_json()

    def test_run_campaign_raises_on_failures(self, tmp_path):
        from repro.experiments import ExperimentSettings

        settings = ExperimentSettings(num_frames=FRAMES, checkpoint_dir=str(tmp_path))
        campaign = CampaignSpec(name="exp-bad", scenarios=(broken_scenario(),))
        with pytest.raises(SimulationError):
            settings.run_campaign(campaign)
        # The failed outcome was checkpointed for post-mortem inspection.
        saved = CampaignResult.load(str(tmp_path / "exp-bad.checkpoint.json"))
        assert [o.label for o in saved.failed()] == ["broken"]
