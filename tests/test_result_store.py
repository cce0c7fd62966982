"""Tests for the columnar on-disk result store (``repro.campaign.store``).

Covers store/load round-trip parity with the JSON blob (eager and
lazy), O(1) append-only checkpointing (byte-prefix stability across
appends), torn-file salvage + quarantine, rejection (never quarantine) of
the Arrow-encoded files older releases wrote, the streaming shard merge
(sharded + merged == unsharded, byte for byte), the executor/service
integration, and the CLI's ``--checkpoint`` / ``--output`` split.
"""

import json
import os

import pytest

from repro.campaign import (
    CampaignInterrupted,
    CampaignResult,
    CampaignSpec,
    Coordinator,
    FactorySpec,
    ScenarioOutcome,
    ScenarioSpec,
    run_campaign,
)
from repro.campaign import store as result_store
from repro.campaign.cli import main as cli_main
from repro.errors import ConfigurationError, SimulationError

#: Small scale so the whole module stays fast.
FRAMES = 40

#: The store encodings this build writes (one); parametrised so the test
#: ids keep their encoding suffix.
ENCODINGS = [result_store.ENCODING]


def small_campaign(name="store", seeds=(1, 2)):
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


@pytest.fixture(scope="module")
def mixed_store(campaign):
    """A store with both done and failed outcomes (null frames on disk)."""
    spec = CampaignSpec(
        name="store-mixed", scenarios=campaign.scenarios[:2] + (broken_scenario(),)
    )
    return run_campaign(spec)


@pytest.mark.parametrize("encoding", ENCODINGS)
class TestRoundTrip:
    def test_to_dict_parity_with_legacy_json(self, tmp_path, full_store, encoding):
        path = str(tmp_path / "results.bin")
        result_store.save_store(full_store, path)
        assert result_store.is_store_file(path)
        loaded = CampaignResult.load(path)
        assert loaded.to_dict() == full_store.to_dict()

    def test_lazy_load_parity(self, tmp_path, full_store, encoding):
        path = str(tmp_path / "results.bin")
        result_store.save_store(full_store, path)
        lazy = CampaignResult.load(path, lazy=True)
        assert lazy.to_dict() == full_store.to_dict()

    def test_lazy_metrics_without_touching_frames(
        self, tmp_path, full_store, encoding
    ):
        path = str(tmp_path / "results.bin")
        result_store.save_store(full_store, path)
        lazy = CampaignResult.load(path, lazy=True)
        # Summaries come from the cached metrics: delete the file and the
        # summary must still answer (frame access would now raise).
        os.unlink(path)
        for outcome, original in zip(lazy, full_store):
            summary = outcome.metrics_summary()
            from repro.sim.metrics import summarize_result

            assert summary == summarize_result(original.result)

    def test_failed_outcomes_round_trip(self, tmp_path, mixed_store, encoding):
        path = str(tmp_path / "mixed.bin")
        result_store.save_store(mixed_store, path)
        loaded = CampaignResult.load(path)
        assert loaded.to_dict() == mixed_store.to_dict()
        assert [o.label for o in loaded.failed()] == ["broken"]

    def test_save_via_campaign_result(self, tmp_path, full_store, encoding):
        # CampaignResult.save writes the JSON blob; save_store the
        # columnar store; both load back to the same store.
        columnar = str(tmp_path / "columnar.bin")
        blob = str(tmp_path / "results.json")
        result_store.save_store(full_store, columnar)
        full_store.save(blob)
        assert result_store.is_store_file(columnar)
        assert not result_store.is_store_file(blob)
        with open(blob, encoding="utf-8") as handle:
            assert handle.read() == full_store.to_json()
        assert CampaignResult.load(columnar).to_dict() == full_store.to_dict()


@pytest.mark.parametrize("encoding", ENCODINGS)
class TestAppendOnly:
    def test_append_reopen_equals_bulk_save(self, tmp_path, full_store, encoding):
        path = str(tmp_path / "appended.bin")
        outcomes = list(full_store)
        writer = result_store.StoreWriter.create(path, full_store.campaign_name)
        writer.append(outcomes[0])
        writer.close()
        # Reopen-and-append survives process restarts mid-campaign.
        with result_store.StoreWriter.open_append(path) as writer:
            for outcome in outcomes[1:]:
                writer.append(outcome)
        assert CampaignResult.load(path).to_dict() == full_store.to_dict()

    def test_appends_are_byte_prefix_stable(self, tmp_path, full_store, encoding):
        # O(1) checkpointing in observable form: appending outcome N+1
        # never rewrites outcomes 0..N (the file grows strictly by
        # suffix), unlike the legacy whole-blob rewrite.
        path = str(tmp_path / "prefix.bin")
        writer = result_store.StoreWriter.create(path, full_store.campaign_name)
        snapshots = []
        for outcome in full_store:
            writer.append(outcome)
            with open(path, "rb") as handle:
                snapshots.append(handle.read())
        writer.close()
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert later.startswith(earlier)
            assert len(later) > len(earlier)

    def test_reader_reports_campaign_and_encoding(
        self, tmp_path, full_store, encoding
    ):
        path = str(tmp_path / "meta.bin")
        result_store.save_store(full_store, path)
        reader = result_store.StoreReader(path)
        assert reader.campaign_name == full_store.campaign_name
        with open(path, "rb") as handle:
            header = handle.readline()
        assert json.loads(header[len(result_store.MAGIC) + 1 :])["encoding"] == encoding


@pytest.mark.parametrize("encoding", ENCODINGS)
class TestCorruption:
    def _saved(self, tmp_path, full_store):
        path = str(tmp_path / "ckpt.bin")
        result_store.save_store(full_store, path)
        return path

    def test_truncated_tail_salvages_prefix(self, tmp_path, full_store, encoding):
        path = self._saved(tmp_path, full_store)
        with open(path, "rb") as handle:
            blob = handle.read()
        # Tear the file mid-way through the last record.
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) - 40])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            salvaged = CampaignResult.load_checkpoint(path)
        assert salvaged is not None
        assert 0 < len(salvaged) < len(full_store)
        # Salvaged outcomes are bit-identical to the originals.
        originals = {o.scenario_id: o for o in full_store}
        for outcome in salvaged:
            assert outcome.to_dict() == originals[outcome.scenario_id].to_dict()
        # The torn file moved aside for post-mortem; a resume starts clean.
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")

    def test_garbled_record_salvages_prefix(self, tmp_path, full_store, encoding):
        path = self._saved(tmp_path, full_store)
        with open(path, "ab") as handle:
            handle.write(b"\x00garbage that is not a record\xff")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            salvaged = CampaignResult.load_checkpoint(path)
        assert salvaged is not None
        assert salvaged.to_dict() == full_store.to_dict()
        assert os.path.exists(path + ".corrupt")

    def test_corrupt_header_quarantines_with_none(self, tmp_path, encoding):
        path = str(tmp_path / "ckpt.bin")
        with open(path, "wb") as handle:
            handle.write(result_store.MAGIC + b" {not json\n")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert result_store.load_store_checkpoint(path) is None
        assert os.path.exists(path + ".corrupt")

    def test_missing_file_is_none_without_warning(self, tmp_path, encoding):
        assert result_store.load_store_checkpoint(str(tmp_path / "nope")) is None

    def test_future_version_is_config_error_not_corruption(
        self, tmp_path, full_store, encoding
    ):
        path = self._saved(tmp_path, full_store)
        with open(path, "rb") as handle:
            header, rest = handle.readline(), handle.read()
        meta = json.loads(header[len(result_store.MAGIC) + 1 :])
        meta["version"] = result_store.FORMAT_VERSION + 1
        with open(path, "wb") as handle:
            handle.write(
                result_store.MAGIC
                + b" "
                + json.dumps(meta, sort_keys=True).encode()
                + b"\n"
                + rest
            )
        # A deliberately newer file must never be quarantined as corrupt.
        with pytest.raises(ConfigurationError, match="format version"):
            CampaignResult.load_checkpoint(path)
        assert os.path.exists(path)

    def test_bad_frame_shape_is_quarantined(self, tmp_path, full_store, encoding):
        # A record whose frame columns disagree in length is corruption,
        # even though every byte parses: FrameColumns validation feeds the
        # same quarantine path as a torn file.
        path = str(tmp_path / "ckpt.bin")
        record = result_store.encode_record(next(iter(full_store)))
        record["result"]["frames"]["energy_j"] = record["result"]["frames"][
            "energy_j"
        ][:-1]
        writer = result_store.StoreWriter.create(path, full_store.campaign_name)
        writer.append_records([record])
        writer.close()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            salvaged = result_store.load_store_checkpoint(path)
        assert salvaged is not None and len(salvaged) == 0


class TestOlderArrowFiles:
    """Stores an older release wrote Arrow-encoded are refused, not salvaged."""

    def _arrow_store(self, path, campaign_name):
        meta = {"campaign_name": campaign_name, "encoding": "arrow", "version": 1}
        payload = (
            result_store.MAGIC
            + b" "
            + json.dumps(meta, sort_keys=True).encode()
            + b"\n"
            + (16).to_bytes(8, "little")
            + b"\xff" * 16
        )
        with open(path, "wb") as handle:
            handle.write(payload)
        return payload

    def _assert_untouched(self, tmp_path, path, payload):
        with open(path, "rb") as handle:
            assert handle.read() == payload
        assert not [name for name in os.listdir(tmp_path) if ".corrupt" in name]

    def test_load_and_load_checkpoint_raise(self, tmp_path, campaign):
        path = str(tmp_path / "old.store")
        payload = self._arrow_store(path, campaign.name)
        for load in (CampaignResult.load, CampaignResult.load_checkpoint):
            with pytest.raises(ConfigurationError, match="'arrow' encoding"):
                load(path)
            self._assert_untouched(tmp_path, path, payload)

    def test_journal_resume_raises(self, tmp_path, campaign):
        journal = str(tmp_path / "journal.json")
        with open(journal, "w", encoding="utf-8") as handle:
            json.dump(
                {"campaign_name": campaign.name, "attempts": {}, "outcomes": "store"},
                handle,
            )
        sidecar = journal + ".outcomes"
        payload = self._arrow_store(sidecar, campaign.name)
        with pytest.raises(ConfigurationError, match="'arrow' encoding"):
            Coordinator(campaign, journal_path=journal)
        self._assert_untouched(tmp_path, sidecar, payload)


class TestStreamingMerge:
    @pytest.fixture()
    def shard_paths(self, tmp_path, campaign):
        paths = []
        for index in range(2):
            shard = run_campaign(campaign.shard(index, 2))
            path = str(tmp_path / f"shard{index}.bin")
            result_store.save_store(shard, path)
            paths.append(path)
        return paths

    def test_merge_columnar_shards_to_json_is_byte_identical(
        self, tmp_path, campaign, full_store, shard_paths
    ):
        unsharded = str(tmp_path / "unsharded.json")
        full_store.save(unsharded)
        merged = str(tmp_path / "merged.json")
        stats = result_store.merge_store_files(shard_paths, merged, spec=campaign)
        assert stats == result_store.MergeStats(
            stores=2, scenarios=len(campaign), duplicates=0
        )
        with open(unsharded, "rb") as f_a, open(merged, "rb") as f_b:
            assert f_a.read() == f_b.read()

    def test_merge_mixed_legacy_and_columnar_inputs(
        self, tmp_path, campaign, full_store
    ):
        legacy = str(tmp_path / "shard0.json")
        columnar = str(tmp_path / "shard1.bin")
        run_campaign(campaign.shard(0, 2)).save(legacy)
        result_store.save_store(run_campaign(campaign.shard(1, 2)), columnar)
        merged = str(tmp_path / "merged.json")
        result_store.merge_store_files([legacy, columnar], merged, spec=campaign)
        assert CampaignResult.load(merged).to_dict() == full_store.to_dict()

    def test_identical_duplicates_union_silently(
        self, tmp_path, campaign, full_store, shard_paths
    ):
        merged = str(tmp_path / "merged.json")
        stats = result_store.merge_store_files(
            shard_paths + [shard_paths[0]], merged, spec=campaign
        )
        assert stats.duplicates == len(
            CampaignResult.load(shard_paths[0])
        )
        assert CampaignResult.load(merged).to_dict() == full_store.to_dict()

    def test_conflicting_duplicates_raise(self, tmp_path, campaign, shard_paths):
        conflicting = CampaignResult(campaign_name=campaign.name)
        conflicting.add(
            ScenarioOutcome.failure(campaign.scenarios[0], error="x", traceback_text="")
        )
        conflict_path = str(tmp_path / "conflict.bin")
        result_store.save_store(conflicting, conflict_path)
        with pytest.raises(SimulationError, match="conflicting outcomes"):
            result_store.merge_store_files(
                shard_paths + [conflict_path],
                str(tmp_path / "merged.json"),
            )
        # The spill file never outlives the merge, success or failure.
        assert not os.path.exists(str(tmp_path / "merged.json.merge-spill"))

    def test_merge_rejects_different_campaigns(self, tmp_path, shard_paths):
        other = run_campaign(small_campaign(name="other-store", seeds=(1,)))
        other_path = str(tmp_path / "other.bin")
        result_store.save_store(other, other_path)
        with pytest.raises(ConfigurationError, match="different campaigns"):
            result_store.merge_store_files(
                shard_paths + [other_path], str(tmp_path / "merged.json")
            )

    def test_incomplete_merge_with_spec_raises(
        self, tmp_path, campaign, shard_paths
    ):
        with pytest.raises(SimulationError, match="no outcome for scenario"):
            result_store.merge_store_files(
                shard_paths[:1], str(tmp_path / "merged.json"), spec=campaign
            )

    def test_merge_requires_stores(self, tmp_path):
        with pytest.raises(ConfigurationError, match="at least one"):
            result_store.merge_store_files([], str(tmp_path / "merged.json"))


class TestExecutorIntegration:
    def test_columnar_checkpoint_resumes(self, tmp_path, campaign):
        checkpoint = str(tmp_path / "ckpt.bin")
        first = run_campaign(campaign, checkpoint_path=checkpoint)
        assert result_store.is_store_file(checkpoint)
        saved = CampaignResult.load(checkpoint)
        assert saved.to_dict() == first.to_dict()
        # Resuming from the columnar checkpoint re-runs nothing and is
        # bit-identical.
        resumed = run_campaign(campaign, resume=saved)
        assert resumed.to_dict() == first.to_dict()

    def test_torn_columnar_checkpoint_resumes_cleanly(self, tmp_path, campaign):
        checkpoint = str(tmp_path / "ckpt.bin")
        reference = run_campaign(campaign)
        run_campaign(campaign, checkpoint_path=checkpoint)
        with open(checkpoint, "rb") as handle:
            blob = handle.read()
        with open(checkpoint, "wb") as handle:
            handle.write(blob[:-25])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            salvaged = CampaignResult.load_checkpoint(checkpoint)
        finished = run_campaign(campaign, resume=salvaged, checkpoint_path=checkpoint)
        assert finished.to_dict() == reference.to_dict()


    def test_interrupt_during_columnar_seed_is_campaign_interrupted(
        self, tmp_path, campaign, full_store, monkeypatch
    ):
        path = tmp_path / "ckpt.store"
        checkpoint = str(path)
        head = CampaignResult(campaign_name=campaign.name)
        head.add(next(iter(full_store)))
        result_store.save_store(head, checkpoint)
        before = path.read_bytes()
        real_replace = os.replace

        def interrupted_replace(src, dst):
            # Ctrl-C lands inside the seed's publish.
            if str(dst) == checkpoint:
                raise KeyboardInterrupt
            return real_replace(src, dst)

        monkeypatch.setattr(result_store.os, "replace", interrupted_replace)
        with pytest.raises(CampaignInterrupted) as info:
            run_campaign(campaign, resume=head, checkpoint_path=checkpoint)
        monkeypatch.undo()
        assert len(info.value.partial) == 1
        # The previous checkpoint survives untouched and no temp is left.
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ckpt.store"]


class TestServiceIntegration:
    def test_columnar_journal_resumes(self, tmp_path, campaign):
        serial = run_campaign(campaign)
        journal = str(tmp_path / "journal.json")
        coordinator = Coordinator(campaign, journal_path=journal)
        for outcome in list(serial)[:2]:
            coordinator.submit("w0", None, outcome.to_dict())
        coordinator.close_journal()
        # The meta journal is a small pointer; outcomes live in the
        # append-only sidecar store.
        with open(journal, encoding="utf-8") as handle:
            assert json.load(handle)["outcomes"] == "store"
        assert result_store.is_store_file(journal + ".outcomes")
        revived = Coordinator(campaign, journal_path=journal)
        assert revived.stats["resumed"] == 2
        assert len(revived.store) == 2
        revived.close_journal()

    def test_columnar_journal_drains_to_serial_result(self, tmp_path, campaign):
        serial = run_campaign(campaign)
        journal = str(tmp_path / "journal.json")
        coordinator = Coordinator(campaign, journal_path=journal)
        for outcome in serial:
            coordinator.submit("w0", None, outcome.to_dict())
        assert coordinator.finished
        assert coordinator.result().to_json() == serial.to_json()
        coordinator.close_journal()
        sidecar = CampaignResult.load(journal + ".outcomes")
        assert sidecar.to_dict()["outcomes"] == serial.to_dict()["outcomes"]


class TestCli:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        small_campaign(name="store-cli", seeds=(1,)).save(str(path))
        return str(path)

    def test_checkpoint_is_columnar_and_loads_like_output(self, spec_path, tmp_path):
        output = str(tmp_path / "results.json")
        checkpoint = str(tmp_path / "ckpt.store")
        assert (
            cli_main(
                [spec_path, "--quiet", "--output", output, "--checkpoint", checkpoint]
            )
            == 0
        )
        assert not result_store.is_store_file(output)
        assert result_store.is_store_file(checkpoint)
        loaded = CampaignResult.load(output)
        assert CampaignResult.load(checkpoint).to_dict() == loaded.to_dict()
        # Re-running resumes from the columnar checkpoint (nothing re-runs).
        assert cli_main([spec_path, "--quiet", "--checkpoint", checkpoint]) == 0

    def test_output_blob_unaffected_by_checkpoint(self, spec_path, tmp_path, capsys):
        plain = str(tmp_path / "plain.json")
        checkpointed = str(tmp_path / "checkpointed.json")
        assert cli_main([spec_path, "--quiet", "--output", plain]) == 0
        assert (
            cli_main(
                [
                    spec_path,
                    "--quiet",
                    "--output",
                    checkpointed,
                    "--checkpoint",
                    str(tmp_path / "ckpt.store"),
                ]
            )
            == 0
        )
        with open(plain, "rb") as f_plain, open(checkpointed, "rb") as f_ckpt:
            assert f_plain.read() == f_ckpt.read()

    def test_shard_merge_with_columnar_shards(self, spec_path, tmp_path):
        spec_file = str(tmp_path / "spec2.json")
        small_campaign(name="store-cli-merge").save(spec_file)
        full = str(tmp_path / "full.json")
        assert cli_main([spec_file, "--quiet", "--output", full]) == 0
        shard_files = []
        for index in range(2):
            out = str(tmp_path / f"shard{index}.store")
            shard_files.append(out)
            assert (
                cli_main(
                    [spec_file, "--shard", f"{index}/2", "--quiet", "--checkpoint", out]
                )
                == 0
            )
            assert result_store.is_store_file(out)
        merged = str(tmp_path / "merged.json")
        assert (
            cli_main(
                ["merge", *shard_files, "--spec", spec_file, "--output", merged, "--quiet"]
            )
            == 0
        )
        with open(full, "rb") as f_full, open(merged, "rb") as f_merged:
            assert f_full.read() == f_merged.read()

    def test_merge_reports_stats_line(self, spec_path, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert cli_main([spec_path, "--quiet", "--output", out]) == 0
        merged = str(tmp_path / "merged.json")
        assert cli_main(["merge", out, out, "--output", merged, "--quiet"]) == 0
        printed = capsys.readouterr().out
        assert "merged 2 store(s), 2 scenarios (2 duplicate(s))" in printed

    def test_serve_columnar_journal(self, spec_path, tmp_path):
        # The serve path is exercised end to end elsewhere; here only the
        # journal plumbing: a coordinator built the way _serve_main builds
        # it journals outcomes to the sidecar store.
        journal = str(tmp_path / "journal.json")
        campaign = CampaignSpec.load(spec_path)
        serial = run_campaign(campaign)
        coordinator = Coordinator(campaign, journal_path=journal)
        for outcome in serial:
            coordinator.submit("w0", None, outcome.to_dict())
        coordinator.close_journal()
        assert result_store.is_store_file(journal + ".outcomes")
