"""Columnar on-disk campaign result store with append-only writes.

This module extends the in-memory :class:`~repro.sim.epoch.FrameColumns`
design to persistence.  A store file is::

    #repro-campaign-store {"campaign_name": ..., "encoding": "jsonl", "version": 1}\n
    <one JSON outcome record per line>

Frames are stored *columnar* inside each record (``result.frames`` maps
each :data:`~repro.sim.epoch.FRAME_COLUMN_NAMES` name to its column), so
a record never materialises per-frame dicts.  Pure stdlib.

It is the one checkpoint and journal format: the executor's
``--checkpoint`` and the distributed service's journal append each
:class:`ScenarioOutcome` as it completes (O(1) per completion, one write
and one flush), instead of rewriting the whole campaign.  Final results
(``--output``) stay the monolithic JSON blob of
:meth:`CampaignResult.save`; :meth:`CampaignResult.load` tells the two
apart by the magic header, so readers never need to be told what they are
looking at.  Store files an older release wrote in its Arrow encoding are
rejected with a :class:`~repro.errors.ConfigurationError`, never
quarantined.

Records carry a content ``digest`` (frames + spec + status, *excluding*
the derived ``metrics`` summary) so :func:`merge_store_files` can detect
conflicting duplicates while holding only one record in memory, and a
cached ``metrics`` summary so reporting answers summary queries without
touching frames at all.

Corruption handling carries over from the JSON blob: an unreadable store
is quarantined to ``<path>.corrupt`` with a ``RuntimeWarning``
(:func:`repro.campaign.results.quarantine_corrupt_file`), and — because
records are independent — :func:`load_store_checkpoint` additionally
salvages the valid prefix of a torn file before quarantining it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.campaign.results import (
    CORRUPT_CHECKPOINT_ERRORS,
    CampaignResult,
    ScenarioOutcome,
    quarantine_corrupt_file,
)
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.sim.epoch import FRAME_COLUMN_NAMES, FrameColumns
from repro.sim.metrics import summarize_result
from repro.sim.results import SimulationResult

#: First bytes of every columnar store file (followed by the JSON header).
MAGIC = b"#repro-campaign-store"
#: Store format version stamped into (and required from) the header.
FORMAT_VERSION = 1
#: The record encoding stamped into (and required from) the header.
ENCODING = "jsonl"

#: Records encoded per write in bulk saves.
STORE_CHUNK_ROWS = 256


def is_store_file(path: str) -> bool:
    """Whether ``path`` exists and starts with the columnar store magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


# ---------------------------------------------------------------------------
# Record encoding: ScenarioOutcome <-> store record dict.
# ---------------------------------------------------------------------------


def _frame_columns_of(result: SimulationResult) -> Dict[str, list]:
    """The result's frames as columns, without materialising records.

    Columnar results hand out their live column lists (callers must not
    mutate them); record-backed results are scattered into fresh columns.
    """
    columns = result.columns
    if columns is not None:
        return {name: getattr(columns, name) for name in FRAME_COLUMN_NAMES}
    data: Dict[str, list] = {name: [] for name in FRAME_COLUMN_NAMES}
    for record in result.records:
        for name in FRAME_COLUMN_NAMES:
            data[name].append(getattr(record, name))
    return data


def _columns_from_lists(frames: Dict[str, Any]) -> FrameColumns:
    """Validating inverse of :func:`_frame_columns_of` (decode path)."""
    kwargs = {name: frames[name] for name in FRAME_COLUMN_NAMES}
    kwargs["cycles_per_core"] = [tuple(row) for row in kwargs["cycles_per_core"]]
    try:
        return FrameColumns(**kwargs)
    except SimulationError as exc:
        # Unify corrupt-shape detection on the checkpoint-quarantine errors.
        raise ValueError(str(exc)) from exc


def _frames_for_deferred(frames: Dict[str, Any]) -> Dict[str, list]:
    """Shape raw decoded frames for :meth:`FrameColumns.from_deferred`."""
    return {
        name: (
            [tuple(row) for row in frames[name]]
            if name == "cycles_per_core"
            else list(frames[name])
        )
        for name in FRAME_COLUMN_NAMES
    }


def record_digest(record: Dict[str, Any]) -> str:
    """Content hash of a store record, for streaming-merge conflict checks.

    Canonical JSON (sorted keys, compact separators) over everything
    except ``digest`` itself and the derived ``metrics`` summary —
    metrics are excluded because NumPy's pairwise summation and the pure
    Python fallback produce different float dust for the same frames, and
    a derived cache must never make identical outcomes look conflicting.
    """
    payload = {
        key: value
        for key, value in record.items()
        if key not in ("digest", "metrics")
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def encode_record(outcome: ScenarioOutcome) -> Dict[str, Any]:
    """Serialise one outcome to a store record (columnar frames + digest).

    The cached ``metrics`` summary is carried over from the outcome when
    present and computed once here otherwise, so every record on disk can
    answer summary queries without its frames.
    """
    record: Dict[str, Any] = {
        "scenario": outcome.scenario.to_dict(),
        "status": outcome.status,
        "attempts": outcome.attempts,
    }
    result = outcome.result
    if result is not None:
        result_data: Dict[str, Any] = {
            "governor_name": result.governor_name,
            "application_name": result.application_name,
            "reference_time_s": result.reference_time_s,
            "exploration_count": result.exploration_count,
            "converged_epoch": result.converged_epoch,
        }
        if result.engine_used:
            result_data["engine_used"] = result.engine_used
        result_data["frames"] = _frame_columns_of(result)
        record["result"] = result_data
    if outcome.probe is not None:
        record["probe"] = outcome.probe
    if outcome.error is not None:
        record["error"] = outcome.error
    if outcome.traceback is not None:
        record["traceback"] = outcome.traceback
    metrics = outcome.metrics
    if metrics is None and result is not None:
        metrics = asdict(summarize_result(result))
    if metrics is not None:
        record["metrics"] = dict(metrics)
    record["digest"] = record_digest(record)
    return record


def decode_record(
    record: Dict[str, Any],
    frames_loader: Optional[Callable[[], Dict[str, list]]] = None,
) -> ScenarioOutcome:
    """Rebuild a :class:`ScenarioOutcome` from a store record.

    With ``frames_loader`` the result's columns are deferred
    (:meth:`FrameColumns.from_deferred`): the loader re-reads the frames
    from disk on first column access, so a lazily loaded store holds only
    outcome metadata and cached metrics in memory.
    """
    result_data = record.get("result")
    result = None
    if result_data is not None:
        if frames_loader is not None:
            columns = FrameColumns.from_deferred(frames_loader)
        else:
            columns = _columns_from_lists(result_data["frames"])
        result = SimulationResult(
            governor_name=result_data["governor_name"],
            application_name=result_data["application_name"],
            reference_time_s=result_data["reference_time_s"],
            columns=columns,
            exploration_count=result_data.get("exploration_count", 0),
            converged_epoch=result_data.get("converged_epoch"),
            engine_used=result_data.get("engine_used", ""),
        )
    return ScenarioOutcome(
        scenario=ScenarioSpec.from_dict(record["scenario"]),
        result=result,
        probe=record.get("probe"),
        status=record["status"],
        error=record.get("error"),
        traceback=record.get("traceback"),
        attempts=record.get("attempts", 1),
        metrics=record.get("metrics"),
    )


# ---------------------------------------------------------------------------
# File framing: header line + one JSON record per line.
# ---------------------------------------------------------------------------


def _header_line(campaign_name: str) -> bytes:
    meta = {
        "campaign_name": campaign_name,
        "encoding": ENCODING,
        "version": FORMAT_VERSION,
    }
    return MAGIC + b" " + json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n"


def _read_header(handle) -> Dict[str, Any]:
    """Parse the header line; the handle is left at the first record."""
    line = handle.readline()
    if not line.startswith(MAGIC + b" "):
        raise ValueError("not a repro campaign store file (missing magic header)")
    meta = json.loads(line[len(MAGIC) + 1 :].decode("utf-8"))
    if not isinstance(meta, dict):
        raise ValueError("store header is not a JSON object")
    name = getattr(handle, "name", "?")
    version = meta.get("version")
    if version != FORMAT_VERSION:
        # A future format is a setup problem, not corruption: never
        # quarantine a file a newer build wrote deliberately.
        raise ConfigurationError(
            f"result store {name!r} has format version "
            f"{version!r}; this build reads version {FORMAT_VERSION}"
        )
    encoding = meta.get("encoding")
    if encoding == "arrow":
        # Written deliberately by an older release: a setup problem, not
        # corruption, so it must never be quarantined either.
        raise ConfigurationError(
            f"result store {name!r} uses the 'arrow' encoding of an older "
            f"release, which this build no longer reads (it reads only "
            f"{ENCODING!r}); load it with that release and pyarrow, then "
            f"re-save it with CampaignResult.save"
        )
    if encoding != ENCODING:
        raise ValueError(f"unknown store encoding {encoding!r}")
    if "campaign_name" not in meta:
        raise ValueError("store header has no campaign_name")
    return meta


# ---------------------------------------------------------------------------
# Writer: create / append.
# ---------------------------------------------------------------------------


class StoreWriter:
    """Append-only writer for one columnar store file.

    ``create`` starts a fresh file (header included); ``open_append``
    reopens an existing one.  Each :meth:`append` writes one whole record
    line and flushes it, so checkpoint cost is O(1) per completion
    instead of O(campaign), and a crash loses at most the record being
    written (whose torn tail :func:`load_store_checkpoint` salvages
    around).
    """

    def __init__(self, path: str, campaign_name: str, handle) -> None:
        self.path = path
        self.campaign_name = campaign_name
        self._handle = handle

    @classmethod
    def create(cls, path: str, campaign_name: str) -> "StoreWriter":
        handle = open(path, "wb")
        handle.write(_header_line(campaign_name))
        handle.flush()
        return cls(path, campaign_name, handle)

    @classmethod
    def open_append(cls, path: str) -> "StoreWriter":
        with open(path, "rb") as probe:
            meta = _read_header(probe)
        return cls(path, meta["campaign_name"], open(path, "ab"))

    def append(self, outcome: ScenarioOutcome) -> None:
        """Append and flush one outcome (O(1) in the number already stored)."""
        self.append_records([encode_record(outcome)])
        self._handle.flush()

    def append_records(self, records: Sequence[Dict[str, Any]]) -> None:
        """Append pre-encoded records (bulk saves chunk through this)."""
        if records:
            self._handle.write(
                b"".join(
                    json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
                    for record in records
                )
            )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reader: streaming iteration with per-record disk offsets for lazy loads.
# ---------------------------------------------------------------------------


class StoreReader:
    """Streaming reader over one columnar store file."""

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "rb") as handle:
            meta = _read_header(handle)
        self.campaign_name: str = meta["campaign_name"]

    def iter_records(self) -> Iterator[Tuple[Dict[str, Any], int, int]]:
        """Yield ``(record, offset, length)`` triples in file order.

        ``offset``/``length`` locate the record's line — enough for a lazy
        loader to re-read exactly one record's frames later.  A truncated
        or garbled tail raises ``ValueError`` at the first bad record,
        after every preceding good record has been yielded (which is what
        lets :func:`load_store_checkpoint` salvage the prefix).
        """
        with open(self.path, "rb") as handle:
            _read_header(handle)
            while True:
                offset = handle.tell()
                line = handle.readline()
                if not line:
                    return
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("store record line is not a JSON object")
                yield record, offset, len(line)

    def _frames_loader(self, offset: int, length: int) -> Callable[[], Dict[str, list]]:
        path = self.path

        def load() -> Dict[str, list]:
            with open(path, "rb") as handle:
                handle.seek(offset)
                record = json.loads(handle.read(length))
            return _frames_for_deferred(record["result"]["frames"])

        return load

    def iter_outcomes(self, lazy: bool = False) -> Iterator[ScenarioOutcome]:
        """Decode every stored outcome, optionally with disk-backed frames."""
        for record, offset, length in self.iter_records():
            loader = None
            if lazy and record.get("result") is not None:
                record["result"].pop("frames", None)
                loader = self._frames_loader(offset, length)
            yield decode_record(record, frames_loader=loader)


# ---------------------------------------------------------------------------
# Whole-store operations: atomic save, seeded append, load, salvage, merge.
# ---------------------------------------------------------------------------


def save_store(
    store: CampaignResult,
    path: str,
    chunk_rows: int = STORE_CHUNK_ROWS,
) -> None:
    """Atomically (re)write a whole store columnar (write-temp + ``os.replace``)."""
    temp_path = f"{path}.tmp"
    writer = StoreWriter.create(temp_path, store.campaign_name)
    try:
        batch: List[Dict[str, Any]] = []
        for outcome in store:
            batch.append(encode_record(outcome))
            if len(batch) >= chunk_rows:
                writer.append_records(batch)
                batch = []
        writer.append_records(batch)
        writer.close()
        os.replace(temp_path, path)
    except BaseException:
        writer.close()
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def seed_store(store: CampaignResult, path: str) -> StoreWriter:
    """Atomically seed ``path`` with ``store``, then reopen it for appends.

    The one start-up path of every append-only file — the executor's
    checkpoint and the service journal's outcomes store: the rewrite
    publishes whatever survived resume, and each later completion is a
    single O(1) :meth:`StoreWriter.append`.
    """
    save_store(store, path)
    return StoreWriter.open_append(path)


def load_store(path: str, lazy: bool = False) -> CampaignResult:
    """Load a columnar store file (format already detected by the caller)."""
    reader = StoreReader(path)
    store = CampaignResult(campaign_name=reader.campaign_name)
    for outcome in reader.iter_outcomes(lazy=lazy):
        store.add(outcome)
    return store


def load_store_checkpoint(path: str) -> Optional[CampaignResult]:
    """Checkpoint-load a columnar store, salvaging the prefix of a torn file.

    Records are independent, so everything before the first corrupt byte
    is recovered; the damaged file is then quarantined (``<path>.corrupt``
    + ``RuntimeWarning``) exactly like a corrupt JSON checkpoint, and the
    campaign resumes from the salvaged outcomes.  ``None`` only when the
    header itself is unreadable (nothing to salvage).
    """
    try:
        reader = StoreReader(path)
    except FileNotFoundError:
        return None
    except CORRUPT_CHECKPOINT_ERRORS as exc:
        quarantine_corrupt_file(path, exc)
        return None
    store = CampaignResult(campaign_name=reader.campaign_name)
    try:
        for outcome in reader.iter_outcomes(lazy=False):
            store.add(outcome)
    except CORRUPT_CHECKPOINT_ERRORS as exc:
        quarantine_corrupt_file(path, exc)
    return store


@dataclass(frozen=True)
class MergeStats:
    """What a streaming merge did: inputs, distinct scenarios, duplicates."""

    stores: int
    scenarios: int
    duplicates: int


def _iter_shard(path: str) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Yield ``(campaign_name, record)`` from one shard file of any format.

    Columnar shards stream record by record; legacy monolithic JSON
    shards are parsed whole (unavoidably) but one shard at a time, so
    merge memory is bounded by the largest single shard, not their sum.
    """
    if is_store_file(path):
        reader = StoreReader(path)
        for record, _, _ in reader.iter_records():
            yield reader.campaign_name, record
        return
    legacy = CampaignResult.load(path)
    for outcome in legacy:
        yield legacy.campaign_name, encode_record(outcome)


def _shard_campaign_name(path: str) -> str:
    if is_store_file(path):
        return StoreReader(path).campaign_name
    return CampaignResult.load(path).campaign_name


def merge_store_files(
    paths: Sequence[str],
    output_path: str,
    spec: Optional[CampaignSpec] = None,
) -> MergeStats:
    """Streaming union of shard result files into ``output_path``.

    Pass 1 streams every shard into a jsonl spill file next to the
    output, deduplicating by scenario id with the per-record content
    digests — identical duplicates are unioned silently, conflicting ones
    raise :class:`SimulationError`, and at no point is more than one
    record (plus one legacy shard, if any input is monolithic JSON) held
    in memory.  Pass 2 re-reads the spill by offset in final order
    (``spec`` order when given, else first occurrence) and streams the
    monolithic JSON blob atomically, byte-identical to
    ``CampaignResult.save``.
    """
    if not paths:
        raise ConfigurationError("merge needs at least one result store")
    spill_path = f"{output_path}.merge-spill"
    campaign_name: Optional[str] = None
    #: scenario_id -> (digest, spill offset, spill length, label)
    entries: Dict[str, Tuple[str, int, int, str]] = {}
    duplicates = 0
    spill = open(spill_path, "w+b")
    try:
        for path in paths:
            for shard_name, record in _iter_shard(path):
                if campaign_name is None:
                    campaign_name = shard_name
                elif shard_name != campaign_name:
                    raise ConfigurationError(
                        "cannot merge result stores of different campaigns: "
                        f"{sorted({campaign_name, shard_name})}"
                    )
                scenario = record["scenario"]
                sid = ScenarioSpec.from_dict(scenario).scenario_id
                digest = record.get("digest") or record_digest(record)
                existing = entries.get(sid)
                if existing is not None:
                    if existing[0] != digest:
                        raise SimulationError(
                            f"conflicting outcomes for scenario "
                            f"{scenario.get('label')!r} (id {sid}) while merging "
                            f"campaign {campaign_name!r}"
                        )
                    duplicates += 1
                    continue
                offset = spill.tell()
                line = json.dumps(record, separators=(",", ":")).encode("utf-8")
                spill.write(line + b"\n")
                entries[sid] = (digest, offset, len(line), scenario.get("label", ""))

        if campaign_name is None:
            # Every shard was empty; name the merge after the first one.
            campaign_name = _shard_campaign_name(paths[0])

        ordered_ids: List[str] = list(entries)
        if spec is not None:
            ordered_ids = [s.scenario_id for s in spec.scenarios]
            for scenario in spec.scenarios:
                if scenario.scenario_id not in entries:
                    raise SimulationError(
                        f"campaign {spec.name!r} has no outcome for scenario "
                        f"{scenario.label!r} (id {scenario.scenario_id})"
                    )
            campaign_name = spec.name

        def read_spill(sid: str) -> Dict[str, Any]:
            _, offset, length, _ = entries[sid]
            spill.seek(offset)
            return json.loads(spill.read(length))

        spill.flush()
        temp_path = f"{output_path}.tmp"
        with open(temp_path, "w", encoding="utf-8") as out:
            out.write(
                '{"campaign_name": ' + json.dumps(campaign_name) + ', "outcomes": ['
            )
            for position, sid in enumerate(ordered_ids):
                if position:
                    out.write(", ")
                out.write(json.dumps(decode_record(read_spill(sid)).to_dict()))
            out.write("]}")
        os.replace(temp_path, output_path)
    finally:
        spill.close()
        try:
            os.unlink(spill_path)
        except OSError:
            pass
    return MergeStats(
        stores=len(paths), scenarios=len(entries), duplicates=duplicates
    )
