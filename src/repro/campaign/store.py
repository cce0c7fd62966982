"""Columnar on-disk campaign result store with append-only writes.

This module extends the in-memory :class:`~repro.sim.epoch.FrameColumns`
design to persistence.  A store file is::

    #repro-campaign-store {"campaign_name": ..., "encoding": ..., "version": 1}\n
    <one outcome record per line or per Arrow IPC segment>

Two encodings share that framing:

``jsonl``
    One JSON object per line.  Frames are stored *columnar* inside the
    record (``result.frames`` maps each
    :data:`~repro.sim.epoch.FRAME_COLUMN_NAMES` name to its column), so a
    record never materialises per-frame dicts.  Pure stdlib — this is the
    fallback encoding on pyarrow-less installs, mirroring the
    numpy-optional pattern in :mod:`repro._compat`.

``arrow``
    Repeated ``[8-byte little-endian length][self-contained Arrow IPC
    stream]`` segments.  Each segment holds one record batch with a
    ``meta`` JSON string column (everything except frames) plus one
    list-typed Arrow column per frame field.  Requires the ``[arrow]``
    extra (``pip install repro-biswas-date17[arrow]``); the
    ``REPRO_DISABLE_ARROW`` kill-switch turns the encoding off per
    process without reinstalling (existing Arrow files stay *readable*
    whenever pyarrow is importable — the switch gates negotiation, not
    decoding).

Both encodings are **append-only**: the executor and the distributed
service's journal append each :class:`ScenarioOutcome` as it completes
(O(1) checkpoint cost), instead of rewriting the whole campaign.  Records
carry a content ``digest`` (frames + spec + status, *excluding* the
derived ``metrics`` summary) so :func:`merge_store_files` can detect
conflicting duplicates while holding only one record in memory, and a
cached ``metrics`` summary so reporting answers summary queries without
touching frames at all.

Corruption handling carries over from the JSON checkpoints: an unreadable
store is quarantined to ``<path>.corrupt`` with a ``RuntimeWarning``
(:func:`repro.campaign.results.quarantine_corrupt_file`), and — because
records are independent — :func:`load_store_checkpoint` additionally
salvages the valid prefix of a torn file before quarantining it.

Format selection is capability-negotiated like the engine backends:
:func:`negotiate_store` maps the CLI's ``--store {auto,json,arrow}`` onto
``json`` (the legacy monolithic blob), ``jsonl`` or ``arrow``, and
:meth:`CampaignResult.load` auto-detects the format from the magic header
so readers never need to be told what they are looking at.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro._compat import HAVE_PYARROW, arrow_disabled
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

#: Requested-format names (the CLI's ``--store`` choices).
STORE_AUTO = "auto"
STORE_JSON = "json"
STORE_ARROW = "arrow"
STORE_CHOICES = (STORE_AUTO, STORE_JSON, STORE_ARROW)

#: Resolved on-disk encodings of the columnar store.
ENCODING_JSONL = "jsonl"
ENCODING_ARROW = "arrow"
ENCODINGS = (ENCODING_JSONL, ENCODING_ARROW)

#: Rows per Arrow segment (and per jsonl writelines batch) in bulk saves;
#: appends write one record per segment so each completion is one flush.
STORE_CHUNK_ROWS = 256


def arrow_available() -> bool:
    """Whether the Arrow encoding may be *written* in this process."""
    return HAVE_PYARROW and not arrow_disabled()


def negotiate_store(requested: str = STORE_AUTO) -> str:
    """Resolve a requested ``--store`` format to a concrete one.

    Returns ``"json"`` (the legacy monolithic blob) or a columnar
    encoding (``"jsonl"`` / ``"arrow"``):

    * ``json`` — always the legacy blob; never columnar.
    * ``arrow`` — the columnar store, Arrow-encoded when pyarrow is
      importable and not disabled, jsonl-encoded otherwise (the columnar
      machinery is identical; only the byte encoding degrades).
    * ``auto`` — Arrow when available, otherwise the legacy ``json``
      blob, so a pyarrow-less install behaves byte-identically to one
      that predates this module (mirroring jitpath's negotiation
      fall-through).
    """
    if requested == STORE_JSON:
        return STORE_JSON
    if requested == STORE_ARROW:
        return ENCODING_ARROW if arrow_available() else ENCODING_JSONL
    if requested == STORE_AUTO:
        return ENCODING_ARROW if arrow_available() else STORE_JSON
    raise ConfigurationError(
        f"unknown result store format {requested!r}; expected one of {STORE_CHOICES}"
    )


def is_store_file(path: str) -> bool:
    """Whether ``path`` exists and starts with the columnar store magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _pyarrow():
    """Import pyarrow or explain how to get it (never quarantines good data)."""
    if not HAVE_PYARROW:
        raise ConfigurationError(
            "this result store is Arrow-encoded but pyarrow is not installed; "
            "install the extra (pip install 'repro-biswas-date17[arrow]') to read it"
        )
    import pyarrow  # noqa: PLC0415 - deliberate lazy import (native modules)

    return pyarrow


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
# File framing: header line + jsonl lines / length-prefixed Arrow segments.
# ---------------------------------------------------------------------------


def _header_line(campaign_name: str, encoding: str) -> bytes:
    meta = {
        "campaign_name": campaign_name,
        "encoding": encoding,
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
    version = meta.get("version")
    if version != FORMAT_VERSION:
        # A future format is a setup problem, not corruption: never
        # quarantine a file a newer build wrote deliberately.
        raise ConfigurationError(
            f"result store {getattr(handle, 'name', '?')!r} has format version "
            f"{version!r}; this build reads version {FORMAT_VERSION}"
        )
    if meta.get("encoding") not in ENCODINGS:
        raise ValueError(f"unknown store encoding {meta.get('encoding')!r}")
    if "campaign_name" not in meta:
        raise ValueError("store header has no campaign_name")
    return meta


_ARROW_META_COLUMN = "meta"


def _arrow_schema(pa):
    fields = [pa.field(_ARROW_META_COLUMN, pa.string())]
    for name in FRAME_COLUMN_NAMES:
        if name in ("index", "operating_index"):
            value_type = pa.int64()
        elif name == "explored":
            value_type = pa.bool_()
        elif name == "cycles_per_core":
            value_type = pa.list_(pa.float64())
        else:
            value_type = pa.float64()
        fields.append(pa.field(name, pa.list_(value_type)))
    return pa.schema(fields)


def _arrow_segment(records: Sequence[Dict[str, Any]]) -> bytes:
    """Encode records as one length-prefixed, self-contained IPC segment."""
    pa = _pyarrow()
    schema = _arrow_schema(pa)
    metas: List[str] = []
    frame_columns: Dict[str, List[Optional[list]]] = {
        name: [] for name in FRAME_COLUMN_NAMES
    }
    for record in records:
        result_data = record.get("result")
        meta = dict(record)
        if result_data is not None:
            meta["result"] = {
                key: value for key, value in result_data.items() if key != "frames"
            }
            frames = result_data["frames"]
            for name in FRAME_COLUMN_NAMES:
                frame_columns[name].append(list(frames[name]))
        else:
            for name in FRAME_COLUMN_NAMES:
                frame_columns[name].append(None)
        metas.append(json.dumps(meta))
    arrays = [pa.array(metas, type=pa.string())]
    for field in schema[1:]:
        arrays.append(pa.array(frame_columns[field.name], type=field.type))
    batch = pa.record_batch(arrays, schema=schema)
    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, schema) as writer:
        writer.write_batch(batch)
    payload = sink.getvalue()
    return len(payload).to_bytes(8, "little") + payload


def _arrow_segment_table(payload: bytes):
    pa = _pyarrow()
    with pa.ipc.open_stream(io.BytesIO(payload)) as reader:
        return reader.read_all()


def _arrow_segment_records(
    payload: bytes, include_frames: bool
) -> List[Dict[str, Any]]:
    """Decode one segment back to store records (optionally with frames)."""
    table = _arrow_segment_table(payload)
    metas = table.column(_ARROW_META_COLUMN).to_pylist()
    records: List[Dict[str, Any]] = []
    frames_by_name = (
        {name: table.column(name).to_pylist() for name in FRAME_COLUMN_NAMES}
        if include_frames
        else None
    )
    for row, meta_json in enumerate(metas):
        record = json.loads(meta_json)
        if not isinstance(record, dict):
            raise ValueError("arrow segment meta row is not a JSON object")
        if include_frames and record.get("result") is not None:
            record["result"]["frames"] = {
                name: frames_by_name[name][row] for name in FRAME_COLUMN_NAMES
            }
        records.append(record)
    return records


def _arrow_segment_frames(payload: bytes, row: int) -> Dict[str, list]:
    """Extract one row's frame columns from a segment (lazy loaders)."""
    table = _arrow_segment_table(payload)
    return {name: table.column(name)[row].as_py() for name in FRAME_COLUMN_NAMES}


# ---------------------------------------------------------------------------
# Writer: create / append / flush.
# ---------------------------------------------------------------------------


class StoreWriter:
    """Append-only writer for one columnar store file.

    ``create`` starts a fresh file (header included); ``open_append``
    reopens an existing one and keeps appending in its encoding.  Each
    :meth:`append` call writes exactly one record — a single
    ``handle.write`` of a whole line/segment followed by
    :meth:`flush` on the executor's checkpoint cadence — so checkpoint
    cost is O(1) per completion instead of O(campaign).
    """

    def __init__(self, path: str, campaign_name: str, encoding: str, handle) -> None:
        self.path = path
        self.campaign_name = campaign_name
        self.encoding = encoding
        self._handle = handle

    @classmethod
    def create(cls, path: str, campaign_name: str, encoding: str) -> "StoreWriter":
        if encoding not in ENCODINGS:
            raise ConfigurationError(
                f"unknown store encoding {encoding!r}; expected one of {ENCODINGS}"
            )
        if encoding == ENCODING_ARROW:
            _pyarrow()  # fail before creating the file, not on first append
        handle = open(path, "wb")
        handle.write(_header_line(campaign_name, encoding))
        handle.flush()
        return cls(path, campaign_name, encoding, handle)

    @classmethod
    def open_append(cls, path: str) -> "StoreWriter":
        with open(path, "rb") as probe:
            meta = _read_header(probe)
        if meta["encoding"] == ENCODING_ARROW:
            _pyarrow()
        return cls(path, meta["campaign_name"], meta["encoding"], open(path, "ab"))

    def append(self, outcome: ScenarioOutcome) -> None:
        """Append one outcome (O(1) in the number already stored)."""
        self.append_records([encode_record(outcome)])

    def append_records(self, records: Sequence[Dict[str, Any]]) -> None:
        """Append pre-encoded records (bulk saves chunk through this)."""
        if not records:
            return
        if self.encoding == ENCODING_JSONL:
            lines = b"".join(
                json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
                for record in records
            )
            self._handle.write(lines)
        else:
            self._handle.write(_arrow_segment(records))

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
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
        self.encoding: str = meta["encoding"]
        if self.encoding == ENCODING_ARROW:
            _pyarrow()

    def iter_records(
        self, include_frames: bool = True
    ) -> Iterator[Tuple[Dict[str, Any], Tuple]]:
        """Yield ``(record, location)`` pairs in file order.

        ``location`` is ``("jsonl", offset, length)`` or
        ``("arrow", offset, length, row)`` — enough for a lazy loader to
        re-read exactly one record's frames later.  A truncated or
        garbled tail raises ``ValueError`` at the first bad record, after
        every preceding good record has been yielded (which is what lets
        :func:`load_store_checkpoint` salvage the prefix).
        """
        with open(self.path, "rb") as handle:
            _read_header(handle)
            if self.encoding == ENCODING_JSONL:
                yield from self._iter_jsonl(handle)
            else:
                yield from self._iter_arrow(handle, include_frames)

    def _iter_jsonl(self, handle) -> Iterator[Tuple[Dict[str, Any], Tuple]]:
        while True:
            offset = handle.tell()
            line = handle.readline()
            if not line:
                return
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("store record line is not a JSON object")
            yield record, (ENCODING_JSONL, offset, len(line))

    def _iter_arrow(
        self, handle, include_frames: bool
    ) -> Iterator[Tuple[Dict[str, Any], Tuple]]:
        size = os.fstat(handle.fileno()).st_size
        while True:
            prefix = handle.read(8)
            if not prefix:
                return
            if len(prefix) < 8:
                raise ValueError("truncated arrow segment length prefix")
            length = int.from_bytes(prefix, "little")
            offset = handle.tell()
            if length <= 0 or offset + length > size:
                raise ValueError(
                    f"arrow segment at offset {offset} claims {length} bytes "
                    f"but the file holds {size}"
                )
            payload = handle.read(length)
            for row, record in enumerate(
                _arrow_segment_records(payload, include_frames)
            ):
                yield record, (ENCODING_ARROW, offset, length, row)

    def _frames_loader(self, location: Tuple) -> Callable[[], Dict[str, list]]:
        path = self.path
        if location[0] == ENCODING_JSONL:
            _, offset, length = location

            def load_jsonl() -> Dict[str, list]:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    record = json.loads(handle.read(length))
                return _frames_for_deferred(record["result"]["frames"])

            return load_jsonl
        _, offset, length, row = location

        def load_arrow() -> Dict[str, list]:
            with open(path, "rb") as handle:
                handle.seek(offset)
                payload = handle.read(length)
            return _frames_for_deferred(_arrow_segment_frames(payload, row))

        return load_arrow

    def iter_outcomes(self, lazy: bool = False) -> Iterator[ScenarioOutcome]:
        """Decode every stored outcome, optionally with disk-backed frames."""
        for record, location in self.iter_records(include_frames=not lazy):
            loader = None
            if lazy and record.get("result") is not None:
                record["result"].pop("frames", None)
                loader = self._frames_loader(location)
            yield decode_record(record, frames_loader=loader)


# ---------------------------------------------------------------------------
# Whole-store operations: atomic save, load, checkpoint salvage, merge.
# ---------------------------------------------------------------------------


def save_store(
    store: CampaignResult,
    path: str,
    encoding: str,
    chunk_rows: int = STORE_CHUNK_ROWS,
) -> None:
    """Atomically (re)write a whole store columnar (write-temp + ``os.replace``)."""
    temp_path = f"{path}.tmp"
    writer = StoreWriter.create(temp_path, store.campaign_name, encoding)
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
        for record, _ in reader.iter_records(include_frames=True):
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
    store: str = STORE_AUTO,
) -> MergeStats:
    """Streaming union of shard result files into ``output_path``.

    Pass 1 streams every shard into a jsonl spill file next to the
    output, deduplicating by scenario id with the per-record content
    digests — identical duplicates are unioned silently, conflicting ones
    raise :class:`SimulationError`, and at no point is more than one
    record (plus one legacy shard, if any input is monolithic JSON) held
    in memory.  Pass 2 re-reads the spill by offset in final order
    (``spec`` order when given, else first occurrence) and writes the
    negotiated output format atomically; the monolithic JSON output is
    streamed byte-identically to ``CampaignResult.save``.
    """
    if not paths:
        raise ConfigurationError("merge needs at least one result store")
    resolved = negotiate_store(store)
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
        if resolved == STORE_JSON:
            with open(temp_path, "w", encoding="utf-8") as out:
                out.write(
                    '{"campaign_name": ' + json.dumps(campaign_name) + ', "outcomes": ['
                )
                for position, sid in enumerate(ordered_ids):
                    if position:
                        out.write(", ")
                    out.write(json.dumps(decode_record(read_spill(sid)).to_dict()))
                out.write("]}")
        else:
            writer = StoreWriter.create(temp_path, campaign_name, resolved)
            try:
                batch: List[Dict[str, Any]] = []
                for sid in ordered_ids:
                    batch.append(read_spill(sid))
                    if len(batch) >= STORE_CHUNK_ROWS:
                        writer.append_records(batch)
                        batch = []
                writer.append_records(batch)
            finally:
                writer.close()
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
