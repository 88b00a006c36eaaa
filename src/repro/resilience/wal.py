"""Durable write-ahead log for shard submissions.

The cluster's in-memory :class:`~repro.service.replay.SubmissionLog`
is the recovery source of truth -- which makes it a single point of
loss: a fault that takes the *parent* process down loses every
submission with it, and a fault that lands mid-write leaves a torn
record that naive replay would choke on.  :class:`WriteAheadLog` is the
durable replacement: an append-only binary file of length-prefixed,
CRC32-checksummed records, fsynced in batches, that truncates a torn
tail on open so recovery is correct even when the crash landed halfway
through a write.

Byte layout (see docs/RESILIENCE.md for the full table)::

    file   := magic records*
    magic  := b"RWAL0001"                      (8 bytes)
    record := length crc32 payload
    length := uint32 little-endian             (payload bytes)
    crc32  := uint32 little-endian             (zlib.crc32 of payload)
    payload:= v2 | v1
    v2     := 0x02 t:int64-le spec             (written since format v2)
    spec   := repro.workloads.serialize.encode_spec frame
    v1     := UTF-8 JSON {"t": int, "spec": {...}}   (first byte "{")

:meth:`WriteAheadLog.record` writes v2 payloads; recovery reads both,
dispatching on the payload's first byte, so logs written before the
binary format -- and logs holding both kinds -- stay readable.

A record is *valid* iff its full frame is present and the CRC matches.
On open, the log scans forward from the magic and keeps the longest
valid prefix; anything after the first invalid frame is a torn tail --
the bytes a crash cut short -- and is truncated away.  A frame whose
CRC matches but whose payload is not a record (unknown first byte, bad
JSON, a spec frame whose lengths do not add up, an invalid DAG) was
written that way, not torn: opening the log raises
:class:`~repro.errors.WALError` naming the file and the record index.  Replay of the
surviving prefix plus idempotent re-submission (keys are assigned per
log position, see :meth:`key_for`) makes recovery exactly-once.

The class duck-types ``SubmissionLog`` (``record`` / ``entries`` /
``__len__`` / ``__iter__``), so :class:`~repro.cluster.service.
ClusterService` can use either interchangeably.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Iterator, Union

from repro.errors import ReproError, WALError
from repro.sim.jobs import JobSpec
from repro.workloads.serialize import decode_spec, encode_spec, spec_from_dict

#: File magic: format name + version.  Bump the digits on layout change.
WAL_MAGIC = b"RWAL0001"

#: ``<length:uint32><crc32:uint32>`` little-endian frame header.
_FRAME = struct.Struct("<II")

#: ``<version:u8><t:int64>`` head of a binary (v2) record payload; a
#: JSON (v1) payload starts with ``{`` instead.
_RECORD_HEAD = struct.Struct("<Bq")

#: What decoding a checksummed payload raises when it is not valid
#: JSON or not a record of the expected shape.
MALFORMED = (
    ReproError,
    ArithmeticError,
    AttributeError,
    LookupError,
    RecursionError,
    TypeError,
    ValueError,
)


def malformed_record(path: str, index: int, exc: Exception) -> WALError:
    """The :class:`WALError` for a checksummed record that does not decode."""
    return WALError(
        f"{path}: record {index} passes its CRC but is malformed "
        f"({type(exc).__name__}: {exc})"
    )


def pack_frame(payload: bytes) -> bytes:
    """Frame ``payload`` as ``<length><crc32><payload>`` bytes."""
    return _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def scan_frames(data: bytes, magic: bytes, path: str) -> tuple[list[bytes], int]:
    """Longest valid frame prefix of ``data``.

    Returns the decoded payloads and the byte offset of the first
    invalid frame (``len(data)`` when the file is clean); bytes past the
    offset are a torn tail the caller should truncate.  Shared by the
    submission WAL and the steal-transaction journal, which differ only
    in magic and payload schema.
    """
    if not data.startswith(magic):
        raise WALError(f"{path} has wrong magic (expected {magic!r})")
    payloads: list[bytes] = []
    good = len(magic)
    while True:
        header = data[good : good + _FRAME.size]
        if len(header) < _FRAME.size:
            break
        length, crc = _FRAME.unpack(header)
        start = good + _FRAME.size
        payload = data[start : start + length]
        if len(payload) < length or zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break
        payloads.append(payload)
        good = start + length
    return payloads, good


def encode_record(t: int, spec: JobSpec) -> bytes:
    """The binary (v2) payload of one submission record."""
    return _RECORD_HEAD.pack(0x02, t) + encode_spec(spec)


def decode_record(payload: bytes) -> tuple[int, JobSpec]:
    """Decode one record payload, binary (v2) or JSON (v1).

    Dispatches on the first byte; raises a :data:`MALFORMED` error or
    ``struct.error`` when the payload is not a record.
    """
    if payload[:1] == b"{":
        entry = json.loads(payload.decode("utf-8"))
        return int(entry["t"]), spec_from_dict(entry["spec"])
    if payload[:1] != b"\x02":
        raise ValueError(f"unknown record version byte {payload[:1]!r}")
    _, t = _RECORD_HEAD.unpack_from(payload)
    return t, decode_spec(memoryview(payload)[_RECORD_HEAD.size :])


class WriteAheadLog:
    """Append-only durable submission log with torn-tail recovery.

    Parameters
    ----------
    path:
        The log file.  An existing file is scanned and its valid prefix
        loaded (torn tail truncated); a missing file is created.
    fsync_every:
        Records between fsyncs (batch durability).  1 fsyncs every
        record; the default 8 amortizes the syscall at the cost of at
        most 7 records on power loss -- records the *cluster* still
        holds in memory, so only a parent-process fault can lose them.
    """

    def __init__(self, path: Union[str, os.PathLike], *, fsync_every: int = 8) -> None:
        if fsync_every < 1:
            raise WALError("fsync_every must be >= 1")
        self.path = str(path)
        self.fsync_every = int(fsync_every)
        #: in-memory mirror of the durable records, ``(t, spec)`` pairs
        self.entries: list[tuple[int, JobSpec]] = []
        #: bytes cut off the tail when the file was opened (0 = clean)
        self.truncated_bytes = 0
        self._pending = 0
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            self._recover()
            self._fh = open(self.path, "ab")
        else:
            self._fh = open(self.path, "wb")
            self._fh.write(WAL_MAGIC)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    # ------------------------------------------------------------------
    # SubmissionLog interface
    # ------------------------------------------------------------------
    def record(self, t: int, spec: JobSpec) -> int:
        """Append one submission durably; returns its log index."""
        t = int(t)
        self._fh.write(pack_frame(encode_record(t, spec)))
        self.entries.append((t, spec))
        self._pending += 1
        if self._pending >= self.fsync_every:
            self.sync()
        return len(self.entries) - 1

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[int, JobSpec]]:
        return iter(self.entries)

    def key_for(self, index: int) -> str:
        """Idempotency key of the record at ``index`` (stable across
        replays: a function of log position alone)."""
        return str(index)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush buffered records to the OS and fsync the file."""
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._pending = 0

    def close(self) -> None:
        """Sync and close the underlying file (idempotent)."""
        if self._fh.closed:
            return
        self.sync()
        self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Load the longest valid record prefix; truncate the rest."""
        with open(self.path, "rb") as fh:
            data = fh.read()
        payloads, good = scan_frames(data, WAL_MAGIC, self.path)
        for index, payload in enumerate(payloads):
            try:
                self.entries.append(decode_record(payload))
            except (*MALFORMED, struct.error) as exc:
                raise malformed_record(self.path, index, exc) from exc
        if good < len(data):
            self.truncated_bytes = len(data) - good
            with open(self.path, "r+b") as fh:
                fh.truncate(good)
                fh.flush()
                os.fsync(fh.fileno())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WriteAheadLog({self.path!r}, entries={len(self.entries)}, "
            f"truncated={self.truncated_bytes})"
        )


def open_wal(path: Union[str, os.PathLike], *, fsync_every: int = 8) -> WriteAheadLog:
    """Open (or create) a WAL, recovering a torn tail if present."""
    return WriteAheadLog(path, fsync_every=fsync_every)
