"""Digest-verified, generational checkpoint store for cluster shards.

PR 3's recovery restores a shard from its *latest* checkpoint -- held
as a live dict in the parent process and, on disk, written without any
integrity check.  A fault that lands mid-write (or bit rot on the
checkpoint file) would therefore surface as a JSON parse error *inside
recovery*, the worst possible moment.  :class:`CheckpointStore` fixes
both failure modes:

* every checkpoint file embeds a SHA-256 digest of its body, written
  atomically (temp file + fsync + ``os.replace`` + directory fsync);
* the store keeps the last ``keep`` generations per shard, and
  :meth:`load` walks them newest-first, *skipping* any generation whose
  digest does not match, or whose verified body is not a checkpoint
  document -- recovery falls back to the previous good checkpoint (and
  ultimately to an empty service plus a full WAL replay) instead of
  raising mid-recovery.

File layout: ``shard-NNN.genGGGGGG.ckpt`` containing one header line
``sha256:<hex>\\n`` followed by the body -- a JSON document
``{"log_index": int, "snapshot": {...}}``.  The digest covers the raw
body bytes exactly as written, so verification needs no JSON
canonicalization.

The store holds decoded snapshot dicts.  In memory a cluster keeps each
checkpoint encoded (:class:`~repro.cluster.shard.ShardCheckpoint`); it
decodes a record only to hand it to :meth:`CheckpointStore.save`, so
the file format does not depend on where the snapshot was taken.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any, Optional

from repro.resilience.wal import MALFORMED

_NAME = re.compile(r"^shard-(\d+)\.gen(\d+)\.ckpt$")


def _fsync_dir(path: str) -> None:
    """Fsync a directory so a rename into it survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


class CheckpointStore:
    """Durable per-shard checkpoints with digest fallback.

    Parameters
    ----------
    root:
        Directory the checkpoint files live in (created if missing).
    keep:
        Generations retained per shard; older ones are deleted after a
        successful save.  Must be >= 2 for corruption fallback to have
        somewhere to fall back *to*.
    """

    def __init__(self, root: str, *, keep: int = 2) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = str(root)
        self.keep = int(keep)
        #: generations skipped by :meth:`load`: digest mismatches,
        #: unreadable files and bodies of the wrong shape
        self.corrupt_detected = 0
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    def _generations(self, shard: int) -> list[tuple[int, str]]:
        """``(gen, path)`` pairs for one shard, oldest first."""
        found = []
        for name in os.listdir(self.root):
            match = _NAME.match(name)
            if match and int(match.group(1)) == shard:
                found.append((int(match.group(2)), os.path.join(self.root, name)))
        found.sort()
        return found

    def _path(self, shard: int, gen: int) -> str:
        return os.path.join(self.root, f"shard-{shard:03d}.gen{gen:06d}.ckpt")

    # ------------------------------------------------------------------
    def save(self, shard: int, log_index: int, snapshot: dict[str, Any]) -> str:
        """Write one checkpoint generation durably; returns its path."""
        body = json.dumps(
            {"log_index": int(log_index), "snapshot": snapshot},
            separators=(",", ":"),
        ).encode("utf-8")
        digest = hashlib.sha256(body).hexdigest()
        gens = self._generations(shard)
        gen = gens[-1][0] + 1 if gens else 0
        path = self._path(shard, gen)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(b"sha256:" + digest.encode("ascii") + b"\n")
                fh.write(body)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _fsync_dir(self.root)
        for _, old in self._generations(shard)[: -self.keep]:
            try:
                os.unlink(old)
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        return path

    def load(self, shard: int) -> tuple[int, Optional[dict[str, Any]]]:
        """Newest checkpoint whose digest verifies, as
        ``(log_index, snapshot)``.

        Falls back generation by generation on digest mismatch, an
        unreadable file, or a body that is not
        ``{"log_index": int, "snapshot": {...}}``; returns ``(0, None)``
        -- restart empty and replay the whole WAL -- when no generation
        survives.
        """
        for _, path in reversed(self._generations(shard)):
            entry = self._read(path)
            if entry is None:
                self.corrupt_detected += 1
                continue
            return entry
        return 0, None

    @staticmethod
    def _read(path: str) -> Optional[tuple[int, dict[str, Any]]]:
        try:
            with open(path, "rb") as fh:
                header = fh.readline()
                body = fh.read()
            if not header.startswith(b"sha256:"):
                return None
            digest = header[len(b"sha256:") :].strip().decode("ascii")
            if hashlib.sha256(body).hexdigest() != digest:
                return None
            doc = json.loads(body.decode("utf-8"))
            log_index, snapshot = int(doc["log_index"]), doc["snapshot"]
        except (OSError, *MALFORMED):
            return None
        if not isinstance(snapshot, dict) or log_index < 0:
            return None
        return log_index, snapshot

    # ------------------------------------------------------------------
    def corrupt_latest(self, shard: int, *, nbytes: int = 16) -> Optional[str]:
        """Flip bytes in the middle of the newest generation (chaos
        injection); returns the corrupted path, or ``None`` if the
        shard has no checkpoint on disk."""
        gens = self._generations(shard)
        if not gens:
            return None
        path = gens[-1][1]
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(max(0, size // 2))
            fh.write(b"\xde\xad" * (nbytes // 2))
            fh.flush()
            os.fsync(fh.fileno())
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointStore({self.root!r}, keep={self.keep})"
