"""Versioned on-disk checkpoints of in-flight parallel MLMCMC state.

Checkpoints bound the work lost to a dying rank.  Three writers exist:

* **collectors** snapshot their partial :class:`CorrectionCollection` every
  ``every_samples`` additions (or ``every_seconds``), so a respawned collector
  resumes from its last snapshot instead of re-collecting its whole share,
* **controllers** snapshot their chain (kernel counters, proposal adaptation
  state, current point, RNG bit-generator state, the recorded row blocks and
  the correction bookkeeping) on
  the same cadence, so a respawned controller resumes its subchain
  mid-flight instead of re-running burn-in,
* the **driver** writes one ``final`` snapshot after a successful run carrying
  the merged per-level collections — ``--resume`` restarts from it and
  reproduces the estimator bit for bit without redoing any sampling.

Every snapshot is a pickle written atomically (temp file in the same
directory + ``os.replace``) and stamped with :data:`CHECKPOINT_VERSION` and
the run signature (seed + per-level targets), so a resume can never mix
snapshots of a different run or format generation.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointConfig",
    "Checkpointer",
    "CheckpointError",
]

#: bump on any backwards-incompatible change to the snapshot payload layout
#: (3: collections snapshot as row blocks, not as lists of states)
CHECKPOINT_VERSION = 3

#: rank-scoped snapshot file name pattern
_SNAPSHOT_NAME = "rank-{rank:04d}-{role}.ckpt"

#: driver-written snapshot of a completed run
FINAL_SNAPSHOT_NAME = "final.ckpt"


class CheckpointError(RuntimeError):
    """A checkpoint could not be read or does not belong to this run."""


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often sampling state is snapshotted.

    Attributes
    ----------
    directory:
        Checkpoint directory (created on first write).
    every_samples:
        Snapshot after this many new samples/corrections since the last one.
    every_seconds:
        Also snapshot when this much real time passed since the last one
        (whichever trigger fires first); ``None`` disables the timer.
    keep:
        How many historical snapshots to keep per rank (the newest is always
        ``rank-XXXX-<role>.ckpt``; older generations get ``.N`` suffixes).
    """

    directory: str
    every_samples: int = 10
    every_seconds: float | None = None
    keep: int = 1

    def __post_init__(self) -> None:
        if self.every_samples <= 0:
            raise ValueError("every_samples must be positive")
        if self.keep < 1:
            raise ValueError("keep must be at least 1")

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe view for the manifest."""
        return {
            "directory": str(self.directory),
            "every_samples": int(self.every_samples),
            "every_seconds": (
                None if self.every_seconds is None else float(self.every_seconds)
            ),
            "keep": int(self.keep),
        }


def _atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` atomically (same-directory temp + replace)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class Checkpointer:
    """Rank-scoped snapshot writer/reader over one checkpoint directory.

    Each rank owns exactly one snapshot file, so concurrent writers (one OS
    process per rank) never contend; atomicity guarantees a reader only ever
    sees a complete snapshot.
    """

    def __init__(self, config: CheckpointConfig, signature: dict[str, Any]) -> None:
        self.config = config
        self.directory = Path(config.directory)
        #: run identity embedded in (and checked against) every snapshot
        self.signature = dict(signature)
        self._since_snapshot = 0
        self._last_snapshot_time = time.monotonic()

    # -- write ---------------------------------------------------------------
    def due(self, new_samples: int = 1) -> bool:
        """Advance the cadence counters; True when a snapshot should be taken."""
        self._since_snapshot += int(new_samples)
        if self._since_snapshot >= self.config.every_samples:
            return True
        every_seconds = self.config.every_seconds
        if every_seconds is not None:
            return time.monotonic() - self._last_snapshot_time >= every_seconds
        return False

    def write(self, rank: int, role: str, payload: dict[str, Any]) -> Path:
        """Atomically persist one rank's snapshot."""
        path = self.directory / _SNAPSHOT_NAME.format(rank=int(rank), role=str(role))
        if self.config.keep > 1 and path.exists():
            for generation in range(self.config.keep - 1, 0, -1):
                older = path.with_suffix(path.suffix + f".{generation}")
                newer = path.with_suffix(path.suffix + f".{generation - 1}")
                newer = path if generation == 1 else newer
                if newer.exists():
                    os.replace(newer, older)
        _atomic_write_bytes(path, self._snapshot(int(rank), str(role), payload))
        self._since_snapshot = 0
        self._last_snapshot_time = time.monotonic()
        return path

    def write_final(self, payload: dict[str, Any]) -> Path:
        """Persist the driver's snapshot of a *completed* run."""
        path = self.directory / FINAL_SNAPSHOT_NAME
        _atomic_write_bytes(path, self._snapshot(None, "final", payload))
        return path

    def _snapshot(self, rank: int | None, role: str, payload: dict[str, Any]) -> bytes:
        # HIGHEST_PROTOCOL: protocol 5 ships large ndarray buffers
        # out-of-band, so array-heavy role state snapshots smaller and
        # faster.  The loader (`pickle.load`) auto-detects the protocol, so
        # snapshots written by older builds with the default protocol stay
        # readable.
        envelope = {
            "version": CHECKPOINT_VERSION,
            "rank": rank,
            "role": role,
            "signature": self.signature,
            "written_at": time.time(),
            "payload": payload,
        }
        return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)

    # -- read ----------------------------------------------------------------
    def _load(self, path: Path) -> dict[str, Any]:
        try:
            with open(path, "rb") as handle:
                snapshot = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        if snapshot.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has version {snapshot.get('version')!r}; "
                f"this build reads version {CHECKPOINT_VERSION}"
            )
        if snapshot.get("signature") != self.signature:
            raise CheckpointError(
                f"checkpoint {path} belongs to a different run "
                f"(signature {snapshot.get('signature')!r} != {self.signature!r})"
            )
        return snapshot

    def read(self, rank: int, role: str) -> dict[str, Any] | None:
        """The newest snapshot payload of one rank, or ``None``."""
        path = self.directory / _SNAPSHOT_NAME.format(rank=int(rank), role=str(role))
        if not path.exists():
            return None
        return self._load(path)["payload"]

    def read_final(self) -> dict[str, Any] | None:
        """The driver's completed-run snapshot, or ``None``."""
        path = self.directory / FINAL_SNAPSHOT_NAME
        if not path.exists():
            return None
        return self._load(path)["payload"]

    def snapshots(self, role: str | None = None) -> dict[int, dict[str, Any]]:
        """All rank snapshots (optionally one role), keyed by rank.

        Snapshots from a different run or format generation are skipped, not
        raised: salvage reads whatever it can.
        """
        found: dict[int, dict[str, Any]] = {}
        if not self.directory.exists():
            return found
        for path in sorted(self.directory.glob("rank-*.ckpt")):
            try:
                snapshot = self._load(path)
            except CheckpointError:
                continue
            if role is not None and snapshot["role"] != role:
                continue
            found[int(snapshot["rank"])] = snapshot["payload"]
        return found
