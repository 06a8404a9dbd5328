"""Crash-injection harness for the recovery tests.

Complementary fault shapes, now aimed at the shared segment store:

* :class:`FaultingWAL` — a :class:`~repro.recovery.wal.WriteAheadLog`
  whose device "dies" after N successful appends (every later append
  raises :class:`InjectedCrash` and the log stays dead), exercising the
  live system's reaction to a failing log at top-level commit, the only
  point that writes it (one record per sphere that wrote anything).
  With ``fail_fsync_after`` the *sync* path dies instead — the commit
  record lands in the OS but the durability wait fails, modelling a
  crash **between the group-commit batch write and its fsync**.

* :func:`truncated_copy` — copies a durable directory keeping only the
  first N WAL records (re-framed into one fresh binary segment),
  simulating a process killed mid-write; ``torn_tail=True`` additionally
  appends the first half of the next record's frame, so the copy ends in
  a mid-frame tear the scanner must drop.  The sweep test recovers every
  prefix and compares against the committed-prefix oracle.

* :func:`corrupt_record` — flips a byte inside one record's payload so
  its frame checksum fails; replay must stop there and distrust
  everything after it.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Dict, Optional

from repro.recovery.checkpoint import CHECKPOINT_FILENAME
from repro.recovery.wal import WriteAheadLog, read_wal_records, wal_files
from repro.storage import FRAME_HEADER_SIZE, encode_frame


class InjectedCrash(RuntimeError):
    """Raised by a FaultingWAL once its configured fault point is reached."""


class FaultingWAL(WriteAheadLog):
    """A WAL whose append or sync path fails permanently at a set point.

    ``fail_after=N``: the append path dies after N records are written
    (the Nth commit record is durable, then the device dies) — a crash
    between two commits.  ``fail_fsync_after=N``: the first N durability
    waits succeed, then every later one raises *after* the batch was
    written and flushed — a crash between the group-commit write and its
    fsync (records reach the OS; stable storage is never confirmed).  The
    append path stays alive under a sync fault, so the best-effort abort
    record can still settle the sphere's fate.
    """

    def __init__(self, data_dir: Any, *, fail_after: Optional[int] = None,
                 fail_fsync_after: Optional[int] = None,
                 fsync: bool = False, **kwargs: Any) -> None:
        super().__init__(data_dir, fsync=fsync, **kwargs)
        self.fail_after = fail_after
        self.fail_fsync_after = fail_fsync_after
        self.crashed = False
        writer = self._writer
        real_append, real_sync = writer.append, writer.sync

        def faulting_append(fields: Dict[str, Any], **opts: Any) -> int:
            if self.fail_after is not None and (
                    self.crashed
                    or writer.stats["records"] >= self.fail_after):
                self.crashed = True
                raise InjectedCrash(
                    "WAL device failed after %d records" % self.fail_after)
            return real_append(fields, **opts)

        def faulting_sync(seq: Optional[int] = None) -> None:
            # Only the sync path dies: the device still accepts appends,
            # so the best-effort abort record can land and settle the
            # sphere's on-disk fate.
            if (self.fail_fsync_after is not None
                    and writer.stats["syncs"] >= self.fail_fsync_after):
                self.crashed = True
                # The batch is already written: push it to the OS (as a
                # real crash-between-write-and-fsync would leave it),
                # then report the lost durability point.
                writer.flush()
                raise InjectedCrash(
                    "WAL fsync failed after %d syncs" % self.fail_fsync_after)
            real_sync(seq)

        writer.append = faulting_append  # type: ignore[method-assign]
        writer.sync = faulting_sync  # type: ignore[method-assign]


def truncated_copy(src_dir: Any, dst_dir: Any, keep_records: int, *,
                   torn_tail: bool = False) -> Path:
    """Copy a durable directory, keeping only the first ``keep_records``
    WAL records (the checkpoint, if any, is copied intact).

    The kept records are re-framed into a single fresh binary segment —
    the layout a crash right after record N would leave.  With
    ``torn_tail=True`` the first half of record N+1's frame (when one
    exists) is appended too: a mid-frame tear the scanner must discard
    without losing the preceding records.
    """
    src = Path(src_dir)
    dst = Path(dst_dir)
    dst.mkdir(parents=True, exist_ok=True)
    checkpoint = src / CHECKPOINT_FILENAME
    if checkpoint.exists():
        shutil.copy2(checkpoint, dst / CHECKPOINT_FILENAME)
    records, _ = read_wal_records(src)
    frames = b"".join(encode_frame(record)
                      for record in records[:keep_records])
    if torn_tail and len(records) > keep_records:
        frame = encode_frame(records[keep_records])
        frames += frame[:max(FRAME_HEADER_SIZE, len(frame) // 2)]
    (dst / "wal-00000001.seg").write_bytes(frames)
    return dst


def corrupt_record(data_dir: Any, record_index: int) -> None:
    """Flip a byte inside one WAL record's payload (0-based index),
    leaving later records physically intact — replay must stop at the
    corrupt record and distrust everything after it."""
    records, _ = read_wal_records(data_dir)
    for path in wal_files(data_dir):
        path.unlink()
    frames = b""
    for index, record in enumerate(records):
        frame = bytearray(encode_frame(record))
        if index == record_index:
            # Flip one payload byte after the checksum was computed.
            middle = FRAME_HEADER_SIZE + (len(frame) - FRAME_HEADER_SIZE) // 2
            frame[middle] ^= 0xFF
        frames += bytes(frame)
    (Path(data_dir) / "wal-00000001.seg").write_bytes(frames)
