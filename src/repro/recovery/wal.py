"""Write-ahead log: a domain layer over the shared segment store.

The paper's execution model makes top-level transactions "atomic,
serializable, and permanent" (§3.1); this log supplies *permanent*.  A
nested transaction's effects become permanent "only when it, and all of
its ancestors through a top transaction, commit", so only top-level
commits touch the log.  Each committed *sphere* (a top-level transaction
plus all its nested subtransactions) appends **one** record holding the
forward deltas of its writes, and the log is **forced before
``commit_transaction`` returns** (§6.3: deferred rule work runs first,
inside the committing transaction, so its deltas are in the record)::

    {"lsn": 17, "type": "commit", "txn": "t3", "sphere": "t3",
     "data": {"deltas": [{"kind": "update", "oid": [...], ...}, ...]}}

No second buffer is kept: the record encodes the ``DeltaUndo`` entries of
the top-level undo log.  The store lives in memory and checkpoints refuse
to run while any transaction is live, so no uncommitted write ever
reaches stable storage and redo needs a sphere's writes only at its
commit.  By then the top-level undo log holds exactly the surviving
writes, in the order they were applied: aborted children's records were
undone and dropped, committed children's records were adopted by their
parent, and deferred work ran inside the commit signal.  A sphere that
wrote nothing appends and forces nothing.

One fate record remains: when the commit record was appended but the
force failed, the Transaction Manager rolls the sphere back in memory and
the log appends a best-effort ``abort`` record for it; recovery takes a
sphere's *last* outcome record as its fate and discards it.

Under concurrency the force is a **group commit**: one leader fsyncs the
whole pending batch for every parked committer, so N simultaneous commits
cost one fsync.  Framing, torn-tail scanning and segment rotation live in
:mod:`repro.storage`.

On disk the log is a stream of ``wal-<index:08d>.seg`` binary segments
in ``data_dir``; a pre-refactor single-file ``wal.jsonl`` log (canonical
JSON lines with an embedded checksum) is still read, ordered before the
segments, by the storage layer's compatibility scanner.  Logs written in
the older per-event format (a record per nested begin/commit/abort and
per write) still recover; see :mod:`repro.recovery.recover`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core import tracing
from repro.obs.metrics import MetricsRegistry
from repro.recovery.serialize import encode_delta
from repro.storage import SegmentWriter, read_stream, scan_segment, segment_files
from repro.txn.undo import DeltaUndo

if TYPE_CHECKING:  # pragma: no cover
    from repro.objstore.store import Delta
    from repro.txn.transaction import Transaction

#: pre-refactor single-file log, still readable (ordered first)
WAL_FILENAME = "wal.jsonl"
WAL_PREFIX = "wal"

# Record types.
TXN_COMMIT = "commit"
TXN_ABORT = "abort"
#: one write per record, in logs of the older per-event format
DELTA = "delta"


def read_wal_records(source: Any) -> Tuple[List[Dict[str, Any]], int]:
    """Read the valid prefix of a WAL from a data directory (or, for
    compatibility, a single log file).

    Returns ``(records, discarded)`` where ``discarded`` counts the
    trailing lines/bytes dropped after the first malformed /
    checksum-failing / out-of-order record (a torn tail: everything past
    the first bad record is untrusted).
    """
    source = Path(source)
    if source.is_file() or source.suffix:
        return scan_segment(source, seq_field="lsn")
    return read_stream(source, WAL_PREFIX, seq_field="lsn",
                       legacy=WAL_FILENAME)


def wal_files(data_dir: Any) -> List[Path]:
    """Existing WAL files under ``data_dir``, oldest first (the legacy
    single-file log, when present, precedes every numbered segment)."""
    return segment_files(data_dir, WAL_PREFIX, legacy=WAL_FILENAME)


class WriteAheadLog:
    """Append-only durable log for one HiPAC instance.

    ``fsync=True`` forces the OS buffers to stable storage at every
    top-level commit (the §6.3 durability point); ``fsync=False`` still
    pushes every committed prefix to the OS (surviving a process crash,
    not a power failure) — the mode the overhead benchmark calls plain
    "WAL".  ``fsync_interval_ms`` opts into a bounded durability window
    instead: commits only flush, and a background thread fsyncs every
    N milliseconds.
    """

    def __init__(self, data_dir: Any, *, fsync: bool = True,
                 fsync_interval_ms: Optional[int] = None,
                 tracer: Optional[tracing.Tracer] = None,
                 start_lsn: int = 0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.failed = False
        #: optional hook invoked (with the exception) when an append or
        #: force fails — the forensics recorder captures a bundle before
        #: anyone restarts the process; must never raise back into the
        #: log path
        self.on_append_failure: Optional[Any] = None
        self._tracer = tracer or tracing.Tracer()
        self._writer = SegmentWriter(
            self.data_dir, WAL_PREFIX, seq_field="lsn",
            fsync=fsync, fsync_interval_ms=fsync_interval_ms,
            start_seq=start_lsn, legacy_filename=WAL_FILENAME,
            metrics=metrics, metric_prefix="wal", tracer=self._tracer)
        self._stats = {"commits_forced": 0, "append_failures": 0}

    @property
    def path(self) -> Path:
        """Path of the segment currently being appended to."""
        return self._writer.segment_path

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended (or pre-existing) record."""
        return self._writer.last_seq

    @property
    def stats(self) -> Dict[str, int]:
        """WAL counters merged with the underlying writer's."""
        merged = dict(self._writer.stats)
        merged.update(self._stats)
        return merged

    # ------------------------------------------------------------- append

    def append(self, rtype: str, data: Optional[Dict[str, Any]] = None, *,
               txn_id: Optional[str] = None,
               sphere: Optional[str] = None) -> int:
        """Append one record (not yet durable); returns its LSN."""
        return self._writer.append({"type": rtype, "txn": txn_id,
                                    "sphere": sphere, "data": data or {}})

    def force(self) -> None:
        """Force buffered records to stable storage (fsync when enabled)."""
        self._writer.sync()

    # ---------------------------------------------------- domain appenders

    def log_begin(self, txn: "Transaction") -> None:
        """No-op: transaction creation is not logged.  Kept only because
        ``ledgerbench/tracer.py`` wraps this method by name; it goes once
        that list drops it."""

    def log_delta(self, delta: "Delta", txn: "Transaction") -> None:
        """No-op: writes reach the log in their sphere's commit record.
        Kept only because ``ledgerbench/tracer.py`` wraps this method by
        name; it goes once that list drops it."""

    def log_commit(self, txn: "Transaction") -> None:
        """Log a committing top-level transaction's sphere as one record
        and force it: the §6.3 durability point (one group-commit fsync
        covers every concurrently parked committer).

        A sphere without deltas appends and forces nothing.  A failed
        append or force counts once in ``append_failures`` and re-raises
        (the Transaction Manager then aborts the sphere); when only the
        force failed, a best-effort abort record settles the sphere's
        fate so recovery does not replay it.
        """
        deltas = [encode_delta(record.delta) for record in txn.undo_log
                  if isinstance(record, DeltaUndo)]
        if not deltas:
            return
        lsn = None
        try:
            lsn = self.append(TXN_COMMIT, {"deltas": deltas},
                              txn_id=txn.txn_id, sphere=txn.txn_id)
            self._writer.sync(lsn)
        except Exception as exc:
            self.failed = True
            self._stats["append_failures"] += 1
            self._tracer.bump("wal_append_failed")
            if lsn is not None:
                self.log_abort(txn)
            if self.on_append_failure is not None:
                try:
                    self.on_append_failure(exc)
                except Exception:
                    pass
            raise
        self._stats["commits_forced"] += 1

    def log_abort(self, txn: "Transaction") -> None:
        """Best-effort fate record for a sphere whose commit record was
        appended but never forced.  A failure here is not counted again:
        the failed force already was."""
        try:
            self.append(TXN_ABORT, txn_id=txn.txn_id, sphere=txn.txn_id)
        except Exception:
            pass

    # ---------------------------------------------------------- lifecycle

    def reset(self) -> None:
        """Truncate the log (after a checkpoint absorbed its records).

        LSNs keep increasing across resets; the checkpoint stores the LSN
        it covers, so replay can skip any record a checkpoint already
        reflects even if a crash lands between checkpoint write and
        truncation.
        """
        self._writer.reset()

    def close(self) -> None:
        """Flush and close the log."""
        self._writer.close()
