"""The Transaction Manager (paper §5.2).

Implements the HiPAC nested transaction model: creating and terminating
top-level and nested transactions, concurrency control (via
:class:`~repro.txn.locks.LockManager`), and *acting as an event detector* —
"it acts as an event detector, reporting transaction termination to the Rule
Manager" (§5.2).  Per §6.3, the commit-event signal is issued **as part of
commit processing, before commit completes**, so deferred rule firings run
inside the committing transaction ("just prior to its parent transaction
committing", §3.2) and the Transaction Manager "resumes commit processing"
only after the Rule Manager replies.

The interface is exactly the paper's three operations — create transaction,
commit transaction, abort transaction — plus introspection used by tests and
benchmarks.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Any, Callable, Dict, List, Optional

from repro.core import tracing
from repro.errors import TransactionStateError
from repro.obs.metrics import HOT_PATH_SAMPLE, MetricsRegistry
from repro.txn.locks import LockManager
from repro.txn.transaction import (
    ABORTED,
    ACTIVE,
    COMMITTED,
    COMMITTING,
    Transaction,
)
from repro.txn.undo import replay_reverse
from repro.util.ids import IdGenerator

TransactionEventSink = Callable[[str, Transaction], None]
"""Hook to the Rule Manager: ``sink(kind, txn)`` with kind in
``{"begin", "commit", "abort"}``.  Set by the HiPAC facade at wiring time."""


class TransactionManager:
    """Creates, commits, and aborts (nested) transactions."""

    def __init__(self, lock_manager: Optional[LockManager] = None,
                 tracer: Optional[tracing.Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.locks = lock_manager or LockManager()
        self._ids = IdGenerator("t")
        self._tracer = tracer or tracing.Tracer()
        self._metrics = metrics or MetricsRegistry(enabled=False)
        #: commit latency includes §6.3 deferred rule processing — it is
        #: the user-visible cost of "commit returned".  Only top-level
        #: commits are timed: a nested commit is lock migration (no WAL
        #: force, no durability point) and rule subtransactions commit
        #: several times per firing — timing them would cost more than the
        #: work measured.
        self._commit_seconds = self._metrics.histogram("txn_commit_seconds",
                                                       sample=HOT_PATH_SAMPLE,
                                                       scope="top")
        self._abort_seconds = self._metrics.histogram("txn_abort_seconds")
        #: rule-manager hook; None until the facade wires the system
        self.event_sink: Optional[TransactionEventSink] = None
        #: whether begin/commit/abort produce rule-triggering events
        self.signal_transaction_events = True
        #: write-ahead log and checkpointer; None while the system runs
        #: in-memory only (attached by the facade when durability is on).
        #: Only top-level commits touch the log.
        self.wal: Optional[Any] = None
        self.checkpointer: Optional[Any] = None
        #: flight recorder; None unless the facade enables it.  Application
        #: transaction boundaries are journalled as replayable stimuli
        #: (internal and rule-cascade transactions are replay *output*).
        self.recorder: Optional[Any] = None
        #: causal provenance store; None unless the facade enables it.
        #: Published on top-level commit, pruned on abort.
        self.provenance: Optional[Any] = None
        self._mutex = threading.Lock()
        self._live: Dict[str, Transaction] = {}
        self.stats = {"created": 0, "committed": 0, "aborted": 0,
                      "top_level_committed": 0}

    # ------------------------------------------------------------- create

    def create_transaction(self, parent: Optional[Transaction] = None, *,
                           deadline: Optional[float] = None, priority: int = 0,
                           label: str = "", internal: bool = False,
                           source: str = tracing.APPLICATION) -> Transaction:
        """Create a top-level transaction (``parent=None``) or a nested one.

        ``source`` identifies the calling component for tracing (the Rule
        Manager creates transactions for rule firings, applications create
        their own).
        """
        if self._tracer.enabled:
            self._tracer.record(source, tracing.TRANSACTION_MANAGER,
                                "create_transaction",
                                "nested under %s" % parent.txn_id
                                if parent else "top level")
        txn = Transaction(self._ids.next_id(), parent, deadline=deadline,
                          priority=priority, label=label, internal=internal)
        with self._mutex:
            self._live[txn.txn_id] = txn
            self.stats["created"] += 1
        if self.recorder is not None and not internal:
            self.recorder.record_txn_begin(txn)
        if self.event_sink is not None and self.signal_transaction_events:
            self._signal("begin", txn)
        return txn

    # ------------------------------------------------------------- commit

    def commit_transaction(self, txn: Transaction, *,
                           source: str = tracing.APPLICATION) -> None:
        """Commit ``txn``.

        Order of operations (paper §6.3):

        1. signal the commit event to the Rule Manager, which processes the
           transaction's deferred rule firings (in new subtransactions of
           ``txn``) and any rules triggered by the commit event itself;
        2. when the Rule Manager replies, resume commit processing: for a
           nested transaction, transfer locks and the undo log to the
           parent; for a top-level transaction, force the sphere's WAL
           record (durable mode), release locks and make effects permanent;
        3. run post-commit hooks (top-level only — a nested transaction's
           hooks are adopted by its parent, since its effects are not yet
           permanent).
        """
        self._tracer.record(source, tracing.TRANSACTION_MANAGER,
                            "commit_transaction", txn.txn_id)
        timed = txn.parent is None and self._commit_seconds.should_sample()
        start = _time.perf_counter() if timed else 0.0
        txn.require_active()
        active_children = txn.active_children()
        if active_children:
            raise TransactionStateError(
                "cannot commit %s: active subtransactions %s"
                % (txn.txn_id, [child.txn_id for child in active_children])
            )
        txn.state = COMMITTING
        # Journalled before the commit signal (intent discipline): §6.3
        # deferred rule work runs inside the signal below, and replay
        # re-derives it by re-issuing this commit.
        if self.recorder is not None and not txn.internal:
            # Keep the coalesced record's seq: provenance entries from
            # this sphere use it as their replay address.
            txn.flight_seq = self.recorder.record_txn_commit(txn)
        try:
            if self.event_sink is not None and self.signal_transaction_events:
                self._signal("commit", txn)
        except BaseException:
            # Deferred rule work failed: the transaction cannot commit.
            txn.state = ACTIVE
            self.abort_transaction(txn, source=tracing.TRANSACTION_MANAGER)
            raise
        # Resume commit processing.  If any resume step raises — the WAL
        # force most plausibly, but also lock inheritance — the transaction
        # must not be stranded in COMMITTING with its locks held: undo its
        # effects and surface the failure as an abort.
        try:
            if txn.parent is not None:
                self.locks.inherit_to_parent(txn)
                txn.parent.adopt_child_log(txn)
                # Permanence of nested effects awaits the ancestors: hand
                # hooks up.
                txn.parent.on_commit.extend(txn.on_commit)
                txn.parent.on_abort.extend(txn.on_abort)
                txn.on_commit = []
                txn.on_abort = []
                txn.state = COMMITTED
            else:
                # Write-ahead: the sphere's one commit record is forced
                # before any effect becomes permanent.  Deferred rule work
                # already ran above, inside the committing transaction
                # (§6.3), so its deltas are in the record.
                if self.wal is not None:
                    self.wal.log_commit(txn)
                txn.state = COMMITTED
                txn.undo_log = []
                self.locks.release_all(txn)
                with self._mutex:
                    self.stats["top_level_committed"] += 1
        except BaseException:
            txn.state = ACTIVE
            self.abort_transaction(txn, source=tracing.TRANSACTION_MANAGER)
            raise
        with self._mutex:
            self.stats["committed"] += 1
            self._live.pop(txn.txn_id, None)
        if txn.parent is None:
            # The sphere is durable and visible: publish its buffered
            # provenance before hooks (a hook's why() sees this commit).
            if self.provenance is not None:
                self.provenance.publish(txn)
            for hook in txn.on_commit:
                hook(txn)
            txn.on_commit = []
            if self.checkpointer is not None:
                self.checkpointer.maybe_checkpoint()
        if timed:
            self._commit_seconds.observe(_time.perf_counter() - start)

    # -------------------------------------------------------------- abort

    def abort_transaction(self, txn: Transaction, *,
                          source: str = tracing.APPLICATION) -> None:
        """Abort ``txn``: discard its effects and those of all descendants.

        Idempotent on already-aborted transactions; committing/committed
        transactions cannot be aborted by this call unless they are nested
        inside the aborting subtree (their effects are discarded through the
        parent's undo log).
        """
        self._tracer.record(source, tracing.TRANSACTION_MANAGER,
                            "abort_transaction", txn.txn_id)
        if txn.state == ABORTED:
            return
        start = _time.perf_counter() if self._metrics.enabled else 0.0
        if txn.state == COMMITTED:
            raise TransactionStateError(
                "cannot abort committed transaction %s" % txn.txn_id
            )
        if self.recorder is not None and not txn.internal:
            self.recorder.record_txn_abort(txn)
        if self.provenance is not None:
            # Drop (top-level) or filter (nested) the sphere's buffered
            # provenance: rolled-back writes must never become queryable.
            self.provenance.on_abort(txn)
        # Abort any still-active descendants first (deepest first).
        for child in txn.active_children():
            self.abort_transaction(child, source=tracing.TRANSACTION_MANAGER)
        txn.aborted_flag = True
        txn.state = ABORTED
        self.locks.wake_aborted(txn)
        replay_reverse(txn.undo_log)
        txn.undo_log = []
        txn.deferred_conditions = []
        txn.deferred_actions = []
        self.locks.release_all(txn)
        with self._mutex:
            self.stats["aborted"] += 1
            self._live.pop(txn.txn_id, None)
        for hook in txn.on_abort:
            hook(txn)
        txn.on_abort = []
        txn.on_commit = []
        if self._metrics.enabled:
            self._abort_seconds.observe(_time.perf_counter() - start)
        if self.event_sink is not None and self.signal_transaction_events:
            self._signal("abort", txn)

    # ---------------------------------------------------------------- misc

    def _signal(self, kind: str, txn: Transaction) -> None:
        """Report a transaction event to the Rule Manager (§5.2).

        The §6 trace edge is recorded for every event, but the sink is
        called only when the Rule Manager would act on it: an internal
        transaction's begin and abort never trigger rules, and its commit
        matters only when deferred firings are queued on it (per-transaction
        deferral)."""
        if self._tracer.enabled:
            self._tracer.record(tracing.TRANSACTION_MANAGER,
                                tracing.RULE_MANAGER, "signal_event",
                                "transaction %s %s" % (kind, txn.txn_id))
        if txn.internal and (kind != "commit" or not txn.has_deferred_work()):
            return
        assert self.event_sink is not None
        self.event_sink(kind, txn)

    def live_transactions(self) -> List[Transaction]:
        """Transactions created but not yet terminated (diagnostics)."""
        with self._mutex:
            return list(self._live.values())
