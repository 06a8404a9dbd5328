"""Lock manager: strict two-phase, multigranularity, Moss-nested.

The HiPAC execution model requires that concurrently executing transactions
(application transactions, sibling rule-firing subtransactions, and
separate-coupling top-level firings) be serializable, "and this is enforced
by the HiPAC transaction manager" (paper §3.2).  This lock manager provides
that guarantee:

* **Strict 2PL** — locks are held until the transaction (sphere) ends.
* **Multigranularity** — intention modes (IS/IX) on class extents plus S/X
  on individual objects, so rule firings reading one class do not serialize
  against writers of unrelated objects.
* **Moss rules for nesting** — a transaction may acquire a lock despite a
  conflicting holder when every conflicting holder is one of its ancestors
  (ancestors are suspended while descendants run, per §3.1); when a
  subtransaction commits, its locks are *inherited* by its parent; when it
  aborts they are released.

Deadlock handling: before blocking, the requester checks whether waiting
would close a cycle in the waits-for graph (treating a wait on a transaction
as a wait on its whole sphere of active descendants) and aborts itself with
:class:`~repro.errors.DeadlockError` if so.  Waits are additionally bounded
by a timeout that raises :class:`~repro.errors.LockTimeout`.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import DeadlockError, LockTimeout, TransactionStateError
from repro.obs.metrics import MetricsRegistry
from repro.obs.watchdog import Watchdog

if TYPE_CHECKING:  # pragma: no cover
    from repro.txn.transaction import Transaction


class LockMode:
    """The five multigranularity lock modes."""

    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"

    ALL = (IS, IX, S, SIX, X)


# Standard multigranularity compatibility matrix.
_COMPATIBLE: Dict[Tuple[str, str], bool] = {}


def _fill_matrix() -> None:
    rows = {
        LockMode.IS: {LockMode.IS: True, LockMode.IX: True, LockMode.S: True,
                      LockMode.SIX: True, LockMode.X: False},
        LockMode.IX: {LockMode.IS: True, LockMode.IX: True, LockMode.S: False,
                      LockMode.SIX: False, LockMode.X: False},
        LockMode.S: {LockMode.IS: True, LockMode.IX: False, LockMode.S: True,
                     LockMode.SIX: False, LockMode.X: False},
        LockMode.SIX: {LockMode.IS: True, LockMode.IX: False, LockMode.S: False,
                       LockMode.SIX: False, LockMode.X: False},
        LockMode.X: {LockMode.IS: False, LockMode.IX: False, LockMode.S: False,
                     LockMode.SIX: False, LockMode.X: False},
    }
    for left, row in rows.items():
        for right, ok in row.items():
            _COMPATIBLE[(left, right)] = ok


_fill_matrix()

# Least-upper-bound of two modes (the mode a holder ends up with after an
# upgrade or after inheriting a child's lock on the same resource).
_SUPREMUM: Dict[Tuple[str, str], str] = {}


def _fill_supremum() -> None:
    order = {LockMode.IS: 0, LockMode.IX: 1, LockMode.S: 1, LockMode.SIX: 2,
             LockMode.X: 3}
    for a in LockMode.ALL:
        for b in LockMode.ALL:
            if a == b:
                _SUPREMUM[(a, b)] = a
            elif {a, b} == {LockMode.IX, LockMode.S}:
                _SUPREMUM[(a, b)] = LockMode.SIX
            elif order[a] > order[b]:
                _SUPREMUM[(a, b)] = a if order[a] != order[b] else LockMode.SIX
            elif order[a] < order[b]:
                _SUPREMUM[(a, b)] = b
            else:  # equal rank, different modes other than IX/S cannot occur
                _SUPREMUM[(a, b)] = LockMode.SIX


_fill_supremum()


def compatible(requested: str, held: str) -> bool:
    """Return True if ``requested`` can coexist with ``held``."""
    return _COMPATIBLE[(requested, held)]


def supremum(a: str, b: str) -> str:
    """Return the least upper bound of two lock modes."""
    return _SUPREMUM[(a, b)]


@dataclass(frozen=True, order=True)
class LockResource:
    """A lockable resource: a class extent or an individual object.

    ``kind`` is ``"class"`` or ``"object"``; ``name`` is the class name;
    ``number`` is the OID number for object resources (0 for class
    resources).
    """

    kind: str
    name: str
    number: int = 0

    @staticmethod
    def for_class(class_name: str) -> "LockResource":
        """The extent-level resource of ``class_name`` (interned: every
        object read and write takes an intention lock on its extent)."""
        resource = _CLASS_RESOURCES.get(class_name)
        if resource is None:
            resource = _CLASS_RESOURCES.setdefault(
                class_name, LockResource("class", class_name))
        return resource

    @staticmethod
    def for_object(oid) -> "LockResource":
        """The object-level resource of an OID."""
        return LockResource("object", oid.class_name, oid.number)

    def __str__(self) -> str:
        if self.kind == "class":
            return "class:%s" % self.name
        return "object:%s#%d" % (self.name, self.number)


#: interned class-extent resources, by class name
_CLASS_RESOURCES: Dict[str, LockResource] = {}


class _LockEntry:
    """Holders of one resource: transaction -> strongest held mode."""

    __slots__ = ("holders",)

    def __init__(self) -> None:
        self.holders: Dict["Transaction", str] = {}


class LockManager:
    """The system-wide lock table.

    All state is protected by a single condition variable; waiters re-check
    on every release.  This keeps the implementation obviously correct.
    What costs is not contention on that mutex but the per-request work on
    the firing path: each rule firing read-locks its rule object (IS + S)
    in a fresh condition subtransaction, so one signal fanning out to
    dozens of rules makes dozens of requests and nested commits.  Hence
    the short cuts: a request the transaction already covers with a held
    mode is granted without the conflict scan, a commit with nothing to
    inherit skips the table, and the wait clock is read only when a
    request is about to block.
    """

    def __init__(self, default_timeout: float = 10.0,
                 metrics: Optional[MetricsRegistry] = None,
                 watchdog: Optional[Watchdog] = None) -> None:
        self._cond = threading.Condition()
        self._table: Dict[LockResource, _LockEntry] = {}
        #: transactions currently blocked -> the set of transactions they wait on
        self._waits_for: Dict["Transaction", FrozenSet["Transaction"]] = {}
        self.default_timeout = default_timeout
        #: statistics for benchmarks
        self.stats = {"acquired": 0, "waited": 0, "deadlocks": 0, "timeouts": 0}
        self._metrics = metrics or MetricsRegistry(enabled=False)
        self._watchdog = (watchdog if watchdog is not None
                          else Watchdog(enabled=False))
        #: blocked-time histogram: observed only when a request actually
        #: waited (grant, timeout, or deadlock) — the uncontended fast path
        #: never reads the clock for it
        self._wait_seconds = self._metrics.histogram("lock_wait_seconds")

    def _record_wait(self, started: float) -> None:
        """One lock request finished waiting (grant, timeout, or deadlock):
        record the blocked time, and feed the watchdog's wait-spike window."""
        waited = _time.monotonic() - started
        self._wait_seconds.observe(waited)
        self._watchdog.note_lock_wait(waited)

    # ----------------------------------------------------------- acquire

    def acquire(self, txn: "Transaction", resource: LockResource, mode: str,
                timeout: Optional[float] = None) -> None:
        """Acquire ``mode`` on ``resource`` for ``txn``, blocking if needed.

        Follows the Moss rules: a conflicting holder that is ``txn`` itself
        (upgrade) or an ancestor of ``txn`` does not block.  Raises
        :class:`DeadlockError` if waiting would close a waits-for cycle, and
        :class:`LockTimeout` if the wait exceeds ``timeout``.
        """
        if txn.is_finished():
            raise TransactionStateError(
                "transaction %s is %s; cannot lock" % (txn.txn_id, txn.state)
            )
        held = txn.held_locks.get(resource)
        if held is not None and _SUPREMUM[(held, mode)] == held:
            # Already held at an equal or stronger mode: the grant would
            # leave the table unchanged, so skip the conflict scan.  No
            # other holder can block it — one incompatible with ``mode``
            # is incompatible with ``held`` too, and only an ancestor or a
            # (suspended-parent) descendant can hold such a mode.  The
            # re-check under the mutex catches a concurrent abort that
            # released the lock or flagged ``txn`` since the read above.
            with self._cond:
                if txn.held_locks.get(resource) == held and \
                        not txn.aborted_flag:
                    self.stats["acquired"] += 1
                    return
        wait_budget = self.default_timeout if timeout is None else timeout
        # The wait clock starts at the first wait: an uncontended request
        # never reads it.
        started = deadline = 0.0
        with self._cond:
            entry = self._table.get(resource)
            if entry is None:
                entry = _LockEntry()
                self._table[resource] = entry
            waited = False
            while True:
                if txn.aborted_flag:
                    raise DeadlockError(
                        "transaction %s aborted while waiting for %s"
                        % (txn.txn_id, resource)
                    )
                blockers = self._conflicting_holders(txn, entry, mode)
                if not blockers:
                    break
                # Would waiting close a cycle?
                self._waits_for[txn] = frozenset(blockers)
                if self._closes_cycle(txn, blockers):
                    del self._waits_for[txn]
                    self.stats["deadlocks"] += 1
                    if waited:
                        self._record_wait(started)
                    raise DeadlockError(
                        "deadlock: %s waiting for %s held by %s"
                        % (txn.txn_id, resource,
                           sorted(b.txn_id for b in blockers))
                    )
                if not waited:
                    started = _time.monotonic()
                    deadline = started + wait_budget
                waited = True
                self.stats["waited"] += 1
                remaining = deadline - _time.monotonic()
                signalled = remaining > 0 and self._cond.wait(timeout=remaining)
                self._waits_for.pop(txn, None)
                # The last holder's release_all may have dropped the table
                # entry while we slept; re-resolve so the eventual grant
                # lands in the live table, not a discarded entry object.
                entry = self._table.get(resource)
                if entry is None:
                    entry = _LockEntry()
                    self._table[resource] = entry
                if not signalled:
                    # The deadline passed, but the conflicting holder may
                    # have released while we were being scheduled: a final
                    # re-check avoids a spurious timeout on a now-free lock.
                    if not self._conflicting_holders(txn, entry, mode):
                        break
                    self.stats["timeouts"] += 1
                    self._record_wait(started)
                    raise LockTimeout(
                        "transaction %s timed out waiting for %s on %s"
                        % (txn.txn_id, mode, resource)
                    )
            self._waits_for.pop(txn, None)
            current = entry.holders.get(txn)
            new_mode = mode if current is None else supremum(current, mode)
            entry.holders[txn] = new_mode
            txn.held_locks[resource] = new_mode
            self.stats["acquired"] += 1
            if waited:
                self._record_wait(started)
                # Others may have been enabled by table changes along the way.
                self._cond.notify_all()

    def try_acquire(self, txn: "Transaction", resource: LockResource, mode: str) -> bool:
        """Non-blocking acquire; returns False instead of waiting."""
        if txn.is_finished():
            # Same guard as acquire: a finished transaction's release_all
            # already ran, so any lock granted here would leak forever.
            raise TransactionStateError(
                "transaction %s is %s; cannot lock" % (txn.txn_id, txn.state)
            )
        with self._cond:
            entry = self._table.get(resource)
            if entry is None:
                entry = _LockEntry()
                self._table[resource] = entry
            if self._conflicting_holders(txn, entry, mode):
                return False
            current = entry.holders.get(txn)
            entry.holders[txn] = mode if current is None else supremum(current, mode)
            txn.held_locks[resource] = entry.holders[txn]
            self.stats["acquired"] += 1
            return True

    def _conflicting_holders(self, txn: "Transaction", entry: _LockEntry,
                             mode: str) -> List["Transaction"]:
        blockers = []
        for holder, held_mode in entry.holders.items():
            if holder is txn:
                continue
            if compatible(mode, held_mode):
                continue
            if txn.is_descendant_of(holder):
                # Moss: a conflicting lock held by an ancestor does not block.
                continue
            blockers.append(holder)
        return blockers

    def _closes_cycle(self, requester: "Transaction",
                      blockers: Iterable["Transaction"]) -> bool:
        """Return True if ``requester`` waiting on ``blockers`` deadlocks.

        A wait on transaction T is effectively a wait on T's entire sphere:
        T cannot proceed (and hence cannot release) until its active
        descendants complete.  So the requester deadlocks if, following
        waits-for edges, it can reach itself *or any of its ancestors*.
        """
        targets = set(requester.ancestors(include_self=True))
        seen: Set["Transaction"] = set()
        stack = list(blockers)
        while stack:
            node = stack.pop()
            if node in targets:
                return True
            if node in seen:
                continue
            seen.add(node)
            # The blocker's sphere includes its ancestors: if an ancestor of
            # the blocker is waiting, the blocker's completion is still
            # gated by whatever that ancestor eventually does; only the
            # blocker's own waits (and its active descendants' waits) keep
            # the resource pinned.  We follow waits of the node and of all
            # transactions in its sphere that are themselves blocked.
            for waiter, waitees in self._waits_for.items():
                if waiter is node or waiter.is_descendant_of(node):
                    stack.extend(waitees)
        return False

    # ----------------------------------------------------------- release

    def release_all(self, txn: "Transaction") -> None:
        """Release every lock held by ``txn`` (top-level commit, or abort)."""
        with self._cond:
            for resource in list(txn.held_locks):
                entry = self._table.get(resource)
                if entry is not None:
                    entry.holders.pop(txn, None)
                    if not entry.holders:
                        del self._table[resource]
            txn.held_locks.clear()
            self._cond.notify_all()

    def inherit_to_parent(self, child: "Transaction") -> None:
        """Transfer all of ``child``'s locks to its parent (subtxn commit)."""
        parent = child.parent
        if parent is None:
            raise TransactionStateError(
                "transaction %s has no parent to inherit locks" % child.txn_id
            )
        if not child.held_locks:
            # Nothing to hand up (a child only gains locks on its own
            # thread, and it is committing): leave the table mutex alone.
            return
        with self._cond:
            for resource, mode in list(child.held_locks.items()):
                entry = self._table.get(resource)
                if entry is None:
                    continue
                entry.holders.pop(child, None)
                existing = entry.holders.get(parent)
                merged = mode if existing is None else supremum(existing, mode)
                entry.holders[parent] = merged
                parent.held_locks[resource] = merged
            child.held_locks.clear()
            self._cond.notify_all()

    def wake_aborted(self, txn: "Transaction") -> None:
        """Wake a transaction that was flagged aborted while it may be waiting."""
        with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------- introspection

    def holders(self, resource: LockResource) -> Dict[str, str]:
        """Return ``txn_id -> mode`` for the current holders of ``resource``."""
        with self._cond:
            entry = self._table.get(resource)
            if entry is None:
                return {}
            return {holder.txn_id: mode for holder, mode in entry.holders.items()}

    def mode_held(self, txn: "Transaction", resource: LockResource) -> Optional[str]:
        """Return the mode ``txn`` holds on ``resource`` (None if none)."""
        with self._cond:
            entry = self._table.get(resource)
            if entry is None:
                return None
            return entry.holders.get(txn)

    def resource_count(self) -> int:
        """Number of resources with at least one holder (for leak tests)."""
        with self._cond:
            return len(self._table)
