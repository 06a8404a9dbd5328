"""Property-based tests: lock-manager invariants.

After any sequence of acquire / try_acquire / inherit / release operations
over a small universe of transactions and resources, the lock table must
never contain two holders with incompatible modes unless one is an ancestor
of the other (the Moss exception), and every transaction's ``held_locks``
must mirror the table (the self-held acquire fast path reads the mirror).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeadlockError, LockTimeout, TransactionStateError
from repro.objstore.objects import OID
from repro.txn.locks import (LockManager, LockMode, LockResource, compatible,
                              supremum)
from repro.txn.transaction import Transaction

RESOURCES = [LockResource.for_class("A"), LockResource.for_class("B"),
             LockResource.for_object(OID("A", 1))]
MODES = list(LockMode.ALL)
N_TXNS = 5

# Steps over transactions indexed 0..4 (t1, t2 top-level; t1c child of t1;
# t1cc child of t1c; t1d, a sibling of t1c) and resources indexed 0..2:
#   ("try", txn, res, mode)     — try_acquire
#   ("acquire", txn, res, mode) — acquire with a zero wait budget
#   ("inherit", txn)            — inherit child's locks to parent
#   ("release", txn)
steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["try", "acquire"]),
                  st.integers(0, N_TXNS - 1),
                  st.integers(0, len(RESOURCES) - 1), st.sampled_from(MODES)),
        st.tuples(st.just("inherit"), st.integers(0, N_TXNS - 1)),
        st.tuples(st.just("release"), st.integers(0, N_TXNS - 1)),
    ),
    max_size=25,
)


def universe():
    t1 = Transaction("t1")
    t2 = Transaction("t2")
    t1c = Transaction("t1c", t1)
    t1cc = Transaction("t1cc", t1c)
    t1d = Transaction("t1d", t1)
    return [t1, t2, t1c, t1cc, t1d]


def apply(locks, txns, op):
    kind = op[0]
    txn = txns[op[1]]
    try:
        if kind == "try":
            locks.try_acquire(txn, RESOURCES[op[2]], op[3])
        elif kind == "acquire":
            locks.acquire(txn, RESOURCES[op[2]], op[3], timeout=0)
        elif kind == "inherit":
            if txn.parent is not None:
                locks.inherit_to_parent(txn)
        elif kind == "release":
            locks.release_all(txn)
    except (LockTimeout, DeadlockError, TransactionStateError):
        pass


def check_invariant(locks, txns):
    """No two live holders of one resource hold incompatible modes unless
    related by ancestry; ``held_locks`` equals the table for every
    transaction and resource."""
    for resource in RESOURCES:
        holders = []
        for txn in txns:
            mode = locks.mode_held(txn, resource)
            assert txn.held_locks.get(resource) == mode, (
                "%s: held_locks %s, table %s on %s"
                % (txn.txn_id, txn.held_locks.get(resource), mode, resource))
            if mode is not None:
                holders.append((txn, mode))
        for i, (ta, ma) in enumerate(holders):
            for tb, mb in holders[i + 1:]:
                if compatible(ma, mb):
                    continue
                assert ta.is_descendant_of(tb) or tb.is_descendant_of(ta), (
                    "incompatible co-holders %s(%s) and %s(%s) on %s"
                    % (ta.txn_id, ma, tb.txn_id, mb, resource))


class TestLockInvariants:
    @settings(max_examples=200, deadline=None)
    @given(ops=steps)
    def test_no_incompatible_unrelated_holders(self, ops):
        locks = LockManager(default_timeout=0.01)
        txns = universe()
        for op in ops:
            apply(locks, txns, op)
            check_invariant(locks, txns)

    @settings(max_examples=120, deadline=None)
    @given(ops=steps)
    def test_held_locks_bookkeeping_matches_table(self, ops):
        """Transaction.held_locks and the lock table stay in sync, and
        releasing every transaction leaves both empty."""
        locks = LockManager(default_timeout=0.01)
        txns = universe()
        for op in ops:
            apply(locks, txns, op)
            check_invariant(locks, txns)
        for txn in txns:
            locks.release_all(txn)
        assert locks.resource_count() == 0
        assert all(not txn.held_locks for txn in txns)

    @settings(max_examples=120, deadline=None)
    @given(ops=steps)
    def test_acquired_count_matches_grants(self, ops):
        """Every successful request counts once in ``stats["acquired"]``,
        self-held no-op grants included, and leaves the requester holding
        at least the requested mode."""
        locks = LockManager(default_timeout=0.01)
        txns = universe()
        granted = 0
        for op in ops:
            before = locks.stats["acquired"]
            kind = op[0]
            if kind in ("try", "acquire"):
                txn, resource, mode = txns[op[1]], RESOURCES[op[2]], op[3]
                try:
                    if kind == "try":
                        ok = locks.try_acquire(txn, resource, mode)
                    else:
                        locks.acquire(txn, resource, mode, timeout=0)
                        ok = True
                except (LockTimeout, DeadlockError, TransactionStateError):
                    ok = False
                granted += ok
                assert locks.stats["acquired"] - before == int(ok)
                if ok:
                    # a grant leaves the requester holding at least ``mode``
                    held = locks.mode_held(txn, resource)
                    assert supremum(held, mode) == held
            else:
                apply(locks, txns, op)
        assert locks.stats["acquired"] == granted


class TestMossSiblings:
    """A lock an ancestor holds does not let a descendant skip the table:
    a sibling's shared lock must still block another sibling's writer."""

    def setup_method(self):
        self.locks = LockManager(default_timeout=0.01)
        self.parent = Transaction("p")
        self.reader = Transaction("c1", self.parent)
        self.writer = Transaction("c2", self.parent)
        self.resource = LockResource.for_object(OID("A", 1))

    def test_sibling_shared_blocks_sibling_exclusive(self):
        locks, res = self.locks, self.resource
        locks.acquire(self.parent, res, LockMode.S)
        locks.acquire(self.reader, res, LockMode.S)
        # The reader's S is a table entry of its own, not covered by the
        # parent's S.
        assert locks.mode_held(self.reader, res) == LockMode.S
        assert not locks.try_acquire(self.writer, res, LockMode.X)
        with pytest.raises(LockTimeout):
            locks.acquire(self.writer, res, LockMode.X, timeout=0)
        assert locks.mode_held(self.writer, res) is None

    def test_writer_granted_once_reader_commits(self):
        locks, res = self.locks, self.resource
        locks.acquire(self.parent, res, LockMode.S)
        locks.acquire(self.reader, res, LockMode.S)
        locks.inherit_to_parent(self.reader)
        # Every remaining conflicting holder is the writer's ancestor.
        locks.acquire(self.writer, res, LockMode.X, timeout=0)
        assert locks.mode_held(self.writer, res) == LockMode.X

    def test_self_held_request_is_a_counted_no_op(self):
        locks, res = self.locks, self.resource
        locks.acquire(self.reader, res, LockMode.X)
        before = dict(locks.stats)
        locks.acquire(self.reader, res, LockMode.S)
        assert locks.mode_held(self.reader, res) == LockMode.X
        assert locks.stats["acquired"] == before["acquired"] + 1
        assert locks.holders(res) == {"c1": LockMode.X}

    def test_self_held_request_of_flagged_transaction_raises(self):
        locks, res = self.locks, self.resource
        locks.acquire(self.reader, res, LockMode.S)
        self.reader.aborted_flag = True
        with pytest.raises(DeadlockError):
            locks.acquire(self.reader, res, LockMode.S)
