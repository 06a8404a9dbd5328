"""Tests for the lean firing path: transaction events gated to the ones the
Rule Manager acts on, per-signal memos, trace details formatted only while
tracing, and the lock-only rule-object read."""

import pytest

from repro import (
    Action,
    Attr,
    ClassDef,
    Condition,
    DatabaseEventSpec,
    HiPAC,
    Query,
    Rule,
    UnknownObjectError,
    attributes,
    external,
    on_update,
)
from repro.core import tracing
from repro.events.signal import EventSignal
from repro.objstore.objects import OID
from repro.rules.manager import RuleManagerConfig
from repro.txn.locks import LockMode, LockResource

N_RULES = 6


def build(**kwargs):
    db = HiPAC(lock_timeout=2.0, **kwargs)
    db.define_class(ClassDef("Stock", attributes("symbol", "price")))
    return db


def record_sink(db):
    """Wrap the Transaction Manager's event sink; return the call log."""
    calls = []
    sink = db.transaction_manager.event_sink

    def recording(kind, txn):
        calls.append((kind, txn.internal))
        sink(kind, txn)

    db.transaction_manager.event_sink = recording
    return calls


def install_price_rules(db, n=N_RULES, action=None):
    for i in range(n):
        db.create_rule(Rule(
            name="watch-%d" % i,
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.of(Query("Stock", Attr("price") > 0)),
            action=action or Action.call(lambda ctx: None),
        ))


class TestGatedTransactionEvents:
    def test_immediate_firings_make_no_internal_sink_calls(self):
        db = build()
        install_price_rules(db)
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        calls = record_sink(db)
        before = db.stats()["rules"]["actions_executed"]
        with db.transaction() as txn:
            db.update(oid, {"price": 2.0}, txn)
        # N condition and N action subtransactions ran ...
        assert db.stats()["rules"]["actions_executed"] - before == N_RULES
        # ... and the sink saw only the application transaction.
        assert calls == [("begin", False), ("commit", False)]

    def test_internal_commit_with_deferred_work_still_signals(self):
        db = build(config=RuleManagerConfig(defer_to_top_level=False))
        ran = []
        db.create_rule(Rule(
            name="spawn", event=on_update("Stock", attrs=["symbol"]),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.update(
                ctx.bindings["oid"], {"price": 5.0}))))
        db.create_rule(Rule(
            name="deferred", event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ran.append(ctx.txn.parent.label)),
            ec_coupling="deferred"))
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        calls = record_sink(db)
        with db.transaction() as txn:
            db.update(oid, {"symbol": "Y"}, txn)
        # The deferred firing drained at the action subtransaction's commit.
        assert ran == ["act:spawn"]
        assert ("commit", True) in calls
        assert ("begin", True) not in calls

    def test_trace_edges_recorded_for_every_transaction(self):
        db = build()
        install_price_rules(db)
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        created = db.stats()["transactions"]["created"]
        db.tracer.start()
        with db.transaction() as txn:
            db.update(oid, {"price": 2.0}, txn)
        trace = db.tracer.stop()
        created = db.stats()["transactions"]["created"] - created
        edges = [r.detail for r in trace.records
                 if r.source == tracing.TRANSACTION_MANAGER
                 and r.operation == "signal_event"]
        # one begin and one commit edge per transaction, internal included
        assert sum(d.startswith("transaction begin") for d in edges) == created
        assert sum(d.startswith("transaction commit") for d in edges) == created
        assert created == 1 + 2 * N_RULES

    def test_transaction_signal_built_only_for_programmed_ops(self):
        db = build()
        fast_path = db.rule_manager.txn_detector.stats["fast_path"]
        began = []
        with db.transaction():
            pass
        # No rule on transaction events: no signal reached the detector.
        assert db.rule_manager.txn_detector.stats["fast_path"] == fast_path
        db.create_rule(Rule(
            name="on-begin", event=DatabaseEventSpec("begin"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: began.append(ctx.bindings["txn_id"]))))
        with db.transaction() as txn:
            pass
        assert began == [txn.txn_id]


class TestSignalMemos:
    def test_action_mutating_bindings_does_not_leak(self):
        db = build()
        seen = []

        def vandal(ctx):
            ctx.bindings["new_price"] = -1
            ctx.bindings["extra"] = True

        def witness(ctx):
            seen.append((ctx.bindings["new_price"], "extra" in ctx.bindings))

        db.create_rule(Rule(name="a-vandal", event=on_update("Stock"),
                            condition=Condition.true(),
                            action=Action.call(vandal), priority=2))
        db.create_rule(Rule(name="b-witness", event=on_update("Stock"),
                            condition=Condition.true(),
                            action=Action.call(witness), priority=1))
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
            db.update(oid, {"price": 7.0}, txn)
        assert seen == [(7.0, False)]

    def test_bindings_fresh_each_call(self):
        signal = EventSignal(kind="external", name="tick", args={"p": 1})
        first = signal.bindings()
        first["p"] = 99
        assert signal.bindings()["p"] == 1
        assert signal.bindings() is not signal.bindings()

    def test_memoised_describe_equals_fresh(self):
        def make():
            return EventSignal(kind="database", op="update",
                               class_name="Stock", oid=OID("Stock", 3),
                               old_attrs={"price": 1}, new_attrs={"price": 2})

        memoised = make()
        first = memoised.describe()
        assert memoised.describe() == first == make().describe()
        assert memoised.bindings() == make().bindings()
        # memos are not part of the signal's identity or repr
        assert memoised == make()
        assert repr(memoised) == repr(make())


class TestTraceDetailsOffPath:
    def test_firing_formats_no_oid_with_tracer_stopped(self, monkeypatch):
        db = build()
        db.create_rule(Rule(
            name="reprice",
            event=external("tick", "price"),
            condition=Condition.of(Query("Stock", Attr("symbol") == "X")),
            action=Action.call(lambda ctx: ctx.update(
                ctx.results[0].oids()[0], {"price": ctx.bindings["price"]}))))
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        db.tracer.start()
        db.tracer.stop()
        calls = []
        original = OID.__str__

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(OID, "__str__", counting)
        before = db.stats()["rules"]["actions_executed"]
        with db.transaction() as txn:
            db.signal_event("tick", {"price": 3.0}, txn=txn)
        assert db.stats()["rules"]["actions_executed"] == before + 1
        assert calls == []


class TestRuleObjectReadLock:
    def test_lock_for_read_takes_read_locks_and_trace_edge(self):
        db = build()
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        om = db.object_manager
        reads = om.stats["reads"]
        txn = db.begin()
        db.tracer.start()
        record = om.lock_for_read(oid, txn, source=tracing.RULE_MANAGER)
        trace = db.tracer.stop()
        assert record.attrs["symbol"] == "X"
        assert om.stats["reads"] == reads + 1
        assert db.locks.mode_held(txn, LockResource.for_class("Stock")) \
            == LockMode.IS
        assert db.locks.mode_held(txn, LockResource.for_object(oid)) \
            == LockMode.S
        assert [(r.source, r.target, r.operation, r.detail)
                for r in trace.records] == [
            (tracing.RULE_MANAGER, tracing.OBJECT_MANAGER, "read", str(oid))]
        db.commit(txn)

    def test_deleted_object_still_raises(self):
        db = build()
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        with db.transaction() as txn:
            db.delete(oid, txn)
        txn = db.begin()
        with pytest.raises(UnknownObjectError):
            db.object_manager.lock_for_read(oid, txn)
        db.abort(txn)
