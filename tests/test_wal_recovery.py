"""Crash-recovery tests: WAL format, crash-point sweep, fault injection,
checkpointing, and restart continuity.

The central property (ISSUE 2 acceptance): killing the system after *any*
WAL record and recovering must yield exactly the state produced by the
committed top-level transactions in the surviving prefix — no lost
committed effects, no resurrected aborted/uncommitted effects, and
deferred-rule effects (which per §6.3 ran inside the committing
transaction) replayed atomically with their commit.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    on_update,
)
from repro.recovery import (
    FaultingWAL,
    InjectedCrash,
    corrupt_record,
    has_durable_state,
    load_checkpoint,
    read_wal_records,
    recover,
    truncated_copy,
)
from repro.objstore.objects import OID
from repro.objstore.store import CREATE, DEFINE_CLASS, DELETE, UPDATE, Delta
from repro.recovery.serialize import encode_attrs, encode_delta
from repro.recovery.wal import wal_files
from repro.rules.coupling import DEFERRED, IMMEDIATE
from repro.storage import encode_frame
from repro.rules.rule import RULE_CLASS


def stock_class():
    return ClassDef("Stock", attributes("symbol", ("price", "number")))


def audit_class():
    return ClassDef("Audit", attributes("note"))


def build_rules():
    """A fresh rule library (Rule objects are mutated on registration, so
    every recovery needs its own instances)."""
    return [Rule(
        name="audit-price",
        event=on_update("Stock"),
        condition=Condition.true(),
        action=Action.call(
            lambda ctx: ctx.create("Audit", {"note": "price-change"})),
        ec_coupling=DEFERRED,
        ca_coupling=IMMEDIATE,
    )]


def make_durable_db(data_dir, **kwargs):
    kwargs.setdefault("wal_fsync", False)  # sweeps don't need real fsyncs
    return HiPAC(lock_timeout=2.0, durability="wal", data_dir=data_dir,
                 **kwargs)


def run_workload(db):
    """A mixed workload: DDL, creates, deferred rule firings, an explicit
    abort, nested commit + nested abort (compensation records), rule
    create/drop.  Returns ``[(lsn, snapshot)]`` captured at every point
    where the durable state legally changes (each top-level outcome)."""
    captures = [(db.wal.last_lsn, db.store.snapshot_state())]

    def cap():
        captures.append((db.wal.last_lsn, db.store.snapshot_state()))

    db.define_class(stock_class())
    cap()
    db.define_class(audit_class())
    cap()
    db.create_rule(build_rules()[0])
    cap()

    with db.transaction() as t:
        ibm = db.create("Stock", {"symbol": "IBM", "price": 10.0}, t)
        dec = db.create("Stock", {"symbol": "DEC", "price": 20.0}, t)
    cap()

    # Deferred rule firing: the Audit row is created inside the committing
    # transaction (§6.3), so its delta precedes the commit record.
    with db.transaction() as t:
        db.update(ibm, {"price": 11.0}, t)
    cap()

    # Explicit top-level abort: none of this may survive recovery.
    t = db.begin()
    db.create("Stock", {"symbol": "BAD", "price": 0.0}, t)
    db.update(dec, {"price": 999.0}, t)
    db.abort(t)
    cap()

    # Nested: committed child + aborted child (compensation records) under
    # a committing top level.
    t = db.begin()
    child = db.begin(t)
    db.update(dec, {"price": 21.0}, child)
    db.commit(child)
    doomed = db.begin(t)
    db.create("Stock", {"symbol": "TMP", "price": 1.0}, doomed)
    db.update(dec, {"price": 1000.0}, doomed)
    db.abort(doomed)
    db.update(dec, {"price": 22.0}, t)
    db.commit(t)
    cap()

    db.delete_rule("audit-price")
    cap()

    db.define_class(ClassDef("Temp", attributes("x")))
    cap()
    db.drop_class("Temp")
    cap()

    with db.transaction() as t:
        db.update(ibm, {"price": 12.5}, t)
    cap()
    return captures


def oracle(captures, lsn):
    """The committed state as of ``lsn``: the last capture at or below it."""
    state = captures[0][1]
    for captured_lsn, snapshot in captures:
        if captured_lsn <= lsn:
            state = snapshot
    return state


def sweep(src, captures, tmp_path, torn_tail=False):
    """Recover every WAL prefix of ``src`` and compare to the oracle.

    ``torn_tail=True`` additionally leaves half of the next record's
    frame at every truncation point — a mid-frame tear the scanner must
    drop without disturbing the preceding prefix.
    """
    records, _ = read_wal_records(src)
    checkpoint = load_checkpoint(src)
    base_lsn = checkpoint["lsn"] if checkpoint is not None else 0
    assert records, "workload produced no WAL records"
    for n in range(len(records) + 1):
        lsn = records[n - 1]["lsn"] if n else base_lsn
        prefix_dir = truncated_copy(src, tmp_path / ("prefix%d" % n), n,
                                    torn_tail=torn_tail)
        recovered = recover(prefix_dir, rules=build_rules(), durability=None)
        assert recovered.store.snapshot_state() == oracle(captures, lsn), (
            "prefix of %d records (lsn %d) diverged from committed state"
            % (n, lsn))


class TestWalFormat:
    def test_reader_returns_only_valid_prefix(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        with db.transaction() as t:
            db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        db.close()
        records, discarded = read_wal_records(tmp_path / "d")
        assert discarded == 0
        # One record per committed sphere, carrying its deltas.
        assert [r["type"] for r in records] == ["commit", "commit"]
        assert [[d["kind"] for d in r["data"]["deltas"]]
                for r in records] == [["define-class"], ["create"]]
        assert all(r1["lsn"] < r2["lsn"]
                   for r1, r2 in zip(records, records[1:]))

    def test_reader_stops_at_corrupt_record(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        for symbol in ("IBM", "DEC", "HP"):
            with db.transaction() as t:
                db.create("Stock", {"symbol": symbol, "price": 1.0}, t)
        db.close()
        records, _ = read_wal_records(tmp_path / "d")
        corrupt_record(tmp_path / "d", 2)
        surviving, discarded = read_wal_records(tmp_path / "d")
        assert [r["lsn"] for r in surviving] == [r["lsn"] for r in records[:2]]
        assert discarded > 0

    def test_torn_tail_is_dropped(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        db.close()
        records, _ = read_wal_records(tmp_path / "d")
        assert records
        # Append half of a plausible next frame: a mid-write kill.
        frame = encode_frame({"lsn": records[-1]["lsn"] + 1,
                              "type": "begin", "txn": "t99",
                              "sphere": "t99", "data": {}})
        with open(wal_files(tmp_path / "d")[-1], "ab") as handle:
            handle.write(frame[: len(frame) // 2])
        surviving, discarded = read_wal_records(tmp_path / "d")
        assert len(surviving) == len(records)
        assert discarded > 0


def per_event_log(data_dir, entries):
    """Write ``(type, txn, sphere, data)`` entries as a WAL in the older
    per-event format: a record per begin, write and outcome."""
    data_dir.mkdir()
    frames = b"".join(
        encode_frame({"lsn": lsn, "type": rtype, "txn": txn,
                      "sphere": sphere, "data": data})
        for lsn, (rtype, txn, sphere, data) in enumerate(entries, 1))
    (data_dir / "wal-00000001.seg").write_bytes(frames)


def per_event_delta(delta):
    """A delta as the older format logged it, before-image included."""
    return dict(encode_delta(delta), old_attrs=encode_attrs(delta.old_attrs))


class TestPerEventLogRecovery:
    def test_older_format_log_recovers_to_committed_state(self, tmp_path):
        ibm, tmp = OID("Stock", 1), OID("Stock", 2)
        ibm10 = {"symbol": "IBM", "price": 10.0}
        ibm11 = {"symbol": "IBM", "price": 11.0}
        tmp1 = {"symbol": "TMP", "price": 1.0}
        per_event_log(tmp_path / "d", [
            ("begin", "t1", "t1", {"parent": None, "label": ""}),
            ("delta", "t1", "t1", per_event_delta(
                Delta(DEFINE_CLASS, "Stock", class_def=stock_class()))),
            ("commit", "t1", "t1", {"top": True}),
            # A sphere with a committed child and an aborted child whose
            # write was compensated in the log.
            ("begin", "t2", "t2", {"parent": None, "label": ""}),
            ("delta", "t2", "t2", per_event_delta(
                Delta(CREATE, "Stock", ibm, None, ibm10))),
            ("begin", "t3", "t2", {"parent": "t2", "label": ""}),
            ("delta", "t3", "t2", per_event_delta(
                Delta(UPDATE, "Stock", ibm, ibm10, ibm11))),
            ("commit", "t3", "t2", {"top": False}),
            ("begin", "t4", "t2", {"parent": "t2", "label": ""}),
            ("delta", "t4", "t2", per_event_delta(
                Delta(CREATE, "Stock", tmp, None, tmp1))),
            ("delta", "t4", "t2", per_event_delta(
                Delta(DELETE, "Stock", tmp, tmp1, None))),
            ("abort", "t4", "t2", {"top": False}),
            ("rule-drop", "t2", "t2", {"name": "gone"}),
            ("commit", "t2", "t2", {"top": True}),
            # Commit record landed, force failed, sphere rolled back.
            ("begin", "t5", "t5", {"parent": None, "label": ""}),
            ("delta", "t5", "t5", per_event_delta(
                Delta(UPDATE, "Stock", ibm, ibm11,
                      {"symbol": "IBM", "price": 999.0}))),
            ("commit", "t5", "t5", {"top": True}),
            ("abort", "t5", "t5", {"top": True}),
        ])
        recovered = recover(tmp_path / "d", durability=None)
        assert recovered.store.snapshot_state()["Stock"] == {ibm: ibm11}
        report = recovered.recovery_report()
        assert report.replayed_spheres == 2
        assert report.discarded_spheres == 1
        assert report.replayed_records == 5


class TestCrashSweep:
    def test_recovery_equals_committed_prefix_at_every_record(self, tmp_path):
        db = make_durable_db(tmp_path / "src")
        captures = run_workload(db)
        db.close()
        sweep(tmp_path / "src", captures, tmp_path)

    def test_recovery_tolerates_torn_tail_at_every_record(self, tmp_path):
        # Same sweep, but every truncation point ends in a mid-frame
        # tear (half of record N+1): the scanner must drop the tear and
        # recover exactly the clean-prefix state.
        db = make_durable_db(tmp_path / "src")
        captures = run_workload(db)
        db.close()
        sweep(tmp_path / "src", captures, tmp_path, torn_tail=True)

    def test_sweep_with_mid_workload_checkpoint(self, tmp_path):
        db = make_durable_db(tmp_path / "src")
        db.define_class(stock_class())
        db.define_class(audit_class())
        db.create_rule(build_rules()[0])
        with db.transaction() as t:
            ibm = db.create("Stock", {"symbol": "IBM", "price": 10.0}, t)
        assert db.checkpoint()
        # Everything before the checkpoint is now in the snapshot, not the
        # (truncated) WAL; the sweep's base state is the checkpoint.
        captures = [(db.wal.last_lsn, db.store.snapshot_state())]
        with db.transaction() as t:
            db.update(ibm, {"price": 11.0}, t)
        captures.append((db.wal.last_lsn, db.store.snapshot_state()))
        t = db.begin()
        db.create("Stock", {"symbol": "BAD", "price": 0.0}, t)
        db.abort(t)
        captures.append((db.wal.last_lsn, db.store.snapshot_state()))
        with db.transaction() as t:
            db.update(ibm, {"price": 12.0}, t)
        captures.append((db.wal.last_lsn, db.store.snapshot_state()))
        db.close()
        sweep(tmp_path / "src", captures, tmp_path)

    def test_corrupt_record_truncates_recovery_to_its_prefix(self, tmp_path):
        db = make_durable_db(tmp_path / "src")
        captures = run_workload(db)
        db.close()
        src = tmp_path / "src"
        records, _ = read_wal_records(src)
        index = len(records) // 2
        corrupt_record(src, index)
        recovered = recover(src, rules=build_rules(), durability=None)
        assert recovered.store.snapshot_state() == oracle(
            captures, records[index - 1]["lsn"])


def attach_wal(db, wal):
    db.wal = wal
    db.transaction_manager.wal = wal


class TestFaultInjection:
    def test_commit_crash_aborts_and_releases_locks(self, tmp_path):
        # Satellite fix: a failure in the commit *resume* phase (the WAL
        # force) must not strand the transaction in COMMITTING with its
        # locks held — it aborts, rolls back, and re-raises.
        db = HiPAC(lock_timeout=2.0)
        db.define_class(stock_class())
        before = db.store.snapshot_state()
        # fail_after=0: the sphere's one commit record is the first append,
        # and it dies.
        attach_wal(db, FaultingWAL(tmp_path / "d", fail_after=0))
        txn = db.begin()
        db.create("Stock", {"symbol": "IBM", "price": 1.0}, txn)
        with pytest.raises(InjectedCrash):
            db.commit(txn)
        assert txn.state == "aborted"
        assert db.store.snapshot_state() == before
        assert db.locks.resource_count() == 0
        assert db.wal.stats["append_failures"] >= 1
        # The in-memory system stays usable once the dead log is detached.
        attach_wal(db, None)
        with db.transaction() as t:
            db.create("Stock", {"symbol": "DEC", "price": 2.0}, t)
        assert len(db.store.snapshot_state()["Stock"]) == 1

    def test_commit_crash_recovers_to_committed_prefix(self, tmp_path):
        db = HiPAC(lock_timeout=2.0)
        wal = FaultingWAL(tmp_path / "d", fail_after=100)
        attach_wal(db, wal)
        db.define_class(stock_class())  # logged: recovery needs the class
        with db.transaction() as t:
            db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        committed = db.store.snapshot_state()
        wal.fail_after = wal.stats["records"]  # dies at the next commit
        txn = db.begin()
        db.create("Stock", {"symbol": "DEC", "price": 2.0}, txn)
        with pytest.raises(InjectedCrash):
            db.commit(txn)
        recovered = recover(tmp_path / "d", durability=None)
        snapshot = recovered.store.snapshot_state()
        assert snapshot["Stock"] == committed["Stock"]

    def test_fsync_crash_loses_the_unforced_sphere(self, tmp_path):
        # Satellite 2: crash *between* the batch write and the fsync.
        # The commit record reaches the OS but durability is never
        # confirmed, so the transaction aborts and recovery discards
        # the sphere (the best-effort abort record wins the fate scan).
        db = HiPAC(lock_timeout=2.0)
        wal = FaultingWAL(tmp_path / "d", fail_fsync_after=2, fsync=True)
        attach_wal(db, wal)
        db.define_class(stock_class())  # sync #1
        with db.transaction() as t:     # sync #2
            db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        committed = db.store.snapshot_state()
        txn = db.begin()
        db.create("Stock", {"symbol": "DEC", "price": 2.0}, txn)
        with pytest.raises(InjectedCrash):
            db.commit(txn)  # sync #3 dies after the flush
        assert txn.state == "aborted"
        # Flush the best-effort abort record (a clean shutdown would);
        # the fate scan then sees commit-then-abort and discards it.
        wal.close()
        recovered = recover(tmp_path / "d", durability=None)
        assert (recovered.store.snapshot_state()["Stock"]
                == committed["Stock"])

    def test_dead_device_fails_the_enclosing_top_level_commit(self, tmp_path):
        # Nested commits never touch the log, so a dead device cannot
        # fail one: it fails the enclosing top-level commit, which rolls
        # back the whole sphere.
        db = HiPAC(lock_timeout=2.0)
        db.define_class(stock_class())
        wal = FaultingWAL(tmp_path / "d", fail_after=0)
        attach_wal(db, wal)
        parent = db.begin()
        ibm = db.create("Stock", {"symbol": "IBM", "price": 1.0}, parent)
        child = db.begin(parent)
        db.update(ibm, {"price": 2.0}, child)
        db.commit(child)
        assert child.state == "committed"
        with pytest.raises(InjectedCrash):
            db.commit(parent)
        assert parent.state == "aborted"
        assert db.store.snapshot_state()["Stock"] == {}
        assert db.locks.resource_count() == 0
        assert wal.stats["append_failures"] == 1

    def test_failed_force_is_counted_and_reported_failing(self, tmp_path):
        # The commit record lands but its force fails: one append failure
        # is counted, the log is marked failed, the failure hook fires
        # once, and /health reports the instance as failing.
        db = HiPAC(lock_timeout=2.0)
        wal = FaultingWAL(tmp_path / "d", fail_fsync_after=2, fsync=True)
        attach_wal(db, wal)
        seen = []
        wal.on_append_failure = seen.append
        db.define_class(stock_class())  # sync #1
        with db.transaction() as t:     # sync #2
            db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        assert db.health()["status"] == "ok"
        txn = db.begin()
        db.create("Stock", {"symbol": "DEC", "price": 2.0}, txn)
        with pytest.raises(InjectedCrash):
            db.commit(txn)
        assert wal.failed
        assert wal.stats["append_failures"] == 1
        assert len(seen) == 1 and isinstance(seen[0], InjectedCrash)
        server = db.serve_admin(port=0)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/health", timeout=5)
            assert err.value.code == 503
            health = json.loads(err.value.read())
        finally:
            db.close()
        assert health["status"] == "failing"
        assert health["wal_append_failures"] == 1

    def test_only_top_level_commits_that_wrote_append(self, tmp_path):
        # Nested begin/commit/abort, top-level aborts and read-only
        # top-level commits append nothing; a sphere that wrote appends
        # exactly one record, however many subtransactions it ran.
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        with db.transaction() as t:
            ibm = db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)

        def wal_records():
            return db.stats()["storage"]["wal_records"]

        before = wal_records()
        parent = db.begin()
        db.commit(db.begin(parent))
        db.abort(db.begin(parent))
        db.read(ibm, parent)
        db.commit(parent)
        with db.transaction() as t:
            db.read(ibm, t)
        t = db.begin()
        db.update(ibm, {"price": 5.0}, t)
        db.abort(t)
        assert wal_records() == before
        parent = db.begin()
        for price in (2.0, 3.0):
            child = db.begin(parent)
            db.update(ibm, {"price": price}, child)
            db.commit(child)
        doomed = db.begin(parent)
        db.update(ibm, {"price": 99.0}, doomed)
        db.abort(doomed)
        db.commit(parent)
        assert wal_records() == before + 1
        db.close()
        record = read_wal_records(tmp_path / "d")[0][-1]
        assert [d["new_attrs"]["price"] for d in record["data"]["deltas"]] \
            == [2.0, 3.0]
        assert all("old_attrs" not in d for d in record["data"]["deltas"])


class TestCheckpointer:
    def test_interval_checkpoint_truncates_wal(self, tmp_path):
        db = make_durable_db(tmp_path / "d", checkpoint_interval=5)
        db.define_class(stock_class())
        for i in range(5):
            with db.transaction() as t:
                db.create("Stock", {"symbol": "S%d" % i, "price": 1.0}, t)
        db.close()
        assert db.stats()["recovery"]["checkpoints"] >= 1
        checkpoint = load_checkpoint(tmp_path / "d")
        assert checkpoint is not None
        records, _ = read_wal_records(tmp_path / "d")
        assert all(r["lsn"] > checkpoint["lsn"] for r in records)

    def test_checkpoint_refused_while_transactions_live(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        txn = db.begin()
        db.create("Stock", {"symbol": "IBM", "price": 1.0}, txn)
        assert db.checkpoint() is False
        assert db.stats()["recovery"]["checkpoints_skipped"] == 1
        db.commit(txn)
        assert db.checkpoint() is True
        db.close()

    def test_checkpoint_restart_restores_state_and_oid_floor(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        with db.transaction() as t:
            db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        assert db.checkpoint()
        with db.transaction() as t:
            db.create("Stock", {"symbol": "DEC", "price": 2.0}, t)
        state = db.store.snapshot_state()
        db.close()
        db2 = make_durable_db(tmp_path / "d")
        assert db2.store.snapshot_state()["Stock"] == state["Stock"]
        with db2.transaction() as t:
            oid = db2.create("Stock", {"symbol": "NEW", "price": 3.0}, t)
        existing = set(state["Stock"])
        assert oid not in existing
        db2.close()


class TestRestart:
    def test_restart_survives_and_rebinds_rules(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        run_workload(db)
        final = db.store.snapshot_state()
        db.close()

        db2 = make_durable_db(tmp_path / "d", rule_library=build_rules())
        assert db2.store.snapshot_state() == final
        report = db2.recovery_report()
        assert report is not None
        assert report.replayed_spheres > 0
        # Recovery checkpointed immediately: the old log is absorbed, so a
        # second restart replays nothing from the WAL.
        assert load_checkpoint(tmp_path / "d") is not None
        db2.close()

    def test_rebound_rule_fires_after_restart(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        db.define_class(audit_class())
        db.create_rule(build_rules()[0])
        with db.transaction() as t:
            ibm = db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        db.close()

        db2 = make_durable_db(tmp_path / "d", rule_library=build_rules())
        assert db2.rule_names() == ["audit-price"]
        audits_before = len(db2.store.snapshot_state().get("Audit", {}))
        with db2.transaction() as t:
            db2.update(ibm, {"price": 2.0}, t)
        audits_after = len(db2.store.snapshot_state().get("Audit", {}))
        assert audits_after == audits_before + 1
        db2.close()

    def test_unbound_rules_are_reported_not_registered(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        db.define_class(audit_class())
        db.create_rule(build_rules()[0])
        db.close()

        db2 = make_durable_db(tmp_path / "d")  # no rule_library
        assert db2.rule_names() == []
        assert db2.recovery_report().rules_unbound == ["audit-price"]
        # The rule's row survived; re-supplying the library next restart
        # rebinds it.
        assert len(db2.store.snapshot_state()[RULE_CLASS]) == 1
        db2.close()
        db3 = make_durable_db(tmp_path / "d", rule_library=build_rules())
        assert db3.rule_names() == ["audit-price"]
        db3.close()

    def test_fresh_directory_has_no_durable_state(self, tmp_path):
        assert not has_durable_state(tmp_path / "nothing")
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        db.close()
        assert has_durable_state(tmp_path / "d")


class TestStatsAndDefaults:
    def test_storage_stats_present_in_memory_mode(self):
        db = HiPAC(lock_timeout=2.0)
        storage = db.stats()["storage"]
        assert storage["wal_records"] == 0
        assert db.stats()["recovery"]["replays"] == 0
        assert db.wal is None and db.checkpointer is None

    def test_storage_stats_count_wal_activity(self, tmp_path):
        db = HiPAC(lock_timeout=2.0, durability="wal",
                   data_dir=tmp_path / "d")
        db.define_class(stock_class())
        with db.transaction() as t:
            db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        storage = db.stats()["storage"]
        assert storage["wal_records"] > 0
        assert storage["wal_commits_forced"] == 2
        assert storage["wal_fsyncs"] == 2
        db.close()

    def test_unknown_durability_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            HiPAC(durability="paper-tape", data_dir=tmp_path / "d")
        with pytest.raises(ValueError):
            HiPAC(durability="wal")
