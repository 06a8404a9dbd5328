"""The Rule Manager (paper §5.4, §6).

"The Rule Manager is responsible for firing the appropriate rules when an
event is detected.  That is, it determines which rules to fire, and
schedules condition evaluation and action execution for those rules
according to their coupling modes."

Its paper interface is a single operation — **Signal Event** — used by the
Event Detectors and the Transaction Manager.  Everything else here
implements the protocols of Section 6:

* **rule creation** (§6.1): the application's create-rule request goes to
  the Object Manager, which creates the rule object and signals the
  create-rule event; the Rule Manager (synchronously, before the Object
  Manager resumes) adds the rule to the Condition Evaluator, programs the
  Event Detectors, and extends its event->rule mapping;
* **event signal processing** (§6.2): triggered rules are partitioned by
  E-C coupling; *separate* firings get new top-level transactions in their
  own threads; *deferred* firings are saved on the triggering transaction;
  *immediate* firings evaluate conditions in subtransactions (all
  conditions first, then actions), suspending the triggering operation;
* **transaction commit processing** (§6.3): at commit the deferred set is
  split into deferred-condition and deferred-action firings and processed
  before commit completes.

Cascading: operations performed by conditions/actions signal further events
through the same path, producing the paper's trees of nested transactions.
"""

from __future__ import annotations

import threading
import time as _time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.clock import Clock, VirtualClock
from repro.conditions.condition import ConditionOutcome
from repro.conditions.evaluator import ConditionEvaluator, Memo
from repro.core import tracing
from repro.errors import CascadeLimitExceeded, RuleError, TransactionAborted
from repro.events.composite import CompositeEventDetector
from repro.events.database import DatabaseEventDetector
from repro.events.derivation import derive_event_spec
from repro.events.external import ExternalEventDetector
from repro.events.signal import EventSignal
from repro.events.spec import (
    TXN_OPS,
    CompositeEventSpec,
    DatabaseEventSpec,
    EventSpec,
    ExternalEventSpec,
    TemporalEventSpec,
)
from repro.events.temporal import TemporalEventDetector
from repro.obs.metrics import (DEFAULT_SIZE_BUCKETS, HOT_PATH_SAMPLE,
                                MetricsRegistry)
from repro.obs.slowlog import SlowLog
from repro.obs.spans import Span, SpanRecorder
from repro.obs.watchdog import Watchdog
from repro.objstore.manager import ObjectManager
from repro.objstore.objects import OID
from repro.rules.actions import ActionContext
from repro.rules.coupling import DEFERRED, IMMEDIATE, SEPARATE
from repro.rules.firing import FiringLog, RuleFiring
from repro.rules.rule import RULE_CLASS, Rule
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.txn.undo import CallbackUndo


@dataclass
class RuleManagerConfig:
    """Tunables of the Rule Manager.

    * ``concurrent_conditions`` — evaluate the conditions of an immediate
      group in concurrent sibling subtransactions (the paper's "for rules
      with the same event and E-C coupling mode, the condition evaluation
      transactions will execute concurrently"); serial by default for
      determinism.
    * ``defer_to_top_level`` — where deferred firings whose event occurred
      in a *subtransaction* are queued.  True (default) queues them on the
      top-level transaction, so deferred work — notably integrity
      constraints — runs once, at the outermost commit, against the
      transaction's final state (the execution-model intent [HSU88] and the
      System R integrity lineage).  False follows §2.1's letter ("the same
      transaction as the triggering event"): the deferred set of each
      subtransaction is processed at that subtransaction's own commit.
      Events occurring directly in a top-level transaction behave the same
      either way.
    * ``max_cascade_depth`` — bound on recursive rule triggering.
    * ``max_deferred_rounds`` — bound on deferred firings scheduling further
      deferred firings at the same commit.
    """

    concurrent_conditions: bool = False
    defer_to_top_level: bool = True
    max_cascade_depth: int = 64
    max_deferred_rounds: int = 1000
    drain_timeout: float = 60.0
    #: ring capacity of the firing log (oldest records evicted beyond this;
    #: evictions are counted on :attr:`FiringLog.dropped`)
    firing_log_capacity: int = 100000
    #: optional deadline-aware dispatcher for separate-coupling firings
    #: (the [BUC88] time-constrained scheduling integration): when set,
    #: separate firings are submitted to it ordered by the triggering
    #: rule's deadline instead of each spawning a dedicated thread
    deadline_executor: Any = None


class RuleManager:
    """Maps events to rule firings, and rule firings to transactions (§5.4)."""

    def __init__(self, object_manager: ObjectManager,
                 txn_manager: TransactionManager,
                 evaluator: ConditionEvaluator,
                 temporal_detector: Optional[TemporalEventDetector] = None,
                 external_detector: Optional[ExternalEventDetector] = None,
                 composite_detector: Optional[CompositeEventDetector] = None,
                 tracer: Optional[tracing.Tracer] = None,
                 clock: Optional[Clock] = None,
                 applications: Any = None,
                 config: Optional[RuleManagerConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanRecorder] = None,
                 slow_log: Optional[SlowLog] = None,
                 watchdog: Optional[Watchdog] = None) -> None:
        self._om = object_manager
        self._txns = txn_manager
        self._evaluator = evaluator
        self._temporal = temporal_detector
        self._external = external_detector
        self._composite = composite_detector
        self._tracer = tracer or tracing.Tracer()
        self._clock = clock or VirtualClock()
        self.applications = applications
        self.config = config or RuleManagerConfig()
        self._metrics = metrics or MetricsRegistry(enabled=False)
        self._spans = spans or SpanRecorder(enabled=False)
        # `is not None`, not truthiness: an empty SlowLog is falsy (len 0).
        self._slow_log = (slow_log if slow_log is not None
                          else SlowLog(enabled=False))
        # Same rule for the watchdog (empty alert log is falsy too).
        self._watchdog = (watchdog if watchdog is not None
                          else Watchdog(enabled=False))
        couplings = (IMMEDIATE, DEFERRED, SEPARATE)
        self._firing_count = {
            (ec, ca): self._metrics.counter("rule_firings_total", ec=ec, ca=ca)
            for ec in couplings for ca in couplings
        }
        self._action_seconds = {
            ca: self._metrics.histogram("rule_action_seconds",
                                        sample=HOT_PATH_SAMPLE, coupling=ca)
            for ca in couplings
        }
        self._deferred_batch = self._metrics.histogram(
            "deferred_batch_size", buckets=DEFAULT_SIZE_BUCKETS)
        self._error_count = self._metrics.counter("rule_firing_errors_total")

        #: detector for transaction-control events ("the Transaction Manager
        #: ... acts as an event detector", §5.2); its sink is this manager
        self.txn_detector = DatabaseEventDetector(
            object_manager.store.schema, sink=self.signal_event,
            tracer=self._tracer, component=tracing.TRANSACTION_MANAGER,
            indexed_dispatch=object_manager.event_detector.indexed_dispatch,
            metrics=self._metrics)
        self.txn_detector.sink_batch = self.signal_event_batch

        #: flight recorder; None unless the facade enables it.  The Rule
        #: Manager is the journal's gatekeeper: rule administration is
        #: journalled here as a stimulus, every rule-cascade scope raises
        #: the recorder's thread-local suppression (cascade work is replay
        #: *output*, re-derived by re-signalling the stimuli), and each
        #: completed condition evaluation is journalled as a ``firing``
        #: response record for replay to diff against.
        self.recorder: Optional[Any] = None
        #: causal provenance store; None unless the facade enables it.
        #: Every rule-action execution runs inside a causal scope so the
        #: writes it performs are attributed to the firing and its
        #: triggering event.
        self.provenance: Optional[Any] = None
        self._rules: Dict[str, Rule] = {}
        self._rules_by_oid: Dict[OID, Rule] = {}
        self._event_map: Dict[EventSpec, Set[str]] = {}
        self._pending = threading.local()
        self._depth = threading.local()

        self.firings = FiringLog(capacity=self.config.firing_log_capacity)
        self.background_errors: List[Tuple[str, str]] = []
        self._threads: Set[threading.Thread] = set()
        self._threads_cv = threading.Condition()
        self.stats = {"signals": 0, "triggered": 0, "conditions_evaluated": 0,
                      "actions_executed": 0, "separate_spawned": 0,
                      "deferred_queued": 0, "max_cascade_depth_seen": 0,
                      "cascades_cut": 0, "firing_errors": 0}

    # ============================================================ rule ops

    def create_rule(self, rule: Rule, txn: Transaction, *,
                    source: str = tracing.APPLICATION) -> Rule:
        """Create a rule (paper §6.1).

        The request is handled by the Object Manager: it creates the rule's
        ``HiPAC::Rule`` object under a write lock and signals the
        create-rule event; this manager registers the rule (condition graph,
        event detectors, event->rule map) while handling that signal, before
        the Object Manager resumes.  All registration is undone if ``txn``
        aborts.
        """
        if rule.name in self._rules:
            raise RuleError("a rule named %r already exists" % rule.name)
        if rule.event is None:
            rule.event = derive_event_spec(rule.condition.queries)
        if self.recorder is not None:
            # Rule administration is a journal stimulus: the rule-object
            # operation itself is *not* journalled at the Object Manager
            # (replay re-creates the row by re-issuing create_rule from
            # the caller's rule library, at this same point in sequence).
            self.recorder.record_rule_op("rule-create", rule.name, txn)
        stack = self._pending_stack()
        stack.append(rule)
        try:
            self._om.create(RULE_CLASS, rule.store_attrs(), txn, source=source)
        finally:
            if stack and stack[-1] is rule:
                stack.pop()
        if rule.name not in self._rules:  # pragma: no cover - defensive
            raise RuleError("rule registration failed for %r" % rule.name)
        return rule

    def delete_rule(self, name: str, txn: Transaction, *,
                    source: str = tracing.APPLICATION) -> None:
        """Delete a rule (write lock; undone if ``txn`` aborts)."""
        rule = self.get_rule(name)
        assert rule.oid is not None
        if self.recorder is not None:
            self.recorder.record_rule_op("rule-delete", name, txn)
        self._om.delete(rule.oid, txn, source=source)

    def enable_rule(self, name: str, txn: Transaction, *,
                    source: str = tracing.APPLICATION) -> None:
        """Re-enable automatic firing of a rule (write lock)."""
        rule = self.get_rule(name)
        assert rule.oid is not None
        if self.recorder is not None:
            self.recorder.record_rule_op("rule-enable", name, txn)
        self._om.update(rule.oid, {"enabled": True}, txn, source=source)

    def disable_rule(self, name: str, txn: Transaction, *,
                     source: str = tracing.APPLICATION) -> None:
        """Disable automatic firing of a rule (write lock)."""
        rule = self.get_rule(name)
        assert rule.oid is not None
        if self.recorder is not None:
            self.recorder.record_rule_op("rule-disable", name, txn)
        self._om.update(rule.oid, {"enabled": False}, txn, source=source)

    def fire_rule(self, name: str, txn: Optional[Transaction], *,
                  args: Optional[Dict[str, Any]] = None) -> None:
        """Manually fire a rule (the paper's *fire* operation).

        Evaluates the condition and, if satisfied, executes the action,
        subject to the rule's coupling modes, exactly as if its event had
        occurred in ``txn``.  Manual firing works even when automatic firing
        is disabled.  ``args`` provides event-argument bindings for
        parameterized conditions.
        """
        rule = self.get_rule(name)
        seq = None
        if self.recorder is not None:
            seq = self.recorder.record_fire(name, args, txn)
        signal = EventSignal(kind="external", name="fire:%s" % name,
                             args=dict(args or {}), txn=txn,
                             timestamp=self._clock.now())
        if seq is not None:
            # Manual fires are journalled stimuli: address provenance of
            # the firing's writes to the fire record.
            signal._journal_seq = seq
        with self._suppression():
            self._process_firings([(rule, signal)], manual=True)

    def rules_in_group(self, group: str) -> List[str]:
        """Names of the rules belonging to ``group`` (paper §4.2), sorted."""
        return sorted(name for name, rule in self._rules.items()
                      if rule.group == group)

    def enable_group(self, group: str, txn: Transaction, *,
                     source: str = tracing.APPLICATION) -> List[str]:
        """Enable every rule in a group; returns the affected rule names."""
        names = self.rules_in_group(group)
        for name in names:
            self.enable_rule(name, txn, source=source)
        return names

    def disable_group(self, group: str, txn: Transaction, *,
                      source: str = tracing.APPLICATION) -> List[str]:
        """Disable every rule in a group; returns the affected rule names."""
        names = self.rules_in_group(group)
        for name in names:
            self.disable_rule(name, txn, source=source)
        return names

    def reattach_rule(self, rule: Rule, oid: OID, enabled: bool,
                      txn: Transaction) -> Rule:
        """Re-register a rule against its recovered ``HiPAC::Rule`` row.

        Used by crash recovery: the row (carrying ``oid`` and the stored
        ``enabled`` flag) was restored by checkpoint/WAL replay at the
        store level, without signals, so the in-memory registration —
        condition graph, event detectors, event map — must be rebuilt from
        the caller's rule object.
        """
        if rule.name in self._rules:
            raise RuleError("a rule named %r already exists" % rule.name)
        if rule.event is None:
            rule.event = derive_event_spec(rule.condition.queries)
        rule.enabled = bool(enabled)
        self._register_rule(rule, oid, txn)
        self._sync_detector_enablement(rule)
        return rule

    def get_rule(self, name: str) -> Rule:
        """Return the rule named ``name`` or raise :class:`RuleError`."""
        rule = self._rules.get(name)
        if rule is None:
            raise RuleError("no such rule: %r" % name)
        return rule

    def rule_names(self) -> List[str]:
        """Names of all registered rules, sorted."""
        return sorted(self._rules)

    # ===================================================== the §5.4 interface

    def _suppression(self):
        """Context manager muting flight-recorder stimulus capture on this
        thread for the duration of rule-cascade work.

        Transaction-internal filtering alone is not enough: rule actions may
        call into applications (``ctx.request``) that open their own
        non-internal top-level transactions, and separate-coupling firings
        run on fresh threads — so the suppression scope is thread-local and
        entered at every point where cascade processing begins."""
        if self.recorder is None:
            return nullcontext()
        return self.recorder.suppressed()

    def signal_event(self, signal: EventSignal) -> None:
        """Report the occurrence of an event (the paper's single operation).

        Called by the Event Detectors (and, for transaction events, by the
        Transaction Manager through :meth:`transaction_event`).  The
        operation that caused the signal is suspended until this returns
        (the call is synchronous).
        """
        self.signal_event_batch([signal])

    def signal_event_batch(self, signals: List[EventSignal]) -> None:
        """Report all detector matches of *one* operation in a single call.

        The database detector matches every programmed spec in one pass and
        delivers the spec-tagged reports together (each carries its own
        ``signal.spec``); this method processes the *union* of the triggered
        rules — one priority sort, one coupling partition (§6.2) — instead
        of re-partitioning once per spec-tagged copy.  The underlying
        operation feeds rule-object management and the temporal/composite
        detectors exactly once, however many specs it matched, and those
        feeds are subscription-driven: signals outside a detector's interest
        set never reach it.
        """
        if not signals:
            return
        depth = getattr(self._depth, "value", 0)
        if depth >= self.config.max_cascade_depth:
            # The paper's unbounded trigger-recursion hazard (§3.2): cut the
            # cascade here, with a typed error the application can catch and
            # an alert the /health endpoint surfaces, instead of recursing
            # to interpreter limits and wedging the transaction.
            self.stats["cascades_cut"] += 1
            described = signals[0].describe()
            self._watchdog.note_cascade_limit(depth, described)
            raise CascadeLimitExceeded(
                "rule cascade exceeded max depth %d (signal %s)"
                % (self.config.max_cascade_depth, described),
                depth=depth,
            )
        self._depth.value = depth + 1
        if depth + 1 > self.stats["max_cascade_depth_seen"]:
            self.stats["max_cascade_depth_seen"] = depth + 1
        # All signals in a batch are spec-tagged copies of one operation;
        # per-operation processing uses the first.
        base = signals[0]
        espan = None
        if self._spans.enabled:
            described = base.describe()
            espan = self._spans.start_span(
                "event:%s" % described, kind="event",
                event=described, depth=depth,
                txn=base.txn.txn_id if base.txn is not None else None)
        try:
            # Everything from here down is rule processing: stimuli were
            # journalled upstream (Object Manager / detectors), and replay
            # re-derives this work by re-signalling them.
            with self._suppression():
                self.stats["signals"] += len(signals)
                if base.kind == "database" and base.class_name == RULE_CLASS:
                    self._manage_rule_object(base)
                # Feed the temporal detector (baselines of relative/periodic
                # events) and the composite automata — once per operation.
                # Composite occurrences recognized here re-enter
                # signal_event recursively.
                if self._temporal is not None and \
                        self._temporal.wants_baseline(base):
                    self._temporal.observe_baseline(base)
                if self._composite is not None and self._composite.wants(base):
                    self._composite.observe(base)
                entries: List[Tuple[Rule, EventSignal]] = []
                for signal in signals:
                    for rule in self._triggered_rules(signal):
                        entries.append((rule, signal))
                if entries:
                    self.stats["triggered"] += len(entries)
                    # One global firing order across all matched specs.
                    entries.sort(key=lambda entry: (-entry[0].priority,
                                                    entry[0].name))
                    self._process_firings(entries)
        finally:
            self._spans.finish_span(espan)
            self._depth.value = depth

    def transaction_event(self, kind: str, txn: Transaction) -> None:
        """Transaction-control event hook (wired as the Transaction
        Manager's event sink).

        For ``commit``, first processes the transaction's deferred rule
        firings (paper §6.3) and then reports the commit event; begin/abort
        events are simply reported.  Abort events are reported detached
        (rules triggered by an abort cannot run inside the aborted
        transaction).  The signal is built only when some programmed spec
        could match it — the same interest gating as the composite and
        temporal feeds."""
        if kind == "commit":
            self._process_deferred(txn)
        if txn.internal or not self.txn_detector.relevant(kind, None):
            return
        signal = EventSignal(kind="database", op=kind,
                             txn=None if kind == "abort" else txn,
                             timestamp=self._clock.now())
        self.txn_detector.observe(signal)

    # ================================================= rule-object management

    def _pending_stack(self) -> List[Rule]:
        stack = getattr(self._pending, "stack", None)
        if stack is None:
            stack = []
            self._pending.stack = stack
        return stack

    def bootstrap_specs(self) -> List[DatabaseEventSpec]:
        """The self-management event specs (create/update/delete on the rule
        class) that the facade programs into the database event detector."""
        return [
            DatabaseEventSpec("create", RULE_CLASS),
            DatabaseEventSpec("update", RULE_CLASS),
            DatabaseEventSpec("delete", RULE_CLASS),
        ]

    def _manage_rule_object(self, signal: EventSignal) -> None:
        assert signal.oid is not None
        txn = signal.txn
        if txn is None:  # pragma: no cover - rule ops always run in a txn
            raise RuleError("rule-object operations require a transaction")
        if signal.op == "create":
            stack = self._pending_stack()
            if not stack:
                # An application created a bare rule object without going
                # through create_rule; there is no condition/action to
                # register, so nothing to manage.
                return
            rule = stack[-1]
            self._register_rule(rule, signal.oid, txn)
        elif signal.op == "delete":
            rule = self._rules_by_oid.get(signal.oid)
            if rule is not None:
                self._unregister_rule(rule, txn)
        elif signal.op == "update":
            rule = self._rules_by_oid.get(signal.oid)
            if rule is None or signal.new_attrs is None:
                return
            new_enabled = bool(signal.new_attrs.get("enabled", rule.enabled))
            if new_enabled != rule.enabled:
                self._set_enabled(rule, new_enabled, txn)

    def _register_rule(self, rule: Rule, oid: OID, txn: Transaction) -> None:
        assert rule.event is not None
        rule.oid = oid
        # §6.1 step 1: add the rule to the condition graph.
        self._evaluator.add_rule(rule.condition, txn)
        # §6.1 step 2: program the event detectors.
        self._define_event(rule.event)
        txn.log_undo(CallbackUndo(
            lambda: self._delete_event(rule.event),
            label="undefine events of %s" % rule.name))
        # §6.1 step 3: extend the event->rule mapping.
        for spec in self._mapping_specs(rule.event):
            self._event_map.setdefault(spec, set()).add(rule.name)
        self._rules[rule.name] = rule
        self._rules_by_oid[oid] = rule
        txn.log_undo(CallbackUndo(
            lambda: self._forget_rule(rule),
            label="forget rule %s" % rule.name))

    def _unregister_rule(self, rule: Rule, txn: Transaction) -> None:
        assert rule.event is not None
        self._evaluator.delete_rule(rule.condition, txn)
        self._delete_event(rule.event)
        txn.log_undo(CallbackUndo(
            lambda: self._define_event(rule.event),
            label="re-define events of %s" % rule.name))
        self._forget_rule(rule)
        txn.log_undo(CallbackUndo(
            lambda: self._remember_rule(rule),
            label="re-register rule %s" % rule.name))

    def _forget_rule(self, rule: Rule) -> None:
        for spec in self._mapping_specs(rule.event):
            names = self._event_map.get(spec)
            if names is not None:
                names.discard(rule.name)
                if not names:
                    del self._event_map[spec]
        self._rules.pop(rule.name, None)
        if rule.oid is not None:
            self._rules_by_oid.pop(rule.oid, None)

    def _remember_rule(self, rule: Rule) -> None:
        for spec in self._mapping_specs(rule.event):
            self._event_map.setdefault(spec, set()).add(rule.name)
        self._rules[rule.name] = rule
        if rule.oid is not None:
            self._rules_by_oid[rule.oid] = rule

    def _set_enabled(self, rule: Rule, enabled: bool, txn: Transaction) -> None:
        previous = rule.enabled
        rule.enabled = enabled
        self._sync_detector_enablement(rule)
        def revert() -> None:
            rule.enabled = previous
            self._sync_detector_enablement(rule)
        txn.log_undo(CallbackUndo(revert, label="revert enable %s" % rule.name))

    def _sync_detector_enablement(self, rule: Rule) -> None:
        """Disable event detection for a spec only when *no* enabled rule
        uses it (several rules may share one event, §5.3)."""
        for spec in self._mapping_specs(rule.event):
            names = self._event_map.get(spec, set())
            any_enabled = any(
                self._rules[name].enabled
                for name in names if name in self._rules
            )
            detector = self._detector_for(spec)
            if detector is None or not detector.is_defined(spec):
                continue
            if any_enabled:
                detector.enable_event(spec)
            else:
                detector.disable_event(spec)

    # ====================================================== detector routing

    def _mapping_specs(self, event: Optional[EventSpec]) -> List[EventSpec]:
        """The specs under which a rule is looked up when signals arrive.

        A composite rule is triggered by its composite occurrences (reported
        by the composite detector with the composite spec); a primitive rule
        by its primitive spec."""
        if event is None:
            return []
        return [event]

    def _detector_for(self, spec: EventSpec):
        if isinstance(spec, CompositeEventSpec):
            return self._composite
        if isinstance(spec, DatabaseEventSpec):
            if spec.op in TXN_OPS:
                return self.txn_detector
            return self._om.event_detector
        if isinstance(spec, TemporalEventSpec):
            return self._temporal
        if isinstance(spec, ExternalEventSpec):
            return self._external
        return None

    def _define_event(self, spec: EventSpec) -> None:
        """Program the detectors for ``spec`` (recursively for composites
        and temporal baselines), with tracing per §6.1."""
        detector = self._detector_for(spec)
        if detector is None:
            raise RuleError("no detector available for event %r" % spec)
        self._tracer.record(tracing.RULE_MANAGER, tracing.EVENT_DETECTOR,
                            "define_event", repr(spec))
        detector.define_event(spec)
        if isinstance(spec, CompositeEventSpec):
            for member in spec.members:
                self._define_event(member)
        elif isinstance(spec, TemporalEventSpec) and spec.baseline is not None:
            self._define_event(spec.baseline)

    def _delete_event(self, spec: EventSpec) -> None:
        detector = self._detector_for(spec)
        if detector is None:
            return
        self._tracer.record(tracing.RULE_MANAGER, tracing.EVENT_DETECTOR,
                            "delete_event", repr(spec))
        detector.delete_event(spec)
        if isinstance(spec, CompositeEventSpec):
            for member in spec.members:
                self._delete_event(member)
        elif isinstance(spec, TemporalEventSpec) and spec.baseline is not None:
            self._delete_event(spec.baseline)

    # ========================================================== §6.2 firing

    def _triggered_rules(self, signal: EventSignal) -> List[Rule]:
        if signal.spec is None:
            return []
        names = self._event_map.get(signal.spec, ())
        return [self._rules[name] for name in sorted(names)
                if name in self._rules and self._rules[name].enabled]

    def _process_firings(self, entries: List[Tuple[Rule, EventSignal]], *,
                         manual: bool = False) -> None:
        """Partition triggered rules by E-C coupling and schedule them
        (paper §6.2).

        ``entries`` pairs each triggered rule with the signal that triggered
        it (its own spec-tagged copy of the operation), already in global
        firing order.  All signals of one call describe the same operation,
        so they share one transaction.
        """
        txn = entries[0][1].txn
        separate = [e for e in entries if e[0].ec_coupling == SEPARATE]
        deferred = [e for e in entries if e[0].ec_coupling == DEFERRED]
        immediate = [e for e in entries if e[0].ec_coupling == IMMEDIATE]

        for rule, signal in separate:
            self._launch_separate_firing(rule, signal)

        if txn is not None:
            target = txn.top_level() if self.config.defer_to_top_level else txn
            for rule, signal in deferred:
                self.stats["deferred_queued"] += 1
                if self._spans.enabled:
                    # Causality bridge across the event->commit time gap
                    # (§6.3): the firing span opened at commit hangs off
                    # the event span that queued it, not off the commit.
                    signal._obs_span = self._spans.current()
                target.add_deferred_condition((rule, signal))
                self.firings.append(RuleFiring(
                    rule.name, signal.describe(), rule.ec_coupling,
                    rule.ca_coupling, triggering_txn=txn.txn_id, deferred=True))
        else:
            # Events outside any transaction (temporal, detached external):
            # host immediate *and* deferred work in a fresh top-level
            # transaction; its commit drives the deferred set.
            immediate = immediate + deferred
            deferred = []

        if not immediate:
            return
        host = txn
        detached = False
        if host is None:
            host = self._txns.create_transaction(source=tracing.RULE_MANAGER,
                                                 label="detached-firing",
                                                 internal=True)
            detached = True
        try:
            self._fire_immediate_group(immediate, host)
        except BaseException:
            if detached:
                self._txns.abort_transaction(host, source=tracing.RULE_MANAGER)
            raise
        if detached:
            self._txns.commit_transaction(host, source=tracing.RULE_MANAGER)

    def _fire_immediate_group(self, entries: List[Tuple[Rule, EventSignal]],
                              host: Transaction) -> None:
        """Evaluate all conditions first (each in a subtransaction of the
        triggering transaction), then execute the satisfied rules' actions
        per their C-A coupling (paper §6.2)."""
        outcomes: List[Tuple[Rule, EventSignal, RuleFiring, ConditionOutcome]] = []
        if self.config.concurrent_conditions and len(entries) > 1:
            outcomes = self._evaluate_concurrently(entries, host)
        else:
            memo: Memo = {}
            for rule, signal in entries:
                firing, outcome = self._evaluate_condition(rule, signal, host,
                                                           memo, IMMEDIATE)
                outcomes.append((rule, signal, firing, outcome))
        for rule, signal, firing, outcome in outcomes:
            if not outcome.satisfied:
                continue
            self._route_action(rule, firing, outcome, signal, host)

    def _route_action(self, rule: Rule, firing: RuleFiring,
                      outcome: ConditionOutcome, signal: EventSignal,
                      condition_host: Transaction) -> None:
        """Schedule the action of a satisfied rule per its C-A coupling.

        ``condition_host`` is the transaction relative to which the
        condition was evaluated (the triggering transaction for immediate
        and deferred E-C; the separate top-level transaction for separate
        E-C)."""
        if rule.ca_coupling == IMMEDIATE:
            self._execute_action(rule, firing, outcome, signal, condition_host)
        elif rule.ca_coupling == DEFERRED:
            self.stats["deferred_queued"] += 1
            firing.deferred = True
            target = (condition_host.top_level()
                      if self.config.defer_to_top_level else condition_host)
            target.add_deferred_action((rule, signal, outcome, firing))
        else:  # separate
            self._launch_separate_action(rule, firing, outcome, signal)

    def _evaluate_concurrently(self, entries, host):
        """Concurrent sibling condition subtransactions (paper §3.2, §6.2)."""
        results: List[Optional[Tuple[Rule, EventSignal, RuleFiring,
                                     ConditionOutcome]]] = [None] * len(entries)
        errors: List[BaseException] = []

        def worker(index: int, rule: Rule, signal: EventSignal) -> None:
            try:
                firing, outcome = self._evaluate_condition(
                    rule, signal, host, None, IMMEDIATE)
                results[index] = (rule, signal, firing, outcome)
            except BaseException as exc:  # collected, re-raised by caller
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i, rule, signal),
                                    daemon=True)
                   for i, (rule, signal) in enumerate(entries)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [entry for entry in results if entry is not None]

    def _evaluate_condition(self, rule: Rule, signal: EventSignal,
                            parent: Transaction, memo: Optional[Memo],
                            coupling: str) -> Tuple[RuleFiring, ConditionOutcome]:
        """Evaluate one rule's condition in a new subtransaction of
        ``parent`` (fire takes a read lock on the rule object)."""
        # Explicit span parent for deferred firings (queued at event time,
        # fired at commit); immediate firings nest via the thread stack.
        fspan = cspan = None
        if self._spans.enabled:
            fspan = self._spans.start_span(
                "fire:%s" % rule.name, kind="firing",
                parent=getattr(signal, "_obs_span", None),
                rule=rule.name, ec=rule.ec_coupling, ca=rule.ca_coupling,
                coupling=coupling)
        if self._metrics.enabled:
            self._firing_count[(rule.ec_coupling, rule.ca_coupling)].inc()
        self._watchdog.note_firing()
        ctxn = self._txns.create_transaction(parent=parent,
                                             source=tracing.RULE_MANAGER,
                                             label="cond:%s" % rule.name,
                                             internal=True)
        firing = RuleFiring(rule.name, signal.describe(), rule.ec_coupling,
                            rule.ca_coupling, triggering_txn=parent.txn_id,
                            condition_txn=ctxn.txn_id, span=fspan)
        self.firings.append(firing)
        if fspan is not None:
            cspan = self._spans.start_span("cond:%s" % rule.name,
                                           kind="condition", rule=rule.name,
                                           coupling=coupling, txn=ctxn.txn_id)
        try:
            if rule.oid is not None:
                # "Firing requires a read lock" (§2.2).
                self._om.lock_for_read(rule.oid, ctxn,
                                       source=tracing.RULE_MANAGER)
            self.stats["conditions_evaluated"] += 1
            outcome = self._evaluator.evaluate(
                rule.condition, signal, ctxn, coupling=coupling, memo=memo)
            self._txns.commit_transaction(ctxn, source=tracing.RULE_MANAGER)
            firing.satisfied = outcome.satisfied
            if self.recorder is not None:
                # Response record (bypasses suppression): the journalled
                # outcome replay diffs its own evaluations against.  The
                # condition subtransaction's top level is the sphere the
                # firing buffers on when it is the triggering one.
                self.recorder.record_firing(firing, ctxn.top_level())
            if fspan is not None:
                fspan.tags["satisfied"] = outcome.satisfied
            return firing, outcome
        except BaseException as exc:
            firing.error = str(exc)
            self._note_firing_error()
            if not ctxn.is_finished():
                self._txns.abort_transaction(ctxn, source=tracing.RULE_MANAGER)
            raise
        finally:
            self._spans.finish_span(cspan)
            self._spans.finish_span(fspan)

    def _execute_action(self, rule: Rule, firing: RuleFiring,
                        outcome: ConditionOutcome, signal: EventSignal,
                        parent: Transaction) -> None:
        """Execute one rule's action in a new subtransaction of ``parent``."""
        atxn = self._txns.create_transaction(parent=parent,
                                             source=tracing.RULE_MANAGER,
                                             label="act:%s" % rule.name,
                                             internal=True)
        firing.action_txn = atxn.txn_id
        # The action hangs off its firing span (which may already be
        # finished — deferred C-A runs at commit, long after the condition).
        aspan = None
        if self._spans.enabled:
            aspan = self._spans.start_span("act:%s" % rule.name, kind="action",
                                           parent=firing.span, rule=rule.name,
                                           coupling=rule.ca_coupling,
                                           txn=atxn.txn_id)
        hist = self._action_seconds[rule.ca_coupling]
        timed = hist.should_sample()
        start = _time.perf_counter() if timed else 0.0
        try:
            ctx = ActionContext(
                object_manager=self._om, txn=atxn, signal=signal,
                bindings=outcome.bindings, results=outcome.results,
                applications=self.applications, rule=rule,
                signal_external=self._signal_external)
            self._run_action(rule, firing, signal, ctx)
            self._txns.commit_transaction(atxn, source=tracing.RULE_MANAGER)
            firing.executed = True
            self.stats["actions_executed"] += 1
        except BaseException as exc:
            firing.error = str(exc)
            self._note_firing_error()
            if not atxn.is_finished():
                self._txns.abort_transaction(atxn, source=tracing.RULE_MANAGER)
            raise
        finally:
            if timed:
                elapsed = _time.perf_counter() - start
                hist.observe(elapsed)
                if elapsed >= self._slow_log.threshold:
                    self._slow_log.note("rule-action", rule.name, elapsed,
                                        coupling=rule.ca_coupling,
                                        txn=atxn.txn_id)
            self._spans.finish_span(aspan)

    def _note_firing_error(self) -> None:
        """Count one errored firing (condition or action path).

        The SLO monitor's firing-error-rate objective windows this
        against ``triggered`` — it must tick on every failure mode."""
        self.stats["firing_errors"] += 1
        self._error_count.inc()

    def _run_action(self, rule: Rule, firing: RuleFiring,
                    signal: EventSignal, ctx: ActionContext) -> None:
        """Run the action body inside a causal provenance scope.

        With provenance on, every write the action performs is tagged
        with this firing and its triggering event; cascaded firings push
        nested scopes, so attribution always names the *innermost* cause.
        """
        if self.provenance is None:
            rule.action.run(ctx)
            return
        with self.provenance.firing_scope(rule, firing, signal):
            rule.action.run(ctx)

    def _signal_external(self, name: str, args: Dict[str, Any],
                         txn: Optional[Transaction]) -> Any:
        if self._external is None:
            raise RuleError("no external event detector wired")
        return self._external.signal(name, args, txn=txn,
                                     timestamp=self._clock.now())

    # ===================================================== separate coupling

    def _launch_separate_firing(self, rule: Rule, signal: EventSignal) -> None:
        """Spawn a separate-coupling firing: condition (and, per C-A
        coupling, action) in a new top-level transaction on its own thread
        (paper §6.2).

        With ``rule.separate_dependent`` (extension), the launch waits for
        the triggering transaction's top-level commit and is discarded on
        abort."""
        # The new thread starts with an empty span stack; causality is the
        # span active on the *launching* thread, captured here.
        launch_span = self._spans.current() if self._spans.enabled else None

        def body() -> None:
            try:
                # Fresh thread, fresh suppression scope: everything this
                # separate firing does (its actions may open non-internal
                # application transactions) is cascade output, not stimulus.
                with self._suppression():
                    firing, outcome = self._separate_condition(rule, signal,
                                                               launch_span)
            except TransactionAborted:
                return  # recorded on the firing; separate work just stops
            except Exception as exc:
                self.background_errors.append((rule.name, str(exc)))

        if rule.separate_dependent and signal.txn is not None:
            # Hook the transaction in which the event occurred: a nested
            # transaction's hooks migrate to its parent on commit and are
            # dropped on abort, so the firing launches only if the event's
            # effects become permanent (top-level commit).
            signal.txn.on_commit.append(
                lambda _txn: self._spawn(body, rule.name,
                                         deadline=rule.deadline))
        else:
            self._spawn(body, rule.name, deadline=rule.deadline)

    def _separate_condition(self, rule: Rule, signal: EventSignal,
                            launch_span: Optional[Span] = None):
        fspan = cspan = None
        if self._spans.enabled:
            fspan = self._spans.start_span(
                "fire:%s" % rule.name, kind="firing", parent=launch_span,
                rule=rule.name, ec=rule.ec_coupling, ca=rule.ca_coupling,
                coupling=SEPARATE, separate_thread=True)
        if self._metrics.enabled:
            self._firing_count[(rule.ec_coupling, rule.ca_coupling)].inc()
        self._watchdog.note_firing()
        stxn = self._txns.create_transaction(source=tracing.RULE_MANAGER,
                                             label="sep-cond:%s" % rule.name,
                                             internal=True)
        firing = RuleFiring(rule.name, signal.describe(), rule.ec_coupling,
                            rule.ca_coupling,
                            triggering_txn=(signal.txn.txn_id
                                            if signal.txn is not None else None),
                            condition_txn=stxn.txn_id, separate_thread=True,
                            span=fspan)
        self.firings.append(firing)
        if fspan is not None:
            cspan = self._spans.start_span("cond:%s" % rule.name,
                                           kind="condition", rule=rule.name,
                                           coupling=SEPARATE, txn=stxn.txn_id)
        try:
            if rule.oid is not None:
                self._om.lock_for_read(rule.oid, stxn,
                                       source=tracing.RULE_MANAGER)
            self.stats["conditions_evaluated"] += 1
            outcome = self._evaluator.evaluate(
                rule.condition, signal, stxn, coupling=SEPARATE)
            firing.satisfied = outcome.satisfied
            if self.recorder is not None:
                self.recorder.record_firing(firing)
            if fspan is not None:
                fspan.tags["satisfied"] = outcome.satisfied
            self._spans.finish_span(cspan)
            cspan = None
            if outcome.satisfied:
                self._route_action(rule, firing, outcome, signal, stxn)
            self._txns.commit_transaction(stxn, source=tracing.RULE_MANAGER)
            return firing, outcome
        except BaseException as exc:
            firing.error = str(exc)
            self._note_firing_error()
            if not stxn.is_finished():
                self._txns.abort_transaction(stxn, source=tracing.RULE_MANAGER)
            raise
        finally:
            self._spans.finish_span(cspan)
            self._spans.finish_span(fspan)

    def _launch_separate_action(self, rule: Rule, firing: RuleFiring,
                                outcome: ConditionOutcome,
                                signal: EventSignal) -> None:
        def body() -> None:
            with self._suppression():
                self._separate_action_body(rule, firing, outcome, signal)

        self._spawn(body, rule.name, deadline=rule.deadline)

    def _separate_action_body(self, rule: Rule, firing: RuleFiring,
                              outcome: ConditionOutcome,
                              signal: EventSignal) -> None:
        atxn = self._txns.create_transaction(source=tracing.RULE_MANAGER,
                                             label="sep-act:%s" % rule.name,
                                             internal=True)
        firing.action_txn = atxn.txn_id
        firing.separate_thread = True
        aspan = None
        if self._spans.enabled:
            aspan = self._spans.start_span(
                "act:%s" % rule.name, kind="action", parent=firing.span,
                rule=rule.name, coupling=SEPARATE, txn=atxn.txn_id)
        hist = self._action_seconds[SEPARATE]
        timed = hist.should_sample()
        start = _time.perf_counter() if timed else 0.0
        try:
            ctx = ActionContext(
                object_manager=self._om, txn=atxn, signal=signal,
                bindings=outcome.bindings, results=outcome.results,
                applications=self.applications, rule=rule,
                signal_external=self._signal_external)
            self._run_action(rule, firing, signal, ctx)
            self._txns.commit_transaction(atxn, source=tracing.RULE_MANAGER)
            firing.executed = True
            self.stats["actions_executed"] += 1
        except TransactionAborted as exc:
            firing.error = str(exc)
            self._note_firing_error()
            if not atxn.is_finished():
                self._txns.abort_transaction(atxn, source=tracing.RULE_MANAGER)
        except Exception as exc:
            firing.error = str(exc)
            self._note_firing_error()
            self.background_errors.append((rule.name, str(exc)))
            if not atxn.is_finished():
                self._txns.abort_transaction(atxn, source=tracing.RULE_MANAGER)
        finally:
            if timed:
                elapsed = _time.perf_counter() - start
                hist.observe(elapsed)
                if elapsed >= self._slow_log.threshold:
                    self._slow_log.note("rule-action", rule.name, elapsed,
                                        coupling=SEPARATE,
                                        txn=atxn.txn_id)
            self._spans.finish_span(aspan)

    def _spawn(self, body: Callable[[], None], label: str,
               deadline: Optional[float] = None) -> None:
        self.stats["separate_spawned"] += 1
        executor = self.config.deadline_executor
        if executor is not None:
            # Deadline-aware dispatch: most urgent separate work first.
            absolute = (self._clock.now() + deadline if deadline is not None
                        else float("inf"))
            executor.submit(absolute, body)
            return

        def runner() -> None:
            try:
                body()
            finally:
                with self._threads_cv:
                    self._threads.discard(threading.current_thread())
                    self._threads_cv.notify_all()

        thread = threading.Thread(target=runner, daemon=True,
                                  name="hipac-sep-%s" % label)
        with self._threads_cv:
            self._threads.add(thread)
        thread.start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until all separate-coupling threads have finished.

        Returns True on quiescence, False on timeout.  Used by tests,
        benchmarks, and applications that need a consistent post-firing
        view."""
        import time
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.config.drain_timeout)
        with self._threads_cv:
            while self._threads:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._threads_cv.wait(timeout=remaining)
        executor = self.config.deadline_executor
        if executor is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            return executor.drain(timeout=remaining)
        return True

    # ========================================================== §6.3 commit

    def _process_deferred(self, txn: Transaction) -> None:
        """Process the deferred rule firings of a committing transaction.

        "This set is divided into two subsets according to whether it was
        the condition or action that was deferred.  For each of the former,
        the Rule Manager calls on the Condition Evaluator to evaluate the
        rule's condition.  For the latter, the Rule Manager simply executes
        the action."  Deferred work may queue further deferred work (e.g.
        deferred C-A after a deferred condition); rounds repeat until the
        set drains."""
        if not txn.has_deferred_work():
            return
        bspan = None
        if self._spans.enabled:
            bspan = self._spans.start_span("deferred:%s" % txn.txn_id,
                                           kind="deferred_batch",
                                           txn=txn.txn_id)
        try:
            # Commit-time cascade scope: the triggering commit was already
            # journalled as a stimulus; everything below is re-derived by
            # replay, so stimulus capture is suppressed throughout.
            with self._suppression():
                rounds = 0
                while txn.has_deferred_work():
                    rounds += 1
                    if rounds > self.config.max_deferred_rounds:
                        raise RuleError(
                            "deferred rule firings did not quiesce after"
                            " %d rounds" % self.config.max_deferred_rounds)
                    conditions = txn.deferred_conditions
                    txn.deferred_conditions = []
                    actions = txn.deferred_actions
                    txn.deferred_actions = []
                    if self._metrics.enabled:
                        self._deferred_batch.observe(len(conditions)
                                                     + len(actions))
                    # Deferred-queue blowup detector (§6.3): the commit that
                    # drains an oversized queue is where the latency lands.
                    self._watchdog.note_deferred_depth(len(conditions)
                                                       + len(actions))
                    memo: Memo = {}
                    satisfied: List[Tuple[Rule, RuleFiring, ConditionOutcome,
                                          EventSignal]] = []
                    for rule, signal in conditions:
                        if not rule.enabled:
                            continue
                        firing, outcome = self._evaluate_condition(
                            rule, signal, txn, memo, DEFERRED)
                        if outcome.satisfied:
                            satisfied.append((rule, firing, outcome, signal))
                    for rule, firing, outcome, signal in satisfied:
                        self._route_action(rule, firing, outcome, signal, txn)
                    for rule, signal, outcome, firing in actions:
                        self._execute_action(rule, firing, outcome, signal, txn)
        finally:
            self._spans.finish_span(bspan)
