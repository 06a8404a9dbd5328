"""Per-layer ledger for a traced pass, recorded from the benchmark's side.

:class:`LayerTracer` replaces the public methods of each component instance
with timing wrappers.  A call stack on the driver thread turns wrapper
durations into self time (a layer's time minus the wrapped calls nested in
it), and ``gc.callbacks`` books collector pauses to the ``gc`` layer.  Every
wrapped call is kept as a span (name, start, end, parent, stimulus id) in
memory and written out at the end.  Calls on other threads (timeseries
ticker, journal sync) only add their duration to :attr:`background_ns`.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

#: (layer, instance label, instance, public method names)
Component = Tuple[str, str, Any, Tuple[str, ...]]


def engine_components(db: Any) -> List[Component]:
    """The Figure 5.1 components of one engine, plus its storage and
    observability sinks, as (layer, label, instance, public methods)."""
    rm, om = db.rule_manager, db.object_manager
    detector = ("observe", "report", "report_batch")
    out: List[Component] = [
        ("txn", "txn_manager", db.transaction_manager,
         ("create_transaction", "commit_transaction", "abort_transaction")),
        ("txn", "locks", db.locks,
         ("acquire", "try_acquire", "release_all", "inherit_to_parent")),
        ("rules", "rule_manager", rm,
         ("signal_event", "signal_event_batch", "transaction_event")),
        ("events", "db_detector", om.event_detector, ("relevant",) + detector),
        ("events", "txn_detector", rm.txn_detector, detector),
        ("events", "external_detector", db.external_detector,
         ("signal", "report", "report_batch")),
        ("conditions", "evaluator", db.condition_evaluator, ("evaluate",)),
        ("conditions", "graph", db.condition_evaluator.graph, ("on_delta",)),
        ("objstore", "object_manager", om,
         ("execute_operation", "create", "update", "delete", "read",
          "execute_query")),
        ("apps", "registry", db.applications, ("request",)),
    ]
    if db.provenance is not None:
        out.append(("obs.provenance", "provenance", db.provenance,
                    ("note_delta", "publish", "on_abort", "firing_scope")))
    if db.wal is not None:
        out.append(("recovery", "wal", db.wal,
                    ("append", "log_begin", "log_commit", "log_abort",
                     "log_delta", "force")))
        # the segment writer is the shared storage engine under the log
        out.append(("storage", "wal_writer", db.wal._writer,
                    ("append", "flush", "sync")))
    if db.flight_recorder is not None:
        out.append(("obs.flightrec", "recorder", db.flight_recorder,
                    ("record", "record_txn_begin", "record_txn_commit",
                     "record_txn_abort", "record_operation", "record_signal",
                     "record_firing")))
        out.append(("storage", "journal_writer", db.flight_recorder._writer,
                    ("append", "flush", "sync")))
    for inst in db.metrics.instruments():
        names = tuple(n for n in ("inc", "set", "dec", "observe", "should_sample")
                      if hasattr(inst, n))
        out.append(("obs.metrics", "instrument", inst, names))
    return out


class LayerTracer:
    """Wraps component methods and books self time per layer.

    Wrappers record only while :attr:`on` is true and only on the driver
    thread, so the driver's own bookkeeping between stimuli stays out of
    the ledger.
    """

    def __init__(self) -> None:
        self.on = False
        #: self time per layer and per "layer:instance.method" key
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.method_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.method_calls: Dict[str, int] = defaultdict(int)
        #: time in wrapped calls made on other threads (journal sync)
        self.background_ns: Dict[str, int] = defaultdict(int)
        #: signals delivered through signal_event_batch
        self.batch_items = 0
        self.gc_pauses_ns: List[int] = []
        self.gc_gen2 = 0
        #: wrapped time outside any wrapper, plus GC pauses outside them
        self.top_ns = 0
        self.stimulus = 0
        self.spans: List[Optional[Tuple[int, int, int, int, int]]] = []
        self.span_names: List[str] = []
        self._stack: List[List[int]] = []  # [nested ns, span index]
        self._driver = threading.get_ident()
        self._undo: List[Tuple[Any, Any, Any]] = []
        self._gc_start = 0

    # ------------------------------------------------------------ install

    def install(self, db: Any, components: List[Component]) -> None:
        """Wrap every listed method, then re-point the bound methods the
        engine captured at wiring time so no call bypasses its wrapper."""
        for layer, label, obj, names in components:
            for name in names:
                self._wrap(layer, label, obj, name)
        rm, om = db.rule_manager, db.object_manager
        for detector in (om.event_detector, rm.txn_detector,
                         db.temporal_detector, db.external_detector,
                         db.composite_detector):
            self._repoint(detector, "sink", rm.signal_event)
            self._repoint(detector, "sink_batch", rm.signal_event_batch)
        self._repoint(db.transaction_manager, "event_sink", rm.transaction_event)
        graph = db.condition_evaluator.graph
        listeners = om._delta_listeners
        for i, listener in enumerate(listeners):
            if getattr(listener, "__self__", None) is graph:
                self._undo.append((listeners, i, listener))
                listeners[i] = graph.on_delta
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for obj, name, old in reversed(self._undo):
            if isinstance(obj, list):
                obj[name] = old
            elif old is None:
                delattr(obj, name)
            else:
                setattr(obj, name, old)
        self._undo.clear()

    def _repoint(self, obj: Any, attr: str, target: Any) -> None:
        current = getattr(obj, attr, None)
        if current is not None:
            self._undo.append((obj, attr, current))
            setattr(obj, attr, target)

    def _wrap(self, layer: str, label: str, obj: Any, name: str) -> None:
        key = "%s:%s.%s" % (layer, label, name)
        try:
            setattr(obj, name, self._timed(layer, key, getattr(obj, name)))
            self._undo.append((obj, name, None))
        except AttributeError:
            # a __slots__ instance (metrics instruments): move it to a
            # subclass of its own class whose method is wrapped
            base = type(obj)
            ns = {"__slots__": (), name: self._timed(layer, key, getattr(base, name))}
            self._undo.append((obj, "__class__", base))
            obj.__class__ = type(base.__name__, (base,), ns)

    def _timed(self, layer: str, key: str, orig: Any) -> Any:
        name_id = len(self.span_names)
        self.span_names.append(key)
        tracer, stack, spans = self, self._stack, self.spans
        self_ns, method_ns = self.self_ns, self.method_ns
        calls, method_calls = self.calls, self.method_calls
        background_ns = self.background_ns
        driver, get_ident = self._driver, threading.get_ident
        clock = time.perf_counter_ns
        batch = key.endswith(".signal_event_batch")

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return orig(*args, **kwargs)
            if get_ident() != driver:
                start = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    background_ns[key] += clock() - start
            index = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else -1
            frame = [0, index]
            stack.append(frame)
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spent = end - start
                own = spent - frame[0]
                self_ns[layer] += own
                method_ns[key] += own
                calls[layer] += 1
                method_calls[key] += 1
                if stack:
                    stack[-1][0] += spent
                else:
                    tracer.top_ns += spent
                if batch:
                    tracer.batch_items += len(args[0])
                spans[index] = (name_id, start, end, parent, tracer.stimulus)

        return wrapper

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if not self.on or threading.get_ident() != self._driver:
            return
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        pause = time.perf_counter_ns() - self._gc_start
        self.gc_pauses_ns.append(pause)
        if info["generation"] == 2:
            self.gc_gen2 += 1
        # a pause inside a wrapped call is not that layer's self time
        if self._stack:
            self._stack[-1][0] += pause
        else:
            self.top_ns += pause

    def write_spans(self, path: str) -> None:
        """Write ``{"names": [...], "spans": [[name, start_ns, end_ns,
        parent, stimulus], ...]}``; ``name`` indexes ``names`` and
        ``parent`` indexes ``spans`` (-1 for a top-level call)."""
        with open(path, "w") as fh:
            json.dump({"names": self.span_names, "spans": self.spans}, fh)
