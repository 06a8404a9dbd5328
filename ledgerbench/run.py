"""Per-stimulus benchmark of the HiPAC engine, end to end and layer by layer.

Run from the repository root:

    python3 ledgerbench/run.py --workload saa_quotes --seed 1 --seconds 10 --trace 0

``--trace 0`` times the untraced engine and reports the end-to-end metrics;
``--trace 1`` runs a fixed number of cycles untraced and then traced on a
fresh rig and reports the per-layer ledger.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``ledgerbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".ledgerbench")

#: set-up timings per batch: at least SETUP_RIGS rigs and SETUP_SECONDS of
#: building, at most SETUP_MAX_RIGS; one batch before warm-up and one after
#: the timed window, so the median spans the run
SETUP_RIGS = 3
SETUP_SECONDS = 0.5
SETUP_MAX_RIGS = 20
#: p99 is taken per slice of whole cycles holding at least this many
#: stimuli (so each has ten samples beyond it), and the median reported
P99_SLICE = 1000
#: reopenings of the twin's closed log, at the start and again at the end
RECOVERIES = 5
#: a warm-up that has not filled its bounded histories by now is a failure
MAX_WARM_CYCLES = 80

#: per-layer counts, as stats() section and key
COUNTS: Dict[str, Tuple[str, str]] = {
    "txn.created": ("transactions", "created"),
    "txn.top_level": ("transactions", "top_level_committed"),
    "txn.lock_acquires": ("locks", "acquired"),
    "txn.lock_waits": ("locks", "waited"),
    "rules.signals": ("rules", "signals"),
    "rules.triggered": ("rules", "triggered"),
    "rules.conditions_evaluated": ("rules", "conditions_evaluated"),
    "rules.actions_executed": ("rules", "actions_executed"),
    "rules.deferred_queued": ("rules", "deferred_queued"),
    "rules.firing_errors": ("rules", "firing_errors"),
    "events.db_reported": ("events", "database_reported"),
    "events.index_hits": ("events", "database_index_hits"),
    "events.index_misses": ("events", "database_index_misses"),
    "events.txn_fast_path": ("events", "transaction_fast_path"),
    "events.external_reported": ("events", "external_reported"),
    "conditions.evaluations": ("conditions", "evaluations"),
    "conditions.graph_answers": ("conditions", "graph_answers"),
    "conditions.memo_hits": ("conditions", "memo_hits"),
    "objstore.operations": ("objects", "operations"),
    "objstore.queries": ("objects", "queries"),
    "objstore.reads": ("objects", "reads"),
    "objstore.signals_skipped": ("objects", "signals_skipped"),
    "recovery.wal_records": ("storage", "wal_records"),
    "recovery.wal_bytes": ("storage", "wal_bytes"),
    "storage.wal_fsyncs": ("storage", "wal_fsyncs"),
    "storage.journal_fsyncs": ("storage", "journal_fsyncs"),
    "storage.group_leads": ("storage", "wal_group_leads"),
    "storage.batched_records": ("storage", "wal_batched_records"),
    "storage.journal_records": ("storage", "journal_records"),
    "storage.journal_bytes": ("storage", "journal_bytes"),
    "obs.provenance.published": ("provenance", "published"),
    "obs.provenance.evicted": ("provenance", "evicted"),
    "obs.timeseries.ticks": ("timeseries", "ticks"),
    "apps.requests": ("applications", "requests"),
}
#: counts that vary with time or with the width of growing ids, so they
#: are left out of the every-cycle-repeats check
NOT_CYCLIC = {"recovery.wal_bytes", "storage.journal_bytes",
              "storage.journal_fsyncs", "obs.timeseries.ticks"}

#: wrapped-method call counts that must equal a stats() delta
COMPLETENESS: List[Tuple[str, str]] = [
    ("txn:txn_manager.create_transaction", "txn.created"),
    ("conditions:evaluator.evaluate", "conditions.evaluations"),
    ("objstore:object_manager.execute_operation", "objstore.operations"),
    ("objstore:object_manager.execute_query", "objstore.queries"),
    ("apps:registry.request", "apps.requests"),
    ("storage:wal_writer.append", "recovery.wal_records"),
    ("storage:journal_writer.append", "storage.journal_records"),
]

LAYER_TIMES = ("txn", "rules", "events", "conditions", "objstore", "recovery",
               "storage", "obs.provenance", "obs.flightrec", "obs.metrics",
               "apps")


def counts_of(stats: Dict[str, Dict[str, Any]]) -> Dict[str, int]:
    return {name: stats[sec].get(key, 0) for name, (sec, key) in COUNTS.items()}


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Pass:
    """Timings of the stimuli of one pass, normalised by :meth:`finish`."""

    def __init__(self) -> None:
        #: per cycle: (reading index before the block, raw latencies, wall,
        #: cpu) of each block
        self.cycles: List[List[Tuple[int, List[float], float, float]]] = []
        self.deltas: List[Dict[str, int]] = []
        #: normalised: per cycle latencies, wall and cpu seconds
        self.latencies: List[List[float]] = []
        self.wall: List[float] = []
        self.cpu: List[float] = []
        self.raw = 0.0
        self.factor = 1.0

    def finish(self, ref: Any) -> "Pass":
        factors = []
        for blocks in self.cycles:
            latencies, wall, cpu = [], 0.0, 0.0
            for index, raw, block_wall, block_cpu in blocks:
                factor = ref.factor(index)
                factors.append(factor)
                latencies.extend(x * factor for x in raw)
                wall += block_wall * factor
                cpu += block_cpu * factor
                self.raw += sum(raw)
            self.latencies.append(latencies)
            self.wall.append(wall)
            self.cpu.append(cpu)
        self.factor = statistics.median(factors)
        return self

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.latencies)

    def pooled(self) -> List[float]:
        return [x for c in self.latencies for x in c]

    def p99(self) -> Tuple[float, int]:
        """Median p99 over slices of whole cycles of at least P99_SLICE
        stimuli; returns it with the number of slices."""
        slices, current = [], []
        for latencies in self.latencies:
            current.extend(latencies)
            if len(current) >= P99_SLICE:
                slices.append(quantile(current, 0.99))
                current = []
        if not slices:
            slices.append(quantile(current, 0.99))
        return statistics.median(slices), len(slices)

    def per_cycle(self, seconds: List[float]) -> float:
        """Median over cycles of normalised seconds per stimulus."""
        return statistics.median(s / len(c) for s, c in zip(seconds, self.latencies))

    def totals(self) -> Dict[str, int]:
        return {k: sum(d[k] for d in self.deltas) for k in COUNTS}


class Bench:
    def __init__(self, name: str, seed: int, work: str) -> None:
        from reference import Reference
        from rigs import WORKLOADS
        self.name = name
        self.wl = WORKLOADS[name]
        self.inputs = self.wl.make_inputs(seed)
        self.ref = Reference()
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: count deltas over the durable twin's logged stimuli
        self.twin_counts: Dict[str, int] = {}
        self._dirs = 0

    # ------------------------------------------------------------ helpers

    def new_dir(self) -> str:
        self._dirs += 1
        return os.path.join(self.work, "d%d" % self._dirs)

    def build(self, durable: Optional[bool] = None) -> Any:
        if durable is None:
            durable = self.wl.durable
        return self.wl.rig(self.inputs, self.new_dir() if durable else None)

    @staticmethod
    def flush(db: Any) -> None:
        """Push the journal's buffered records out, so byte counts are
        exact at a cycle boundary."""
        if db.flight_recorder is not None:
            db.flight_recorder.flush()

    def call(self, target: Any, name: str, args: tuple) -> None:
        try:
            getattr(target, name)(*args)
        except Exception as exc:  # a failed stimulus is counted, not fatal
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append("stimulus failed: %r" % (exc,))

    def run_cycle(self, rig: Any, record: Optional[Pass],
                  tracer: Any = None) -> Dict[str, int]:
        """One input cycle in blocks of stimuli, a reference reading after
        each block; returns the cycle's stats() count deltas."""
        cycle, block, clock, cpu_clock = (rig.cycle, self.wl.block,
                                          time.perf_counter, time.process_time)
        self.flush(rig.db)
        before = counts_of(rig.db.stats())
        self.ref.read()
        blocks = []
        for k in range(0, len(cycle), block):
            index = len(self.ref.readings) - 1
            latencies = []
            if tracer is not None:
                tracer.on = True
            cpu0, wall0 = cpu_clock(), clock()
            for i, (target, name, args) in enumerate(cycle[k:k + block]):
                if tracer is not None:
                    tracer.stimulus = self.attempted + k + i
                start = clock()
                self.call(target, name, args)
                latencies.append(clock() - start)
            wall, cpu = clock() - wall0, cpu_clock() - cpu0
            if tracer is not None:
                tracer.on = False
            self.ref.read()
            blocks.append((index, latencies, wall, cpu))
        self.attempted += len(cycle)
        self.flush(rig.db)
        after = counts_of(rig.db.stats())
        delta = {k: after[k] - before[k] for k in COUNTS}
        self.failed += delta["rules.firing_errors"]
        self.errors += rig.check_cycle()
        for name, want in rig.cycle_counts().items():
            if delta[name] != want:
                self.errors.append("cycle %s: %d, expected %d"
                                   % (name, delta[name], want))
        if record is not None:
            record.cycles.append(blocks)
            record.deltas.append(delta)
        return delta

    def warm(self, rig: Any) -> int:
        """Run whole cycles until the workload's bounded histories are full
        and evicting.  A durable rig then takes a checkpoint, so the timed
        window starts with a short log (none are taken while timing)."""
        from rigs import warmed
        cycles = 0
        while not warmed(rig.db.stats()):
            if cycles >= MAX_WARM_CYCLES:
                self.errors.append("warm-up did not fill the bounded histories")
                break
            self.run_cycle(rig, None)
            cycles += 1
        if rig.db.wal is not None and not rig.db.checkpoint():
            self.errors.append("post-warm-up checkpoint was skipped")
        return cycles

    def check_cyclic(self, deltas: List[Dict[str, int]], what: str) -> None:
        for i, delta in enumerate(deltas[1:], 1):
            moved = [k for k in COUNTS if k not in NOT_CYCLIC
                     and delta[k] != deltas[0][k]]
            if moved:
                self.errors.append("%s: cycle %d counts differ from cycle 0 "
                                   "(%s)" % (what, i, ", ".join(moved)))
                return

    def log_twin(self) -> Tuple[str, Tuple[str, ...], Any]:
        """Build the durable twin, log the first ``log_stimuli`` stimuli of
        the cycle and close it; returns its data dir, its classes and a
        snapshot of its store."""
        from rigs import snapshot
        rig = self.build(durable=True)
        stimuli = rig.cycle[:self.wl.log_stimuli]
        self.flush(rig.db)
        before = counts_of(rig.db.stats())
        for stimulus in stimuli:
            self.call(*stimulus)
        self.attempted += len(stimuli)
        self.flush(rig.db)
        after = counts_of(rig.db.stats())
        self.twin_counts = {k: after[k] - before[k] for k in COUNTS}
        twin = (str(rig.db.wal.data_dir), rig.classes,
                snapshot(rig.db, rig.classes))
        rig.db.close()
        return twin

    def recover(self, twin: Tuple[str, Tuple[str, ...], Any],
                times: List[float]) -> float:
        """Reopen a copy of the twin's closed data dir; append the
        normalised seconds to ``times`` and return the records replayed
        per logged stimulus."""
        from rigs import open_db, snapshot
        data_dir, classes, live = twin
        copy = self.new_dir()
        shutil.copytree(data_dir, copy)
        library = self.wl.rig.rule_library(self.inputs)
        gc.collect()
        db, seconds = self.ref.timed(open_db, copy, self.wl.rig.capacities,
                                      library)
        times.append(seconds)
        replayed = db.stats()["recovery"]["replayed_records"]
        if snapshot(db, classes) != live:
            self.errors.append("recovered store differs from the live store")
        db.close()
        shutil.rmtree(copy)
        return replayed / self.wl.log_stimuli

    def log_bytes(self) -> float:
        """WAL + journal bytes per stimulus in the twin's log."""
        return ((self.twin_counts["recovery.wal_bytes"]
                 + self.twin_counts["storage.journal_bytes"])
                / self.wl.log_stimuli)

    # ---------------------------------------------------------------- runs

    def setup_batch(self, setups: List[float]) -> Any:
        """Build and time rigs; close all but the last, which is returned."""
        rig, start = None, time.perf_counter()
        for i in range(SETUP_MAX_RIGS):
            if i >= SETUP_RIGS and time.perf_counter() - start >= SETUP_SECONDS:
                break
            if rig is not None:
                rig.db.close()
                rig = None
            gc.collect()
            rig, secs = self.ref.timed(self.build)
            setups.append(secs)
        return rig

    def timed_run(self, seconds: float) -> Dict[str, Any]:
        # one-off timings are split between the start and the end of the
        # run, each taken while no other rig is alive, so their medians
        # span the host's slow and fast phases
        twin, recoveries, setups = self.log_twin(), [], []
        for _ in range(RECOVERIES):
            self.recover(twin, recoveries)
        rig = self.setup_batch(setups)
        warm_cycles = self.warm(rig)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.collect()
        timed = Pass()
        deadline = time.perf_counter() + seconds
        while True:
            self.run_cycle(rig, timed)
            if time.perf_counter() >= deadline:
                break
        timed.finish(self.ref)
        self.errors += rig.check_final()
        self.check_cyclic(timed.deltas, "timed window")
        rig.db.close()
        del rig
        gc.collect()
        self.setup_batch(setups).db.close()
        for _ in range(RECOVERIES):
            self.recover(twin, recoveries)
        n = timed.n
        p99, slices = timed.p99()
        print("%s: %d timed stimuli in %d cycles after %d warm-up cycles; "
              "p99 is the median of %d slices of >= %d stimuli; %d set-up rigs"
              % (self.name, n, len(timed.deltas), warm_cycles, slices,
                 min(P99_SLICE, n), len(setups)))
        return {
            "setup_s": (statistics.median(setups), "s"),
            "stimulus_p50_us": (quantile(timed.pooled(), 0.50) * 1e6, "us"),
            "stimulus_p99_us": (p99 * 1e6, "us"),
            "stimuli_per_s": (1.0 / timed.per_cycle(timed.wall), "1/s"),
            "cpu_us_per_stimulus": (timed.per_cycle(timed.cpu) * 1e6, "us"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "log_bytes_per_stimulus": (self.log_bytes(), "B"),
            "recovery_s": (statistics.median(recoveries), "s"),
        }

    def traced_run(self) -> Dict[str, Any]:
        from tracer import LayerTracer, engine_components
        rig = self.build()
        self.warm(rig)
        gc.collect()
        untraced = Pass()
        for _ in range(self.wl.trace_cycles):
            self.run_cycle(rig, untraced)
        tracer = LayerTracer()
        tracer.install(rig.db, engine_components(rig.db) + rig.app_components())
        gc.collect()
        traced = Pass()
        try:
            for _ in range(self.wl.trace_cycles):
                self.run_cycle(rig, traced, tracer)
        finally:
            tracer.uninstall()
        untraced.finish(self.ref)
        traced.finish(self.ref)
        self.errors += rig.check_final()
        rig.db.close()
        del rig
        # records replayed per logged stimulus, on an untraced durable twin
        replayed = self.recover(self.log_twin(), []) if self.wl.durable else 0.0

        counts, plain = traced.totals(), untraced.totals()
        moved = [k for k in counts if k not in NOT_CYCLIC and counts[k] != plain[k]]
        if moved:
            self.errors.append("traced and untraced counts differ: %s"
                               % ", ".join(moved))
        self.check_cyclic(traced.deltas + untraced.deltas, "traced run")
        for key, name in COMPLETENESS:
            if key in tracer.method_calls or counts[name]:
                if tracer.method_calls.get(key, 0) != counts[name]:
                    self.errors.append("trace incomplete: %s called %d times, "
                                       "stats count %d"
                                       % (key, tracer.method_calls.get(key, 0),
                                          counts[name]))
        if tracer.batch_items != counts["rules.signals"]:
            self.errors.append("trace incomplete: %d batched signals, stats "
                               "count %d" % (tracer.batch_items,
                                             counts["rules.signals"]))

        n = traced.n
        # ns of the traced pass -> normalised us per stimulus
        factor = traced.factor
        scale = factor / 1e3 / n
        per = {k: v / n for k, v in counts.items()}
        out: Dict[str, Tuple[float, str]] = {}
        for layer in LAYER_TIMES:
            out[layer + ".self_us"] = (tracer.self_ns[layer] * scale, "us")
        for layer in ("txn", "rules", "events", "conditions", "objstore"):
            out[layer + ".calls"] = (tracer.calls[layer] / n, "count")
        for name in ("txn.created", "txn.top_level", "txn.lock_acquires",
                     "txn.lock_waits", "rules.triggered",
                     "rules.conditions_evaluated", "rules.actions_executed",
                     "rules.deferred_queued", "rules.firing_errors",
                     "events.db_reported", "events.txn_fast_path",
                     "events.external_reported", "conditions.evaluations",
                     "conditions.graph_answers", "objstore.operations",
                     "objstore.queries", "objstore.reads",
                     "objstore.signals_skipped", "obs.provenance.published",
                     "obs.provenance.evicted", "obs.timeseries.ticks",
                     "apps.requests"):
            out[name] = (per[name], "count")
        def ratio(part: int, whole: int) -> Tuple[float, str]:
            return part / max(1, whole), "ratio"

        out["rules.fire_ratio"] = ratio(counts["rules.actions_executed"],
                                        counts["rules.conditions_evaluated"])
        out["events.index_hit_ratio"] = ratio(
            counts["events.index_hits"],
            counts["events.index_hits"] + counts["events.index_misses"])
        out["conditions.memo_hit_ratio"] = ratio(counts["conditions.memo_hits"],
                                                 counts["conditions.evaluations"])
        for name in ("recovery.wal_records", "storage.journal_records"):
            out[name] = (per[name], "count")
        out["storage.fsyncs"] = (
            per["storage.wal_fsyncs"] + per["storage.journal_fsyncs"], "count")
        out["recovery.wal_bytes"] = (per["recovery.wal_bytes"], "B")
        out["recovery.replayed_records"] = (replayed, "count")
        # fsyncs run at commit (driver thread) or on the journal's interval
        # thread; both are booked
        syncs = ("storage:wal_writer.sync", "storage:journal_writer.sync")
        out["storage.fsync_us"] = (
            sum(ns[key] for ns in (tracer.method_ns, tracer.background_ns)
                for key in syncs) * scale, "us")
        out["storage.group_batch"] = (counts["storage.batched_records"]
                                      / max(1, counts["storage.group_leads"]), "count")
        out["obs.flightrec.records"] = (
            sum(v for key, v in tracer.method_calls.items()
                if key.startswith("obs.flightrec:")) / n, "count")
        pauses = tracer.gc_pauses_ns
        out["gc.pause_us"] = (sum(pauses) * scale, "us")
        out["gc.gen2_per_1k"] = (tracer.gc_gen2 * 1000.0 / n, "count")
        out["gc.max_pause_us"] = (max(pauses, default=0) * factor / 1e3, "us")
        out["driver.self_us"] = ((traced.raw * 1e9 - tracer.top_ns) * scale, "us")
        out["trace.overhead_ratio"] = (
            (sum(traced.pooled()) / n) / (sum(untraced.pooled()) / untraced.n), "ratio")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s.json" % self.name)
        tracer.write_spans(path)
        print("%s: traced %d stimuli (%d spans, written to %s); untraced %d"
              % (self.name, n, len(tracer.spans), os.path.relpath(path, ROOT),
                 untraced.n))
        return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # one dict layout for every run: string hashing is randomised per
        # process otherwise, which moves timings between runs
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print("cannot import the engine from %s/src: %s" % (ROOT, exc),
              file=sys.stderr)
        return 2
    from rigs import WORKLOADS
    if args.workload not in WORKLOADS:
        print("unknown workload %r (have: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    work = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(work)
    try:
        bench = Bench(args.workload, args.seed, work)
        if bench.ref.allocates():
            bench.errors.append("reference loop allocates GC-tracked objects")
        if args.trace:
            metrics = bench.traced_run()
        else:
            metrics = bench.timed_run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(bench.ref.summary())
    for error in bench.errors:
        print("check failed: %s" % error)
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
