"""The benchmark's rigs: engine + schema + population + rules + programs.

Each workload turns ``--seed`` into one input cycle before anything is
timed; the engine only ever receives those inputs.  Cycles repeat, and the
state the engine's rules depend on returns to the same shape at every cycle
boundary, so per-cycle counts repeat exactly once the bounded histories are
full.  Every oracle here computes its expectation from the inputs alone.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import HiPAC
from repro.conditions.condition import Condition
from repro.events.spec import on_update
from repro.objstore.predicates import And, Attr, Compare, Const, EventArg
from repro.objstore.query import Query
from repro.objstore.types import AttrType, AttributeDef, ClassDef
from repro.rules.actions import Action, CallStep
from repro.rules.coupling import DEFERRED, IMMEDIATE
from repro.rules.rule import Rule
from repro.saa import SecuritiesAssistant
from repro.saa.programs import POSITION_CLASS, STOCK_CLASS, TRADE_CLASS

#: (program, method name, arguments): the method is looked up per call, so
#: a traced run's wrapper on the program instance sees every stimulus
Stimulus = Tuple[Any, str, tuple]


def open_db(data_dir: Optional[str], capacities: Dict[str, int],
            rule_library: Optional[Dict[str, Rule]] = None) -> HiPAC:
    """The default engine, or the durable one: a WAL whose records reach
    the OS at every top-level commit, plus the flight recorder on its
    default 100 ms background-fsync interval.  The WAL does not fsync at
    commit: on a shared virtual disk that latency swings by more than half
    between runs and would swamp every engine-side change.  Opening a data
    dir that holds a log recovers it, rebinding rules from
    ``rule_library``.  ``capacities`` sizes the engine's bounded histories
    (firing log, provenance store) so that warm-up fills them all."""
    if data_dir is None:
        return HiPAC(**capacities)
    return HiPAC(durability="wal", data_dir=data_dir, wal_fsync=False,
                 flight_recorder=True, rule_library=rule_library, **capacities)


def snapshot(db: HiPAC, classes: Tuple[str, ...]) -> Dict[str, List[tuple]]:
    """Every object of ``classes`` as sorted (oid, attrs) rows."""
    out = {}
    with db.transaction() as txn:
        for cls in classes:
            out[cls] = sorted((str(row.oid), tuple(sorted(row.attrs.items())))
                              for row in db.query(Query(cls), txn))
    return out


# ====================================================================== SAA

SAA_SYMBOLS = 8
SAA_RULES_PER_SYMBOL = 4
SAA_CLIENTS = 4
SAA_CYCLE = 256
#: one quote in CROSS_EVERY crosses at least one trading limit
SAA_CROSS_EVERY = 8


@dataclass
class SaaInputs:
    symbols: List[str]
    #: (client, symbol, shares, limit) per standing trading rule
    rules: List[Tuple[str, str, int, float]]
    quotes: List[Tuple[str, float]]
    initial: Dict[str, float]


def saa_inputs(seed: int) -> SaaInputs:
    rng = random.Random(seed)
    symbols = ["SYM%02d" % i for i in range(SAA_SYMBOLS)]
    base = {s: round(rng.uniform(40.0, 160.0), 2) for s in symbols}
    rules = [("client-%d" % ((i + k) % SAA_CLIENTS), s, 100 * (k + 1),
              round(base[s] + k + 1.0, 2))
             for i, s in enumerate(symbols)
             for k in range(SAA_RULES_PER_SYMBOL)]
    initial = {s: round(base[s] - 10.0, 2) for s in symbols}
    while True:
        # crossing quote -> how many of its symbol's limits it crosses;
        # equal numbers cross 1, 2, 3 and 4, so every seed trades as often
        spots = rng.sample(range(SAA_CYCLE), SAA_CYCLE // SAA_CROSS_EVERY)
        crossing = {j: 1 + i % SAA_RULES_PER_SYMBOL for i, j in enumerate(spots)}
        last = dict(initial)
        quotes = []
        for j in range(SAA_CYCLE):
            s = rng.choice(symbols)
            while True:
                if j in crossing:
                    price = round(base[s] + crossing[j] + rng.uniform(0.0, 0.99), 2)
                else:
                    price = round(base[s] - rng.uniform(0.01, 5.0), 2)
                if price != last[s]:
                    break
            last[s] = price
            quotes.append((s, price))
        # every quote must change its stock's price, across the cycle
        # boundary too; otherwise draw the cycle again
        firsts: Dict[str, float] = {}
        for s, price in quotes:
            firsts.setdefault(s, price)
        if all(firsts[s] != last[s] for s in firsts):
            return SaaInputs(symbols, rules, quotes, initial)


def saa_programs(db: HiPAC, inputs: SaaInputs, install: bool) -> tuple:
    """The assistant with its ticker, display and trader, and the standing
    trading rules (``one_shot=False``); with ``install=False`` the rules
    are only collected in the assistant's ``rule_library``.  Returns
    (assistant, ticker, display, trader)."""
    saa = SecuritiesAssistant(db, coupling=IMMEDIATE, install=install)
    programs = (saa.add_ticker("NYSE"), saa.add_display("analyst"),
                saa.add_trader("TRADESVC"))
    for client, s, shares, limit in inputs.rules:
        saa.add_trading_rule(client=client, symbol=s, shares=shares,
                             limit=limit, service="TRADESVC", one_shot=False)
    return (saa,) + programs


class SaaRig:
    """The §4.2 SAA: a ticker, a display, a trader, standing trading rules
    (``one_shot=False``) and immediate E-C coupling, so all rule work runs
    on the call path of the quote that triggered it."""

    classes = (STOCK_CLASS, TRADE_CLASS, POSITION_CLASS)

    #: the 100k firing log fills in about 12 cycles; the provenance store
    #: (default 50k) is cut to fill in about as many, as each cycle adds
    #: ~560 entries under new keys (its trades, their deletion)
    capacities = {"provenance_capacity": 5000}

    def __init__(self, inputs: SaaInputs, data_dir: Optional[str]) -> None:
        self.inputs = inputs
        self.db = db = open_db(data_dir, self.capacities)
        self.saa, self.ticker, self.display, self.trader = saa_programs(
            db, inputs, install=True)
        with db.transaction() as txn:
            for s in inputs.symbols:
                db.create(STOCK_CLASS, {"symbol": s, "price": inputs.initial[s],
                                        "source": "NYSE"}, txn)
            for client, s, _, _ in inputs.rules:
                db.create(POSITION_CLASS, {"client": client, "symbol": s,
                                           "shares": 0}, txn)
        self.cycle: List[Stimulus] = [(self.ticker, "push_quote", q)
                                      for q in inputs.quotes]
        self.cycles_done = 0
        # expected outputs of one cycle, from the inputs alone
        self.trades: List[tuple] = []
        self.shares_per_cycle: Counter = Counter()
        for s, price in inputs.quotes:
            for client, rs, shares, limit in inputs.rules:
                if rs == s and price >= limit:
                    self.trades.append((s, shares, price, client))
                    self.shares_per_cycle[(client, s)] += shares
        self.last_price = dict(inputs.initial)
        self.last_price.update(inputs.quotes)
        self._trades_before = 0

    @staticmethod
    def rule_library(inputs: SaaInputs) -> Dict[str, Rule]:
        """The rules again, built over a throwaway engine, for recovery."""
        lib_db = HiPAC(observability=False)
        saa = saa_programs(lib_db, inputs, install=False)[0]
        lib_db.close()
        return saa.rule_library

    def cycle_counts(self) -> Dict[str, int]:
        n, t = len(self.cycle), len(self.trades)
        # per quote: the ticker-window rule plus every trading rule; per
        # trade: its trade-display rule
        return {"rules.conditions_evaluated": n * (1 + len(self.inputs.rules)) + t,
                "rules.actions_executed": n + 2 * t,
                "apps.requests": n + 2 * t,
                "rules.firing_errors": 0}

    def check_cycle(self) -> List[str]:
        """Check the display's windows, the trade records and the stored
        prices after one cycle, then scroll the windows clear and delete
        the cycle's trade records, so the store is the same at every cycle
        boundary."""
        self.cycles_done += 1
        errors = []
        window = [(e.symbol, e.price) for e in self.display.ticker_window]
        if window != self.inputs.quotes:
            errors.append("ticker window: %d entries, expected %d"
                          % (len(window), len(self.inputs.quotes)))
        shown = sorted((t["symbol"], t["shares"], t["price"], t["client"])
                       for t in self.display.trade_log)
        if shown != sorted(self.trades):
            errors.append("trade log: %d trades, expected %d"
                          % (len(shown), len(self.trades)))
        executed = self.trader.stats["trades"] - self._trades_before
        if executed != len(self.trades):
            errors.append("trader executed %d, expected %d"
                          % (executed, len(self.trades)))
        self._trades_before = self.trader.stats["trades"]
        self.display.ticker_window.clear()
        self.display.trade_log.clear()
        self.display.portfolio_view.clear()
        snap = snapshot(self.db, (STOCK_CLASS, TRADE_CLASS))
        stored = {dict(a)["symbol"]: dict(a)["price"] for _, a in snap[STOCK_CLASS]}
        if stored != self.last_price:
            errors.append("stored prices differ from the cycle's last quotes")
        records = sorted((a["symbol"], a["shares"], a["price"], a["client"])
                         for a in (dict(r) for _, r in snap[TRADE_CLASS]))
        if records != sorted(self.trades):
            errors.append("%d trade records, expected %d"
                          % (len(records), len(self.trades)))
        with self.db.transaction() as txn:
            for row in self.db.query(Query(TRADE_CLASS), txn):
                self.db.delete(row.oid, txn)
        return errors

    def check_final(self) -> List[str]:
        """Positions after every completed cycle."""
        snap = snapshot(self.db, (POSITION_CLASS,))
        held = {(a["client"], a["symbol"]): a["shares"]
                for a in (dict(r) for _, r in snap[POSITION_CLASS])}
        want = {key: 0 for key in held}
        for key, shares in self.shares_per_cycle.items():
            want[key] = shares * self.cycles_done
        if held != want:
            return ["positions differ from the trades implied by the quotes"]
        return []

    def app_components(self) -> List[Tuple[str, str, Any, Tuple[str, ...]]]:
        return [("apps", "ticker", self.ticker, ("push_quote",)),
                ("apps", "display", self.display,
                 ("display_price_quote", "display_trade")),
                ("apps", "trader", self.trader, ("execute_trade",))]


# ========================================================== batch rebalance

ACCOUNT_CLASS = "Bench::Account"
HOLDING_CLASS = "Bench::Holding"
REB_CLIENTS = 200
REB_HOLDINGS = 50
INTEGRITY_RULE = "bench:holdings-nonnegative"


@dataclass
class RebalanceInputs:
    clients: List[str]
    #: two share vectors per client; a cycle writes A to every client, then
    #: B, so the state at each cycle boundary is B again
    a: Dict[str, List[int]]
    b: Dict[str, List[int]]
    order_a: List[str]
    order_b: List[str]


def rebalance_inputs(seed: int) -> RebalanceInputs:
    rng = random.Random(seed)
    clients = ["client-%03d" % i for i in range(REB_CLIENTS)]
    a, b = {}, {}
    for c in clients:
        while True:
            va = [rng.randint(1, 1000) for _ in range(REB_HOLDINGS)]
            vb = [rng.randint(1, 1000) for _ in range(REB_HOLDINGS)]
            if all(x != y for x, y in zip(va, vb)) and sum(va) != sum(vb):
                break
        a[c], b[c] = va, vb
    return RebalanceInputs(clients, a, b, rng.sample(clients, len(clients)),
                           rng.sample(clients, len(clients)))


def _integrity_rule() -> Rule:
    """Deferred integrity check: a client's holdings never go negative.
    One indexed, parameterised query, evaluated once at commit."""
    def violated(ctx) -> None:
        raise ValueError("negative holding for %s" % ctx.bindings.get("new_client"))

    return Rule(
        name=INTEGRITY_RULE,
        event=on_update(ACCOUNT_CLASS, attrs=["total"]),
        condition=Condition.of(Query(HOLDING_CLASS, And(
            Compare(Attr("client"), "==", EventArg("new_client")),
            Compare(Attr("shares"), "<", Const(0))))),
        action=Action.of(CallStep(violated, label="reject")),
        ec_coupling=DEFERRED, ca_coupling=IMMEDIATE, group="integrity")


class RebalanceRig:
    """Each stimulus is one top-level transaction that looks up one
    client's holdings, rewrites every one, and updates the account."""

    classes = (ACCOUNT_CLASS, HOLDING_CLASS)

    #: a cycle adds ~20k provenance entries, so the default 50k store
    #: fills in 3 cycles; it appends only 800 firings, so the firing log
    #: (default 100k) is cut to fill in as many
    capacities = {"firing_log_capacity": 2000}

    def __init__(self, inputs: RebalanceInputs, data_dir: Optional[str]) -> None:
        self.inputs = inputs
        self.db = db = open_db(data_dir, self.capacities)
        db.define_class(ClassDef(ACCOUNT_CLASS, (
            AttributeDef("client", AttrType.STRING, required=True, indexed=True),
            AttributeDef("total", AttrType.INT, default=0))))
        db.define_class(ClassDef(HOLDING_CLASS, (
            AttributeDef("client", AttrType.STRING, required=True, indexed=True),
            AttributeDef("slot", AttrType.INT, default=0),
            AttributeDef("shares", AttrType.INT, default=0))))
        self.accounts = {}
        for c in inputs.clients:
            with db.transaction() as txn:
                self.accounts[c] = db.create(
                    ACCOUNT_CLASS, {"client": c, "total": sum(inputs.b[c])}, txn)
                for slot, shares in enumerate(inputs.b[c]):
                    db.create(HOLDING_CLASS, {"client": c, "slot": slot,
                                              "shares": shares}, txn)
        db.create_rule(_integrity_rule())
        self.queries = {c: Query(HOLDING_CLASS,
                                 Compare(Attr("client"), "==", Const(c)),
                                 order_by="slot")
                        for c in inputs.clients}
        self.cycle: List[Stimulus] = (
            [(self, "rebalance", (c, inputs.a[c])) for c in inputs.order_a]
            + [(self, "rebalance", (c, inputs.b[c])) for c in inputs.order_b])
        self.cycles_done = 0

    def rebalance(self, client: str, shares: List[int]) -> None:
        db = self.db
        with db.transaction() as txn:
            rows = db.query(self.queries[client], txn)
            for row, value in zip(rows, shares):
                db.update(row.oid, {"shares": value}, txn)
            db.update(self.accounts[client], {"total": sum(shares)}, txn)

    @staticmethod
    def rule_library(inputs: RebalanceInputs) -> Dict[str, Rule]:
        return {INTEGRITY_RULE: _integrity_rule()}

    def cycle_counts(self) -> Dict[str, int]:
        n = len(self.cycle)
        return {"rules.conditions_evaluated": n,
                "rules.deferred_queued": n,
                "rules.actions_executed": 0,
                "txn.top_level": n,
                "rules.firing_errors": 0}

    def check_cycle(self) -> List[str]:
        self.cycles_done += 1
        return []

    def check_final(self) -> List[str]:
        """After whole cycles every client holds its B vector again."""
        snap = snapshot(self.db, self.classes)
        held: Dict[str, Dict[int, int]] = {}
        for _, row in snap[HOLDING_CLASS]:
            a = dict(row)
            held.setdefault(a["client"], {})[a["slot"]] = a["shares"]
        totals = {dict(r)["client"]: dict(r)["total"] for _, r in snap[ACCOUNT_CLASS]}
        errors = []
        for c in self.inputs.clients:
            want = self.inputs.b[c]
            if [held.get(c, {}).get(i) for i in range(len(want))] != want:
                errors.append("holdings of %s differ from the inputs" % c)
            if totals.get(c) != sum(want):
                errors.append("account total of %s differs" % c)
        return errors[:5]

    def app_components(self) -> List[Tuple[str, str, Any, Tuple[str, ...]]]:
        return [("apps", "rebalancer", self, ("rebalance",))]


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], Any]
    rig: Callable[[Any, Optional[str]], Any]
    durable: bool
    #: stimuli between two reference readings
    block: int
    #: cycles in each pass of a traced run
    trace_cycles: int
    #: stimuli in the log of the recovery rig
    log_stimuli: int


def warmed(stats: Dict[str, Dict[str, Any]]) -> bool:
    """Both bounded histories that grow with stimuli are full and
    evicting: the firing log and the provenance store.  The other rings
    do not grow with stimuli here: no span is opened on these paths, and
    the slow log keeps only the rare observation over its 50 ms
    threshold."""
    prov = stats["provenance"]
    return (stats["obs"]["firing_log_dropped"] > 0 and prov["evicted"] > 0
            and prov["live_entries"] >= prov["capacity"])


WORKLOADS: Dict[str, Workload] = {
    "saa_quotes": Workload(saa_inputs, SaaRig, False, 8, 2, SAA_CYCLE),
    "saa_durable": Workload(saa_inputs, SaaRig, True, 8, 2, SAA_CYCLE),
    "batch_rebalance": Workload(rebalance_inputs, RebalanceRig, False, 4, 1, 100),
}
