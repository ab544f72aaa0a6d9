"""The layer map: which public functions get spans, and the per-layer metrics.

:func:`install` wraps the simulator's layer boundaries with
:class:`~bench.tracing.Recorder` spans.  Two tiers exist:

* the *coarse* tier, used by untraced end-to-end runs, wraps only the set-up
  entry points (:data:`SETUP_SPANS`) and the workload's unit function — under
  a thousand calls per cell;
* the *full* tier, used by traced runs, wraps every layer and harvests
  node, fabric, kernel and miner counters after each grid job.

:func:`layer_metrics` turns one traced cell's spans and counters into the
values of the ``per_layer`` metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable

from bench.tracing import Patcher, Recorder

#: Span names whose outermost time is the cell's set-up time (``setup_s``):
#: network build, snapshot save/load, each policy's overlay build, funding.
SETUP_SPANS = (
    "workloads.build_network",
    "workloads.snapshot_io",
    "core.build.bitcoin",
    "core.build.lbc",
    "core.build.bcbpt",
    "workloads.fund_nodes",
)

#: The root span every cell runs under; its self time is unattributed time.
CELL_SPAN = "bench.cell"

#: Message-command families the fabric and relay metrics are split by.
FAMILIES = ("inv", "getdata", "tx", "block", "other")

#: Event-label prefixes of timer-driven events: process wake-ups (mining,
#: traffic, churn sessions) and the periodic maintenance sweeps.
TIMER_LABELS = ("timeout:", "spawn:", "maintenance-")


def family(command: str) -> str:
    """The metric family of a message command."""
    return command if command in FAMILIES else "other"


_RELAY_SPANS = {f: f"relay.handle.{f}" for f in FAMILIES}


def _relay_span(args: tuple) -> str:
    # RelayStrategy.handle_message(self, sender, message)
    return _RELAY_SPANS.get(args[2].command, "relay.handle.other")


def current_rss_mb() -> float:
    """Resident set size of this process now, in MB (0 where unreadable)."""
    try:
        with open("/proc/self/statm") as handle:
            resident_pages = int(handle.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Harvester:
    """Reads counters off the networks and miners a grid job created.

    Networks are registered as ``build_network``/``load_network`` return
    them and miners as they mine; :meth:`harvest` (run after every grid job
    and at the end of a cell) adds their counters to the recorder and then
    drops the references, so no network outlives its job for long.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.networks: list[Any] = []
        self.miners: dict[int, tuple[Any, list[str]]] = {}

    def note_network(self, args: tuple, kwargs: dict, simulated: Any) -> None:
        self.networks.append(simulated)

    def note_block(self, args: tuple, kwargs: dict, block: Any) -> None:
        process = args[0]
        entry = self.miners.setdefault(id(process), (process, []))
        if block is not None:
            entry[1].append(block.block_hash)

    def harvest(self) -> None:
        counts = self.recorder.counts
        for simulated in self.networks:
            fabric = simulated.network
            counts["sim.events"] += simulated.simulator.events_executed
            for command, sent in fabric.messages_sent.items():
                counts[f"fabric.msgs.{family(command)}"] += sent
            for command, size in fabric.bytes_sent.items():
                counts[f"fabric.bytes.{family(command)}"] += size
            counts["fabric.dropped"] += fabric.messages_dropped
            counts["fabric.suppressed"] += fabric.messages_suppressed
            utxo = inventory = mempool = 0
            for node in simulated.nodes.values():
                stats = node.stats
                counts["node.tx_accepted"] += stats.transactions_accepted
                counts["node.tx_rejected"] += stats.transactions_rejected
                counts["relay.invs_received"] += stats.invs_received
                counts["relay.duplicate_invs"] += stats.duplicate_invs
                counts["relay.getdata_retries"] += stats.getdata_retries
                counts["relay.getdata_saved"] += stats.getdata_saved
                counts["node.orphans_evicted"] += stats.orphans_evicted
                counts["mempool.fee_evictions"] += stats.mempool_fee_evictions
                counts["mempool.capacity_drops"] += stats.mempool_capacity_drops
                counts["mempool.conflict_evictions"] += stats.mempool_conflict_evictions
                utxo += len(node.utxo)
                inventory += (
                    len(node.known_transactions)
                    + len(node.known_blocks)
                    + len(node.transaction_first_seen_times)
                    + len(node.transaction_accept_times)
                )
                mempool += len(node.mempool)
            self.recorder.peak("mem.utxo_entries", utxo)
            self.recorder.peak("mem.inventory_entries", inventory)
            self.recorder.peak("mem.mempool_entries", mempool)
        for process, mined in self.miners.values():
            counts["mining.blocks"] += process.blocks_mined
            counts["mining.full_blocks"] += process.full_blocks_mined
            first = process._nodes[min(process._nodes)]
            on_chain = {block.block_hash for block in first.blockchain.best_chain()}
            counts["mining.mined"] += len(mined)
            counts["mining.stale"] += sum(1 for h in mined if h not in on_chain)
        self.networks.clear()
        self.miners.clear()


def install(recorder: Recorder, *, full: bool) -> tuple[Patcher, Harvester]:
    """Wrap the layer boundaries; returns the patcher (to restore) and harvester.

    The coarse tier (``full=False``) wraps the set-up spans and the
    recorder's unit span only; ``full=True`` wraps every layer.
    """
    from repro.core import bcbpt, distance, lbc, maintenance, random_topology
    from repro.experiments import api, backends, checkpoint, grid
    from repro.measurement import measuring_node
    from repro.net import link
    from repro.protocol import (
        adversary,
        blockchain,
        mempool,
        mining,
        node,
        relay,
        utxo,
        validation,
    )
    from repro.sim import engine
    from repro.workloads import generators, network_gen, traffic

    api.load_registry()  # experiment modules bind grid/funding functions by name at import
    patcher = Patcher()
    harvester = Harvester(recorder)
    rec = recorder

    def wanted(span: Any, tier: str) -> bool:
        # "unit" spans exist only to time a workload's units.
        return tier == "setup" or span == rec.unit or (full and tier == "full")

    def note_rss(args: tuple, kwargs: dict, result: Any) -> None:
        rec.peak("mem.rss_after_setup_mb", current_rss_mb())

    def note_network(args: tuple, kwargs: dict, simulated: Any) -> None:
        note_rss(args, kwargs, simulated)
        if full:
            harvester.note_network(args, kwargs, simulated)

    def method(cls: type, attr: str, span: Any, tier: str = "full", **hooks: Any) -> None:
        if wanted(span, tier):
            patcher.method(cls, attr, lambda fn: rec.wrap(span, fn, **hooks))

    def family_method(base: type, attr: str, span: Any, **hooks: Any) -> None:
        patcher.hierarchy(base, attr, lambda fn: rec.wrap(span, fn, **hooks))

    def function(module: Any, attr: str, span: str, tier: str = "full", **hooks: Any) -> None:
        if wanted(span, tier):
            patcher.function(module, attr, lambda fn: rec.wrap(span, fn, **hooks))

    def count(name: str, amount: Callable[[tuple, dict, Any], int]) -> Callable[..., None]:
        def add(args: tuple, kwargs: dict, result: Any) -> None:
            rec.counts[name] += amount(args, kwargs, result)

        return add

    # ---- set-up entry points (both tiers)
    function(network_gen, "build_network", "workloads.build_network", "setup", after=note_network)
    function(network_gen, "save_network", "workloads.snapshot_io", "setup", after=note_rss)
    function(network_gen, "load_network", "workloads.snapshot_io", "setup", after=note_network)
    function(generators, "fund_nodes", "workloads.fund_nodes", "setup", after=note_rss)
    for cls, label in (
        (random_topology.RandomNeighbourPolicy, "bitcoin"),
        (lbc.LbcPolicy, "lbc"),
        (bcbpt.BcbptPolicy, "bcbpt"),
    ):
        method(cls, "build_topology", f"core.build.{label}", "setup", after=note_rss)

    # ---- unit candidates (coarse tier when they are the unit).  Every grid
    # job runs as an ``exec.job`` span; traced cells harvest after each one.
    def wrap_run_cells(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def run_cells(self: Any, job_fn: Any, jobs: Any, config: Any) -> Any:
            @functools.wraps(job_fn)
            def job(spec: Any) -> Any:
                try:
                    return rec.call("exec.job", job_fn, (spec,), {})
                finally:
                    if full:
                        rec.run_untimed("bench.harvest", harvester.harvest)

            if full:
                return rec.call("exec.grid", fn, (self, job, jobs, config), {})
            return fn(self, job, jobs, config)

        return run_cells

    if wanted("exec.job", "full"):
        patcher.method(backends.ExecutionPlan, "run_cells", wrap_run_cells)
    Simulator = engine.Simulator
    pending = (lambda a, k, r: rec.peak("sim.pending_max", a[0].pending_events)) if full else None
    method(Simulator, "run", "sim.run", after=pending)
    method(measuring_node.MeasuringNode, "measure_once", "measurement.measure_once")
    method(bcbpt.BcbptPolicy, "assign_to_cluster", "core.assign", "unit")
    if not full:
        return patcher, harvester

    # ---- sim
    def wrap_schedule_at(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def schedule_at(self: Any, time: float, callback: Any, **kwargs: Any) -> Any:
            if rec.paused:
                return fn(self, time, callback, **kwargs)
            label = kwargs.get("label", "")
            if label.startswith("deliver:"):
                span = "sim.event.deliver"
            elif label.startswith(TIMER_LABELS):
                span = "sim.event.timer"
            else:
                span = "sim.event.other"
            wrapped = rec.wrap_callback(span, callback)
            return rec.call("sim.schedule", fn, (self, time, wrapped), kwargs)

        return schedule_at

    patcher.method(Simulator, "schedule_at", wrap_schedule_at)

    # ---- net
    Delay = link.LinkDelayCalculator
    method(Delay, "message_delay_s", "net.delay")
    method(Delay, "jitter_factors", "net.jitter")
    method(Delay, "ping_rtt_s", "net.rtt", after=count("net.rtt.samples", lambda a, k, r: 1))
    method(Delay, "ping_rtts_s", "net.rtt", after=count("net.rtt.samples", lambda a, k, r: len(r)))
    method(Delay, "base_rtt_s", "net.rtt")

    # ---- fabric
    from repro.protocol.network import P2PNetwork

    for attr in ("send", "broadcast", "multicast"):
        method(P2PNetwork, attr, "fabric.send")
    for attr in ("connect", "disconnect", "set_online"):
        method(P2PNetwork, attr, "fabric.connect")

    # ---- relay
    family_method(relay.RelayStrategy, "handle_message", _relay_span)
    family_method(relay.RelayStrategy, "announce_transaction", "relay.announce")
    family_method(relay.RelayStrategy, "announce_block", "relay.announce")

    # ---- node; listeners attached to a node are wrapped as measurement
    # observers the first time the node accepts something.
    def observe(attr: str) -> Callable[[tuple], None]:
        def wrap_listeners(args: tuple) -> None:
            listeners = getattr(args[0], attr)
            for index, listener in enumerate(listeners):
                if not getattr(listener, "_bench_observer", False):
                    wrapped = rec.wrap("measurement.observer", listener)
                    wrapped._bench_observer = True  # type: ignore[attr-defined]
                    listeners[index] = wrapped

        return wrap_listeners

    Node = node.BitcoinNode
    method(Node, "handle_message", "node.handle")
    method(Node, "accept_transaction", "node.accept_tx", before=observe("transaction_listeners"))
    method(Node, "accept_block", "node.accept_block", before=observe("block_listeners"))
    method(Node, "create_transaction", "node.create_tx")
    method(Node, "find_confirmed_transaction", "node.find_confirmed")

    # ---- validation, mempool, chain
    Validator = validation.TransactionValidator
    method(Validator, "validate_transaction", "validation.tx")
    method(Validator, "validate_block", "validation.block")
    Mempool = mempool.Mempool
    method(Mempool, "add", "mempool.add", after=count("mempool.add_rejects", lambda a, k, r: not r))
    for attr in ("remove_confirmed", "remove_conflicts", "remove_unspendable"):
        method(Mempool, attr, "mempool.remove")
    method(Mempool, "select_for_block", "mempool.select")
    Chain = blockchain.Blockchain
    method(Chain, "add_block", "chain.add_block")
    method(Chain, "best_chain", "chain.best_chain")
    method(Chain, "utxo_set", "chain.utxo_set")
    method(Chain, "contains_transaction", "chain.contains_tx")
    method(utxo.UtxoSet, "copy", "utxo.copy")
    method(utxo.UtxoSet, "apply_transaction", "utxo.apply")

    # ---- mining
    method(mining.MiningProcess, "mine_one_block", "mining.mine", after=harvester.note_block)
    method(mining.BlockTemplate, "build", "mining.template")

    # ---- core
    method(distance.DistanceCalculator, "measure", "core.distance")
    method(distance.DistanceCalculator, "rank_by_distance", "core.distance")
    Maintainer = maintenance.ChurnMaintainer
    for attr, value in list(vars(Maintainer).items()):
        if callable(value) and not attr.startswith("__"):
            method(Maintainer, attr, "core.maintenance")

    # ---- workloads, adversary
    method(traffic.ConfirmationTracker, "register", "workloads.traffic.register")
    family_method(adversary.ByzantineBehavior, "filter_send", "adversary.filter")

    # ---- execution plane
    function(api, "run_experiment", "exec.envelope")
    function(grid, "run_seed_grid", "exec.grid")

    saved_bytes = count("exec.cell_save.bytes", lambda a, k, path: path.stat().st_size)
    method(checkpoint.CellStore, "save", "exec.cell_save", after=saved_bytes)
    return patcher, harvester


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced cell.

    ``mem.rss_after_setup_mb`` and ``trace.overhead_frac`` come from the
    untraced cells and are filled in by the runner.
    """
    counts = rec.counts
    calls = rec.calls

    def self_s(*names: str) -> float:
        return sum(rec.seconds(name, 2) for name in names)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    events = counts["sim.events"]
    values: dict[str, float] = {
        "sim.events": events,
        "sim.us_per_event": ratio(rec.seconds("sim.run", 1) * 1e6, events),
        "sim.dispatch_self_s": self_s("sim.run"),
        "sim.schedule.calls": calls("sim.schedule"),
        "sim.schedule.self_s": self_s("sim.schedule"),
        "sim.event.deliver.self_s": self_s("sim.event.deliver"),
        "sim.event.timer.self_s": self_s("sim.event.timer"),
        "sim.event.other.self_s": self_s("sim.event.other"),
        "sim.pending_max": rec.peaks.get("sim.pending_max", 0),
        "net.delay.calls": calls("net.delay"),
        "net.delay.self_s": self_s("net.delay"),
        "net.jitter_batches": calls("net.jitter"),
        "net.rtt.calls": calls("net.rtt"),
        "net.rtt.samples": counts["net.rtt.samples"],
        "net.rtt.self_s": self_s("net.rtt"),
        "fabric.send.calls": calls("fabric.send"),
        "fabric.send.self_s": self_s("fabric.send"),
        "fabric.dropped": counts["fabric.dropped"],
        "fabric.suppressed": counts["fabric.suppressed"],
        "fabric.connect.calls": calls("fabric.connect"),
        "fabric.connect.self_s": self_s("fabric.connect"),
        "relay.announce.calls": calls("relay.announce"),
        "relay.announce.self_s": self_s("relay.announce"),
        "relay.tx_accept_per_inv": ratio(counts["node.tx_accepted"], counts["fabric.msgs.inv"]),
        "relay.dup_inv_frac": ratio(counts["relay.duplicate_invs"], counts["relay.invs_received"]),
        "relay.getdata_retries": counts["relay.getdata_retries"],
        "relay.getdata_saved": counts["relay.getdata_saved"],
        "node.handle.self_s": self_s("node.handle"),
        "node.tx_reject_frac": ratio(
            counts["node.tx_rejected"], counts["node.tx_accepted"] + counts["node.tx_rejected"]
        ),
        "node.orphans_evicted": counts["node.orphans_evicted"],
        "mempool.add_reject_frac": ratio(counts["mempool.add_rejects"], calls("mempool.add")),
        "mempool.remove.self_s": self_s("mempool.remove"),
        "mempool.select.self_s": self_s("mempool.select"),
        "mempool.fee_evictions": counts["mempool.fee_evictions"],
        "mempool.capacity_drops": counts["mempool.capacity_drops"],
        "mempool.conflict_evictions": counts["mempool.conflict_evictions"],
        "mining.blocks": counts["mining.blocks"],
        "mining.mine.self_s": self_s("mining.mine"),
        "mining.template.self_s": self_s("mining.template"),
        "mining.full_block_frac": ratio(counts["mining.full_blocks"], counts["mining.blocks"]),
        "mining.stale_frac": ratio(counts["mining.stale"], counts["mining.mined"]),
        "core.build.self_s": self_s("core.build.bitcoin", "core.build.lbc", "core.build.bcbpt"),
        "workloads.build_network.s": rec.seconds("workloads.build_network", 1),
        "workloads.snapshot_io.s": rec.seconds("workloads.snapshot_io", 1),
        "workloads.fund_nodes.s": rec.seconds("workloads.fund_nodes", 1),
        "workloads.traffic.register.calls": calls("workloads.traffic.register"),
        "measurement.measure_once.calls": calls("measurement.measure_once"),
        "adversary.suppressed_frac": ratio(counts["fabric.suppressed"], calls("adversary.filter")),
        "exec.envelope.self_s": self_s("exec.envelope"),
        "exec.grid.self_s": self_s("exec.grid"),
        "exec.cell_save.bytes": counts["exec.cell_save.bytes"],
        "mem.utxo_entries": rec.peaks.get("mem.utxo_entries", 0),
        "mem.inventory_entries": rec.peaks.get("mem.inventory_entries", 0),
        "mem.mempool_entries": rec.peaks.get("mem.mempool_entries", 0),
        "trace.unattributed_frac": ratio(rec.seconds(CELL_SPAN, 2), wall_s),
    }
    for fam in FAMILIES:
        values[f"fabric.msgs.{fam}"] = counts[f"fabric.msgs.{fam}"]
        values[f"fabric.bytes.{fam}"] = counts[f"fabric.bytes.{fam}"]
        values[f"relay.handle.{fam}.calls"] = calls(f"relay.handle.{fam}")
        values[f"relay.handle.{fam}.self_s"] = self_s(f"relay.handle.{fam}")
    for label in ("bitcoin", "lbc", "bcbpt"):
        values[f"core.build.{label}.s"] = rec.seconds(f"core.build.{label}", 1)
    for span in (
        "node.accept_tx",
        "node.accept_block",
        "node.create_tx",
        "node.find_confirmed",
        "validation.tx",
        "validation.block",
        "mempool.add",
        "chain.add_block",
        "chain.best_chain",
        "chain.utxo_set",
        "chain.contains_tx",
        "utxo.copy",
        "utxo.apply",
        "core.distance",
        "core.maintenance",
        "measurement.observer",
        "adversary.filter",
        "exec.cell_save",
    ):
        values[f"{span}.calls"] = calls(span)
        values[f"{span}.self_s"] = self_s(span)
    return {name: float(value) for name, value in values.items()}
