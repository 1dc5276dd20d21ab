"""Per-layer wall-clock attribution, measured from outside the program.

:class:`LayerTrace` patches the public entry points of each layer
(``netsim``, ``core``, ``consensus``, ``flowsim``, ``hybrid``) with
timing wrappers for the duration of a ``with`` block.  Nothing under
``src/`` knows it is being traced.

Every wrapped call charges its *self time* -- its duration minus the
time covered by wrapped calls nested inside it -- to its layer, and
bumps its operation's call count.  Hot per-frame calls (millions per
run) only accumulate counters; coarse calls (``bootstrap``,
``probe_round``, ``EventLoop.run``, ``FluidSimulator.run``,
``advance_to``) also record a full span: name, parent span, start and
duration.

Two rules follow from how the program is built:

* netsim pre-binds callbacks when a fabric or engine is constructed, so
  :meth:`LayerTrace.install` must run before anything is built;
* a subclass override that calls ``super()`` into a method wrapped with
  the same operation is counted once (the inner call passes through).
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "LayerTrace", "layer_metrics"]

#: Layers in report order; each becomes a ``<layer>.self_s`` metric.
LAYERS = (
    "netsim.events",
    "netsim.channel",
    "core.switch",
    "core.host_agent",
    "core.discovery",
    "core.pathcache",
    "core.controller",
    "core.pathservice",
    "consensus",
    "flowsim.maxmin",
    "flowsim.simulator",
    "flowsim.policies",
    "hybrid.engine",
    "hybrid.packet_region",
)

PostHook = Callable[["Op", Tuple[Any, ...], Any], None]


class Layer:
    __slots__ = ("name", "self_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.self_ns = 0


class Op:
    """One traced operation: a call count plus named side counters."""

    __slots__ = ("name", "layer", "calls", "counts")

    def __init__(self, name: str, layer: Layer) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.counts: Dict[str, int] = {}

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def _count_events(op: Op, _args, result) -> None:
    op.add("events", result)


def _count_drop(op: Op, _args, result) -> None:
    if result is False:
        op.add("drops")


def _count_probes(op: Op, args, result) -> None:
    op.add("probes", len(args[1]))
    op.add("replies", sum(1 for outcome in result if outcome is not None))


def _count_hit(op: Op, _args, result) -> None:
    if result is not None:
        op.add("hits")


def _count_invalidated(op: Op, _args, result) -> None:
    op.add("invalidated", result)


def _count_routes(op: Op, args, _result) -> None:
    op.add("routes", len(args[0]))


class LayerTrace:
    """Accumulates self time per layer and counts per operation."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {name: Layer(name) for name in LAYERS}
        self.ops: Dict[str, Op] = {}
        #: Coarse spans as [name, parent index or -1, start_ns, duration_ns].
        self.spans: List[List[Any]] = []
        self._current: Optional[Op] = None
        self._child_ns = 0
        self._open_span = -1
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # accounting

    def reset(self) -> None:
        """Zero every accumulator (between measured iterations)."""
        for layer in self.layers.values():
            layer.self_ns = 0
        for op in self.ops.values():
            op.calls = 0
            op.counts.clear()
        self.spans.clear()

    def op(self, name: str, layer: str) -> Op:
        op = self.ops.get(name)
        if op is None:
            op = self.ops[name] = Op(name, self.layers[layer])
        return op

    def calls(self, name: str) -> int:
        op = self.ops.get(name)
        return op.calls if op is not None else 0

    def count(self, name: str, key: str) -> int:
        op = self.ops.get(name)
        return op.counts.get(key, 0) if op is not None else 0

    def self_s(self, layer: str) -> float:
        return self.layers[layer].self_ns / 1e9

    # ------------------------------------------------------------------
    # wrappers

    def _hot(self, fn, op: Op, post: Optional[PostHook]):
        trace = self
        layer = op.layer
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if trace._current is op:
                return fn(*args, **kwargs)
            parent = trace._current
            parent_child_ns = trace._child_ns
            trace._current = op
            trace._child_ns = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                layer.self_ns += elapsed - trace._child_ns
                op.calls += 1
                trace._child_ns = parent_child_ns + elapsed
                trace._current = parent
            if post is not None:
                post(op, args, result)
            return result

        return wrapper

    def _coarse(self, fn, op: Op, post: Optional[PostHook]):
        trace = self
        layer = op.layer
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if trace._current is op:
                return fn(*args, **kwargs)
            parent = trace._current
            parent_child_ns = trace._child_ns
            parent_span = trace._open_span
            trace._current = op
            trace._child_ns = 0
            start = clock()
            span = [op.name, parent_span, start, 0]
            trace._open_span = len(spans)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span[3] = elapsed
                layer.self_ns += elapsed - trace._child_ns
                op.calls += 1
                trace._child_ns = parent_child_ns + elapsed
                trace._current = parent
                trace._open_span = parent_span
            if post is not None:
                post(op, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, op_name: str, layer: str,
               coarse: bool = False, post: Optional[PostHook] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        op = self.op(op_name, layer)
        make = self._coarse if coarse else self._hot
        wrapper = make(original, op, post)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A module-level function: rebind it in every repro module that
        # imported it by name, or callers would bypass the wrapper.
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name.startswith("repro") and getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self) -> "LayerTrace":
        """Patch every layer.  Call before building a fabric or engine."""
        from repro.consensus import log as consensus_log
        from repro.core import controller, discovery, host_agent, pathcache
        from repro.core import pathservice, replication, switch
        from repro.flowsim import maxmin, policies, simulator
        from repro.hybrid import engine, packet_region
        from repro.netsim import channel, events

        patch = self._patch
        patch(events.EventLoop, "run", "netsim.events.run", "netsim.events",
              coarse=True, post=_count_events)
        patch(channel.Channel, "transmit", "netsim.channel.transmit",
              "netsim.channel", post=_count_drop)
        patch(switch.DumbSwitch, "handle_packet", "core.switch.handle_packet",
              "core.switch")
        patch(host_agent.HostAgent, "handle_packet", "core.host_agent.handle_packet",
              "core.host_agent")
        patch(host_agent.HostAgent, "send_tagged", "core.host_agent.send_tagged",
              "core.host_agent")
        patch(discovery, "discover", "core.discovery.discover", "core.discovery",
              coarse=True)
        patch(host_agent.EmulatedProbeTransport, "probe_round",
              "core.discovery.probe_round", "core.discovery",
              coarse=True, post=_count_probes)
        patch(pathcache.PathTable, "lookup", "core.pathcache.lookup",
              "core.pathcache", post=_count_hit)
        patch(pathcache.PathTable, "invalidate_port", "core.pathcache.invalidate_port",
              "core.pathcache", post=_count_invalidated)
        for attr in ("merge_reply", "record_attachment", "port_down", "port_up",
                     "k_shortest", "encode"):
            patch(pathcache.TopoCache, attr, "core.pathcache.topo_" + attr,
                  "core.pathcache")
        patch(pathcache.PathTable, "install", "core.pathcache.install",
              "core.pathcache")
        patch(controller.Controller, "bootstrap", "core.controller.bootstrap",
              "core.controller", coarse=True)
        patch(controller.Controller, "handle_path_request",
              "core.controller.handle_path_request", "core.controller")
        patch(controller.Controller, "on_news", "core.controller.on_news",
              "core.controller")
        for attr in ("tree", "distances", "shortest_path", "path_graph",
                     "build_fresh", "invalidate_link", "note_topology_change",
                     "flush"):
            patch(pathservice.PathService, attr, "core.pathservice." + attr,
                  "core.pathservice")
        patch(consensus_log.Cluster, "append", "consensus.append", "consensus")
        for attr in ("failover", "fail_primary"):
            patch(replication.ReplicatedControlPlane, attr,
                  "core.replication.failover", "consensus")
        patch(maxmin, "max_min_rates", "flowsim.maxmin.max_min_rates",
              "flowsim.maxmin", post=_count_routes)
        patch(simulator.FluidSimulator, "run", "flowsim.simulator.run",
              "flowsim.simulator", coarse=True)
        policy_classes = (
            simulator.SingleShortestPolicy, simulator.HashedKPathPolicy,
            simulator.RebalancingKPathPolicy, policies.SprayKPathPolicy,
            policies.EcnAwareKPathPolicy,
        )
        for cls in policy_classes:
            for attr, op_name in (("choose", "flowsim.policies.choose"),
                                  ("rebalance", "flowsim.policies.rebalance")):
                if attr in cls.__dict__:
                    patch(cls, attr, op_name, "flowsim.policies")
        # The engine's coupling logic lives in its FluidSimulator hooks.
        for attr in ("_admit", "_revalidate_external", "_external_demands",
                     "_post_recompute", "_couple_to"):
            patch(engine.HybridEngine, attr, "hybrid.engine." + attr.lstrip("_"),
                  "hybrid.engine")
        patch(packet_region.PacketRegion, "advance_to",
              "hybrid.packet_region.advance_to", "hybrid.packet_region", coarse=True)
        for attr in ("set_backgrounds", "harvest", "start_flow", "rechain"):
            patch(packet_region.PacketRegion, attr, "hybrid.packet_region." + attr,
                  "hybrid.packet_region")
        # Per-frame hop handler of promoted flows (the region's sink device).
        patch(packet_region._Sink, "receive", "hybrid.packet_region.hop",
              "hybrid.packet_region")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()



def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: LayerTrace, counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``counts`` carries the counters the program keeps itself (simulator
    epochs, path-service stats, ...); layers a workload never touches
    read 0.
    """
    lookups = trace.calls("core.pathcache.lookup")
    probes = trace.count("core.discovery.probe_round", "probes")
    maxmin_calls = trace.calls("flowsim.maxmin.max_min_rates")
    metrics: Dict[str, float] = {
        "netsim.events.events": trace.count("netsim.events.run", "events"),
        "netsim.channel.frames": trace.calls("netsim.channel.transmit"),
        "netsim.channel.drops": trace.count("netsim.channel.transmit", "drops"),
        "core.switch.frames": trace.calls("core.switch.handle_packet"),
        "core.host_agent.frames": trace.calls("core.host_agent.handle_packet"),
        "core.host_agent.sends": trace.calls("core.host_agent.send_tagged"),
        "core.discovery.rounds": trace.calls("core.discovery.probe_round"),
        "core.discovery.probes": probes,
        "core.discovery.reply_ratio": _ratio(
            trace.count("core.discovery.probe_round", "replies"), probes
        ),
        "core.pathcache.lookups": lookups,
        "core.pathcache.hit_ratio": _ratio(
            trace.count("core.pathcache.lookup", "hits"), lookups
        ),
        "core.pathcache.invalidated": trace.count(
            "core.pathcache.invalidate_port", "invalidated"
        ),
        "core.controller.path_requests": trace.calls(
            "core.controller.handle_path_request"
        ),
        "core.controller.news": trace.calls("core.controller.on_news"),
        "core.pathservice.lookups": 0,
        "core.pathservice.hit_ratio": 0.0,
        "core.pathservice.tree_builds": 0,
        "consensus.appends": trace.calls("consensus.append"),
        "core.replication.failovers": trace.calls("core.replication.failover"),
        "flowsim.maxmin.calls": maxmin_calls,
        "flowsim.maxmin.routes_per_call": _ratio(
            trace.count("flowsim.maxmin.max_min_rates", "routes"), maxmin_calls
        ),
        "flowsim.simulator.epochs": 0,
        "flowsim.simulator.recomputes": 0,
        "flowsim.simulator.skip_ratio": 0.0,
        "flowsim.policies.choose_calls": trace.calls("flowsim.policies.choose"),
        "flowsim.policies.rebalance_calls": trace.calls("flowsim.policies.rebalance"),
        "flowsim.policies.reroutes": 0,
        "hybrid.engine.couplings": 0,
        "hybrid.engine.promoted": 0,
        "hybrid.packet_region.events": 0,
        "hybrid.packet_region.frames_delivered": 0,
        "workloads.program_s": 0.0,
        "workloads.flows": 0,
    }
    unknown = set(counts) - set(metrics)
    if unknown:
        raise KeyError(f"counters with no per-layer metric: {sorted(unknown)}")
    metrics.update(counts)
    for layer in LAYERS:
        metrics[layer + ".self_s"] = trace.self_s(layer)
    return metrics
