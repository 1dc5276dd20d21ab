"""Packet-level zoom region: its own FIFO hops and frame heap.

The region lazily materialises one :class:`_Hop` per *directed* fluid
link a promoted flow crosses (capacity taken straight from the
:class:`~repro.flowsim.network.FlowNet`).  Hops are shared between
promoted flows, so two promoted flows crossing the same uplink contend
for it with real per-frame FIFO serialization -- the microbehaviour the
fluid model cannot express.  A hop does the float arithmetic of a
zero-perturbation netsim channel; frames in flight sit on one
``(arrival, seq, frame)`` heap that :meth:`PacketRegion.advance_to`
drains inline, one pop per hop.  The region never fails a hop: failures
live in the FlowNet and surface as reroutes/stalls at the next epoch.

Traffic that stays fluid is projected onto the region as *shaped
background load*: a hop's ``background_bps`` steals serialization
bandwidth from the foreground frames.  The engine refreshes the
backgrounds from every max-min solve.

A promoted flow is a :class:`ZoomFlow`: an MTU-sized frame train pushed
through its chain of hops with a self-clocked window -- a new frame is
injected when one clears the final hop, keeping ``window`` frames in
flight.  The window is sized so the pipe, not the window, is the
bottleneck (throughput then tracks the residual bandwidth of the
bottleneck hop, which is the quantity the boundary contract feeds back
to the fluid side).

Mid-flight reroutes swap the *chain* (a fresh list), so frames already
in flight finish on the path they started on -- the packet-level
equivalent of bits already in the pipe when the fluid model reroutes.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..flowsim.network import FlowNet
from ..flowsim.simulator import Flow

__all__ = ["PacketRegion", "ZoomFlow"]

LinkId = Tuple


class _Hop:
    """One directed link: when its line frees up, and the latest
    arrival already booked (the FIFO clamp)."""

    __slots__ = ("bandwidth_bps", "background_bps", "busy_until", "last_arrival")

    def __init__(self, bandwidth_bps: float) -> None:
        self.bandwidth_bps = bandwidth_bps
        self.background_bps = 0.0
        self.busy_until = 0.0
        self.last_arrival = 0.0


class _Frame:
    """One MTU-sized frame of a promoted flow, with its captured chain;
    ``idx`` is the hop it is on (-1 before the first).  A frame that
    clears its last hop is reloaded as its flow's next one."""

    __slots__ = ("zoom", "bits", "hops", "idx")

    def __init__(self, zoom: "ZoomFlow") -> None:
        self.zoom = zoom


class ZoomFlow:
    """A fluid flow promoted to packet fidelity."""

    __slots__ = (
        "flow",
        "chain",
        "inflight",
        "remaining_inject",
        "delivered_epoch",
        "stalled",
        "done",
    )

    def __init__(self, flow: Flow, chain: List[_Hop]) -> None:
        self.flow = flow
        #: Hops along the current route.  Frames capture the list
        #: object at injection; a reroute installs a *new* list,
        #: leaving in-flight frames on their old path.
        self.chain = chain
        self.inflight = 0
        self.remaining_inject = flow.remaining_bits
        #: Bits that completed the final hop since the last harvest.
        self.delivered_epoch = 0.0
        self.stalled = False
        self.done = False


class _Sink:
    """The receive endpoint behind every chain's final hop."""

    __slots__ = ("region",)

    def __init__(self, region: "PacketRegion") -> None:
        self.region = region

    def receive(self, frame: _Frame, now: float) -> Optional[_Frame]:
        """Account a frame that cleared its last hop at ``now``; return
        it reloaded as the flow's next frame, or None."""
        region = self.region
        zoom = frame.zoom
        zoom.inflight -= 1
        zoom.delivered_epoch += frame.bits
        region.frames_delivered += 1
        flow = zoom.flow
        remaining = flow.remaining_bits - frame.bits
        flow.remaining_bits = remaining if remaining > 0.0 else 0.0
        if zoom.remaining_inject > 0 and not zoom.stalled:
            return region._load(zoom, frame)
        if zoom.inflight == 0 and zoom.remaining_inject <= 0 and not zoom.done:
            zoom.done = True
            flow.remaining_bits = 0.0
            region.finished.append((zoom, now))
        return None


class PacketRegion:
    """Shared packet-level substrate for all promoted flows."""

    def __init__(
        self,
        net: FlowNet,
        *,
        latency_s: float = 1e-6,
        mtu_bytes: int = 1450,
        window: int = 32,
    ) -> None:
        self.net = net
        self.now = 0.0
        self.latency_s = latency_s
        self.mtu_bits = float(mtu_bytes * 8)
        self.window = window
        self._sink = _Sink(self)
        #: Materialised hops by directed link (the only links shaped).
        self.hops: Dict[LinkId, _Hop] = {}
        self._shaped: List[_Hop] = []
        #: Frames in flight; ``seq`` breaks arrival ties in push order.
        self._heap: List[Tuple[float, int, _Frame]] = []
        self._seq = 0
        self.events_run = 0
        self.zooms: List[ZoomFlow] = []
        #: (zoom, finish time) pairs awaiting engine harvest.  Finish
        #: times are packet-measured (mid-epoch), which is the fidelity
        #: promotion buys for FCTs.
        self.finished: List[Tuple[ZoomFlow, float]] = []
        self.frames_delivered = 0
        self.background_links = 0

    # ------------------------------------------------------------------

    def hop_for(self, link: LinkId) -> _Hop:
        hop = self.hops.get(link)
        if hop is None:
            hop = self.hops[link] = _Hop(self.net.capacities[link])
        return hop

    def _chain_for(self, links: Sequence[LinkId]) -> List[_Hop]:
        return [self.hop_for(link) for link in links]

    def next_event_time(self) -> Optional[float]:
        heap = self._heap
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # flow lifecycle (driven by the engine; self.now == engine.now here)

    def start_flow(self, flow: Flow, links: Sequence[LinkId]) -> ZoomFlow:
        zoom = ZoomFlow(flow, self._chain_for(links))
        self.zooms.append(zoom)
        if zoom.remaining_inject <= 0:
            zoom.done = True
            self.finished.append((zoom, self.now))
        else:
            self._pump(zoom)
        return zoom

    def rechain(self, zoom: ZoomFlow, links: Sequence[LinkId]) -> None:
        """Install a new route and resume injection."""
        zoom.chain = self._chain_for(links)
        zoom.stalled = False
        self._pump(zoom)

    def stall(self, zoom: ZoomFlow) -> None:
        """Route died and no replacement exists: stop injecting.  Frames
        already in flight still drain on their captured chains."""
        zoom.stalled = True

    def _pump(self, zoom: ZoomFlow) -> None:
        while (
            zoom.inflight < self.window
            and zoom.remaining_inject > 0
            and not zoom.stalled
        ):
            self._send_first(self._load(zoom, _Frame(zoom)))

    def _load(self, zoom: ZoomFlow, frame: _Frame) -> _Frame:
        """Cut the zoom's next frame into ``frame``, before its first hop."""
        bits = self.mtu_bits
        if bits > zoom.remaining_inject:
            bits = zoom.remaining_inject
        zoom.remaining_inject -= bits
        zoom.inflight += 1
        frame.bits = bits
        frame.hops = zoom.chain
        frame.idx = -1
        return frame

    def _send_first(self, frame: _Frame) -> None:
        """Put a fresh frame on its first hop at the region clock: the
        forwarding step of :meth:`_drain`, which inlines it."""
        now = self.now
        frame.idx = 0
        hop = frame.hops[0]
        start = hop.busy_until
        if start < now:
            start = now
        bandwidth = hop.bandwidth_bps
        bg = hop.background_bps
        if bg:
            bandwidth -= bg
            if bandwidth <= 0.0:
                # Saturated by background: never fully starve the
                # foreground, or a promoted flow could deadlock.
                bandwidth = hop.bandwidth_bps * 1e-6
        free = start + frame.bits / bandwidth
        hop.busy_until = free
        arrival = free + self.latency_s
        if arrival < hop.last_arrival:
            arrival = hop.last_arrival
        else:
            hop.last_arrival = arrival
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (arrival, seq, frame))

    # ------------------------------------------------------------------
    # boundary contract (engine side)

    def advance_to(self, t: float) -> None:
        """Handle every hop arriving at or before ``t``, then set the
        clock to ``t``.  Cyclic gc is paused while draining, as in
        ``EventLoop.run``: the per-hop garbage dies by refcount."""
        if t <= self.now:
            return
        heap = self._heap
        if heap and heap[0][0] <= t:
            gc_was_enabled = gc.isenabled()
            if gc_was_enabled:
                gc.disable()
            try:
                self._drain(heap, t)
            finally:
                if gc_was_enabled:
                    gc.enable()
        self.now = t

    def _drain(self, heap: List[Tuple[float, int, _Frame]], t: float) -> None:
        # One pop per hop, then one step: forward the frame onto its
        # next hop (_send_first, inlined), or hand it to the sink, which
        # may return it reloaded for its first hop.  Nothing else pushes
        # meanwhile, so the sequence and event counters live in locals.
        receive = self._sink.receive
        latency = self.latency_s
        seq = self._seq
        executed = 0
        try:
            while heap and heap[0][0] <= t:
                now, _seq, frame = heappop(heap)
                executed += 1
                idx = frame.idx + 1
                hops = frame.hops
                if idx == len(hops):
                    frame = receive(frame, now)
                    if frame is None:
                        continue
                    idx = 0
                    hops = frame.hops
                frame.idx = idx
                hop = hops[idx]
                start = hop.busy_until
                if start < now:
                    start = now
                bandwidth = hop.bandwidth_bps
                bg = hop.background_bps
                if bg:
                    bandwidth -= bg
                    if bandwidth <= 0.0:
                        bandwidth = hop.bandwidth_bps * 1e-6
                free = start + frame.bits / bandwidth
                hop.busy_until = free
                arrival = free + latency
                if arrival < hop.last_arrival:
                    arrival = hop.last_arrival
                else:
                    hop.last_arrival = arrival
                heappush(heap, (arrival, seq, frame))
                seq += 1
        finally:
            self._seq = seq
            self.events_run += executed

    def set_backgrounds(self, loads_bps: Mapping[LinkId, float]) -> None:
        """Project the fluid-only allocation onto the region hops.

        Every materialised hop gets the current fluid load of its link
        as shaped background; links the fluid side no longer uses are
        reset to zero.  Max-min feasibility guarantees background +
        promoted share <= capacity, so the residual a promoted flow
        serialises into is at least its fluid-fair share.
        """
        for hop in self._shaped:
            hop.background_bps = 0.0
        self._shaped = []
        for link, bg in loads_bps.items():
            hop = self.hops.get(link)
            if hop is not None and bg:
                hop.background_bps = bg
                self._shaped.append(hop)
        self.background_links = len(self._shaped)

    def harvest(self) -> Tuple[Dict[int, float], List[Tuple[ZoomFlow, float]]]:
        """Collect per-flow bits delivered since the last harvest, and
        the flows that finished.  Finished zooms leave the live list."""
        delivered: Dict[int, float] = {}
        for zoom in self.zooms:
            if zoom.delivered_epoch:
                delivered[zoom.flow.fid] = zoom.delivered_epoch
                zoom.delivered_epoch = 0.0
        finished = self.finished
        if finished:
            self.finished = []
            done = set(id(z) for z, _t in finished)
            self.zooms = [z for z in self.zooms if id(z) not in done]
        return delivered, finished

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "clock_s": self.now,
            "events_run": self.events_run,
            "frames_delivered": self.frames_delivered,
            "hops": len(self.hops),
            "live_flows": len(self.zooms),
            "background_links": self.background_links,
        }
