"""Max-min fair bandwidth allocation (progressive filling).

The throughput experiments (aggregate leaf throughput, failover rate
curves, HiBench task times) run on a fluid flow model: at any instant,
every flow gets its max-min fair share of the links it crosses, the
standard steady-state abstraction of per-flow fair queueing + TCP.

:func:`max_min_rates` implements progressive filling with per-flow
demand caps: repeatedly find the most constrained link (smallest fair
share among its unfrozen flows), freeze those flows at that share, and
subtract.  Flows whose demand is below their would-be share freeze at
their demand instead.

A route may cross the same link more than once (a hairpin through an
uplink, a detour that re-enters a pod).  Such a flow consumes its rate
once *per crossing*, so a link's fair share divides its residual by the
total crossing count, not the distinct-flow count -- and freezing
subtracts ``rate * multiplicity``.  The two bookkeeping sides agree, so
residual capacity can only go negative by float dust; anything larger
raises :class:`FairnessError` instead of being silently clamped.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

__all__ = ["max_min_rates", "FairnessError"]

LinkId = Hashable
FlowId = Hashable


class FairnessError(ValueError):
    """Inconsistent inputs: unknown links, non-positive capacities,
    negative demands -- or an internal overcommit (a bug)."""


def max_min_rates(
    flow_routes: Mapping[FlowId, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
    demands: Optional[Mapping[FlowId, float]] = None,
) -> Dict[FlowId, float]:
    """Allocate max-min fair rates.

    ``flow_routes`` maps flow id -> the links it crosses (a link listed
    twice consumes the flow's rate twice); ``capacities`` maps link ->
    capacity (any consistent unit); ``demands`` optionally caps
    individual flows and must be non-negative.  Flows with empty routes
    get their demand (or +inf -- caller beware).  Returns flow id ->
    rate.
    """
    demands = demands or {}
    for flow, demand in demands.items():
        if not demand >= 0:  # also rejects NaN
            raise FairnessError(f"negative demand for flow {flow!r}: {demand!r}")
    # Links and flows are numbered once and the fill runs on list
    # indices: link ids are tuples, whose hash every dict lookup would
    # recompute.  Link numbers follow capacity order, the bottleneck
    # freeze order.
    links = list(capacities)
    link_index = {link: i for i, link in enumerate(links)}
    flows: List[FlowId] = []
    # Per flow: (link, crossings) in first-crossing order.
    crossings: List[List[Tuple[int, int]]] = []
    # Per link: its flows in route order, once per crossing.
    users: List[List[int]] = [[] for _ in links]
    weight = [0] * len(links)  # crossings by flows not yet frozen
    for fi, (flow, route) in enumerate(flow_routes.items()):
        hops = list(map(link_index.get, route))
        if None in hops:
            link = route[hops.index(None)]
            raise FairnessError(f"flow {flow!r} crosses unknown link {link!r}")
        counts = dict.fromkeys(hops, 1)
        if len(counts) != len(hops):  # a link crossed more than once
            counts = dict.fromkeys(hops, 0)
            for li in hops:
                counts[li] += 1
        flows.append(flow)
        crossings.append(list(counts.items()))
        for li in hops:
            users[li].append(fi)
            weight[li] += 1
    caps = list(capacities.values())
    for link, cap in zip(links, caps):
        if cap <= 0:
            raise FairnessError(f"non-positive capacity on {link!r}")
    residual = [float(cap) for cap in caps]
    # Routed links with a live user, in capacity order.
    live = {li: None for li, total in enumerate(weight) if total}
    active = [True] * len(flows)
    unfrozen = len(flows)
    # Demand-capped rows still active, in route order: the only rows
    # the per-level capped scan has to look at.
    capped_rows = {
        fi: demands[flow] for fi, flow in enumerate(flows) if flow in demands
    }
    rates: Dict[FlowId, float] = {}

    def freeze(fi: int, rate: float) -> None:
        nonlocal unfrozen
        rates[flows[fi]] = rate
        active[fi] = False
        unfrozen -= 1
        for li, mult in crossings[fi]:
            left = residual[li] - rate * mult
            if left < 0.0:
                # Fair shares divide by the same multiplicities freeze
                # subtracts, so only rounding dust can land here.
                if left < -1e-9 * float(caps[li]):
                    raise FairnessError(
                        f"overcommitted link {links[li]!r} by {-left!r} "
                        f"freezing flow {flows[fi]!r} at {rate!r}"
                    )
                left = 0.0
            residual[li] = left
            total = weight[li] - mult
            weight[li] = total
            if not total:
                del live[li]
        capped_rows.pop(fi, None)

    def still_active() -> List[int]:
        return [fi for fi, on in enumerate(active) if on]

    # Flows with no capacity constraint at all freeze at their demand.
    for fi, hops in enumerate(crossings):
        if not hops:
            freeze(fi, float(demands.get(flows[fi], math.inf)))

    while unfrozen:
        # The fair increment every remaining flow could still take: a
        # flow crossing a link m times eats m units of weight there.
        bottleneck_share = math.inf
        for li in live:
            share = residual[li] / weight[li]
            if share < bottleneck_share:
                bottleneck_share = share
        # Demand-capped flows below the share freeze first.
        limit = bottleneck_share + 1e-15
        capped = [fi for fi, demand in capped_rows.items() if demand <= limit]
        if capped:
            for fi in capped:
                freeze(fi, float(demands[flows[fi]]))
            continue
        if not math.isfinite(bottleneck_share):
            # No link constrains the rest (shouldn't happen: handled
            # above), freeze them at demand.
            for fi in still_active():
                freeze(fi, float(demands.get(flows[fi], math.inf)))
            break
        # Freeze every flow on a bottleneck link at the share, link by
        # link in capacity order and flow by flow in route order, so the
        # freeze sequence is deterministic.
        froze_any = False
        for li in list(live):
            if li in live and residual[li] / weight[li] <= limit:
                for fi in users[li]:
                    if active[fi]:
                        freeze(fi, bottleneck_share)
                        froze_any = True
        if not froze_any:  # numerical corner: freeze everything
            for fi in still_active():
                freeze(fi, bottleneck_share)
    return rates
