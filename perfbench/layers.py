"""Per-layer metrics of a traced pass, and what each should move.

:data:`LAYER_METRICS` lists every per-layer metric with its unit, the
direction that is better, and the prediction a later change states its
claim against: which end-to-end metric the layer metric should move,
on which workloads. A workload missing from a prediction is one where
the layer does not run, so the prediction there is "no change".
``BENCHMARK.json`` repeats the names, units and directions.

Times are self times (seconds inside the layer's wrapped entry points,
minus time in wrapped entry points they call), summed over a pass.
"""

from __future__ import annotations

SWEEP, STAR, CHURN, FABRIC = (
    "fig18_5-sweep", "star-dataplane", "service-churn", "fabric-fattree"
)

#: (name, unit, better, [(end-to-end metric, workloads), ...])
LAYER_METRICS = (
    ("sim.events", "count", "lower", [("ops_per_s", (STAR, CHURN))]),
    ("sim.events_per_s", "1/s", "higher", [("ops_per_s", (STAR, CHURN))]),
    ("sim.max_heap_depth", "count", "lower", [("peak_rss_mb", (STAR,))]),
    ("sim.run_self_s", "s", "lower", [("ops_per_s", (STAR, CHURN))]),
    ("sim.schedule_self_s", "s", "lower", [("ops_per_s", (STAR, CHURN))]),
    ("network.transmits", "count", "lower", [("ops_per_s", (STAR,))]),
    ("network.transmit_self_s", "s", "lower", [("ops_per_s", (STAR,))]),
    ("network.rt_enqueued", "count", "higher", [("ops_per_s", (STAR,))]),
    ("network.be_enqueued", "count", "higher", [("ops_per_s", (STAR,))]),
    ("network.be_drops", "count", "lower", [("ops_per_s", (STAR,))]),
    ("network.queue_max_depth", "count", "lower", [("peak_rss_mb", (STAR,))]),
    ("network.self_s", "s", "lower", [("ops_per_s", (STAR,))]),
    ("protocol.encode_calls", "count", "lower",
     [("wall_s", (STAR,)), ("ops_per_s", (CHURN,))]),
    ("protocol.encode_s", "s", "lower",
     [("wall_s", (STAR,)), ("ops_per_s", (CHURN,))]),
    ("protocol.decode_calls", "count", "lower",
     [("wall_s", (STAR,)), ("ops_per_s", (CHURN,))]),
    ("protocol.decode_s", "s", "lower",
     [("wall_s", (STAR,)), ("ops_per_s", (CHURN,))]),
    ("admission.decisions", "count", "higher",
     [("ops_per_s", (SWEEP,)), ("wall_s", (STAR,))]),
    ("admission.accept_ratio", "ratio", "higher",
     [("ops_per_s", (SWEEP,)), ("wall_s", (STAR,))]),
    ("admission.request_s", "s", "lower",
     [("ops_per_s", (SWEEP, CHURN)), ("wall_s", (STAR,))]),
    ("admission.admit_many_s", "s", "lower",
     [("ops_per_s", (SWEEP,)), ("wall_s", (STAR,))]),
    ("cache.checks", "count", "lower", [("ops_per_s", (SWEEP, FABRIC))]),
    ("cache.memo_hits", "count", "higher", [("ops_per_s", (SWEEP, FABRIC))]),
    ("cache.incremental_checks", "count", "higher",
     [("ops_per_s", (SWEEP, FABRIC))]),
    ("cache.shortcut_accepts", "count", "higher",
     [("ops_per_s", (SWEEP, FABRIC))]),
    ("cache.full_fallbacks", "count", "lower",
     [("ops_per_s", (SWEEP, FABRIC))]),
    ("cache.fast_ratio", "ratio", "higher", [("ops_per_s", (SWEEP, FABRIC))]),
    ("cache.check_s", "s", "lower", [("ops_per_s", (SWEEP, FABRIC))]),
    ("feasibility.calls", "count", "lower", [("ops_per_s", (CHURN,))]),
    ("feasibility.s", "s", "lower", [("ops_per_s", (CHURN,))]),
    ("partitioning.split_calls", "count", "lower",
     [("wall_s", (FABRIC,)), ("ops_per_s", (FABRIC, CHURN))]),
    ("partitioning.split_s", "s", "lower",
     [("wall_s", (FABRIC,)), ("ops_per_s", (FABRIC, CHURN))]),
    ("multiswitch.decisions", "count", "higher", [("ops_per_s", (FABRIC,))]),
    ("multiswitch.path_calls", "count", "lower", [("ops_per_s", (FABRIC,))]),
    ("multiswitch.path_s", "s", "lower", [("ops_per_s", (FABRIC,))]),
    ("multiswitch.request_s", "s", "lower", [("ops_per_s", (FABRIC,))]),
    ("multiswitch.admit_many_s", "s", "lower", [("ops_per_s", (FABRIC,))]),
    ("netcalc.bound_calls", "count", "lower", [("wall_s", (FABRIC,))]),
    ("netcalc.bound_s", "s", "lower", [("wall_s", (FABRIC,))]),
    ("oracle.self_s", "s", "lower", [("wall_s", (FABRIC, CHURN))]),
    ("intent.announces", "count", "lower", [("ops_per_s", (CHURN,))]),
    ("intent.commits", "count", "higher", [("ops_per_s", (CHURN,))]),
    ("intent.aborts", "count", "lower", [("ops_per_s", (CHURN,))]),
    ("intent.defers", "count", "lower", [("ops_per_s", (CHURN,))]),
    ("intent.retransmissions", "count", "lower", [("ops_per_s", (CHURN,))]),
    ("intent.commit_ratio", "ratio", "higher", [("ops_per_s", (CHURN,))]),
    ("service.arrivals", "count", "higher", [("ops_per_s", (CHURN,))]),
    ("service.self_s", "s", "lower", [("ops_per_s", (CHURN,))]),
    ("persistence.snapshot_calls", "count", "lower", [("ops_per_s", (CHURN,))]),
    ("persistence.snapshot_s", "s", "lower", [("ops_per_s", (CHURN,))]),
    ("persistence.restore_s", "s", "lower", [("ops_per_s", (CHURN,))]),
    ("trace.spans", "count", "lower", []),
    ("trace.unattributed_s", "s", "lower", []),
    ("trace.overhead_frac", "ratio", "lower", []),
)

_ENCODERS = tuple(
    f"protocol:{kind}Frame.encode"
    for kind in ("Request", "Response", "Teardown", "Intent", "Gossip")
)
_PARTITIONERS = (
    "partitioning:SymmetricDPS.partition",
    "partitioning:AsymmetricDPS.partition",
    "partitioning:split_deadline",
)
_BOUNDS = (
    "netcalc:link_delay_bound",
    "netcalc:network_delay_bounds",
    "netcalc:path_bound_ns",
)


def layer_metrics(tracer, workload_layer: dict, wall_s: float) -> dict:
    """Every per-layer metric of one traced pass (0 where a layer is idle)."""
    summary = tracer.summary()
    layers = tracer.layer_self_times(summary)

    def calls(*names):
        return sum(summary.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    sims = tracer.instances["sims"]
    ports = tracer.instances["ports"]
    caches = [c.stats for c in tracer.instances["caches"]]
    events = sum(s.dispatched_events for s in sims)
    run_total = summary.get("sim:Simulator.run", {}).get("total_s", 0.0)
    checks = sum(c.checks for c in caches)
    fallbacks = sum(c.full_fallbacks for c in caches)
    decisions = tracer.counters.get("admission.decisions", 0)
    metrics = {
        "sim.events": events,
        "sim.events_per_s": events / run_total if run_total else 0.0,
        "sim.max_heap_depth": max((s.max_heap_depth for s in sims), default=0),
        "sim.run_self_s": self_s("sim:Simulator.run"),
        "sim.schedule_self_s": self_s("sim:Simulator.schedule_at"),
        "network.transmits": calls("network:HalfLink.transmit"),
        "network.transmit_self_s": self_s("network:HalfLink.transmit"),
        "network.rt_enqueued": sum(p.stats.rt_enqueued for p in ports),
        "network.be_enqueued": sum(p.stats.be_enqueued for p in ports),
        "network.be_drops": sum(p.stats.be_dropped for p in ports),
        "network.queue_max_depth": max(
            (max(p.stats.rt_backlog_max, p.stats.be_backlog_max)
             for p in ports), default=0),
        "network.self_s": layers.get("network", 0.0),
        "protocol.encode_calls": calls(*_ENCODERS),
        "protocol.encode_s": self_s(*_ENCODERS),
        "protocol.decode_calls": calls("protocol:decode_signaling"),
        "protocol.decode_s": self_s("protocol:decode_signaling"),
        "admission.decisions": decisions,
        "admission.accept_ratio": (
            tracer.counters.get("admission.accepts", 0) / decisions
            if decisions else 0.0
        ),
        "admission.request_s": self_s("admission:AdmissionController.request"),
        "admission.admit_many_s": self_s(
            "admission:AdmissionController.admit_many"),
        "cache.checks": checks,
        "cache.memo_hits": sum(c.memo_hits for c in caches),
        "cache.incremental_checks": sum(c.incremental_checks for c in caches),
        "cache.shortcut_accepts": sum(c.shortcut_accepts for c in caches),
        "cache.full_fallbacks": fallbacks,
        "cache.fast_ratio": (checks - fallbacks) / checks if checks else 0.0,
        "cache.check_s": self_s("feasibility_cache:FeasibilityCache.check",
                                "feasibility_cache:FeasibilityCache.batch_check"),
        "feasibility.calls": calls("feasibility:is_feasible"),
        "feasibility.s": self_s("feasibility:is_feasible"),
        "partitioning.split_calls": calls(*_PARTITIONERS),
        "partitioning.split_s": self_s(*_PARTITIONERS),
        "multiswitch.decisions": tracer.counters.get("multiswitch.decisions", 0),
        "multiswitch.path_calls": calls("multiswitch:FabricGraph.path_links"),
        "multiswitch.path_s": self_s("multiswitch:FabricGraph.path_links",
                                     "multiswitch:FabricGraph.equal_cost_paths"),
        "multiswitch.request_s": self_s(
            "multiswitch:MultiSwitchAdmission.request"),
        "multiswitch.admit_many_s": self_s(
            "multiswitch:MultiSwitchAdmission.admit_many"),
        "netcalc.bound_calls": calls(*_BOUNDS),
        "netcalc.bound_s": self_s(*_BOUNDS),
        "oracle.self_s": layers.get("oracle", 0.0),
        "service.self_s": layers.get("service", 0.0),
        "persistence.snapshot_calls": calls("persistence:snapshot"),
        "persistence.snapshot_s": self_s("persistence:snapshot"),
        "persistence.restore_s": self_s("persistence:restore"),
        "trace.spans": len(tracer.span_start),
        "trace.unattributed_s": max(0.0, wall_s - tracer.root_seconds()),
    }
    for name in ("intent.announces", "intent.commits", "intent.aborts",
                 "intent.defers", "intent.retransmissions",
                 "intent.commit_ratio", "service.arrivals"):
        metrics[name] = workload_layer.get(name, 0)
    return metrics
