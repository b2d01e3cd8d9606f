"""In-memory span tracer installed around the program's layer entry points.

The benchmark's traced run wraps the public entry points of each layer
(listed in :data:`TARGETS`) from outside the program: the original
attribute is replaced by a wrapper that records one span per call and
is put back by :meth:`Tracer.uninstall`. The untraced run never builds
a :class:`Tracer`, so it executes the program's own code objects.

A span is ``(name, start, end, parent, trace)``. Spans opened with no
enclosing span, and spans of an *operation* (``root=True`` targets and
:meth:`Tracer.operation`), start a new trace id; every span nested
under them shares it. A span's self time is its duration minus the
durations of its direct children, and a layer's self time is the sum
over its spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from array import array

from calibrate import program_time

__all__ = ["TARGETS", "Tracer"]


def _count_request(tracer, result):
    # admit_many may decide through request(); count each decision once.
    if not tracer.active.get("admission:AdmissionController.admit_many"):
        tracer.bump("admission.decisions", 1)
        tracer.bump("admission.accepts", 1 if result.accepted else 0)


def _count_batch(tracer, result):
    tracer.bump("admission.decisions", len(result))
    tracer.bump("admission.accepts", sum(1 for d in result if d.accepted))


def _count_ms_request(tracer, result):
    if not tracer.active.get("multiswitch:MultiSwitchAdmission.admit_many"):
        tracer.bump("multiswitch.decisions", 1)


def _count_ms_batch(tracer, result):
    tracer.bump("multiswitch.decisions", len(result))


#: (layer, module, attribute path, options). ``collect`` targets are
#: constructors whose instances are kept so their counters can be read
#: when the pass ends; they record no span. ``root`` targets start a
#: new trace id: each call is one workload operation.
TARGETS = (
    ("sim", "repro.sim.kernel", "Simulator.__init__", {"collect": "sims"}),
    ("sim", "repro.sim.kernel", "Simulator.run", {}),
    ("sim", "repro.sim.kernel", "Simulator.schedule_at", {}),
    ("network", "repro.network.link", "HalfLink.transmit", {}),
    ("network", "repro.network.port", "OutputPort.__init__",
     {"collect": "ports"}),
    ("network", "repro.network.port", "OutputPort.submit_rt", {}),
    ("network", "repro.network.port", "OutputPort.submit_be", {}),
    ("network", "repro.network.switch", "Switch.receive", {}),
    ("network", "repro.network.node", "EndNode.receive", {}),
    ("protocol", "repro.protocol.frames", "RequestFrame.encode", {}),
    ("protocol", "repro.protocol.frames", "ResponseFrame.encode", {}),
    ("protocol", "repro.protocol.frames", "TeardownFrame.encode", {}),
    ("protocol", "repro.protocol.frames", "IntentFrame.encode", {}),
    ("protocol", "repro.protocol.frames", "GossipFrame.encode", {}),
    ("protocol", "repro.protocol.frames", "decode_signaling", {}),
    ("admission", "repro.core.admission", "AdmissionController.request",
     {"hook": _count_request}),
    ("admission", "repro.core.admission", "AdmissionController.admit_many",
     {"hook": _count_batch}),
    ("admission", "repro.core.admission", "AdmissionController.release", {}),
    ("feasibility_cache", "repro.core.feasibility_cache",
     "FeasibilityCache.__init__", {"collect": "caches"}),
    ("feasibility_cache", "repro.core.feasibility_cache",
     "FeasibilityCache.check", {}),
    ("feasibility_cache", "repro.core.feasibility_cache",
     "FeasibilityCache.batch_check", {}),
    ("feasibility", "repro.core.feasibility", "is_feasible", {}),
    ("partitioning", "repro.core.partitioning", "SymmetricDPS.partition", {}),
    ("partitioning", "repro.core.partitioning", "AsymmetricDPS.partition",
     {}),
    ("partitioning", "repro.multiswitch.partitioning", "split_deadline", {}),
    ("multiswitch", "repro.multiswitch.graph", "FabricGraph.path_links", {}),
    ("multiswitch", "repro.multiswitch.graph",
     "FabricGraph.equal_cost_paths", {}),
    ("multiswitch", "repro.multiswitch.admission",
     "MultiSwitchAdmission.request", {"hook": _count_ms_request}),
    ("multiswitch", "repro.multiswitch.admission",
     "MultiSwitchAdmission.admit_many", {"hook": _count_ms_batch}),
    ("netcalc", "repro.netcalc.bounds", "link_delay_bound", {}),
    ("netcalc", "repro.netcalc.bounds", "network_delay_bounds", {}),
    ("netcalc", "repro.netcalc.bounds", "path_bound_ns", {}),
    ("oracle", "repro.oracle.netcalc", "netcalc_cross_check", {}),
    ("oracle", "repro.obs.monitor", "InvariantMonitor.check_shared_links",
     {}),
    ("service", "repro.service.intent", "IntentCoordinator.begin_intent", {}),
    ("service", "repro.service.intent", "SharedLinkFabric.run_until", {}),
    ("service", "repro.service.intent", "SharedLinkFabric.quiesce", {}),
    ("service", "repro.service.service", "AdmissionService.run_until", {}),
    ("persistence", "repro.core.persistence", "snapshot", {}),
    ("persistence", "repro.core.persistence", "restore", {}),
    ("runner", "repro.experiments.base", "run_requests", {"root": True}),
    ("runner", "repro.experiments.runner", "parallel_map",
     {"units": True}),
)


class Tracer:
    """Spans and call counts of one traced pass, held in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.instances: dict[str, list] = {"sims": [], "ports": [],
                                           "caches": []}
        self.clear()

    # -- recording ---------------------------------------------------------

    def clear(self) -> None:
        """Drop spans and counters (wrappers and instances stay)."""
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_trace = array("l")
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._next_trace = 0

    def bump(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _name_id(self, name: str, layer: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return ident

    def _open(self, name_id: int, root: bool) -> int:
        index = len(self.span_start)
        stack = self.stack
        if stack:
            parent = stack[-1]
            trace = self.span_trace[parent]
        else:
            parent = -1
            trace = -1
        if root or trace < 0:
            trace = self._next_trace
            self._next_trace += 1
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_trace.append(trace)
        self.span_end.append(0.0)
        stack.append(index)
        self.span_start.append(program_time())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = program_time()
        self.stack.pop()

    @contextlib.contextmanager
    def operation(self, name: str):
        """One workload operation: a root span with its own trace id."""
        index = self._open(self._name_id("op:" + name, "bench"), True)
        try:
            yield
        finally:
            self._close(index)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raises if an entry point has moved."""
        for layer, module_name, path, options in TARGETS:
            module = importlib.import_module(module_name)
            owner = module
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            if (isinstance(original, (staticmethod, classmethod, property))
                    or inspect.isgeneratorfunction(original)):
                # A span around these would not cover the work they do.
                raise TypeError(f"cannot trace {module_name}.{path}")
            wrapper = self._wrap(layer, f"{layer}:{path}", original, options)
            self._patch(owner, attr, original, wrapper)
            if owner is module:
                # Modules that did `from x import f` hold their own binding.
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "") or ""
                    if (name.startswith("repro") and other is not module
                            and other.__dict__.get(attr) is original):
                        self._patch(other, attr, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer, name, original, options):
        tracer = self
        collect = options.get("collect")
        if collect is not None:
            bucket = self.instances[collect]

            def construct(instance, *args, **kwargs):
                original(instance, *args, **kwargs)
                bucket.append(instance)

            return construct
        name_id = self._name_id(name, layer)
        root = bool(options.get("root"))
        hook = options.get("hook")
        if options.get("units"):
            unit_name = self._name_id(name + ".unit", layer)

            def mapper(fn, items, workers):
                def unit(item):
                    index = tracer._open(unit_name, True)
                    try:
                        return fn(item)
                    finally:
                        tracer._close(index)

                return original(unit, items, workers)

            return mapper

        def wrapper(*args, **kwargs):
            counts = tracer.active
            counts[name] = counts.get(name, 0) + 1
            index = tracer._open(name_id, root)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
                counts[name] -= 1
            if hook is not None:
                hook(tracer, result)
            return result

        return functools.wraps(original)(wrapper)

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        count = len(self.span_start)
        child = [0.0] * count
        durations = [0.0] * count
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(count):
            durations[i] = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += durations[i]
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names
        }
        names = self.names
        for i in range(count):
            entry = out[names[self.span_name[i]]]
            entry["calls"] += 1
            entry["total_s"] += durations[i]
            entry["self_s"] += durations[i] - child[i]
        return out

    def layer_self_times(self, summary) -> dict[str, float]:
        layers: dict[str, float] = {}
        for name, entry in summary.items():
            layer = self.layers[self._name_ids[name]]
            layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
        return layers

    def root_seconds(self) -> float:
        """Host seconds covered by top-level spans."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] < 0
        )

    def trace_count(self) -> int:
        return self._next_trace

    def write_spans(self, path) -> None:
        """One JSON line per span: trace, id, parent, name, start, end."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.span_start)):
                out.write(json.dumps([
                    self.span_trace[i], i, self.span_parent[i],
                    self.names[self.span_name[i]],
                    round(self.span_start[i] - origin, 9),
                    round(self.span_end[i] - origin, 9),
                ]) + "\n")
