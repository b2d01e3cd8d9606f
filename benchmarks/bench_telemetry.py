"""EXP-O2 / EXP-O4: telemetry overhead on the admission hot path.

The telemetry design claims metrics are *cheap enough to stay enabled
in benchmarks*: hot-path instrumentation is a handful of pre-bound
counter increments per admission decision, and everything else
(collectors, snapshots) runs off the hot path. These benchmarks hold
the claim to a number on the reproduction's hottest loop -- the
Figure 18.5 admission sweep (SDPS, 200 requests x 5 trials).

Asserted, not just printed:

* **determinism** -- both sides produce the identical decision stream
  (instrumentation must never change outcomes), and
* **overhead** -- EXP-O2: the sweep with a metrics registry attached
  (tracing off, the always-on configuration) takes at most 1.10x the
  bare sweep; EXP-O4: spans plus the invariant monitor take at most
  1.05x the metrics-only sweep.

Each gate alternates the two sides over :data:`PAIRS` pairs of runs of
:data:`ROUNDS` sweeps each, times every run in reference seconds
(``timing.timed``; a run of several sweeps spans several samples of
the host's speed) and gates the median of the per-pair ratios. Run
with ``-s`` to see the readings.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.core.admission import AdmissionController, SystemState
from repro.core.partitioning import SymmetricDPS
from repro.experiments.base import run_requests
from repro.obs import Telemetry, TelemetryConfig

from bench_admission import fig18_5_sweep
from timing import paired_ratios

#: Maximum instrumented/bare ratio (EXP-O2 acceptance threshold).
_OVERHEAD_CEILING = 1.10
#: Maximum (spans+monitor)/(metrics-only) ratio (EXP-O4 acceptance).
_SPAN_OVERHEAD_CEILING = 1.05
#: Alternating bare/instrumented pairs per gate, and sweeps per run.
PAIRS = 15
ROUNDS = 4


def _timed_run_sequences():
    """The Fig. 18.5 sweep (200 requests x 5 trials) repeated for each
    of the :data:`ROUNDS` sweeps of one timed run."""
    nodes, sequences = fig18_5_sweep(200, 5)
    return nodes, sequences * ROUNDS


def _print_gate(capsys, title, median, ratios) -> None:
    with capsys.disabled():
        print()
        print(format_table(
            ["pairs", "median", "min", "max"],
            [[len(ratios), f"{(median - 1) * 100:+.1f}%",
              f"{(min(ratios) - 1) * 100:+.1f}%",
              f"{(max(ratios) - 1) * 100:+.1f}%"]],
            title=title,
        ))


def test_bench_metrics_overhead_under_ceiling(capsys):
    """EXP-O2: enabled metrics cost <= 10% on the Fig. 18.5 sweep."""
    nodes, sequences = _timed_run_sequences()
    telemetry = Telemetry(TelemetryConfig(tracing=False))

    def prepare(registry):
        # Controllers are built off the clock; only decisions are timed.
        controllers = []
        for _ in sequences:
            controller = AdmissionController(
                SystemState(nodes=nodes), SymmetricDPS(), metrics=registry,
            )
            if registry is not None:
                telemetry.track_cache(controller.cache)
            controllers.append(controller)

        def decide():
            return [
                controller.request(r.source, r.destination, r.spec).accepted
                for controller, requests in zip(controllers, sequences)
                for r in requests
            ]
        return decide

    median, ratios, inst_decisions, bare_decisions = paired_ratios(
        lambda: prepare(telemetry.registry), lambda: prepare(None), PAIRS,
    )
    _print_gate(capsys, "EXP-O2: metrics overhead -- Fig. 18.5 sweep",
                median, ratios)

    assert inst_decisions == bare_decisions, (
        "attaching the metrics registry changed admission decisions"
    )
    assert median <= _OVERHEAD_CEILING, (
        f"metrics overhead {median:.3f}x exceeds the {_OVERHEAD_CEILING}x "
        f"ceiling (per-pair ratios {[round(r, 3) for r in ratios]})"
    )
    # the instrumented side actually recorded what it claims to record
    verdicts = telemetry.snapshot()["admission.decisions"]["series"]
    assert sum(s["value"] for s in verdicts) == len(inst_decisions) * PAIRS


def test_bench_spans_monitor_overhead_under_ceiling(capsys):
    """EXP-O4: spans + invariant monitor cost <= 5% over metrics-only.

    Both sides run the sweep through ``run_requests`` (the production
    hot path: admit_many bursts, span/monitor hooks live) with
    telemetry attached; the delta isolates the per-burst span emission
    and the monitor's (idle, on this workload) hooks. Attribution must
    never change outcomes.
    """
    nodes, sequences = _timed_run_sequences()

    def prepare(**observability):
        telemetry = Telemetry(TelemetryConfig(tracing=False, **observability))
        return lambda: [
            count
            for requests in sequences
            for count in run_requests(
                nodes, requests, SymmetricDPS(), telemetry=telemetry
            )
        ]

    median, ratios, inst_counts, base_counts = paired_ratios(
        lambda: prepare(spans=True, monitor=True), prepare, PAIRS,
    )
    _print_gate(capsys, "EXP-O4: span+monitor overhead -- Fig. 18.5 sweep",
                median, ratios)

    assert inst_counts == base_counts, (
        "enabling spans+monitor changed acceptance counts"
    )
    assert median <= _SPAN_OVERHEAD_CEILING, (
        f"span+monitor overhead {median:.3f}x exceeds the "
        f"{_SPAN_OVERHEAD_CEILING}x ceiling "
        f"(per-pair ratios {[round(r, 3) for r in ratios]})"
    )
