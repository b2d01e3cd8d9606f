"""The four benchmark workloads: seeded inputs, one timed pass, checks.

Each workload is a closed loop: the runner builds a fresh state with
``setup(seed, size)`` and then runs ``run_pass(state, probe)`` as fast
as it can, one pass after the other. A pass drives the program through
its public entry points and checks what it produced. ``probe`` marks
the workload's operations; the untraced run passes :data:`NO_PROBE`,
which records nothing.

The program is imported inside the functions, so a child process can
time ``import + setup`` as the workload's set-up cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import program_time

#: Seed whose outputs are pinned (``results/fig18_5.csv`` and
#: ``expected.json``); it is also the default of ``--seed``.
DEFAULT_SEED = 2004
#: Seed kept out of development: a later performance claim is checked
#: on it as well, so it cannot have been tuned against.
HELD_OUT_SEED = 4099

SIZES = ("full", "tiny")
_EXPECTED = Path(__file__).with_name("expected.json")


class _NoProbe:
    @staticmethod
    def operation(name):
        return contextlib.nullcontext()


NO_PROBE = _NoProbe()


@dataclass
class PassResult:
    """What one pass did and whether its outputs were right."""

    #: operations attempted (decisions, or handshakes and RT frames sent)
    attempted: int
    #: units of the workload's throughput (decisions or frames)
    work: int
    #: sha256 of the program's canonical outputs for this pass
    outputs: str
    #: one entry per failed output check: the outputs are wrong
    failures: list[str] = field(default_factory=list)
    #: one entry per operation that failed without a wrong output
    failed_ops: list[str] = field(default_factory=list)
    #: star-dataplane's own measurements, printed next to the metrics
    extras: dict = field(default_factory=dict)
    #: per-layer counters only the workload can see (service layer)
    layer: dict = field(default_factory=dict)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _pin(workload: str, seed: int, size: str) -> str | None:
    """The pinned output digest, for the default seed at full size."""
    if seed != DEFAULT_SEED or size != "full":
        return None
    return json.loads(_EXPECTED.read_text())[workload]


def _check_pin(result: PassResult, pin: str | None) -> None:
    if pin is not None and result.outputs != pin:
        result.failures.append(
            f"outputs {result.outputs[:12]} differ from the pinned {pin[:12]}"
        )


# -- fig18_5-sweep -----------------------------------------------------------


@dataclass
class _SweepState:
    config: object
    pinned_csv: str | None


def sweep_setup(seed: int, size: str) -> _SweepState:
    from repro.experiments.fig18_5 import Fig185Config

    config = Fig185Config(trials=20 if size == "full" else 2, seed=seed,
                          workers=1)
    pinned = None
    if seed == DEFAULT_SEED and size == "full":
        path = Path("results") / "fig18_5.csv"
        pinned = path.read_text() if path.is_file() else ""
    return _SweepState(config, pinned)


def sweep_pass(state: _SweepState, probe=NO_PROBE) -> PassResult:
    from repro.analysis.export import series_to_csv
    from repro.experiments.fig18_5 import run_fig18_5

    result = run_fig18_5(state.config)
    curve = result.curve
    requested = list(curve.requested)
    series = {c.scheme: c.means for c in curve.curves}
    csv_text = series_to_csv("requested", requested, series)
    decisions = max(requested) * state.config.trials * len(series)
    out = PassResult(
        attempted=decisions, work=decisions,
        outputs=hashlib.sha256(csv_text.encode()).hexdigest(),
    )
    if state.pinned_csv is not None and csv_text != state.pinned_csv:
        out.failures.append("curve differs from results/fig18_5.csv")
    if result.adps_final_mean < result.sdps_final_mean:
        out.failures.append("ADPS accepts fewer than SDPS at saturation")
    for scheme, means in series.items():
        if any(m > r for m, r in zip(means, requested)):
            out.failures.append(f"{scheme} accepts more than requested")
        if any(b < a for a, b in zip(means, means[1:])):
            out.failures.append(f"{scheme} curve decreases")
    return out


# -- star-dataplane ----------------------------------------------------------


@dataclass
class _StarState:
    net: object
    requests: list
    masters: list
    slaves: list
    periods: int
    #: analytic admission's verdicts on the same requests
    expected_grants: list
    pin: str | None


def _fig18_5_requests(seed: int, count: int):
    from repro.core.channel import ChannelSpec
    from repro.experiments.base import trial_requests
    from repro.traffic.patterns import master_slave_names, master_slave_requests
    from repro.traffic.spec import FixedSpecSampler

    masters, slaves = master_slave_names(10, 50)
    sampler = FixedSpecSampler(ChannelSpec(period=100, capacity=3, deadline=40))

    def factory(n, rng):
        return master_slave_requests(masters, slaves, n, sampler, rng)

    return masters, slaves, trial_requests(factory, seed, 0, count)


def star_setup(seed: int, size: str) -> _StarState:
    from repro.core.admission import AdmissionController, SystemState
    from repro.core.partitioning import AsymmetricDPS
    from repro.network.topology import build_star

    count, periods = (200, 20) if size == "full" else (20, 2)
    masters, slaves, requests = _fig18_5_requests(seed, count)
    net = build_star(masters + slaves, dps=AsymmetricDPS())
    analytic = AdmissionController(SystemState(masters + slaves),
                                   AsymmetricDPS())
    expected = [d.accepted for d in analytic.admit_many(
        (r.source, r.destination, r.spec) for r in requests)]
    return _StarState(net, requests, masters, slaves, periods, expected,
                      _pin("star-dataplane", seed, size))


def star_pass(state: _StarState, probe=NO_PROBE) -> PassResult:
    from repro.errors import TopologyError
    from repro.traffic.besteffort import BestEffortInjector

    net = state.net
    failures = []
    setup_ms = []
    wire = []
    for request in state.requests:
        with probe.operation("establish"):
            start = program_time()
            try:
                grant = net.establish(
                    request.source, request.destination, request.spec
                )
            except TopologyError as exc:
                grant = None
                failures.append(f"handshake incomplete: {exc}")
            setup_ms.append((program_time() - start) * 1e3)
        wire.append(grant is not None)

    injectors = [
        BestEffortInjector(sim=net.sim, node=net.nodes[m],
                           destinations=state.slaves, mode="saturate")
        for m in state.masters
    ]
    period_ns = 100 * net.phy.slot_ns
    horizon = net.sim.now + state.periods * period_ns
    with probe.operation("dataplane"):
        for injector in injectors:
            injector.start()
        net.start_all_sources(stop_after_messages=state.periods)
        net.sim.run(until=horizon)
        for injector in injectors:
            injector.stop()
        net.sim.run(until=horizon + period_ns)

    metrics = net.metrics
    slot_ns, t_latency_ns = net.phy.slot_ns, net.phy.t_latency_ns
    deadline_of = {g.channel_id: g.spec.deadline for g in net.grants}
    worst_frac = max(
        (s.worst_delay_ns / (deadline_of[cid] * slot_ns + t_latency_ns)
         for cid, s in metrics.channels.items()),
        default=0.0,
    )
    expected_rt = sum(g.spec.capacity for g in net.grants) * state.periods
    rt_frames = metrics.total_rt_frames
    be_frames = metrics.be_frames_delivered

    if state.expected_grants != wire:
        failures.append("wire grants differ from analytic admission")
    misses = metrics.total_deadline_misses
    failures.extend(["RT deadline miss"] * misses)
    if rt_frames != expected_rt:
        failures.append(f"{rt_frames} RT frames delivered, {expected_rt} sent")
    if worst_frac > 1:
        failures.append(f"worst RT delay {worst_frac:.3f} of the Eq. 18.1 bound")

    outputs = _digest({
        "grants": [[g.channel_id, g.source, g.destination,
                    g.uplink_deadline_slots] for g in net.grants],
        "rt_frames": rt_frames, "be_frames": be_frames,
        "worst_delay_ns": metrics.worst_rt_delay_ns,
    })
    out = PassResult(
        attempted=len(state.requests) + expected_rt,
        work=rt_frames + be_frames,
        outputs=outputs, failures=failures,
        extras={"setup_ms": setup_ms, "rt_worst_delay_frac": worst_frac},
    )
    _check_pin(out, state.pin)
    return out


# -- service-churn -----------------------------------------------------------


@dataclass
class _ChurnState:
    #: the run's seed first, then seeds derived from it
    seeds: list
    horizon_ns: int
    kill_ns: int
    checkpoint_ns: int
    loss: float
    pin: str | None


def churn_setup(seed: int, size: str) -> _ChurnState:
    import repro.experiments.service_soak  # noqa: F401  (program import cost)

    # The protocol's work per decision differs a lot from one seed to
    # the next, so a pass runs the sequence on twelve seeds derived from
    # the run's seed; the run's own seed comes first.
    count, horizon = (12, 200_000_000) if size == "full" else (2, 40_000_000)
    seeds = [seed] + [
        int.from_bytes(hashlib.sha256(f"{seed}/{k}".encode()).digest()[:4],
                       "big")
        for k in range(1, count)
    ]
    return _ChurnState(seeds, horizon, horizon // 2, 10_000_000, 0.2,
                       _pin("service-churn", seed, size))


def _since(counters: dict, base: dict, key: str) -> int:
    return counters.get(key, 0) - base.get(key, 0)


def churn_pass(state: _ChurnState, probe=NO_PROBE) -> PassResult:
    """EXP-X4 on each seed: lossy two-switch fabric and single-switch
    service, each run uninterrupted and killed-and-resumed."""
    soaks = [_soak(seed, state, probe) for seed in state.seeds]
    totals: dict = {}
    for soak in soaks:
        for key, value in soak["layer"].items():
            totals[key] = totals.get(key, 0) + value
    resolved = totals["intent.commits"] + totals["intent.aborts"]
    totals["intent.commit_ratio"] = (
        totals["intent.commits"] / resolved if resolved else 0.0
    )
    decisions = sum(soak["decisions"] for soak in soaks)
    out = PassResult(
        attempted=decisions, work=decisions,
        outputs=_digest([soak["ledgers"] for soak in soaks]),
        failures=[f for soak in soaks for f in soak["failures"]],
        failed_ops=[f for soak in soaks for f in soak["failed_ops"]],
        layer=totals,
    )
    _check_pin(out, state.pin)
    return out


def _soak(seed: int, state: _ChurnState, probe) -> dict:
    from repro.core.admission import AdmissionController, SystemState
    from repro.core.partitioning import SymmetricDPS
    from repro.faults.plan import FaultPlan
    from repro.obs.monitor import InvariantMonitor
    from repro.service import (
        AdmissionService, ChurnConfig, ChurnProcess, SharedLinkFabric, resume,
    )
    from repro.sim.rng import RngRegistry

    horizon, kill, every = state.horizon_ns, state.kill_ns, state.checkpoint_ns

    def fabric():
        return SharedLinkFabric(
            n_switches=2, nodes_per_switch=4, seed=seed,
            fault_plan=FaultPlan.control_loss(state.loss, seed=seed),
            checkpoint_every_ns=every,
        )

    with probe.operation("fabric.reference"):
        reference = fabric()
        reference.start()
        reference.run_until(horizon)
    with probe.operation("fabric.victim"):
        victim = fabric()
        victim.start()
        victim.run_until(kill)
        checkpoint = json.loads(json.dumps(victim.checkpoints[-1]))
    with probe.operation("fabric.resume"):
        resumed = SharedLinkFabric.resume(
            checkpoint,
            fault_plan=FaultPlan.control_loss(state.loss, seed=seed),
            checkpoint_every_ns=every,
        )
        resumed.run_until(horizon)
    # Kill/resume identity holds at the horizon; quiesce() then drains
    # the resumed fabric alone.
    fabric_ledger = [list(e) for e in reference.ledger]
    rebuilt = [list(e) for e in
               victim.ledger[: checkpoint["ledger_len"]] + resumed.ledger]
    states = [json.loads(json.dumps([c.export_state() for c in f.coordinators]))
              for f in (reference, resumed)]
    with probe.operation("fabric.quiesce"):
        resumed.quiesce()
        monitor = InvariantMonitor()
        monitor.check_shared_links(resumed, resumed.now, require_converged=True)

    nodes = tuple(f"m{i}" for i in range(6))
    config = ChurnConfig(nodes=nodes)

    def service():
        controller = AdmissionController(SystemState(nodes), SymmetricDPS())
        return AdmissionService(controller, ChurnProcess(RngRegistry(seed), config),
                                checkpoint_every_ns=every)

    with probe.operation("service.reference"):
        svc_ref = service()
        svc_ref.start()
        svc_ref.run_until(horizon)
    with probe.operation("service.victim"):
        svc_victim = service()
        svc_victim.start()
        svc_victim.run_until(kill)
        svc_cp = svc_victim.last_checkpoint
    with probe.operation("service.resume"):
        svc_resumed = resume(json.loads(json.dumps(svc_cp.data)), SymmetricDPS(),
                             RngRegistry(seed), config)
        svc_resumed.run_until(horizon)

    failures = []
    if fabric_ledger != rebuilt:
        failures.append("fabric kill/resume ledger differs")
    if states[0] != states[1]:
        failures.append("fabric kill/resume coordinator state differs")
    failed_ops = []
    for anomaly in monitor.anomalies:
        # A critical anomaly (shared-link-double-book) is a wrong
        # admission outcome. A warning (shared-link-divergence: trunk
        # views still differ at quiescence) is a reconciliation that
        # failed to converge: counted as a failed operation.
        text = f"{anomaly['invariant']}: {anomaly['detail']}"
        if anomaly["severity"] == "critical":
            failures.append(text)
        else:
            failed_ops.append(text)
    failures.extend(
        f"leaked reservation {cid}" for cid in resumed.leaked_reservations()
    )
    svc_rebuilt = svc_victim.ledger[: svc_cp.data["ledger_len"] + 1] + svc_resumed.ledger
    service_ledger = [list(e) for e in svc_ref.ledger]
    if service_ledger != [list(e) for e in svc_rebuilt]:
        failures.append("service kill/resume ledger differs")
    if svc_ref.final_state_json() != svc_resumed.final_state_json():
        failures.append("service kill/resume state differs")

    # Work done by all three runs of each: the resumed run restarts its
    # counters from the checkpoint, whose prefix the victim already did.
    fabric_work = {
        key: reference.counters[key] + victim.counters[key]
        + _since(resumed.counters, checkpoint["counters"], key)
        for key in ("arrivals", "commits", "aborts", "defers",
                    "retransmissions")
    }
    service_arrivals = (
        svc_ref.counters["arrivals"] + svc_victim.counters["arrivals"]
        + _since(svc_resumed.counters, svc_cp.data["counters"], "arrivals")
    )
    announces = sum(
        1 for ledger in (reference.ledger, victim.ledger, resumed.ledger)
        for entry in ledger if entry[0] == "announce"
    )
    return {
        "decisions": fabric_work["arrivals"] + service_arrivals,
        "ledgers": {"fabric": fabric_ledger, "service": service_ledger},
        "failures": failures,
        "failed_ops": failed_ops,
        "layer": {
            "intent.announces": announces,
            "intent.commits": fabric_work["commits"],
            "intent.aborts": fabric_work["aborts"],
            "intent.defers": fabric_work["defers"],
            "intent.retransmissions": fabric_work["retransmissions"],
            "service.arrivals": service_arrivals,
        },
    }


# -- fabric-fattree ----------------------------------------------------------


@dataclass
class _FabricState:
    config: object
    pin: str | None


def fabric_setup(seed: int, size: str) -> _FabricState:
    from repro.experiments.fabric_sweep import FabricSweepConfig

    if size == "full":
        config = FabricSweepConfig(topology="fat-tree:8", requests=400,
                                   trials=5, seed=seed, cross_check=True)
    else:
        config = FabricSweepConfig(topology="fat-tree:4", requests=40,
                                   trials=1, seed=seed, cross_check=True)
    return _FabricState(config, _pin("fabric-fattree", seed, size))


def fabric_pass(state: _FabricState, probe=NO_PROBE) -> PassResult:
    from repro.experiments.fabric_sweep import run_fabric_sweep

    config = state.config
    result = run_fabric_sweep(config)
    # trials x {msym, mprop}, plus the cross-check's replay of trial 0
    decisions = config.requests * 2 * (config.trials + 1)
    failures = [
        f"cross-check: {line}"
        for check in result.cross_checks for line in check.disagreements
    ]
    if not result.cross_checks:
        failures.append("cross-check did not run")
    points = [[p.requested, p.symmetric_mean, p.proportional_mean]
              for p in result.points]
    out = PassResult(
        attempted=decisions, work=decisions,
        outputs=_digest({
            "points": points,
            "links_checked": [c.links_checked for c in result.cross_checks],
        }),
        failures=failures,
    )
    _check_pin(out, state.pin)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run_pass: object
    #: what ``ops_per_s`` counts on this workload
    unit: str
    #: passes a run makes even past ``--seconds``
    min_passes: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig18_5-sweep", sweep_setup, sweep_pass, "decisions", 5),
        Workload("star-dataplane", star_setup, star_pass, "frames", 5),
        Workload("service-churn", churn_setup, churn_pass, "decisions", 3),
        Workload("fabric-fattree", fabric_setup, fabric_pass, "decisions", 3),
    )
}
