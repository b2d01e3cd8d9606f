"""EXP-P2 / EXP-P7: the admission fast path and the batch engine.

Times the Figure 18.5 admission sweep (10 masters, 50 slaves, the
paper's ``P=100, C=3, d=40`` spec, seed 2004) in reference seconds
(``timing.timed``), so the gates hold on a slower or busier host:

* **EXP-P2** -- controllers deciding through the incremental
  :class:`~repro.core.feasibility_cache.FeasibilityCache` against
  controllers re-running the from-scratch
  :func:`~repro.core.feasibility.is_feasible` per request (200
  requests x 5 trials). The decision streams must be identical and the
  median per-pair speedup at least 5x for SDPS, the paper's baseline
  scheme, and 3.5x for ADPS, whose partition choices shift more work
  into non-memoizable territory.
* **EXP-P7** -- ``admit_many`` on a 10 000-request burst. A cold burst
  must decide exactly as the scalar loop does; the saturated storm (a
  second identical burst against a full network: pure template/memo
  traffic, the ROADMAP's 10^6 decisions/s regime) must decide exactly
  as the scalar loop on an identically saturated controller, clear
  :data:`_STORM_RATE_FLOOR` and beat the scalar cached loop timed in
  the same run by at least 10x.

Run with ``-s`` to see the readings.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.core.admission import AdmissionController, SystemState
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.experiments.base import trial_requests
from repro.traffic.patterns import master_slave_names, master_slave_requests
from repro.traffic.spec import FixedSpecSampler

from timing import paired_ratios, timed

_SCHEMES = {"sdps": SymmetricDPS, "adps": AsymmetricDPS}
#: EXP-P2 floors on the median naive/cached ratio.
_SPEEDUP_FLOOR = {"sdps": 5.0, "adps": 3.5}
#: EXP-P7 storm floor in reference decisions/s (decisions over
#: reference seconds): 0.57x the 1.41 M median storm rate (best of 5,
#: both schemes, 10 runs each) measured on the 2-CPU reference host,
#: the headroom the earlier host-time floor (850 k against ~1.48 M) had.
_STORM_RATE_FLOOR = 810_000.0
#: Storm rate over the scalar cached rate of the same run.
_STORM_OVER_SCALAR_FLOOR = 10.0
REPEATS = 5


def fig18_5_sweep(requests: int, trials: int):
    """The Fig. 18.5 node set and one request sequence per trial."""
    masters, slaves = master_slave_names(10, 50)
    sampler = FixedSpecSampler.paper_default()

    def factory(count, rng):
        return master_slave_requests(masters, slaves, count, sampler, rng)

    return masters + slaves, [
        trial_requests(factory, 2004, trial, requests)
        for trial in range(trials)
    ]


def _scalar_sweep(nodes, sequences, scheme, use_cache=True):
    """Build one controller per sequence off the clock; return the
    callable that feeds each its sequence request by request."""
    controllers = [
        AdmissionController(
            SystemState(nodes=nodes), _SCHEMES[scheme](), use_cache=use_cache,
        )
        for _ in sequences
    ]
    return lambda: [
        controller.request(r.source, r.destination, r.spec).accepted
        for controller, requests in zip(controllers, sequences)
        for r in requests
    ]


@pytest.mark.parametrize("scheme", ["sdps", "adps"])
def test_bench_admission_speedup(scheme, capsys):
    """EXP-P2: cached admission beats from-scratch by the floor."""
    nodes, sequences = fig18_5_sweep(200, 5)
    speedup, ratios, naive, cached = paired_ratios(
        lambda: _scalar_sweep(nodes, sequences, scheme, use_cache=False),
        lambda: _scalar_sweep(nodes, sequences, scheme),
        REPEATS,
    )
    with capsys.disabled():
        print(f"\nEXP-P2 {scheme}: {len(cached)} decisions, "
              f"{sum(cached)} accepted, naive/cached "
              f"{[round(r, 2) for r in ratios]} -> median {speedup:.2f}x")
    assert naive == cached, (
        f"cached and from-scratch controllers diverged on {scheme}"
    )
    assert speedup >= _SPEEDUP_FLOOR[scheme], (
        f"cached admission speedup regressed on {scheme}: "
        f"{speedup:.2f}x < {_SPEEDUP_FLOOR[scheme]}x"
    )


@pytest.mark.parametrize("scheme", ["sdps", "adps"])
def test_bench_admission_batch_engine(scheme, capsys):
    """EXP-P7: admit_many clears the storm floor, stream-equal."""
    nodes, sequences = fig18_5_sweep(200, 5)
    scalar_s = min(
        timed(_scalar_sweep(nodes, sequences, scheme))[0]
        for _ in range(REPEATS)
    )
    scalar_rate = 200 * 5 / scalar_s

    nodes, (requests,) = fig18_5_sweep(10_000, 1)
    burst = [(r.source, r.destination, r.spec) for r in requests]

    def controller():
        return AdmissionController(SystemState(nodes=nodes), _SCHEMES[scheme]())

    cold = [d.accepted for d in controller().admit_many(burst)]
    assert cold == _scalar_sweep(nodes, [requests], scheme)(), (
        f"admit_many diverged from the scalar loop on {scheme}"
    )

    storm_s = float("inf")
    for _ in range(REPEATS):
        saturated = controller()
        saturated.admit_many(burst)  # untimed: fill the network
        hits_before = saturated.batch_template_hits
        seconds, decided = timed(lambda: saturated.admit_many(burst))
        storm_s = min(storm_s, seconds)
    storm_decisions = [d.accepted for d in decided]
    storm_hits = saturated.batch_template_hits - hits_before
    storm_rate = len(burst) / storm_s

    replay = controller()
    replay.admit_many(burst)
    scalar_storm = [
        replay.request(source, destination, spec).accepted
        for source, destination, spec in burst
    ]

    with capsys.disabled():
        print()
        print(format_table(
            ["scheme", "scalar ref dec/s", "storm ref dec/s", "storm/scalar",
             "template hits"],
            [[scheme, f"{scalar_rate:,.0f}", f"{storm_rate:,.0f}",
              f"{storm_rate / scalar_rate:.1f}x", storm_hits]],
            title="EXP-P7 batch admission engine (10k-request storm)",
        ))
    assert storm_decisions == scalar_storm, (
        f"saturated-storm admit_many diverged from the scalar replay on "
        f"{scheme}"
    )
    assert storm_hits > 0, (
        "storm burst never hit the template path; the measured regime is "
        "not the one the floor describes"
    )
    assert storm_rate >= _STORM_RATE_FLOOR, (
        f"storm throughput regressed on {scheme}: {storm_rate:,.0f} "
        f"< {_STORM_RATE_FLOOR:,.0f} reference dec/s"
    )
    assert storm_rate >= _STORM_OVER_SCALAR_FLOOR * scalar_rate, (
        f"storm admit_many no longer clears {_STORM_OVER_SCALAR_FLOOR}x "
        f"the scalar cached path on {scheme}: {storm_rate:,.0f} vs "
        f"{scalar_rate:,.0f} reference dec/s"
    )
