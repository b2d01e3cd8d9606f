"""Every DPS reads only the candidate's two endpoint links.

The admission controller memoizes whole assessments per
``(source, destination, spec)`` and revalidates them against the
epochs of the source uplink and the destination downlink alone. That is
sound only while each scheme's ``partition``/``partition_with_probe``
queries no other link of the ``LoadView``; these tests pin the rule for
every scheme by recording the links a scheme asks about.
"""

from __future__ import annotations

import pytest

from repro.core.admission import AdmissionController, SystemState
from repro.core.channel import ChannelSpec
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.core.partitioning_ext import (
    LaxityDPS,
    SearchDPS,
    UtilizationDPS,
    _AdpsHeuristic,
)
from repro.core.task import LinkRef

NODES = ["m0", "m1", "s0", "s1"]
SPEC = ChannelSpec(period=100, capacity=3, deadline=40)


class RecordingLoads:
    """A LoadView wrapper that records every link it is asked about."""

    def __init__(self, base) -> None:
        self._base = base
        self.queried: list[LinkRef] = []

    def link_load(self, link):
        self.queried.append(link)
        return self._base.link_load(link)

    def link_utilization(self, link):
        self.queried.append(link)
        return self._base.link_utilization(link)


def loaded_state() -> SystemState:
    """Channels on every link, so a stray read would see real load."""
    state = SystemState(NODES)
    ctrl = AdmissionController(state, SymmetricDPS())
    for source, destination in (
        ("m0", "s0"), ("m0", "s1"), ("m1", "s0"), ("m1", "s1"),
        ("s0", "m1"), ("s1", "m0"),
    ):
        assert ctrl.request(source, destination, SPEC).accepted
    return state


SCHEMES = [
    SymmetricDPS(),
    AsymmetricDPS(),
    UtilizationDPS(),
    LaxityDPS(),
    SearchDPS(),
    SearchDPS(strict=True),
    _AdpsHeuristic(),
]


@pytest.mark.parametrize(
    "scheme", SCHEMES, ids=lambda s: f"{s.name}-{type(s).__name__}"
)
@pytest.mark.parametrize("probing", [False, True], ids=["partition", "probe"])
def test_scheme_reads_only_endpoint_links(scheme, probing):
    state = loaded_state()
    source, destination = "m0", "s1"
    allowed = {LinkRef.uplink(source), LinkRef.downlink(destination)}
    loads = RecordingLoads(state.with_candidate(source, destination, SPEC))
    if probing:
        probed = []

        def probe(partition):
            # Refuse the first few splits so a searching scheme fans out.
            probed.append(partition)
            return len(probed) > 3

        scheme.partition_with_probe(source, destination, SPEC, loads, probe)
    else:
        scheme.partition(source, destination, SPEC, loads)
    assert set(loads.queried) <= allowed
    if not isinstance(scheme, SymmetricDPS):
        # State-dependent schemes must actually consult the view (the
        # recorder is wired in), and only ever the two endpoint links.
        assert loads.queried
