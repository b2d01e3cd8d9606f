"""Every DPS reads only the links of the candidate's path.

The admission engine memoizes whole assessments per
``(source, destination, spec)`` and revalidates them against the
epochs of the path's links alone: on the star the source uplink and the
destination downlink, on a fabric the routed path. That is sound only
while each scheme's ``partition``/``partition_with_probe`` queries no
other link; these tests pin the rule for every star scheme (through the
``LoadView``) and both k-way fabric schemes (through the ``link_load``
callback) by recording the links a scheme asks about.
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
from repro.multiswitch.fabric import SwitchFabric
from repro.multiswitch.graph import build_fat_tree
from repro.multiswitch.partitioning import (
    MultiHopProportional,
    MultiHopSymmetric,
)

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


#: A long path on each fabric; any other fabric link is a stray read.
FABRIC_PATHS = [
    (SwitchFabric.chain(3, 2), "n0_0", "n2_1"),
    (build_fat_tree(4), "h0_0_0", "h3_1_1"),
]


@pytest.mark.parametrize(
    "scheme",
    [MultiHopSymmetric(), MultiHopProportional()],
    ids=lambda s: s.name,
)
@pytest.mark.parametrize(
    "fabric, source, destination",
    FABRIC_PATHS,
    ids=["chain", "fat-tree"],
)
def test_fabric_scheme_reads_only_path_links(
    scheme, fabric, source, destination
):
    links = fabric.path_links(source, destination)
    everywhere = {
        link
        for a in fabric.node_order
        for b in fabric.node_order
        if a != b
        for link in fabric.path_links(a, b)
    }
    assert everywhere - set(links)  # other links exist to be misread
    queried = []

    def link_load(link):
        queried.append(link)
        return 1 + len(queried)  # a real, uneven load

    parts = scheme.partition(SPEC, links, link_load)
    assert len(parts) == len(links)
    assert set(queried) <= set(links)
    if isinstance(scheme, MultiHopProportional):
        # The load-driven scheme must actually consult the callback.
        assert queried
