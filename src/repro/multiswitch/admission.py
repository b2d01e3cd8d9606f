"""Admission control over a switch fabric (multi-hop EDF analysis).

The per-link theory is exactly the paper's (Section 18.3.2): each
directed fabric link is a uniprocessor, each channel contributes one
supposed task per traversed link with the per-hop deadline chosen by a
:class:`~repro.multiswitch.partitioning.MultiHopDPS`. A request is
admitted when *every* link of its routed path remains feasible -- the
rule :class:`~repro.core.admission.AdmissionEngine` decides for the star
too, so this module only supplies the routed path, the k-way partition
and the fabric's decision record.

One modelling note: an inter-switch link carries tasks of many channels
whose upstream hop counts differ; as on the star's downlink, the
per-link demand analysis treats every task as released synchronously,
which is the conservative critical instant (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..core.admission import AdmissionEngine, path_delay_bounds
from ..core.channel import ChannelSpec
from ..core.feasibility import FeasibilityReport
from ..core.feasibility_cache import FeasibilityCache
from ..core.task import LinkRef, LinkTask
from ..errors import UnknownChannelError
from .graph import FabricGraph, FabricLink
from .partitioning import MultiHopDPS

if TYPE_CHECKING:
    from ..netcalc.bounds import PathBound

__all__ = ["MultiAdmissionDecision", "MultiSwitchAdmission"]


@dataclass(frozen=True, slots=True)
class MultiAdmissionDecision:
    """Outcome of one multi-hop admission attempt."""

    accepted: bool
    channel_id: int
    source: str
    destination: str
    spec: ChannelSpec
    links: tuple[FabricLink, ...]
    parts: tuple[int, ...]
    #: Per-link feasibility evidence, aligned with ``links``; shorter
    #: when the test aborted at the first infeasible link.
    reports: tuple[FeasibilityReport, ...] = ()
    failed_link: FabricLink | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _link_ref(link: FabricLink) -> LinkRef:
    """The (interned) LinkRef that keys a fabric link in the task store.

    The direction is vestigial here (every fabric link is just "a
    processor"); the full directed pair is encoded in the node field.
    """
    return LinkRef.uplink(f"{link.tail}->{link.head}")


class MultiSwitchAdmission(AdmissionEngine):
    """Admit-or-reject over a fabric graph.

    The fabric front end of :class:`~repro.core.admission.AdmissionEngine`:
    the path is the fabric's routed path, the test stops at the first
    infeasible link (reported as ``failed_link``), and the assessment
    memo skips re-routing on a hit. That is exact because the route is a
    pure function of ``(routing_seed, source, destination)`` -- the
    topology must not be re-cabled while admission runs on it -- and
    both k-way schemes read only the links of the path they are handed.
    Requests naming an unknown host raise from routing.

    Parameters
    ----------
    fabric:
        The (validated) topology -- a tree
        :class:`~repro.multiswitch.fabric.SwitchFabric` or any
        multipath :class:`~repro.multiswitch.graph.FabricGraph`
        (fat-tree, ring); routing determinism is the fabric's
        responsibility (seeded equal-cost tie-break), admission just
        analyses the links of the path it is handed.
    dps:
        A k-way deadline-partitioning scheme.
    use_cache:
        When True (default), per-link feasibility goes through the
        incremental ``check``/``batch_check`` of the admission's task
        store, a :class:`~repro.core.feasibility_cache.FeasibilityCache`
        with one entry per directed fabric link; decisions are identical
        to the from-scratch path, just cheaper per request. With False
        the store is only read (``tasks_on``) and every link is tested
        with :func:`~repro.core.feasibility.is_feasible`.
    """

    _TEST_WHOLE_PATH = False

    def __init__(
        self,
        fabric: FabricGraph,
        dps: MultiHopDPS,
        *,
        use_cache: bool = True,
    ) -> None:
        fabric.validate_connected()
        self._fabric = fabric
        self._dps = dps
        self._channels: dict[int, MultiAdmissionDecision] = {}
        #: The per-link task store: every admitted channel's supposed
        #: tasks, keyed by ``_link_ref`` of their fabric link.
        self._links = FeasibilityCache()
        super().__init__(self._links, self._channels, use_cache=use_cache)

    @property
    def fabric(self) -> FabricGraph:
        return self._fabric

    @property
    def active_channels(self) -> int:
        return len(self._channels)

    def link_load(self, link: FabricLink) -> int:
        """LinkLoad of one directed fabric link (paper's ``LL``)."""
        return self._links.link_load(_link_ref(link))

    def tasks_on(self, link: FabricLink) -> tuple[LinkTask, ...]:
        return self._links.tasks_on(_link_ref(link))

    @property
    def decisions(self) -> dict[int, MultiAdmissionDecision]:
        """Admitted channels' decisions, keyed by channel ID (copy)."""
        return dict(self._channels)

    def occupied_links(self) -> tuple[FabricLink, ...]:
        """Directed fabric links currently carrying at least one task."""
        return tuple(
            sorted(
                {
                    link
                    for decision in self._channels.values()
                    for link in decision.links
                }
            )
        )

    def channel_delay_bounds(self) -> dict[int, "PathBound"]:
        """Network-calculus end-to-end bound per admitted channel, along
        its routed path (see :func:`~repro.core.admission.path_delay_bounds`)."""
        return path_delay_bounds(
            {
                channel_id: decision.links
                for channel_id, decision in self._channels.items()
            },
            self.tasks_on,
        )

    def request(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> MultiAdmissionDecision:
        """Route, partition and per-link feasibility-test one request."""
        return self._request(source, destination, spec)

    def admit_many(
        self, requests: Iterable[tuple[str, str, ChannelSpec]]
    ) -> list[MultiAdmissionDecision]:
        """Decide a burst of requests exactly as the :meth:`request` loop
        would, amortized (see
        :meth:`~repro.core.admission.AdmissionEngine._admit_many`)."""
        return self._admit_many(requests)

    # -- the fabric's path and records ---------------------------------------

    def _route(self, source: str, destination: str, spec: ChannelSpec):
        links = tuple(self._fabric.path_links(source, destination))
        return links, tuple([_link_ref(link) for link in links])

    def _split(self, source, destination, spec, links, refs):
        link_load = self._links.link_load
        # Loads include the candidate, mirroring the star-network ADPS.
        parts = tuple(
            self._dps.partition(
                spec, links, lambda link: link_load(_link_ref(link)) + 1
            )
        )
        return parts, parts

    def _candidate(self, source, destination, spec):
        return source, destination, spec

    def _reject(self, candidate, assessment) -> MultiAdmissionDecision:
        source, destination, spec = candidate
        reports = assessment.reports
        return MultiAdmissionDecision(
            accepted=False,
            channel_id=-1,
            source=source,
            destination=destination,
            spec=spec,
            links=assessment.links,
            parts=assessment.partition or (),
            reports=reports,
            failed_link=assessment.links[len(reports) - 1] if reports else None,
        )

    def _accept(
        self, candidate, assessment, channel_id: int
    ) -> MultiAdmissionDecision:
        source, destination, spec = candidate
        for ref, part in zip(assessment.refs, assessment.partition):
            self._links.install(
                LinkTask(
                    link=ref,
                    period=spec.period,
                    capacity=spec.capacity,
                    deadline=part,
                    channel_id=channel_id,
                )
            )
        decision = MultiAdmissionDecision(
            accepted=True,
            channel_id=channel_id,
            source=source,
            destination=destination,
            spec=spec,
            links=assessment.links,
            parts=assessment.partition,
            reports=assessment.reports,
        )
        self._channels[channel_id] = decision
        return decision

    def release(self, channel_id: int) -> MultiAdmissionDecision:
        """Tear down an admitted channel, freeing all its per-link tasks."""
        decision = self._channels.pop(channel_id, None)
        if decision is None:
            raise UnknownChannelError(
                f"no active multi-hop channel {channel_id}"
            )
        for link in decision.links:
            self._links.release(_link_ref(link), channel_id)
        return decision
