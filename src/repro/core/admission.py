"""Admission control over the system state (Sections 18.3 and 18.4).

The paper defines the **system state** ``SS = {N, K}`` -- the set of
connected nodes and the set of active RT channels -- and defines a
*feasible system* as one where every link is feasible. Adding a channel
is allowed exactly when the new state would still be feasible, which the
switch decides with per-link EDF analysis (:mod:`repro.core.feasibility`)
after the deadline-partitioning scheme
(:mod:`repro.core.partitioning`) has split the candidate's deadline.

:class:`SystemState` is the bookkeeping half: it tracks nodes and
channels, keeps the per-link task sets in its one
:class:`~repro.core.feasibility_cache.FeasibilityCache` (``state.links``),
and implements the
:class:`~repro.core.partitioning.LoadView` protocol that partitioning
schemes consult. :class:`AdmissionEngine` is the decision half shared by
the star and the switch fabric: a candidate is admitted when every link
of its path stays feasible with the candidate's supposed task added.
:class:`AdmissionController` is its star front end, where the path is
the source's uplink and the destination's downlink; it runs the paper's
two-step test (utilization, then processor demand) on both and either
installs the channel or reports a typed rejection.

Only the links of the candidate's path are affected by it, so only
those are re-tested -- all other links keep their verdicts (feasibility
of a link depends only on the tasks assigned to it).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..netcalc.bounds import PathBound

from ..errors import (
    AdmissionError,
    ChannelParameterError,
    InfeasibleChannelError,
    PartitioningError,
    UnknownChannelError,
)
from .channel import ChannelSpec, ChannelState, DeadlinePartition, RTChannel
from .feasibility import FeasibilityReport, is_feasible
from .feasibility_cache import FeasibilityCache
from .partitioning import DeadlinePartitioningScheme, LoadView
from .task import LinkRef, LinkTask

__all__ = [
    "SystemState",
    "RejectionReason",
    "AdmissionDecision",
    "AdmissionEngine",
    "AdmissionController",
    "path_delay_bounds",
]


class _CandidateLoadView:
    """LoadView overlay that counts a not-yet-admitted candidate channel.

    ADPS and friends must see the system *as if* the candidate were
    already present on its two links (Section 18.4.2's ratio is otherwise
    undefined for the first channel in an empty system).
    """

    def __init__(
        self,
        base: "SystemState",
        uplink: LinkRef,
        downlink: LinkRef,
        spec: ChannelSpec,
    ) -> None:
        self._base = base
        self._uplink = uplink
        self._downlink = downlink
        self._spec = spec

    def link_load(self, link: LinkRef) -> int:
        # Identity check first: LinkRefs are interned, and the schemes
        # overwhelmingly ask about the candidate's own two links.
        if link is self._uplink or link is self._downlink:
            return self._base.link_load(link) + 1
        bonus = 1 if link in (self._uplink, self._downlink) else 0
        return self._base.link_load(link) + bonus

    def link_utilization(self, link: LinkRef) -> Fraction:
        util = self._base.link_utilization(link)
        if link in (self._uplink, self._downlink):
            util += Fraction(self._spec.capacity, self._spec.period)
        return util


class SystemState:
    """The paper's ``SS = {N, K}`` plus the per-link task sets.

    Every channel in ``K`` contributes its two supposed tasks
    (Eq. 18.6/18.7) to :attr:`links`, the single per-link task store
    that both the bookkeeping reads below and the cached admission
    check use.

    Parameters
    ----------
    nodes:
        Names of the end nodes connected to the switch. Channel requests
        between unknown nodes are rejected. Nodes can be added later with
        :meth:`add_node` (the paper allows dynamic systems).
    """

    def __init__(self, nodes: Iterable[str] = ()) -> None:
        self._nodes: set[str] = set()
        self._channels: dict[int, RTChannel] = {}
        #: The per-link task store (one entry per link direction).
        self.links = FeasibilityCache()
        for node in nodes:
            self.add_node(node)

    # -- node management ------------------------------------------------

    @property
    def nodes(self) -> frozenset[str]:
        """The node set ``N``."""
        return frozenset(self._nodes)

    def add_node(self, name: str) -> None:
        """Connect a node; idempotent."""
        if not name:
            raise ChannelParameterError("node name must be non-empty")
        self._nodes.add(name)

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    # -- channel bookkeeping ---------------------------------------------

    @property
    def channels(self) -> Mapping[int, RTChannel]:
        """The active channel set ``K``, keyed by channel ID (read-only)."""
        return dict(self._channels)

    def __len__(self) -> int:
        return len(self._channels)

    def __iter__(self) -> Iterator[RTChannel]:
        return iter(list(self._channels.values()))

    def channel(self, channel_id: int) -> RTChannel:
        try:
            return self._channels[channel_id]
        except KeyError:
            raise UnknownChannelError(
                f"no active RT channel with ID {channel_id}"
            ) from None

    def has_channel(self, channel_id: int) -> bool:
        """True while ``channel_id`` names a live (installed) channel."""
        return channel_id in self._channels

    def install(self, channel: RTChannel) -> None:
        """Add an admitted channel and its two supposed tasks.

        The channel must already carry a network-unique ID and a valid
        partition; :class:`AdmissionController` and
        :func:`repro.core.persistence.restore` are the callers.
        """
        if channel.channel_id < 0:
            raise AdmissionError("cannot install a channel without an ID")
        if channel.channel_id in self._channels:
            raise AdmissionError(
                f"channel ID {channel.channel_id} is already active"
            )
        up, down = LinkTask.pair_for_channel(channel)
        self.links.install(up)
        self.links.install(down)
        self._channels[channel.channel_id] = channel

    def release(self, channel_id: int) -> RTChannel:
        """Tear down a channel and return its reservation to the links."""
        channel = self.channel(channel_id)
        self.links.release(LinkRef.uplink(channel.source), channel_id)
        self.links.release(LinkRef.downlink(channel.destination), channel_id)
        del self._channels[channel_id]
        channel.state = ChannelState.TORN_DOWN
        return channel

    # -- per-link views (LoadView protocol) --------------------------------

    def tasks_on(self, link: LinkRef) -> tuple[LinkTask, ...]:
        """Immutable snapshot of the tasks reserved on ``link``."""
        return self.links.tasks_on(link)

    def link_load(self, link: LinkRef) -> int:
        """LinkLoad ``LL``: number of channels traversing ``link``."""
        return self.links.link_load(link)

    def link_utilization(self, link: LinkRef) -> Fraction:
        return self.links.link_utilization(link)

    def occupied_links(self) -> tuple[LinkRef, ...]:
        """Links that currently carry at least one channel."""
        return self.links.occupied_links()

    def with_candidate(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> LoadView:
        """A LoadView that pretends the candidate is already installed."""
        return _CandidateLoadView(
            self,
            LinkRef.uplink(source),
            LinkRef.downlink(destination),
            spec,
        )

    def channel_delay_bounds(self) -> dict[int, "PathBound"]:
        """Network-calculus end-to-end bound per active channel.

        Independent of the EDF demand analysis that admitted the
        channels: see :func:`path_delay_bounds`, here over each
        channel's uplink and downlink.
        """
        return path_delay_bounds(
            {
                channel_id: (
                    LinkRef.uplink(channel.source),
                    LinkRef.downlink(channel.destination),
                )
                for channel_id, channel in self._channels.items()
            },
            self.tasks_on,
        )


def path_delay_bounds(
    paths: Mapping[int, Sequence[Hashable]],
    tasks_on: Callable[[Hashable], Sequence[LinkTask]],
) -> dict[int, "PathBound"]:
    """Network-calculus end-to-end bound per channel of a routed path.

    ``paths`` maps each admitted channel to the ordered links it
    crosses and ``tasks_on`` gives the tasks reserved on a link. Every
    channel becomes a token bucket, every occupied link a rate-latency
    server, and the bound is the horizontal deviation against the
    convolution of the per-hop residuals, with cross-traffic burstiness
    propagated through upstream hops (see :mod:`repro.netcalc.bounds`;
    sound while the directed link graph is feed-forward, as on the star
    and on tree and up-down fat-tree routes). Values are
    :class:`~repro.netcalc.bounds.PathBound` (slots, exact fractions);
    every admitted channel gets a finite bound because admitted links
    have ``U <= 1``.
    """
    from ..netcalc.bounds import network_delay_bounds

    links = {link for path in paths.values() for link in path}
    return network_delay_bounds(paths, {link: tasks_on(link) for link in links})


class RejectionReason(enum.Enum):
    """Why admission control refused a channel request."""

    #: Source or destination is not a connected node.
    UNKNOWN_NODE = "unknown-node"
    #: ``d < 2C``: no deadline partition can exist (Eq. 18.9).
    NOT_PARTITIONABLE = "not-partitionable"
    #: Some partition exists (Eq. 18.9 holds) but the DPS found no split
    #: under which both links stay feasible (e.g. a strict
    #: :class:`~repro.core.partitioning_ext.SearchDPS` exhausting its
    #: probes). Distinct from :attr:`NOT_PARTITIONABLE`, which is a
    #: property of the spec alone.
    NO_FEASIBLE_PARTITION = "no-feasible-partition"
    #: The uplink (source -> switch) failed the feasibility test (on a
    #: fabric path: the first link).
    UPLINK_INFEASIBLE = "uplink-infeasible"
    #: The downlink (switch -> destination) failed the feasibility test
    #: (on a fabric path: a link after the first).
    DOWNLINK_INFEASIBLE = "downlink-infeasible"
    #: The destination node declined the offered channel (signalling).
    DESTINATION_DECLINED = "destination-declined"


class AdmissionDecision(NamedTuple):
    """Complete record of one admission-control decision.

    One is built per request on the admission hot path, hence a
    NamedTuple (construction is measurably cheaper than a frozen
    dataclass and the record is immutable either way).

    Attributes
    ----------
    accepted:
        The verdict.
    channel:
        The installed channel on acceptance (with ID, partition and
        ``ACTIVE`` state); on rejection, the rejected candidate (terminal
        ``REJECTED`` state, no ID).
    reason:
        ``None`` on acceptance, a :class:`RejectionReason` otherwise.
    partition:
        The partition that was tested (``None`` when rejection happened
        before partitioning).
    uplink_report, downlink_report:
        Per-link feasibility evidence, when those tests ran.
    """

    accepted: bool
    channel: RTChannel
    reason: RejectionReason | None = None
    partition: DeadlinePartition | None = None
    uplink_report: FeasibilityReport | None = None
    downlink_report: FeasibilityReport | None = None

    def __bool__(self) -> bool:
        return self.accepted


class _Assessment(NamedTuple):
    """Pure (state-untouched) outcome of the decision procedure.

    ``reason is None`` means "would be accepted". ``links`` is the
    candidate's path as the front end names it (the star's link refs,
    the fabric's directed links) and ``refs`` the same path as keys of
    the task store; ``reports`` is aligned with them, and shorter when
    the test stopped at the first infeasible link. One is built per
    non-memoized decision, so it is a NamedTuple rather than a
    dataclass (measurably cheaper to construct).
    """

    reason: RejectionReason | None
    partition: object = None
    reports: tuple[FeasibilityReport, ...] = ()
    links: tuple = ()
    refs: tuple[LinkRef, ...] = ()


#: Interned candidate tasks, keyed by ``(link, P, C, d)``. Admission
#: derives the same candidate ``LinkTask`` objects over and over (one
#: spec probed against the same link under a handful of partitions) and
#: the validating constructor is measurable on the hot path; interning
#: runs it once per distinct candidate. Safe because LinkTask is frozen
#: and the first construction still validates (Eq. 18.9 etc.). Bounded
#: by a wholesale clear at capacity.
_CANDIDATE_TASKS: dict[tuple[LinkRef, int, int, int], LinkTask] = {}
_CANDIDATE_TASKS_MAX = 1 << 15


def _candidate_task(
    link: LinkRef, period: int, capacity: int, deadline: int
) -> LinkTask:
    key = (link, period, capacity, deadline)
    task = _CANDIDATE_TASKS.get(key)
    if task is None:
        if len(_CANDIDATE_TASKS) >= _CANDIDATE_TASKS_MAX:
            _CANDIDATE_TASKS.clear()
        task = LinkTask(
            link=link, period=period, capacity=capacity, deadline=deadline
        )
        _CANDIDATE_TASKS[key] = task
    return task


class AdmissionEngine:
    """The decision engine both admission controllers run on.

    A candidate channel is admitted when every link of its path stays
    EDF-feasible with the candidate's supposed task added (Section
    18.3.2: each link direction is one uniprocessor); the star is the
    case where the path has two links. The engine owns everything that
    does not depend on the topology:

    * the assessment memo: whole decisions keyed by ``(source,
      destination, spec)`` and revalidated against the epochs of the
      path's task-store entries (any install/release on a path link
      bumps its epoch and the stale entry simply misses). Exact because
      the path is a pure function of the endpoints and every scheme
      reads only the links of that path (see
      :class:`~repro.core.partitioning.DeadlinePartitioningScheme` and
      :class:`~repro.multiswitch.partitioning.MultiHopDPS`);
    * :meth:`_admit_many`: the pooled ``batch_check`` prefetch, the
      burst-local rejection templates and the counters flushed once per
      burst;
    * the 16-bit wrap-around channel-ID allocator.

    A front end (subclass) supplies the topology: ``_route`` (the path,
    or a rejection that needs no path), ``_split`` (the per-link
    deadlines), ``_candidate``, ``_accept`` and ``_reject`` (its
    decision records and how an acceptance is installed).

    Channel IDs are handed out from 1 (the wire value 0 means "not yet
    valid" in the RequestFrame) in increasing order and wrap past the
    16-bit *RT channel ID* field of the signalling frames, skipping live
    IDs; only acceptances consume them.
    """

    MAX_CHANNEL_ID = 0xFFFF  # 16-bit field in Figures 18.3/18.4

    #: Assessment-memo capacity; cleared wholesale on overflow (the memo
    #: is a cache of pure results, so clearing is always correct).
    _ASSESS_MEMO_MAX = 8192

    #: Test every link of the path (the star's records carry both
    #: reports) rather than stop at the first infeasible one.
    _TEST_WHOLE_PATH = True

    def __init__(
        self,
        store: FeasibilityCache,
        live: Mapping[int, object],
        *,
        use_cache: bool,
        probes: bool = False,
        metrics=None,
    ) -> None:
        #: The per-link task store the front end installs into.
        self._store = store
        self._cache = store if use_cache else None
        #: The live channels by ID (read by the ID allocator).
        self._live = live
        #: Whether the scheme searches through a feasibility probe; its
        #: partition is then not known ahead of the probe loop, so the
        #: burst prefetch is skipped.
        self._dps_probes = probes
        #: (source, destination, spec) -> (path entries, their epochs
        #: when assessed, assessment).
        self._assess_memo: dict[
            tuple[str, str, ChannelSpec],
            tuple[list, list[int], _Assessment],
        ] = {}
        self._next_id = 1
        self.accept_count = 0
        self.reject_count = 0
        #: rejection histogram keyed by :class:`RejectionReason`.
        self.rejections_by_reason: dict[RejectionReason, int] = {}
        #: :meth:`admit_many` bursts processed and repeat-request
        #: decisions served from a burst-local template (plain ints so
        #: tests and benchmarks can read them without a registry).
        self.batch_count = 0
        self.batch_template_hits = 0
        # optional MetricsRegistry: pre-bound counter children so the
        # per-request cost is one attribute add (None = no telemetry)
        if metrics is not None:
            decisions = metrics.counter(
                "admission.decisions",
                help="admission verdicts",
                labels=("verdict",),
            )
            self._m_accepts = decisions.labels("accept")
            self._m_rejects = decisions.labels("reject")
            reasons = metrics.counter(
                "admission.rejections",
                help="rejections by reason",
                labels=("reason",),
            )
            self._m_reasons = {
                reason: reasons.labels(reason.value)
                for reason in RejectionReason
            }
            self._m_batches = metrics.counter(
                "admission.batches",
                help="admit_many bursts processed",
            ).labels()
            self._m_batch_hits = metrics.counter(
                "admission.batch_template_hits",
                help="burst-local repeat decisions served without re-assessment",
            ).labels()
        else:
            self._m_accepts = None
            self._m_rejects = None
            self._m_reasons = None
            self._m_batches = None
            self._m_batch_hits = None

    @property
    def uses_cache(self) -> bool:
        return self._cache is not None

    def _count_rejection(self, reason: RejectionReason) -> None:
        self.reject_count += 1
        self.rejections_by_reason[reason] = (
            self.rejections_by_reason.get(reason, 0) + 1
        )
        if self._m_rejects is not None:
            self._m_rejects.inc()
            self._m_reasons[reason].inc()

    # -- core decision -----------------------------------------------------

    def _test(
        self,
        refs: Sequence[LinkRef],
        spec: ChannelSpec,
        deadlines: Sequence[int],
    ) -> tuple[FeasibilityReport, ...]:
        """Test the path's links with the candidate's tasks added."""
        cache = self._cache
        period = spec.period
        capacity = spec.capacity
        reports: list[FeasibilityReport] = []
        for ref, deadline in zip(refs, deadlines):
            task = _candidate_task(ref, period, capacity, deadline)
            if cache is not None:
                report = cache.check(task)
            else:
                report = is_feasible(list(self._store.tasks_on(ref)) + [task])
            reports.append(report)
            if not report.feasible and not self._TEST_WHOLE_PATH:
                break
        return tuple(reports)

    def _conclude(
        self,
        partition: object,
        reports: tuple[FeasibilityReport, ...],
        links: tuple,
        refs: tuple[LinkRef, ...],
    ) -> _Assessment:
        """The verdict of per-link reports (the first infeasible link
        decides the reason)."""
        for index, report in enumerate(reports):
            if not report.feasible:
                if not self._TEST_WHOLE_PATH:
                    reports = reports[: index + 1]
                reason = (
                    RejectionReason.UPLINK_INFEASIBLE
                    if index == 0
                    else RejectionReason.DOWNLINK_INFEASIBLE
                )
                return _Assessment(reason, partition, reports, links, refs)
        return _Assessment(None, partition, reports, links, refs)

    def _decide(
        self,
        source: str,
        destination: str,
        spec: ChannelSpec,
        links: tuple,
        refs: tuple[LinkRef, ...],
    ) -> _Assessment:
        """Partition choice plus per-link tests on a routed path."""
        try:
            partition, deadlines = self._split(
                source, destination, spec, links, refs
            )
        except PartitioningError:
            # The spec itself passed the front end's pre-checks, so this
            # is *not* Eq. 18.9 failing on the end-to-end deadline: the
            # scheme found no split under which the path stays feasible
            # (or produced an invalid split). Miscounting it as
            # NOT_PARTITIONABLE would blame the spec for a load problem.
            return _Assessment(
                RejectionReason.NO_FEASIBLE_PARTITION, None, (), links, refs
            )
        return self._conclude(
            partition, self._test(refs, spec, deadlines), links, refs
        )

    def _assess(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> tuple[list, list[int], _Assessment]:
        """Run the full decision procedure without mutating anything.

        Neither the task store, nor the counters, nor the ID stream are
        touched; callers apply the side effects afterward. Returns the
        assessment with the store entries of the path it was made on and
        their epochs at the time (both empty when the decision needed no
        path), which is also the memo's record. With the cache active, a
        memo hit skips routing, partitioning and every link test: the
        saturated tail of an acceptance sweep (the same rejected spec
        re-requested hundreds of times against unchanged links) is a
        dictionary hit.
        """
        cache = self._cache
        if cache is not None:
            key = (source, destination, spec)
            hit = self._assess_memo.get(key)
            if hit is not None and [e.epoch for e in hit[0]] == hit[1]:
                return hit
        route = self._route(source, destination, spec)
        if isinstance(route, RejectionReason):
            return [], [], _Assessment(route)
        links, refs = route
        if cache is None:
            return [], [], self._decide(source, destination, spec, links, refs)
        entries = [cache.entry(ref) for ref in refs]
        assessed = (
            entries,
            [entry.epoch for entry in entries],
            self._decide(source, destination, spec, links, refs),
        )
        if len(self._assess_memo) >= self._ASSESS_MEMO_MAX:
            self._assess_memo.clear()
        self._assess_memo[key] = assessed
        return assessed

    def _allocate_id(self) -> int:
        """Consume the next free channel ID, wrapping past the 16-bit limit.

        IDs are handed out in increasing order from a moving hint, so a
        run that never creates more than ``MAX_CHANNEL_ID`` channels
        sees a monotone sequence. Under churn (long-lived service,
        channels departing) the allocator wraps around and *skips live
        IDs* -- reusing a live ID would alias two channels and every
        verdict/dedup cache keyed on it. Only when every ID in
        ``1..MAX_CHANNEL_ID`` is simultaneously live is the space
        genuinely exhausted.
        """
        span = self.MAX_CHANNEL_ID  # IDs 1..MAX (0 = "not set" on the wire)
        live = self._live
        if len(live) >= span:
            raise AdmissionError(
                "exhausted the 16-bit RT channel ID space "
                f"(> {self.MAX_CHANNEL_ID} channels created)"
            )
        hint = self._next_id
        for offset in range(span):
            candidate = 1 + (hint - 1 + offset) % span
            if candidate not in live:
                self._next_id = 1 + candidate % span
                return candidate
        raise AdmissionError(  # pragma: no cover - guarded by len() above
            "exhausted the 16-bit RT channel ID space "
            f"(> {self.MAX_CHANNEL_ID} channels created)"
        )

    def _fresh(self, source: str, destination: str, spec: ChannelSpec):
        """Decide one request and apply it, without counting it.

        Returns the front end's decision record and what :meth:`_assess`
        returned. The candidate record is built first, so a malformed
        request (a channel from a node to itself) raises before anything
        is assessed.
        """
        candidate = self._candidate(source, destination, spec)
        assessed = self._assess(source, destination, spec)
        assessment = assessed[2]
        if assessment.reason is not None:
            return self._reject(candidate, assessment), assessed
        return (
            self._accept(candidate, assessment, self._allocate_id()),
            assessed,
        )

    def _request(self, source: str, destination: str, spec: ChannelSpec):
        """Decide a channel request; install the channel on acceptance.

        Returns the front end's decision record. The front ends expose
        this (and :meth:`_admit_many`) under their own public names, so
        a profiler wrapping one controller's entry points never counts
        the other's decisions.
        """
        decision, assessed = self._fresh(source, destination, spec)
        reason = assessed[2].reason
        if reason is None:
            self.accept_count += 1
            if self._m_accepts is not None:
                self._m_accepts.inc()
        else:
            self._count_rejection(reason)
        return decision

    # -- batch engine ------------------------------------------------------

    def _batch_prefetch(
        self, requests: list[tuple[str, str, ChannelSpec]]
    ) -> None:
        """Warm the memos for every distinct burst candidate.

        Routes and partitions each distinct request once against the
        current (pre-burst) state, groups the candidate tasks by link
        and runs one pooled
        :meth:`~repro.core.feasibility_cache.FeasibilityCache.batch_check`
        per link, so the batched Eq. 18.3 demand evaluation covers the
        whole burst in a handful of vectorized passes. It then seeds the
        assessment memo with exactly the (epoch-stamped) assessment
        :meth:`_decide` would produce, so the replay's first encounter
        is a memo hit. Semantically invisible: entries whose links
        change before their first use simply miss, like any stale memo
        entry. Skipped for probing schemes.
        """
        if self._dps_probes:
            return
        cache = self._cache
        memo = self._assess_memo
        by_link: dict[LinkRef, list[LinkTask]] = {}
        #: key -> (partition, links, refs, index of each candidate task
        #: in its link's batch)
        pending: dict[
            tuple[str, str, ChannelSpec],
            tuple[object, tuple, tuple[LinkRef, ...], list[int]],
        ] = {}
        seen: set[tuple[str, str, ChannelSpec]] = set()
        for req in requests:
            key = req if type(req) is tuple else tuple(req)
            if key in seen:
                continue
            seen.add(key)
            prior = memo.get(key)
            if prior is not None and [e.epoch for e in prior[0]] == prior[1]:
                continue  # still assessed against current link state
            try:
                source, destination, spec = key
                route = self._route(source, destination, spec)
                if isinstance(route, RejectionReason):
                    continue
                links, refs = route
                partition, deadlines = self._split(
                    source, destination, spec, links, refs
                )
            except Exception:
                continue  # the replay rejects or raises identically, in order
            slots: list[int] = []
            for ref, deadline in zip(refs, deadlines):
                batch = by_link.setdefault(ref, [])
                slots.append(len(batch))
                batch.append(
                    _candidate_task(ref, spec.period, spec.capacity, deadline)
                )
            pending[key] = (partition, links, refs, slots)
        reports = {
            link: cache.batch_check(link, candidates)
            for link, candidates in by_link.items()
        }
        if len(memo) + len(pending) > self._ASSESS_MEMO_MAX:
            return
        for key, (partition, links, refs, slots) in pending.items():
            # One explicit loop, not three comprehensions: this runs once
            # per distinct burst candidate on the sweep's hot path.
            entries = []
            epochs = []
            found = []
            for ref, slot in zip(refs, slots):
                entry = cache.entry(ref)
                entries.append(entry)
                epochs.append(entry.epoch)
                found.append(reports[ref][slot])
            memo[key] = (
                entries,
                epochs,
                self._conclude(partition, tuple(found), links, refs),
            )

    def _admit_many(self, requests: Iterable[tuple[str, str, ChannelSpec]]):
        """Decide a burst of requests, in order, installing acceptances.

        Equivalent to ``[self.request(s, d, spec) for s, d, spec in
        requests]`` -- same decisions, same rejection reasons, same
        channel IDs, same final state and counters (the differential
        campaign ``repro admission-diff --batch`` and the Hypothesis
        property suites enforce stream equality on the star and the
        fabric) -- but amortized across the burst:

        * distinct candidates are prefetched through one pooled,
          vectorized ``h(n, t)`` evaluation per affected link
          (:meth:`_batch_prefetch`);
        * repeated *rejected* requests (the saturated tail of an
          acceptance sweep) are answered from a burst-local decision
          template, valid while no acceptance has happened since it was
          made or, failing that, while its path's links are unchanged
          (an acceptance invalidates only templates that share a link
          with it) -- repeats of an identical rejected request may
          therefore share one (immutable, value-equal) decision record;
        * accept/reject counters and telemetry are accumulated locally
          and flushed once per burst (in a ``finally``: if a request
          mid-burst raises, the already-decided prefix is still counted
          and installed exactly as the scalar loop would leave it, with
          zero overlay residue beyond it).

        Falls back to the plain scalar loop when there is no cache (a
        reference controller).
        """
        requests = list(requests)
        if self._cache is None:
            return [
                self.request(source, destination, spec)
                for source, destination, spec in requests
            ]
        self._batch_prefetch(requests)
        decisions: list = []
        append = decisions.append
        #: (source, destination, spec) -> (acceptances so far, what
        #: _assess returned, rejection record, count cell). Within a
        #: burst only its own acceptances mutate the store, so a
        #: template made after the latest acceptance is valid without
        #: looking at its path; otherwise it is validated like the
        #: assessment memo, against the path's entry objects themselves
        #: (the store never replaces an entry). Decisions that need no
        #: path (unknown node, unpartitionable spec) have no entries and
        #: are always valid. The one-element count cell tallies how many
        #: decisions the record answered (fresh + template hits), so
        #: the hit path touches no dict of counters; ``records`` keeps
        #: every cell ever created, including superseded templates, for
        #: the flush below.
        templates: dict[
            tuple[str, str, ChannelSpec],
            tuple[int, tuple[list, list[int], _Assessment], object, list[int]],
        ] = {}
        records: list[tuple[RejectionReason, list[int]]] = []
        accepts = 0
        fresh_done = 0
        try:
            for req in requests:
                key = req if type(req) is tuple else tuple(req)
                hit = templates.get(key)
                if hit is not None and (
                    hit[0] == accepts
                    or [e.epoch for e in hit[1][0]] == hit[1][1]
                ):
                    hit[3][0] += 1
                    append(hit[2])
                    continue
                source, destination, spec = key
                decision, assessed = self._fresh(source, destination, spec)
                fresh_done += 1
                append(decision)
                reason = assessed[2].reason
                if reason is None:
                    accepts += 1
                    continue
                cell = [1]
                records.append((reason, cell))
                templates[key] = (accepts, assessed, decision, cell)
        finally:
            # Every cell increment pairs with exactly one appended
            # decision, so on a mid-burst exception the flushed
            # counters cover precisely the already-decided prefix --
            # the same totals the scalar loop would have left behind.
            template_hits = len(decisions) - fresh_done
            self.batch_count += 1
            self.batch_template_hits += template_hits
            self.accept_count += accepts
            rejections: dict[RejectionReason, int] = {}
            rejects = 0
            for reason, cell in records:
                count = cell[0]
                rejects += count
                rejections[reason] = rejections.get(reason, 0) + count
            for reason, count in rejections.items():
                self.rejections_by_reason[reason] = (
                    self.rejections_by_reason.get(reason, 0) + count
                )
            self.reject_count += rejects
            if self._m_accepts is not None:
                if accepts:
                    self._m_accepts.inc(accepts)
                if rejects:
                    self._m_rejects.inc(rejects)
                    for reason, count in rejections.items():
                        self._m_reasons[reason].inc(count)
                self._m_batches.inc()
                if template_hits:
                    self._m_batch_hits.inc(template_hits)
        return decisions


class AdmissionController(AdmissionEngine):
    """The switch's admit-or-reject logic over a :class:`SystemState`.

    The star front end of :class:`AdmissionEngine`: a candidate's path
    is its source's uplink and its destination's downlink, both links
    are always tested, and a rejection names the failing one.

    Parameters
    ----------
    state:
        The system state to manage (shared with e.g. the simulator).
    dps:
        The deadline-partitioning scheme (SDPS, ADPS, ...). The scheme is
        consulted once per request with loads that include the candidate.
    use_cache:
        When True (the default), per-link feasibility is decided through
        the incremental ``check``/``batch_check`` of the state's task
        store (:attr:`SystemState.links`) instead of re-running the
        from-scratch test on every request. The cached and from-scratch
        controllers produce identical decision streams (enforced by
        :mod:`repro.oracle.admission_diff`); ``use_cache=False`` keeps
        the reference path available for differential testing: it only
        reads ``tasks_on`` and runs
        :func:`~repro.core.feasibility.is_feasible`.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`. When
        given, verdicts are counted into ``admission.decisions``
        (labelled by verdict) and ``admission.rejections`` (labelled by
        reason); without one the per-request telemetry cost is a single
        ``is not None`` check.

    Notes
    -----
    Channel IDs mirror the 16-bit network-unique *RT channel ID* of the
    signalling frames (see :class:`AdmissionEngine`); only
    :meth:`request` and :meth:`admit_many` consume IDs --
    :meth:`preview` never advances the allocator.

    All mutations of the shared :class:`SystemState` go through this
    controller or the state's own ``install``/``release``; both write
    the one per-link store the cached checks read.
    """

    def __init__(
        self,
        state: SystemState,
        dps: DeadlinePartitioningScheme,
        *,
        use_cache: bool = True,
        metrics=None,
    ) -> None:
        self._state = state
        self._dps = dps
        super().__init__(
            state.links,
            state._channels,
            use_cache=use_cache,
            # Only schemes that actually override partition_with_probe
            # pay for the per-request probe closure.
            probes=type(dps).partition_with_probe
            is not DeadlinePartitioningScheme.partition_with_probe,
            metrics=metrics,
        )

    @property
    def state(self) -> SystemState:
        return self._state

    @property
    def dps(self) -> DeadlinePartitioningScheme:
        return self._dps

    @property
    def cache(self) -> FeasibilityCache | None:
        """The state's task store when it decides admission, or ``None``
        for a reference (from-scratch) controller."""
        return self._cache

    def request(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> AdmissionDecision:
        """Decide a channel request; install the channel on acceptance.

        Implements Section 18.2.2's switch-side behaviour minus the
        signalling (for the full handshake, including the destination's
        veto, see :mod:`repro.core.channel_manager`).
        """
        return self._request(source, destination, spec)

    def admit_many(
        self, requests: Iterable[tuple[str, str, ChannelSpec]]
    ) -> list[AdmissionDecision]:
        """Decide a burst of requests exactly as the :meth:`request` loop
        would, amortized (see :meth:`AdmissionEngine._admit_many`)."""
        return self._admit_many(requests)

    # -- the star's path and records ---------------------------------------

    def _route(self, source: str, destination: str, spec: ChannelSpec):
        """Pre-checks, then the uplink/downlink pair."""
        nodes = self._state._nodes
        if source not in nodes or destination not in nodes:
            return RejectionReason.UNKNOWN_NODE
        if not spec.is_partitionable():
            return RejectionReason.NOT_PARTITIONABLE
        refs = (LinkRef.uplink(source), LinkRef.downlink(destination))
        return refs, refs

    def _split(self, source, destination, spec, links, refs):
        loads = _CandidateLoadView(self._state, refs[0], refs[1], spec)
        if self._dps_probes:

            def probe(partition: DeadlinePartition) -> bool:
                reports = self._test(
                    refs, spec, (partition.uplink, partition.downlink)
                )
                return all(report.feasible for report in reports)

            partition = self._dps.partition_with_probe(
                source, destination, spec, loads, probe
            )
        else:
            partition = self._dps.partition(source, destination, spec, loads)
        partition.validate_for(spec)
        return partition, (partition.uplink, partition.downlink)

    def _candidate(self, source, destination, spec) -> RTChannel:
        return RTChannel(source=source, destination=destination, spec=spec)

    def _reject(self, candidate: RTChannel, assessment) -> AdmissionDecision:
        candidate.state = ChannelState.REJECTED
        return AdmissionDecision(
            False,
            candidate,
            assessment.reason,
            assessment.partition,
            *assessment.reports,
        )

    def _accept(
        self, candidate: RTChannel, assessment, channel_id: int
    ) -> AdmissionDecision:
        candidate.channel_id = channel_id
        # Direct assignment instead of assign_partition(): _split already
        # ran validate_for on this exact partition/spec pair, so the
        # trusted construction in LinkTask.pair_for_channel stays sound.
        candidate.partition = assessment.partition
        candidate.state = ChannelState.ACTIVE
        self._state.install(candidate)
        return AdmissionDecision(
            True, candidate, None, assessment.partition, *assessment.reports
        )

    # -- star-only conveniences --------------------------------------------

    def preview(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> AdmissionDecision:
        """Decide a request without any side effect whatsoever.

        Runs the identical decision procedure as :meth:`request` but
        installs nothing, consumes no channel ID and touches no counter:
        the controller's serialized state is byte-identical before and
        after. On a would-be acceptance the returned channel stays in
        ``REQUESTED`` state with no ID (the partition that *would* be
        used is still reported); on a would-be rejection the candidate
        is marked ``REJECTED`` exactly as a real rejection would.
        """
        candidate = self._candidate(source, destination, spec)
        assessment = self._assess(source, destination, spec)[2]
        if assessment.reason is not None:
            return self._reject(candidate, assessment)
        return AdmissionDecision(
            True, candidate, None, assessment.partition, *assessment.reports
        )

    def admit_or_raise(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> RTChannel:
        """Like :meth:`request` but raises on rejection (convenience API)."""
        decision = self.request(source, destination, spec)
        if not decision.accepted:
            raise InfeasibleChannelError(
                f"channel {source}->{destination} {spec} rejected: "
                f"{decision.reason.value if decision.reason else 'unknown'}",
                decision=decision,
            )
        return decision.channel

    def would_accept(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> bool:
        """Non-mutating feasibility preview of a request.

        Thin alias for :meth:`preview`. Unlike the historical
        implementation (which installed the channel and rolled it back,
        permanently consuming a 16-bit channel ID per accepted preview
        and leaving stale zero-count histogram keys), this touches no
        controller state at all.
        """
        return self.preview(source, destination, spec).accepted

    def release(self, channel_id: int) -> RTChannel:
        """Tear down an active channel, freeing its reservations."""
        return self._state.release(channel_id)
