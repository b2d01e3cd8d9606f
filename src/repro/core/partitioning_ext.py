"""Deadline-partitioning schemes beyond the paper (extensions).

The paper's conclusion calls for exploring "alternative communication
models and scheduling algorithms". These schemes explore the DPS design
space the paper opened:

* :class:`UtilizationDPS` -- like ADPS but weighs links by reserved
  *utilization* (``sum C/P``) instead of channel count. Channel count is
  a crude congestion proxy: ten tiny channels load a link less than two
  huge ones. Utilization is the quantity the feasibility test actually
  constrains.
* :class:`LaxityDPS` -- distributes only the channel's *slack*
  ``d - 2C`` proportionally to load and gives each side its mandatory
  ``C`` first. This never needs clamping: every output satisfies
  Eq. 18.9 by construction.
* :class:`SearchDPS` -- exhaustively probes candidate splits through the
  admission controller's feasibility test and accepts the first split
  that makes both links feasible. This is the *optimal* per-channel
  greedy scheme: it rejects a channel only when **no** partition works,
  providing an upper bound against which SDPS/ADPS can be judged
  (benchmark EXP-D1).

All schemes honour the same contract as the paper's schemes: Eq. 18.8
(parts sum to ``d``) and Eq. 18.9 (each part at least ``C``).
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PartitioningError
from .channel import ChannelSpec, DeadlinePartition
from .partitioning import (
    DeadlinePartitioningScheme,
    FeasibilityProbe,
    LoadView,
    clamp_partition,
    intern_partition,
    split_round_half_up,
)
from .task import LinkRef

__all__ = ["UtilizationDPS", "LaxityDPS", "SearchDPS"]


class UtilizationDPS(DeadlinePartitioningScheme):
    """Partition proportionally to reserved link utilization.

    ``Upart_i = U(source uplink) / (U(source uplink) + U(destination
    downlink))`` with utilizations taken *including* the candidate
    channel. Falls back to an even split when both utilizations are zero
    (cannot happen when the candidate is counted, but the fallback keeps
    the scheme total).
    """

    name = "udps"

    def partition(
        self,
        source: str,
        destination: str,
        spec: ChannelSpec,
        loads: LoadView,
    ) -> DeadlinePartition:
        u_up = loads.link_utilization(LinkRef.uplink(source))
        u_down = loads.link_utilization(LinkRef.downlink(destination))
        if u_up < 0 or u_down < 0:
            raise PartitioningError(
                f"negative link utilization reported: {u_up}, {u_down}"
            )
        total = u_up + u_down
        if total == 0:
            return clamp_partition(spec, spec.deadline // 2)
        share = Fraction(u_up) / Fraction(total)
        uplink_part = split_round_half_up(
            spec.deadline, share.numerator, share.denominator
        )
        return clamp_partition(spec, uplink_part)


class LaxityDPS(DeadlinePartitioningScheme):
    """Distribute the slack ``d - 2C`` proportionally to LinkLoad.

    Each side first receives its mandatory minimum ``C`` (Eq. 18.9), and
    the remaining ``d - 2C`` slack timeslots are then divided in the same
    LinkLoad ratio ADPS uses. Unlike raw ADPS, the result can never land
    outside ``[C, d - C]``, so no clamping distortion occurs for channels
    with tight deadlines.
    """

    name = "ldps"

    def partition(
        self,
        source: str,
        destination: str,
        spec: ChannelSpec,
        loads: LoadView,
    ) -> DeadlinePartition:
        if not spec.is_partitionable():
            raise PartitioningError(
                f"channel with C={spec.capacity}, d={spec.deadline} cannot "
                "be partitioned (Eq. 18.9)"
            )
        ll_up = loads.link_load(LinkRef.uplink(source))
        ll_down = loads.link_load(LinkRef.downlink(destination))
        slack = spec.deadline - 2 * spec.capacity
        total = ll_up + ll_down
        if total == 0:
            extra_up = slack // 2
        else:
            extra_up = split_round_half_up(slack, ll_up, total)
        uplink = spec.capacity + extra_up
        return intern_partition(uplink, spec.deadline - uplink)


class SearchDPS(DeadlinePartitioningScheme):
    """Probe every legal split until one passes the feasibility test.

    Candidate uplink parts are tried in an order that starts from a
    heuristic centre (the ADPS split) and fans outward, so when many
    splits work the chosen one is close to the load-balanced choice and
    the search terminates quickly. When *no* split passes the probe the
    scheme returns the heuristic split anyway -- admission control will
    then reject the channel, which is the correct outcome (the channel is
    genuinely infeasible under every partition).

    Without a probe (plain :meth:`partition`), behaves exactly like ADPS.

    Parameters
    ----------
    max_probes:
        Upper bound on feasibility probes per channel, limiting admission
        latency for channels with very long deadlines. ``None`` means
        exhaustive.
    strict:
        When True, :meth:`partition_with_probe` raises
        :class:`~repro.errors.PartitioningError` instead of returning the
        centre split when no probed split passes. The admission
        controller classifies that as
        :attr:`~repro.core.admission.RejectionReason.NO_FEASIBLE_PARTITION`
        (the spec is partitionable; the *load* admits no split), keeping
        the rejection histogram honest.
    """

    name = "searchdps"

    def __init__(
        self, max_probes: int | None = None, *, strict: bool = False
    ) -> None:
        if max_probes is not None and max_probes <= 0:
            raise PartitioningError(
                f"max_probes must be positive or None, got {max_probes}"
            )
        self._max_probes = max_probes
        self._strict = strict
        self._heuristic = _AdpsHeuristic()

    def partition(
        self,
        source: str,
        destination: str,
        spec: ChannelSpec,
        loads: LoadView,
    ) -> DeadlinePartition:
        return self._heuristic.partition(source, destination, spec, loads)

    def partition_with_probe(
        self,
        source: str,
        destination: str,
        spec: ChannelSpec,
        loads: LoadView,
        probe: FeasibilityProbe,
    ) -> DeadlinePartition:
        centre = self._heuristic.partition(source, destination, spec, loads)
        lo, hi = spec.capacity, spec.deadline - spec.capacity
        probes = 0
        for uplink in _fan_out(centre.uplink, lo, hi):
            if self._max_probes is not None and probes >= self._max_probes:
                break
            candidate = intern_partition(uplink, spec.deadline - uplink)
            probes += 1
            if probe(candidate):
                return candidate
        if self._strict:
            raise PartitioningError(
                f"no probed split of d={spec.deadline} keeps both links "
                f"feasible ({probes} probes)"
            )
        return centre


class _AdpsHeuristic(DeadlinePartitioningScheme):
    """Internal: ADPS arithmetic reused as SearchDPS's starting point."""

    name = "adps-heuristic"

    def partition(
        self,
        source: str,
        destination: str,
        spec: ChannelSpec,
        loads: LoadView,
    ) -> DeadlinePartition:
        ll_up = loads.link_load(LinkRef.uplink(source))
        ll_down = loads.link_load(LinkRef.downlink(destination))
        total = ll_up + ll_down
        if total == 0:
            return clamp_partition(spec, spec.deadline // 2)
        return clamp_partition(
            spec, split_round_half_up(spec.deadline, ll_up, total)
        )


def _fan_out(centre: int, lo: int, hi: int):
    """Yield integers in ``[lo, hi]`` ordered by distance from ``centre``.

    ``centre`` is clamped into the range first. Ties (equal distance on
    both sides) yield the smaller value first, deterministically.
    """
    if lo > hi:
        return
    centre = min(max(centre, lo), hi)
    yield centre
    for offset in range(1, max(centre - lo, hi - centre) + 1):
        below, above = centre - offset, centre + offset
        if below >= lo:
            yield below
        if above <= hi:
            yield above
