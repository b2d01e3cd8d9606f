"""Property tests: the batch admission engine is the scalar loop.

Hypothesis drives random churn -- bursts of requests (with deliberate
repeats, unknown nodes and non-partitionable specs) interleaved with
releases -- through one controller using ``admit_many`` and one using
the scalar ``request`` loop, and requires complete observable equality:
the decision stream (verdict, reason, channel ID, partition), the
counters and rejection histograms, the exact per-link utilization
(:class:`~fractions.Fraction`), the network-calculus delay bounds of
every admitted channel, and the persistence snapshot, byte for byte.
A second property cuts the batch-driven history at a random point with
a snapshot/restore cycle and requires the restored controller to finish
the history exactly like the original. A third runs random churn over
two fabrics (a three-switch chain and a k=4 fat-tree) under both k-way
schemes and requires the cached scalar loop, the from-scratch reference
loop and ``admit_many`` to decide identically and leave identical tasks
on every touched link after each step.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import persistence
from repro.core.admission import AdmissionController, SystemState
from repro.core.channel import ChannelSpec
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.core.task import LinkRef
from repro.multiswitch.admission import MultiSwitchAdmission
from repro.multiswitch.fabric import SwitchFabric
from repro.multiswitch.graph import build_fat_tree
from repro.multiswitch.partitioning import (
    MultiHopProportional,
    MultiHopSymmetric,
)

NODES = ("n0", "n1", "n2", "n3")
ENDPOINTS = NODES + ("ghost",)

SCHEMES = (SymmetricDPS, AsymmetricDPS)

#: A small spec pool (rather than fully random specs) so bursts repeat
#: keys often enough to exercise the template/memo fast paths; includes
#: a non-partitionable deadline (d < 2C for the symmetric split).
SPECS = (
    ChannelSpec(period=20, capacity=2, deadline=12),
    ChannelSpec(period=40, capacity=6, deadline=30),
    ChannelSpec(period=16, capacity=1, deadline=16),
    ChannelSpec(period=30, capacity=5, deadline=11),
)

request = st.tuples(
    st.sampled_from(ENDPOINTS),
    st.sampled_from(ENDPOINTS),
    st.sampled_from(SPECS),
).filter(lambda r: r[0] != r[1])


@st.composite
def step(draw):
    if draw(st.integers(min_value=0, max_value=9)) < 3:
        return ("release", draw(st.integers(min_value=0, max_value=31)))
    return ("burst", draw(st.lists(request, min_size=1, max_size=12)))


histories = st.tuples(
    st.integers(min_value=0, max_value=len(SCHEMES) - 1),
    st.lists(step(), min_size=1, max_size=16),
)


def _controller(scheme_index):
    return AdmissionController(
        SystemState(NODES), SCHEMES[scheme_index]()
    )


def _assert_decisions_equal(batched, scalar):
    assert len(batched) == len(scalar)
    for b, s in zip(batched, scalar):
        assert b.accepted == s.accepted
        assert b.reason == s.reason
        assert b.channel.channel_id == s.channel.channel_id
        assert b.partition == s.partition


def _assert_observably_identical(batch_ctrl, scalar_ctrl):
    assert batch_ctrl.accept_count == scalar_ctrl.accept_count
    assert batch_ctrl.reject_count == scalar_ctrl.reject_count
    assert (
        batch_ctrl.rejections_by_reason == scalar_ctrl.rejections_by_reason
    )
    for node in NODES:
        for link in (LinkRef.uplink(node), LinkRef.downlink(node)):
            assert batch_ctrl.state.link_utilization(
                link
            ) == scalar_ctrl.state.link_utilization(link)
    assert persistence.dumps(batch_ctrl) == persistence.dumps(scalar_ctrl)


@given(histories)
@settings(max_examples=80, deadline=None)
def test_admit_many_churn_matches_scalar_loop(history):
    scheme_index, steps = history
    batch_ctrl = _controller(scheme_index)
    scalar_ctrl = _controller(scheme_index)
    for op in steps:
        if op[0] == "release":
            active = sorted(batch_ctrl.state.channels)
            if not active:
                continue
            victim = active[op[1] % len(active)]
            batch_ctrl.release(victim)
            scalar_ctrl.release(victim)
            continue
        burst = op[1]
        _assert_decisions_equal(
            batch_ctrl.admit_many(burst),
            [scalar_ctrl.request(s, d, spec) for s, d, spec in burst],
        )
    _assert_observably_identical(batch_ctrl, scalar_ctrl)
    # Network-calculus bounds are a function of the installed task
    # sets; they must agree exactly (Fraction arithmetic) per channel.
    assert (
        batch_ctrl.state.channel_delay_bounds()
        == scalar_ctrl.state.channel_delay_bounds()
    )


@given(histories, st.integers(min_value=0, max_value=15))
@settings(max_examples=60, deadline=None)
def test_snapshot_restore_mid_history_continues_identically(history, cut):
    scheme_index, steps = history
    original = _controller(scheme_index)
    cut %= len(steps)

    def run(ctrl, ops):
        out = []
        for op in ops:
            if op[0] == "release":
                active = sorted(ctrl.state.channels)
                if not active:
                    continue
                ctrl.release(active[op[1] % len(active)])
            else:
                out.extend(ctrl.admit_many(op[1]))
        return out

    run(original, steps[:cut])
    restored = persistence.restore(
        persistence.snapshot(original), SCHEMES[scheme_index]()
    )
    _assert_decisions_equal(
        run(original, steps[cut:]), run(restored, steps[cut:])
    )
    _assert_observably_identical(original, restored)


# -- the fabric front end -----------------------------------------------------

#: Built once: routing is a pure function of the topology, so sharing
#: the graphs (and their path caches) across examples is safe.
FABRICS = (
    (SwitchFabric.chain(3, 2), ("n0_0", "n0_1", "n1_0", "n1_1", "n2_0", "n2_1")),
    (
        build_fat_tree(4),
        ("h0_0_0", "h0_0_1", "h0_1_0", "h1_0_0", "h2_1_1", "h3_1_0"),
    ),
)
FABRIC_SCHEMES = (MultiHopSymmetric, MultiHopProportional)


@st.composite
def fabric_spec(draw):
    period = draw(st.integers(min_value=8, max_value=60))
    capacity = draw(st.integers(min_value=1, max_value=min(6, period)))
    # Down to one capacity per path: short deadlines exercise the k-hop
    # Eq. 18.9 rejection (d < k*C) on the longer paths.
    deadline = draw(st.integers(min_value=capacity, max_value=2 * period))
    return ChannelSpec(period=period, capacity=capacity, deadline=deadline)


@st.composite
def fabric_history(draw):
    fabric_index = draw(st.integers(0, len(FABRICS) - 1))
    scheme_index = draw(st.integers(0, len(FABRIC_SCHEMES) - 1))
    hosts = FABRICS[fabric_index][1]
    specs = draw(st.lists(fabric_spec(), min_size=1, max_size=4))
    # Indices into small host/spec pools, so bursts repeat requests.
    fabric_request = st.tuples(
        st.sampled_from(hosts), st.sampled_from(hosts), st.sampled_from(specs)
    ).filter(lambda r: r[0] != r[1])
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("release"), st.integers(0, 31)),
                st.tuples(
                    st.just("burst"),
                    st.lists(fabric_request, min_size=1, max_size=12),
                ),
            ),
            min_size=1,
            max_size=14,
        )
    )
    return fabric_index, scheme_index, steps


def _fabric_decisions_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.accepted == b.accepted
        assert a.channel_id == b.channel_id
        assert a.links == b.links
        assert a.parts == b.parts
        assert a.failed_link == b.failed_link


@given(fabric_history())
@settings(max_examples=80, deadline=None)
def test_fabric_scalar_reference_and_batch_decide_identically(history):
    fabric_index, scheme_index, steps = history
    fabric = FABRICS[fabric_index][0]
    cached, reference, batched = (
        MultiSwitchAdmission(
            fabric=fabric, dps=FABRIC_SCHEMES[scheme_index](), use_cache=flag
        )
        for flag in (True, False, True)
    )
    touched = set()
    for op in steps:
        if op[0] == "release":
            active = sorted(cached.decisions)
            if active:
                victim = active[op[1] % len(active)]
                for admission in (cached, reference, batched):
                    admission.release(victim)
        else:
            burst = op[1]
            scalar = [cached.request(s, d, spec) for s, d, spec in burst]
            _fabric_decisions_equal(
                scalar, [reference.request(s, d, spec) for s, d, spec in burst]
            )
            _fabric_decisions_equal(scalar, batched.admit_many(burst))
            touched.update(link for d in scalar for link in d.links)
        for link in touched:
            expected = cached.tasks_on(link)
            assert reference.tasks_on(link) == expected
            assert batched.tasks_on(link) == expected
    assert cached.accept_count == reference.accept_count == batched.accept_count
    assert cached.reject_count == reference.reject_count == batched.reject_count
