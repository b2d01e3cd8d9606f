"""Microbenchmarks of the hot data structures and codecs.

Not tied to a paper artifact; these report the EDF/FCFS queues' and
the frame codecs' rates in reference operations/s (best of five runs,
``timing.timed``), check each run's result, and fail below a floor, so
a regression shows up next to a number that is comparable across hosts.
"""

from __future__ import annotations

from repro.core.edf_queue import EDFQueue, FCFSQueue, QueuedFrame
from repro.protocol.frames import RequestFrame, decode_signaling
from repro.protocol.headers import encode_rt_header

from timing import timed

_OPS = 1_000

#: Floors in reference ops/s: 0.2x the median rate of 10 runs (best of
#: 5 each) on the 2-CPU reference host, the headroom of the kernel hold
#: model's floor (bench_kernel._DISPATCH_FLOOR_EPS). Medians: EDF queue
#: 798 k, FCFS queue 1 175 k, RequestFrame round trip 79.5 k, RT header
#: encode 587 k.
_EDF_QUEUE_FLOOR = 159_500.0
_FCFS_QUEUE_FLOOR = 235_000.0
_REQUEST_FRAME_FLOOR = 15_900.0
_RT_HEADER_FLOOR = 117_500.0


def _measure(capsys, name: str, ops: int, run, floor: float):
    """Best of five timed runs; prints the rate, asserts it is at least
    ``floor`` and returns run's value."""
    seconds, value = min((timed(run) for _ in range(5)), key=lambda t: t[0])
    rate = ops / seconds
    with capsys.disabled():
        print(f"\n{name}: {rate:,.0f} reference ops/s")
    assert rate >= floor, (
        f"{name} regressed: {rate:,.0f} reference ops/s < {floor:,.0f}"
    )
    return value


def test_bench_edf_queue_push_pop(capsys):
    """1k mixed-deadline push/pop cycles through the EDF heap."""
    deadlines = [(i * 7919) % 1000 for i in range(_OPS)]

    def run():
        queue: EDFQueue[int] = EDFQueue()
        for i, deadline in enumerate(deadlines):
            queue.push(
                QueuedFrame(
                    payload=i, absolute_deadline=deadline, enqueued_at=0
                )
            )
        total = 0
        while queue:
            total += queue.pop().absolute_deadline
        return total

    total = _measure(
        capsys, "EDF queue push+pop", 2 * _OPS, run, _EDF_QUEUE_FLOOR
    )
    assert total == sum(deadlines)


def test_bench_fcfs_queue(capsys):
    def run():
        queue: FCFSQueue[int] = FCFSQueue()
        for i in range(_OPS):
            queue.push(
                QueuedFrame(payload=i, absolute_deadline=0, enqueued_at=0)
            )
        count = 0
        while queue:
            queue.pop()
            count += 1
        return count

    count = _measure(
        capsys, "FCFS queue push+pop", 2 * _OPS, run, _FCFS_QUEUE_FLOOR
    )
    assert count == _OPS


def test_bench_request_frame_roundtrip(capsys):
    frame = RequestFrame(
        connect_request_id=1,
        rt_channel_id=0,
        source_mac=0x0200_0000_0001,
        destination_mac=0x0200_0000_0002,
        source_ip=0x0A00_0001,
        destination_ip=0x0A00_0002,
        period=100,
        capacity=3,
        deadline=40,
    )

    def run():
        return [decode_signaling(frame.encode()) for _ in range(_OPS)]

    decoded = _measure(
        capsys, "RequestFrame encode+decode", _OPS, run, _REQUEST_FRAME_FLOOR
    )
    assert all(d == frame for d in decoded)


def test_bench_rt_header_encode(capsys):
    def run():
        return [encode_rt_header(123_456_789_000, 42) for _ in range(_OPS)]

    headers = _measure(
        capsys, "RT header encode", _OPS, run, _RT_HEADER_FLOOR
    )
    assert all(h.channel_id == 42 for h in headers)
