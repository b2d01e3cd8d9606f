"""Tests for CSV/JSON export and ASCII link timelines."""

from __future__ import annotations

import json

import pytest

from repro.analysis.export import (
    series_to_csv,
    series_to_json,
    write_csv,
    write_json,
    write_text,
)
from repro.analysis.timeline import (
    LinkTimeline,
    build_timelines,
    render_timeline,
)
from repro.core.channel import ChannelSpec
from repro.core.partitioning import SymmetricDPS
from repro.errors import ConfigurationError
from repro.network.topology import build_star


class TestExport:
    def test_csv_layout(self):
        text = series_to_csv("x", [1, 2], {"a": [10, 20], "b": [30, 40]})
        lines = text.strip().splitlines()
        assert lines[0] == "x,a,b"
        assert lines[1] == "1,10,30"
        assert lines[2] == "2,20,40"

    def test_json_is_self_describing(self):
        text = series_to_json(
            "requested", [20], {"sdps": [19.5]}, metadata={"seed": 7}
        )
        document = json.loads(text)
        assert document["x_label"] == "requested"
        assert document["series"]["sdps"] == [19.5]
        assert document["metadata"]["seed"] == 7

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            series_to_csv("x", [1, 2], {"a": [1]})
        with pytest.raises(ConfigurationError):
            series_to_json("x", [1], {"a": [1, 2]})

    def test_empty_label_rejected(self):
        with pytest.raises(ConfigurationError):
            series_to_csv("", [1], {"a": [1]})

    def test_write_roundtrip(self, tmp_path):
        csv_path = write_csv(tmp_path / "out.csv", "x", [1], {"a": [2]})
        assert csv_path.read_text().startswith("x,a")
        json_path = write_json(tmp_path / "out.json", "x", [1], {"a": [2]})
        assert json.loads(json_path.read_text())["x"] == [1]

    def test_write_creates_missing_parent_directories(self, tmp_path):
        missing = tmp_path / "out" / "nested"
        csv_path = write_csv(missing / "a.csv", "x", [1], {"a": [2]})
        json_path = write_json(missing / "a.json", "x", [1], {"a": [2]})
        text_path = write_text(tmp_path / "other" / "b.txt", "hi")
        assert csv_path.read_text().startswith("x,a")
        assert json.loads(json_path.read_text())["x"] == [1]
        assert text_path.read_text() == "hi"


class TestTimeline:
    def make_traced_network(self):
        net = build_star(
            ["m", "s0", "s1"], dps=SymmetricDPS(), trace_enabled=True
        )
        spec = ChannelSpec(period=100, capacity=3, deadline=40)
        for dest in ("s0", "s1"):
            net.establish_analytically("m", dest, spec)
        net.start_all_sources(stop_after_messages=1)
        net.sim.run()
        return net

    def test_build_timelines_from_real_run(self):
        net = self.make_traced_network()
        timelines = build_timelines(
            net.trace, slot_ns=net.phy.slot_ns, horizon_slots=40
        )
        uplink = timelines["m->switch"]
        # 2 channels x 3 frames = 6 uplink RT slots.
        assert uplink.busy_slots == 6
        assert uplink.channel_slot_count(1) == 3
        assert uplink.channel_slot_count(2) == 3
        # downlinks each carry their own channel's 3 frames
        assert timelines["switch->s0"].busy_slots == 3

    def test_render_contains_channel_glyphs(self):
        net = self.make_traced_network()
        timelines = build_timelines(
            net.trace, slot_ns=net.phy.slot_ns, horizon_slots=20
        )
        text = render_timeline(timelines["m->switch"])
        assert "m->switch" in text
        assert "1" in text and "2" in text and "." in text

    def test_glyphs(self):
        timeline = LinkTimeline(
            link="x", slots=[[], [1], [-1], [1, 2], [11], [99]]
        )
        text = render_timeline(timeline, width=10)
        assert "|.1#+b*|" in text

    def test_invalid_inputs(self):
        from repro.sim.trace import TraceRecorder

        with pytest.raises(ConfigurationError):
            build_timelines(TraceRecorder(), slot_ns=0, horizon_slots=5)
        with pytest.raises(ConfigurationError):
            build_timelines(TraceRecorder(), slot_ns=1, horizon_slots=0)
        with pytest.raises(ConfigurationError):
            render_timeline(LinkTimeline(link="x", slots=[]), width=0)

    def test_records_beyond_horizon_ignored(self):
        net = self.make_traced_network()
        timelines = build_timelines(
            net.trace, slot_ns=net.phy.slot_ns, horizon_slots=2
        )
        for timeline in timelines.values():
            assert len(timeline.slots) == 2
