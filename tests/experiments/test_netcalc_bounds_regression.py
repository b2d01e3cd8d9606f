"""Regression pin: the per-channel netcalc bound table is frozen.

``results/netcalc_bounds.csv`` holds the exact (Fraction-rendered)
end-to-end bounds of every channel admitted from the Fig. 18.5 workload
at three checkpoints, for both schemes. Regenerating the table must
reproduce the file byte-for-byte; CI additionally runs the ``cmp``
against a fresh ``repro netcalc-bounds --csv`` export. Any diff means
the curve algebra, the admission order, or the workload stream changed
-- all of which must be deliberate, reviewed events.
"""

from __future__ import annotations

from pathlib import Path

from repro.cli import main
from repro.experiments.netcalc_bounds import (
    DEFAULT_CHECKPOINTS,
    netcalc_bound_rows,
    render_bounds_csv,
)

FIXTURE = Path(__file__).resolve().parents[2] / "results" / "netcalc_bounds.csv"


class TestNetcalcBoundsRegression:
    def test_csv_is_byte_identical_to_fixture(self):
        regenerated = render_bounds_csv(netcalc_bound_rows())
        assert regenerated == FIXTURE.read_text(), (
            "netcalc bound table drifted from results/netcalc_bounds.csv; "
            "if the change is intentional, regenerate with "
            "`repro netcalc-bounds --csv results/netcalc_bounds.csv` "
            "and review the diff"
        )

    def test_cli_export_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "out" / "netcalc_bounds.csv"
        assert main(["netcalc-bounds", "--csv", str(target)]) == 0
        assert target.read_text() == FIXTURE.read_text()

    def test_rows_cover_both_schemes_at_every_checkpoint(self):
        rows = netcalc_bound_rows()
        seen = {(row.scheme, row.checkpoint) for row in rows}
        assert seen == {
            (scheme, checkpoint)
            for scheme in ("sdps", "adps")
            for checkpoint in DEFAULT_CHECKPOINTS
        }
        # star workload: always source uplink + destination downlink
        assert all(row.hops == 2 for row in rows)
        assert all(row.bound_ns > 0 for row in rows)

    def test_admitted_sets_grow_along_checkpoints(self):
        rows = netcalc_bound_rows()

        def admitted(scheme: str, checkpoint: int) -> set[int]:
            return {
                row.channel_id
                for row in rows
                if row.scheme == scheme and row.checkpoint == checkpoint
            }

        for scheme in ("sdps", "adps"):
            first, mid, last = (
                admitted(scheme, c) for c in DEFAULT_CHECKPOINTS
            )
            assert first <= mid <= last
