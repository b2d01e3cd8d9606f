#!/usr/bin/env python3
"""Run one benchmark workload against the program in ``src/`` and report.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig18_5-sweep --seed 2004 \\
        --seconds 10 --trace 0

The run repeats closed-loop passes over the workload's seeded input for
about ``--seconds`` seconds (at least the workload's minimum number of
passes) and reports medians over passes. ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including
the tracing overhead. Every pass checks the program's outputs.
Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. ``error_rate`` is ``failed / attempted``.

The spans of the last traced pass are written to
``.perfbench/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import Speedometer  # noqa: E402
from layers import LAYER_METRICS, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, HELD_OUT_SEED, NO_PROBE, SIZES, WORKLOADS,
)

#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
SPANS_DIR = Path(".perfbench")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=f"Pinned outputs are checked on seed {DEFAULT_SEED}; "
               f"seed {HELD_OUT_SEED} is held out for checking claims.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny: small inputs for smoke tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def fingerprint(root: Path) -> dict:
    import numpy

    commit = "unavailable"
    if (root / ".git").exists():
        try:
            found = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.SubprocessError):
            found = None
        if found is not None and found.returncode == 0:
            commit = found.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def _child_setup(args) -> tuple[float, float]:
    """Import the program and build the workload's state in a new process;
    return the host seconds that took and their reference-seconds scale."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    seconds, scale = done.stdout.split()[-2:]
    return float(seconds), float(scale)


def _percentile(ordered: list[float], share: float) -> float:
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class _Pass:
    """One timed pass: raw host seconds, its scale and its result."""

    def __init__(self, wall: float, scale: float, result) -> None:
        self.wall = wall
        self.scale = scale
        self.result = result

    @property
    def ref_wall(self) -> float:
        return self.wall * self.scale

    @property
    def ref_rate(self) -> float:
        return self.result.work / self.ref_wall

    @property
    def rate(self) -> float:
        return self.result.work / self.wall


def _one_pass(workload, args, tracer) -> _Pass:
    if tracer is not None:
        tracer.install()
    try:
        state = workload.setup(args.seed, args.size)
        if tracer is not None:
            tracer.clear()
        with Speedometer() as meter:
            result = workload.run_pass(state, tracer or NO_PROBE)
        return _Pass(meter.seconds, meter.scale, result)
    finally:
        if tracer is not None:
            tracer.uninstall()


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    print(f"perfbench {workload.name} seed={args.seed} size={args.size} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint " + json.dumps(fingerprint(Path.cwd()), sort_keys=True))
    # First calls pay lazy imports and first-use costs; keep them out.
    workload.run_pass(workload.setup(args.seed, "tiny"))
    setups = [] if args.trace else [
        _child_setup(args) for _ in range(SETUP_REPEATS)]

    plain: list[_Pass] = []
    traced: list[_Pass] = []
    layer_samples = []
    last_tracer = None
    deadline = perf_counter() + args.seconds
    while True:
        tracer = Tracer() if args.trace and len(plain) > len(traced) else None
        done = _one_pass(workload, args, tracer)
        if tracer is None:
            plain.append(done)
        else:
            traced.append(done)
            layer_samples.append(
                layer_metrics(tracer, done.result.layer, done.wall))
            last_tracer = tracer
        enough = (traced and plain) if args.trace else (
            len(plain) >= workload.min_passes)
        next_kind = traced if args.trace and len(plain) > len(traced) else plain
        upcoming = statistics.median(p.wall for p in (next_kind or plain))
        if enough and perf_counter() + upcoming > deadline:
            break

    results = [p.result for p in plain + traced]
    attempted = sum(r.attempted for r in results)
    problems = Counter(
        text for r in results for text in r.failures + r.failed_ops)
    failed = sum(problems.values())
    correct = not any(r.failures for r in results)
    print(f"passes {len(plain)} untraced, {len(traced)} traced")
    outputs = sorted({r.outputs for r in results})
    print(f"outputs sha256 {' '.join(outputs)}")
    for text, count in sorted(problems.items()):
        print(f"FAILED x{count}: {text}")
    print(f"error_rate {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    scales = [p.scale for p in plain + traced]
    print(f"host speed: reference seconds per host second, median "
          f"{statistics.median(scales):.4g} (min {min(scales):.4g}, "
          f"max {max(scales):.4g})")

    if args.trace:
        metrics = {key: statistics.median(s[key] for s in layer_samples)
                   for key in layer_samples[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(p.ref_wall for p in traced)
            / statistics.median(p.ref_wall for p in plain) - 1.0
        )
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        summary = last_tracer.summary()
        layers = last_tracer.layer_self_times(summary)
        print("self time by layer (last traced pass):")
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:18s} {seconds:9.4f} s")
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"{workload.name}.spans.jsonl"
        last_tracer.write_spans(spans_path)
        print(f"spans {len(last_tracer.span_start)} in "
              f"{last_tracer.trace_count()} traces written to {spans_path}")
    else:
        metrics = {
            "setup_s": statistics.median(t * k for t, k in setups),
            "wall_s": statistics.median(p.ref_wall for p in plain),
            "ops_per_s": statistics.median(p.ref_rate for p in plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                 "peak_rss_mb": "MB"}
        print("unscaled host figures: "
              f"setup_s {statistics.median(t for t, _ in setups):.6g} s, "
              f"wall_s {statistics.median(p.wall for p in plain):.6g} s, "
              f"ops_per_s {statistics.median(p.rate for p in plain):.6g} 1/s")
        print(f"ops_per_s counts {workload.unit}; as named per workload:")
        print(f"  {workload.unit}_per_s {metrics['ops_per_s']:.6g} 1/s")
        _print_star_extras([p.result for p in plain])
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _print_star_extras(results) -> None:
    samples = sorted(ms for r in results for ms in r.extras.get("setup_ms", ()))
    if not samples:
        return
    print(f"  channel_setup_ms_p50 {_percentile(samples, 0.50):.6g} ms "
          f"(n={len(samples)})")
    print(f"  channel_setup_ms_p99 {_percentile(samples, 0.99):.6g} ms "
          f"({len(samples) - math.ceil(0.99 * len(samples))} samples above)")
    worst = max(r.extras["rt_worst_delay_frac"] for r in results)
    print(f"  rt_worst_delay_frac {worst:.6g} (bound 1)")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: no program at src/repro; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.setup_only:
        workload = WORKLOADS[args.workload]
        with Speedometer() as meter:
            workload.setup(args.seed, args.size)
        print(repr(meter.seconds), repr(meter.scale))
        return 0
    # One CPU for the whole run, set-up processes included: the
    # calibration loop then always measures the CPU the pass runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
