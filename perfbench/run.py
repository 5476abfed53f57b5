"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload loop-50 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures half the window untraced and half traced, and
reports the per-layer metrics; the spans are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.  Metric names and
units come from ``BENCHMARK.json``; a layer the workload does not reach
reads 0.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import (  # noqa: E402
    Cleanup,
    Context,
    accounting_ratio,
    check_accounting,
    env_with_src,
    host_speed,
    self_time_by_name,
    speed_probe_ms,
)

WORKLOADS = {
    "loop-50": "loop_workload",
    "service-64": "service_workload",
    "campaign-mix": "campaign_workload",
}
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print the seconds it took, and exit",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_metric_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def setup_in_child(args) -> float:
    """One more cold set-up, in a fresh interpreter.

    The child leads its own process group, so a child killed on timeout
    (or with this run) takes any server it started along with it.
    """
    proc = subprocess.Popen(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--setup-only",
        ],
        cwd=ROOT,
        env=env_with_src(ROOT),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child failed: {err.strip()[-500:]}")
    return float(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    table = load_metric_table()
    module = __import__(WORKLOADS[args.workload])
    Cleanup.install()
    cleanup = Cleanup()
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    repro_cache = Path.cwd() / ".repro-cache"
    if not repro_cache.exists():
        cleanup.push(lambda: shutil.rmtree(repro_cache, ignore_errors=True))
    ctx = Context(root=ROOT, work_dir=work_dir, cleanup=cleanup)
    try:
        fixture = module.setup(args.seed, ctx)
        setup_s = [time.perf_counter() - STARTED]
        setup_s[0] /= host_speed(speed_probe_ms() for _ in range(3))
        if args.setup_only:
            print(setup_s[0])
            return 0
        setup_s += [setup_in_child(args) for _ in range(SETUPS - 1)]
        outcome = module.run(fixture, args.seconds, bool(args.trace))
    finally:
        errors = cleanup.run()
    for error in errors:
        print(f"warning: cleanup: {error}", file=sys.stderr)

    if args.trace:
        problem = check_accounting(outcome.tracer.spans, outcome.traced_wall_s)
        if problem:
            outcome.problems.append(f"{args.workload}: {problem}")
        path = work_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        outcome.tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
        _print_self_times(outcome.tracer.spans, outcome.traced_wall_s)
        outcome.layers["trace.accounted_ratio"] = accounting_ratio(
            outcome.tracer.spans, outcome.traced_wall_s
        )
        units = table["per_layer"]
        values = _per_layer(outcome, units)
    else:
        units = table["end_to_end"]
        values = {
            **outcome.end_to_end,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": outcome.peak_rss_mb,
            "success_ratio": (outcome.attempted - outcome.failed) / outcome.attempted,
        }
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json"
        )
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if not outcome.problems else 1


def _per_layer(outcome, units: dict) -> dict:
    """Every per-layer metric; layers this workload does not reach read 0."""
    unknown = set(outcome.layers) - set(units)
    if unknown:
        raise RuntimeError(f"per-layer metrics {sorted(unknown)} not in BENCHMARK.json")
    values = dict.fromkeys(units, 0.0)
    values.update(outcome.layers)
    return values


def _print_self_times(spans, wall_s: float) -> None:
    """Self time per span name, as a share of the traced wall time."""
    totals = self_time_by_name(spans)
    accounted = sum(total for total, _ in totals.values())
    print(f"traced wall {wall_s * 1e3:.1f} ms; self time by layer:", file=sys.stderr)
    for name, (total, count) in sorted(totals.items(), key=lambda item: -item[1][0]):
        print(
            f"  {name:24s} {total * 1e3:10.1f} ms {total / wall_s:7.1%}  x{count}",
            file=sys.stderr,
        )
    print(f"  {'accounted':24s} {accounted / wall_s:29.1%}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
