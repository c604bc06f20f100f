"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 mvxbench/run.py --workload remon-parsec --seed 1 --seconds 20 --trace 0

A run measures set-up in fresh processes (``setup_s``, the median of
several), runs one warm-up pass, then repeats passes for ``--seconds``
with tracing off and reports the median pass time (``run_s``, printed
but not gated) and the process's peak RSS. With ``--trace 1`` it then runs
one more pass with every ``repro`` layer wrapped (see layertrace.py) and
reports per-layer self time and counts instead. Virtual metrics are
deterministic per seed; every pass, traced or not, must reproduce the
warm-up pass's virtual outputs exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-process set-ups per run (setup_s is their median): at least
#: the first, and up to the second while they have taken under
#: SETUP_BUDGET_S, so cheap set-ups get more samples.
SETUP_SAMPLES = (3, 7)
SETUP_BUDGET_S = 5.0
#: Timed passes per run at least, however long they take.
MIN_PASSES = 3

END_TO_END = [
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("overhead_x", "x"),
]

#: Per-layer metrics besides each layer's ``<layer>.self_s``. ``run_s``
#: sits here, with no bound, because the host's speed drifts more
#: between runs than any bound allows (README.md). Virtual client
#: figures sit here because they exist on fleet-redis only; on the
#: other workloads they read 0 (no client).
PER_LAYER_EXTRA = [
    ("run_s", "s"),
    ("other.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("sim.steps", "count"),
    ("kernel.syscalls", "count"),
    ("kernel.memory.regions", "count"),
    ("kernel.memory.region_mb", "MiB"),
    ("core.ikb.forwarded", "count"),
    ("core.ipmon.unmonitored", "count"),
    ("core.ghumvee.monitored", "count"),
    ("ptrace.stops", "count"),
    ("core.ghumvee.overhead_x", "x"),
    ("core.ghumvee.rendezvous_wait_p99_us", "us"),
    ("core.comparator.calls", "count"),
    ("core.canonical.calls", "count"),
    ("core.digests.hit_ratio", "ratio"),
    ("dist.cluster.rounds", "count"),
    ("dist.cluster.participants_calls", "count"),
    ("dist.shard.owner_calls", "count"),
    ("dist.cluster.monitor_wait_p99_us", "us"),
    ("dist.node.replicated_calls", "count"),
    ("dist.transport.frames_per_call", "ratio"),
    ("dist.transport.wire_bytes_per_call", "B"),
    ("dist.codec.ratio", "ratio"),
    ("fleet.accept_wait_p99_ms", "ms"),
    ("fleet.shed_frac", "ratio"),
    ("workloads.client.late_max_ms", "ms"),
    ("failed_frac", "ratio"),
    ("p50_ms.light", "ms"),
    ("p99_ms.light", "ms"),
    ("p99_ms.knee", "ms"),
    ("p99_ms.over", "ms"),
    ("goodput_rps.over", "req/s"),
    ("samples.light", "count"),
    ("samples.knee", "count"),
    ("samples.over", "count"),
]


def per_layer_metrics():
    from layertrace import LAYERS

    return [("%s.self_s" % layer, "s") for layer in LAYERS] + PER_LAYER_EXTRA


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def setup_once(workload_name: str, seed: int, tiny: bool) -> float:
    """Imports, calibration, profile fits, program and world build."""
    t0 = time.perf_counter()
    from worlds import WORKLOADS

    WORKLOADS[workload_name](seed, tiny).setup()
    return time.perf_counter() - t0


def measure_setup(args) -> float:
    least, most = (1, 1) if args.tiny else SETUP_SAMPLES
    samples = []
    while len(samples) < least or (len(samples) < most and sum(samples) < SETUP_BUDGET_S):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if out.returncode != 0:
            raise RuntimeError("set-up process failed:\n" + out.stderr)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def timed_pass(workload):
    gc.collect()
    t0 = time.perf_counter()
    result = workload.run_pass()
    return time.perf_counter() - t0, result


def traced_pass(workload, args):
    from repro.core.digests import interner
    from layertrace import LayerTracer

    gc.collect()
    hits, misses = interner.hits, interner.misses
    tracer = LayerTracer()
    with tracer:
        t0 = time.perf_counter()
        result = workload.run_pass()
        elapsed = time.perf_counter() - t0
    lookups = interner.hits - hits + interner.misses - misses
    tracer.probes["core.digests.hit_ratio"] = _ratio(interner.hits - hits, lookups)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
    return elapsed, result, tracer


def layer_metrics(tracer, traced_s, untraced_s, result):
    counts = result.counts
    virtual = result.virtual
    self_s = tracer.layer_self_s()
    entries = tracer.layer_entries()
    dist_calls = sum(counts.get(k, 0) for k in (
        "dist.cluster.rendezvous_calls", "dist.node.replicated_calls",
        "dist.node.local_calls"))
    offered = counts.get("fleet.offered", 0)
    values = {"%s.self_s" % layer: s for layer, s in self_s.items()}
    values.update({
        "other.self_s": traced_s - tracer.covered_s,
        "trace.overhead_s": traced_s - untraced_s,
        "sim.steps": counts.get("sim.steps", 0),
        "kernel.syscalls": tracer.calls_matching("Kernel.syscall_path"),
        "kernel.memory.regions": tracer.probes.get("kernel.memory.regions", 0),
        "kernel.memory.region_mb": tracer.probes.get("kernel.memory.region_bytes", 0) / 2**20,
        "core.ikb.forwarded": counts.get("core.ikb.forwarded", 0),
        "core.ipmon.unmonitored": counts.get("core.ipmon.unmonitored", 0),
        "core.ghumvee.monitored": counts.get("core.ghumvee.monitored", 0),
        "ptrace.stops": sum(n for key, n in tracer.calls.items()
                            if ".Tracer.report_" in key),
        "core.ghumvee.overhead_x": virtual.get("core.ghumvee.overhead_x", 0.0),
        "core.ghumvee.rendezvous_wait_p99_us": counts.get(
            "core.ghumvee.rendezvous_wait_p99_us", 0.0),
        "core.comparator.calls": entries["core.comparator"],
        "core.canonical.calls": entries["core.canonical"],
        "core.digests.hit_ratio": tracer.probes["core.digests.hit_ratio"],
        "dist.cluster.rounds": counts.get("dist.cluster.rounds", 0),
        "dist.cluster.participants_calls": tracer.calls_matching("DistMvee.participants"),
        "dist.shard.owner_calls": tracer.calls_matching("shard.shard_owner"),
        "dist.cluster.monitor_wait_p99_us": counts.get("dist.cluster.monitor_wait_p99_us", 0.0),
        "dist.node.replicated_calls": counts.get("dist.node.replicated_calls", 0),
        "dist.transport.frames_per_call": _ratio(counts.get("dist.transport.frames", 0),
                                                 dist_calls),
        "dist.transport.wire_bytes_per_call": _ratio(
            counts.get("dist.transport.wire_bytes", 0), dist_calls),
        "dist.codec.ratio": _ratio(counts.get("dist.codec.coded_bytes", 0),
                                   counts.get("dist.codec.raw_bytes", 0)),
        "fleet.accept_wait_p99_ms": counts.get("fleet.accept_wait_p99_ms", 0.0),
        "fleet.shed_frac": _ratio(counts.get("fleet.shed", 0), offered),
        "workloads.client.late_max_ms": counts.get("workloads.client.late_max_ms", 0.0),
    })
    for name in ("p50_ms.light", "p99_ms.light", "p99_ms.knee", "p99_ms.over",
                 "goodput_rps.over", "samples.light", "samples.knee", "samples.over"):
        values[name] = virtual.get(name, 0)
    return values


def run(args) -> dict:
    from worlds import WORKLOADS

    setup_s = measure_setup(args)
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    workload.setup()
    attempted = failed = shed = 0
    problems = []

    def account(result):
        nonlocal attempted, failed, shed
        attempted += result.attempted
        failed += result.failed
        shed += result.shed
        problems.extend(result.problems)

    _, reference = timed_pass(workload)
    account(reference)
    expected = reference.fingerprint()

    def same_virtual(result, label):
        nonlocal attempted, failed
        attempted += 1
        if result.fingerprint() != expected:
            failed += 1
            problems.append("%s: virtual outputs differ from the warm-up pass" % label)

    times = []
    started = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        elapsed, result = timed_pass(workload)
        times.append(elapsed)
        account(result)
        same_virtual(result, "pass %d" % len(times))
    run_s = statistics.median(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    virtual = reference.virtual
    lines = ["%s seed %d: %d timed passes of %s s" % (
        args.workload, args.seed, len(times), " ".join("%.4f" % t for t in times))]
    lines += workload.notes(virtual)
    if args.trace:
        traced_s, traced, tracer = traced_pass(workload, args)
        account(traced)
        same_virtual(traced, "traced pass")
        attempted += 1
        if tracer.unbalanced or abs(sum(tracer.self_s) - tracer.covered_s) > 1e-6:
            failed += 1
            problems.append("layer self times %.6f s do not sum to the traced time "
                            "covered by spans %.6f s" % (sum(tracer.self_s), tracer.covered_s))
        values = layer_metrics(tracer, traced_s, run_s, traced)
        values["run_s"] = run_s
        values["failed_frac"] = _ratio(failed + shed, attempted)
        metrics = per_layer_metrics()
        lines.append("traced pass %.4f s = layer self times %.4f s + other %.4f s" % (
            traced_s, sum(tracer.self_s), values["other.self_s"]))
    else:
        values = {"peak_rss_mb": peak_rss_mb, "setup_s": setup_s,
                  "overhead_x": virtual.get("overhead_x", 0.0)}
        metrics = END_TO_END
    lines.append("failed_frac %.6f = (%d failed + %d shed by admission) / %d attempted" % (
        _ratio(failed + shed, attempted), failed, shed, attempted))
    lines += ["problem: %s" % p for p in problems[:20]]
    for name, unit in metrics:
        lines.append("%-40s %.6g %s" % (name, values[name], unit))
    if not args.trace:
        units = dict(PER_LAYER_EXTRA)
        lines.append("declared per-layer (the same with --trace 1):")
        lines.append("%-40s %.6g %s" % ("run_s", run_s, units["run_s"]))
        for name in sorted(virtual):
            if name in units:
                lines.append("%-40s %.6g %s" % (name, virtual[name], units[name]))
    print("\n".join(lines))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("remon-parsec", "dist-scale", "fleet-redis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for setup_s)")
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print("mvxbench: no repro sources at %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_only:
        print("%.9f" % setup_once(args.workload, args.seed, args.tiny))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
