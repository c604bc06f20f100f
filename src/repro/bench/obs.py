"""Tracing-overhead sweeps for repro.obs (DESIGN.md §9).

Measures the Figure-3 configurations at four obs settings — no obs
config, metrics-only (the default registry), spans on, spans + flight
recorder — and exposes a traced-run artifact writer for CI (JSON-lines
trace, Prometheus export, seeded-divergence postmortem).

The determinism contract under test: metrics are host-side only, so the
metrics-only wall time must be *identical* to the no-config run; spans
and the recorder charge small fixed costs at instrumented choke points,
so their regression is deterministic and bounded.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.native import run_native
from repro.bench.dist import smoke
from repro.bench.harness import MAX_STEPS, _find_bench, _scaled
from repro.core import Level, ReMon, ReMonConfig
from repro.guest.program import Program
from repro.kernel import Kernel
from repro.obs import ObsConfig, write_postmortem, write_prometheus, write_trace_jsonl
from repro.workloads.calibrate import calibrate
from repro.workloads.profiles import derive_workload
from repro.workloads.synthetic import SyntheticWorkload, build_program

#: Figure-3 subset swept by the overhead bench (full vs CI smoke).
BENCHES_FULL = ("blackscholes", "dedup", "streamcluster", "swaptions")
BENCHES_SMOKE = ("blackscholes", "dedup")
LEVELS = (Level.NO_IPMON, Level.NONSOCKET_RW)


def _workload(bench_name: str) -> SyntheticWorkload:
    """The (scaled) fitted profile of one Figure-3 benchmark."""
    return _scaled(derive_workload(_find_bench(bench_name), calibrate()))


def _run(workload: SyntheticWorkload, level: Level, obs_cfg: Optional[ObsConfig]):
    """One fresh (uncached) MVEE run; returns (result, mvee) so callers
    can read the live registry/tracer, which lru-cached helpers hide."""
    program = build_program(workload)
    kernel = Kernel()
    mvee = ReMon(kernel, program, ReMonConfig(level=level, obs=obs_cfg))
    result = mvee.run(max_steps=MAX_STEPS)
    assert not result.diverged, result.divergence
    return result, mvee


def overhead_rows() -> List[Dict]:
    """The obs-overhead sweep: one row per (benchmark, level)."""
    benches = BENCHES_SMOKE if smoke() else BENCHES_FULL
    rows: List[Dict] = []
    for name in benches:
        workload = _workload(name)
        native_ns = run_native(build_program(workload)).wall_time_ns
        for level in LEVELS:
            base, _ = _run(workload, level, None)
            metrics, metrics_mvee = _run(workload, level, ObsConfig())
            spans, spans_mvee = _run(workload, level, ObsConfig(spans=True))
            full, full_mvee = _run(
                workload, level, ObsConfig(spans=True, flight_recorder=True)
            )
            hist = metrics_mvee.obs.registry.histograms["rendezvous_wait_ns"]
            recorder = full_mvee.obs.recorder
            rows.append({
                "bench": name,
                "level": level.name,
                "native_ns": native_ns,
                "wall_base_ns": base.wall_time_ns,
                "wall_metrics_ns": metrics.wall_time_ns,
                "wall_spans_ns": spans.wall_time_ns,
                "wall_full_ns": full.wall_time_ns,
                "spans_ratio": spans.wall_time_ns / max(1, base.wall_time_ns),
                "full_ratio": full.wall_time_ns / max(1, base.wall_time_ns),
                "rendezvous_wait_count": hist.count,
                "rendezvous_wait_p50_ns": hist.percentile(50),
                "rendezvous_wait_p99_ns": hist.percentile(99),
                "span_events": len(spans_mvee.obs.tracer.events),
                "span_dropped": spans_mvee.obs.tracer.dropped,
                "recorder_events": recorder.recorded,
            })
    return rows


def _seeded_divergence_program() -> Program:
    """Replica 1 opens a different path than replica 0: the GHUMVEE
    rendezvous argument comparison must catch it on syscall `open`."""

    def main(ctx):
        path = "/data/a" if ctx.process.replica_index == 0 else "/data/b"
        fd = yield from ctx.libc.open(path)
        del fd
        return 0

    return Program(
        "seeded-divergence", main, files={"/data/a": b"x", "/data/b": b"y"}
    )


def run_seeded_divergence(obs_cfg: Optional[ObsConfig] = None):
    """Run the seeded-divergence workload under the flight recorder;
    returns the finished MveeResult (diverged, with a postmortem)."""
    if obs_cfg is None:
        obs_cfg = ObsConfig(spans=True, flight_recorder=True, ring_size=32)
    kernel = Kernel()
    mvee = ReMon(
        kernel, _seeded_divergence_program(), ReMonConfig(obs=obs_cfg)
    )
    result = mvee.run(max_steps=20_000_000)
    assert result.diverged, "seeded divergence did not trigger"
    return result, mvee


def write_artifacts(
    trace_path: str = "obs_trace.jsonl",
    postmortem_path: str = "obs_postmortem.json",
    prom_path: str = "obs_metrics.prom",
) -> Dict:
    """Produce the CI artifacts: a traced clean run (JSON-lines trace +
    Prometheus export) and a seeded-divergence postmortem."""
    _result, mvee = _run(
        _workload("blackscholes"),
        Level.NONSOCKET_RW,
        ObsConfig(spans=True, flight_recorder=True),
    )
    events = write_trace_jsonl(trace_path, mvee.obs.tracer)
    write_prometheus(prom_path, mvee.obs.registry)

    div_result, _div_mvee = run_seeded_divergence()
    postmortem = div_result.postmortem
    assert postmortem is not None
    write_postmortem(postmortem_path, postmortem)
    return {
        "trace_events": events,
        "trace_dropped": mvee.obs.tracer.dropped,
        "postmortem_replica": postmortem.replica,
        "postmortem_syscall": postmortem.syscall,
        "postmortem_reason": postmortem.reason,
    }
