"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload is built from a seed, sets itself up once (``setup``) and
then runs any number of identical passes (``run_pass``). A pass builds
fresh simulated worlds, runs them, checks their outputs and returns a
:class:`PassResult`: the virtual metrics, the counts the per-layer view
reads, the operation tally and a fingerprint of every virtual output.
A simulation that raises is counted as failed operations; the pass goes
on with the next run.

Why these three workloads, and which layers each one exercises or
bypasses, is written down in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from typing import Dict, List, Optional

MAX_STEPS = 400_000_000

#: Paper Fig. 3 PARSEC geomeans (normalised run time, 2 replicas). The
#: profiles are fitted to these, so agreement is not a validation.
PAPER_FIG3 = {"remon": 1.11, "ghumvee": 1.22}


def percentile(samples: List[int], p: float) -> int:
    """Nearest-rank percentile over every sample (0 when empty)."""
    if not samples:
        return 0
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


class SampleRecorder:
    """Stands in for ``ClientResult.latency``: the client calls the same
    ``observe()``, but every sample is kept, so percentiles are exact
    rather than snapped to histogram bucket bounds."""

    def __init__(self):
        self.samples: List[int] = []

    def observe(self, value: int) -> None:
        self.samples.append(value)


class PassResult:
    """One pass: operations, checks, virtual metrics and layer counts."""

    def __init__(self):
        self.attempted = 0
        #: Operations that failed in a way that makes the run wrong.
        self.failed = 0
        #: Operations admission control shed on purpose (counted in
        #: ``failed_frac`` but expected under overload).
        self.shed = 0
        self.problems: List[str] = []
        self.virtual: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.histograms: Dict[str, object] = {}
        self._outputs: List[tuple] = []

    def op(self, attempted: int, failed: int = 0, problem: Optional[str] = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)

    def add_counts(self, stats: Dict, keys: Dict[str, str]) -> None:
        for metric, key in keys.items():
            self.counts[metric] = self.counts.get(metric, 0) + stats.get(key, 0)

    def add_histogram(self, registry, name: str) -> None:
        hist = registry.histograms.get(name)
        if hist is None:
            return
        mine = self.histograms.get(name)
        if mine is None:
            mine = self.histograms[name] = type(hist)(hist.name, hist.bounds)
        mine.merge(hist)

    def hist_p99(self, name: str) -> int:
        hist = self.histograms.get(name)
        value = hist.percentile(99) if hist is not None else None
        return value or 0

    def record(self, *output) -> None:
        """Keep one run's virtual outputs for the fingerprint."""
        self._outputs.append(output)

    def fingerprint(self) -> str:
        """Digest of every virtual output of the pass: a simulator-only
        change must leave it bit-identical."""
        blob = repr((self._outputs, sorted(self.virtual.items()),
                     sorted(self.counts.items())))
        return hashlib.sha256(blob.encode()).hexdigest()


def _check_mvee(result, tally: PassResult, label: str, replicas: int) -> bool:
    """One run: divergence plus one exit-code check per replica."""
    failed = 1 if result.diverged else 0
    failed += sum(1 for code in result.exit_codes if code != 0)
    problem = None
    if failed:
        problem = "%s: diverged=%s exit_codes=%s" % (
            label, result.diverged, list(result.exit_codes))
    tally.op(1 + replicas, failed, problem)
    return failed == 0


def _raised(tally: PassResult, label: str, operations: int) -> None:
    tally.op(operations, operations, "%s raised: %s" % (
        label, traceback.format_exc(limit=3).strip().splitlines()[-1]))


#: RunResult.stats keys summed into per-layer counts.
CORE_COUNTS = {
    "core.ikb.forwarded": "broker_forwarded_to_ipmon",
    "core.ipmon.unmonitored": "ipmon_unmonitored_calls",
    "core.ghumvee.monitored": "monitored_calls",
}
DIST_COUNTS = {
    "dist.cluster.rounds": "dist_rendezvous_completed",
    "dist.cluster.rendezvous_calls": "dist_rendezvous_calls",
    "dist.node.replicated_calls": "dist_replicated_calls",
    "dist.node.local_calls": "dist_local_calls",
    "dist.transport.frames": "dist_frames",
    "dist.transport.wire_bytes": "dist_wire_bytes",
    "dist.codec.coded_bytes": "dist_payload_coded_bytes",
    "dist.codec.raw_bytes": "dist_payload_raw_bytes",
}


class RemonParsec:
    """Single-node ReMon, 2 replicas, over the 12 PARSEC profiles of
    Fig. 3: each profile native, GHUMVEE-only and ReMon."""

    name = "remon-parsec"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.workloads = []

    def setup(self) -> None:
        from repro.core import Level, ReMon, ReMonConfig
        from repro.kernel import Kernel
        from repro.workloads.calibrate import calibrate
        from repro.workloads.profiles import PARSEC_BENCHMARKS, derive_workload
        from repro.workloads.synthetic import build_program

        benches = PARSEC_BENCHMARKS[:2] if self.tiny else PARSEC_BENCHMARKS
        cal = calibrate()
        self.workloads = [derive_workload(b, cal, seed=self.seed) for b in benches]
        if self.tiny:
            from dataclasses import replace
            self.workloads = [replace(w, native_ms=min(w.native_ms, 2.0))
                              for w in self.workloads]
        for workload in self.workloads:
            build_program(workload)
        ReMon(Kernel(), build_program(self.workloads[0]),
              ReMonConfig(replicas=2, level=Level.NONSOCKET_RW, seed=self.seed))

    def run_pass(self) -> PassResult:
        from repro.baselines.native import run_native
        from repro.core import Level, ReMon, ReMonConfig
        from repro.kernel import Kernel
        from repro.workloads.synthetic import build_program

        tally = PassResult()
        ratios = {Level.NO_IPMON: [], Level.NONSOCKET_RW: []}
        for workload in self.workloads:
            label = "%s/native" % workload.name
            try:
                native = run_native(build_program(workload), max_steps=MAX_STEPS)
            except Exception:  # noqa: BLE001 - counted, the pass goes on
                _raised(tally, label, 2)
                continue
            ok = native.exit_code == 0
            tally.op(2, 0 if ok else 1, None if ok else "%s exit %s" % (label, native.exit_code))
            tally.record(label, native.wall_time_ns, native.exit_code)
            tally.counts["sim.steps"] = tally.counts.get("sim.steps", 0) + native.kernel.sim.steps
            for level in (Level.NO_IPMON, Level.NONSOCKET_RW):
                label = "%s/%s" % (workload.name, level.name)
                try:
                    mvee = ReMon(Kernel(), build_program(workload),
                                 ReMonConfig(replicas=2, level=level, seed=self.seed))
                    result = mvee.run(max_steps=MAX_STEPS)
                except Exception:  # noqa: BLE001 - counted, the pass goes on
                    _raised(tally, label, 3)
                    continue
                if _check_mvee(result, tally, label, 2):
                    ratios[level].append(result.wall_time_ns / max(1, native.wall_time_ns))
                tally.record(label, result.wall_time_ns, list(result.exit_codes),
                             result.diverged, sorted(result.stats.items()))
                tally.add_counts(result.stats, CORE_COUNTS)
                tally.counts["sim.steps"] += mvee.kernel.sim.steps
                tally.add_histogram(mvee.obs.registry, "rendezvous_wait_ns")
        tally.virtual["overhead_x"] = geomean(ratios[Level.NONSOCKET_RW])
        tally.virtual["core.ghumvee.overhead_x"] = geomean(ratios[Level.NO_IPMON])
        tally.counts["core.ghumvee.rendezvous_wait_p99_us"] = (
            tally.hist_p99("rendezvous_wait_ns") / 1e3)
        return tally

    def notes(self, virtual: Dict[str, float]) -> List[str]:
        return [
            "reference: paper Fig. 3 PARSEC geomean ReMon %.2f (ours %.4f), "
            "GHUMVEE-only %.2f (ours %.4f) -- fitted, not a validation: "
            "derive_workload fits the profiles to these targets" % (
                PAPER_FIG3["remon"], virtual.get("overhead_x", 0.0),
                PAPER_FIG3["ghumvee"], virtual.get("core.ghumvee.overhead_x", 0.0)),
        ]


class DistScale:
    """The sweep64 shape of ``repro.bench.engine.sweep_64x32``: 64 nodes,
    a 32-thread synthetic program at NO_IPMON over 50 us links, plus the
    same program run natively for ``overhead_x``."""

    name = "dist-scale"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.nodes = 4 if tiny else 64
        self.threads = 4 if tiny else 32
        self.native_ms = 0.3 if tiny else 1.5
        self.workload = None

    def _config(self):
        from repro.core import DegradationPolicy, Level, ReMonConfig
        from repro.dist import DistConfig

        return ReMonConfig(
            replicas=self.nodes,
            level=Level.NO_IPMON,
            degradation=DegradationPolicy(min_quorum=self.nodes // 2 + 1),
            dist=DistConfig(link_latency_ns=50_000),
            seed=self.seed,
        )

    def setup(self) -> None:
        from repro.dist import DistMvee
        from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

        rate = 90_000.0
        self.workload = SyntheticWorkload(
            name="dist-scale",
            native_ms=self.native_ms,
            mix=CategoryMix({
                "base": rate * 0.4,
                "file_ro": rate * 0.35,
                "sock_ro": rate * 0.1,
                "sock_rw": rate * 0.05,
                "mgmt": rate * 0.1,
            }),
            threads=self.threads,
            seed=self.seed,
        )
        DistMvee(build_program(self.workload), self._config())

    def run_pass(self) -> PassResult:
        from repro.baselines.native import run_native
        from repro.dist import DistMvee
        from repro.workloads.synthetic import build_program

        tally = PassResult()
        tally.counts["sim.steps"] = 0
        native_ns = None
        try:
            native = run_native(build_program(self.workload), max_steps=MAX_STEPS)
            ok = native.exit_code == 0
            tally.op(2, 0 if ok else 1, None if ok else "native exit %s" % native.exit_code)
            tally.record("native", native.wall_time_ns, native.exit_code)
            tally.counts["sim.steps"] += native.kernel.sim.steps
            native_ns = native.wall_time_ns
        except Exception:  # noqa: BLE001 - counted, the pass goes on
            _raised(tally, "native", 2)
        try:
            mvee = DistMvee(build_program(self.workload), self._config())
            result = mvee.run(max_steps=MAX_STEPS)
        except Exception:  # noqa: BLE001 - counted, the pass goes on
            _raised(tally, "cluster", 1 + self.nodes)
            tally.virtual["overhead_x"] = 0.0
            return tally
        ok = _check_mvee(result, tally, "cluster", self.nodes)
        tally.record("cluster", result.wall_time_ns, list(result.exit_codes),
                     result.diverged, sorted(result.stats.items()))
        tally.add_counts(result.stats, CORE_COUNTS)
        tally.add_counts(result.stats, DIST_COUNTS)
        tally.counts["sim.steps"] += mvee.sim.steps
        tally.add_histogram(mvee.obs.registry, "dist_monitor_wait_ns")
        tally.add_histogram(mvee.obs.registry, "rendezvous_wait_ns")
        tally.counts["dist.cluster.monitor_wait_p99_us"] = (
            tally.hist_p99("dist_monitor_wait_ns") / 1e3)
        tally.counts["core.ghumvee.rendezvous_wait_p99_us"] = (
            tally.hist_p99("rendezvous_wait_ns") / 1e3)
        ratio = result.wall_time_ns / native_ns if ok and native_ns else 0.0
        tally.virtual["overhead_x"] = ratio
        return tally

    def notes(self, virtual: Dict[str, float]) -> List[str]:
        return ["reference: none -- no reference; model unvalidated"]


class FleetRedis:
    """A 3-node heterogeneous redis fleet in external-service mode with
    leader admission control, driven by one multiplexed open-loop client
    at three fixed connection rates, plus the same client against a
    native redis at the light rate for ``overhead_x``."""

    name = "fleet-redis"
    #: Connection pace per rate (ns between SYNs). The accept knee of
    #: this shape is ~4k conn/s: light is half of it, over is twice it.
    RATES = (("light", 500_000), ("knee", 250_000), ("over", 125_000))
    NODES = 3
    LINK_NS = 20_000

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.connections = 8 if tiny else 128
        self.requests_per_conn = 2 if tiny else 8
        self.spec = None
        self.expected_reply = 0

    def setup(self) -> None:
        from repro.workloads.servers import HEADER, SERVERS

        self.spec = SERVERS["redis"]
        self.expected_reply = len(HEADER) + self.spec.response_bytes
        self._cluster()

    def _cluster(self):
        from repro.bench.fleet import throttled_config
        from repro.core import Level, ReMonConfig
        from repro.dist import DistConfig, DistMvee
        from repro.dist.selective import fleet_replication
        from repro.fleet import AdmissionController

        dconfig = DistConfig(
            external_service=True,
            heterogeneous=True,
            compress="dict",
            link_latency_ns=self.LINK_NS,
            replication=fleet_replication(),
        )
        mvee = DistMvee(self.spec.program(), ReMonConfig(
            replicas=self.NODES, level=Level.SOCKET_RW, dist=dconfig, seed=self.seed))
        controller = AdmissionController(throttled_config())
        controller.accept_wait_hist = mvee.obs.registry.histogram("fleet_accept_wait_ns")
        mvee.nodes[mvee.leader_index].kernel.admission_control = controller
        return mvee, controller

    def _client(self, kernel, server_ip: str, pace_ns: int, drain_hook=None):
        """Start the mux client on ``kernel``; returns its result and the
        virtual times at which it issued each connect."""
        from repro.fleet.runner import FLEET_CLIENT_HOST
        from repro.guest import GuestRuntime
        from repro.workloads.clients import (
            ClientResult,
            MuxClientSpec,
            build_mux_client_program,
        )

        result = ClientResult()
        result.latency = SampleRecorder()
        spec = MuxClientSpec(
            connections=self.connections,
            requests_per_conn=self.requests_per_conn,
            shard_size=self.connections,
            connect_pace_ns=pace_ns,
            response_bytes=self.spec.response_bytes,
            drain_hook=drain_hook,
        )
        program = build_mux_client_program(server_ip, self.spec.port, spec, result)
        process = kernel.create_process("mux-client", host_ip=FLEET_CLIENT_HOST)
        connects: List[int] = []

        def stamp_connects(ctx):
            connect = ctx.libc.connect

            def timed_connect(fd, ip, port):
                connects.append(ctx.kernel.sim.now)
                return (yield from connect(fd, ip, port))

            ctx.libc.connect = timed_connect

        process.ctx_hook = stamp_connects
        GuestRuntime(kernel, process, program).start()
        return result, connects

    def _lateness_ms(self, connects: List[int], pace_ns: int) -> float:
        """How far behind its pace schedule the generator issued the
        worst connect (one shard: connect i is due at t0 + i * pace)."""
        stamps = connects[:self.connections]
        if not stamps:
            return 0.0
        return max(t - (stamps[0] + i * pace_ns) for i, t in enumerate(stamps)) / 1e6

    def _check_client(self, client, tally: PassResult, label: str, shed: int) -> int:
        """Requests offered vs answered with the right byte count; returns
        the requests answered correctly. Shed connections lose their
        requests on purpose; everything else missing is a failure."""
        offered = self.connections * self.requests_per_conn
        good = client.completed
        problems = []
        if client.bytes_received != client.completed * self.expected_reply:
            problems.append("%d bytes for %d replies of %d" % (
                client.bytes_received, client.completed, self.expected_reply))
            good = 0
        if client.refused != shed or client.dropped:
            problems.append("refused=%d dropped=%d but admission shed %d" % (
                client.refused, client.dropped, shed))
        if client.errors:
            problems.append("%d client errors" % client.errors)
        expected_loss = min(offered - good, shed * self.requests_per_conn)
        tally.shed += expected_loss
        failed = offered - good - expected_loss
        if failed and not problems:
            problems.append("%d requests unanswered" % failed)
        tally.op(offered, failed, "%s: %s" % (label, "; ".join(problems)) if problems else None)
        return good

    def run_pass(self) -> PassResult:
        from repro.kernel import Kernel, KernelConfig

        tally = PassResult()
        tally.counts.update({"sim.steps": 0, "fleet.offered": 0, "fleet.shed": 0,
                             "workloads.client.late_max_ms": 0.0})
        offered = self.connections * self.requests_per_conn
        light_latency = None
        for rate, pace in self.RATES:
            label = "fleet/%s" % rate
            try:
                mvee, controller = self._cluster()
                mvee.start()
                kernel = Kernel(sim=mvee.sim, network=mvee.network,
                                config=KernelConfig(cores=8))
                leader_ip = mvee.nodes[mvee.leader_index].host_ip
                client, connects = self._client(kernel, leader_ip, pace, controller.disarm)
                mvee.sim.run(max_steps=MAX_STEPS)
                result = mvee.finalize()
            except Exception:  # noqa: BLE001 - counted, the pass goes on
                _raised(tally, label, 1 + self.NODES + offered)
                continue
            _check_mvee(result, tally, label, self.NODES)
            self._check_client(client, tally, label, controller.shed)
            samples = client.latency.samples
            if rate == "light":
                light_latency = samples
            late_ms = self._lateness_ms(connects, pace)
            tally.virtual["p50_ms.%s" % rate] = percentile(samples, 50) / 1e6
            tally.virtual["p99_ms.%s" % rate] = percentile(samples, 99) / 1e6
            tally.virtual["samples.%s" % rate] = len(samples)
            tally.virtual["goodput_rps.%s" % rate] = client.throughput_rps()
            tally.virtual["late_max_ms.%s" % rate] = late_ms
            tally.record(label, result.wall_time_ns, list(result.exit_codes),
                         result.diverged, sorted(result.stats.items()), samples,
                         connects, client.bytes_received)
            tally.add_counts(result.stats, CORE_COUNTS)
            tally.add_counts(result.stats, DIST_COUNTS)
            tally.counts["sim.steps"] += mvee.sim.steps
            tally.counts["fleet.offered"] += controller.offered
            tally.counts["fleet.shed"] += controller.shed
            tally.counts["workloads.client.late_max_ms"] = max(
                tally.counts["workloads.client.late_max_ms"], late_ms)
            for name in ("fleet_accept_wait_ns", "dist_monitor_wait_ns",
                         "rendezvous_wait_ns"):
                tally.add_histogram(mvee.obs.registry, name)
        tally.counts["fleet.accept_wait_p99_ms"] = tally.hist_p99("fleet_accept_wait_ns") / 1e6
        tally.counts["dist.cluster.monitor_wait_p99_us"] = (
            tally.hist_p99("dist_monitor_wait_ns") / 1e3)
        tally.counts["core.ghumvee.rendezvous_wait_p99_us"] = (
            tally.hist_p99("rendezvous_wait_ns") / 1e3)
        tally.virtual["overhead_x"] = self._native_ratio(tally, light_latency)
        return tally

    def _native_ratio(self, tally: PassResult, light_latency) -> float:
        """Mean request latency at the light rate, fleet over native."""
        from repro.baselines.native import run_native
        from repro.kernel import Kernel, KernelConfig

        kernel = Kernel(config=KernelConfig(network_latency_ns=self.LINK_NS))
        started = {}

        def start_client(k):
            started["client"] = self._client(k, "10.0.0.1", self.RATES[0][1])

        try:
            native = run_native(self.spec.program(), kernel=kernel,
                                side_tasks=start_client, max_steps=MAX_STEPS)
        except Exception:  # noqa: BLE001 - counted, the pass goes on
            _raised(tally, "native/light", 1 + self.connections * self.requests_per_conn)
            return 0.0
        ok = native.exit_code == 0
        tally.op(1, 0 if ok else 1, None if ok else "native exit %s" % native.exit_code)
        client, _ = started["client"]
        good = self._check_client(client, tally, "native/light", 0)
        tally.counts["sim.steps"] += native.kernel.sim.steps
        samples = client.latency.samples
        tally.record("native/light", native.wall_time_ns, native.exit_code, samples)
        if not light_latency or good == 0:
            return 0.0
        native_mean = sum(samples) / len(samples)
        return (sum(light_latency) / len(light_latency)) / native_mean

    def notes(self, virtual: Dict[str, float]) -> List[str]:
        lines = ["reference: none -- no reference; model unvalidated"]
        for rate, pace in self.RATES:
            lines.append(
                "%-5s %6.0f conn/s offered: p50 %.4f ms, p99 %.4f ms over %d samples, "
                "goodput %.1f req/s, generator late by up to %.4f ms" % (
                    rate, 1e9 / pace, virtual.get("p50_ms.%s" % rate, 0.0),
                    virtual.get("p99_ms.%s" % rate, 0.0),
                    virtual.get("samples.%s" % rate, 0),
                    virtual.get("goodput_rps.%s" % rate, 0.0),
                    virtual.get("late_max_ms.%s" % rate, 0.0)))
        lines.append("shed and refused requests miss every latency limit; "
                     "percentiles are over answered requests only")
        return lines


WORKLOADS = {w.name: w for w in (RemonParsec, DistScale, FleetRedis)}
