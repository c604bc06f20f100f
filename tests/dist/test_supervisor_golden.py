"""Bit-identity gate for the replica-fault supervisor and the
leader-executed ship/await path.

``golden_supervisor_stats.json`` pins the paths that ReMon and DistMvee
share through :class:`repro.core.remon.ReplicaSupervisor` and the paths
the distributed interceptor shares between its replicated lane and its
external-accept lane:

* ``fleet`` / ``fleet_dict`` — 3-node external-service redis fleets:
  accept() runs leader-only and followers adopt the shipped fd; the
  ``fleet_dict`` run adds heterogeneous nodes, the dict codec and full
  replication, so it pins that only the replicated lane pays the codec;
* ``remon_master_crash`` — a single-node ReMon whose master crashes:
  quarantine plus master promotion;
* ``dist_leader_crash`` — a 3-node DistMvee whose leader crashes
  mid-run: quarantine, epoch bump, leader promotion, and a follower
  that executes a replicated call itself after its promotion;
* ``remon_divergence`` / ``dist_divergence`` — a seeded argument
  mismatch under each monitor: the teardown delay and the postmortem.

Each snapshot holds the virtual wall time, exit codes, every stats
counter, the network's wire bytes and the fault bookkeeping. Recapture
with ``PYTHONPATH=src python tests/dist/test_supervisor_golden.py``
only for a change that is meant to move simulated results.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.core import DegradationPolicy, Level, ReMon, ReMonConfig
from repro.dist import DistConfig, DistMvee
from repro.dist.selective import fleet_replication
from repro.faults import CrashFault, FaultInjector, FaultPlan
from repro.guest.program import Program
from repro.kernel import Kernel
from repro.obs import ObsConfig
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_supervisor_stats.json")

MAX_STEPS = 400_000_000


def _workload(name, threads=2):
    return SyntheticWorkload(
        name=name,
        native_ms=1.5,
        mix=CategoryMix(
            {
                "base": 80_000.0,
                "file_ro": 100_000.0,
                "sock_ro": 30_000.0,
                "sock_rw": 30_000.0,
                "mgmt": 20_000.0,
            }
        ),
        threads=threads,
    )


def _snapshot(result, network=None):
    snap = {
        "wall_time_ns": result.wall_time_ns,
        "exit_codes": list(result.exit_codes),
        "stats": dict(sorted(result.stats.items())),
        "shutdown_reason": result.shutdown_reason,
        "quarantined": list(result.quarantined_replicas),
        "fault_events": [
            [e.kind, e.detected_by, e.replica, e.detail]
            for e in result.fault_events
        ],
        "divergence": (
            None if result.divergence is None
            else [result.divergence.detected_by, result.divergence.syscall,
                  result.divergence.detail]
        ),
        "postmortems": [
            [p.reason, p.replica, p.syscall] for p in result.postmortems
        ],
    }
    if network is not None:
        snap["network_bytes_sent"] = network.bytes_sent
        snap["network_segments_sent"] = network.segments_sent
    return snap


def _fleet():
    from repro.fleet import FleetConfig, run_fleet

    fleet = run_fleet(
        FleetConfig(server="redis", nodes=3, connections=8,
                    requests_per_conn=2, shard_size=8)
    )
    snap = _snapshot(fleet.mvee_result)
    snap["row"] = fleet.row()
    return snap


def _fleet_dict():
    """The fleet-redis shape (heterogeneous nodes, dict codec) under
    full replication, driven by a small multiplexed client."""
    from repro.fleet import AdmissionConfig, AdmissionController
    from repro.fleet.runner import FLEET_CLIENT_HOST
    from repro.guest import GuestRuntime
    from repro.kernel.kernel import KernelConfig
    from repro.workloads.clients import (
        ClientResult,
        MuxClientSpec,
        build_mux_client_program,
    )
    from repro.workloads.servers import SERVERS

    spec = SERVERS["redis"]
    mvee = DistMvee(
        spec.program(),
        ReMonConfig(
            replicas=3, level=Level.SOCKET_RW, seed=3,
            dist=DistConfig(
                external_service=True, heterogeneous=True, compress="dict",
                link_latency_ns=20_000,
                replication=fleet_replication(full=True),
            ),
        ),
    )
    controller = AdmissionController(AdmissionConfig(queue_capacity=64))
    mvee.nodes[mvee.leader_index].kernel.admission_control = controller
    mvee.start()
    client_kernel = Kernel(sim=mvee.sim, network=mvee.network,
                           config=KernelConfig(cores=8))
    client = ClientResult()
    program = build_mux_client_program(
        mvee.nodes[mvee.leader_index].host_ip, spec.port,
        MuxClientSpec(connections=6, requests_per_conn=2, shard_size=6,
                      connect_pace_ns=200_000,
                      response_bytes=spec.response_bytes,
                      drain_hook=controller.disarm),
        client,
    )
    process = client_kernel.create_process("mux-client",
                                           host_ip=FLEET_CLIENT_HOST)
    GuestRuntime(client_kernel, process, program).start()
    mvee.sim.run(max_steps=MAX_STEPS)
    snap = _snapshot(mvee.finalize(), mvee.network)
    snap["client"] = [client.completed, client.errors, client.bytes_received]
    return snap


def _remon_master_crash():
    kernel = Kernel()
    FaultInjector(
        FaultPlan([CrashFault(replica=0, after_syscalls=40)])
    ).install(kernel)
    mvee = ReMon(
        kernel,
        build_program(_workload("supervisor-remon")),
        ReMonConfig(replicas=3, level=Level.SOCKET_RW,
                    degradation=DegradationPolicy(min_quorum=2)),
    )
    return _snapshot(mvee.run(max_steps=MAX_STEPS))


def _dist_leader_crash():
    mvee = DistMvee(
        build_program(_workload("supervisor-dist")),
        ReMonConfig(
            replicas=3, level=Level.SOCKET_RW,
            degradation=DegradationPolicy(min_quorum=2),
            dist=DistConfig(link_latency_ns=100_000, compress="rle"),
        ),
    )
    mvee.attach_faults(
        FaultInjector(FaultPlan([CrashFault(replica=0, at_ns=1_700_000)]))
    )
    return _snapshot(mvee.run(max_steps=MAX_STEPS), mvee.network)


def _remon_divergence():
    from repro.bench.obs import run_seeded_divergence

    result, _mvee = run_seeded_divergence(ObsConfig(flight_recorder=True))
    return _snapshot(result)


def _dist_divergence():
    def main(ctx):
        path = "/data/a" if ctx.process.replica_index == 0 else "/data/b"
        for _ in range(4):
            yield from ctx.libc.clock_gettime()
        fd = yield from ctx.libc.open(path)
        del fd
        return 0

    program = Program(
        "dist-seeded-divergence", main,
        files={"/data/a": b"x", "/data/b": b"y"},
    )
    mvee = DistMvee(
        program,
        ReMonConfig(replicas=3, obs=ObsConfig(flight_recorder=True),
                    dist=DistConfig(link_latency_ns=150_000)),
    )
    return _snapshot(mvee.run(max_steps=MAX_STEPS), mvee.network)


SCENARIOS = {
    "fleet": _fleet,
    "fleet_dict": _fleet_dict,
    "remon_master_crash": _remon_master_crash,
    "dist_leader_crash": _dist_leader_crash,
    "remon_divergence": _remon_divergence,
    "dist_divergence": _dist_divergence,
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(golden, name):
    snap = json.loads(json.dumps(SCENARIOS[name]()))
    want = golden[name]
    # Stats first (the most diagnostic diff on failure), then the rest.
    assert snap["stats"] == want["stats"]
    assert snap == want


def test_golden_runs_exercise_their_paths(golden):
    """Guard against a golden that silently stopped covering its path."""
    assert golden["fleet"]["stats"]["dist_adopted_results"] > 0
    assert golden["fleet_dict"]["stats"]["dist_payload_coded_bytes"] > 0
    assert golden["fleet_dict"]["client"][1] == 0
    for name in ("remon_master_crash", "dist_leader_crash"):
        snap = golden[name]
        assert snap["divergence"] is None
        assert snap["quarantined"] == [0]
        assert snap["stats"]["master_promotions"] == 1
        assert snap["exit_codes"][1:] == [0, 0]
    assert golden["dist_leader_crash"]["stats"]["dist_epoch"] == 1
    assert golden["dist_leader_crash"]["stats"]["dist_promoted_executions"] == 1
    for name in ("remon_divergence", "dist_divergence"):
        snap = golden[name]
        assert snap["divergence"] is not None
        assert snap["postmortems"][0][0] == "divergence"
        assert snap["exit_codes"] == [137] * len(snap["exit_codes"])


if __name__ == "__main__":
    snaps = {name: SCENARIOS[name]() for name in sorted(SCENARIOS)}
    with open(GOLDEN, "w") as handle:
        json.dump(snaps, handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.stdout.write("wrote %s\n" % GOLDEN)
