"""Run one §5.2 server as a distributed fleet under offered load.

Topology: the server program is replicated across ``nodes`` DistMvee
nodes in external-service mode (leader-only accepts, adopted readiness
— see :mod:`repro.dist.selective`); a connection-multiplexing client
process lives on its own simulated host sharing the cluster's switch
and drives every connection at the *leader* node only. The leader's
listening socket carries the admission controller.

Always-on fleet instruments (registered on every run, throttled or
not): the ``fleet_accept_wait_ns`` histogram — time a connection spends
in the accept backlog, the queue-based-load-leveling term — and
``client_req_latency_ns`` — client-observed request latency, merged
from the client process at the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.policies import Level
from repro.core.remon import ReMonConfig
from repro.dist.cluster import NODE_CORES, DistConfig, DistMvee
from repro.dist.selective import fleet_replication
from repro.fleet.admission import AdmissionConfig, AdmissionController
from repro.guest import GuestRuntime
from repro.kernel.kernel import Kernel, KernelConfig
from repro.workloads.clients import (
    ClientResult,
    MuxClientSpec,
    build_mux_client_program,
)
from repro.workloads.servers import SERVERS

FLEET_CLIENT_HOST = "10.9.0.99"


@dataclass
class FleetConfig:
    server: str = "redis"
    nodes: int = 2
    replication: str = "selective"  # selective | full
    #: None = unthrottled baseline: a pass-through controller (no token
    #: bucket, queue bound comfortably above the offered load) that
    #: still stamps accept-queue waits.
    admission: Optional[AdmissionConfig] = None
    connections: int = 256
    requests_per_conn: int = 1
    shard_size: int = 64
    connect_pace_ns: int = 20_000
    request_pace_ns: int = 0
    link_latency_ns: int = 20_000
    max_steps: int = 400_000_000
    obs: Optional[object] = None


@dataclass
class FleetResult:
    config: FleetConfig
    client: ClientResult
    admission: AdmissionController
    mvee_result: object
    stats: dict = field(default_factory=dict)

    def row(self) -> dict:
        """One machine-readable sweep row (BENCH_fleet.json shape)."""
        client = self.client
        ctl = self.admission
        return {
            "server": self.config.server,
            "nodes": self.config.nodes,
            "replication": self.config.replication,
            "throttled": ctl.bucket is not None,
            "policy": ctl.config.policy,
            "connections": self.config.connections,
            "offered": ctl.offered,
            "admitted": ctl.admitted,
            "shed": ctl.shed,
            "shed_fraction": round(ctl.shed_fraction(), 4),
            "completed": client.completed,
            "refused": client.refused,
            "dropped": client.dropped,
            "errors": client.errors,
            "goodput_rps": round(client.throughput_rps(), 2),
            "p50_ns": client.latency_percentile(50),
            "p99_ns": client.latency_percentile(99),
            "max_accept_wait_ns": ctl.max_wait_ns,
            "wire_bytes": self.stats.get("dist_wire_bytes", 0),
            "exit_codes": list(self.mvee_result.exit_codes),
            "diverged": self.mvee_result.diverged,
        }


def run_fleet(config: FleetConfig) -> FleetResult:
    """Build the cluster + client world, run it to completion."""
    spec = SERVERS[config.server]
    dconfig = DistConfig(
        external_service=True,
        link_latency_ns=config.link_latency_ns,
        replication=fleet_replication(full=config.replication == "full"),
        obs=config.obs,
    )
    mvee = DistMvee(
        spec.program(),
        ReMonConfig(replicas=config.nodes, level=Level.SOCKET_RW,
                    dist=dconfig),
    )
    registry = mvee.obs.registry
    accept_hist = registry.histogram("fleet_accept_wait_ns")
    latency_hist = registry.histogram("client_req_latency_ns")

    admission_config = config.admission
    if admission_config is None:
        admission_config = AdmissionConfig(
            queue_capacity=max(config.connections + 8, 128)
        )
    controller = AdmissionController(admission_config)
    controller.accept_wait_hist = accept_hist
    controller.tracer = mvee.obs.tracer
    mvee.nodes[mvee.leader_index].kernel.admission_control = controller

    mvee.start()
    client_kernel = Kernel(
        sim=mvee.sim,
        network=mvee.network,
        # The client host is one more node-sized machine on the switch.
        config=KernelConfig(cores=NODE_CORES),
    )
    result = ClientResult()
    mux = MuxClientSpec(
        connections=config.connections,
        requests_per_conn=config.requests_per_conn,
        shard_size=config.shard_size,
        connect_pace_ns=config.connect_pace_ns,
        request_pace_ns=config.request_pace_ns,
        response_bytes=spec.response_bytes,
        # Disarm the controller before the client's shutdown connection
        # so QUIT always drains the run deterministically.
        drain_hook=controller.disarm,
    )
    leader_ip = mvee.nodes[mvee.leader_index].host_ip
    program = build_mux_client_program(leader_ip, spec.port, mux, result)
    process = client_kernel.create_process(
        "mux-client", host_ip=FLEET_CLIENT_HOST
    )
    GuestRuntime(client_kernel, process, program).start()
    mvee.sim.run(max_steps=config.max_steps)

    latency_hist.merge(result.latency)
    for key, value in controller.stats().items():
        registry.expose("fleet_" + key, value)
    for key, value in result.stats().items():
        registry.expose("fleet_client_" + key, value)
    mvee_result = mvee.finalize()
    return FleetResult(
        config=config,
        client=result,
        admission=controller,
        mvee_result=mvee_result,
        stats=dict(mvee_result.stats),
    )
