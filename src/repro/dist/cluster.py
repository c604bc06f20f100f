"""The distributed MVEE: N single-replica nodes on one simulated switch.

:class:`DistMvee` shares :class:`repro.core.ReMon`'s supervisor
(:class:`~repro.core.remon.ReplicaSupervisor`: ``run`` →
:class:`MveeResult`, the ``divergence``/``replica_fault``/``quarantine``
events, a :class:`~repro.core.remon.ReplicaGroup` the fault injector
binds to) but the replicas live on different simulated
machines: each node owns a full kernel and filesystem image, all nodes
share one discrete-event clock and one :class:`Network`, and monitor
traffic rides the batched :class:`~repro.dist.transport.Transport`.

Rendezvous state is held in per-owner :class:`~repro.dist.shard.
MonitorShard` instances living on their owner nodes (the leader alone
without sharding; a rendezvous-hashed owner set under
``DistConfig.shard_rendezvous``), coordinated by :class:`DistMonitor`.
Ownership is versioned by an **epoch** bumped on every quarantine:
rendezvous frames carry the epoch they were sent under, stale frames
addressed to a shard that no longer hosts their round are rejected,
and an owner crash triggers an explicit handoff — surviving rounds
that remap are shipped to their new owner (``T_SHARD_HANDOFF``), the
dead shard's open rounds are lost and re-collected from the surviving
participants (``T_ROUND_RESUBMIT``) — all charged through the cost
model so recovery latency is measurable (DESIGN.md §8). A *clean*
exit changes membership without an epoch bump: rounds stay on their
hosting shard and nothing is re-sent, which keeps fault-free stats
byte-identical to the pre-shard monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.events import DivergenceReport, MveeResult
from repro.core.handlers import build_handler_table
from repro.core.policies import Level
from repro.core.remon import ReMonConfig, ReplicaSupervisor
from repro.dist.node import DistInterceptor, Node, ReplicaView
from repro.dist.selective import (
    CLS_CONTROL,
    CLS_HANDOFF,
    CLS_RENDEZVOUS,
    SelectiveReplication,
    selective_replication,
)
from repro.dist.shard import (
    MonitorShard,
    RendezvousState,
    shard_owner,
)
from repro.dist.transport import CODECS, Transport
from repro.dist.wire import (
    Frame,
    T_CALL_DIGEST,
    T_LIFECYCLE_GOSSIP,
    T_LIFECYCLE_STATE,
    T_RENDEZVOUS_OK,
    T_RENDEZVOUS_REQ,
    T_ROUND_RESUBMIT,
    T_SHARD_HANDOFF,
    T_SYSCALL_RESULT,
    handoff_payload,
    owners_payload,
    parse_digest_payload,
)
from repro.diversity.aslr import make_layouts
from repro.diversity.profile import make_node_profiles
from repro.errors import MonitorError
from repro.guest.program import Program
from repro.guest.runtime import GuestRuntime
from repro.kernel import errno_codes as E
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.sockets import Network
from repro.kernel.waitq import WaitQueue, wait_interruptible
from repro.sim import Simulator

__all__ = [
    "DistConfig",
    "DistMonitor",
    "DistMvee",
    "run_distributed",
    "shard_owner",  # re-exported from repro.dist.shard (HRW routing)
]

#: Cores of every simulated node machine.
NODE_CORES = 8
#: Serialization bandwidth of every inter-node link (1 Gbit/s).
LINK_BANDWIDTH_BPS = 1e9
#: Rendezvous verdicts are applied on every node at a *scheduled*
#: instant (owner completion + link latency + this slack) rather than
#: at frame arrival: arrival-order release wakes threads in
#: node-dependent order — variable batch serialization can swap two
#: nearby releases, and the broadcaster itself would wake in completion
#: order — which desynchronizes shared-namespace allocation (fd numbers,
#: memory races) across nodes. The slack covers batch serialization and
#: jitter so the release frame is physically on every node before its
#: delivery time (urgent release batches are tens of bytes; an
#: occasional frame landing after its instant only means the uniform
#: apply ran a hair early).
RELEASE_SLACK_NS = 2_000


@dataclass
class DistConfig:
    """Distributed-execution knobs, attached to ``ReMonConfig.dist``."""

    #: Node count (None = one node per replica from ReMonConfig.replicas).
    nodes: Optional[int] = None
    #: One-way latency / jitter of every inter-node link.
    link_latency_ns: int = 100_000
    link_jitter_ns: int = 0
    #: Transport coalescing: flush a channel at this many pending bytes
    #: or after this long, whichever comes first.
    batch_bytes: int = 4096
    flush_interval_ns: int = 50_000
    replication: SelectiveReplication = field(
        default_factory=selective_replication
    )
    #: A node waiting longer than this on a peer declares it stalled.
    stall_timeout_ns: int = 400_000_000
    #: Fast path (off by default). ``shard_rendezvous`` spreads rendezvous
    #: rounds across nodes by (vtid, seq) hash instead of serializing them
    #: all through the leader's monitor; ``rendezvous_shards`` caps how
    #: many nodes own shards (None = every live node).
    shard_rendezvous: bool = False
    rendezvous_shards: Optional[int] = None
    #: RB mirror payload codec: None (raw), "rle", or "dict" (RLE plus a
    #: per-channel dictionary over repeated reads). See repro.dist.codec.
    compress: Optional[str] = None
    #: Segment loss probability of every inter-node link; nonzero arms
    #: the reliable (seq/ack/retransmit) transport. Per-link
    #: loss/dup/reorder go through ``LinkDegradeFault``, which arms it
    #: too.
    link_loss_prob: float = 0.0
    #: External-service mode (repro.fleet): the replicated program
    #: serves clients that live *outside* the cluster and reach the
    #: leader's node only. accept() executes leader-only with followers
    #: adopting the fd, and readiness calls (epoll/poll/select) are
    #: replicated instead of process-local — see
    #: :data:`repro.dist.selective.EXTERNAL_LEADER_CALLS`. Requires a
    #: relaxation level that leaves socket data calls unmonitored
    #: (Level.SOCKET_RW): at stricter levels recv/send would rendezvous
    #: and execute on follower phantom fds.
    external_service: bool = False
    #: Heterogeneous per-node diversity (DESIGN.md §13, DMON-style).
    #: Every node gets its own :class:`repro.diversity.NodeProfile`:
    #: a private DCL arena, a one-way-mixed ASLR seed stream, and a
    #: divergent guest ABI. Cross-node digests then hash the canonical
    #: serialization (``repro.core.canonical``) instead of raw node
    #: bytes, and the canonicalization rewrite is billed on the
    #: rendezvous hot path. False (the default) keeps the single
    #: homogeneous layout family and is bit-identical to the
    #: pre-profile design.
    heterogeneous: bool = False
    #: Elastic lifecycle (repro.lifecycle.LifecycleConfig, or None):
    #: gossip membership + heartbeats, replay-based re-admission of
    #: quarantined slots, and the drift-watchdog auto-scaler. Typed as
    #: object to keep repro.lifecycle out of the dist import graph;
    #: None (the default) builds no manager at all, so lifecycle-free
    #: runs stay bit-identical — zero new frames, zero new stats.
    lifecycle: Optional[object] = None


class DistMonitor:
    """Rendezvous monitor: lockstep rounds + lazy async checks.

    State is keyed by (vtid, per-thread sequence number); sequence
    counters advance identically on every node because replicas run the
    same program and thread creation is lockstepped, so a key names
    "the same call" cluster-wide. Completed rendezvous states are
    retained (a leader re-reads its verdict after waking) and reference
    digests are kept for the run's lifetime — runs are short and the
    memory is bounded by total syscall count.

    Round state lives in per-owner :class:`MonitorShard` instances on
    the owner nodes; this object is the cluster-side coordinator: it
    routes submissions to the hosting shard (``_home`` tracks where each
    round physically lives — routing can move on membership change, the
    state itself only moves through an explicit handoff), runs the
    handoff protocol after a quarantine, and hosts the async digest
    lane, which stays leader-side: it is off every thread's critical
    path, so spreading it buys nothing.

    Each shard is a serial resource: rounds it owns are serviced one at
    a time, each costing ``dist_monitor_round_ns``. With a single owner,
    many-threaded lockstep load queues behind one timeline — the
    serialization sharding exists to break up.
    """

    def __init__(self, mvee: "DistMvee"):
        self.mvee = mvee
        self.references: Dict[Tuple[int, int], Tuple[str, int]] = {}
        self.pending_checks: Dict[Tuple[int, int], List[Tuple[int, str, int]]] = {}
        #: Which owner's shard currently *hosts* each round's state.
        self._home: Dict[Tuple[int, int], int] = {}
        self._shards: Dict[int, MonitorShard] = {}
        #: Owners in first-service order (stable rounds_by_owner view).
        self._service_order: List[int] = []
        #: Last scheduled release instant. Shard timelines are
        #: independent, so two rounds can complete at the same
        #: nanosecond; their releases must still land in one global
        #: order — owners wait on round state while followers wait on
        #: mirrors, so same-instant releases wake threads in
        #: node-dependent order and shared-namespace allocation (fd
        #: numbers) desynchronizes. Serializing release instants keeps
        #: delivery uniform; collision-free runs are untouched.
        self._release_clock = 0
        self.stats = {
            "async_checks": 0,
            "async_mismatches": 0,
            "rendezvous_completed": 0,
            "monitor_wait_ns": 0,
        }
        #: Recovery-path counters, kept out of ``stats`` so fault-free
        #: runs render a stats view byte-identical to the pre-shard
        #: monitor; finalize folds them in only once the epoch moved.
        self.handoff_stats = {
            "handoff_rounds": 0,
            "handoff_lost_rounds": 0,
            "round_resubmits": 0,
            "stale_epoch_rejects": 0,
            "handoff_cost_ns": 0,
        }
        #: Round keys evicted with a dead shard / re-collected after,
        #: for postmortems and the blast-radius assertions in tests.
        self.lost_keys: set = set()
        self.resubmitted_keys: set = set()
        self._handoff_span = None
        self._pending_adoptions = 0

    # -- shard plumbing ----------------------------------------------------
    def shard(self, owner: int) -> MonitorShard:
        """The owner's shard, created on first use and attached to the
        owner node (the state physically lives there)."""
        shard = self._shards.get(owner)
        if shard is None:
            shard = self._shards[owner] = MonitorShard(owner)
            self.mvee.nodes[owner].shard = shard
        return shard

    @property
    def rounds_by_owner(self) -> Dict[int, int]:
        """Per-owner serviced-round counts, in first-service order."""
        return {
            owner: self._shards[owner].rounds for owner in self._service_order
        }

    def host_of(self, vtid: int, seq: int) -> Optional[int]:
        """The owner whose shard currently hosts this round, if any."""
        return self._home.get((vtid, seq))

    # -- async digest lane -------------------------------------------------
    def record_reference(self, vtid: int, seq: int, name: str, digest: int) -> None:
        key = (vtid, seq)
        self.references[key] = (name, digest)
        for sender, fname, fdigest in self.pending_checks.pop(key, []):
            self._check(sender, key, fname, fdigest)

    def check_digest(self, sender: int, vtid: int, seq: int, name: str,
                     digest: int) -> None:
        key = (vtid, seq)
        if key not in self.references:
            # The follower ran ahead of the leader on this call — park
            # the digest until the leader records its own (§4 run-ahead).
            self.pending_checks.setdefault(key, []).append((sender, name, digest))
            return
        self._check(sender, key, name, digest)

    def _check(self, sender: int, key, name: str, digest: int) -> None:
        self.stats["async_checks"] += 1
        ref_name, ref_digest = self.references[key]
        if name == ref_name and digest == ref_digest:
            return
        self.stats["async_mismatches"] += 1
        self.mvee.divergence(
            DivergenceReport(
                self.mvee.sim.now,
                key[0],
                name,
                "async digest from node %d differs from leader's %s"
                % (sender, ref_name),
                detected_by="dist-async",
            )
        )

    # -- rendezvous lane ---------------------------------------------------
    def state_for(self, vtid: int, seq: int) -> Optional[RendezvousState]:
        host = self._home.get((vtid, seq))
        if host is None:
            return None
        return self._shards[host].rendezvous.get((vtid, seq))

    def submit(self, sender: int, vtid: int, seq: int, name: str,
               digest: int, resubmit: bool = False) -> RendezvousState:
        key = (vtid, seq)
        host = self._home.get(key)
        if host is None or self._shards[host].dead:
            # First submission for this round (or its old host died and
            # evicted it): the current owner's shard hosts it. Routing
            # may later drift on *clean* membership changes without the
            # state moving — the home map keeps it addressable.
            host = self.mvee.shard_owner(vtid, seq)
            self._home[key] = host
        shard = self.shard(host)
        state = shard.rendezvous.get(key)
        if state is None:
            state = shard.rendezvous[key] = RendezvousState()
            if resubmit:
                # Rebuilding a round lost with its shard: the new owner
                # pays the per-round recovery work on its timeline.
                self._charge_handoff(shard)
        if resubmit:
            self.handoff_stats["round_resubmits"] += 1
            self.resubmitted_keys.add(key)
        state.digests.setdefault(sender, (name, digest))
        self.try_complete(vtid, seq)
        return state

    def try_complete(self, vtid: int, seq: int) -> None:
        """If every participant has voted, queue the round on its owning
        node's serial monitor timeline; the verdict lands (and is
        broadcast by the owner) when the owner's queue drains."""
        state = self.state_for(vtid, seq)
        if state is None or state.verdict is not None or state.completing:
            return
        participants = self.mvee.participants()
        if not participants:
            return
        if any(p not in state.digests for p in participants):
            return
        state.completing = True
        sim = self.mvee.sim
        owner = self.mvee.shard_owner(vtid, seq)
        shard = self.shard(owner)
        start = max(sim.now, shard.busy_until)
        done = start + self.mvee._costs().dist_monitor_round_ns
        shard.busy_until = done
        self.stats["monitor_wait_ns"] += start - sim.now
        obs = self.mvee.obs
        if obs is not None:
            obs.registry.histogram("dist_monitor_wait_ns").observe(
                start - sim.now
            )
        if shard.rounds == 0:
            self._service_order.append(owner)
        shard.rounds += 1
        sim.call_at(done, self._complete, vtid, seq)

    def _complete(self, vtid: int, seq: int) -> None:
        """The owner's monitor finished servicing the round: vote over
        the *current* participants (membership may have changed while
        queued) and broadcast the release.

        Releases are *scheduled*, not applied at frame arrival: the
        owner stamps the round with a delivery instant one
        release_lag_ns ahead, and :meth:`_release` applies it on every
        node simultaneously (the frames still travel — they model the
        physical transfer — but delivery timing comes from the stamp,
        PTP-multicast style). Arrival-order release is subtly unsound
        even with the single leader as broadcaster: the leader itself
        would wake in completion order while followers wake in arrival
        order, and variable batch serialization can swap two nearby
        releases — either way nodes wake threads in different orders
        and shared-namespace allocation (fd numbers, memory races)
        desynchronizes. Uniform scheduled delivery is also what makes
        sharding safe at all: with many broadcasters there is no single
        FIFO order to lean on."""
        state = self.state_for(vtid, seq)
        if state is None or state.verdict is not None:
            return
        if self.mvee.shutting_down:
            state.completing = False
            return
        participants = self.mvee.participants()
        if not participants or any(p not in state.digests for p in participants):
            # A participant joined or ownership moved while queued;
            # the round re-enters the queue when its digest arrives.
            state.completing = False
            return
        votes = {state.digests[p] for p in participants}
        verdict = 1 if len(votes) == 1 else 0
        # The canonical digest the round agreed on (DESIGN.md §13): on
        # agreement every vote is the same (name, digest) pair. Carried
        # through the release into each mirror (and the lifecycle
        # window), so a replayed re-admission can verify its own
        # canonical bytes against what the cluster actually decided.
        agreed = next(iter(votes))[1] if verdict == 1 else 0
        owner = self.mvee.shard_owner(vtid, seq)
        for peer in participants:
            if peer == owner:
                continue
            self.mvee.send_frame(
                owner, peer,
                Frame(T_RENDEZVOUS_OK, owner, vtid, seq, aux=verdict),
                cls=CLS_RENDEZVOUS, urgent=True,
            )
        lag = self.mvee.release_lag_ns()
        if lag:
            when = self.mvee.sim.now + lag
            if when <= self._release_clock:
                when = self._release_clock + 1
            self._release_clock = when
            self.mvee.sim.call_at(
                when, self._release, vtid, seq, verdict, owner, agreed
            )
        else:
            self._release(vtid, seq, verdict, owner, agreed)

    def _release(
        self, vtid: int, seq: int, verdict: int, owner: int, digest: int = 0
    ) -> None:
        """The verdict becomes visible: record it, report a divergence on
        mismatch, and (under sharding) apply it to every node's mirror at
        this one instant — uniform wake order across nodes."""
        state = self.state_for(vtid, seq)
        if state is None or state.verdict is not None:
            return
        state.completing = False
        if self.mvee.shutting_down:
            return
        state.verdict = verdict
        state.owner = owner
        self.stats["rendezvous_completed"] += 1
        if verdict == 0:
            names = sorted({v[0] for v in state.digests.values()})
            self.mvee.divergence(
                DivergenceReport(
                    self.mvee.sim.now,
                    vtid,
                    names[0],
                    "lockstep digest mismatch across nodes (%s)"
                    % ", ".join(names),
                    detected_by="dist-lockstep",
                )
            )
        sim = self.mvee.sim
        # Scheduled delivery: land the release in every mirror at this
        # one instant (the frames carry the bytes; _dispatch leaves
        # their application to this event).
        for node in self.mvee.nodes:
            node.mirror.release(vtid, seq, verdict, sim, digest=digest)
        if self.mvee.lifecycle is not None:
            self.mvee.lifecycle.record_release(vtid, seq, verdict, digest)
        state.waitq.notify_all(sim)

    def on_membership_change(self) -> None:
        """Membership moved: re-try every open round — the quorum may
        now be satisfiable without the lost node, and service ownership
        re-routes to the surviving owner set."""
        for shard in list(self._shards.values()):
            for (vtid, seq), state in list(shard.rendezvous.items()):
                if state.verdict is None and not state.completing:
                    self.try_complete(vtid, seq)

    # -- epoch handoff -----------------------------------------------------
    def _charge_handoff(self, shard: MonitorShard) -> None:
        """One round's recovery work on the adopting shard's timeline."""
        cost = self.mvee._costs().dist_handoff_ns
        shard.busy_until = max(shard.busy_until, self.mvee.sim.now) + cost
        self.handoff_stats["handoff_cost_ns"] += cost

    def begin_handoff(self, dead_index: int) -> None:
        """Run the ownership handoff after ``dead_index`` was
        quarantined (the epoch was already bumped by the caller).

        Three steps, all billed: the leader announces the new epoch +
        owner set; the dead shard's open rounds are evicted (their state
        died with the owner — waiting participants re-collect them via
        ``T_ROUND_RESUBMIT`` when they observe the epoch change); and
        surviving hosted rounds whose routing remapped are shipped to
        their new owner as ``T_SHARD_HANDOFF`` state transfers, adopted
        one release lag later.
        """
        mvee = self.mvee
        sim = mvee.sim
        epoch = mvee.epoch
        owners = mvee.shard_owners()
        leader = mvee.leader_index
        announce = Frame(
            T_SHARD_HANDOFF, leader, 0, 0, aux=epoch,
            payload=owners_payload(owners),
        )
        for peer in mvee.live_peers(leader):
            mvee.send_frame(leader, peer, announce, cls=CLS_HANDOFF, urgent=True)
        if mvee.obs.tracer.enabled and self._handoff_span is None:
            self._handoff_span = mvee.obs.tracer.begin(
                "dist", "handoff", epoch=epoch, dead=dead_index,
            )
        lost = 0
        dead = self._shards.get(dead_index)
        if dead is not None and not dead.dead:
            dead.dead = True
            for key, state in dead.open_rounds():
                del dead.rendezvous[key]
                self._home.pop(key, None)
                self.lost_keys.add(key)
                lost += 1
                # Wake any owner-side waiter parked on the dead state so
                # it re-reads membership and resubmits.
                state.waitq.notify_all(sim)
        self.handoff_stats["handoff_lost_rounds"] += lost
        transfers = []
        for host, shard in list(self._shards.items()):
            if shard.dead:
                continue
            for key, state in shard.open_rounds():
                if state.completing:
                    # Verdict already queued on the old service timeline;
                    # it completes there (the broadcast re-reads the
                    # fresh owner), like a response already in flight.
                    continue
                new_owner = shard_owner(key[0], key[1], owners)
                if new_owner != host:
                    transfers.append((host, new_owner, key, state))
        for host, new_owner, key, state in transfers:
            frame = Frame(
                T_SHARD_HANDOFF, host, key[0], key[1], aux=epoch,
                payload=handoff_payload(state.digests),
            )
            mvee.send_frame(host, new_owner, frame, cls=CLS_HANDOFF, urgent=True)
        self.handoff_stats["handoff_rounds"] += len(transfers)
        if transfers:
            self._pending_adoptions += len(transfers)
            sim.call_at(
                sim.now + mvee.release_lag_ns(), self._adopt_transfers, transfers
            )
        self.on_membership_change()
        if self._pending_adoptions == 0:
            self._finish_handoff_span(lost)

    def _adopt_transfers(self, transfers) -> None:
        """The scheduled arrival of shipped round state: move each round
        to its new owner's shard, charge the adoption work, and retry
        completion under the new membership."""
        mvee = self.mvee
        sim = mvee.sim
        cost = mvee._costs().dist_handoff_ns
        hist = mvee.obs.registry.histogram("dist_handoff_ns")
        for host, new_owner, key, state in transfers:
            self._pending_adoptions -= 1
            source = self._shards.get(host)
            if (
                source is None
                or source.rendezvous.get(key) is not state
                or state.verdict is not None
            ):
                continue
            del source.rendezvous[key]
            shard = self.shard(new_owner)
            shard.rendezvous[key] = state
            self._home[key] = new_owner
            self._charge_handoff(shard)
            hist.observe(sim.now - mvee.last_epoch_bump_ns + cost)
            self.try_complete(*key)
            state.waitq.notify_all(sim)
        if self._pending_adoptions == 0:
            self._finish_handoff_span()

    def _finish_handoff_span(self, lost: Optional[int] = None) -> None:
        span = self._handoff_span
        if span is not None:
            self._handoff_span = None
            span.finish(
                handoff_rounds=self.handoff_stats["handoff_rounds"],
                lost_rounds=(
                    lost if lost is not None
                    else self.handoff_stats["handoff_lost_rounds"]
                ),
            )


class DistMvee(ReplicaSupervisor):
    """An MVEE whose replicas run on separate simulated nodes.

    The replica-fault policy (divergence, quarantine, promotion) is
    :class:`~repro.core.remon.ReplicaSupervisor`'s, shared with ReMon.

    Typical use::

        mvee = DistMvee(program, ReMonConfig(replicas=3, dist=DistConfig()))
        result = mvee.run(max_steps=...)
    """

    def __init__(self, program: Program, config: Optional[ReMonConfig] = None):
        self.program = program
        config = config or ReMonConfig(dist=DistConfig())
        dconfig = config.dist
        if dconfig is None:
            dconfig = DistConfig()
        if not isinstance(dconfig, DistConfig):
            raise MonitorError(
                "ReMonConfig.dist must be a DistConfig, got %r" % (dconfig,)
            )
        self.dconfig = dconfig
        if dconfig.compress is not None and dconfig.compress not in CODECS:
            raise MonitorError(
                "DistConfig.compress must be None or one of %r, got %r"
                % (CODECS, dconfig.compress)
            )
        self.n = dconfig.nodes if dconfig.nodes is not None else config.replicas
        if self.n < 1:
            raise MonitorError("a distributed MVEE needs at least one node")
        super().__init__(config, Simulator(cores=NODE_CORES * self.n), self.n)
        self.solo = self.n == 1
        self.policy = self.config.policy()
        self.replication = dconfig.replication
        self.external = dconfig.external_service
        if self.external:
            if self.policy.level < Level.SOCKET_RW:
                raise MonitorError(
                    "external_service needs Level.SOCKET_RW or looser: "
                    "monitored socket data calls would rendezvous and "
                    "execute on follower phantom descriptors"
                )
            if not self.replication.external:
                # The policy must route readiness calls through the
                # replicated lane; flip a fresh default policy rather
                # than make every caller pass fleet_replication().
                self.replication.external = True
                self.replication._memo.clear()
        self.handlers = build_handler_table(self.policy.unmonitored_set())
        self.stats = {
            "local_calls": 0,
            "replicated_calls": 0,
            "adopted_results": 0,
            "rendezvous_calls": 0,
            "round_trips": 0,
            "promoted_executions": 0,
            "backoff_retries": 0,
            "stall_reports": 0,
            "failover_rebroadcasts": 0,
            "control_frames": 0,
        }
        #: Soft link degradation (circuit breaker) accounting; folded
        #: into the stats view only when the transport runs reliable.
        self.wan_stats = {"link_degrades": 0, "link_restores": 0}
        #: victim index -> set of (src, dst) links currently open against
        #: it; the victim is restored only when the set drains.
        self._down_links: Dict[int, set] = {}
        self.network = Network(
            latency_ns=dconfig.link_latency_ns,
            bandwidth_bps=LINK_BANDWIDTH_BPS,
            jitter_ns=dconfig.link_jitter_ns,
            jitter_seed=self.config.seed or 0x5EED,
            loss_prob=dconfig.link_loss_prob,
            fault_seed=(self.config.seed or 0) ^ 0xFA17,
        )
        self.nodes: List[Node] = []
        self.monitor = DistMonitor(self)
        #: Ownership epoch: bumped on every quarantine (never on a clean
        #: exit), carried in rendezvous frames, and the trigger for the
        #: shard handoff protocol. 0 for a run's whole fault-free life.
        self.epoch = 0
        self.last_epoch_bump_ns = 0
        self._parkq = WaitQueue("dist-park")
        self._started = False
        self._build()
        #: Elastic lifecycle manager, or None. Constructed after the
        #: nodes exist; imported lazily so repro.dist never depends on
        #: repro.lifecycle at module level.
        self.lifecycle = None
        lconfig = dconfig.lifecycle
        if lconfig is not None and not self.solo:
            from repro.lifecycle.manager import LifecycleManager

            self.lifecycle = LifecycleManager(self, lconfig)

    # ------------------------------------------------------------------
    @property
    def leader_index(self) -> int:
        return self.group.master_index

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        dconfig = self.dconfig
        profiles = make_node_profiles(
            self.n,
            cluster_seed=self.config.seed,
            heterogeneous=dconfig.heterogeneous,
        )
        if dconfig.heterogeneous:
            # One layout per node, each drawn from that node's own seed
            # stream inside its own DCL arena (disjoint across nodes).
            layouts = [
                profile.make_layout(aslr=self.config.aslr, dcl=self.config.dcl)
                for profile in profiles
            ]
        else:
            # The historical single-family draw, byte-identical RNG
            # stream and all — the homogeneous bit-identity gate depends
            # on this path not changing.
            layouts = make_layouts(
                self.n, seed=self.config.seed,
                aslr=self.config.aslr, dcl=self.config.dcl,
            )
        for index, layout in enumerate(layouts):
            kernel = Kernel(
                sim=self.sim,
                config=KernelConfig(cores=NODE_CORES),
                network=self.network,
            )
            kernel.attach_obs(self.obs)
            self.program.install_files(kernel)
            process = kernel.create_process(
                "%s.n%d" % (self.program.name, index),
                mmap_base=layout.mmap_base,
                brk_base=layout.brk_base,
                host_ip="10.1.%d.1" % index,
            )
            # Nodes do not share caches or DRAM: no cross-replica memory
            # pressure — one of distribution's selling points.
            process.compute_factor = 1.0
            self.group.add(process)
            node = Node(index, kernel, process, layout, profile=profiles[index])
            node.view = ReplicaView(process, self.policy, self.epoll_map, index)
            node.interceptor = DistInterceptor(self, node)
            kernel.syscall_hooks.append(node.interceptor)
            node.runtime = GuestRuntime(kernel, process, self.program, layout=layout)
            self.nodes.append(node)
            process.exit_event.add_listener(
                lambda code, n=node: self._on_node_exit(n, code)
            )
        self.transport = Transport(
            self.sim,
            self.network,
            [(node.host_ip, 0) for node in self.nodes],
            self.nodes[0].kernel.config.costs,
            batch_bytes=dconfig.batch_bytes,
            flush_interval_ns=dconfig.flush_interval_ns,
            codec=dconfig.compress,
        )
        self.transport.obs = self.obs
        self.transport.dispatch = self._dispatch
        self.transport.stale_filter = self._stale_frame
        if self.network.lossy():
            self._enable_reliable_transport()

    def _enable_reliable_transport(self) -> None:
        """Switch the monitor transport to sequenced/acked/retransmitted
        batches, with per-link circuit breakers wired into the soft
        degradation path. Idempotent; must run before any traffic."""
        if self.transport.reliable:
            return
        self.transport.enable_reliable()
        self.transport.on_link_down = self._on_link_down
        self.transport.on_link_up = self._on_link_up

    def attach_faults(self, injector) -> object:
        """Install a :class:`repro.faults.FaultInjector` cluster-wide:
        timed faults are scheduled on the shared clock; each node's
        kernel consults the injector at its own syscall dispatch."""
        injector.install(self.nodes[0].kernel)
        for node in self.nodes:
            node.kernel.fault_injector = injector
        injector.bind_mvee(self)
        # A plan that will degrade a link mid-run needs the reliable
        # transport armed from the start (it cannot switch header
        # formats once traffic has flowed).
        from repro.faults import LinkDegradeFault

        if any(isinstance(f, LinkDegradeFault) for f in injector.plan):
            self._enable_reliable_transport()
        return injector

    #: Fault-injector compatibility: there is no in-process monitor, so
    #: RB-corruption faults are skipped cleanly.
    ipmon = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def participants(self) -> List[int]:
        """Nodes a rendezvous must hear from: everyone not quarantined
        and not *cleanly* exited. A crashed-but-undetected node still
        counts — its silence is what stalls the round until the crash
        detector quarantines it (the honest failure dynamics)."""
        out = []
        for node in self.nodes:
            process = node.process
            if process.quarantined:
                continue
            if process.exited and (process.exit_code or 0) < 128:
                continue
            if node.rejoining:
                # A replacement replica fast-replaying the recorded
                # window adopts verdicts; its vote gates nothing until
                # it reaches the live frontier and is re-admitted.
                continue
            if node.link_degraded:
                # Soft degradation: the node still runs and adopts the
                # leader's replicated results/verdicts (those land via
                # scheduled delivery, not per-frame dispatch), but its
                # vote no longer gates rendezvous — leader-replicated-
                # only mode until the breaker's probe restores the link.
                continue
            out.append(node.index)
        return out

    def live_peers(self, exclude: int) -> List[int]:
        return [
            node.index
            for node in self.nodes
            if node.index != exclude
            and not node.process.exited
            and not node.process.quarantined
        ]

    def shard_owners(self) -> Tuple[int, ...]:
        """The nodes currently eligible to own rendezvous rounds.

        Without sharding this is the leader alone (PR-2 semantics: one
        logical monitor serializes every round). With sharding it is
        every live participant, optionally capped at
        ``rendezvous_shards`` owners (lowest indices first, so the
        owner set is identical on every node)."""
        if not self.dconfig.shard_rendezvous:
            return (self.leader_index,)
        live = tuple(self.participants())
        if not live:
            return (self.leader_index,)
        cap = self.dconfig.rendezvous_shards
        if cap is not None:
            live = live[:max(1, cap)]
        return live

    def shard_owner(self, vtid: int, seq: int) -> int:
        return shard_owner(vtid, seq, self.shard_owners())

    def release_lag_ns(self) -> int:
        """Delay between a round's verdict and its cluster-wide
        visibility: verdicts are applied on every node (owner included)
        at owner-completion + this lag, so releases reach all nodes in
        one global order — see :meth:`DistMonitor._complete`."""
        return self.dconfig.link_latency_ns + RELEASE_SLACK_NS

    def missing_participant(self, vtid: int, seq: int,
                            reporter: int) -> Optional[int]:
        """Whom to blame for a stalled rendezvous: the first participant
        whose digest is missing. None means nobody is actually missing —
        the round is completing and the release is merely in flight, so
        the watchdog must not punish an innocent node."""
        state = self.monitor.state_for(vtid, seq)
        owner = self.shard_owner(vtid, seq)
        if state is not None:
            for index in self.participants():
                if index != reporter and index not in state.digests:
                    return index
            return None
        if owner != reporter:
            return owner
        others = [p for p in self.participants() if p != reporter]
        return others[0] if others else None

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def send_frame(self, src: int, dst: int, frame: Frame, cls: str,
                   urgent: bool = False) -> None:
        if src == dst:
            return
        self.transport.send(src, dst, frame, cls=cls, urgent=urgent)

    def _stale_frame(self, dst: int, frame: Frame) -> bool:
        """Epoch gate, checked by the transport before dispatch.

        True drops the frame: it was sent under an older epoch and the
        handoff has since moved (or killed) the shard it addressed, so
        merging it into a fresh shard's state would smuggle pre-handoff
        votes past the re-collection protocol. The sender re-submits
        when it observes the epoch change, so nothing is lost. Frames
        whose target still hosts the round pass: digests are
        epoch-independent content, and a same-owner frame raced only by
        the bump itself is exactly a valid resubmission.
        """
        if frame.type not in (
            T_CALL_DIGEST, T_RENDEZVOUS_REQ, T_ROUND_RESUBMIT
        ):
            return False
        if self.nodes[frame.sender].process.quarantined:
            # A dead node's in-flight digest must never count as a vote.
            self.monitor.handoff_stats["stale_epoch_rejects"] += 1
            return True
        if frame.type == T_CALL_DIGEST or frame.aux >= self.epoch:
            return False
        if dst != self.shard_owner(frame.vtid, frame.seq) and (
            self.monitor.host_of(frame.vtid, frame.seq) != dst
        ):
            self.monitor.handoff_stats["stale_epoch_rejects"] += 1
            return True
        return False

    def _dispatch(self, dst: int, frame: Frame) -> None:
        if frame.type == T_CALL_DIGEST:
            digest, name = parse_digest_payload(frame.payload)
            self.monitor.check_digest(
                frame.sender, frame.vtid, frame.seq, name, digest
            )
        elif frame.type == T_RENDEZVOUS_REQ:
            digest, name = parse_digest_payload(frame.payload)
            self.monitor.submit(frame.sender, frame.vtid, frame.seq, name, digest)
        elif frame.type == T_ROUND_RESUBMIT:
            digest, name = parse_digest_payload(frame.payload)
            self.monitor.submit(
                frame.sender, frame.vtid, frame.seq, name, digest, resubmit=True
            )
        elif frame.type == T_SHARD_HANDOFF:
            # Epoch announcements and state transfers are applied by the
            # scheduled handoff (DistMonitor.begin_handoff); the frames
            # are the physical bytes of that transfer.
            pass
        elif frame.type == T_LIFECYCLE_GOSSIP:
            if self.lifecycle is not None:
                self.lifecycle.on_gossip_frame(dst, frame)
        elif frame.type == T_LIFECYCLE_STATE:
            # Replay-window transfers are applied by scheduled delivery
            # (LifecycleManager._boot_replacement) — these frames are
            # the physical bytes of the window crossing the link.
            pass
        elif frame.type in (T_RENDEZVOUS_OK, T_SYSCALL_RESULT):
            # Releases and mirror records are applied by *scheduled*
            # delivery (DistMonitor._release, the leader's scheduled
            # mirror put): one global instant per record, so every node
            # wakes its threads in the same order. These frames are the
            # physical bytes of that transfer — a minimal frame can beat
            # the schedule by a few hundred ns, so acting on arrival
            # here would desynchronize wake order on the margin.
            pass
        else:
            self.stats["control_frames"] += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for node in self.nodes:
            node.runtime.start()
        if self.lifecycle is not None:
            self.lifecycle.start()

    def finalize(self) -> MveeResult:
        result = self._settle()
        result.monitored_calls = self.stats["rendezvous_calls"]
        result.unmonitored_calls = (
            self.stats["local_calls"]
            + self.stats["replicated_calls"]
            + self.stats["adopted_results"]
        )
        # Stats assembly goes through the obs registry adapter: the two
        # live component dicts are ingested under the dist_ prefix, the
        # derived scalars are exposed, and the rendered view is
        # byte-identical to the old hand-built dict.
        registry = self.obs.registry
        registry.ingest("dist_", self.stats, source="mvee")
        registry.ingest("dist_", self.monitor.stats, source="monitor")
        registry.expose("dist_nodes", self.n)
        registry.expose("dist_messages", self.transport.stats["messages_sent"])
        registry.expose("dist_wire_bytes", self.transport.stats["wire_bytes"])
        registry.expose("dist_frames", self.transport.stats["frames_sent"])
        registry.expose("dist_frame_bytes", self.transport.stats["frame_bytes"])
        registry.expose("dist_wire_errors", self.transport.stats["wire_errors"])
        for key in ("flushes_size", "flushes_timer", "flushes_urgent",
                    "payload_raw_bytes", "payload_coded_bytes",
                    "codec_raw", "codec_rle", "codec_dict"):
            registry.expose("dist_" + key, self.transport.stats[key])
        # Owners that actually serviced rounds (shard_owners() shrinks to
        # the leader once every node has exited cleanly, so it is not a
        # faithful after-the-fact count).
        registry.expose("dist_shards", len(self.monitor.rounds_by_owner) or 1)
        for owner, count in sorted(self.monitor.rounds_by_owner.items()):
            registry.expose("dist_rounds_owner_%d" % owner, count)
        registry.expose(
            "dist_rounds_owner_max",
            max(self.monitor.rounds_by_owner.values(), default=0),
        )
        if self.epoch:
            # Recovery accounting exists only once a membership change
            # happened: a fault-free run's stats stay byte-identical to
            # the pre-shard monitor (the PR-4 adapter contract).
            registry.expose("dist_epoch", self.epoch)
            for key in sorted(self.monitor.handoff_stats):
                registry.expose("dist_" + key, self.monitor.handoff_stats[key])
            registry.expose(
                "dist_stale_drops", self.transport.stats["stale_drops"]
            )
        for cls, nbytes in sorted(self.transport.bytes_by_class.items()):
            registry.expose("dist_bytes_" + cls, nbytes)
        for cls, count in sorted(self.transport.frames_by_class.items()):
            registry.expose("dist_frames_" + cls, count)
        tstats = self.transport.stats
        if self.transport.reliable:
            # Reliability accounting exists only when the transport runs
            # in reliable mode: loss-free legacy runs keep a stats view
            # byte-identical to the pre-reliability design.
            for key in ("retransmits", "retransmit_bytes", "acks_sent",
                        "dup_batches_dropped", "ooo_batches",
                        "window_stalls", "probes_sent", "breaker_opens",
                        "breaker_closes"):
                registry.expose("dist_" + key, tstats.get(key, 0))
            registry.expose("net_segments_lost", self.network.segments_lost)
            registry.expose(
                "net_segments_duplicated", self.network.segments_duplicated
            )
            registry.expose(
                "net_segments_reordered", self.network.segments_reordered
            )
            registry.expose("dist_link_degrades", self.wan_stats["link_degrades"])
            registry.expose("dist_link_restores", self.wan_stats["link_restores"])
        for key in ("codec_downgrades", "codec_upgrades", "frames_dropped"):
            if tstats.get(key, 0):
                registry.expose("dist_" + key, tstats[key])
        for cls, count in sorted(self.transport.frames_dropped_by_class.items()):
            registry.expose("dist_frames_dropped_" + cls, count)
        self._expose_degradation(registry)
        if self.dconfig.heterogeneous:
            # Diversity accounting exists only under per-node profiles:
            # homogeneous runs keep a stats view bit-identical to the
            # pre-profile design (the §13 invisibility contract).
            registry.expose("dist_heterogeneous", 1)
            registry.expose(
                "dist_abi_variants",
                len({node.profile.abi for node in self.nodes}),
            )
            registry.expose(
                "dist_arena_variants",
                len({node.profile.arena_base for node in self.nodes}),
            )
        if self.lifecycle is not None:
            # Lifecycle accounting exists only when a manager was built:
            # lifecycle-free runs keep a stats view bit-identical to the
            # pre-lifecycle design.
            self.lifecycle.export_stats(registry)
        result.stats = registry.stats_view()
        self.obs.export_files(result.postmortems)
        return result

    def _record_postmortem(self, reason: str, report: DivergenceReport) -> None:
        """Snapshot the flight recorder (if enabled) into the result."""
        attribution = {
            "vtid": report.vtid,
            "replica": report.replica,
            "leader_index": self.leader_index,
            "quarantined": list(self.result.quarantined_replicas),
            "shard_owners": sorted(self.monitor.rounds_by_owner),
            "epoch": self.epoch,
            "lost_rounds": sorted(self.monitor.lost_keys),
        }
        if self.lifecycle is not None:
            attribution["lifecycle"] = self.lifecycle.attribution()
        postmortem = self.obs.emit_postmortem(
            reason,
            report,
            attribution=attribution,
            backoff={
                "backoff_retries": self.stats["backoff_retries"],
                "stall_reports": self.stats["stall_reports"],
                "rounds_by_owner": dict(self.monitor.rounds_by_owner),
                "handoff": dict(self.monitor.handoff_stats),
            },
        )
        if postmortem is not None:
            self.result.postmortems.append(postmortem)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _teardown_delay_ns(self) -> int:
        # Teardown is not instantaneous across machines: the kill
        # messages ride the network.
        return self.dconfig.link_latency_ns + self._costs().dist_msg_syscall_ns

    def shutdown(self, reason: str) -> None:
        if not self.shutting_down:
            super().shutdown(reason)
            self._wake_everyone()

    def _costs(self):
        return self.nodes[0].kernel.config.costs

    def crash_detect_ns(self) -> int:
        return self._costs().dist_crash_detect_ns + self.dconfig.link_latency_ns

    def _wake_everyone(self) -> None:
        for node in self.nodes:
            node.mirror.wake(self.sim)
        self._parkq.notify_all(self.sim)

    def _on_node_exit(self, node: Node, code) -> None:
        code = code if isinstance(code, int) else (node.process.exit_code or 0)
        if (
            node.index == self.group.master_index
            and not node.process.quarantined
            and self.master_exit_ns is None
            and code < 128
        ):
            self.master_exit_ns = self.sim.now
        if self.group.all_exited() and not self.result.shutdown_reason:
            self.result.shutdown_reason = "all replicas exited"
        if (
            code >= 128
            and not self.shutting_down
            and not self.diverged
            and not node.process.quarantined
        ):
            if self.lifecycle is not None and self.lifecycle.detects_crashes():
                # Gossip is the failure detector: the crashed node's
                # heartbeats stop, peers suspect it, and the epidemic
                # dead declaration triggers _handle_crash instead of
                # this leader-side timeout.
                return
            # Remote crashes are detected by timeout, not by waitpid.
            self.sim.call_at(
                self.sim.now + self.crash_detect_ns(),
                self._handle_crash, node, code,
            )

    def _handle_crash(self, node: Node, code: int) -> None:
        self.replica_fault(
            node.process,
            DivergenceReport(
                self.sim.now,
                0,
                "",
                "node %d (%s) crashed with code %d"
                % (node.index, node.process.name, code),
                detected_by="dist-heartbeat",
                kind="crash",
            ),
        )

    # ------------------------------------------------------------------
    # Graceful degradation across nodes (reuses repro.core policies)
    # ------------------------------------------------------------------
    def report_stall(self, reporter: Node, thread, req, blame: int,
                     detail: str) -> None:
        self.stats["stall_reports"] += 1
        if self.lifecycle is not None:
            self.lifecycle.note_stall(blame)
        blamed = self.nodes[blame].process
        self.replica_fault(
            blamed,
            DivergenceReport(
                self.sim.now,
                thread.vtid,
                req.name,
                "node %d reports node %d stalled: %s"
                % (reporter.index, blame, detail),
                detected_by="dist-watchdog",
                kind="stall",
            ),
        )

    # -- soft link degradation (circuit breaker callbacks) ---------------
    def _link_victim(self, src: int, dst: int) -> int:
        """Which node a bad directed link indicts: the non-leader end
        (the leader stays authoritative; routing around it would mean a
        promotion, which a *link* fault does not justify)."""
        return dst if dst != self.leader_index else src

    def _on_link_down(self, src: int, dst: int) -> None:
        if self.shutting_down or self.diverged:
            return
        victim = self._link_victim(src, dst)
        self._down_links.setdefault(victim, set()).add((src, dst))
        node = self.nodes[victim]
        process = node.process
        if node.link_degraded or process.quarantined or process.exited:
            return
        report = DivergenceReport(
            self.sim.now,
            0,
            "",
            "circuit breaker opened link %d->%d: node %d degraded to "
            "leader-replicated-only" % (src, dst, victim),
            detected_by="dist-breaker",
            kind="link",
        )
        report.replica = victim
        policy = self.config.degradation
        if policy is None or policy.classify(report) != "benign":
            # No degradation policy: a broken monitor link is a fault
            # the cluster cannot paper over.
            self.replica_fault(process, report)
            return
        voting_others = [
            p for p in self.participants() if p != victim
        ]
        if len(voting_others) < policy.min_quorum:
            report.detail += " [quorum lost: %d voters < min_quorum %d]" % (
                len(voting_others), policy.min_quorum,
            )
            self.replica_fault(process, report)
            return
        node.link_degraded = True
        self.wan_stats["link_degrades"] += 1
        self.result.fault_events.append(report)
        if self.obs.tracer.enabled:
            self.obs.tracer.instant(
                "dist", "link_degrade", src=src, dst=dst, victim=victim,
            )
        # Open rounds may now be completable without the degraded vote.
        self.monitor.on_membership_change()

    def _on_link_up(self, src: int, dst: int) -> None:
        victim = self._link_victim(src, dst)
        down = self._down_links.get(victim)
        if down is not None:
            down.discard((src, dst))
            if down:
                return  # another link against this node is still open
        node = self.nodes[victim]
        if not node.link_degraded:
            return
        node.link_degraded = False
        self.wan_stats["link_restores"] += 1
        if self.obs.tracer.enabled:
            self.obs.tracer.instant(
                "dist", "link_restore", src=src, dst=dst, victim=victim,
            )
        # The restored node's vote is required again from here on.
        self.monitor.on_membership_change()

    def _quarantined(self, process, index: int, was_leader: bool,
                     report: DivergenceReport) -> None:
        # Every quarantine opens a new ownership epoch: in-flight frames
        # from the old epoch become rejectable, waiting participants
        # observe the bump and re-collect rounds the dead shard lost.
        self.epoch += 1
        self.last_epoch_bump_ns = self.sim.now
        if was_leader:
            self._promote_leader(index)
        if not process.exited:
            self.nodes[index].kernel.terminate_process(process, 137, signo=9)
        self.monitor.begin_handoff(index)
        self._wake_everyone()
        if self.lifecycle is not None:
            self.lifecycle.on_quarantine(index, report)

    def _promote_leader(self, dead_index: int) -> None:
        survivors = self.group.survivors()
        if not survivors:
            return
        # Prefer a survivor with healthy links: promoting a node the
        # breakers have already routed around would put the whole
        # cluster behind a degraded leader.
        for candidate in survivors:
            if not self.nodes[self.group.index_of(candidate)].link_degraded:
                new_leader = candidate
                break
        else:
            new_leader = survivors[0]  # kept in index order
        new_index = self.group.index_of(new_leader)
        self.group.master_index = new_index
        self.degradation_stats["master_promotions"] += 1
        # The new leader re-broadcasts every result it holds but has not
        # consumed: the dead leader may have shipped those records to us
        # and not to every peer (the RB-survives-its-writer analogue).
        node = self.nodes[new_index]
        rebroadcast = sorted(node.mirror.unconsumed().items())
        for (vtid, seq), record in rebroadcast:
            frame = Frame(
                T_SYSCALL_RESULT, new_index, vtid, seq,
                aux=record.result, payload=record.payload,
            )
            for peer in self.live_peers(new_index):
                self.send_frame(
                    new_index, peer, frame, cls=CLS_CONTROL, urgent=True
                )
            self.stats["failover_rebroadcasts"] += 1
        if rebroadcast:
            # Scheduled delivery, like the leader's normal mirror push:
            # the rebroadcast records land on every surviving peer at
            # one instant (duplicates drop idempotently).
            self.sim.call_at(
                self.sim.now + self.release_lag_ns(),
                self._deliver_rebroadcast, new_index, rebroadcast,
            )

    def _deliver_rebroadcast(self, leader_index: int, rebroadcast) -> None:
        for (vtid, seq), record in rebroadcast:
            for peer in self.live_peers(leader_index):
                self.nodes[peer].mirror.put(vtid, seq, record, self.sim)

    # ------------------------------------------------------------------
    # Parking (a replica that lost its rendezvous waits for the kill)
    # ------------------------------------------------------------------
    def park(self, thread):
        """Block until this replica's process is torn down. Returning a
        fake errno into the guest would trip its own assertions before
        the kill lands; instead the thread sleeps and the runtime turns
        the process exit into a clean teardown."""
        while not thread.process.exited:
            event = self._parkq.register()
            status, _ = yield from wait_interruptible(
                thread, event, timeout_ns=1_000_000
            )
            if status != "fired":
                self._parkq.unregister(event)
        return -E.EINTR


def run_distributed(program: Program, config: Optional[ReMonConfig] = None,
                    fault_plan=None, until: Optional[int] = None,
                    max_steps: Optional[int] = None) -> MveeResult:
    """Build and run a distributed MVEE in one call."""
    mvee = DistMvee(program, config)
    if fault_plan is not None:
        from repro.faults import FaultInjector

        mvee.attach_faults(FaultInjector(fault_plan))
    return mvee.run(until=until, max_steps=max_steps)
