"""LifecycleManager: wires gossip, re-admission, and auto-scaling into
a running :class:`~repro.dist.cluster.DistMvee`.

The manager owns three loops, all on the cluster's virtual clock:

* **heartbeats** — one staggered beat timer per node driving its
  :class:`~repro.lifecycle.gossip.GossipAgent`; gossip silence replaces
  the leader's crash-detect timeout as the failure detector, so the
  membership view survives leader loss.
* **re-admission** — an always-on :class:`~repro.lifecycle.window.
  ReplayWindow` records every RB mirror record and rendezvous verdict.
  When a slot is quarantined (and rejoin is on), the manager waits a
  provision delay, re-images the slot with a fresh kernel/process at
  the same layout and address, ships the recorded window as billed
  ``T_LIFECYCLE_STATE`` frames, and boots the replacement in *replay
  mode*: it adopts recorded artifacts at ``lifecycle_replay_ns`` each
  (rr-style: no digests, no round trips) until it misses one — the
  live frontier — at which point it is re-admitted under a bumped
  ownership epoch and votes like everyone else.
* **drift watchdog** — a periodic tick sampling the always-on wait
  histograms; sustained p99 drift scales the shard count.

Nothing here exists unless a :class:`LifecycleConfig` is attached:
lifecycle-free runs take zero new frames, zero new stats, and stay
bit-identical to the pre-lifecycle design.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.events import DivergenceReport
from repro.dist.cluster import NODE_CORES
from repro.dist.node import DistInterceptor, ReplicaView
from repro.dist.remote_rb import RBMirror
from repro.dist.selective import CLS_HANDOFF, CLS_LIFECYCLE
from repro.dist.shard import MonitorShard
from repro.dist.wire import (
    Frame,
    GOSSIP_SUSPECT,
    STATE_RECORD,
    STATE_VERDICT,
    T_LIFECYCLE_GOSSIP,
    T_LIFECYCLE_STATE,
    T_SHARD_HANDOFF,
    digest_payload,
    gossip_payload,
    owners_payload,
    parse_gossip_payload,
    state_payload,
)
from repro.guest.runtime import GuestRuntime
from repro.kernel.kernel import Kernel, KernelConfig
from repro.lifecycle.autoscale import DriftWatchdog
from repro.lifecycle.config import LifecycleConfig
from repro.lifecycle.window import RECORD, ReplayWindow

#: Interval between one node's heartbeats.
HEARTBEAT_INTERVAL_NS = 1_000_000
#: Drift-watchdog sampling interval.
WATCH_INTERVAL_NS = 2_000_000
#: Rendezvous shard-count bounds the auto-scaler moves within.
MIN_SHARDS = 1
MAX_SHARDS = 8


class LifecycleManager:
    """The elastic-lifecycle controller attached to one DistMvee."""

    def __init__(self, mvee, config: LifecycleConfig):
        self.mvee = mvee
        self.config = config
        self.sim = mvee.sim
        seed = config.seed if config.seed is not None else (
            mvee.config.seed or 1
        )
        #: One agent per slot; agents outlive re-images (the replacement
        #: inherits the slot's view under a bumped incarnation).
        self.agents: List = []
        if config.gossip:
            from repro.lifecycle.gossip import GossipAgent

            self.agents = [
                GossipAgent(
                    index, mvee.n,
                    suspicion_timeout_ns=config.suspicion_timeout_ns,
                    seed=seed,
                    on_dead=lambda peer, inc, i=index: self._on_agent_dead(
                        i, peer, inc
                    ),
                )
                for index in range(mvee.n)
            ]
        #: Always recorded while the manager exists: a NodeRejoinFault
        #: can force a rejoin even with config.rejoin off, and a window
        #: that only starts recording at the crash is a window with a
        #: hole.
        self.window = ReplayWindow(config.replay_window)
        self.watchdog = DriftWatchdog(config) if config.autoscale else None
        #: Slot index -> in-flight rejoin bookkeeping.
        self._rejoins: Dict[int, Dict] = {}
        self._forced: set = set()
        self.stats = {
            "beats_sent": 0,
            "gossip_frames": 0,
            "heartbeat_cpu_ns": 0,
            "suspicions": 0,
            "false_suspicions": 0,
            "gossip_detections": 0,
            "stall_notes": 0,
            "rejoins_scheduled": 0,
            "rejoins_refused": 0,
            "rejoins_started": 0,
            "rejoins_completed": 0,
            "rejoin_ns_total": 0,
            "state_frames": 0,
            "replayed_records": 0,
            "replayed_verdicts": 0,
            "replayed_local": 0,
            "scale_ups": 0,
            "scale_downs": 0,
            # Never incremented: the pinned homogeneous lifecycle stats
            # view (tests/diversity/golden_hetero_stats.json) carries it.
            "proactive_quarantines": 0,
        }

    # ------------------------------------------------------------------
    @property
    def gossip_on(self) -> bool:
        return bool(self.agents)

    def detects_crashes(self) -> bool:
        """Gossip silence replaces the crash-detect timeout when armed."""
        return self.gossip_on

    def _halted(self) -> bool:
        mvee = self.mvee
        return mvee.shutting_down or mvee.diverged or mvee.group.all_exited()

    # ------------------------------------------------------------------
    # Heartbeats + gossip
    # ------------------------------------------------------------------
    def start(self) -> None:
        interval = HEARTBEAT_INTERVAL_NS
        if self.gossip_on:
            for index in range(self.mvee.n):
                # Stagger first beats so N nodes never flush one synchronized
                # burst; the offsets are pure functions of the index.
                offset = interval * (index + 1) // (self.mvee.n + 1)
                self.sim.call_at(interval + offset, self._beat, index)
        if self.watchdog is not None:
            self.sim.call_at(WATCH_INTERVAL_NS, self._watch_tick)

    def _beat(self, index: int) -> None:
        if self._halted():
            return
        mvee = self.mvee
        node = mvee.nodes[index]
        process = node.process
        if not process.exited and not process.quarantined:
            agent = self.agents[index]
            now = self.sim.now
            for _peer, state in agent.check(now):
                if state == GOSSIP_SUSPECT:
                    self.stats["suspicions"] += 1
            targets = agent.beat(now)
            payload = gossip_payload(agent.view())
            for dst in targets:
                frame = Frame(
                    T_LIFECYCLE_GOSSIP, index, 0, 0,
                    aux=agent.incarnations[index], payload=payload,
                )
                mvee.send_frame(index, dst, frame, cls=CLS_LIFECYCLE)
                self.stats["gossip_frames"] += 1
            self.stats["beats_sent"] += 1
            self.stats["heartbeat_cpu_ns"] += (
                mvee._costs().lifecycle_heartbeat_ns
            )
        self.sim.call_at(
            self.sim.now + HEARTBEAT_INTERVAL_NS,
            self._beat, index,
        )

    def on_gossip_frame(self, dst: int, frame: Frame) -> None:
        if not self.gossip_on or self._halted():
            return
        entries = parse_gossip_payload(frame.payload)
        self.agents[dst].merge(self.sim.now, frame.sender, entries)

    def _on_agent_dead(self, observer: int, peer: int, incarnation: int) -> None:
        if self._halted():
            return
        mvee = self.mvee
        node = mvee.nodes[peer]
        process = node.process
        if process.quarantined or node.rejoining:
            return
        code = process.exit_code or 0
        if process.exited and code >= 128:
            # The cluster-level detection event; _handle_crash is
            # idempotent, so N observers converge on one quarantine.
            self.stats["gossip_detections"] += 1
            mvee._handle_crash(node, code)
        elif not process.exited:
            # A live process was gossiped dead (lost beats): refute
            # locally rather than quarantine on rumour alone.
            self.stats["false_suspicions"] += 1
            self.agents[observer].grace(self.sim.now, peer)
        # A cleanly exited peer is *expected* to fall silent: the dead
        # mark just stops the observer expecting beats.

    # ------------------------------------------------------------------
    # Replay window recording (hooks from the leader's hot path)
    # ------------------------------------------------------------------
    def record_result(self, vtid: int, seq: int, record) -> None:
        self.window.record(vtid, seq, record)

    def record_release(
        self, vtid: int, seq: int, verdict: int, digest: int = 0
    ) -> None:
        self.window.release(vtid, seq, verdict, digest)

    def note_stall(self, blame: int) -> None:
        self.stats["stall_notes"] += 1

    # ------------------------------------------------------------------
    # Re-admission
    # ------------------------------------------------------------------
    def force_rejoin(self, index: int) -> None:
        """A NodeRejoinFault demands this slot rejoin even if the
        config would not rejoin ordinary quarantines."""
        self._forced.add(index)

    def on_quarantine(self, index: int, report: DivergenceReport) -> None:
        if self._halted():
            return
        if not (self.config.rejoin or index in self._forced):
            return
        if self.window.overflowed:
            # A window with a hole cannot be replayed soundly; refuse.
            self.stats["rejoins_refused"] += 1
            return
        pending = self._rejoins.get(index)
        if pending is not None and pending.get("pending"):
            return
        self.stats["rejoins_scheduled"] += 1
        self._rejoins[index] = {
            "pending": True,
            "quarantined_ns": self.sim.now,
            "kind": report.kind,
        }
        self.sim.call_at(
            self.sim.now + self.mvee._costs().lifecycle_provision_ns,
            self._provision, index,
        )

    def _provision(self, index: int) -> None:
        """Re-image the quarantined slot: fresh kernel + process at the
        same layout and address, then ship the recorded window."""
        if self._halted():
            return
        info = self._rejoins.get(index)
        if info is None or not info.get("pending"):
            return
        if self.window.overflowed:
            # The window overflowed between quarantine and provision: a
            # truncated snapshot replays a prefix whose first miss is
            # NOT the live frontier — the replacement would wait forever
            # for records the leader shipped before the re-image. Refuse
            # (bounded-by-refusal), leave the slot quarantined.
            self.stats["rejoins_refused"] += 1
            info["pending"] = False
            return
        mvee = self.mvee
        node = mvee.nodes[index]
        old_kernel = node.kernel
        # Re-imaging wipes the node's TCP state: listeners the dead
        # kernel registered in the shared network would otherwise shadow
        # the replacement's binds with EADDRINUSE during replay.
        network = mvee.network
        if network is not None:
            stale = [key for key, sock in network.listeners.items()
                     if sock.kernel is old_kernel]
            for key in stale:
                del network.listeners[key]
        kernel = Kernel(
            sim=self.sim,
            config=KernelConfig(cores=NODE_CORES),
            network=mvee.network,
        )
        kernel.attach_obs(mvee.obs)
        mvee.program.install_files(kernel)
        process = kernel.create_process(
            "%s.n%d.r%d" % (
                mvee.program.name, index, self.stats["rejoins_scheduled"],
            ),
            mmap_base=node.layout.mmap_base,
            brk_base=node.layout.brk_base,
            host_ip="10.1.%d.1" % index,
        )
        process.compute_factor = 1.0
        injector = getattr(old_kernel, "fault_injector", None)
        if injector is not None:
            kernel.fault_injector = injector
        # Swap the slot: the group keeps its width, replica_index is
        # pinned (ReplicaGroup.add would append).
        mvee.group.processes[index] = process
        process.replica_index = index
        node.kernel = kernel
        node.process = process
        node.mirror = RBMirror(index)
        node.link_degraded = False
        node.rejoining = True
        node.replaying = True
        node.view = ReplicaView(process, mvee.policy, mvee.epoll_map, index)
        node.interceptor = DistInterceptor(mvee, node)
        kernel.syscall_hooks.append(node.interceptor)
        node.runtime = GuestRuntime(
            kernel, process, mvee.program, layout=node.layout
        )
        process.exit_event.add_listener(
            lambda code, n=node: mvee._on_node_exit(n, code)
        )
        if self.gossip_on:
            # The replacement outlives its own obituary by announcing a
            # bumped incarnation; peers revive the slot on merge. Its
            # peer silence clocks restart too — the agent was deaf for
            # the whole outage, so the accumulated silence says nothing
            # about the peers.
            self.agents[index].restart(self.sim.now)
        # Ship the recorded window as billed lifecycle state frames from
        # the current leader (who holds the authoritative record).
        entries = self.window.snapshot()
        leader = mvee.leader_index
        for kind, vtid, seq, artifact in entries:
            if kind == RECORD:
                frame = Frame(
                    T_LIFECYCLE_STATE, leader, vtid, seq,
                    aux=artifact.result,
                    payload=state_payload(
                        STATE_RECORD, artifact.name, artifact.payload
                    ),
                )
            else:
                verdict, digest = artifact
                frame = Frame(
                    T_LIFECYCLE_STATE, leader, vtid, seq,
                    aux=verdict,
                    payload=state_payload(
                        STATE_VERDICT, "", digest_payload(digest, "")
                    ),
                )
            mvee.send_frame(leader, index, frame, cls=CLS_LIFECYCLE)
        self.stats["state_frames"] += len(entries)
        info["replay_start_ns"] = self.sim.now
        info["window_entries"] = len(entries)
        # The window is applied (and the guest booted) once the state
        # frames have physically crossed the link — same scheduled-
        # delivery discipline as verdict releases.
        self.sim.call_at(
            self.sim.now + mvee.release_lag_ns(),
            self._boot_replacement, node, entries,
        )

    def _boot_replacement(self, node, entries) -> None:
        if self._halted():
            return
        sim = self.sim
        for kind, vtid, seq, artifact in entries:
            if kind == RECORD:
                node.mirror.put(vtid, seq, artifact, sim)
            else:
                verdict, digest = artifact
                node.mirror.release(vtid, seq, verdict, sim, digest=digest)
        # The window is a totally ordered log: the replaying interceptor
        # adopts entries in this exact order so shared-namespace
        # allocation (fd numbers) interleaves as recorded (§13).
        node.replay_plan = [
            (kind, vtid, seq) for kind, vtid, seq, _ in entries
        ]
        node.replay_cursor = 0
        self.stats["rejoins_started"] += 1
        obs = self.mvee.obs
        if obs.tracer.enabled:
            obs.tracer.instant(
                "lifecycle", "replay_start",
                node=node.index, entries=len(entries),
            )
        node.runtime.start()

    def reach_frontier(self, node) -> None:
        """The replaying replica missed a recorded artifact: it has
        caught up to the live frontier. Re-admit it under a bumped
        ownership epoch and let it vote like everyone else."""
        if not node.rejoining:
            return
        mvee = self.mvee
        now = self.sim.now
        node.rejoining = False
        # Every re-admission opens a new ownership epoch, exactly like
        # the quarantine that vacated the slot: in-flight old-epoch
        # frames become rejectable and waiting participants re-collect
        # against the new owner set (which the rejoiner re-enters).
        mvee.epoch += 1
        mvee.last_epoch_bump_ns = now
        if mvee.dconfig.shard_rendezvous:
            dead = mvee.monitor._shards.get(node.index)
            if dead is not None and dead.dead:
                fresh = MonitorShard(node.index)
                fresh.rounds = dead.rounds
                mvee.monitor._shards[node.index] = fresh
                node.shard = fresh
        info = self._rejoins.get(node.index) or {}
        info["pending"] = False
        self.stats["rejoins_completed"] += 1
        registry = mvee.obs.registry
        if "quarantined_ns" in info:
            rejoin_ns = now - info["quarantined_ns"]
            registry.histogram("lifecycle_rejoin_ns").observe(rejoin_ns)
            self.stats["rejoin_ns_total"] += rejoin_ns
        if "replay_start_ns" in info:
            registry.histogram("lifecycle_replay_lag_ns").observe(
                now - info["replay_start_ns"]
            )
        # Announce the bumped epoch + owner set to the survivors (the
        # physical bytes of the membership change, like a handoff).
        leader = mvee.leader_index
        announce = Frame(
            T_SHARD_HANDOFF, leader, 0, 0, aux=mvee.epoch,
            payload=owners_payload(mvee.shard_owners()),
        )
        for peer in mvee.live_peers(leader):
            mvee.send_frame(leader, peer, announce, cls=CLS_HANDOFF, urgent=True)
        if mvee.obs.tracer.enabled:
            mvee.obs.tracer.instant(
                "lifecycle", "rejoin", node=node.index, epoch=mvee.epoch,
            )
        mvee.monitor.on_membership_change()

    # ------------------------------------------------------------------
    # Drift watchdog + auto-scaling
    # ------------------------------------------------------------------
    def _watch_tick(self) -> None:
        if self._halted():
            return
        mvee = self.mvee
        dconfig = mvee.dconfig
        decision = self.watchdog.observe_histograms(
            mvee.obs.registry.histograms
        )
        if (
            decision
            and dconfig.shard_rendezvous
            and dconfig.rendezvous_shards is not None
        ):
            shards = dconfig.rendezvous_shards
            if decision > 0 and shards < MAX_SHARDS:
                # Clean membership change: HRW remaps ~1/N of new rounds,
                # open rounds stay addressable via their hosting shard,
                # and no epoch bump is needed.
                dconfig.rendezvous_shards = shards + 1
                self.stats["scale_ups"] += 1
                mvee.monitor.on_membership_change()
                if mvee.obs.tracer.enabled:
                    mvee.obs.tracer.instant(
                        "lifecycle", "scale_up", shards=shards + 1,
                    )
            elif decision < 0 and shards > MIN_SHARDS:
                dconfig.rendezvous_shards = shards - 1
                self.stats["scale_downs"] += 1
                mvee.monitor.on_membership_change()
                if mvee.obs.tracer.enabled:
                    mvee.obs.tracer.instant(
                        "lifecycle", "scale_down", shards=shards - 1,
                    )
        self.sim.call_at(self.sim.now + WATCH_INTERVAL_NS, self._watch_tick)

    # ------------------------------------------------------------------
    # Finalize / attribution
    # ------------------------------------------------------------------
    def export_stats(self, registry) -> None:
        registry.ingest("lifecycle_", self.stats, source="lifecycle")
        registry.expose("lifecycle_window_records", self.window.records)
        registry.expose("lifecycle_window_verdicts", self.window.verdicts)
        registry.expose(
            "lifecycle_window_overflowed", int(self.window.overflowed)
        )
        if self.watchdog is not None:
            registry.ingest(
                "lifecycle_watch_", self.watchdog.stats, source="lifecycle"
            )

    def attribution(self) -> Dict:
        """Postmortem attribution for replayed replicas."""
        return {
            "rejoined_nodes": sorted(
                index for index, info in self._rejoins.items()
                if not info.get("pending")
            ),
            "rejoins_pending": sorted(
                index for index, info in self._rejoins.items()
                if info.get("pending")
            ),
            "replayed_records": self.stats["replayed_records"],
            "replayed_verdicts": self.stats["replayed_verdicts"],
            "window_entries": len(self.window),
        }
