"""ReMon: the public entry point wiring all components together."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.epoll_map import EpollShadowMap
from repro.core.events import DivergenceReport, MveeResult
from repro.core.fdtable import MonitorFdTable
from repro.core.ghumvee import Ghumvee
from repro.core.ikb import InKernelBroker
from repro.core.ipmon import IpMonGroup, IpmonReplica
from repro.core.policies import DegradationPolicy, Level, RelaxationPolicy
from repro.core.rr_agent import RecordReplayAgent
from repro.diversity.aslr import make_layouts
from repro.errors import MonitorError
from repro.guest.program import Program
from repro.guest.runtime import GuestRuntime
from repro.obs import Obs


class ReplicaGroup:
    """The ordered set of replica processes (index 0 starts as master;
    a DegradationPolicy may promote a survivor when the master dies)."""

    def __init__(self):
        self.processes: List = []
        self.master_index = 0

    def add(self, process) -> None:
        process.replica_index = len(self.processes)
        self.processes.append(process)

    def index_of(self, process) -> int:
        return getattr(process, "replica_index", 0)

    def master(self):
        return self.processes[self.master_index]

    def survivors(self):
        return [
            p
            for p in self.processes
            if not p.exited and not getattr(p, "quarantined", False)
        ]

    def all_exited(self) -> bool:
        return all(process.exited for process in self.processes)

    def __len__(self):
        return len(self.processes)


class ReplicaSupervisor:
    """Run state and replica-fault policy shared by every MVEE monitor.

    The paper's monitor fail-stops on the first divergence (§3.3); a
    :class:`DegradationPolicy` relaxes a benign crash or stall into N−1
    continuation with master promotion (DMON-style). That policy is the
    same whether the replicas share one kernel under ptrace
    (:class:`ReMon`) or run one per node (:class:`repro.dist.DistMvee`),
    so it lives here, with the run state both keep (group, result,
    obs hub, degradation counters). A subclass supplies only what
    differs:

    * :meth:`_teardown_delay_ns` — how long the kill takes to land;
    * :meth:`_quarantined` — what a quarantine must release (tracer
      attachments and RB lanes, or shard ownership and mirrors) and how
      a new master is chosen;
    * :meth:`_record_postmortem` — the monitor-specific attribution.
    """

    def __init__(self, config, sim, width: int):
        self.config = config
        self.sim = sim
        self.group = ReplicaGroup()
        self.epoll_map = EpollShadowMap(width)
        self.result = MveeResult()
        self.shutting_down = False
        self.master_exit_ns: Optional[int] = None
        self.degradation_stats = {
            "replicas_quarantined": 0,
            "master_promotions": 0,
        }
        self.obs = Obs.create(config.obs, sim)
        if self.obs.tracer.enabled and sim.trace_sink is None:
            sim.trace_sink = self.obs.tracer

    def _teardown_delay_ns(self) -> int:
        raise NotImplementedError

    def _quarantined(self, process, index: int, was_master: bool,
                     report: DivergenceReport) -> None:
        raise NotImplementedError

    def _record_postmortem(self, reason: str, report: DivergenceReport) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_steps: Optional[int] = None) -> MveeResult:
        self.start()
        self.sim.run(until=until, max_steps=max_steps)
        return self.finalize()

    def _settle(self) -> MveeResult:
        """The finalize steps every monitor shares: surface a surviving
        replica's guest failure, then fill in exit codes and wall time."""
        for process in self.group.processes:
            if process.quarantined:
                # A quarantined replica was killed mid-flight by design;
                # whatever its guest task raised *is* the absorbed fault.
                continue
            for thread in process.threads.values():
                task = thread.task
                if task is not None and task.failure is not None:
                    raise task.failure
        result = self.result
        result.exit_codes = [p.exit_code for p in self.group.processes]
        result.wall_time_ns = (
            self.master_exit_ns
            if self.master_exit_ns is not None
            else self.sim.now
        )
        return result

    def _expose_degradation(self, registry) -> None:
        injector = getattr(self.group.processes[0].kernel, "fault_injector", None)
        registry.expose(
            "faults_injected",
            injector.total_injected if injector is not None else 0,
        )
        registry.expose(
            "replicas_quarantined",
            self.degradation_stats["replicas_quarantined"],
        )
        registry.expose(
            "master_promotions", self.degradation_stats["master_promotions"]
        )

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def divergence(self, report: DivergenceReport) -> None:
        if self.shutting_down or self.result.divergence is not None:
            return
        self.result.divergence = report
        self._record_postmortem("divergence", report)
        reason = "divergence: %s" % report.detail
        if self.group.all_exited():
            # Nothing left to kill, and the simulator clock may already
            # have stopped advancing — scheduling a delayed shutdown
            # would either be a no-op or raise for being in the past.
            if not self.result.shutdown_reason:
                self.result.shutdown_reason = reason
            return
        # Detection is not teardown: the monitor must reach every
        # replica to kill it (see _teardown_delay_ns).
        self.sim.call_at(
            self.sim.now + self._teardown_delay_ns(), self.shutdown, reason
        )

    def shutdown(self, reason: str) -> None:
        if self.shutting_down:
            return
        self.shutting_down = True
        self.result.shutdown_reason = reason
        for process in self.group.processes:
            if not process.exited:
                process.kernel.terminate_process(process, 137, signo=9)

    # ------------------------------------------------------------------
    # Graceful degradation (config.degradation)
    # ------------------------------------------------------------------
    def _survivors_excluding(self, process) -> List:
        return [
            p
            for p in self.group.processes
            if p is not process and not p.exited and not p.quarantined
        ]

    def replica_fault(self, process, report: DivergenceReport) -> None:
        """A replica crashed or stalled. Quarantine it when the policy
        classifies the fault benign and quorum holds; otherwise take the
        classic fail-stop path via :meth:`divergence`."""
        if self.shutting_down or self.diverged or process.quarantined:
            return
        policy = self.config.degradation
        if policy is None or policy.classify(report) != "benign":
            self.divergence(report)
            return
        survivors = self._survivors_excluding(process)
        if len(survivors) < policy.min_quorum:
            report.detail += " [quorum lost: %d survivors < min_quorum %d]" % (
                len(survivors),
                policy.min_quorum,
            )
            self.divergence(report)
            return
        self.quarantine(process, report)

    def quarantine(self, process, report: DivergenceReport) -> None:
        """Remove one replica from the group and continue with N−1 (the
        paper's fail-stop policy relaxed to a quorum rule; every
        *mismatch* still fail-stops). Losing the master without
        ``promote_master`` fail-stops too."""
        index = self.group.index_of(process)
        was_master = index == self.group.master_index
        policy = self.config.degradation
        if was_master and (policy is None or not policy.promote_master):
            self.divergence(report)
            return
        process.quarantined = True
        self.result.fault_events.append(report)
        if report.replica is None:
            report.replica = index
        self.result.quarantined_replicas.append(index)
        self.degradation_stats["replicas_quarantined"] += 1
        self._record_postmortem("quarantine", report)
        self._quarantined(process, index, was_master, report)

    @property
    def diverged(self) -> bool:
        return self.result.diverged


@dataclass
class ReMonConfig:
    """Configuration for one MVEE instance."""

    replicas: int = 2
    level: Level = Level.NONSOCKET_RW
    rb_size: int = 16 << 20
    aslr: bool = True
    dcl: bool = True
    allow_shared_memory: bool = False
    temporal: Optional[object] = None  # a TemporalPolicy, if any
    #: Ablation knob (§3.7): disable futex condvars, slaves always spin.
    ipmon_force_spin: bool = False
    #: §4 extension: IK-B periodically moves the RB to a fresh virtual
    #: address in every replica (None = disabled).
    rb_remap_interval_ns: Optional[int] = None
    #: §3.5: GHUMVEE arbitrates IP-MON registration and "can potentially
    #: prevent the registration altogether". When False, registrations
    #: are vetoed and the MVEE runs CP-only despite the relaxed level.
    allow_ipmon_registration: bool = True
    #: Graceful degradation (None = classic ReMon: every replica anomaly
    #: fail-stops the MVEE). See :class:`DegradationPolicy`.
    degradation: Optional[DegradationPolicy] = None
    #: Distributed execution (None = classic single-machine ReMon). When
    #: set to a :class:`repro.dist.DistConfig`, replicas run on separate
    #: simulated nodes; use :func:`repro.dist.run_distributed` or
    #: :class:`repro.dist.DistMvee` to drive such a config.
    dist: Optional[object] = None
    #: Observability (repro.obs). None = metrics-only defaults: the
    #: registry still serves RunResult.stats, but spans and the flight
    #: recorder stay off and add zero virtual time.
    obs: Optional[object] = None
    seed: int = 0

    def policy(self) -> RelaxationPolicy:
        return RelaxationPolicy(self.level, temporal=self.temporal)


class ReMon(ReplicaSupervisor):
    """A configured MVEE supervising N replicas of one program.

    Typical use::

        kernel = Kernel()
        mvee = ReMon(kernel, program, ReMonConfig(replicas=2))
        result = mvee.run()
    """

    def __init__(self, kernel, program: Program, config: Optional[ReMonConfig] = None):
        config = config or ReMonConfig()
        if config.replicas < 1:
            raise MonitorError("an MVEE needs at least one replica")
        super().__init__(config, kernel.sim, config.replicas)
        self.kernel = kernel
        self.program = program
        self.policy = self.config.policy()
        self.fd_metadata = MonitorFdTable()
        #: Exceptions from monitor coroutines; surfaced by finalize().
        self.monitor_failures: List[BaseException] = []
        self.layouts = make_layouts(
            self.config.replicas,
            seed=self.config.seed,
            aslr=self.config.aslr,
            dcl=self.config.dcl,
        )
        self._runtimes: List[GuestRuntime] = []
        self._started = False
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        kernel = self.kernel
        kernel.attach_obs(self.obs)
        self.program.install_files(kernel)
        pressure = kernel.config.costs.memory_pressure_per_replica
        sensitivity = getattr(self.program, "cache_sensitivity", 1.0)
        factor = 1.0 + pressure * (self.config.replicas - 1) * sensitivity
        for layout in self.layouts:
            process = kernel.create_process(
                "%s.r%d" % (self.program.name, layout.index),
                mmap_base=layout.mmap_base,
                brk_base=layout.brk_base,
            )
            process.compute_factor = factor
            self.group.add(process)

        # Cross-process monitor.
        self.ghumvee = Ghumvee(self)
        self.ghumvee.attach_all()

        # Kernel broker (shared per kernel).
        self.broker = getattr(kernel, "ikb", None)
        if self.broker is None:
            self.broker = InKernelBroker(kernel)
            kernel.syscall_hooks.append(self.broker)

        # In-process monitor, unless the policy disables it.
        self.ipmon: Optional[IpMonGroup] = None
        if self.config.level != Level.NO_IPMON:
            self.ipmon = IpMonGroup(
                self,
                self.policy,
                self.config.rb_size,
                force_spin=self.config.ipmon_force_spin,
            )
            for process, layout in zip(self.group.processes, self.layouts):
                replica = IpmonReplica(
                    self.ipmon,
                    process,
                    layout.index,
                    self.fd_metadata.region,
                )
                replica.map_buffers()

        # Record/replay agent for user-space synchronization.
        self.rr_agent = (
            RecordReplayAgent(kernel, self.config.replicas)
            if self.config.replicas > 1
            else None
        )

        for process, layout in zip(self.group.processes, self.layouts):
            if self.rr_agent is not None:
                agent = self.rr_agent

                def hook(ctx, _agent=agent):
                    ctx.rr_agent = _agent

                process.ctx_hook = hook
            runtime = GuestRuntime(
                kernel, process, self._wrapped_program(), layout=layout
            )
            self._runtimes.append(runtime)

        # Fault injection (repro.faults): let an installed injector
        # resolve replica indexes to this group's processes.
        injector = getattr(kernel, "fault_injector", None)
        if injector is not None:
            injector.bind_mvee(self)

    def _wrapped_program(self) -> Program:
        base = self.program
        ipmon_enabled = self.ipmon is not None

        def main(ctx):
            if ipmon_enabled:
                yield from ctx.process.ipmon_replica.registration_preamble(ctx)
            result = yield from base.main(ctx)
            return result

        return Program(base.name, main, seed=base.seed)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for runtime in self._runtimes:
            runtime.start()
        interval = self.config.rb_remap_interval_ns
        if interval and self.ipmon is not None:
            self.kernel.sim.spawn(self._rb_remap_loop(interval), name="ikb-remap")

    def _rb_remap_loop(self, interval_ns: int):
        from repro.sim import Sleep

        while not self.shutting_down and not self.group.all_exited():
            yield Sleep(interval_ns)
            if self.shutting_down or self.group.all_exited():
                return
            for replica in self.ipmon.replicas:
                if not replica.process.exited:
                    replica.remap_rb()

    def finalize(self) -> MveeResult:
        if self.monitor_failures:
            primary = self.monitor_failures[0]
            # Surface every other monitor failure on the raised error so
            # a cascade (e.g. two replicas' monitors dying in one event)
            # is not silently reduced to its first symptom.
            if hasattr(primary, "add_note"):
                for extra in self.monitor_failures[1:]:
                    primary.add_note(
                        "additional monitor failure: %r" % (extra,)
                    )
            raise primary
        result = self._settle()
        result.monitored_calls = self.ghumvee.stats["monitored_calls"]
        if self.ipmon is not None:
            result.unmonitored_calls = self.ipmon.stats["unmonitored_calls"]
            result.rb_resets = self.ipmon.stats["rb_resets"]
        result.deferred_signals = self.ghumvee.stats["signals_deferred"]
        # All component stats flow through the obs registry adapter; the
        # view it renders is byte-identical to the old hand-prefixed
        # merge (ingest is idempotent, so finalize may run twice).
        registry = self.obs.registry
        registry.ingest("", self.ghumvee.stats, source="ghumvee")
        registry.ingest("broker_", self.broker.stats, source="broker")
        if self.ipmon is not None:
            registry.ingest("ipmon_", self.ipmon.stats, source="ipmon")
        if self.rr_agent is not None:
            registry.ingest("rr_", self.rr_agent.stats, source="rr")
        self._expose_degradation(registry)
        registry.expose(
            "rb_backoff_retries",
            self.ipmon.stats.get("rb_backoff_retries", 0)
            if self.ipmon is not None
            else 0,
        )
        result.stats = registry.stats_view()
        self.obs.export_files(result.postmortems)
        return result

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _record_postmortem(self, reason: str, report: DivergenceReport) -> None:
        """Snapshot the flight recorder (if enabled) into the result."""
        ipmon = self.ipmon
        postmortem = self.obs.emit_postmortem(
            reason,
            report,
            attribution={
                "vtid": report.vtid,
                "replica": report.replica,
                "master_index": self.group.master_index,
                "quarantined": list(self.result.quarantined_replicas),
            },
            backoff={
                "rendezvous_backoff_retries": self.ghumvee.stats[
                    "rendezvous_backoff_retries"
                ],
                "rb_backoff_retries": (
                    ipmon.stats.get("rb_backoff_retries", 0)
                    if ipmon is not None
                    else 0
                ),
                "rb_resets": (
                    ipmon.stats.get("rb_resets", 0) if ipmon is not None else 0
                ),
            },
        )
        if postmortem is not None:
            self.result.postmortems.append(postmortem)

    def _teardown_delay_ns(self) -> int:
        # The monitor must wake up and kill the replicas, which takes a
        # ptrace round trip. Monitored calls stop being serviced
        # immediately (GHUMVEE parks all stops once a divergence is
        # flagged), but an unmonitored call already in flight can still
        # complete — the §4 run-ahead window.
        return self.kernel.config.costs.ptrace_roundtrip_ns()

    def ipmon_divergence(self, thread, req, master_blob, own_blob) -> None:
        report = DivergenceReport(
            self.kernel.sim.now,
            thread.vtid,
            req.name,
            "slave argument record differs from master's (%d vs %d bytes)"
            % (len(own_blob), len(master_blob)),
            detected_by="ipmon",
            replica_args=[master_blob, own_blob],
            replica=getattr(thread.process, "replica_index", None),
        )
        self.divergence(report)

    # ------------------------------------------------------------------
    # Graceful degradation (config.degradation)
    # ------------------------------------------------------------------
    def crash_would_degrade(self, process) -> bool:
        """Would this replica's death be absorbed (quarantined) rather
        than fail-stop the MVEE? GHUMVEE consults this before tearing
        down lockstep state for a dying replica, so that the quarantine
        path can shrink the rendezvous quorum in a controlled way."""
        policy = self.config.degradation
        if policy is None or self.shutting_down or self.diverged:
            return False
        if process.quarantined:
            return True
        if policy.classify_kind("crash") != "benign":
            return False
        if (
            self.group.index_of(process) == self.group.master_index
            and not policy.promote_master
        ):
            return False
        return len(self._survivors_excluding(process)) >= policy.min_quorum

    def _quarantined(self, process, index: int, was_master: bool,
                     report: DivergenceReport) -> None:
        """Detach the quarantined replica from ptrace, release its RB
        lanes and lockstep slots, shrink the rendezvous quorum, and
        promote a new master when the master is the one lost."""
        # Promotion must precede termination: fd migration reads the
        # dying master's still-intact descriptor table.
        if was_master:
            self._promote_master(index)
        if not process.exited:
            self.kernel.terminate_process(process, 137, signo=9)
        self.ghumvee.on_replica_quarantined(index, was_master)
        if self.ipmon is not None:
            self.ipmon.on_replica_quarantined(index, was_master)
        if self.rr_agent is not None:
            self.rr_agent.drop_replica(index)
        self.ghumvee.tracer.detach(process)

    def _promote_master(self, dead_index: int) -> None:
        """Re-point master-side state at the lowest surviving replica:
        real open files migrate over its shadow descriptors, the epoll
        shadow map re-keys, and the rr_agent records from it onward."""
        survivors = self.group.survivors()
        if not survivors:
            return
        new_master = survivors[0]  # processes are kept in index order
        new_index = self.group.index_of(new_master)
        old_master = self.group.processes[dead_index]
        for fd in old_master.fdtable.fds():
            entry = old_master.fdtable.get(fd)
            if entry is None or getattr(entry.ofd.file, "kind", None) == "shadow":
                continue
            target = new_master.fdtable.get(fd)
            if target is not None and getattr(target.ofd.file, "kind", None) != "shadow":
                continue  # the survivor already owns a real file here
            new_master.fdtable.install(fd, entry.ofd, entry.cloexec)
        self.group.master_index = new_index
        self.epoll_map.promote(new_index)
        if self.rr_agent is not None:
            self.rr_agent.promote(new_index)
        self.degradation_stats["master_promotions"] += 1

    def on_replica_thread_exit(self, stop) -> None:
        process = stop.thread.process
        if process.exited:
            # A replica that dies while the others run on — and not as
            # part of an agreed exit_group — is a fault: a benign crash
            # to absorb under a DegradationPolicy, otherwise the classic
            # divergence (diversity turned the attack into an observable
            # crash, §4).
            if (
                not self.shutting_down
                and not self.ghumvee.group_exiting
                and not process.quarantined
                and not self.group.all_exited()
            ):
                self.replica_fault(
                    process,
                    DivergenceReport(
                        self.kernel.sim.now,
                        stop.thread.vtid,
                        stop.req.name if stop.req else "",
                        "replica %s terminated unexpectedly (sig=%d)"
                        % (process.name, stop.signo),
                        detected_by="exit",
                        kind="crash",
                    ),
                )
            # Checked *after* fault handling: a quarantined master hands
            # the clock to its successor instead of freezing wall time.
            if (
                self.group.index_of(process) == self.group.master_index
                and not process.quarantined
                and self.master_exit_ns is None
            ):
                self.master_exit_ns = self.kernel.sim.now
        if self.group.all_exited() and not self.result.shutdown_reason:
            self.result.shutdown_reason = "all replicas exited"
