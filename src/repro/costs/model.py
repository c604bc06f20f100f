"""The virtual machine's timing model.

All durations are virtual nanoseconds. The defaults model the paper's
testbed — a dual eight-core Xeon E5-2660 (Sandy Bridge EP) running Linux
3.13 — at the granularity the evaluation is sensitive to:

* a *ptrace stop* (tracee traps, monitor wakes, monitor resumes tracee)
  costs a few microseconds: two context switches with their TLB/cache
  fallout plus the waitpid/ptrace syscalls themselves;
* a native syscall costs a fraction of a microsecond;
* IP-MON's unmonitored path costs some hundreds of nanoseconds: no
  context switch, just RB bookkeeping and (for slaves) argument
  comparison and result copying.

These magnitudes — not their precise values — are what produce the
paper's headline shape: monitoring cost is proportional to system-call
density, and the CP/IP cost ratio of roughly 10–40× is what the five
relaxation levels trade away.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostModel:
    """Tunable timing parameters for the simulated machine."""

    # -- plain kernel costs (paid by everything, including native runs) --
    syscall_base_ns: int = 400
    copy_ns_per_byte: float = 0.05

    # -- context switching / ptrace (the CP monitor's currency) ---------
    context_switch_ns: int = 1200
    tlb_flush_penalty_ns: int = 900
    ptrace_stop_ns: int = 3600  # one stop: trap + waitpid wakeup + resume
    ptrace_peek_ns: int = 700  # PTRACE_PEEKDATA / process_vm_readv setup
    ptrace_poke_ns: int = 750

    # -- monitor work ------------------------------------------------------
    monitor_dispatch_ns: int = 500  # per monitored call bookkeeping
    compare_base_ns: int = 150  # per argument compared
    compare_ns_per_byte: float = 0.12
    replicate_ns_per_byte: float = 0.10

    # -- IP-MON (the in-process monitor's currency) -------------------------
    ikb_forward_ns: int = 120  # broker reroute, register save/restore
    ipmon_entry_ns: int = 180  # entry point, policy check, token check
    rb_write_base_ns: int = 160  # master: allocate + fill RB record
    rb_read_base_ns: int = 140  # slave: locate + validate RB record
    rb_ns_per_byte: float = 0.06  # RB memcpy (cache-hot shared memory)
    spin_read_ns: int = 250  # slave spin-wait iteration
    futex_wait_ns: int = 2600  # sleep + wakeup through the kernel
    futex_wake_ns: int = 1100
    rb_overflow_sync_ns: int = 25000  # GHUMVEE arbitration on RB reset

    # -- distributed replication (repro.dist's currency) --------------------
    # Cross-node replication swaps RB shared-memory costs for messaging
    # costs: per-message kernel/NIC work on top of the simulated link
    # latency, a per-byte encode/copy tax for building transfer units
    # (dMVX's "copy to the transfer unit" term), and a fixed service cost
    # on every lockstep rendezvous round. Crash detection across nodes is
    # a timeout, not a waitpid: it costs real time.
    dist_msg_syscall_ns: int = 1800  # sendmsg/recvmsg pair + NIC doorbell
    dist_encode_ns_per_byte: float = 0.25  # serialise into a transfer unit
    dist_frame_send_ns: int = 350  # per-frame queueing into a batch
    dist_rendezvous_service_ns: int = 900  # monitor-side rendezvous work
    dist_crash_detect_ns: int = 250_000  # heartbeat/timeout detection lag

    # -- distributed fast path (sharding + RB mirror compression) -----------
    # The rendezvous monitor is a serial resource: the node hosting a
    # round's state processes rounds one at a time, so a single-owner
    # monitor queues under many-threaded lockstep load — the term
    # sharding exists to shrink. Shard routing itself costs a hash and
    # a hop decision per submission. Compression trades leader/follower
    # CPU per payload byte for wire bytes.
    dist_monitor_round_ns: int = 1400  # serialized per-round monitor work
    dist_shard_route_ns: int = 150  # owner hash + shard-hop routing tax
    #: Per-round shard recovery work after a membership change: adopting
    #: a transferred round (or rebuilding a lost one from resubmitted
    #: digests) on the new owner's serial timeline. State-transfer bytes
    #: are billed separately by the transport.
    dist_handoff_ns: int = 2_500
    dist_compress_frame_ns: int = 140  # per-frame codec dispatch + dict probe
    dist_compress_ns_per_byte: float = 0.12  # RLE scan/emit over raw bytes
    dist_decompress_ns_per_byte: float = 0.05  # expand on adoption
    #: Reliable-link overheads (only billed when a transport runs in
    #: reliable mode): CPU to re-push a stored batch from the unacked
    #: window, and to emit a pure-ack batch. Both also pay the normal
    #: per-byte message cost for the bytes they put on the wire.
    dist_retransmit_ns: int = 900
    dist_ack_ns: int = 400
    #: Canonical re-serialization on heterogeneous clusters (DESIGN.md
    #: §13): a node whose guest ABI diverges from the canonical form
    #: re-encodes the argument record (fixed widths, zero padding)
    #: before digesting, so cross-node digests stay layout-independent.
    #: Canonical-ABI nodes — every node of a homogeneous cluster — skip
    #: this entirely and the fields are never billed.
    canonical_ns: int = 200  # per-record re-encode dispatch
    canonical_ns_per_byte: float = 0.08  # width/padding rewrite per byte

    # -- fleet admission control (repro.fleet) ------------------------------
    #: Leader-side accept-path bookkeeping per admitted connection:
    #: token-bucket refill/consume plus queue-wait stamping. Billed on
    #: the accepting thread only when a controller is attached.
    fleet_admission_ns: int = 180

    # -- elastic lifecycle (repro.lifecycle) --------------------------------
    # Charged only when a LifecycleConfig is attached to the DistConfig;
    # lifecycle-free runs never touch these fields.
    #: Monitor-side CPU per SWIM heartbeat emitted (view serialization +
    #: fanout pick). Accounted, not slept — heartbeats run off the
    #: guest's critical path on the monitor's housekeeping core.
    lifecycle_heartbeat_ns: int = 300
    #: Per-artifact adoption cost while a replacement replica fast-
    #: replays the recorded RB/verdict window (rr-style replay: no
    #: digest, no round trip — just a mirror lookup and an apply).
    lifecycle_replay_ns: int = 250
    #: Spin-up delay for a replacement replica: image fetch + boot of a
    #: fresh kernel before replay starts. Deliberately much larger than
    #: a link latency so in-flight frames from the dead process drain
    #: before its slot is re-imaged.
    lifecycle_provision_ns: int = 3_000_000

    # -- observability (repro.obs) ------------------------------------------
    # Charged only while the corresponding instrument is enabled; with
    # obs at defaults both are folded in as zero, so metrics-only runs
    # keep wall times byte-identical to obs-free ones.
    obs_span_ns: int = 60  # span begin/finish pair: clock reads + buffer append
    obs_event_ns: int = 40  # flight-recorder ring append

    # -- memory-system interference (replicas share caches/DRAM) -----------
    # Per extra replica beyond the first, compute segments are slowed by
    # this fraction (cache and memory-bandwidth pressure; the paper's
    # GHUMVEE-only PARSEC overheads are mostly this term).
    memory_pressure_per_replica: float = 0.035

    def ptrace_roundtrip_ns(self) -> int:
        """A stop plus the context-switch fallout on both sides."""
        return (
            self.ptrace_stop_ns
            + 2 * self.context_switch_ns
            + 2 * self.tlb_flush_penalty_ns
        )

    def compare_cost_ns(self, nbytes: int, nargs: int = 1) -> int:
        return int(self.compare_base_ns * nargs + self.compare_ns_per_byte * nbytes)

    def replicate_cost_ns(self, nbytes: int) -> int:
        return int(self.replicate_ns_per_byte * nbytes)

    def rb_copy_ns(self, nbytes: int) -> int:
        return int(self.rb_ns_per_byte * nbytes)

    def dist_message_cost_ns(self, nbytes: int) -> int:
        """CPU cost of sending one cross-node message (link delay excluded)."""
        return int(self.dist_msg_syscall_ns + self.dist_encode_ns_per_byte * nbytes)

    def dist_frame_cost_ns(self, nbytes: int) -> int:
        """CPU cost of queueing one frame into an outgoing transfer unit."""
        return int(self.dist_frame_send_ns + self.dist_encode_ns_per_byte * nbytes)

    def dist_compress_cost_ns(self, nbytes: int) -> int:
        """CPU cost of codec-wrapping one payload of ``nbytes`` raw bytes."""
        return int(self.dist_compress_frame_ns
                   + self.dist_compress_ns_per_byte * nbytes)

    def dist_decompress_cost_ns(self, nbytes: int) -> int:
        """CPU cost of expanding one coded payload back to ``nbytes``."""
        return int(self.dist_decompress_ns_per_byte * nbytes)

    def canonical_cost_ns(self, nbytes: int) -> int:
        """CPU cost of canonicalizing one ``nbytes`` argument record."""
        return int(self.canonical_ns + self.canonical_ns_per_byte * nbytes)


#: Named machine configurations used across the evaluation.
MACHINES = {
    # The paper's testbed: 2x 8-core E5-2660, 20 MB LLC per socket.
    "xeon-e5-2660": CostModel(),
    # A machine with slower context switches (older kernels / no PCID):
    # used in ablations to show the CP/IP gap widening.
    "slow-switch": CostModel(
        context_switch_ns=2500, tlb_flush_penalty_ns=2000, ptrace_stop_ns=6000
    ),
    # An optimistic machine with tagged TLBs: the gap narrows but stays.
    "tagged-tlb": CostModel(
        context_switch_ns=800, tlb_flush_penalty_ns=150, ptrace_stop_ns=2500
    ),
}
