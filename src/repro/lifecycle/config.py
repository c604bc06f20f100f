"""Configuration for the elastic cluster lifecycle.

A :class:`LifecycleConfig` attached to ``DistConfig.lifecycle`` arms the
three lifecycle subsystems independently:

* **gossip** — SWIM-style heartbeats + epidemic membership dissemination
  replacing the leader's crash-detect timeout, so the view survives
  leader loss;
* **rejoin** — replay-based re-admission: a quarantined slot is
  re-imaged and the replacement fast-replays the recorded RB/verdict
  window back to the live frontier;
* **autoscale** — a drift watchdog over the always-on wait histograms
  that scales the rendezvous shard count.

Everything is seeded and deterministic: the same config + seed produce
bit-identical gossip traffic, stats, and wire bytes run-to-run. With no
config attached (the default) the lifecycle layer does not exist at
all — zero new frames, zero new stats, bit-identical to the pre-
lifecycle design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import PolicyError


@dataclass
class LifecycleConfig:
    """Tuning for gossip membership, re-admission, and auto-scaling.
    ``DistConfig.lifecycle=None`` is the off switch."""

    # -- gossip membership + heartbeats -------------------------------
    #: Arm the SWIM-style heartbeat/suspicion protocol. When armed it
    #: *replaces* the cluster's crash-detect timeout as the failure
    #: detector (gossip silence is the signal).
    gossip: bool = True
    #: Silence (no direct or gossiped liveness) before a peer turns
    #: suspect; a peer silent for twice this is declared dead.
    suspicion_timeout_ns: int = 3_000_000

    # -- replay-based re-admission ------------------------------------
    #: Re-image quarantined slots and replay them back into the quorum.
    rejoin: bool = True
    #: Bound on the recorded window (RB records + rendezvous verdicts).
    #: Overflow stops recording and *refuses* later rejoins rather than
    #: replaying from a hole — bounded-by-refusal, never silently wrong.
    replay_window: int = 65536

    # -- auto-scaling + drift watchdogs -------------------------------
    #: Arm the p99-drift watchdog over the always-on wait histograms.
    autoscale: bool = False
    #: Consecutive drifting (or quiet) windows before scaling up (down).
    drift_windows: int = 3

    #: Gossip fanout RNG seed; None inherits the MVEE config seed.
    seed: Optional[int] = None

    def __post_init__(self):
        if self.suspicion_timeout_ns <= 0:
            raise PolicyError("suspicion_timeout_ns must be positive")
        if self.replay_window < 1:
            raise PolicyError("replay_window must be at least 1")
        if self.drift_windows < 1:
            raise PolicyError("drift_windows must be at least 1")
