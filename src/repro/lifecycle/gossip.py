"""Seeded deterministic SWIM-style gossip membership.

Each node runs one :class:`GossipAgent`. On every beat the agent picks a
seeded fanout of live peers and ships them its full membership view —
(node, incarnation, state) triples — as a ``T_LIFECYCLE_GOSSIP``
heartbeat. Receiving any frame from a peer refreshes that peer's
liveness; receiving a *view* merges it entry-by-entry under the SWIM
ordering: a higher incarnation always wins, and within one incarnation
the worse state (alive < suspect < dead) wins, so death rumours
propagate epidemically while a rejoined replica's bumped incarnation
overrides its own obituary.

Silence past ``suspicion_timeout_ns`` turns a peer suspect; silence past
twice that declares it dead and fires ``on_dead`` exactly once per
(peer, incarnation). The agent is transport-agnostic — ``send`` is
injected — so membership convergence is property-testable on a scripted
lossy/reordering harness without building a cluster.

All randomness is one LCG stream per agent, seeded from (seed, index):
the same seed produces bit-identical fanout picks and therefore
bit-identical gossip traffic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.dist.wire import GOSSIP_ALIVE, GOSSIP_DEAD, GOSSIP_SUSPECT

_LCG_MULT = 6364136223846793005
_LCG_ADD = 1442695040888963407
_MASK = (1 << 64) - 1

STATE_NAMES = {GOSSIP_ALIVE: "alive", GOSSIP_SUSPECT: "suspect",
               GOSSIP_DEAD: "dead"}


class GossipAgent:
    """One node's membership view plus the SWIM merge/beat/check logic."""

    def __init__(self, index: int, n: int, *, suspicion_timeout_ns: int,
                 seed: int, fanout: int = 2,
                 on_dead: Optional[Callable[[int, int], None]] = None):
        self.index = index
        self.n = n
        self.suspicion_timeout_ns = suspicion_timeout_ns
        self.fanout = fanout
        self.on_dead = on_dead
        self.incarnations: Dict[int, int] = {i: 0 for i in range(n)}
        self.states: Dict[int, int] = {i: GOSSIP_ALIVE for i in range(n)}
        #: Last time liveness of each peer was (directly or transitively)
        #: confirmed; seeded to 0 so a peer that never beats still ages.
        self.last_heard: Dict[int, int] = {i: 0 for i in range(n)}
        self._rng = ((seed & _MASK) * _LCG_MULT + _LCG_ADD + index) & _MASK
        self._dead_fired: set = set()
        #: Seeded-shuffle round-robin of gossip targets (SWIM's probe
        #: discipline): every live peer is contacted within
        #: ceil(peers/fanout) beats, so inter-contact silence is bounded
        #: and a healthy cluster never falsely suspects anyone.
        self._cycle: List[int] = []
        #: Senders of direct frames we still hold dead: the next beat
        #: answers them, so a node isolated behind its own obituary
        #: hears it and can refute it.
        self._answer: List[int] = []
        self.beats_sent = 0

    # -- view ----------------------------------------------------------

    def view(self) -> Tuple[Tuple[int, int, int], ...]:
        """The full membership view as wire-ready gossip entries."""
        return tuple(
            (i, self.incarnations[i], self.states[i]) for i in range(self.n)
        )

    def alive_peers(self) -> List[int]:
        return [i for i in range(self.n)
                if i != self.index and self.states[i] != GOSSIP_DEAD]

    def _rand(self) -> int:
        self._rng = (self._rng * _LCG_MULT + _LCG_ADD) & _MASK
        return self._rng >> 16

    # -- beat / merge / check -----------------------------------------

    def beat(self, now: int) -> List[int]:
        """Pick this beat's seeded fanout of gossip targets.

        Beating also reconfirms our own liveness and incarnation in the
        outgoing view (``view()`` is what the caller ships). A node that
        holds every peer dead keeps cycling through all of them: its
        view is the only way back for it, and the answers it draws carry
        the obituary it has to refute.
        """
        self.states[self.index] = GOSSIP_ALIVE
        self.last_heard[self.index] = now
        peers = self.alive_peers()
        if not peers:
            peers = [i for i in range(self.n) if i != self.index]
        want = min(self.fanout, len(peers))
        targets: List[int] = []
        while len(targets) < want:
            if not self._cycle:
                pool = list(peers)
                while pool:
                    self._cycle.append(pool.pop(self._rand() % len(pool)))
            peer = self._cycle.pop(0)
            if peer in peers and peer not in targets:
                targets.append(peer)
        for peer in self._answer:
            if peer not in targets:
                targets.append(peer)
        self._answer = []
        self.beats_sent += 1
        return sorted(targets)

    def merge(self, now: int, sender: int,
              entries: Tuple[Tuple[int, int, int], ...]) -> None:
        """Fold a received view in under the SWIM ordering."""
        if 0 <= sender < self.n:
            self.last_heard[sender] = now
            # A direct frame refutes suspicion outright; a *dead* mark
            # stays until the peer's bumped incarnation arrives in the
            # entries below (SWIM: only a higher incarnation revives).
            if self.states[sender] == GOSSIP_SUSPECT:
                self.states[sender] = GOSSIP_ALIVE
        for node, incarnation, state in entries:
            if not 0 <= node < self.n:
                continue
            if node == self.index:
                # Refute rumours about ourselves: never adopt them, and
                # outlive them by bumping our incarnation past theirs.
                if state != GOSSIP_ALIVE and incarnation >= self.incarnations[node]:
                    self.incarnations[node] = incarnation + 1
                continue
            have_inc = self.incarnations[node]
            if incarnation > have_inc:
                self.incarnations[node] = incarnation
                self.states[node] = state
                self.last_heard[node] = now
                if state == GOSSIP_DEAD:
                    self._fire_dead(node, incarnation)
            elif incarnation == have_inc and state > self.states[node]:
                self.states[node] = state
                if state == GOSSIP_DEAD:
                    self._fire_dead(node, incarnation)
        if (
            0 <= sender < self.n
            and sender != self.index
            and self.states[sender] == GOSSIP_DEAD
            and sender not in self._answer
        ):
            self._answer.append(sender)

    def check(self, now: int) -> List[Tuple[int, int]]:
        """Age the view: promote silent peers to suspect/dead.

        Returns the transitions made as (peer, new_state) pairs; dead
        declarations additionally fire ``on_dead``.
        """
        transitions: List[Tuple[int, int]] = []
        for peer in range(self.n):
            if peer == self.index or self.states[peer] == GOSSIP_DEAD:
                continue
            silence = now - self.last_heard[peer]
            if silence > 2 * self.suspicion_timeout_ns:
                self.states[peer] = GOSSIP_DEAD
                transitions.append((peer, GOSSIP_DEAD))
                self._fire_dead(peer, self.incarnations[peer])
            elif (silence > self.suspicion_timeout_ns
                  and self.states[peer] == GOSSIP_ALIVE):
                self.states[peer] = GOSSIP_SUSPECT
                transitions.append((peer, GOSSIP_SUSPECT))
        return transitions

    def _fire_dead(self, peer: int, incarnation: int) -> None:
        key = (peer, incarnation)
        if key in self._dead_fired:
            return
        self._dead_fired.add(key)
        if self.on_dead is not None:
            self.on_dead(peer, incarnation)

    # -- lifecycle events ---------------------------------------------

    def restart(self, now: int) -> None:
        """The local slot was re-imaged: rejoin under a fresh view.

        Bumps our incarnation so the replacement outlives its own
        obituary, and restarts every peer's silence clock — the agent
        was deaf while its slot was down, so accumulated silence
        measures our outage, not the peers' liveness. Suspect marks are
        graced for the same reason; dead marks stay (only a bumped
        incarnation revives the dead, as everywhere else).
        """
        self.incarnations[self.index] += 1
        self.states[self.index] = GOSSIP_ALIVE
        for peer in range(self.n):
            self.last_heard[peer] = now
            if self.states[peer] == GOSSIP_SUSPECT:
                self.states[peer] = GOSSIP_ALIVE

    def revive(self, now: int, peer: int) -> None:
        """A peer rejoined under a bumped incarnation: expect beats again."""
        self.incarnations[peer] += 1
        self.states[peer] = GOSSIP_ALIVE
        self.last_heard[peer] = now

    def grace(self, now: int, peer: int) -> None:
        """Reset a falsely-suspected live peer's silence clock."""
        self.states[peer] = GOSSIP_ALIVE
        self.last_heard[peer] = now
