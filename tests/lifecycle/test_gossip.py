"""SWIM gossip membership: determinism and convergence properties.

The two properties the lifecycle manager leans on:

* **Convergence** — under seeded loss and reorder, every surviving
  agent's view settles on the same membership set: the killed nodes
  dead, the live nodes alive (false suspicions are refuted by direct
  frames and incarnation bumps).
* **Bit-identity** — the same seed produces the identical beat targets,
  traffic log, and final views, run after run. Gossip randomness is one
  LCG stream per agent, nothing else.

The harness is a scripted discrete-tick network (no simulator, no
cluster): beats fan out, frames travel one-or-more ticks with seeded
loss/reordering, checks age silent peers. That keeps the properties
cheap enough for Hypothesis to sweep seeds.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dist.wire import GOSSIP_ALIVE, GOSSIP_DEAD, GOSSIP_SUSPECT
from repro.lifecycle.gossip import GossipAgent

_LCG_MULT = 6364136223846793005
_LCG_ADD = 1442695040888963407
_MASK = (1 << 64) - 1

INTERVAL = 10
TIMEOUT = 45


def run_gossip(n, *, seed, loss_seed=0, loss_permille=0, reorder=False,
               ticks=60, kill=(), kill_at=15, settle=30, on_dead=None):
    """Scripted gossip network. Returns (agents, traffic_log).

    ``traffic_log`` records every delivered frame as
    ``(deliver_tick, sender, target, entries)`` — the full observable
    gossip traffic, byte-for-byte equivalent to the wire payloads.
    """
    agents = [
        GossipAgent(i, n, suspicion_timeout_ns=TIMEOUT, fanout=2, seed=seed,
                    on_dead=(lambda peer, inc, i=i: on_dead(i, peer, inc))
                    if on_dead else None)
        for i in range(n)
    ]
    rng = (loss_seed or 1) & _MASK

    def rand():
        nonlocal rng
        rng = (rng * _LCG_MULT + _LCG_ADD) & _MASK
        return rng >> 16

    in_flight = []  # (deliver_tick, order, sender, target, entries)
    log = []
    order = 0
    for tick in range(ticks + settle):
        now = tick * INTERVAL
        lossy = tick < ticks  # the settle phase runs loss-free
        for agent in agents:
            if agent.index in kill and tick >= kill_at:
                continue
            agent.check(now)
            for target in agent.beat(now):
                if lossy and loss_permille and rand() % 1000 < loss_permille:
                    continue
                delay = 1 + (rand() % 3 if (reorder and lossy) else 0)
                in_flight.append(
                    (tick + delay, order, agent.index, target, agent.view())
                )
                order += 1
        due = sorted(f for f in in_flight if f[0] <= tick + 1)
        in_flight = [f for f in in_flight if f[0] > tick + 1]
        for deliver_tick, _, sender, target, entries in due:
            if target in kill and deliver_tick >= kill_at:
                continue
            agents[target].merge(deliver_tick * INTERVAL, sender, entries)
            log.append((deliver_tick, sender, target, entries))
    return agents, log


class TestAgentUnit:
    def test_silence_promotes_suspect_then_dead(self):
        agent = GossipAgent(0, 3, suspicion_timeout_ns=100, fanout=2, seed=1)
        assert agent.check(90) == []
        assert agent.check(150) == [(1, GOSSIP_SUSPECT), (2, GOSSIP_SUSPECT)]
        assert agent.check(250) == [(1, GOSSIP_DEAD), (2, GOSSIP_DEAD)]
        assert agent.alive_peers() == []

    def test_direct_frame_refutes_suspicion_but_not_death(self):
        agent = GossipAgent(0, 3, suspicion_timeout_ns=100, fanout=2, seed=1)
        agent.check(150)
        assert agent.states[1] == GOSSIP_SUSPECT
        agent.merge(160, 1, ())
        assert agent.states[1] == GOSSIP_ALIVE
        agent.check(400)
        assert agent.states[2] == GOSSIP_DEAD
        agent.merge(410, 2, ())  # a frame alone cannot revive the dead
        assert agent.states[2] == GOSSIP_DEAD
        # ... but the peer's bumped incarnation can.
        agent.merge(420, 2, ((2, 1, GOSSIP_ALIVE),))
        assert agent.states[2] == GOSSIP_ALIVE

    def test_own_obituary_is_outlived_by_incarnation_bump(self):
        agent = GossipAgent(1, 3, suspicion_timeout_ns=100, fanout=2, seed=1)
        agent.merge(50, 0, ((1, 0, GOSSIP_DEAD),))
        assert agent.incarnations[1] == 1
        assert agent.states[1] == GOSSIP_ALIVE

    def test_on_dead_fires_once_per_incarnation(self):
        fired = []
        agent = GossipAgent(
            0, 3, suspicion_timeout_ns=100, fanout=2, seed=1,
            on_dead=lambda peer, inc: fired.append((peer, inc)),
        )
        agent.check(250)
        agent.merge(260, 2, ((1, 0, GOSSIP_DEAD),))  # rumour repeats it
        assert fired.count((1, 0)) == 1
        agent.revive(300, 1)
        agent.check(600)
        assert fired.count((1, 1)) == 1

    def test_restart_forgives_outage_silence(self):
        agent = GossipAgent(0, 4, suspicion_timeout_ns=100, fanout=2, seed=1)
        agent.check(150)   # 1, 2, 3 suspect
        agent.check(250)   # ... then dead
        agent.merge(260, 1, ((1, 1, GOSSIP_ALIVE),))
        agent.check(380)   # peer 1 suspect again under its new incarnation
        assert agent.states[1] == GOSSIP_SUSPECT
        agent.restart(400)
        # Obituary outlived, suspect graced, dead marks kept.
        assert agent.incarnations[0] == 1
        assert agent.states[1] == GOSSIP_ALIVE
        assert agent.states[2] == GOSSIP_DEAD
        # Silence clocks restarted: nothing ages out immediately.
        assert agent.check(450) == []

    def test_beat_targets_bounded_and_sorted(self):
        agent = GossipAgent(0, 6, suspicion_timeout_ns=100, fanout=2, seed=9)
        for now in range(0, 100, 10):
            targets = agent.beat(now)
            assert len(targets) == 2
            assert targets == sorted(targets)
            assert agent.index not in targets


class TestConvergence:
    def test_faultless_views_identical(self):
        agents, _ = run_gossip(4, seed=3)
        views = {agent.view() for agent in agents}
        assert len(views) == 1
        assert all(state == GOSSIP_ALIVE
                   for _, _, state in views.pop())

    def test_killed_node_declared_dead_everywhere(self):
        agents, _ = run_gossip(4, seed=3, kill=(2,))
        for agent in agents:
            if agent.index == 2:
                continue
            assert agent.states[2] == GOSSIP_DEAD
            assert 2 not in agent.alive_peers()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(1, 2**32),
        loss_seed=st.integers(1, 2**32),
        loss_permille=st.integers(0, 400),
        reorder=st.booleans(),
        n=st.integers(3, 6),
    )
    # Isolation regressions: one node held every peer dead (so it had no
    # beat targets) while every peer held it dead at the same
    # incarnation, so it never heard its own obituary to refute it.
    @example(seed=2102024, loss_seed=86773, loss_permille=392, reorder=True, n=5)
    @example(seed=696, loss_seed=6, loss_permille=389, reorder=True, n=6)
    def test_views_converge_under_loss_and_reorder(
        self, seed, loss_seed, loss_permille, reorder, n
    ):
        kill = (n - 1,)
        agents, _ = run_gossip(
            n, seed=seed, loss_seed=loss_seed, loss_permille=loss_permille,
            reorder=reorder, kill=kill,
        )
        live = [agent for agent in agents if agent.index not in kill]
        alive_sets = {tuple(sorted(set(a.alive_peers()) | {a.index}))
                      for a in live}
        assert alive_sets == {tuple(i for i in range(n) if i not in kill)}
        for agent in live:
            assert agent.states[n - 1] == GOSSIP_DEAD


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(1, 2**32),
        loss_seed=st.integers(1, 2**32),
        loss_permille=st.integers(0, 300),
        n=st.integers(3, 6),
    )
    def test_same_seed_bit_identical_traffic_and_views(
        self, seed, loss_seed, loss_permille, n
    ):
        runs = [
            run_gossip(n, seed=seed, loss_seed=loss_seed,
                       loss_permille=loss_permille, reorder=True, kill=(0,))
            for _ in range(2)
        ]
        (agents_a, log_a), (agents_b, log_b) = runs
        assert log_a == log_b
        assert [a.view() for a in agents_a] == [b.view() for b in agents_b]
        assert ([a.beats_sent for a in agents_a]
                == [b.beats_sent for b in agents_b])

    def test_different_seed_changes_traffic(self):
        _, log_a = run_gossip(4, seed=1)
        _, log_b = run_gossip(4, seed=2)
        assert log_a != log_b
