"""Event-engine throughput benches (repro.sim; DESIGN.md engine section).

Every subsystem in this repo — GHUMVEE rendezvous, IP-MON, the
distributed lanes, shard monitors, WAN transport, fleets — drains
through one pure-Python event loop, so engine throughput *is* the
scaling wall (ROADMAP item 3). Two measurements quantify the PR-8
refactor:

* **Storm microbench** — a rendezvous-storm-shaped workload (N waiters
  released by one ``Event.fire``, interleaved with cpu sleeps) run on
  the calendar-queue engine and on :class:`LegacyHeapSimulator`, a
  compact in-bench reimplementation of the pre-refactor engine (single
  binary heap, per-sleep closures, isinstance effect dispatch). The
  metric is task resumptions per host second — a count both engines
  share analytically, unlike queue callbacks which batch draining
  collapses. CI asserts the new engine wins by >= 2x.
* **64-node x 32-thread sweep** — the dMVX-credibility configuration
  the issue names: a :class:`repro.dist.DistMvee` run at 64 nodes with
  a 32-thread workload, reported as host wall seconds and as the peak
  RSS of a fresh child process that runs only the sweep. Must finish in
  the CI smoke budget.

``python -m repro.bench.engine sweep64`` runs the sweep in-process and
prints its row as JSON.
"""

from __future__ import annotations

import heapq
import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import SimulationError
from repro.sim import Event, Simulator, Sleep, WaitEvent

#: Storm shape: WAITERS tasks rendezvous on a fresh gate each round.
STORM_WAITERS = 256
STORM_ROUNDS = 200


def smoke() -> bool:
    """CI smoke mode (REPRO_BENCH_SMOKE=1). The storm runs at full size
    either way (it is sub-second); only the sweep workload shrinks."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


# ---------------------------------------------------------------------------
# The pre-refactor engine, kept as the comparison baseline
# ---------------------------------------------------------------------------
class LegacyHeapSimulator:
    """The seed engine, condensed: one ``(when, seq, fn, args)`` heap,
    a fresh closure per sleep/timeout, isinstance effect dispatch. Kept
    here (not in ``repro.sim``) purely so the storm bench measures the
    refactor against its real predecessor instead of a guess."""

    def __init__(self, cores: int = 16):
        self.cores = cores
        self.now = 0
        self._queue: list = []
        self._seq = 0
        self._cpu_active = 0
        self.steps = 0

    def call_at(self, when: int, fn: Callable, *args) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, fn, args))

    def call_soon(self, fn: Callable, *args) -> None:
        self.call_at(self.now, fn, *args)

    def spawn(self, gen: Iterator, name: str = "task"):
        task = _LegacyTask(gen, name)
        self.call_soon(self._step, task, None, None)
        return task

    def fire(self, event: Event, value: Any = None) -> None:
        if event.fired:
            return
        event.fired = True
        event.value = value
        waiters, event._waiters = event._waiters, []
        for task, epoch in waiters:
            if task._wait_epoch == epoch and not task.done:
                self.call_soon(self._step, task, (True, value), None)

    def run(self, until: Optional[int] = None) -> int:
        while self._queue:
            when, _seq, fn, args = self._queue[0]
            if until is not None and when > until:
                self.now = until
                break
            heapq.heappop(self._queue)
            if when > self.now:
                self.now = when
            fn(*args)
            self.steps += 1
        return self.now

    def _step(self, task, send_value, throw_exc) -> None:
        if task.done:
            return
        task._wait_epoch += 1
        try:
            if throw_exc is not None:
                item = task.gen.throw(throw_exc)
            else:
                item = task.gen.send(send_value)
        except StopIteration:
            task.done = True
            return
        if isinstance(item, Sleep):
            self._do_sleep(task, item)
        elif isinstance(item, WaitEvent):
            self._do_wait(task, item)
        else:
            raise SimulationError("legacy bench engine: unsupported %r" % item)

    def _do_sleep(self, task, item: Sleep) -> None:
        if item.cpu:
            self._cpu_active += 1
            factor = max(1.0, self._cpu_active / float(self.cores))
            ns = int(item.ns * factor)

            def _wake_cpu():
                self._cpu_active -= 1
                self._step(task, None, None)

            self.call_at(self.now + ns, _wake_cpu)
        else:
            def _wake():
                self._step(task, None, None)

            self.call_at(self.now + item.ns, _wake)

    def _do_wait(self, task, item: WaitEvent) -> None:
        event = item.event
        if event.fired:
            self.call_soon(self._step, task, (True, event.value), None)
            return
        event._waiters.append((task, task._wait_epoch))
        if item.timeout_ns is not None:
            epoch = task._wait_epoch

            def _timeout():
                if task._wait_epoch == epoch and not task.done:
                    self._step(task, (False, None), None)

            self.call_at(self.now + item.timeout_ns, _timeout)


class _LegacyTask:
    def __init__(self, gen: Iterator, name: str):
        self.gen = gen
        self.name = name
        self.done = False
        self._wait_epoch = 0


# ---------------------------------------------------------------------------
# Storm microbench
# ---------------------------------------------------------------------------
def _storm_program(sim, waiters: int, rounds: int):
    """Rendezvous storm: each round, every waiter blocks on a shared
    gate; a coordinator burns cpu then fires it, releasing all N at one
    virtual instant (the shape GHUMVEE barriers and shard rendezvous
    produce). Waiters alternate cpu/plain sleeps between rounds."""
    gates = [Event("round-%d" % r) for r in range(rounds)]

    def waiter(i):
        for r in range(rounds):
            yield WaitEvent(gates[r])
            yield Sleep(50 + (i & 7), cpu=(r & 1) == 0)

    def coordinator():
        for r in range(rounds):
            yield Sleep(1_000, cpu=True)
            sim.fire(gates[r], r)

    for i in range(waiters):
        sim.spawn(waiter(i), "w%d" % i)
    sim.spawn(coordinator(), "coord")


def storm_resumptions(waiters: int, rounds: int) -> int:
    """Task resumptions the storm performs, counted analytically so both
    engines are scored on identical work: each waiter resumes twice per
    round (gate release + sleep wake) plus its initial step; the
    coordinator resumes once per round plus its initial step."""
    return waiters * rounds * 2 + waiters + rounds + 1


def run_storm(engine_factory: Callable[[], Any],
              waiters: int = STORM_WAITERS,
              rounds: int = STORM_ROUNDS,
              repeats: int = 3) -> Dict:
    """Best-of-``repeats`` storm run (fresh engine each repeat): the
    minimum host time is the least-noisy estimate on a shared CI box."""
    resumptions = storm_resumptions(waiters, rounds)
    best_s = None
    final_now = None
    for _ in range(repeats):
        sim = engine_factory()
        _storm_program(sim, waiters, rounds)
        start = time.perf_counter()
        sim.run()
        host_s = time.perf_counter() - start
        if best_s is None or host_s < best_s:
            best_s = host_s
        final_now = sim.now
    return {
        "waiters": waiters,
        "rounds": rounds,
        "resumptions": resumptions,
        "repeats": repeats,
        "host_seconds": round(best_s, 4),
        "events_per_sec": round(resumptions / best_s, 1),
        "final_now": final_now,
    }


def storm_rows() -> List[Dict]:
    """Old engine vs new engine on the identical storm, plus speedup."""
    legacy = run_storm(LegacyHeapSimulator)
    legacy["engine"] = "legacy-heap"
    current = run_storm(Simulator)
    current["engine"] = "calendar-queue"
    # Identical virtual outcome is part of the bench contract: same
    # program, same final clock, regardless of queue structure.
    assert current["final_now"] == legacy["final_now"], (current, legacy)
    speedup = current["events_per_sec"] / legacy["events_per_sec"]
    current["speedup_vs_legacy"] = round(speedup, 2)
    return [legacy, current]


# ---------------------------------------------------------------------------
# 64-node x 32-thread sweep
# ---------------------------------------------------------------------------
def sweep_64x32() -> Dict:
    """:func:`run_sweep_64x32` in a fresh child process, so the row's
    ``peak_rss_mb`` counts the sweep alone, not whatever ran earlier in
    this process."""
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench.engine", "sweep64"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_sweep_64x32() -> Dict:
    """One DistMvee run at credibility scale, in this process: 64
    nodes, a 32-thread workload. Reported in host seconds; the CI smoke
    job is the budget this must fit."""
    from repro.core import DegradationPolicy, Level, ReMonConfig
    from repro.dist import DistConfig, DistMvee
    from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

    rate = 30_000.0 if smoke() else 90_000.0
    workload = SyntheticWorkload(
        name="sweep-64x32",
        native_ms=0.5 if smoke() else 1.5,
        mix=CategoryMix(
            {
                "base": rate * 0.4,
                "file_ro": rate * 0.35,
                "sock_ro": rate * 0.1,
                "sock_rw": rate * 0.05,
                "mgmt": rate * 0.1,
            }
        ),
        threads=32,
    )
    config = ReMonConfig(
        replicas=64,
        level=Level.NO_IPMON,
        degradation=DegradationPolicy(min_quorum=33),
        dist=DistConfig(link_latency_ns=50_000),
    )
    mvee = DistMvee(build_program(workload), config)
    start = time.perf_counter()
    result = mvee.run(max_steps=400_000_000)
    host_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    assert not result.diverged, result.divergence
    assert result.exit_codes == [0] * 64, result.exit_codes
    return {
        "nodes": 64,
        "threads": 32,
        "smoke": smoke(),
        "host_seconds": round(host_s, 3),
        "virtual_ms": round(result.wall_time_ns / 1e6, 3),
        "sim_steps": mvee.sim.steps,
        "peak_rss_mb": round(peak_kib / 1024.0, 1),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["sweep64"]:
        sys.exit("usage: python -m repro.bench.engine sweep64")
    print(json.dumps(run_sweep_64x32()))
