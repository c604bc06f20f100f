"""The discrete-event simulator driving every component of the system.

The simulator owns a calendar queue of timestamped callbacks and a set
of coroutine tasks. A task is a Python generator; each value it yields
is an :class:`~repro.sim.effects.Effect` describing what it wants to
wait for, and the simulator resumes the generator with the effect's
result once the wait is over. Nested coroutines compose with
``yield from``, which lets the kernel, the monitors and guest programs
call into each other without ever blocking the host.

Engine structure (the host-throughput hot path)
-----------------------------------------------

Discrete-event workloads here are storm-shaped: a rendezvous release or
a barrier wake schedules dozens-to-thousands of callbacks *at the same
virtual instant*. A single binary heap pays ``O(log n)`` per callback
and allocates a closure per sleep; profiling a ReMon sweep puts
``_wake``/``_wake_cpu`` closures plus heap churn at the top of the
cumulative profile. Three structural choices remove that:

* **Calendar queue** — callbacks live in per-timestamp FIFO buckets
  (the calendar pages); only *distinct* timestamps go through the
  overflow heap. A same-instant storm of N callbacks costs one heap
  push + N list appends instead of N heap pushes, and global
  ``(when, seq)`` order is preserved because the global sequence
  counter increases monotonically — insertion order within a bucket
  *is* seq order, even for entries appended while the bucket drains.
* **Closure-free wakeups** — sleeps and wait-timeouts schedule a
  pooled ``__slots__`` :class:`_Wakeup` record instead of defining a
  fresh closure; records are recycled through a free list after they
  run, so steady-state wakeups allocate nothing.
* **Batch event drain** — :meth:`Simulator.fire` with N waiters
  schedules one :class:`_EventDrain` record that steps every waiter in
  seq order, instead of N separate queue entries. Execution order is
  identical (all waiter steps were already seq-contiguous; anything
  scheduled afterwards had a higher seq), only the queue traffic
  shrinks.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterator, Optional

from repro.errors import SimulationError
from repro.sim.effects import Event

# Sentinel distinguishing "timeout expired" from a fired event.
_TIMED_OUT = object()


class TraceEvent:
    """One structured trace record on the virtual clock.

    Events come in two kinds: ``"instant"`` (a point in time) and
    ``"span"`` (a completed interval, ``dur_ns`` set by the emitter).
    ``component``/``name`` identify the choke point (for example
    ``("ghumvee", "rendezvous")``); free-form context rides in ``attrs``.
    """

    __slots__ = ("time_ns", "kind", "component", "name", "dur_ns", "attrs")

    def __init__(self, time_ns, kind, component, name, dur_ns=0, attrs=None):
        self.time_ns = time_ns
        self.kind = kind
        self.component = component
        self.name = name
        self.dur_ns = dur_ns
        self.attrs = attrs or {}

    def message(self) -> str:
        """Human-readable one-line rendering."""
        parts = ["%s.%s" % (self.component, self.name)]
        if self.kind == "span":
            parts.append("dur=%dns" % self.dur_ns)
        parts.extend("%s=%r" % kv for kv in sorted(self.attrs.items()))
        return " ".join(parts)

    def to_dict(self) -> dict:
        out = {
            "t": self.time_ns,
            "kind": self.kind,
            "component": self.component,
            "name": self.name,
        }
        if self.kind == "span":
            out["dur_ns"] = self.dur_ns
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    def __repr__(self):
        return "TraceEvent(%d, %s, %s)" % (self.time_ns, self.kind,
                                           self.message())


class Task:
    """A running coroutine plus its bookkeeping.

    Attributes:
        name: human-readable label used in traces and error messages.
        done: whether the generator has finished.
        result: the generator's return value once ``done`` is true.
        done_event: an :class:`Event` fired (with ``result``) on completion.
        failure: the exception that killed the task, if any.
    """

    __slots__ = (
        "name",
        "gen",
        "done",
        "result",
        "done_event",
        "failure",
        "_wait_epoch",
        "cancelled",
    )

    def __init__(self, gen: Iterator, name: str):
        self.name = name
        self.gen = gen
        self.done = False
        self.result: Any = None
        self.done_event = Event("done:%s" % name)
        self.failure: Optional[BaseException] = None
        self.cancelled = False
        # Incremented whenever the task is resumed; stale wakeups (e.g. a
        # timeout firing after the event already resumed the task) check
        # the epoch and become no-ops.
        self._wait_epoch = 0

    def __repr__(self):
        state = "done" if self.done else "running"
        return "Task(%s, %s)" % (self.name, state)


#: _Wakeup kinds.
_WAKE_SLEEP = 0
_WAKE_CPU = 1
_WAKE_TIMEOUT = 2


class _Wakeup:
    """A pooled, closure-free wakeup record for sleeps and timeouts.

    Replaces the per-sleep ``_wake``/``_wake_cpu``/``_timeout`` closures:
    one preallocated record per in-flight wakeup, recycled through the
    simulator's free list once it has run.
    """

    __slots__ = ("task", "epoch", "kind")

    def __init__(self, task, epoch: int, kind: int):
        self.task = task
        self.epoch = epoch
        self.kind = kind


class _EventDrain:
    """One queue entry releasing every waiter of a fired event in order."""

    __slots__ = ("waiters", "value")

    def __init__(self, waiters, value):
        self.waiters = waiters
        self.value = value


class Simulator:
    """Deterministic discrete-event loop with virtual-nanosecond time.

    Args:
        cores: number of CPU cores on the simulated machine. CPU-burning
            sleeps (``Sleep(ns, cpu=True)``) are stretched when more of
            them are active than there are cores, which is how the model
            accounts for replicas competing for the machine.
        trace: optional event sink for debug tracing: an object with an
            ``emit(event: TraceEvent)`` method, e.g. ``repro.obs.Tracer``.
    """

    def __init__(self, cores: int = 16, trace: Optional[Any] = None):
        if cores < 1:
            raise ValueError("a machine needs at least one core")
        if trace is not None and not callable(getattr(trace, "emit", None)):
            raise TypeError("trace sink needs an emit(event) method: %r" % (trace,))
        self.cores = cores
        self.now = 0
        self.trace_sink = trace
        # Calendar queue: per-timestamp FIFO buckets plus a heap over the
        # *distinct* timestamps. Within a bucket, append order is global
        # seq order (the counter is monotone), so FIFO-per-timestamp
        # reproduces exact (when, seq) dequeue order.
        self._buckets: dict = {}
        self._times: list = []
        self._pending = 0
        self._seq = 0
        self._wakeup_pool: list = []
        self._cpu_active = 0
        self._live_tasks = 0
        self._steps = 0

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def _schedule(self, when: int, entry) -> None:
        """Insert ``entry`` into the calendar bucket for ``when``."""
        self._seq += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [entry]
            heappush(self._times, when)
        else:
            bucket.append(entry)
        self._pending += 1

    def call_at(self, when: int, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` to run at virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                "cannot schedule in the past: %d < %d" % (when, self.now)
            )
        self._schedule(when, (fn, args))

    def call_soon(self, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` at the current virtual time."""
        self._schedule(self.now, (fn, args))

    def spawn(self, gen: Iterator, name: str = "task") -> Task:
        """Create a task from generator ``gen`` and start it immediately."""
        task = Task(gen, name)
        self._live_tasks += 1
        self._schedule(self.now, (self._step, (task, None, None)))
        return task

    # ------------------------------------------------------------------
    # Event operations
    # ------------------------------------------------------------------
    def fire(self, event: Event, value: Any = None) -> None:
        """Fire ``event`` now, waking every waiter with ``value``."""
        if event.fired:
            return
        event.fired = True
        event.value = value
        waiters = event._waiters
        if waiters:
            event._waiters = []
            if len(waiters) == 1:
                task, epoch = waiters[0]
                if task._wait_epoch == epoch and not task.done:
                    self._schedule(
                        self.now, (self._step, (task, (True, value), None))
                    )
            else:
                # Rendezvous storm: one drain entry releases all N
                # waiters in their original seq order instead of N
                # separate queue entries.
                self._schedule(self.now, _EventDrain(waiters, value))
        listeners, event._listeners = event._listeners, []
        for listener in listeners:
            listener(value)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_steps: Optional[int] = None):
        """Run until the queue drains, ``until`` is reached, or the step
        budget is exhausted. Returns the final virtual time.

        ``max_steps`` budgets *this call only*; the lifetime callback
        count remains readable via :attr:`steps`.
        """
        budget = None if max_steps is None else self._steps + max_steps
        buckets = self._buckets
        times = self._times
        step = self._step
        while self._pending:
            when = times[0]
            if until is not None and when > until:
                self.now = until
                break
            heappop(times)
            if when > self.now:
                self.now = when
            bucket = buckets[when]
            index = 0
            try:
                # Drain in place: entries appended at this timestamp
                # while draining carry higher seqs and simply extend the
                # iteration.
                while index < len(bucket):
                    entry = bucket[index]
                    bucket[index] = None
                    index += 1
                    cls = entry.__class__
                    if cls is _Wakeup:
                        task = entry.task
                        kind = entry.kind
                        if kind == _WAKE_CPU:
                            self._cpu_active -= 1
                        if task._wait_epoch == entry.epoch and not task.done:
                            if kind == _WAKE_TIMEOUT:
                                step(task, (False, None), None)
                            else:
                                step(task, None, None)
                        entry.task = None
                        self._wakeup_pool.append(entry)
                    elif cls is _EventDrain:
                        value = entry.value
                        for task, epoch in entry.waiters:
                            if task._wait_epoch == epoch and not task.done:
                                step(task, (True, value), None)
                    else:
                        fn, args = entry
                        fn(*args)
                    self._steps += 1
                    if budget is not None and self._steps >= budget:
                        raise SimulationError(
                            "simulation exceeded %d steps at t=%d"
                            % (max_steps, self.now)
                        )
            finally:
                self._pending -= index
                if index >= len(bucket):
                    del buckets[when]
                else:
                    # Interrupted mid-bucket (step budget / callback
                    # failure): keep the unexecuted tail runnable.
                    del bucket[:index]
                    heappush(times, when)
        return self.now

    def run_task(self, gen: Iterator, name: str = "main", **kwargs) -> Any:
        """Spawn ``gen``, run the simulation, and return its result."""
        task = self.spawn(gen, name)
        self.run(**kwargs)
        if task.failure is not None:
            raise task.failure
        if not task.done:
            raise SimulationError(
                "task %s deadlocked: simulation drained at t=%d with the "
                "task still waiting" % (task.name, self.now)
            )
        return task.result

    # ------------------------------------------------------------------
    # Task stepping
    # ------------------------------------------------------------------
    def _step(self, task: Task, send_value: Any, throw_exc) -> None:
        if task.done:
            return
        task._wait_epoch += 1
        try:
            if throw_exc is not None:
                item = task.gen.throw(throw_exc)
            else:
                item = task.gen.send(send_value)
        except StopIteration as stop:
            self._finish(task, stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - task crash is terminal
            self._finish(task, None, exc)
            return
        # Effect dispatch: a class-level int tag instead of an
        # isinstance chain (one attribute load resolves the kind). The
        # sleep and wait arms are inlined rather than helper calls —
        # together they are the busiest call sites in the whole system,
        # and the call overhead alone is measurable on storm workloads.
        try:
            kind = item._effect_kind
        except AttributeError:
            kind = -1
        if kind == 1:
            ns = item.ns
            if item.cpu:
                self._cpu_active += 1
                factor = max(1.0, self._cpu_active / float(self.cores))
                ns = int(ns * factor)
                wake_kind = _WAKE_CPU
            else:
                wake_kind = _WAKE_SLEEP
            pool = self._wakeup_pool
            if pool:
                record = pool.pop()
                record.task = task
                record.epoch = task._wait_epoch
                record.kind = wake_kind
            else:
                record = _Wakeup(task, task._wait_epoch, wake_kind)
            when = self.now + ns
            self._seq += 1
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [record]
                heappush(self._times, when)
            else:
                bucket.append(record)
            self._pending += 1
        elif kind == 2:
            event = item.event
            if event.fired:
                self._schedule(
                    self.now, (self._step, (task, (True, event.value), None))
                )
            else:
                event._waiters.append((task, task._wait_epoch))
                if item.timeout_ns is not None:
                    self._schedule(
                        self.now + item.timeout_ns,
                        self._wakeup(task, _WAKE_TIMEOUT),
                    )
        elif kind == 3:
            child = self.spawn(item.gen, item.name)
            self._schedule(self.now, (self._step, (task, child, None)))
        else:
            exc = SimulationError(
                "task %s yielded a non-effect: %r" % (task.name, item)
            )
            self._schedule(self.now, (self._step, (task, None, exc)))

    def _finish(self, task: Task, result: Any, failure) -> None:
        task.done = True
        task.result = result
        task.failure = failure
        self._live_tasks -= 1
        self.fire(task.done_event, result)
        if failure is not None and self.trace_sink is not None:
            self.trace_sink.emit(TraceEvent(
                self.now, "instant", "sim", "task-failed",
                attrs={"task": task.name, "failure": repr(failure)},
            ))

    def _wakeup(self, task: Task, kind: int) -> _Wakeup:
        pool = self._wakeup_pool
        if pool:
            record = pool.pop()
            record.task = task
            record.epoch = task._wait_epoch
            record.kind = kind
            return record
        return _Wakeup(task, task._wait_epoch, kind)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of scheduled queue entries not yet executed."""
        return self._pending

    @property
    def live_tasks(self) -> int:
        """Number of tasks that have been spawned and not yet finished."""
        return self._live_tasks

    @property
    def steps(self) -> int:
        """Total number of queue callbacks executed so far."""
        return self._steps
