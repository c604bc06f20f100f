"""The tracing API used by cross-process monitors.

This mirrors the parts of Linux ptrace that MVEE monitors live on:

* **syscall stops** — a traced thread stops at syscall entry and exit;
  the tracer inspects/rewrites arguments and results, may *skip* the
  call entirely (GHUMVEE does this for slave replicas' I/O calls), and
  resumes the thread;
* **peek/poke** — reading and writing tracee memory (the simulated
  equivalent of ``process_vm_readv`` / ``PTRACE_POKEDATA``);
* **signal interception** — asynchronous signals destined for a tracee
  are reported to the tracer instead of being delivered, so the monitor
  can defer them to a synchronization point (paper §2.2);
* **exit notifications**.

Timing: a stop parks the tracee until the tracer fires its resume event,
so every monitor decision naturally costs the tracee the monitor's
processing time — the context-switch overheads the paper's evaluation
revolves around are charged by the monitor via its cost model.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import MonitorError
from repro.sim import Event, WaitEvent


class Stop:
    """One ptrace stop reported to the tracer."""

    __slots__ = ("kind", "thread", "req", "result", "final_result", "signo", "sender_pid")

    def __init__(self, kind: str, thread, req=None, result=None, signo=0, sender_pid=0):
        self.kind = kind  # "syscall-entry" | "syscall-exit" | "signal" | "exit"
        self.thread = thread
        self.req = req
        self.result = result
        self.final_result = result
        self.signo = signo
        self.sender_pid = sender_pid

    def __repr__(self):
        detail = self.req.name if self.req is not None else self.signo
        return "Stop(%s, %s, %r)" % (self.kind, self.thread.name, detail)


class Tracer:
    """A monitor's handle on a set of traced processes.

    The monitor installs ``stop_handler``, a plain callable invoked
    synchronously whenever a tracee stops. Handlers typically record
    state and either resume immediately or leave the tracee parked and
    resume it later from a monitor coroutine (charging monitor time).
    """

    def __init__(self, kernel, name: str = "tracer"):
        self.kernel = kernel
        self.name = name
        self.stop_handler: Optional[Callable[[Stop], None]] = None
        self.signal_handler: Optional[Callable[[Stop], None]] = None
        self.exit_handler: Optional[Callable[[Stop], None]] = None
        self.traced_processes = []
        self.stops_delivered = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, process) -> None:
        """PTRACE_ATTACH (plus TRACESYSGOOD): trace every current and
        future thread of ``process``."""
        process.tracer = self
        self.traced_processes.append(process)
        for thread in process.threads.values():
            thread.tracer = self

    def detach(self, process) -> None:
        process.tracer = None
        if process in self.traced_processes:
            self.traced_processes.remove(process)
        for thread in process.threads.values():
            thread.tracer = None

    # ------------------------------------------------------------------
    # Kernel-facing interface (duck-typed from repro.kernel.kernel)
    # ------------------------------------------------------------------
    def traces_syscalls(self, thread) -> bool:
        return True

    def intercepts_signal(self, thread, signo: int) -> bool:
        return True

    def report_syscall_entry(self, thread, req):
        stop = Stop("syscall-entry", thread, req=req)
        yield from self._deliver_and_park(stop)
        return None

    def report_syscall_exit(self, thread, req, result):
        stop = Stop("syscall-exit", thread, req=req, result=result)
        yield from self._deliver_and_park(stop)
        return stop.final_result

    def report_signal(self, thread, signo: int, sender_pid: int = 0) -> None:
        """A signal for a tracee was intercepted (tracer decides its fate)."""
        stop = Stop("signal", thread, signo=signo, sender_pid=sender_pid)
        self.stops_delivered += 1
        if self.signal_handler is not None:
            self.signal_handler(stop)
        # Without a handler the signal is dropped, mirroring a tracer
        # that never re-injects.

    def report_fatal_signal(self, thread, signo: int) -> None:
        stop = Stop("exit", thread, signo=signo)
        if self.exit_handler is not None:
            self.exit_handler(stop)

    def report_thread_gone(self, thread, code: int, signo: int) -> None:
        stop = Stop("exit", thread, result=code, signo=signo)
        if self.exit_handler is not None:
            self.exit_handler(stop)

    # ------------------------------------------------------------------
    # Tracer-side controls
    # ------------------------------------------------------------------
    def resume(self, thread, final_result=None) -> None:
        """PTRACE_SYSCALL: let a parked tracee continue. For a syscall-
        exit stop, ``final_result`` (if not None) replaces the result the
        tracee will observe."""
        event = thread.ptrace_resume_event
        if event is None:
            raise MonitorError("resume of a thread that is not stopped: %s" % thread.name)
        stop = thread.ptrace_current_stop
        if final_result is not None and stop is not None:
            stop.final_result = final_result
        thread.ptrace_resume_event = None
        thread.ptrace_current_stop = None
        self.kernel.sim.fire(event)

    def skip_call(self, thread, forced_result: int) -> None:
        """At a syscall-entry stop: do not run the call; make the tracee
        observe ``forced_result`` instead. This is how a CP monitor
        aborts slave I/O calls (the master-calls model, paper §2.1)."""
        thread.ptrace_skip_call = True
        thread.ptrace_forced_result = forced_result

    def rewrite_args(self, thread, req) -> None:
        """At a syscall-entry stop: replace the request the kernel runs."""
        thread.current_syscall = req

    def peek(self, process, addr: int, length: int) -> bytes:
        """Read tracee memory (process_vm_readv equivalent)."""
        return process.space.read(addr, length, check_prot=False)

    def poke(self, process, addr: int, data: bytes) -> None:
        """Write tracee memory (process_vm_writev equivalent)."""
        process.space.write(addr, data, check_prot=False)

    def inject_signal(self, thread, signo: int, sender_pid: int = 0) -> None:
        """Deliver a previously intercepted signal to the tracee now."""
        from repro.kernel.process import PendingSignal

        self.kernel.queue_signal(thread, PendingSignal(signo, sender_pid))

    def interrupt_call(self, thread) -> bool:
        """Abort a tracee's in-progress blocking operation (the monitor-
        initiated EINTR GHUMVEE uses in §3.8)."""
        return thread.interrupt(self.kernel.sim)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _deliver_and_park(self, stop: Stop):
        thread = stop.thread
        event = Event("resume:%s" % thread.name)
        thread.ptrace_stopped = True
        thread.ptrace_resume_event = event
        thread.ptrace_current_stop = stop
        self.stops_delivered += 1
        if self.stop_handler is None:
            raise MonitorError("tracer %s has no stop handler" % self.name)
        self.stop_handler(stop)
        yield WaitEvent(event)
        thread.ptrace_stopped = False
