"""Process, thread, identity and scheduling system calls."""

from __future__ import annotations

import struct

from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.exits import ProcessExitRequest, ThreadExitRequest
from repro.kernel.syscalls import syscall
from repro.kernel.waitq import wait_interruptible
from repro.sim import Event

#: Total RAM that sysinfo reports (64 GiB); half of it reads as free.
MEMORY_BYTES = 64 << 30


@syscall("getpid")
def sys_getpid(kernel, thread):
    return thread.process.pid


@syscall("gettid")
def sys_gettid(kernel, thread):
    return thread.tid


@syscall("getppid")
def sys_getppid(kernel, thread):
    return thread.process.ppid


@syscall("getpgrp")
def sys_getpgrp(kernel, thread):
    return thread.process.pgid


@syscall("getuid")
def sys_getuid(kernel, thread):
    return thread.process.uid


@syscall("geteuid")
def sys_geteuid(kernel, thread):
    return thread.process.euid


@syscall("getgid")
def sys_getgid(kernel, thread):
    return thread.process.gid


@syscall("getegid")
def sys_getegid(kernel, thread):
    return thread.process.egid


@syscall("getpriority")
def sys_getpriority(kernel, thread, which=0, who=0):
    return 20  # nice 0, Linux getpriority bias


@syscall("capget")
def sys_capget(kernel, thread, hdr=0, data=0):
    return 0


@syscall("getcwd")
def sys_getcwd(kernel, thread, buf, size):
    cwd = thread.process.cwd.encode() + b"\x00"
    if size < len(cwd):
        return -E.ERANGE
    thread.process.space.write(buf, cwd)
    return len(cwd)


@syscall("sched_yield")
def sys_sched_yield(kernel, thread):
    return 0


@syscall("uname")
def sys_uname(kernel, thread, buf):
    out = bytearray()
    for key in ("sysname", "nodename", "release", "version", "machine"):
        field = C.UTSNAME[key].encode()[:64]
        out += field + b"\x00" * (65 - len(field))
    out += b"\x00" * 65  # domainname
    thread.process.space.write(buf, bytes(out))
    return 0


@syscall("sysinfo")
def sys_sysinfo(kernel, thread, buf):
    uptime_s = kernel.sim.now // 1_000_000_000
    data = struct.pack(
        "<qQQQQQQQ",
        uptime_s,
        0,  # loads[0]
        0,
        0,
        MEMORY_BYTES,
        MEMORY_BYTES // 2,
        0,
        0,
    )
    thread.process.space.write(buf, data)
    return 0


@syscall("times")
def sys_times(kernel, thread, buf):
    process = thread.process
    ticks = 100  # CLK_TCK
    utime = process.utime_ns * ticks // 1_000_000_000
    stime = process.stime_ns * ticks // 1_000_000_000
    if buf:
        thread.process.space.write(buf, struct.pack("<qqqq", utime, stime, 0, 0))
    return kernel.sim.now * ticks // 1_000_000_000


@syscall("getrusage")
def sys_getrusage(kernel, thread, who, buf):
    process = thread.process
    out = bytearray(144)
    struct.pack_into("<qq", out, 0, process.utime_ns // 1_000_000_000,
                     (process.utime_ns % 1_000_000_000) // 1000)
    struct.pack_into("<qq", out, 16, process.stime_ns // 1_000_000_000,
                     (process.stime_ns % 1_000_000_000) // 1000)
    thread.process.space.write(buf, bytes(out))
    return 0


@syscall("prctl")
def sys_prctl(kernel, thread, option=0, arg2=0, arg3=0, arg4=0, arg5=0):
    return 0


@syscall("set_tid_address")
def sys_set_tid_address(kernel, thread, addr=0):
    return thread.tid


@syscall("getrandom")
def sys_getrandom(kernel, thread, buf, count, flags=0):
    data = kernel.random_bytes(count)
    thread.process.space.write(buf, data)
    return count


@syscall("clone")
def sys_clone(kernel, thread, flags, entry=None, arg=None):
    if not flags & C.CLONE_THREAD:
        return -E.ENOSYS  # fork() is out of scope; see DESIGN.md
    if kernel.thread_spawner is None:
        return -E.ENOSYS
    child = kernel.thread_spawner(thread.process, entry, arg)
    return child.tid


@syscall("exit")
def sys_exit(kernel, thread, code=0):
    raise ThreadExitRequest(code)


@syscall("exit_group")
def sys_exit_group(kernel, thread, code=0):
    raise ProcessExitRequest(code)


@syscall("pause")
def sys_pause(kernel, thread):
    never = Event("pause")
    status, _ = yield from wait_interruptible(thread, never)
    if status == "interrupted":
        return -E.EINTR
    return -E.EINTR
