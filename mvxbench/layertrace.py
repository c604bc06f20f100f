"""Per-layer host-time tracing, applied to the simulator from outside.

The tracer wraps the public functions and methods of each ``repro``
layer module (the table in README.md) while one traced pass runs, and
restores the originals afterwards. Nothing inside ``src/`` knows about
it. Every call into a layer is one span; a generator is timed per
resume, because the simulator drives guest, kernel and monitor code as
coroutines and a generator's life spans many unrelated resumes.

A layer's self time is its span time minus the time of the spans
nested inside it. Time with no span open is ``other``: the benchmark's
own code and world construction. Spans are kept in memory (up to
``SPAN_CAP`` of them) and written out after the pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from array import array
from enum import Enum
from typing import Dict, List, Optional

#: Module prefix -> layer name; the longest matching prefix wins.
LAYER_MODULES = {
    "repro.sim": "sim",
    "repro.kernel": "kernel",
    "repro.kernel.memory": "kernel.memory",
    "repro.guest": "guest",
    "repro.core.ikb": "core.ikb",
    "repro.core.ipmon": "core.ipmon",
    "repro.core.rb": "core.rb",
    "repro.core.ghumvee": "core.ghumvee",
    "repro.ptrace": "ptrace",
    "repro.core.comparator": "core.comparator",
    "repro.core.canonical": "core.canonical",
    "repro.core.digests": "core.digests",
    "repro.dist.cluster": "dist.cluster",
    "repro.dist.shard": "dist.shard",
    "repro.dist.node": "dist.node",
    "repro.dist.transport": "dist.transport",
    "repro.dist.wire": "dist.wire",
    "repro.dist.codec": "dist.codec",
    "repro.fleet": "fleet",
    "repro.workloads": "workloads",
    "repro.obs": "obs",
}

LAYERS = sorted(set(LAYER_MODULES.values()))

#: Spans kept for the span file; self times cover every span regardless.
SPAN_CAP = 200_000


def layer_of_module(modname: Optional[str]) -> Optional[str]:
    best = None
    for prefix, layer in LAYER_MODULES.items():
        if modname == prefix or (modname or "").startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


def _module_of_callable(fn) -> Optional[str]:
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__module__", None)


class LayerTracer:
    """Installs span wrappers into the layer modules; a context manager.

    ``self_s[layer]`` and ``entries[layer]`` accumulate per layer;
    ``calls["module.Qualname"]`` counts calls per wrapped function, and
    ``probes`` holds the sums the special hooks take (region bytes).
    """

    def __init__(self):
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self.self_s = [0.0] * len(LAYERS)
        self.entries = [0] * len(LAYERS)
        self.calls: Dict[str, int] = {}
        self.probes: Dict[str, float] = {}
        self.covered_s = 0.0
        self.unbalanced = 0
        self._stack: List[list] = []
        self._cover_t0 = 0.0
        self._next_id = 0
        self._span_id = array("i")
        self._span_layer = array("i")
        self._span_parent = array("i")
        self._span_t = array("d")
        self._restore: List[tuple] = []
        self._wrapped: Dict[int, tuple] = {}
        self._t0 = 0.0

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    def _enter(self, layer: int) -> None:
        stack = self._stack
        now = time.perf_counter()
        if not stack:
            self._cover_t0 = now
        parent = stack[-1][3] if stack else -1
        span_id = self._next_id
        self._next_id += 1
        stack.append([layer, now, 0.0, span_id, parent])

    def _leave(self) -> None:
        stack = self._stack
        layer, t0, child, span_id, parent = stack.pop()
        now = time.perf_counter()
        duration = now - t0
        self.self_s[layer] += duration - child
        if stack:
            stack[-1][2] += duration
        else:
            self.covered_s += now - self._cover_t0
        if span_id < SPAN_CAP:
            self._span_id.append(span_id)
            self._span_layer.append(layer)
            self._span_parent.append(parent)
            self._span_t.append(t0 - self._t0)
            self._span_t.append(now - self._t0)

    def _traced_gen(self, layer: int, gen):
        """Delegate to ``gen`` like ``yield from``, one span per resume."""
        enter = self._enter
        leave = self._leave
        value = None
        exc = None
        while True:
            enter(layer)
            try:
                if exc is None:
                    item = gen.send(value)
                else:
                    pending, exc = exc, None
                    item = gen.throw(pending)
            except StopIteration as stop:
                return stop.value
            finally:
                leave()
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as error:  # noqa: BLE001 - forwarded into gen
                exc = error
                value = None

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _count(self, key: str) -> None:
        self.calls[key] = self.calls.get(key, 0) + 1

    def wrap_function(self, fn, layer_name: str, key: str):
        layer = self.index[layer_name]
        tracer = self
        entries = self.entries

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                entries[layer] += 1
                tracer._count(key)
                return (yield from tracer._traced_gen(layer, fn(*args, **kwargs)))

            gen_wrapper._mvx_traced = True
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entries[layer] += 1
            tracer._count(key)
            tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave()
            if type(result) is types.GeneratorType:
                return tracer._traced_gen(layer, result)
            return result

        wrapper._mvx_traced = True
        return wrapper

    def wrap_callable(self, fn):
        """Wrap a callable handed across a layer boundary (a task body,
        a scheduled callback) by the layer that defines it."""
        layer = layer_of_module(_module_of_callable(fn))
        if layer is None or getattr(getattr(fn, "__func__", fn), "_mvx_traced", False):
            return fn
        key = "%s.%s" % (_module_of_callable(fn), getattr(fn, "__qualname__", "?"))
        return self.wrap_function(fn, layer, key)

    def wrap_generator(self, gen):
        """Wrap a ready generator (a task spawned into the simulator)."""
        frame = getattr(gen, "gi_frame", None)
        modname = frame.f_globals.get("__name__") if frame is not None else None
        layer = layer_of_module(modname)
        if layer is None:
            return gen
        self.entries[self.index[layer]] += 1
        return self._traced_gen(self.index[layer], gen)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = "%s.%s.%s" % (cls.__module__, cls.__qualname__, name)
            if isinstance(member, types.FunctionType):
                self._set(cls, name, self.wrap_function(member, layer, key))
            elif isinstance(member, staticmethod):
                self._set(cls, name, staticmethod(
                    self.wrap_function(member.__func__, layer, key)))
            elif isinstance(member, classmethod):
                self._set(cls, name, classmethod(
                    self.wrap_function(member.__func__, layer, key)))

    def install(self) -> "LayerTracer":
        for prefix in LAYER_MODULES:
            importlib.import_module(prefix)
        modules = [(n, m) for n, m in list(sys.modules.items())
                   if n.startswith("repro.") and m is not None]
        for modname, module in modules:
            layer = layer_of_module(modname)
            if layer is None:
                continue
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != modname:
                    continue
                if isinstance(value, types.FunctionType):
                    wrapper = self.wrap_function(value, layer, "%s.%s" % (modname, name))
                    self._wrapped[id(value)] = (value, wrapper)
                    self._set(module, name, wrapper)
                elif isinstance(value, type) and not issubclass(value, (BaseException, Enum)):
                    self._wrap_class(value, layer)
        # Names imported elsewhere with ``from module import fn``.
        for modname, module in modules:
            for name, value in list(vars(module).items()):
                hit = self._wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, name, hit[1])
        self._install_boundary_hooks()
        self._t0 = time.perf_counter()
        return self

    def _install_boundary_hooks(self) -> None:
        """Callables that cross into another layer as arguments: task
        bodies, scheduled callbacks, guest thread entries and program
        mains run under the layer that defines them."""
        from repro.guest.program import Program
        from repro.guest.runtime import GuestRuntime
        from repro.kernel.memory import SharedRegion
        from repro.sim.simulator import Simulator

        tracer = self
        spawn = Simulator.spawn
        call_at = Simulator.call_at
        call_soon = Simulator.call_soon
        spawn_thread = GuestRuntime.spawn_guest_thread
        program_init = Program.__init__
        region_init = SharedRegion.__init__

        def traced_spawn(sim, gen, *args, **kwargs):
            return spawn(sim, tracer.wrap_generator(gen), *args, **kwargs)

        def traced_call_at(sim, when, fn, *args):
            return call_at(sim, when, tracer.wrap_callable(fn), *args)

        def traced_call_soon(sim, fn, *args):
            return call_soon(sim, tracer.wrap_callable(fn), *args)

        def traced_spawn_thread(runtime, entry, arg=None):
            return spawn_thread(runtime, tracer.wrap_callable(entry), arg)

        def traced_program_init(program, name, main, *args, **kwargs):
            program_init(program, name, tracer.wrap_callable(main), *args, **kwargs)

        def counted_region_init(region, length, *args, **kwargs):
            region_init(region, length, *args, **kwargs)
            tracer._probe("kernel.memory.regions", 1)
            tracer._probe("kernel.memory.region_bytes", length)

        self._set(Simulator, "spawn", traced_spawn)
        self._set(Simulator, "call_at", traced_call_at)
        self._set(Simulator, "call_soon", traced_call_soon)
        self._set(GuestRuntime, "spawn_guest_thread", traced_spawn_thread)
        self._set(Program, "__init__", traced_program_init)
        self._set(SharedRegion, "__init__", counted_region_init)

    def _probe(self, name: str, amount) -> None:
        self.probes[name] = self.probes.get(name, 0) + amount

    def uninstall(self) -> None:
        self.unbalanced = len(self._stack)
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self._wrapped.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        return {name: self.self_s[i] for name, i in self.index.items()}

    def layer_entries(self) -> Dict[str, int]:
        return {name: self.entries[i] for name, i in self.index.items()}

    def calls_matching(self, *suffixes: str) -> int:
        return sum(n for key, n in self.calls.items() if key.endswith(suffixes))

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines: span id, layer index,
        start and end in seconds from installation, and the id of the
        enclosing span (-1 at top level)."""
        count = len(self._span_layer)
        with open(path, "w") as fh:
            fh.write(json.dumps({"layers": LAYERS, "spans": count,
                                 "cap": SPAN_CAP}) + "\n")
            for i in range(count):
                fh.write("[%d,%d,%.9f,%.9f,%d]\n" % (
                    self._span_id[i], self._span_layer[i], self._span_t[2 * i],
                    self._span_t[2 * i + 1], self._span_parent[i]))
        return count
