"""repro.obs — observability for the MVEE reproduction (DESIGN.md §9).

Three instruments behind one hub:

* :class:`MetricsRegistry` — counters, mergeable fixed-bucket
  histograms on virtual nanoseconds, plus a compatibility adapter that
  serves the legacy ``RunResult.stats`` mapping from ingested component
  stats dicts.
* :class:`Tracer` — structured span/instant tracing on ``Simulator``
  virtual time, zero-cost when disabled.
* :class:`FlightRecorder` — bounded per-replica rings of recent
  syscall/rendezvous events, dumped as a :class:`Postmortem` on
  divergence or quarantine.

Prometheus exports round-trip: ``python -m repro.obs.diff`` parses two
``write_prometheus`` files back into mergeable snapshots and reports
which choke-point histogram moved between the runs.
"""

from repro.obs.config import ObsConfig
from repro.obs.export import (
    write_postmortem,
    write_prometheus,
    write_trace_jsonl,
)
from repro.obs.hub import Obs
from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorder import FlightRecorder, Postmortem
from repro.obs.tracing import Span, Tracer

#: repro.obs.diff exports, resolved lazily so ``python -m repro.obs.diff``
#: does not import the module twice (once via the package, once as
#: ``__main__``) and trip runpy's double-import warning.
_DIFF_EXPORTS = ("MetricsDiffError", "ParsedHistogram", "Snapshot", "diff_report")


def __getattr__(name):
    if name in _DIFF_EXPORTS:
        from repro.obs import diff

        return getattr(diff, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "Counter",
    "DEFAULT_BOUNDS",
    "FlightRecorder",
    "Histogram",
    "MetricsDiffError",
    "MetricsRegistry",
    "Obs",
    "ObsConfig",
    "ParsedHistogram",
    "Postmortem",
    "Snapshot",
    "Span",
    "Tracer",
    "diff_report",
    "write_postmortem",
    "write_prometheus",
    "write_trace_jsonl",
]
