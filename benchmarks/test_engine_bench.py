"""Event-engine throughput benches (repro.sim; PR-8 refactor).

Two rows land in ``BENCH_engine.json`` at the repo root:

* the storm microbench — identical rendezvous-storm program run on the
  pre-refactor legacy-heap engine (kept in ``repro.bench.engine``) and
  on the calendar-queue engine, scored in task resumptions per host
  second. The refactor's acceptance bar, asserted here: >= 2x.
* the 64-node x 32-thread DistMvee sweep, reported in host seconds —
  the credibility-scale configuration that motivated the refactor; it
  must finish inside the CI smoke budget, and its fresh child process
  must peak under 100 MiB RSS.
"""

import json
import os

from repro.bench import engine
from repro.bench.reporting import Table

_BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_engine.json")


def _record(section, payload):
    """Merge one section into BENCH_engine.json (partial runs keep
    earlier sections)."""
    data = {}
    try:
        with open(_BENCH_JSON) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        pass
    data[section] = payload
    data["smoke"] = engine.smoke()
    with open(_BENCH_JSON, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_storm_microbench_2x(report):
    rows = engine.storm_rows()
    _record("storm", rows)
    table = Table(
        "rendezvous storm (%d waiters x %d rounds): engine throughput"
        % (engine.STORM_WAITERS, engine.STORM_ROUNDS),
        ["engine", "resumptions", "host s", "events/sec", "speedup"],
    )
    for row in rows:
        table.add(
            row["engine"], row["resumptions"], "%.4f" % row["host_seconds"],
            "%.0f" % row["events_per_sec"],
            "%.2fx" % row.get("speedup_vs_legacy", 1.0),
        )
    report(table.render())

    legacy, current = rows
    # Both engines executed the identical virtual program.
    assert current["final_now"] == legacy["final_now"]
    assert current["resumptions"] == legacy["resumptions"]
    # The refactor's acceptance bar.
    assert current["speedup_vs_legacy"] >= 2.0, rows


def test_sweep_64_nodes_32_threads(report):
    row = engine.sweep_64x32()
    _record("sweep_64x32", row)
    table = Table(
        "DistMvee 64 nodes x 32 threads",
        ["nodes", "threads", "host s", "virtual ms", "sim steps", "peak MiB"],
    )
    table.add(row["nodes"], row["threads"], "%.2f" % row["host_seconds"],
              "%.2f" % row["virtual_ms"], row["sim_steps"],
              "%.1f" % row["peak_rss_mb"])
    report(table.render())

    # "Completes in the CI smoke budget": generous ceiling so a loaded
    # runner passes, but an engine regression to pre-refactor speed (or
    # worse) on this 2048-lane configuration still fails loudly.
    budget_s = 120 if engine.smoke() else 600
    assert row["host_seconds"] < budget_s, row
    # Guest memory is committed lazily: 2,048 mostly untouched 1 MiB
    # malloc arenas must not cost 2 GiB of host memory.
    assert row["peak_rss_mb"] < 100, row
