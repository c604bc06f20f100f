"""Profile a named sweep and print its hot spots.

Perf PRs should start from data, not guesses. This helper runs one of
the repo's representative sweeps under cProfile and prints the top-20
functions by cumulative time::

    python -m repro.bench.profile storm       # engine microbench
    python -m repro.bench.profile remon       # single-node ReMon sweep
    python -m repro.bench.profile dist        # distributed lanes
    python -m repro.bench.profile sweep64     # 64-node x 32-thread run
    python -m repro.bench.profile parsec-setup  # calibration + 12 PARSEC fits
    python -m repro.bench.profile storm --top 40 --sort tottime

(The PR-8 engine refactor was scoped from exactly this view: ``_step``,
the ``_wake``/``_wake_cpu`` closures, ``_dispatch`` and heap churn led
the cumulative profile of the ``remon`` sweep.)
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from typing import Callable, Dict


def _run_storm() -> None:
    from repro.bench.engine import STORM_ROUNDS, STORM_WAITERS, _storm_program
    from repro.sim import Simulator

    sim = Simulator()
    _storm_program(sim, STORM_WAITERS, STORM_ROUNDS)
    sim.run()


def _run_remon() -> None:
    from repro.core import Level, ReMon, ReMonConfig
    from repro.kernel import Kernel
    from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

    workload = SyntheticWorkload(
        name="profile-remon",
        native_ms=2.0,
        mix=CategoryMix(
            {
                "base": 90_000.0,
                "file_ro": 120_000.0,
                "sock_ro": 30_000.0,
                "sock_rw": 30_000.0,
                "mgmt": 15_000.0,
            }
        ),
        threads=3,
    )
    mvee = ReMon(
        Kernel(),
        build_program(workload),
        ReMonConfig(replicas=3, level=Level.SOCKET_RW),
    )
    result = mvee.run(max_steps=400_000_000)
    assert not result.diverged, result.divergence


def _run_dist() -> None:
    from repro.core import Level, ReMonConfig
    from repro.dist import DistConfig, DistMvee
    from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

    workload = SyntheticWorkload(
        name="profile-dist",
        native_ms=1.5,
        mix=CategoryMix(
            {
                "base": 120_000.0,
                "file_ro": 90_000.0,
                "sock_ro": 20_000.0,
                "sock_rw": 20_000.0,
                "mgmt": 30_000.0,
            }
        ),
        threads=3,
    )
    config = ReMonConfig(
        replicas=4,
        level=Level.NO_IPMON,
        dist=DistConfig(link_latency_ns=100_000),
    )
    result = DistMvee(build_program(workload), config).run(max_steps=400_000_000)
    assert not result.diverged, result.divergence


def _run_sweep64() -> None:
    from repro.bench.engine import run_sweep_64x32

    run_sweep_64x32()


def _run_parsec_setup() -> None:
    from repro.workloads.calibrate import calibrate
    from repro.workloads.profiles import PARSEC_BENCHMARKS, derive_workload

    cal = calibrate()
    for bench in PARSEC_BENCHMARKS:
        derive_workload(bench, cal)


SWEEPS: Dict[str, Callable[[], None]] = {
    "storm": _run_storm,
    "remon": _run_remon,
    "dist": _run_dist,
    "sweep64": _run_sweep64,
    "parsec-setup": _run_parsec_setup,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.profile",
        description="Run a named sweep under cProfile and print hot spots.",
    )
    parser.add_argument("sweep", choices=sorted(SWEEPS), help="which sweep to profile")
    parser.add_argument("--top", type=int, default=20,
                        help="number of rows to print (default 20)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--out", default=None,
                        help="also dump raw pstats data to this file")
    args = parser.parse_args(argv)

    profiler = cProfile.Profile()
    profiler.enable()
    SWEEPS[args.sweep]()
    profiler.disable()

    if args.out:
        profiler.dump_stats(args.out)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
