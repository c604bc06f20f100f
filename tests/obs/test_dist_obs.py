"""Obs threading through the distributed MVEE: stats compatibility,
wait histograms, transport span events, and the dist postmortem."""

from repro.core import Level, ReMonConfig
from repro.dist import DistConfig, DistMvee
from repro.guest.program import Program
from repro.kernel import constants as C
from repro.obs import ObsConfig

MAX_STEPS = 80_000_000


def mixed_program(exit_code=5):
    def main(ctx):
        libc = ctx.libc
        for _ in range(10):
            _pid = yield ctx.sys.getpid()
            _now = yield from libc.clock_gettime()
        fd = yield from libc.open("/data/input.txt", C.O_RDONLY)
        _ret, _data = yield from libc.read(fd, 64)
        yield from libc.close(fd)
        return exit_code

    return Program("mixed", main, files={"/data/input.txt": b"same bytes"})


def run_dist(program, obs=None, replicas=3, **dist_kwargs):
    config = ReMonConfig(
        replicas=replicas,
        level=Level.NONSOCKET_RW,
        obs=obs,
        dist=DistConfig(**dist_kwargs),
    )
    mvee = DistMvee(program, config)
    result = mvee.run(max_steps=MAX_STEPS)
    return mvee, result


class TestStatsCompatibility:
    def test_stats_and_wall_time_unchanged_by_metrics_only_obs(self):
        _, base = run_dist(mixed_program())
        _, metrics = run_dist(mixed_program(), obs=ObsConfig())
        assert not base.diverged and not metrics.diverged
        assert metrics.stats == base.stats
        assert metrics.wall_time_ns == base.wall_time_ns

    def test_stats_keys_unchanged_by_full_obs(self):
        _, base = run_dist(mixed_program())
        _, traced = run_dist(
            mixed_program(),
            obs=ObsConfig(spans=True, flight_recorder=True),
        )
        assert not traced.diverged, traced.divergence
        assert set(traced.stats) == set(base.stats)

    def test_remon_obs_config_drives_dist_tracing(self):
        mvee, result = run_dist(mixed_program(), obs=ObsConfig(spans=True))
        assert not result.diverged
        assert mvee.obs.tracer.enabled
        assert mvee.obs.tracer.events


class TestDistInstrumentation:
    def test_wait_histograms_populate_without_spans(self):
        mvee, result = run_dist(mixed_program(), obs=ObsConfig())
        assert not result.diverged
        hists = mvee.obs.registry.histograms
        assert hists["dist_rendezvous_wait_ns"].count > 0
        assert hists["dist_monitor_wait_ns"].count > 0
        hist = hists["dist_rendezvous_wait_ns"]
        assert hist.percentile(50) <= hist.percentile(99)

    def test_spans_cover_dist_and_transport_choke_points(self):
        mvee, result = run_dist(
            mixed_program(), obs=ObsConfig(spans=True), compress="rle"
        )
        assert not result.diverged
        events = mvee.obs.tracer.events
        components = {event.component for event in events}
        assert {"kernel", "dist", "transport"} <= components
        flushes = [e for e in events
                   if e.component == "transport" and e.name == "flush"]
        assert flushes and all(e.attrs["nbytes"] > 0 for e in flushes)
        rendezvous = [e for e in events
                      if e.component == "dist" and e.name == "rendezvous"]
        assert rendezvous
        assert all(e.attrs["verdict"] is not None for e in rendezvous)


class TestDistPostmortem:
    def test_divergent_node_yields_postmortem_with_tails(self):
        def main(ctx):
            path = ("/data/a" if ctx.process.replica_index == 0
                    else "/data/b")
            _fd = yield from ctx.libc.open(path)
            return 0

        program = Program(
            "dist-diverge", main,
            files={"/data/a": b"x", "/data/b": b"y"},
        )
        mvee, result = run_dist(
            program, replicas=2,
            obs=ObsConfig(flight_recorder=True, ring_size=16),
        )
        assert result.diverged
        postmortem = result.postmortem
        assert postmortem is not None
        assert postmortem.reason == "divergence"
        assert postmortem.syscall == "open"
        assert postmortem.detected_by.startswith("dist-")
        assert postmortem.tails
        assert "shard_owners" in postmortem.attribution
        assert "rounds_by_owner" in postmortem.backoff
