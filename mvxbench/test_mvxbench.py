"""The benchmark's own tests, at toy sizes (``--tiny``).

Run from the root of the repository::

    python3 -m pytest mvxbench -q

They check that every workload prints exactly the metrics BENCHMARK.json
declares, each with its unit, and that planted faults are counted as
failed operations instead of aborting the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worlds  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(worlds.WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(workload, trace, section):
    text, result = _cli(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                   for line in text), name
    assert any(line.startswith("failed_frac ") for line in text)


def test_declared_names_match_the_workloads():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(worlds.WORKLOADS)
    assert DECLARED["command"] == ["python3", "mvxbench/run.py"]


def _run_in_process(workload: str):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", "0", "--tiny"]) == 0
    lines = buf.getvalue().strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _failed_frac(text):
    line = next(line for line in text if line.startswith("failed_frac "))
    return float(line.split()[1])


def test_wrong_reply_size_counts_every_reply_as_failed(monkeypatch):
    class WrongReply(worlds.FleetRedis):
        def setup(self):
            super().setup()
            self.expected_reply += 1

    monkeypatch.setitem(worlds.WORKLOADS, "fleet-redis", WrongReply)
    text, result = _run_in_process("fleet-redis")
    wl = WrongReply(5, tiny=True)
    passes = 1 + run.MIN_PASSES
    # Three fleet rates plus the native reference, every reply wrong.
    per_pass = 4 * wl.connections * wl.requests_per_conn
    assert result["correct"] is False
    assert result["failed"] == passes * per_pass
    assert _failed_frac(text) > 0
    assert any("bytes for" in line for line in text)


def test_a_raising_simulation_is_counted_and_the_pass_goes_on(monkeypatch):
    from repro.dist import DistMvee

    def broken_finalize(self):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(DistMvee, "finalize", broken_finalize)
    text, result = _run_in_process("dist-scale")
    nodes = worlds.DistScale(5, tiny=True).nodes
    passes = 1 + run.MIN_PASSES
    assert result["correct"] is False
    # The cluster run fails (one run + one exit per node); the native
    # run in the same pass still counts as attempted and passes.
    assert result["failed"] == passes * (1 + nodes)
    assert result["attempted"] > result["failed"]
    assert _failed_frac(text) > 0
    assert any("planted fault" in line for line in text)


def test_exact_percentiles_use_every_sample():
    samples = list(range(1, 201))
    assert worlds.percentile(samples, 50) == 100
    assert worlds.percentile(samples, 99) == 198
    assert worlds.percentile([], 99) == 0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    (tmp_path / "mvxbench").mkdir()
    for name in ("run.py", "worlds.py", "layertrace.py"):
        (tmp_path / "mvxbench" / name).write_text((HERE / name).read_text())
    out = subprocess.run(
        [sys.executable, "mvxbench/run.py", "--workload", "dist-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
