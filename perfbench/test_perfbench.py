"""Self-test of the benchmark: python -m pytest perfbench/test_perfbench.py

Runs every workload for one second in both modes and checks the result
line against BENCHMARK.json, then checks that the correctness gate trips
on a row forced to fail, on a CSV that contradicts its summary and on a
replay that does not reproduce its row, and that the traced replay's
wrappers come off again.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench("--workload", "paper-small", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


WORKLOAD = WORKLOADS["paper-small"]
SPACES = WORKLOAD.spaces(3)


def _small_chunk():
    worker.OUT_DIR.mkdir(exist_ok=True)
    cfg = worker.make_config(WORKLOAD, SPACES, 3, 0)
    return cfg, worker.run_chunk(cfg, 0)


def test_gate_passes_an_honest_chunk():
    failed, boundary, problems = worker.check_chunk(*_small_chunk())
    assert (failed, problems) == (0, [])


def test_gate_trips_on_a_row_forced_to_fail(monkeypatch):
    import bjlab.preserver
    from bjlab import CheckResult

    real = bjlab.preserver.is_approx_bj_orthogonal
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 7:
            return CheckResult(verdict=False, margin=-0.5, alpha_star=1.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(bjlab.preserver, "is_approx_bj_orthogonal", fail_once)
    failed, _, problems = worker.check_chunk(*_small_chunk())
    assert failed == 1
    assert any("predicted pass, got fail" in p for p in problems)


def test_gate_trips_when_the_csv_contradicts_its_summary():
    cfg, chunk = _small_chunk()
    lines = chunk.csv.split("\n")
    lines[3] = lines[3].replace(",true,", ",false,", 1)
    chunk.csv = "\n".join(lines)
    failed, _, problems = worker.check_chunk(cfg, chunk)
    assert failed >= 1 and problems


def test_replay_reports_a_row_it_does_not_reproduce():
    _, chunk = _small_chunk()
    lines = chunk.csv.split("\n")
    fields = lines[5].split(",")
    fields[8] = "0.123"  # direct_margin
    lines[5] = ",".join(fields)
    chunk.csv = "\n".join(lines)
    rec = Recorder()
    _, _, rows, mismatches = worker.replay(WORKLOAD, SPACES, 3, [chunk], rec)
    assert rows == chunk.rows
    assert len(mismatches) == 1 and "line 5" in mismatches[0]
    # harness.run wrote the replayed CSV itself, through the traced csv_text
    assert len(rec.durations["harness.csv_write"]) == 1


def test_recorder_restores_what_it_wraps():
    import bjlab.harness
    import bjlab.sip

    before = (bjlab.harness.RunReport.csv_text, bjlab.sip._norm_from_block_norms)
    rec = Recorder()
    rec.install()
    assert bjlab.harness.RunReport.csv_text is not before[0]
    assert bjlab.sip._norm_from_block_norms is not before[1]
    rec.uninstall()
    assert (bjlab.harness.RunReport.csv_text, bjlab.sip._norm_from_block_norms) == before
    assert rec.missing == []


def test_throughput_weighs_every_space_equally():
    chunks = [worker.Chunk(k, seconds=s, rows=100)
              for k, s in enumerate([9.0, 9.0, 1.0, 2.0, 1.0, 2.0])]
    # space 0: 100 rows/s (its first chunk left out); space 1: 50 rows/s
    assert worker.throughput(chunks, lambda c: c.seconds, 2) == pytest.approx(200 / 3)
