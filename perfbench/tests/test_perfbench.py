"""Tests of the benchmark itself, at reduced input size.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import worker
import workloads
from ndcsim.reproduce import ReproduceReport

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = {"witness": 0.5, "dense_two_site": 0.01, "simulate_long": 0.02}


def _bench(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", str(SCALE[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_emits_every_named_metric(workload, trace):
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witness", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- each correctness check rejects an injected wrong result ---------------


class FailingWitness(workloads.Witness):
    def op(self):
        return ReproduceReport(target="wasak", passed=False, lines=["injected"])


class ShiftedDense(workloads.DenseTwoSite):
    def op(self):
        received, meas = super().op()
        return received, dataclasses.replace(meas, offset_fs=meas.offset_fs + 10**9)


class CorruptedDense(workloads.DenseTwoSite):
    def op(self):
        received, meas = super().op()
        stream = received[1]
        tags = stream.tags.copy()
        tags[-1] += 1
        received[1] = dataclasses.replace(stream, tags=tags)
        return received, meas


class CorruptedSimulate(workloads.SimulateLong):
    def op(self):
        code = super().op()
        path = Path(f"{self.prefix}_a.tags")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01  # last payload byte: a tag off by 2**56 fs
        path.write_bytes(bytes(raw))
        return code


@pytest.mark.parametrize("good, bad", [
    (workloads.Witness, FailingWitness),
    (workloads.DenseTwoSite, ShiftedDense),
    (workloads.DenseTwoSite, CorruptedDense),
    (workloads.SimulateLong, CorruptedSimulate),
])
def test_check_rejects_wrong_result(tmp_path, good, bad):
    name = next(k for k, v in workloads.WORKLOADS.items() if issubclass(good, v))
    scale = SCALE[name]
    ok = worker.run_op(good(3, scale, tmp_path))
    assert ok["problems"] == []
    wrong = worker.run_op(bad(3, scale, tmp_path))
    assert wrong["problems"]

    values, _samples, ops = run.summarize(
        [{"warmup": ok, "timed": [wrong], "peak_rss_mb": 1.0, "setup_s": 1.0}], trace=False)
    assert len(ops) == 2
    assert values["success_ratio"] == 0.5


def test_simulate_check_rejects_exit_code(tmp_path):
    assert workloads.SimulateLong(3, 0.02, tmp_path).check(2)


def test_operation_that_raises_counts_as_failed():
    class Raising:
        def op(self):
            raise RuntimeError("injected")

    record = worker.run_op(Raising())
    assert "injected" in record["problems"][0]


# -- tracer -----------------------------------------------------------------


def test_self_time_and_per_thread_parents():
    tracer = tracing.Tracer()
    mark = tracer.mark()
    with tracer.span("pipeline.measure_peak"):
        with tracer.span("correlate.coarse_offset"):
            pass

        def collect():
            with tracer.span("tagio.collect"):
                pass

        other = threading.Thread(target=collect)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
    spans = {s[0]: s for s in tracer.spans}
    assert spans["correlate.coarse_offset"][3] == 0
    assert spans["tagio.collect"][3] is None  # opened on another thread
    m = tracer.layer_metrics(mark)
    outer = m["pipeline.measure_peak.s"]
    assert m["pipeline.measure_peak.self_s"] == pytest.approx(outer - m["correlate.coarse_offset.s"])


def test_install_restores_every_function():
    from ndcsim import correlate, pipeline, tagio

    before = (pipeline.measure_peak, correlate.window_diffs, tagio.Terminal.collect)
    tracer = tracing.install()
    assert pipeline.measure_peak is not before[0]
    a = np.arange(0, 10**6, 1000, dtype=np.int64)
    with tracer.span("correlate.fine_histogram"):
        n = sum(d.size for d in correlate.window_diffs(a, a, 0, 1500.0))
    tracer.uninstall()
    assert (pipeline.measure_peak, correlate.window_diffs, tagio.Terminal.collect) == before
    assert tracer.counts["correlate.window_diffs.fine.pairs"] == n == 3 * a.size - 2
