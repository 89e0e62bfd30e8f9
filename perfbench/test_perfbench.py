"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from phases import phase_self_ms  # noqa: E402
from spans import Tracer  # noqa: E402

COUNTERS = ("mathcore.backward.calls", "mathcore.nodes_per_step", "mathcore.check_psd.calls",
            "losses.s2s.calls", "losses.aug.calls", "banks.blend_covariance.calls",
            "checkpoint.saves", "checkpoint.bytes", "data.dataset_bytes")
MICRO = [f"losses.{k}.fwd_bwd_ms.{p}" for k in ("dc", "z2s", "s2s", "s2z", "aug")
         for p in ("desk", "paper_s1")]


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans[:] = [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0], ["c", 6.0, 7.0, 0],
                       ["b", 3.0, 4.0, 1]]
    summary = tracer.summary()
    assert summary["a"] == [1, 6.0, 10.0]
    assert summary["b"] == [2, 3.0, 4.0]
    assert summary["c"] == [1, 1.0, 1.0]


def test_wrapped_calls_nest_under_their_caller():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda v: v + 1)
    outer = tracer.wrap("outer", lambda v: inner(v) * 2)
    assert outer(1) == 4 and inner(0) == 1
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", -1)]


def test_phase_split_assigns_spans_to_the_step_they_end_in():
    spans = [["meta.run", 0.0, 10.0, -1],
             ["losses.dc", 0.0, 1.0, 0], ["meta.outer_step", 1.0, 2.0, 0],
             ["losses.aug", 2.0, 5.0, 0], ["mathcore.check_psd", 3.0, 4.0, 3],
             ["meta.outer_step", 5.0, 6.0, 0], ["evaluation.evaluate", 7.0, 8.0, -1]]
    pre, aug = phase_self_ms(spans, first_aug=1)
    assert pre == {"losses.dc": 1e3, "meta.outer_step": 1e3}
    assert aug == {"losses.aug": 2e3, "mathcore.check_psd": 1e3, "meta.outer_step": 1e3}


def test_counters_repeat_exactly_across_two_traced_jobs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    jobs = []
    for _ in range(2):
        r = run.Run("desk_files", 5)
        jobs.append(r.spawn("job", trace=True))
        assert r.failures == [] and r.attempted > 0
    a, b = (j["layers"] for j in jobs)
    assert all(a[k] > 0 for k in COUNTERS)
    assert {k: a[k] for k in COUNTERS} == {k: b[k] for k in COUNTERS}
    assert jobs[0]["outputs"] == jobs[1]["outputs"]

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = {*a, *run.PHASE_METRICS, *MICRO, "trace.overhead_frac"}
    assert reported == {m["name"] for m in bench["per_layer"]}
    assert set(run.JOB_METRICS) == {m["name"] for m in bench["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "desk_files",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
