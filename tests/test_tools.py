"""``tools/preset_traces.py`` hashes one preset's CLI outputs,
``tools/trace_diff.py`` compares the losses of two traces, and
``tools/step_faults.py`` reports the cost of the training steps by phase."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tailshift.config import load_run_config

ROOT = Path(__file__).resolve().parent.parent


def _preset_traces(cwd, *args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "preset_traces.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_preset_traces_desk(tmp_path):
    proc = _preset_traces(tmp_path, "desk")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = ["dataset.csv", "dataset.npy", "embeddings.csv", "manifest.json", "steps.jsonl",
             "steps.jsonl[:t_sigma]", "checkpoint.json", "metrics.json", "ablation.csv"]
    assert [line.split("  ")[-1] for line in lines] == [f"desk/{n}" for n in names]
    assert all(re.fullmatch(r"[0-9a-f]{64}  desk/\S+", line) for line in lines)
    assert lines[4].split()[0] != lines[5].split()[0]

    # --expect: a run matches its own saved output, and one altered hash
    # (among lines of a preset that is not run) is the one line reported
    (tmp_path / "same.txt").write_text(proc.stdout + "0" * 64 + "  paper_s1/steps.jsonl\n")
    same = _preset_traces(tmp_path, "--expect", "same.txt", "desk")
    assert same.returncode == 0, same.stderr
    assert same.stdout == proc.stdout and same.stderr == ""
    altered = list(lines)
    altered[4] = "f" * 64 + "  desk/steps.jsonl"
    (tmp_path / "altered.txt").write_text("\n".join(altered) + "\n")
    differ = _preset_traces(tmp_path, "--expect", "altered.txt", "desk")
    assert differ.returncode == 1
    assert differ.stdout == proc.stdout
    assert differ.stderr.splitlines() == [
        f"differs: desk/steps.jsonl: expected {'f' * 64}, got {lines[4].split()[0]}"]


def _write_trace(path, steps, losses):
    path.write_text("".join(json.dumps({"step": s, "losses": l}) + "\n"
                            for s, l in zip(steps, losses)))


def test_trace_diff_reports_each_loss(tmp_path):
    steps = list(range(3, 15))  # a resumed run: twelve steps from step 3
    old = [{"L_a": 1.0 + s, "L_b": 2.0, "L_c": 0.0} for s in steps]
    new = [dict(l) for l in old]
    new[4]["L_a"] *= 1 + 1e-14   # step 7, inside the first ten steps
    new[11]["L_a"] *= 1.5        # step 14, past them
    new[10]["L_c"] = 1e-3        # step 13: 0 -> 1e-3 is a relative difference of 1
    _write_trace(tmp_path / "old.jsonl", steps, old)
    _write_trace(tmp_path / "new.jsonl", steps, new)
    tool = [sys.executable, str(ROOT / "tools" / "trace_diff.py")]
    proc = subprocess.run(tool + [str(tmp_path / "old.jsonl"), str(tmp_path / "new.jsonl")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[1:]}
    assert list(rows) == ["L_a", "L_b", "L_c", "all"]
    head, whole, first = rows["L_a"]
    assert 0.9e-14 < float(head) < 1.1e-14 and float(whole) == pytest.approx(1 / 3, rel=1e-3)
    assert first == "7"
    assert rows["L_b"] == ["0", "0", "-"]
    assert rows["L_c"] == ["0", "1", "13"]
    assert rows["all"][1:] == ["1", "7"]
    _write_trace(tmp_path / "short.jsonl", steps[:-1], old[:-1])
    proc = subprocess.run(tool + [str(tmp_path / "old.jsonl"), str(tmp_path / "short.jsonl")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and "different steps" in proc.stderr


def test_step_faults_reports_each_phase(tmp_path):
    raw = load_run_config("desk")[1]
    raw["train"].update(t_max=6, t_sigma=3)    # two steps per epoch: 6 + 6 steps
    (tmp_path / "short.json").write_text(json.dumps(raw))
    tool = [sys.executable, str(ROOT / "tools" / "step_faults.py"), str(tmp_path / "short.json")]
    for extra, n in (([], 6), (["--skip", "2"], 4)):
        proc = subprocess.run(tool + extra, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = [line.split() for line in proc.stdout.splitlines()]
        assert lines[0] == ["phase", "steps", "cpu_ms_p50", "minflt_p50"]
        assert [row[:2] for row in lines[1:]] == [["pre-aug", str(n)], ["aug", str(n)]]
        assert all(float(v) >= 0 for row in lines[1:] for v in row[2:])
    proc = subprocess.run(tool + ["--skip", "6"], capture_output=True, text=True, timeout=120)
    assert [line.split()[1:] for line in proc.stdout.splitlines()[1:]] == [["0", "-", "-"]] * 2
    proc = subprocess.run(tool[:2] + ["no-such-preset"], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2 and "neither a file nor a preset" in proc.stderr
