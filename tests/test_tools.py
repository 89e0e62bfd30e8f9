"""``tools/preset_traces.py`` hashes one preset's CLI outputs, and
``tools/trace_diff.py`` compares the losses of two traces."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _preset_traces(cwd, *args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "preset_traces.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_preset_traces_desk(tmp_path):
    proc = _preset_traces(tmp_path, "desk")
    assert proc.returncode == 0, proc.stderr
    setting, *lines = proc.stdout.splitlines()
    assert re.fullmatch(r"setting: blas \S+; simd \S+", setting)
    names = ["dataset.csv", "dataset.npy", "embeddings.csv", "manifest.json", "steps.jsonl",
             "steps.jsonl[:t_sigma]", "checkpoint.json", "metrics.json", "features.csv",
             "ablation.csv"]
    assert [line.split("  ")[-1] for line in lines] == [f"desk/{n}" for n in names]
    assert all(re.fullmatch(r"[0-9a-f]{64}  desk/\S+", line) for line in lines)
    assert lines[4].split()[0] != lines[5].split()[0]

    # --expect: a run matches its own saved output, with or without the
    # setting line, and one altered hash (among lines of a preset that is not
    # run) is the one line reported
    (tmp_path / "same.txt").write_text(proc.stdout + "0" * 64 + "  paper_s1/steps.jsonl\n")
    (tmp_path / "bare.txt").write_text("\n".join(lines) + "\n")
    for saved in ("same.txt", "bare.txt"):
        same = _preset_traces(tmp_path, "--expect", saved, "desk")
        assert same.returncode == 0, same.stderr
        assert same.stdout == proc.stdout and same.stderr == ""
    altered = [setting, *lines]
    altered[5] = "f" * 64 + "  desk/steps.jsonl"
    (tmp_path / "altered.txt").write_text("\n".join(altered) + "\n")
    differ = _preset_traces(tmp_path, "--expect", "altered.txt", "desk")
    assert differ.returncode == 1
    assert differ.stdout == proc.stdout
    assert differ.stderr.splitlines() == [
        f"differs: desk/steps.jsonl: expected {'f' * 64}, got {lines[4].split()[0]}"]


def test_preset_traces_refuses_a_file_of_another_setting(tmp_path):
    # another BLAS core moves every data and training byte, so the hashes
    # are not compared; the refusal comes before any preset runs
    other = "setting: blas Nehalem; simd none"
    (tmp_path / "other.txt").write_text(other + "\n" + "0" * 64 + "  desk/dataset.csv\n")
    proc = _preset_traces(tmp_path, "--expect", "other.txt", "desk")
    assert proc.returncode == 2
    setting, = proc.stdout.splitlines()
    assert re.fullmatch(r"setting: blas \S+; simd \S+", setting) and setting != other
    assert proc.stderr.splitlines() == [
        f"setting differs: other.txt has 'blas Nehalem; simd none', "
        f"this run has '{setting[len('setting: '):]}'"]


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
