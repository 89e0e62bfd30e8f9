"""``tools/preset_traces.py`` hashes one preset's CLI outputs."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_preset_traces_desk(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "preset_traces.py"), "desk"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = ["dataset.csv", "dataset.npy", "embeddings.csv", "manifest.json", "steps.jsonl",
             "steps.jsonl[:t_sigma]", "checkpoint.json", "metrics.json", "ablation.csv"]
    assert [line.split("  ")[-1] for line in lines] == [f"desk/{n}" for n in names]
    assert all(re.fullmatch(r"[0-9a-f]{64}  desk/\S+", line) for line in lines)
    assert lines[4].split()[0] != lines[5].split()[0]
