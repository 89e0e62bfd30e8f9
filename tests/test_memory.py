"""Memory bounds of the file path at paper_s1 size: the dataset hash, the
CSV loader, the binary-copy loader and the checkpoint save and load. Peaks
are the ``tracemalloc`` high-water of one call, which counts NumPy's buffers
as well as Python objects. Then the heap policy of ``meta.run``: steady
training steps take (almost) no minor page faults on glibc, and the policy
changes no value."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tailshift import checkpoint as CK
from tailshift import data as D
from tailshift import meta as MT
from tailshift.cli import _sha256
from tailshift.config import load_run_config, run_config_to_dict

MiB = 1 << 20
ROOT = Path(__file__).resolve().parent.parent


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


needs_glibc = pytest.mark.skipif(not _glibc(), reason="the heap policy acts on glibc only")


def traced_peak(fn):
    """Returns (fn(), bytes of the traced high-water during the call)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def paper_s1(tmp_path_factory):
    """The paper_s1 dataset, its CSV (about 4.7 MiB) and a checkpoint of a
    one-step run (about 1 MiB, nearly all of it the covariance bank)."""
    cfg, _ = load_run_config("paper_s1")
    root = tmp_path_factory.mktemp("paper_s1")
    ds = D.generate(cfg.data)
    D.save_dataset(ds, root / "dataset.csv")
    train = dataclasses.replace(cfg.train, t_max=1, t_sigma=1, steps_per_epoch=1)
    state = MT.run(ds, train, cfg.model).state
    return ds, state, root


def test_sha256_streams_the_file(paper_s1):
    _, _, root = paper_s1
    path = root / "dataset.csv"
    digest, peak = traced_peak(lambda: _sha256(path))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert path.stat().st_size > 4 * MiB and peak < 1 * MiB


def test_load_dataset_holds_about_one_copy(paper_s1):
    ds, _, root = paper_s1
    back, peak = traced_peak(lambda: D.load_dataset(root / "dataset.csv", semantic=ds.semantic))
    assert peak <= 2.5 * ds.x.nbytes
    for got, want in ((back.x, ds.x), (back.y, ds.y), (back.d, ds.d), (back.split, ds.split)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert back.x.tobytes() == ds.x.tobytes()


def test_load_dataset_npy_reads_one_copy_of_x(paper_s1):
    ds, _, root = paper_s1
    path = root / "dataset.npy"
    D.save_dataset_npy(ds, path)
    back, peak = traced_peak(lambda: D.load_dataset_npy(path, semantic=ds.semantic))
    # x itself, the (3, N) int64 columns (0.125x at d_x 24), the int8 split
    # codes (0.005x) and make_dataset's transient column copies: 1.22x
    assert peak <= 1.25 * ds.x.nbytes
    assert back.x.tobytes() == ds.x.tobytes()


def test_save_checkpoint_streams_the_document(paper_s1, tmp_path):
    _, state, _ = paper_s1
    path = tmp_path / "ck.json"
    _, peak = traced_peak(lambda: CK.save_checkpoint(path, state, {"m": 1}, {"t": 2}, "fp"))
    # hexing one bounded slice at a time holds about 0.13x the file; a save
    # that makes the whole document's text holds more than 1x
    assert peak < 0.25 * path.stat().st_size


def test_load_checkpoint_returns_no_array_text(paper_s1, tmp_path):
    _, state, _ = paper_s1
    path = tmp_path / "ck.json"
    model = run_config_to_dict(load_run_config("paper_s1")[0])["model"]
    CK.save_checkpoint(path, state, model, {"t": 2}, "fp")
    (loaded, meta), peak = traced_peak(lambda: CK.load_checkpoint(path))
    # the file's bytes, decoded in place, plus one slice's decoded hex; a
    # load that parses the whole text holds its hex twice (about 2x)
    assert peak <= 1.2 * path.stat().st_size
    assert meta == {"model_config": model, "train_config": {"t": 2},
                    "dataset_fingerprint": "fp"}
    assert loaded.cov.sigma.tobytes() == state.cov.sigma.tobytes()


@needs_glibc
def test_aug_steps_reuse_the_heap(tmp_path):
    # a fresh process, as a CLI run starts: without the policy every paper_s1
    # aug step faults in the heap top that the step before it gave back
    # (about 200 minor faults per step on this config)
    raw = load_run_config("paper_s1")[1]
    raw["train"].update(t_max=20, t_sigma=8)
    (tmp_path / "short.json").write_text(json.dumps(raw))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "step_faults.py"),
                           str(tmp_path / "short.json"), "--skip", "4"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[1:]}
    assert rows["pre-aug"][0] == "28" and rows["aug"][0] == "44"
    assert float(rows["aug"][2]) <= 10, proc.stdout
    assert float(rows["pre-aug"][2]) <= 10, proc.stdout


def test_keep_heap_sets_the_thresholds_once(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(MT, "_heap_kept", False)
    monkeypatch.setattr(MT, "_libc_mallopt", lambda: mallopt)
    MT._keep_heap()
    MT._keep_heap()
    # M_MMAP_THRESHOLD = 4 MiB, then M_TRIM_THRESHOLD = 16 MiB
    assert calls == [(-3, 4 * MiB), (-1, 16 * MiB)]


@needs_glibc
def test_libc_mallopt_is_glibcs():
    mallopt = MT._libc_mallopt()
    assert mallopt is not None
    assert mallopt(-3, 4 * MiB) == 1 and mallopt(-1, 16 * MiB) == 1


def _no_libc(name):
    raise OSError("no C library")


def _no_confstr(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("target, fake", [
    ("ctypes.CDLL", lambda name: object()),     # a C library without mallopt
    ("ctypes.CDLL", _no_libc),
    ("os.confstr", _no_confstr),                # not glibc
    ("os.confstr", lambda name: None)])
def test_keep_heap_is_a_silent_no_op_without_mallopt(monkeypatch, capfd, target, fake):
    module, name = target.split(".")
    monkeypatch.setattr(getattr(MT, module), name, fake)
    monkeypatch.setattr(MT, "_heap_kept", False)
    assert MT._libc_mallopt() is None
    MT._keep_heap()
    assert MT._heap_kept
    assert capfd.readouterr() == ("", "")


def test_runs_before_and_after_the_policy_write_the_same_steps(tmp_path):
    # one process: the first run with the policy held off, the second with
    # it set on entry, as a process's first run sets it
    script = f"""
from tailshift import meta as MT
from tailshift.cli import main
keep = MT._keep_heap
MT._keep_heap = lambda: None
assert main(["train", "--config", "desk", "--out", {str(tmp_path / "off")!r}]) == 0
assert not MT._heap_kept
MT._keep_heap = keep
assert main(["train", "--config", "desk", "--out", {str(tmp_path / "on")!r}]) == 0
assert MT._heap_kept
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    off = (tmp_path / "off" / "steps.jsonl").read_bytes()
    assert off.count(b"\n") == 120
    assert (tmp_path / "on" / "steps.jsonl").read_bytes() == off
