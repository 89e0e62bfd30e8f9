"""Memory bounds of the file path at paper_s1 size: the dataset hash, the
CSV loader, the binary-copy loader and the checkpoint save and load; and of
scoring a split, which runs the model one row block at a time. Peaks are the
``tracemalloc`` high-water of one call, which counts NumPy's buffers as well
as Python objects. Then the heap policy of ``meta.run``: steady training
steps take (almost) no minor page faults on glibc, and the policy changes no
value. Each bound prints the figure it checks (``pytest -s``)."""

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
from tailshift import evaluation as E
from tailshift import meta as MT
from tailshift.cli import _sha256
from tailshift.config import load_run_config, run_config_to_dict
from tailshift.mathcore import Rng

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
    print(f"sha256 of {path.stat().st_size / MiB:.2f} MiB: peak {peak / MiB:.3f} MiB")
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert path.stat().st_size > 4 * MiB and peak < 1 * MiB


def test_load_dataset_holds_about_one_copy(paper_s1):
    ds, _, root = paper_s1
    back, peak = traced_peak(lambda: D.load_dataset(root / "dataset.csv", semantic=ds.semantic))
    print(f"load_dataset: peak {peak / ds.x.nbytes:.2f}x of x")
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
    print(f"load_dataset_npy: peak {peak / ds.x.nbytes:.2f}x of x")
    # x itself, the (3, N) int64 columns (0.125x at d_x 24), the int8 split
    # codes (0.005x) and make_dataset's transient column copies: 1.22x
    assert peak <= 1.25 * ds.x.nbytes
    assert back.x.tobytes() == ds.x.tobytes()


def test_save_checkpoint_streams_the_document(paper_s1, tmp_path):
    _, state, _ = paper_s1
    path = tmp_path / "ck.json"
    _, peak = traced_peak(lambda: CK.save_checkpoint(path, state, {"m": 1}, {"t": 2}, "fp"))
    print(f"save_checkpoint: peak {peak / path.stat().st_size:.2f}x of the file")
    # hexing one bounded slice at a time holds about 0.13x the file; a save
    # that makes the whole document's text holds more than 1x
    assert peak < 0.25 * path.stat().st_size


def test_load_checkpoint_returns_no_array_text(paper_s1, tmp_path):
    _, state, _ = paper_s1
    path = tmp_path / "ck.json"
    model = run_config_to_dict(load_run_config("paper_s1")[0])["model"]
    CK.save_checkpoint(path, state, model, {"t": 2}, "fp")
    (loaded, meta), peak = traced_peak(lambda: CK.load_checkpoint(path))
    print(f"load_checkpoint: peak {peak / path.stat().st_size:.2f}x of the file")
    # the file's bytes, decoded in place, plus one slice's decoded hex; a
    # load that parses the whole text holds its hex twice (about 2x)
    assert peak <= 1.2 * path.stat().st_size
    assert meta == {"model_config": model, "train_config": {"t": 2},
                    "dataset_fingerprint": "fp"}
    assert loaded.cov.sigma.tobytes() == state.cov.sigma.tobytes()


@pytest.mark.parametrize("name", ["evaluate", "dump_features"])
def test_pass_holds_one_row_block_of_the_test_split(paper_s1, name, tmp_path):
    ds, state, _ = paper_s1
    mcfg = load_run_config("paper_s1")[0].model
    ds.indices("test")  # cached once per dataset, not per pass
    score = {"evaluate": lambda: E.evaluate(state.params, mcfg, ds, ds.heldout_domains[0], 0.5),
             "dump_features": lambda: E.dump_features(state.params, mcfg, ds,
                                                      tmp_path / "features.csv", "test")}[name]
    out, peak = traced_peak(score)
    print(f"{name} test {ds.indices('test').size} rows: peak {peak / MiB:.3f} MiB")
    # 1500 rows, six blocks: about 0.30 MiB (evaluate) and 0.37 MiB
    # (dump_features); one block of the whole split reads 1.44 and 1.47 MiB,
    # since the (1500, 50) logits and the two softmax temporaries of
    # evaluate, or the split's features and their text, are held at once
    assert ds.indices("test").size == 1500
    assert out == 1500 if name == "dump_features" else 0.0 <= out.acc_u <= 100.0
    assert peak < 0.6 * MiB


def peak_on_val_of(paper_s1, n, score, shuffled=False):
    """Traced peak of ``score(params, model config, dataset)`` on a paper_s1
    dataset whose val split is its first `n` train rows again, or with
    `shuffled` `n` rows cycled through a fixed permutation of them, so that
    every training domain has val rows. The split's cached indices and
    domains are made first, once per dataset."""
    ds, state, _ = paper_s1
    mcfg = load_run_config("paper_s1")[0].model
    train, test = ds.indices("train"), ds.indices("test")
    val = np.resize(train[Rng(0).permutation(train.size)], n) if shuffled else train[:n]
    rows = np.concatenate([train, test, val])
    split = np.repeat([D.SPLITS.index(t) for t in ("train", "test", "val")],
                      [train.size, test.size, n])
    sub = D.make_dataset(ds.x[rows], ds.y[rows], ds.d[rows], split, semantic=ds.semantic)
    assert sub.indices("val").size == n and sub.domains_of("val").size >= 1
    return traced_peak(lambda: score(state.params, mcfg, sub))[1]


def val_pass(name, tmp_path=None):
    """The pass `name` over the val split, as ``score`` for ``peak_on_val_of``;
    ``dump_features`` writes into `tmp_path`."""
    grid = load_run_config("paper_s1")[0].eval.grid
    return {"evaluate": lambda params, mcfg, sub: E.evaluate(params, mcfg, sub, 0, 0.5,
                                                              split="val"),
            "select_threshold": lambda params, mcfg, sub: E.select_threshold(params, mcfg,
                                                                             sub, grid),
            "dump_features": lambda params, mcfg, sub: E.dump_features(
                params, mcfg, sub, tmp_path / "features.csv", "val")}[name]


# val rows of each pass: 1, 2, 8 and 16 blocks of SCORE_BLOCK_ROWS (256) rows,
# fixed so that a larger block size cannot make the split larger
@pytest.mark.parametrize("name, rows, bound", [
    # each block is counted into (D, C) tables before the next one runs, so
    # nothing stays per row; holding the decisions alone would add 8 bytes a
    # row (14 KiB here)
    ("evaluate", (256, 2048), 8 * 1024),
    # the (G, D, C) tables of the 20 thresholds do not grow with the rows; a
    # (G, N) grid of int64 decisions alone would add 600 KiB at 3840 more rows
    ("select_threshold", (256, 4096), 0.1 * MiB),
    # write_rows holds one block while the generator makes the next, which
    # adds about 70 KiB once, from one block to two; past that the peak
    # stays, where features of the whole split grow it by 3.3 MiB
    ("dump_features", (512, 4096), 8 * 1024),
], ids=["evaluate", "select_threshold", "dump_features"])
def test_pass_peak_does_not_grow_with_the_split(paper_s1, name, rows, bound, tmp_path):
    score = val_pass(name, tmp_path)
    small, large = (peak_on_val_of(paper_s1, n, score) for n in rows)
    print(f"{name} val {rows[0]} -> {rows[1]} rows: peak {small / MiB:.3f} -> "
          f"{large / MiB:.3f} MiB ({(large - small) / 1024:+.1f} KiB)")
    assert large - small < bound, (small, large)


@pytest.mark.parametrize("name", ["evaluate", "select_threshold"])
def test_passes_gather_no_copy_of_the_domain_column(paper_s1, name):
    small, large = (peak_on_val_of(paper_s1, n, val_pass(name), shuffled=True)
                    for n in (4096, 32768))
    print(f"{name} val 4096 -> 32768 shuffled rows: peak {small / MiB:.3f} -> "
          f"{large / MiB:.3f} MiB ({(large - small) / 1024:+.1f} KiB)")
    # a split's domains come from the dataset's cache; gathering and sorting
    # the split's domain column in each pass held 16 bytes a row and, past
    # about 16k rows, set the pass's peak: it grew by 203-232 KiB here. The
    # row blocks are made one at a time; a list of every block's view grew
    # it by about 13 KiB
    assert large - small < 2 * 1024, (small, large)


@needs_glibc
def test_aug_steps_reuse_the_heap():
    # a fresh process, as a CLI run starts: without the policy every paper_s1
    # aug step faults in the heap top that the step before it gave back
    # (about 200 minor faults per step on this config). A step's faults are
    # counted from the end of the one before it (the first from the call
    # into meta.run), so they include sampling its batches; each phase's
    # first 4 steps, which first grow the heap, are left out
    script = """
import dataclasses, resource, statistics
from tailshift import meta as MT
from tailshift.config import load_run_config
from tailshift.data import generate
cfg = load_run_config("paper_s1")[0]
train = dataclasses.replace(cfg.train, t_max=20, t_sigma=8)
faults, epochs = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt], []
def on_step(state, report):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    epochs.append(report.epoch)
MT.run(generate(cfg.data), train, cfg.model, on_step=on_step)
steps = list(zip(epochs, faults, faults[1:]))
for aug in (False, True):
    phase = [f1 - f0 for epoch, f0, f1 in steps if (epoch >= train.t_sigma) == aug][4:]
    print(len(phase), statistics.median(phase))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (pre, pre_faults), (aug, aug_faults) = (line.split() for line in proc.stdout.splitlines())
    print(f"minor faults per step, median: pre-aug {pre_faults} over {pre} steps, "
          f"aug {aug_faults} over {aug} steps")
    assert (pre, aug) == ("28", "44")
    assert float(pre_faults) <= 10 and float(aug_faults) <= 10, proc.stdout


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
