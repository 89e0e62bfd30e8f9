"""Memory bounds of the file path at paper_s1 size: the dataset hash, the
CSV loader, the binary-copy loader and the checkpoint save and load. Peaks
are the ``tracemalloc`` high-water of one call, which counts NumPy's buffers
as well as Python objects."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from tailshift import checkpoint as CK
from tailshift import data as D
from tailshift import meta as MT
from tailshift.cli import _sha256
from tailshift.config import load_run_config, run_config_to_dict

MiB = 1 << 20


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
