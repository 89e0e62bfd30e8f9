import math

import numpy as np
import pytest

from tailshift import data as D
from tailshift.config import load_run_config
from tailshift.errors import ConfigError, DataFormatError
from tailshift.mathcore import Rng, streams

PAPER = dict(n_max=1565, n_min=20, n_classes=50)


# ---------------------------------------------------------------------------
# count curve
# ---------------------------------------------------------------------------

def test_longtail_counts_endpoints():
    assert D.longtail_counts(1, **PAPER) == 1565
    assert D.longtail_counts(50, **PAPER) == 20


def test_longtail_counts_second_rank():
    assert D.longtail_counts(2, **PAPER) == 839


def test_longtail_counts_non_increasing():
    vals = [D.longtail_counts(c, **PAPER) for c in range(1, 51)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_longtail_counts_total_and_ratio():
    total = sum(D.longtail_counts(c, **PAPER) for c in range(1, 51))
    assert 7000 <= total <= 9000
    assert PAPER["n_max"] / PAPER["n_min"] == pytest.approx(78.25)


def test_longtail_counts_endpoint_identity_any_c():
    for c_total in (10, 20, 33):
        assert D.longtail_counts(c_total, 300, 7, c_total) == 7
        assert D.longtail_counts(1, 300, 7, c_total) == 300


def test_longtail_counts_rank_bounds():
    with pytest.raises(ValueError):
        D.longtail_counts(0, **PAPER)
    with pytest.raises(ValueError):
        D.longtail_counts(51, **PAPER)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def small_cfg(**kw):
    base = dict(n_classes=8, n_train_domains=3, d_x=5, d_s=4, n_max=40, n_min=4,
                n_val_per_pair=2, n_test_per_pair=3, seed=0)
    base.update(kw)
    return D.SyntheticConfig(**base)


def test_generate_counts_match_curve():
    cfg = small_cfg()
    ds = D.generate(cfg)
    expect = [D.longtail_counts(c + 1, cfg.n_max, cfg.n_min, cfg.n_classes)
              for c in range(cfg.n_classes)]
    assert np.array_equal(ds.counts.counts.sum(axis=0), expect)


def test_generate_budget_respected():
    cfg = small_cfg()
    ds = D.generate(cfg)
    carried = (ds.counts.counts > 0).sum(axis=0)
    assert np.array_equal(carried, D.default_tail_budget(cfg.n_classes, cfg.n_train_domains))


def test_generate_heldout_only_in_test():
    ds = D.generate(small_cfg())
    held = ds.heldout_domains
    assert held == [3]
    assert not np.any((ds.d == 3) & (ds.split != D.SPLITS.index("test")))


def test_generate_val_classes_seen_in_train():
    ds = D.generate(small_cfg())
    val = ds.split == D.SPLITS.index("val")
    assert (ds.counts.counts[ds.d[val], ds.y[val]] > 0).all()


def test_generate_test_balanced_everywhere():
    cfg = small_cfg()
    ds = D.generate(cfg)
    test = ds.split == D.SPLITS.index("test")
    for dom in range(cfg.n_train_domains + 1):
        per = np.bincount(ds.y[test & (ds.d == dom)], minlength=cfg.n_classes)
        assert (per == cfg.n_test_per_pair).all()


def test_generate_deterministic():
    a = D.generate(small_cfg())
    b = D.generate(small_cfg())
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.semantic.s, b.semantic.s)
    c = D.generate(small_cfg(seed=1))
    assert not np.array_equal(a.x, c.x)


def _per_block_reference(cfg):
    """``generate``'s columns as they were once drawn: the anchors,
    transforms and placement from the same streams, then one noise draw and
    one product per (split, domain, class) block, concatenated."""
    c_total, k_train = cfg.n_classes, cfg.n_train_domains
    anchor_rng, _, style_rng, assign_rng, sample_rng = streams(cfg.seed, 5)
    anchors = cfg.anchor_spread * anchor_rng.normal(size=(c_total, cfg.d_x))
    transforms = []
    for _ in range(k_train + 1):
        while True:
            a = np.eye(cfg.d_x) + cfg.transform_strength \
                * style_rng.normal(size=(cfg.d_x, cfg.d_x)) / math.sqrt(cfg.d_x)
            if abs(np.linalg.det(a)) > 1e-3:
                break
        transforms.append((a, cfg.transform_strength * style_rng.normal(size=cfg.d_x)))
    placement = np.zeros((k_train, c_total), dtype=np.int64)
    for c in range(c_total):
        n = D.longtail_counts(c + 1, cfg.n_max, cfg.n_min, c_total)
        m = D.default_tail_budget(c_total, k_train)[c]
        assigned = np.sort(assign_rng.choice(k_train, size=m, replace=False))
        base, rem = divmod(n, m)
        for j, dom in enumerate(assign_rng.permutation(assigned)):
            placement[dom, c] = base + (1 if j < rem else 0)
    xs, ys, dsx, tags = [], [], [], []

    def emit(dom, cls, n, tag):
        if n <= 0:
            return
        a, t = transforms[dom]
        eps = cfg.noise_scale * sample_rng.normal(size=(n, cfg.d_x))
        xs.append((anchors[cls] + eps) @ a.T + t)
        ys.append(np.full(n, cls, dtype=np.int64))
        dsx.append(np.full(n, dom, dtype=np.int64))
        tags.extend([D.SPLITS.index(tag)] * n)

    for dom in range(k_train):
        for cls in range(c_total):
            emit(dom, cls, int(placement[dom, cls]), "train")
    for dom in range(k_train):
        for cls in range(c_total):
            if placement[dom, cls] > 0:
                emit(dom, cls, cfg.n_val_per_pair, "val")
    for dom in range(k_train + 1):
        for cls in range(c_total):
            emit(dom, cls, cfg.n_test_per_pair, "test")
    return (np.concatenate(xs), np.concatenate(ys), np.concatenate(dsx),
            np.array(tags, dtype=np.int8))


# the data section of the tiny CLI config in test_cli.py
TINY_DATA = dict(n_classes=6, n_train_domains=3, d_x=5, d_s=4, n_max=30, n_min=4,
                 n_val_per_pair=2, n_test_per_pair=2, seed=0)


@pytest.mark.parametrize("kw", [{}, {"d_x": 32}, {"n_val_per_pair": 0}],
                         ids=["tiny", "d_x_32", "no_val"])
def test_generate_equals_per_block_draws_bit_for_bit(kw):
    cfg = D.SyntheticConfig(**{**TINY_DATA, **kw})
    ds = D.generate(cfg)
    for got, want in zip((ds.x, ds.y, ds.d, ds.split), _per_block_reference(cfg)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_generate_zero_strength_degenerate():
    cfg = small_cfg(transform_strength=0.0, noise_scale=0.0)
    ds = D.generate(cfg)
    # all domains identical: a nearest-anchor rule classifies perfectly
    anchors = {}
    train = ds.split == D.SPLITS.index("train")
    for cls in range(cfg.n_classes):
        anchors[cls] = ds.x[train & (ds.y == cls)][0]
    test = ds.split == D.SPLITS.index("test")
    centers = np.stack([anchors[c] for c in range(cfg.n_classes)])
    pred = np.argmin(((ds.x[test][:, None, :] - centers) ** 2).sum(-1), axis=1)
    assert (pred == ds.y[test]).all()


def test_synthetic_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(n_max=3, n_min=5)
    with pytest.raises(ConfigError, match=r"^n_test_per_pair must be >= 1$"):
        small_cfg(n_test_per_pair=0)
    with pytest.raises(ConfigError, match=r"^n_val_per_pair must be an int >= 0, not -1$"):
        small_cfg(n_val_per_pair=-1)


def test_generate_infeasible_count_vs_budget():
    # the thirds rule puts the head class in all 3 train domains
    with pytest.raises(ConfigError, match="class rank 1: count 2 cannot cover 3 domains"):
        D.generate(small_cfg(n_max=2, n_min=1))


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

def test_sample_batch_single_sample_domain():
    ds = D.generate(small_cfg())
    # restrict to a synthetic one-sample domain by direct construction
    x = np.array([[1.0, 2.0]])
    mini = D.make_dataset(
        np.concatenate([x, np.tile(x, (2, 1))]),
        [0, 0, 1], [0, 0, 0], [0, 2, 2])
    xb, yb = D.sample_batch(mini, 0, 1, Rng(0))
    assert np.array_equal(xb, x) and yb[0] == 0


def test_sample_batch_deterministic():
    ds = D.generate(small_cfg())
    a = D.sample_batch(ds, 1, 12, Rng(5))
    b = D.sample_batch(ds, 1, 12, Rng(5))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_sample_batch_frequencies_match_counts():
    ds = D.generate(small_cfg())
    n = 100_000
    _, yb = D.sample_batch(ds, 0, n, Rng(6))
    row = ds.counts.counts[0].astype(float)
    p = row / row.sum()
    freq = np.bincount(yb, minlength=len(p)) / n
    sigma = np.sqrt(p * (1 - p) / n)
    assert (np.abs(freq - p) <= 3 * sigma + 1e-12).all()


def test_make_dataset_keeps_int8_split_codes_and_refuses_others():
    ds = D.generate(small_cfg())
    assert ds.split.dtype == np.int8
    with pytest.raises(ValueError, match="integer codes"):
        D.make_dataset(ds.x, ds.y, ds.d, np.array(D.SPLITS)[ds.split])
    bad = ds.split.astype(np.int64)
    bad[0] = 256  # a code that would wrap to "train" as int8
    with pytest.raises(ValueError, match=r"unknown split codes \[256\]"):
        D.make_dataset(ds.x, ds.y, ds.d, bad)


def test_negative_domain_codes_are_refused_by_both_loaders(tmp_path):
    # the held-out domain recoded as -1 would leave no domain held out
    ds = D.generate(small_cfg())
    d = np.where(ds.d == ds.n_train_domains, -1, ds.d)
    csv_path, npy_path = tmp_path / "ds.csv", tmp_path / "ds.npy"
    header = "domain,label,split," + ",".join(f"x_{i}" for i in range(ds.x.shape[1]))
    D.write_rows(csv_path, header, [((d, ds.y, np.array(D.SPLITS)[ds.split]), ds.x)])
    _write_npy(npy_path, ds.x, np.stack([d, ds.y, ds.split.astype(np.int64)]))
    with pytest.raises(DataFormatError, match=r"negative domain codes \[-1\]"):
        D.load_dataset(csv_path, semantic=ds.semantic)
    with pytest.raises(DataFormatError, match=r"ds.npy: negative domain codes \[-1\]"):
        D.load_dataset_npy(npy_path, semantic=ds.semantic)


def test_empty_dataset_is_refused_before_any_reduction(tmp_path):
    ds = D.generate(small_cfg())
    csv_path, npy_path = tmp_path / "ds.csv", tmp_path / "ds.npy"
    header = "domain,label,split," + ",".join(f"x_{i}" for i in range(ds.x.shape[1]))
    csv_path.write_text(header + "\n")
    _write_npy(npy_path, ds.x[:0], np.zeros((3, 0), dtype=np.int64))
    for semantic in (None, ds.semantic):
        with pytest.raises(ValueError, match="^dataset has no samples$"):
            D.make_dataset(ds.x[:0], ds.y[:0], ds.d[:0], ds.split[:0], semantic=semantic)
        with pytest.raises(DataFormatError, match="^dataset has no samples$"):
            D.load_dataset(csv_path, semantic=semantic)
        with pytest.raises(DataFormatError, match="ds.npy: dataset has no samples$"):
            D.load_dataset_npy(npy_path, semantic=semantic)


def test_indices_computed_once_and_read_only():
    ds = D.generate(small_cfg())
    idx = ds.indices("train", 1)
    assert idx is ds.indices("train", 1)
    assert np.array_equal(idx, np.nonzero((ds.split == D.SPLITS.index("train")) & (ds.d == 1))[0])
    assert np.array_equal(ds.indices("test"), np.nonzero(ds.split == D.SPLITS.index("test"))[0])
    with pytest.raises(ValueError):
        idx[0] = 0


def test_sample_batch_empty_domain_rejected():
    ds = D.generate(small_cfg())
    with pytest.raises(ValueError):
        D.sample_batch(ds, 3, 4, Rng(0))  # held-out domain has no train data


# ---------------------------------------------------------------------------
# CSV round trips and parse errors
# ---------------------------------------------------------------------------

def test_dataset_roundtrip(tmp_path):
    ds = D.generate(small_cfg())
    path = tmp_path / "ds.csv"
    D.save_dataset(ds, path)
    back = D.load_dataset(path, semantic=ds.semantic)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.d, ds.d)
    assert np.array_equal(back.split, ds.split)
    assert np.array_equal(back.counts.counts, ds.counts.counts)


def test_dataset_regeneration_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    D.save_dataset(D.generate(small_cfg()), a)
    D.save_dataset(D.generate(small_cfg()), b)
    assert a.read_bytes() == b.read_bytes()


def test_write_rows_matches_per_value_repr(tmp_path):
    n = 2 * D.WRITE_BLOCK_ROWS + 3  # two full blocks and a partial one
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 17, size=(n, 3))
    x[0] = [-0.0, 1e-05, 1.5e+16]
    d, y = np.arange(n) % 4, np.arange(n)[::-1]
    tags = np.array(D.SPLITS)[np.arange(n) % 3]
    path = tmp_path / "rows.csv"
    D.write_rows(path, "domain,label,split,x_0,x_1,x_2", [((d, y, tags), x)])
    want = ["domain,label,split,x_0,x_1,x_2\n"]
    for i in range(n):
        cells = [str(int(d[i])), str(int(y[i])), str(tags[i])]
        cells.extend(repr(float(v)) for v in x[i])
        want.append(",".join(cells) + "\n")
    assert path.read_bytes() == "".join(want).encode()
    assert want[1] == f"0,{n - 1},train,-0.0,1e-05,1.5e+16\n"
    # the same rows in uneven blocks from a generator, an empty one among them
    cuts = [0, 5, 5, D.WRITE_BLOCK_ROWS + 7, n]
    blocks = (((d[a:b], y[a:b], tags[a:b]), x[a:b]) for a, b in zip(cuts, cuts[1:]))
    D.write_rows(tmp_path / "blocks.csv", "domain,label,split,x_0,x_1,x_2", blocks)
    assert (tmp_path / "blocks.csv").read_bytes() == path.read_bytes()


def test_dataset_npy_roundtrip(tmp_path):
    ds = D.generate(small_cfg())
    path = tmp_path / "ds.npy"
    D.save_dataset_npy(ds, path)
    back = D.load_dataset_npy(path, semantic=ds.semantic)
    assert back.x.dtype == np.float64 and back.x.tobytes() == ds.x.tobytes()
    for got, want in ((back.y, ds.y), (back.d, ds.d), (back.split, ds.split)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(back.counts.counts, ds.counts.counts)


def _write_npy(path, x, cols):
    with open(path, "wb") as fh:
        np.save(fh, x)
        np.save(fh, cols)


@pytest.mark.parametrize("edit, message", [
    (lambda x, cols: (x.astype(object), cols), "not a dataset copy"),
    (lambda x, cols: (x.astype(np.float32), cols), "features must be"),
    (lambda x, cols: (x, cols[:2]), "columns must be"),
    (lambda x, cols: (x, np.where(np.arange(3)[:, None] == 2, 3, cols)), "unknown split code"),
    (lambda x, cols: (x, np.where(np.arange(3)[:, None] == 1, 99, cols)), "labels out of range"),
])
def test_dataset_npy_refusals_name_the_file(tmp_path, edit, message):
    ds = D.generate(small_cfg())
    path = tmp_path / "ds.npy"
    D.save_dataset_npy(ds, path)
    with open(path, "rb") as fh:
        x, cols = np.load(fh), np.load(fh)
    _write_npy(path, *edit(x, cols))
    with pytest.raises(DataFormatError, match=f"ds.npy: .*{message}"):
        D.load_dataset_npy(path, semantic=ds.semantic)


def test_embeddings_roundtrip_and_renormalization(tmp_path):
    # rows are read as written: the loader normalizes nothing, so a round
    # trip is bit-identical and a scaled row is refused, not re-scaled
    ds = D.generate(small_cfg())
    path = tmp_path / "emb.csv"
    D.save_embeddings(ds.semantic, path)
    back = D.load_embeddings(path)
    assert back.s.tobytes() == ds.semantic.s.tobytes()

    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    scaled = [parts[0]] + [repr(3.0 * float(v)) for v in parts[1:]]
    path.write_text("\n".join([lines[0], ",".join(scaled)] + lines[2:]) + "\n")
    with pytest.raises(DataFormatError,
                       match=r"line 2: class 0 has norm 2\.99[0-9]*, not 1 within 1e-10"):
        D.load_embeddings(path)


@pytest.mark.parametrize("preset", ["desk", "paper_s1"])
def test_embeddings_of_each_preset_load_bit_for_bit(preset, tmp_path):
    table = D.generate(load_run_config(preset)[0].data).semantic
    D.save_embeddings(table, tmp_path / "emb.csv")
    assert D.load_embeddings(tmp_path / "emb.csv").s.tobytes() == table.s.tobytes()


def test_embeddings_missing_class_named(tmp_path):
    ds = D.generate(small_cfg())
    path = tmp_path / "emb.csv"
    D.save_embeddings(ds.semantic, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + lines[4:]) + "\n")  # drop class 2
    with pytest.raises(DataFormatError, match="line 4: expected class 2, got '3'"):
        D.load_embeddings(path)


def test_embeddings_duplicate_class_line_number(tmp_path):
    ds = D.generate(small_cfg())
    path = tmp_path / "emb.csv"
    D.save_embeddings(ds.semantic, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(DataFormatError, match="line 10"):
        D.load_embeddings(path)


def test_embeddings_header_only_rejected(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("label,s_0,s_1,s_2,s_3\n")
    with pytest.raises(DataFormatError, match="no class rows"):
        D.load_embeddings(path)


def test_embeddings_negative_label_out_of_range(tmp_path):
    ds = D.generate(small_cfg())
    path = tmp_path / "emb.csv"
    D.save_embeddings(ds.semantic, path)
    lines = path.read_text().splitlines()
    lines[4] = "-1" + lines[4][lines[4].index(","):]  # relabel class 3
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="line 5: expected class 3, got '-1'"):
        D.load_embeddings(path)


def test_dataset_malformed_row_line_number(tmp_path):
    ds = D.generate(small_cfg())
    path = tmp_path / "ds.csv"
    D.save_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0]  # drop a field on file line 6
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="line 6"):
        D.load_dataset(path)


def test_dataset_crlf_and_blank_lines_keep_line_numbers(tmp_path):
    ds = D.generate(small_cfg())
    path = tmp_path / "ds.csv"
    D.save_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines.insert(3, "")  # a blank file line 4 is skipped but still counted
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    back = D.load_dataset(path, semantic=ds.semantic)
    assert np.array_equal(back.x, ds.x) and np.array_equal(back.split, ds.split)
    lines[5] = lines[5].rsplit(",", 1)[0]
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    with pytest.raises(DataFormatError, match="line 6"):
        D.load_dataset(path)


def test_dataset_empty_file_rejected(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty dataset file"):
        D.load_dataset(path)


def test_dataset_bad_split_tag(tmp_path):
    ds = D.generate(small_cfg())
    path = tmp_path / "ds.csv"
    D.save_dataset(ds, path)
    text = path.read_text().replace("train", "trian", 1)
    path.write_text(text)
    with pytest.raises(DataFormatError):
        D.load_dataset(path)


def test_dataset_int64_overflow_names_the_line(tmp_path, capsys):
    from tailshift.cli import main
    path = tmp_path / "dataset.csv"
    D.save_dataset(D.generate(small_cfg()), path)
    lines = path.read_text().splitlines()
    lines[4] = "99999999999999999999" + lines[4][lines[4].index(","):]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="line 5: domain or label out of range"):
        D.load_dataset(path)
    # the CLI refuses it as a data error (exit 2), naming the line
    config = tmp_path / "tiny.json"
    config.write_text('{"data": {"n_classes": 8, "n_train_domains": 3, "d_x": 5, "d_s": 4}, '
                      '"model": {"d_v": 5, "hidden": [8]}}')
    assert main(["train", "--config", str(config), "--data", str(tmp_path)]) == 2
    assert "line 5" in capsys.readouterr().err
