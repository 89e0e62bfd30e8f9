import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tailshift import checkpoint as CK
from tailshift import data as D
from tailshift import meta as MT
from tailshift import model as M
from tailshift.cli import _load_dataset_dir, _train_once, main
from tailshift.config import load_run_config, run_config_from_dict, run_config_to_dict
from tailshift.errors import ConfigError, DataFormatError, NumericsError

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "data": {"n_classes": 6, "n_train_domains": 3, "d_x": 5, "d_s": 4,
             "n_max": 30, "n_min": 4, "n_val_per_pair": 2, "n_test_per_pair": 2,
             "seed": 0},
    "model": {"d_v": 5, "hidden": [8]},
    "train": {"t_max": 4, "t_sigma": 2, "batch_size": 6, "seed": 0},
    "eval": {"threshold": 0.0},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_presets_load():
    for name in ("paper_s1", "desk"):
        cfg, raw = load_run_config(name)
        assert cfg.model.n_classes == raw["data"]["n_classes"]


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        run_config_from_dict({"train": {"bogus_field": 1},
                              "model": {"d_x": 2, "d_s": 2, "n_classes": 2, "d_v": 2}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"nonsense": {}})
    # removed settings, at the one value each used to take
    for section, key, value in (("train", "meta_mode", "first_order"),
                                ("train", "aug_denominator_variant", "derivation"),
                                ("model", "use_batch_standardization", False),
                                ("data", "path", "bench/"),
                                ("train", "ema", 0.5),
                                ("train", "decay_milestones", [0.4, 0.8]),
                                ("train", "decay_factor", 0.1),
                                ("train", "eval_every_epochs", 0),
                                ("data", "curve_scale", 7.0),
                                ("train", "mte_size", 1),
                                ("eval", "confidence", "softmax")):
        raw = json.loads(json.dumps(TINY))
        raw[section][key] = value
        with pytest.raises(ConfigError):
            run_config_from_dict(raw)


@pytest.mark.parametrize("keys, value", [
    (("train", "cp", "alpha"), -1), (("train", "cp", "tau"), 0),
    (("train", "ap", "k"), 0), (("train", "ap", "lam"), -1),
    (("train", "t_max"), "x"), (("model", "hidden"), "ab"),
    (("data", "n_max"), "many"), (("train",), 5),
    (("data", "n_test_per_pair"), 0), (("data", "n_val_per_pair"), -1),
    (("data", "n_classes"), 1), (("data", "n_train_domains"), 0),
    (("data", "d_x"), 0), (("data", "d_s"), 0),
    (("train", "w1"), float("nan")), (("train", "cp", "tau"), float("nan")),
    (("train", "beta2"), float("nan")), (("train", "ap", "lam"), float("inf")),
    (("data", "transform_strength"), float("nan")),
    (("train", "beta1"), -0.1), (("train", "beta2"), -0.1),
], ids=["cp_alpha", "cp_tau", "ap_k", "ap_lam", "t_max", "hidden", "n_max", "train_not_object",
        "n_test_per_pair", "n_val_per_pair", "n_classes_1", "n_train_domains_0", "d_x_0",
        "d_s_0", "w1_nan", "cp_tau_nan", "beta2_nan", "ap_lam_inf", "transform_strength_nan",
        "beta1_negative", "beta2_negative"])
def test_bad_section_value_is_config_error_naming_it(keys, value, tmp_path, capsys):
    raw = json.loads(json.dumps(TINY))
    sec = raw
    for key in keys[:-1]:
        sec = sec.setdefault(key, {})
    sec[keys[-1]] = value
    path, out = tmp_path / "bad.json", tmp_path / "out"
    path.write_text(json.dumps(raw))
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
    assert f"'{'.'.join(keys[:-1]) or keys[0]}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    ({"seed": "x"}, "'data': seed must be an int >= 0, not 'x'"),
    ({"seed": 1.5}, "'data': seed must be an int >= 0, not 1.5"),
    ({"seed": True}, "'data': seed must be an int >= 0, not True"),
    ({"seed": -1}, "'data': seed must be an int >= 0, not -1"),
    ({"train": {**TINY["train"], "seed": 1.5}}, "'train': seed must be an int >= 0, not 1.5"),
    ({"data": {**TINY["data"], "seed": "3"}}, "'data': seed must be an int >= 0, not '3'"),
    ({"io": {"checkpoint_every_epochs": "x"}},
     "'io': checkpoint_every_epochs must be an int >= 0, not 'x'"),
    ({"io": {"checkpoint_every_epochs": -3}},
     "'io': checkpoint_every_epochs must be an int >= 0, not -3"),
], ids=["top_str", "top_float", "top_bool", "top_negative", "train_float", "data_str",
        "io_str", "io_negative"])
def test_bad_seed_or_io_setting_is_config_error_naming_its_section(edit, message, tmp_path,
                                                                   capsys):
    path, out = tmp_path / "bad.json", tmp_path / "out"
    path.write_text(json.dumps({**TINY, **edit}))
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


DROP = object()  # a parameter value that deletes its key from the config


@pytest.mark.parametrize("keys, value, message", [
    (("train", "use_dc"), "no", "'train': use_dc must be true or false, not 'no'"),
    (("model", "hidden"), [2.5], "'model': hidden must be a list of ints, not [2.5]"),
    (("train", "batch_size"), 2.5, "'train': batch_size must be an int >= 0, not 2.5"),
    (("train", "t_max"), 2.5, "'train': t_max must be an int >= 0, not 2.5"),
    (("train", "steps_per_epoch"), 1.5, "'train': steps_per_epoch must be an int >= 0, not 1.5"),
    (("train", "ap", "k"), 2.5, "'train.ap': k must be an int >= 0, not 2.5"),
    (("model", "d_v"), 8.5, "'model': d_v must be an int >= 0, not 8.5"),
    (("train", "beta1"), "x", "'train': beta1 must be a number, not 'x'"),
    (("data", "n_classes"), 2.5, "'data': n_classes must be an int >= 0, not 2.5"),
    (("data", "n_test_per_pair"), 1.5, "'data': n_test_per_pair must be an int >= 0, not 1.5"),
    (("data", "transform_strength"), "x", "'data': transform_strength must be a number, not 'x'"),
    (("eval", "threshold"), "x", "'eval': threshold must be a number or null, not 'x'"),
    (("model", "d_v"), DROP, "missing field(s) in 'model': ['d_v']"),
], ids=["use_dc", "hidden", "batch_size", "t_max", "steps_per_epoch", "ap_k", "d_v", "beta1",
        "n_classes", "n_test_per_pair", "transform_strength", "threshold", "no_d_v"])
def test_config_value_without_its_field_type_is_refused_naming_it(keys, value, message, tmp_path,
                                                                  capsys):
    raw = json.loads(json.dumps(TINY))
    sec = raw
    for key in keys[:-1]:
        sec = sec.setdefault(key, {})
    if value is DROP:
        del sec[keys[-1]]
    else:
        sec[keys[-1]] = value
    path, out = tmp_path / "bad.json", tmp_path / "out"
    path.write_text(json.dumps(raw))
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_config_dict_round_trip():
    configs = [load_run_config(name)[0] for name in ("paper_s1", "desk")]
    for cfg in configs + [run_config_from_dict(TINY)]:
        raw = run_config_to_dict(cfg)
        assert json.loads(json.dumps(raw)) == raw
        assert run_config_from_dict(raw) == cfg


def test_preset_name_wins_over_a_directory(tmp_path, monkeypatch):
    preset, _ = load_run_config("desk")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "desk").mkdir()  # e.g. left by `gen-data --config desk --out desk`
    assert load_run_config("desk")[0] == preset


def test_config_model_dims_derived_from_data():
    cfg = run_config_from_dict(TINY)
    assert cfg.model.d_x == 5 and cfg.model.d_s == 4 and cfg.model.n_classes == 6


def test_unknown_config_is_usage_error(capsys):
    assert main(["train", "--config", "/does/not/exist.json"]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def test_gen_data_writes_files_and_manifest(tiny_config, tmp_path):
    out = tmp_path / "bench"
    assert main(["gen-data", "--config", tiny_config, "--out", str(out)]) == 0
    assert (out / "dataset.csv").exists()
    assert (out / "embeddings.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("dataset.csv", "dataset.npy", "embeddings.csv")}


def test_gen_data_byte_identical_reruns(tiny_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen-data", "--config", tiny_config, "--out", str(a)])
    main(["gen-data", "--config", tiny_config, "--out", str(b)])
    for name in ("dataset.csv", "dataset.npy", "embeddings.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ---------------------------------------------------------------------------
# dataset directories: the binary copy and the fingerprint
# ---------------------------------------------------------------------------

@pytest.fixture
def bench(tiny_config, tmp_path):
    out = tmp_path / "bench"
    assert main(["gen-data", "--config", tiny_config, "--out", str(out)]) == 0
    return out


@pytest.fixture
def csv_parses(monkeypatch):
    """Counts the calls into ``data.load_dataset``, the CSV parser."""
    calls = []
    parse = D.load_dataset

    def spy(*args, **kwargs):
        calls.append(args[0])
        return parse(*args, **kwargs)

    monkeypatch.setattr(D, "load_dataset", spy)
    return calls


def test_dataset_dir_loads_the_copy_bit_identical_to_the_csv(bench, csv_parses):
    via_copy, fp_copy = _load_dataset_dir(bench)
    assert csv_parses == []
    (bench / "dataset.npy").unlink()
    via_csv, fp_csv = _load_dataset_dir(bench)
    assert csv_parses == [bench / "dataset.csv"]
    assert fp_copy == fp_csv == json.loads((bench / "manifest.json").read_text())["config_hash"]
    assert via_copy.x.dtype == via_csv.x.dtype and via_copy.x.shape == via_csv.x.shape
    assert via_copy.x.tobytes() == via_csv.x.tobytes()
    for col in ("y", "d", "split"):
        got, want = getattr(via_copy, col), getattr(via_csv, col)
        assert got.dtype == want.dtype and np.array_equal(got, want), col
    assert np.array_equal(via_copy.counts.counts, via_csv.counts.counts)
    assert np.array_equal(via_copy.semantic.s, via_csv.semantic.s)


def _drop_files(bench):
    manifest = json.loads((bench / "manifest.json").read_text())
    del manifest["files"]
    (bench / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("spoil", [
    lambda bench: (bench / "dataset.npy").unlink(),
    lambda bench: (bench / "dataset.npy").write_bytes(b"not the copy the manifest lists"),
    _drop_files,
], ids=["copy-missing", "copy-differs", "manifest-without-files"])
def test_dataset_dir_parses_the_csv_unless_the_copy_is_verified(bench, csv_parses, spoil):
    want, fp = _load_dataset_dir(bench)
    spoil(bench)
    got, fp_after = _load_dataset_dir(bench)
    assert csv_parses == [bench / "dataset.csv"]
    assert fp_after == fp
    assert got.x.tobytes() == want.x.tobytes() and np.array_equal(got.split, want.split)


def test_edited_csv_changes_the_fingerprint(tiny_config, bench, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", tiny_config, "--data", str(bench),
                 "--out", str(run)]) == 0
    lines = (bench / "dataset.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) + 0.5)
    lines[1] = ",".join(cells)
    (bench / "dataset.csv").write_text("\n".join(lines) + "\n")
    _, fingerprint = _load_dataset_dir(bench)
    assert fingerprint == hashlib.sha256((bench / "dataset.csv").read_bytes()).hexdigest()
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--data", str(bench), "--threshold", "0.0"]) == 2
    assert "fingerprint" in capsys.readouterr().err


@pytest.mark.parametrize("files", [["dataset.csv"], {"dataset.csv": 1}, "sha"])
def test_manifest_files_must_map_names_to_strings(tiny_config, bench, files, capsys):
    manifest = json.loads((bench / "manifest.json").read_text())
    manifest["files"] = files
    (bench / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match="manifest.json: files"):
        _load_dataset_dir(bench)
    assert main(["train", "--config", tiny_config, "--data", str(bench)]) == 2
    assert "manifest.json" in capsys.readouterr().err


def test_gen_data_infeasible_budget_exit_2(tmp_path, capsys):
    # the head class must be split over all 3 train domains, but gets 2 samples
    bad = dict(TINY)
    bad["data"] = {**TINY["data"], "n_max": 2, "n_min": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "cannot cover 3 domains" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_naming_tail_domain_budget_is_an_unknown_field(tmp_path, capsys):
    bad = dict(TINY)
    bad["data"] = {**TINY["data"], "tail_domain_budget": [3, 3, 2, 2, 1, 1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "unknown field(s) in 'data': ['tail_domain_budget']" in capsys.readouterr().err


def test_config_naming_mte_size_is_an_unknown_field(tmp_path, capsys):
    # every episode meta-tests one domain; the setting is gone
    bad = {**TINY, "train": {**TINY["train"], "mte_size": 1}}
    with pytest.raises(ConfigError, match=r"unknown field\(s\) in 'train': \['mte_size'\]"):
        run_config_from_dict(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "unknown field(s) in 'train': ['mte_size']" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# refusals of outside input, through the CLI
# ---------------------------------------------------------------------------

def _rewrite_columns(edit):
    """A spoil that rewrites the directory's dataset.csv from its columns as
    ``edit(x, y, d, split)`` changes them in place, or from the columns it
    returns; the manifest then no longer vouches for the binary copy."""
    def spoil(bench, config):
        ds = D.load_dataset(bench / "dataset.csv")
        cols = [np.array(c) for c in (ds.x, ds.y, ds.d, ds.split)]
        x, y, d, split = edit(*cols) or cols
        header = "domain,label,split," + ",".join(f"x_{i}" for i in range(x.shape[1]))
        D.write_rows(bench / "dataset.csv", header, [((d, y, np.array(D.SPLITS)[split]), x)])
    return spoil


def _val_class_unseen(x, y, d, split):
    train = split == 0
    for i in np.flatnonzero(split == 1):
        unseen = sorted(set(range(TINY["data"]["n_classes"])) - set(y[train & (d == d[i])]))
        if unseen:
            y[i] = unseen[0]
            return
    raise AssertionError("every domain's training data holds every class")


def _drop_first_test_row_of_domain_0(x, y, d, split):
    keep = np.arange(len(y)) != np.flatnonzero((split == 2) & (d == 0))[0]
    return x[keep], y[keep], d[keep], split[keep]


def _drop_train_rows(x, y, d, split):
    keep = split != 0
    return x[keep], y[keep], d[keep], split[keep]


def _edit_line(name, ln, edit):
    """A spoil that replaces line `ln` of file `name` with ``edit(line)``."""
    def spoil(bench, config):
        lines = (bench / name).read_text().splitlines()
        lines[ln - 1] = edit(lines[ln - 1])
        (bench / name).write_text("\n".join(lines) + "\n")
    return spoil


def _write(name, text):
    """A spoil that writes `text` over file `name`."""
    def spoil(bench, config):
        (bench / name).write_text(text)
    return spoil


def _keep_lines(name, n):
    """A spoil that cuts file `name` to its first `n` lines."""
    def spoil(bench, config):
        lines = (bench / name).read_text().splitlines()
        (bench / name).write_text("\n".join(lines[:n]) + "\n")
    return spoil


def _swap_embedding_rows(bench, config):
    lines = (bench / "embeddings.csv").read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    (bench / "embeddings.csv").write_text("\n".join(lines) + "\n")


def _checkpoint_of_other_data(bench, config):
    # trained on the data that `--seed 9` generates in memory
    run = bench.parent / "run"
    assert main(["train", "--config", config, "--seed", "9", "--out", str(run)]) == 0
    return ["--resume", str(run / "checkpoint.json")]


def _checkpoint_with_odd_hex(bench, config):
    run = bench.parent / "run"
    assert main(["train", "--config", config, "--data", str(bench), "--out", str(run)]) == 0
    doc = json.loads((run / "checkpoint.json").read_text())
    doc["params"][0][1]["hex"] = doc["params"][0][1]["hex"][:-1]
    (run / "odd.json").write_text(json.dumps(doc))
    return ["--resume", str(run / "odd.json")]


def _config_edit(section, **values):
    """A spoil that passes a second ``--config``, TINY with `values` set in
    `section`; the last ``--config`` given is the one used."""
    def spoil(bench, config):
        raw = json.loads(json.dumps(TINY))
        raw[section].update(values)
        path = bench.parent / "edited.json"
        path.write_text(json.dumps(raw))
        return ["--config", str(path)]
    return spoil


@pytest.mark.parametrize("spoil, message", [
    (_rewrite_columns(_val_class_unseen), "validation split contains a class unseen in its domain"),
    (_rewrite_columns(lambda x, y, d, split: d.__setitem__(np.flatnonzero(split == 1)[0], 3)),
     "validation data in a held-out domain"),
    (_rewrite_columns(_drop_first_test_row_of_domain_0),
     "test split of domain 0 is not class-balanced"),
    (_rewrite_columns(lambda x, y, d, split: d.__setitem__((split == 0) & (d == 0), 7)),
     "train domains must be contiguous from 0"),
    (_rewrite_columns(_drop_train_rows), "dataset has no training samples"),
    (_rewrite_columns(lambda x, y, d, split: x.__setitem__((0, 0), np.nan)),
     "features must be finite"),
    (_edit_line("dataset.csv", 1, lambda line: line.replace("label", "class")),
     "line 1: header must start with domain,label,split"),
    (_edit_line("dataset.csv", 1, lambda line: line.replace("x_0", "x_9")),
     "line 1: feature columns must be x_0..x_{d-1}"),
    (_edit_line("dataset.csv", 3, lambda line: line.rsplit(",", 1)[0] + ",abc"),
     "line 3: could not convert string to float: 'abc'"),
    (_write("embeddings.csv", ""), "empty embedding file"),
    (_edit_line("embeddings.csv", 1, lambda line: line.replace("label", "class")),
     "line 1: embedding header must be label,s_0..s_{d_s-1}"),
    (_edit_line("embeddings.csv", 3, lambda line: line.rsplit(",", 1)[0]),
     "line 3: expected 5 fields, got 4"),
    (_edit_line("embeddings.csv", 3, lambda line: "1,2.0,0.0,0.0,0.0"),
     "line 3: class 1 has norm 2.0, not 1 within 1e-10"),
    (_edit_line("embeddings.csv", 3, lambda line: "1,0.0,0.0,0.0,0.0"),
     "line 3: class 1 has norm 0.0, not 1 within 1e-10"),
    (_edit_line("embeddings.csv", 3, lambda line: "1,nan,0.0,0.0,0.0"),
     "line 3: class 1 has norm nan, not 1 within 1e-10"),
    (_swap_embedding_rows, "line 2: expected class 0, got '1'"),
    (_edit_line("embeddings.csv", 3, lambda line: line.rsplit(",", 1)[0] + ",abc"),
     "line 3: could not convert string to float: 'abc'"),
    (_keep_lines("embeddings.csv", 2), "semantic table must be (C >= 2, d_s)"),
    (lambda bench, config: (bench / "dataset.csv").unlink(), "no dataset.csv under {bench}"),
    (_write("manifest.json", "{"), "{bench}/manifest.json: not a JSON document ("),
    (_checkpoint_of_other_data, "checkpoint was trained on different data (fingerprint mismatch)"),
    (lambda bench, config: (bench / "embeddings.csv").unlink(),
     "enabled losses require a semantic table"),
    (_checkpoint_with_odd_hex, "odd.json: malformed checkpoint (ValueError: odd-length hex)"),
    (_config_edit("model", d_v=0), "'model': all model dimensions must be >= 1"),
    (_config_edit("train", steps_per_epoch=0),
     "'train': steps_per_epoch and batch_size must be >= 1"),
], ids=["val_class_unseen", "val_heldout_domain", "test_unbalanced", "train_domains_gap",
        "no_train_rows", "nan_feature", "dataset_header", "feature_columns", "unparsable_value",
        "embeddings_empty", "embeddings_header", "embeddings_fields", "embeddings_scaled_row",
        "embeddings_zero_row", "embeddings_nan_row", "embeddings_order",
        "embeddings_unparsable_value", "embeddings_one_class", "no_dataset_csv",
        "manifest_not_json", "resume_other_data", "no_embeddings", "odd_hex", "d_v_0",
        "steps_per_epoch_0"])
def test_train_refuses_bad_outside_input_naming_it(spoil, message, tiny_config, bench, capsys):
    extra = spoil(bench, tiny_config) or []
    capsys.readouterr()
    assert main(["train", "--config", tiny_config, "--data", str(bench), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.replace("{bench}", str(bench)) in err


# ---------------------------------------------------------------------------
# train / resume / determinism
# ---------------------------------------------------------------------------

def test_train_writes_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", tiny_config, "--out", str(out)]) == 0
    lines = (out / "steps.jsonl").read_text().splitlines()
    assert len(lines) == 4
    losses = json.loads(lines[-1])["losses"]
    assert np.isfinite(list(losses.values())).all()
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.json", "steps.jsonl"]


def test_train_bit_identical_reports(tiny_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", tiny_config, "--out", str(a)])
    main(["train", "--config", tiny_config, "--out", str(b)])
    assert (a / "steps.jsonl").read_bytes() == (b / "steps.jsonl").read_bytes()


def test_train_resume_trace_equality(tiny_config, tmp_path):
    full = tmp_path / "full"
    main(["train", "--config", tiny_config, "--out", str(full)])

    # same config with a mid-run checkpoint, then resume from it
    cfgd = dict(TINY)
    cfgd["io"] = {"checkpoint_every_epochs": 2}
    cfg_path = tmp_path / "ckpt.json"
    cfg_path.write_text(json.dumps(cfgd))
    part = tmp_path / "part"
    main(["train", "--config", str(cfg_path), "--out", str(part)])
    mid = part / "checkpoint_000002.json"
    assert mid.exists()

    resumed = tmp_path / "resumed"
    resumed.mkdir()
    (resumed / "steps.jsonl").write_text("")
    assert main(["train", "--config", tiny_config, "--out", str(resumed),
                 "--resume", str(mid)]) == 0
    full_lines = (full / "steps.jsonl").read_text().splitlines()
    resumed_lines = (resumed / "steps.jsonl").read_text().splitlines()
    assert resumed_lines == full_lines[2:]


def test_train_resume_into_same_directory(tiny_config, tmp_path):
    full = tmp_path / "full"
    main(["train", "--config", tiny_config, "--out", str(full)])

    cfgd = dict(TINY)
    cfgd["io"] = {"checkpoint_every_epochs": 1}
    cfg_path = tmp_path / "ckpt.json"
    cfg_path.write_text(json.dumps(cfgd))
    run = tmp_path / "run"
    main(["train", "--config", str(cfg_path), "--out", str(run)])
    # resume the run from its step-2 checkpoint, writing over its own outputs
    assert main(["train", "--config", str(cfg_path), "--out", str(run),
                 "--resume", str(run / "checkpoint_000002.json")]) == 0
    assert (run / "steps.jsonl").read_bytes() == (full / "steps.jsonl").read_bytes()


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """desk's data and model trained for 4 epochs of 2 steps, both phases,
    with a checkpoint after each epoch: (config, gen-data directory, the run
    on the data ``train`` generates in memory)."""
    tmp = tmp_path_factory.mktemp("desk")
    raw = load_run_config("desk")[1]
    raw["train"] = {**raw["train"], "t_max": 4, "t_sigma": 2}
    raw["io"] = {"checkpoint_every_epochs": 1}
    config, bench, mem = tmp / "desk4.json", tmp / "bench", tmp / "mem"
    config.write_text(json.dumps(raw))
    assert main(["gen-data", "--config", str(config), "--out", str(bench)]) == 0
    assert main(["train", "--config", str(config), "--out", str(mem)]) == 0
    return str(config), str(bench), mem


def test_train_from_the_gen_data_directory_writes_the_in_memory_bytes(desk_runs, tmp_path):
    config, bench, mem = desk_runs
    disk = tmp_path / "disk"
    assert main(["train", "--config", config, "--data", bench, "--out", str(disk)]) == 0
    for name in ("steps.jsonl", "checkpoint.json"):
        assert (disk / name).read_bytes() == (mem / name).read_bytes(), name


def test_in_memory_checkpoint_resumed_on_the_directory_reproduces_the_run(desk_runs, tmp_path):
    config, bench, mem = desk_runs
    run = tmp_path / "run"
    run.mkdir()
    (run / "steps.jsonl").write_bytes((mem / "steps.jsonl").read_bytes())
    assert main(["train", "--config", config, "--data", bench, "--out", str(run),
                 "--resume", str(mem / "checkpoint_000004.json")]) == 0
    for name in ("steps.jsonl", "checkpoint.json"):
        assert (run / name).read_bytes() == (mem / name).read_bytes(), name


def test_train_epoch_checkpoints_skip_the_last_step(tmp_path):
    cfgd = dict(TINY)
    cfgd["io"] = {"checkpoint_every_epochs": 1}
    cfg_path = tmp_path / "ckpt.json"
    cfg_path.write_text(json.dumps(cfgd))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    # the last step's state is checkpoint.json, written once
    assert sorted(p.name for p in run.glob("checkpoint*.json")) == [
        "checkpoint.json", "checkpoint_000001.json", "checkpoint_000002.json",
        "checkpoint_000003.json"]


def test_train_refuses_a_model_of_another_semantic_width(tmp_path, capsys):
    # the data has 4-wide semantic rows, the model config 3: a config error
    # before any step, not a matmul failure at step 0
    wide, narrow = (tmp_path / "wide.json", tmp_path / "narrow.json")
    for path, d_s in ((wide, 4), (narrow, 3)):
        path.write_text(json.dumps({**TINY, "data": {**TINY["data"], "d_s": d_s}}))
    bench = tmp_path / "bench"
    assert main(["gen-data", "--config", str(wide), "--out", str(bench)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(narrow), "--data", str(bench)]) == 2
    assert capsys.readouterr().err == "error: model config does not match the dataset\n"


def test_train_resume_refuses_other_config(tiny_config, tmp_path, capsys):
    bench, run = tmp_path / "bench", tmp_path / "run"
    main(["gen-data", "--config", tiny_config, "--out", str(bench)])
    main(["train", "--config", tiny_config, "--data", str(bench), "--out", str(run)])
    # same data (the fingerprint matches), another train seed
    code = main(["train", "--config", tiny_config, "--data", str(bench), "--seed", "7",
                 "--resume", str(run / "checkpoint.json")])
    assert code == 2
    assert "train_config" in capsys.readouterr().err


def test_checkpoint_with_a_removed_train_setting(tiny_config, tmp_path, capsys):
    # a checkpoint written while train configs had eval_every_epochs
    bench, run = tmp_path / "bench", tmp_path / "run"
    main(["gen-data", "--config", tiny_config, "--out", str(bench)])
    main(["train", "--config", tiny_config, "--data", str(bench), "--out", str(run)])
    state, payload = CK.load_checkpoint(run / "checkpoint.json")
    old = tmp_path / "old.json"
    CK.save_checkpoint(old, state, payload["model_config"],
                       {**payload["train_config"], "eval_every_epochs": 10},
                       payload["dataset_fingerprint"])
    capsys.readouterr()
    assert main(["train", "--config", tiny_config, "--data", str(bench),
                 "--resume", str(old)]) == 2
    assert "train_config" in capsys.readouterr().err
    # eval reads only the model config, so it scores the old file as before
    for ckpt, out in ((old, tmp_path / "old_eval"), (run / "checkpoint.json", tmp_path / "eval")):
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(bench),
                     "--out", str(out)]) == 0
    assert (tmp_path / "old_eval" / "metrics.json").read_bytes() == \
        (tmp_path / "eval" / "metrics.json").read_bytes()


def test_train_divergence_names_step_epoch_and_loss(tmp_path, capsys):
    # augmentation from epoch 0 makes desk diverge: step 67 is the last to
    # complete, and step 68 reads a blended covariance that is not PSD
    cfg, _ = load_run_config("desk")
    raw = run_config_to_dict(cfg)
    raw["train"]["t_sigma"] = 0
    done = []
    with pytest.raises(NumericsError) as info:
        MT.run(D.generate(cfg.data), run_config_from_dict(raw).train, cfg.model,
               on_step=lambda state, report: done.append(report.step))
    message = ("step 68 (epoch 34): aug_loss_mean: "
               "matrix is not positive semidefinite within tolerance")
    assert str(info.value) == message and done[-1] == 67
    assert isinstance(info.value.__cause__, ValueError)
    path = tmp_path / "diverges.json"
    path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_failed_train_keeps_the_steps_it_finished(tiny_config, tmp_path, capsys, monkeypatch):
    full, out, k = tmp_path / "full", tmp_path / "failed", 2
    assert main(["train", "--config", tiny_config, "--out", str(full)]) == 0
    real, calls = MT.outer_step, []

    def outer_step(*args):
        calls.append(args)
        if len(calls) == k + 1:
            raise NumericsError("injected")
        return real(*args)

    monkeypatch.setattr(MT, "outer_step", outer_step)
    capsys.readouterr()
    assert main(["train", "--config", tiny_config, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: step {k} (epoch {k}): injected\n"
    lines = (out / "steps.jsonl").read_text().splitlines()
    assert len(lines) == k and lines == (full / "steps.jsonl").read_text().splitlines()[:k]
    assert sorted(p.name for p in out.iterdir()) == ["steps.jsonl"]


def test_train_ablation_row_a(tiny_config, tmp_path):
    out = tmp_path / "a"
    assert main(["train", "--config", tiny_config, "--out", str(out),
                 "--ablation", "a"]) == 0
    rec = json.loads((out / "steps.jsonl").read_text().splitlines()[-1])
    assert rec["losses"]["L_mtr"] == rec["losses"]["L_Cls"]
    assert rec["d_mte"] == []


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_roundtrip(tiny_config, tmp_path, capsys):
    bench = tmp_path / "bench"
    run = tmp_path / "run"
    main(["gen-data", "--config", tiny_config, "--out", str(bench)])
    main(["train", "--config", tiny_config, "--data", str(bench), "--out", str(run)])
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--data", str(bench), "--threshold", "0.0",
                 "--out", str(tmp_path / "m")])
    assert code == 0
    report = json.loads((tmp_path / "m" / "metrics.json").read_text())
    assert set(report) >= {"acc_u", "acc", "h", "threshold", "per_domain"}
    assert report["threshold"] == 0.0
    assert report["h_fallback"] is True  # generator produces no open classes


def test_eval_dump_features(tiny_config, tmp_path, capsys):
    bench = tmp_path / "bench"
    run = tmp_path / "run"
    main(["gen-data", "--config", tiny_config, "--out", str(bench)])
    main(["train", "--config", tiny_config, "--data", str(bench), "--out", str(run)])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--data", str(bench), "--threshold", "0.0",
                 "--out", str(tmp_path / "m"), "--dump-features"]) == 0
    lines = (tmp_path / "m" / "features.csv").read_text().splitlines()
    assert lines[0].startswith("domain,label,z_0")
    ds, _ = _load_dataset_dir(bench)
    assert len(lines) == 1 + ds.indices("test").size


def test_eval_selects_threshold_when_unset(tiny_config, tmp_path, capsys):
    bench = tmp_path / "bench"
    run = tmp_path / "run"
    main(["gen-data", "--config", tiny_config, "--out", str(bench)])
    main(["train", "--config", tiny_config, "--data", str(bench), "--out", str(run)])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--data", str(bench)]) == 0
    report = json.loads(capsys.readouterr().out)
    from tailshift.config import EvalOptions
    assert report["threshold"] in EvalOptions().grid


def test_eval_threshold_flag_out_of_range(tiny_config, tmp_path, capsys):
    bench = tmp_path / "bench"
    run = tmp_path / "run"
    main(["gen-data", "--config", tiny_config, "--out", str(bench)])
    main(["train", "--config", tiny_config, "--data", str(bench), "--out", str(run)])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--data", str(bench), "--threshold", "1.5"]) == 2
    assert "threshold" in capsys.readouterr().err


def test_eval_fingerprint_mismatch(tiny_config, tmp_path, capsys):
    bench = tmp_path / "bench"
    other = tmp_path / "other"
    run = tmp_path / "run"
    main(["gen-data", "--config", tiny_config, "--out", str(bench)])
    main(["gen-data", "--config", tiny_config, "--seed", "9", "--out", str(other)])
    main(["train", "--config", tiny_config, "--data", str(bench), "--out", str(run)])
    code = main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--data", str(other)])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err


def test_dataset_without_a_heldout_domain_is_refused(tiny_config, tmp_path, capsys,
                                                    monkeypatch):
    # a hand-made CSV-only directory whose test split has no domain without
    # training data: the tiny benchmark with its held-out domain's rows removed
    ds = D.generate(run_config_from_dict(TINY).data)
    keep = ds.d < ds.n_train_domains
    bench, run = tmp_path / "bench", tmp_path / "run"
    bench.mkdir()
    D.save_dataset(D.make_dataset(ds.x[keep], ds.y[keep], ds.d[keep], ds.split[keep],
                                  ds.semantic), bench / "dataset.csv")
    D.save_embeddings(ds.semantic, bench / "embeddings.csv")
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(MT, "run", lambda *args, **kwargs: calls.append(args))
        assert main(["train", "--config", tiny_config, "--data", str(bench),
                     "--out", str(run)]) == 2
        assert "dataset has no held-out domain" in capsys.readouterr().err
        assert main(["ablate", "--config", tiny_config, "--data", str(bench),
                     "--rows", "a", "--seeds", "1"]) == 2
        assert "dataset has no held-out domain" in capsys.readouterr().err
    assert calls == [] and not run.exists()
    # a checkpoint of that data, trained past the CLI, is refused by eval
    dataset = D.load_dataset(bench / "dataset.csv",
                             semantic=D.load_embeddings(bench / "embeddings.csv"))
    fingerprint = hashlib.sha256((bench / "dataset.csv").read_bytes()).hexdigest()
    run.mkdir()
    _train_once(load_run_config(tiny_config)[0], dataset, fingerprint, run, None)
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--data", str(bench)]) == 2
    assert "dataset has no held-out domain" in capsys.readouterr().err


def test_pipeline_commands_load_neither_numpy_ma_nor_gradcheck(tiny_config, tmp_path):
    # a fresh process, so no other test's imports count
    bench, run = tmp_path / "bench", tmp_path / "run"
    script = f"""
import sys
from tailshift.cli import main
for argv in (["gen-data", "--config", {tiny_config!r}, "--out", {str(bench)!r}],
             ["train", "--config", {tiny_config!r}, "--data", {str(bench)!r},
              "--out", {str(run)!r}],
             ["eval", "--checkpoint", {str(run / "checkpoint.json")!r},
              "--data", {str(bench)!r}, "--out", {str(run)!r}, "--dump-features"],
             ["ablate", "--config", {tiny_config!r}, "--rows", "a,j", "--seeds", "1"]):
    assert main(argv) == 0, argv
print(sorted(m for m in ("numpy.ma", "tailshift.gradcheck") if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _openblas_path():
    """numpy's bundled scipy-openblas, or None where numpy ships none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    return next(iter(sorted(libs.glob("libscipy_openblas64_*.so"))), None)


def _blas_threads_after_gen_data(script: str, tiny_config, tmp_path, pin=None) -> str:
    """The last line that `script` prints in a fresh process with both BLAS
    thread variables unset (or ``OPENBLAS_NUM_THREADS`` = `pin`); the script
    reads ``ARGV`` (a tiny ``gen-data``) and ``LIB`` (the OpenBLAS path)."""
    argv = ["gen-data", "--config", tiny_config, "--out", str(tmp_path / "bench")]
    script = f"ARGV = {argv!r}\nLIB = {str(_openblas_path())!r}\n" + script
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if pin is not None:
        env["OPENBLAS_NUM_THREADS"] = pin
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.skipif(_openblas_path() is None, reason="numpy bundles no scipy-openblas here")
@pytest.mark.parametrize("pin, threads", [(None, "1"), ("2", "2")])
def test_console_entry_runs_blas_on_one_thread_unless_the_environment_says(
        pin, threads, tiny_config, tmp_path):
    # the library is opened only after the entry has run, so it is the copy
    # that numpy loaded under the entry's environment
    script = """
import ctypes
from tailshift.__main__ import main
assert main(ARGV) == 0
print(ctypes.CDLL(LIB).scipy_openblas_get_num_threads64_())
"""
    assert _blas_threads_after_gen_data(script, tiny_config, tmp_path, pin) == threads


@pytest.mark.skipif(_openblas_path() is None, reason="numpy bundles no scipy-openblas here")
def test_cli_main_as_a_library_call_leaves_blas_threads_alone(tiny_config, tmp_path):
    script = """
import ctypes
lib = ctypes.CDLL(LIB)
lib.scipy_openblas_set_num_threads64_(2)
from tailshift.cli import main
assert main(ARGV) == 0
print(lib.scipy_openblas_get_num_threads64_())
"""
    assert _blas_threads_after_gen_data(script, tiny_config, tmp_path) == "2"


def test_python_dash_m_tailshift_runs_the_cli(tiny_config, tmp_path):
    bench = tmp_path / "bench"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "tailshift", "gen-data", "--config",
                           tiny_config, "--out", str(bench)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (bench / "manifest.json").is_file()


def test_import_tailshift_loads_no_numpy(tmp_path):
    script = "import sys, tailshift; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv, flag", [
    (["gradcheck", "--points", "0"], "--points"),
    (["gradcheck", "--points", "1", "--eps", "0.5"], "--eps"),
    (["gradcheck", "--points", "1", "--tol", "0"], "--tol"),
    (["ablate", "--config", "TINY", "--rows", "a", "--seeds", "0"], "--seeds"),
    (["ablate", "--config", "TINY", "--rows", ","], "--rows"),
    (["eval", "--checkpoint", "ck.json", "--data", "bench", "--dump-features"],
     "--dump-features"),
    (["gradcheck", "--points", "1", "--tol", "inf"], "--tol"),
    (["gradcheck", "--points", "1", "--seed", "-1"], "--seed"),
])
def test_flag_with_nothing_to_do_is_usage_error(argv, flag, tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [tiny_config if a == "TINY" else a for a in argv]
    if argv[0] == "ablate":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--points", "3"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_gradcheck_tolerance_flag(capsys):
    assert main(["gradcheck", "--points", "3", "--tol", "1e-12"]) == 1
    assert "worst offender" in capsys.readouterr().out


def test_gradcheck_detects_broken_gradient():
    # a sign-flipped analytic gradient must fail the suite machinery
    import tailshift.gradcheck as G

    def broken_fn(t):
        return (t["w"] * np.array([1.0, -1.0])).sum()

    err = G._max_rel_err(broken_fn, {"w": np.array([0.5, 0.5])}, eps=1e-5)
    assert err < 1e-8  # sanity: correct gradient passes

    class Flipped:
        grads = {"w": np.array([-1.0, 1.0])}
        value = 0.0

    import tailshift.mathcore as mc
    real = mc.grad
    try:
        G.grad = lambda fn, p: Flipped
        err = G._max_rel_err(broken_fn, {"w": np.array([0.5, 0.5])}, eps=1e-5)
    finally:
        G.grad = real
    assert err > 1.0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def test_ablate_rows_csv(tiny_config, tmp_path, capsys):
    out = tmp_path / "ab"
    code = main(["ablate", "--config", tiny_config, "--rows", "a,j",
                 "--seeds", "1", "--out", str(out)])
    assert code == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "row,n_seeds,acc_u,acc,h"
    assert len(lines) == 3
    assert lines[1].startswith("a,1,") and lines[2].startswith("j,1,")


def test_ablate_unknown_row(tiny_config, capsys):
    assert main(["ablate", "--config", tiny_config, "--rows", "a,zz"]) == 2


@pytest.mark.parametrize("eval_sec, message", [
    ({"confidence": "entropy"}, "unknown field(s) in 'eval': ['confidence']"),
    ({"grid": [-2.0, 0.5]}, "unknown field(s) in 'eval': ['grid']"),
    ({"grid": [0.5, 1.5]}, "unknown field(s) in 'eval': ['grid']"),
])
def test_ablate_refuses_bad_eval_options_before_training(eval_sec, message, tmp_path,
                                                          capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(MT, "run", lambda *args, **kwargs: calls.append(args))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**TINY, "eval": eval_sec}))
    assert main(["ablate", "--config", str(path), "--rows", "a", "--seeds", "1"]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


def _record_cells(monkeypatch):
    """Record each ``MT.run`` call of an ablation as (row, data seed, train
    seed, dataset), the data seed being that of the ``D.generate`` call that
    made the dataset (None for a dataset made elsewhere)."""
    made, cells = [], []
    generate, run = D.generate, MT.run

    def recording_generate(cfg):
        made.append((generate(cfg), cfg.seed))
        return made[-1][0]

    def recording_run(ds, cfg, mcfg, **kwargs):
        row = next(r for r in MT.ABLATION_ROWS if MT.apply_ablation(cfg, r) == cfg)
        data_seed = next((seed for d, seed in made if d is ds), None)
        cells.append((row, data_seed, cfg.seed, ds))
        return run(ds, cfg, mcfg, **kwargs)

    monkeypatch.setattr(D, "generate", recording_generate)
    monkeypatch.setattr(MT, "run", recording_run)
    return cells


def test_ablate_cell_i_trains_at_both_seeds_plus_i(tmp_path, monkeypatch):
    raw = json.loads(json.dumps(TINY))
    raw["data"]["seed"], raw["train"]["seed"] = 3, 5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cells = _record_cells(monkeypatch)
    assert main(["ablate", "--config", str(path), "--rows", "a,j", "--seeds", "2"]) == 0
    assert [c[:3] for c in cells] == [("a", 3, 5), ("a", 4, 6), ("j", 3, 5), ("j", 4, 6)]


def test_ablate_with_data_dir_trains_every_cell_on_it(tiny_config, tmp_path, monkeypatch):
    bench = tmp_path / "bench"
    main(["gen-data", "--config", tiny_config, "--seed", "9", "--out", str(bench)])
    cells = _record_cells(monkeypatch)
    assert main(["ablate", "--config", tiny_config, "--data", str(bench),
                 "--rows", "a,j", "--seeds", "2"]) == 0
    assert [c[:3] for c in cells] == [("a", None, 0), ("a", None, 1),
                                      ("j", None, 0), ("j", None, 1)]
    want, _ = _load_dataset_dir(bench)
    assert all(np.array_equal(ds.x, want.x) and np.array_equal(ds.y, want.y)
               and np.array_equal(ds.d, want.d) for *_, ds in cells)


def test_ablate_deterministic(tiny_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["ablate", "--config", tiny_config, "--rows", "b", "--seeds", "2",
          "--out", str(a)])
    main(["ablate", "--config", tiny_config, "--rows", "b", "--seeds", "2",
          "--out", str(b)])
    assert (a / "ablation.csv").read_text() == (b / "ablation.csv").read_text()


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    ds = D.generate(D.SyntheticConfig(n_classes=6, n_train_domains=3, d_x=5, d_s=4,
                                      n_max=30, n_min=4, n_val_per_pair=2,
                                      n_test_per_pair=2, seed=0))
    mcfg = M.ModelConfig(d_x=5, d_v=5, d_s=4, n_classes=6, hidden=(8,))
    cfg = MT.TrainConfig(t_max=3, t_sigma=1, batch_size=6, seed=0)
    res = MT.run(ds, cfg, mcfg)
    path = tmp_path / "ck.json"
    CK.save_checkpoint(path, res.state, dataclasses.asdict(mcfg), {"t": 2}, "fp")
    state, payload = CK.load_checkpoint(path)
    assert payload["dataset_fingerprint"] == "fp"
    assert state.step == res.state.step
    for k in res.params:
        assert np.array_equal(state.params[k], res.params[k])
    assert np.array_equal(state.proto.v, res.state.proto.v)
    assert np.array_equal(state.cov.sigma, res.state.cov.sigma)
    assert state.rng_state == res.state.rng_state
    # integer and boolean blocks keep their dtype and come back writable
    for got, want, dtype in ((state.cov.n, res.state.cov.n, np.int64),
                             (state.proto.mask, res.state.proto.mask, np.bool_)):
        assert got.dtype == dtype and want.dtype == dtype
        assert np.array_equal(got, want)
        assert got.flags.writeable


def test_checkpoint_rejects_foreign_files(tmp_path, capsys):
    path = tmp_path / "x.json"
    header = {"format": "tailshift-checkpoint", "version": 3}
    for text in (json.dumps({"format": "other"}),
                 json.dumps({"format": "tailshift-checkpoint", "version": 1}),
                 json.dumps({"format": "tailshift-checkpoint", "version": 2}),
                 "not json at all",
                 json.dumps(header)[:-9],     # truncated
                 json.dumps(header)):         # a version-3 header without params
        path.write_text(text)
        with pytest.raises(DataFormatError, match="x.json"):
            CK.load_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path), "--data", str(tmp_path)]) == 2
        assert "x.json" in capsys.readouterr().err
    # a whole checkpoint whose array records are not all objects
    mcfg = M.ModelConfig(d_x=5, d_v=5, d_s=4, n_classes=6, hidden=(8,))
    res = MT.run(D.generate(D.SyntheticConfig(n_classes=6, n_train_domains=3, d_x=5, d_s=4,
                                              n_max=30, n_min=4, seed=0)),
                 MT.TrainConfig(t_max=1, t_sigma=1, batch_size=6, seed=0), mcfg)
    CK.save_checkpoint(path, res.state, dataclasses.asdict(mcfg), {"t": 2}, "fp")
    doc = json.loads(path.read_text())
    for bad in ("0011", 7, [1, 2]):
        doc["params"][-1][1] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="x.json: malformed checkpoint"):
            CK.load_checkpoint(path)


def _transpose_cov_mu(doc):
    rec = doc["cov"]["mu"]
    mu = np.frombuffer(bytes.fromhex(rec["hex"]), dtype=rec["dtype"]).reshape(rec["shape"]).T
    doc["cov"]["mu"].update(shape=list(mu.shape), hex=np.ascontiguousarray(mu).tobytes().hex())


def _params_as_float32(doc):
    # a whole model in single precision: every block's shape is right
    for _, rec in doc["params"]:
        a = np.frombuffer(bytes.fromhex(rec["hex"]), dtype=rec["dtype"]).astype("<f4")
        rec.update(dtype=a.dtype.str, hex=a.tobytes().hex())


def _fractional_cov_n(doc):
    # a class count of 15.5, which an int64 cast would read as 15
    rec = doc["cov"]["n"]
    n = np.frombuffer(bytes.fromhex(rec["hex"]), dtype=rec["dtype"]).astype("<f8")
    n[0] = 15.5
    rec.update(dtype=n.dtype.str, hex=n.tobytes().hex())


@pytest.mark.parametrize("spoil, message", [
    (lambda doc: doc.update(step=-3), "step -3 is not an int >= 0"),
    (lambda doc: doc["proto"].update(ema=0.3), "prototype EMA weight 0.3 is not the fixed 0.5"),
    (lambda doc: doc.update(rng_state={}),
     "malformed checkpoint (ValueError: state must be for a Philox PRNG)"),
    (lambda doc: doc["params"].reverse(),
     "parameter blocks are not the names, order and shapes its model_config builds"),
    (lambda doc: doc["params"].pop(),
     "parameter blocks are not the names, order and shapes its model_config builds"),
    (_transpose_cov_mu, "bank arrays are not shaped for 6 classes of d_v 5"),
    (lambda doc: doc["rng_state"].update(buffer_pos=-1),
     "malformed checkpoint (ValueError: Philox buffer_pos -1 lies outside [0, 4])"),
    (lambda doc: doc["rng_state"].update(has_uint32=7),
     "malformed checkpoint (ValueError: Philox has_uint32 7 is not 0 or 1)"),
    (_params_as_float32,
     "malformed checkpoint (ValueError: parameter block f0.W is stored as float32, not float64)"),
    (_fractional_cov_n, "malformed checkpoint (ValueError: cov.n is stored as float64, not int64)"),
    (lambda doc: doc["params"][0][1].update(hex=5),
     "malformed checkpoint (ValueError: array hex 5 is not a hex run of the file)"),
    (lambda doc: doc["model_config"].update(hidden=[8.0]),
     "malformed checkpoint (ConfigError: 'model_config': hidden must be a list of ints, "
     "not [8.0])"),
    (lambda doc: doc["model_config"].update(d_v=5.0),
     "malformed checkpoint (ConfigError: 'model_config': d_v must be an int >= 0, not 5.0)"),
    (lambda doc: doc["model_config"].pop("d_v"),
     "malformed checkpoint (ConfigError: missing field(s) in 'model_config': ['d_v'])"),
    (lambda doc: doc["model_config"].update(width=8),
     "malformed checkpoint (ConfigError: unknown field(s) in 'model_config': ['width'])"),
], ids=["negative_step", "other_ema", "empty_rng_state", "reordered_params",
        "dropped_block", "transposed_cov_mu", "rng_buffer_pos", "rng_has_uint32",
        "float32_params", "fractional_cov_n", "number_hex", "float_hidden", "float_d_v",
        "no_d_v", "unknown_model_field"])
def test_checkpoint_refused_at_load_unless_its_configs_can_resume_it(
        spoil, message, tiny_config, tmp_path, capsys):
    bench, run, bad = tmp_path / "bench", tmp_path / "run", tmp_path / "bad.json"
    main(["gen-data", "--config", tiny_config, "--out", str(bench)])
    main(["train", "--config", tiny_config, "--data", str(bench), "--out", str(run)])
    doc = json.loads((run / "checkpoint.json").read_text())
    spoil(doc)
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=re.escape(f"{bad}: {message}")):
        CK.load_checkpoint(bad)
    capsys.readouterr()
    assert main(["train", "--config", tiny_config, "--data", str(bench),
                 "--resume", str(bad), "--out", str(run)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("spoil, message", [
    (lambda doc: doc["train_config"].update(use_dc=1),
     "checkpoint train_config differs from this run's; resuming would mix two configs"),
    (lambda doc: doc.update(step=999), "checkpoint step 999 lies past this run's 4 steps"),
], ids=["use_dc_1", "step_999"])
def test_resume_refuses_a_checkpoint_its_run_could_not_have_written(
        spoil, message, tiny_config, tmp_path, capsys):
    bench, run, bad = tmp_path / "bench", tmp_path / "run", tmp_path / "bad.json"
    main(["gen-data", "--config", tiny_config, "--out", str(bench)])
    main(["train", "--config", tiny_config, "--data", str(bench), "--out", str(run)])
    doc = json.loads((run / "checkpoint.json").read_text())
    spoil(doc)
    bad.write_text(json.dumps(doc))
    CK.load_checkpoint(bad)  # a well-formed file: only a run can refuse it
    capsys.readouterr()
    resumed = tmp_path / "resumed"
    assert main(["train", "--config", tiny_config, "--data", str(bench),
                 "--resume", str(bad), "--out", str(resumed)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(resumed.iterdir()) == []
    # the finished run's own checkpoint, at its last step, still resumes
    assert main(["train", "--config", tiny_config, "--data", str(bench),
                 "--resume", str(run / "checkpoint.json"), "--out", str(resumed)]) == 0


def test_eval_refuses_manifest_without_config_hash(tiny_config, tmp_path, capsys):
    bench = tmp_path / "bench"
    run = tmp_path / "run"
    main(["gen-data", "--config", tiny_config, "--out", str(bench)])
    main(["train", "--config", tiny_config, "--data", str(bench), "--out", str(run)])
    manifest = json.loads((bench / "manifest.json").read_text())
    del manifest["config_hash"]
    (bench / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--data", str(bench)]) == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and "config_hash" in err


def test_checkpoint_failed_save_keeps_earlier_file(tmp_path, monkeypatch):
    ds = D.generate(D.SyntheticConfig(n_classes=6, n_train_domains=3, d_x=5, d_s=4,
                                      n_max=30, n_min=4, n_val_per_pair=2,
                                      n_test_per_pair=2, seed=0))
    mcfg = M.ModelConfig(d_x=5, d_v=5, d_s=4, n_classes=6, hidden=(8,))
    res = MT.run(ds, MT.TrainConfig(t_max=2, t_sigma=1, batch_size=6, seed=0), mcfg)
    path = tmp_path / "ck.json"
    CK.save_checkpoint(path, res.state, {"m": 1}, {"t": 2}, "fp")
    before = path.read_bytes()
    room, failed_at = len(before) // 2, []

    class HalfFullDisk:
        """A file the save opens for writing that takes the first half of
        the document, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            left = room - self.fh.tell()
            self.fh.write(text[:left])
            if len(text) > left:
                failed_at.append(self.fh.tell())
                raise OSError("disk full")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    real_open = open
    monkeypatch.setattr(CK, "open", lambda *a, **kw: HalfFullDisk(real_open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        CK.save_checkpoint(path, res.state, {"m": 1}, {"t": 2}, "other")
    assert failed_at == [room]
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def reference_checkpoint_bytes(state, model_config, train_config, fingerprint):
    """The version-3 document as one ``json.dumps`` of the payload with every
    array already turned into its hex record."""
    def record(a):
        le = a.astype(a.dtype.newbyteorder("<"))
        return {"dtype": le.dtype.str, "shape": list(a.shape), "hex": le.tobytes().hex()}

    payload = {
        "format": "tailshift-checkpoint", "version": 3, "step": state.step,
        "model_config": model_config, "train_config": train_config,
        "dataset_fingerprint": fingerprint,
        "params": [[k, record(v)] for k, v in state.params.items()],
        "proto": {"v": record(state.proto.v), "mask": record(state.proto.mask),
                  "ema": state.proto.ema},
        "cov": {"mu": record(state.cov.mu), "sigma": record(state.cov.sigma),
                "n": record(state.cov.n)},
        "rng_state": state.rng_state,
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


@pytest.fixture(scope="module")
def desk_state():
    """desk's configs and its state four steps into the augmentation phase."""
    cfg, _ = load_run_config("desk")
    raw = run_config_to_dict(cfg)
    raw["train"]["t_max"] = cfg.train.t_sigma + 2
    run_cfg = run_config_from_dict(raw)
    state = MT.run(D.generate(run_cfg.data), run_cfg.train, run_cfg.model).state
    assert state.cov.n.sum() > 0
    return state, raw["model"], raw["train"]


def test_checkpoint_bytes_match_one_json_dumps(desk_state, tmp_path):
    state, model_cfg, train_cfg = desk_state
    path = tmp_path / "ck.json"
    CK.save_checkpoint(path, state, model_cfg, train_cfg, "0" * 64)
    assert path.read_bytes() == reference_checkpoint_bytes(state, model_cfg, train_cfg,
                                                           "0" * 64)


def test_checkpoint_bytes_of_odd_arrays_and_strings(desk_state, tmp_path):
    state, _, _ = desk_state
    wide = np.random.default_rng(0).random((100, 120))   # more than one hex slice
    params = {
        "zero_d": np.array(1.5), "empty": np.zeros((0, 3)),
        "bool": np.array([[True, False, True]]), "int": np.arange(-3, 4, dtype=np.int64),
        "big_endian": np.arange(6, dtype=">f8").reshape(2, 3),
        "transposed": np.arange(12.0).reshape(3, 4).T, "strided": np.arange(20.0)[::3],
        "wide": wide, "wide_transposed": wide.T,
    }
    hole = CK._HOLE
    # strings that spell the first holes, alone or after a quote, as keys
    # and values; non-ASCII text and NUL are escaped by the encoder
    model_cfg = {"name": "déjà ☃", "nul": "a\x00b", hole + "0": hole + "1",
                 "quoted": '"' + hole + "0", "list": [hole + "2", hole]}
    train_cfg = {"note": hole + "0" + hole + "1"}
    odd = dataclasses.replace(state, params=params,
                              rng_state={**state.rng_state, "label": hole + "0"})
    path = tmp_path / "ck.json"
    CK.save_checkpoint(path, odd, model_cfg, train_cfg, hole + "3")
    assert path.read_bytes() == reference_checkpoint_bytes(odd, model_cfg, train_cfg,
                                                           hole + "3")
    # these blocks are no model's parameters, so the load would refuse the
    # file: the document is parsed and each array's hex decoded here
    doc = json.loads(path.read_text())
    assert {k: doc[k] for k in CK.META} == {"model_config": model_cfg, "train_config": train_cfg,
                                            "dataset_fingerprint": hole + "3"}
    assert doc["rng_state"] == odd.rng_state and [k for k, _ in doc["params"]] == list(params)
    for (_, record), a in zip(doc["params"], params.values()):
        got = np.frombuffer(bytes.fromhex(record["hex"]),
                            dtype=record["dtype"]).reshape(record["shape"])
        assert got.shape == a.shape and got.dtype == a.dtype.newbyteorder("=")
        assert np.array_equal(got, a)


def test_checkpoint_save_refuses_a_non_json_value(desk_state, tmp_path):
    state, model_cfg, train_cfg = desk_state
    path = tmp_path / "ck.json"
    CK.save_checkpoint(path, state, model_cfg, train_cfg, "fp")
    before = path.read_bytes()
    with pytest.raises(TypeError, match="float32 is not JSON serializable"):
        CK.save_checkpoint(path, state, model_cfg, {**train_cfg, "lr": np.float32(0.1)}, "fp")
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
