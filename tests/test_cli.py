import json

import numpy as np
import pytest

from tailshift import checkpoint as CK
from tailshift import data as D
from tailshift import meta as MT
from tailshift import model as M
from tailshift.cli import main
from tailshift.config import load_run_config, run_config_from_dict

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
    from tailshift.errors import ConfigError
    with pytest.raises(ConfigError):
        run_config_from_dict({"train": {"bogus_field": 1},
                              "model": {"d_x": 2, "d_s": 2, "n_classes": 2, "d_v": 2}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"nonsense": {}})
    # removed settings, at the one value each used to take
    for section, key, value in (("train", "meta_mode", "first_order"),
                                ("train", "aug_denominator_variant", "derivation"),
                                ("model", "use_batch_standardization", False)):
        raw = json.loads(json.dumps(TINY))
        raw[section][key] = value
        with pytest.raises(ConfigError):
            run_config_from_dict(raw)


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
    import hashlib
    digest = hashlib.sha256((out / "dataset.csv").read_bytes()).hexdigest()
    assert manifest["files"]["dataset.csv"] == digest


def test_gen_data_byte_identical_reruns(tiny_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen-data", "--config", tiny_config, "--out", str(a)])
    main(["gen-data", "--config", tiny_config, "--out", str(b)])
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "embeddings.csv").read_bytes() == (b / "embeddings.csv").read_bytes()


def test_gen_data_infeasible_budget_exit_2(tmp_path, capsys):
    bad = dict(TINY)
    bad["data"] = {**TINY["data"], "tail_domain_budget": [3, 3, 3, 3, 3, 0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "tail_domain_budget" in capsys.readouterr().err


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
    assert (out / "checkpoint.json").exists()


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


def test_train_resume_refuses_other_config(tiny_config, tmp_path, capsys):
    bench, run = tmp_path / "bench", tmp_path / "run"
    main(["gen-data", "--config", tiny_config, "--out", str(bench)])
    main(["train", "--config", tiny_config, "--data", str(bench), "--out", str(run)])
    # same data (the fingerprint matches), another train seed
    code = main(["train", "--config", tiny_config, "--data", str(bench), "--seed", "7",
                 "--resume", str(run / "checkpoint.json")])
    assert code == 2
    assert "train_config" in capsys.readouterr().err


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
    ds, _ = __import__("tailshift.cli", fromlist=["_load_dataset_dir"])._load_dataset_dir(bench)
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
    CK.save_checkpoint(path, res.state, {"m": 1}, {"t": 2}, "fp")
    state, payload = CK.load_checkpoint(path)
    assert payload["dataset_fingerprint"] == "fp"
    assert state.step == res.state.step
    for k in res.params:
        assert np.array_equal(state.params[k], res.params[k])
    assert np.array_equal(state.proto.v, res.proto.v)
    assert np.array_equal(state.cov.sigma, res.cov.sigma)
    assert state.rng_state == res.state.rng_state


def test_checkpoint_rejects_foreign_files(tmp_path):
    from tailshift.errors import DataFormatError
    path = tmp_path / "x.json"
    for payload in ({"format": "other"}, {"format": "tailshift-checkpoint", "version": 1}):
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError):
            CK.load_checkpoint(path)
