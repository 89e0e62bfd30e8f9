import numpy as np
import pytest

from tailshift import model as M
from tailshift.mathcore import GradResult, Rng

CFG = M.ModelConfig(d_x=5, d_v=4, d_s=3, n_classes=6, hidden=(8,))


def make_params(seed=0, cfg=CFG):
    return M.init_params(cfg, Rng(seed))


def test_init_deterministic_and_shapes():
    a, b = make_params(3), make_params(3)
    assert set(a) == {"f0.W", "f0.b", "f1.W", "f1.b", "cls.W", "cls.b",
                      "enc.W", "enc.b", "dec.W", "dec.b"}
    for k in a:
        assert np.array_equal(a[k], b[k])
    assert a["f0.W"].shape == (8, 5)
    assert a["cls.W"].shape == (6, 4)
    assert a["enc.W"].shape == (3, 4)
    assert a["dec.W"].shape == (4, 3)


def test_forward_features_identity_configuration():
    cfg = M.ModelConfig(d_x=3, d_v=3, d_s=2, n_classes=2, hidden=())
    params = make_params(0, cfg)
    params["f0.W"] = np.eye(3)
    params["f0.b"] = np.zeros(3)
    x = Rng(1).normal(size=(4, 3))
    z = M.forward_features(params, x, cfg)
    assert np.allclose(z.data, x, atol=1e-15)


def test_forward_features_zero_weights_rectified_bias():
    cfg = M.ModelConfig(d_x=3, d_v=2, d_s=2, n_classes=2, hidden=(4,))
    params = make_params(0, cfg)
    params["f0.W"] = np.zeros((4, 3))
    params["f0.b"] = np.array([1.0, -2.0, 0.5, -0.1])
    params["f1.W"] = np.eye(2, 4)
    params["f1.b"] = np.zeros(2)
    z = M.forward_features(params, np.ones((3, 3)), cfg)
    assert np.allclose(z.data, np.tile([1.0, 0.0], (3, 1)), atol=1e-15)


def test_forward_features_duplicate_path_oracle():
    rng = Rng(2)
    params = make_params(5)
    x = rng.normal(size=(7, 5))
    z = M.forward_features(params, x, CFG).data
    manual = np.maximum(x @ params["f0.W"].T + params["f0.b"], 0.0)
    manual = manual @ params["f1.W"].T + params["f1.b"]
    assert np.allclose(z, manual, atol=1e-12)


def test_forward_logits_basis_vector():
    params = make_params(6)
    z = np.eye(4)[1][None, :]
    logits = M.forward_logits(params, z).data[0]
    assert np.allclose(logits, params["cls.W"][:, 1] + params["cls.b"], atol=1e-15)
    zero = {**params, "cls.W": np.zeros((6, 4)), "cls.b": np.zeros(6)}
    assert np.array_equal(M.forward_logits(zero, z).data, np.zeros((1, 6)))


def test_encode_unit_rows():
    rng = Rng(7)
    params = make_params(8)
    z = rng.normal(size=(10, 4))
    e = M.encode(params, z, CFG).data
    assert np.abs(np.linalg.norm(e, axis=1) - 1.0).max() < 1e-9


def test_encode_dead_row_fallback():
    params = make_params(9)
    params["enc.W"] = np.zeros((3, 4))
    params["enc.b"] = np.array([-1.0, -1.0, -1.0])  # rectifier kills everything
    e = M.encode(params, np.ones((2, 4)), CFG).data
    assert np.allclose(e, np.full((2, 3), 1 / np.sqrt(3)), atol=1e-12)


def test_decode_finite_and_rectified():
    rng = Rng(10)
    params = make_params(11)
    out = M.decode(params, rng.normal(size=(5, 3)), CFG).data
    assert np.isfinite(out).all()
    assert (out >= 0).all()


def test_apply_step_arithmetic():
    params = {"w": np.array([1.0])}
    out = M.apply_step(params, {"w": np.array([2.0])}, lr=0.1)
    assert out["w"][0] == pytest.approx(0.8, abs=1e-15)


def test_apply_step_zero_cases():
    params = make_params(12)
    zero = {k: np.zeros_like(v) for k, v in params.items()}
    for k, v in M.apply_step(params, zero, 0.5).items():
        assert np.array_equal(v, params[k])
    g = {k: np.ones_like(v) for k, v in params.items()}
    for k, v in M.apply_step(params, g, 0.0).items():
        assert np.array_equal(v, params[k])


def test_apply_step_linear_in_lr():
    # dyadic values so both association orders are exact in binary
    rng = Rng(14)
    params = {k: np.round(8 * v) / 4 for k, v in make_params(13).items()}
    g = {k: np.round(8 * rng.normal(size=v.shape)) / 8 for k, v in params.items()}
    one = M.apply_step(params, g, 0.75)
    two = M.apply_step(M.apply_step(params, g, 0.25), g, 0.5)
    for k in params:
        assert np.array_equal(one[k], two[k])


def test_apply_step_never_mutates_input():
    params = make_params(15)
    digest = {k: v.tobytes() for k, v in params.items()}
    g = {k: np.ones_like(v) for k, v in params.items()}
    M.apply_step(params, g, 0.25)
    assert all(params[k].tobytes() == digest[k] for k in params)


def test_apply_step_shape_validation():
    params = {"w": np.ones(3)}
    with pytest.raises(ValueError):
        M.apply_step(params, {"w": np.ones(4)}, 0.1)
    with pytest.raises(ValueError):
        M.apply_step(params, {"v": np.ones(3)}, 0.1)


def test_apply_step_accepts_gradresult():
    params = {"w": np.array([2.0])}
    gr = GradResult(value=0.0, grads={"w": np.array([1.0])})
    assert M.apply_step(params, gr, 1.0)["w"][0] == pytest.approx(1.0)


def test_flatten_unflatten_roundtrip():
    params = make_params(16)
    vec = M.flatten_params(params)
    back = M.unflatten_params(vec, params)
    for k in params:
        assert np.array_equal(back[k], params[k])
    assert M.param_count(params) == vec.size


def test_forward_deterministic():
    rng = Rng(17)
    params = make_params(18)
    x = rng.normal(size=(6, 5))
    a = M.predict_logits(params, x, CFG)
    b = M.predict_logits(params, x, CFG)
    assert np.array_equal(a, b)

