import json

import numpy as np
import pytest

from tailshift.data import unit_normalize
from tailshift.errors import NumericsError
from tailshift.mathcore.autodiff import NORM_FLOOR
from tailshift.mathcore.linalg import EIG_TOL
from tailshift.mathcore import (
    Rng,
    Tensor,
    affine,
    check_psd,
    fd_grad,
    grad,
    log_softmax,
    mask_fill,
    normalize_rows,
    psd_sqrt,
    stack,
    weighted_sum,
)


# ---------------------------------------------------------------------------
# log_softmax
# ---------------------------------------------------------------------------

def test_log_softmax_uniform_symmetry():
    out = log_softmax(np.array([0.0, 0.0])).data
    assert np.allclose(out, [-np.log(2), -np.log(2)], atol=1e-15)


def test_log_softmax_weighted_normalizer():
    # a weighted softmax is the softmax of the logits plus log w
    out = log_softmax(np.array([0.0, 0.0]) + np.log([3.0, 1.0])).data
    assert out[0] == pytest.approx(np.log(3 / 4), abs=1e-15)
    assert out[1] == pytest.approx(np.log(1 / 4), abs=1e-15)


def test_log_softmax_excluded_entry_sentinel():
    out = log_softmax(np.array([5.0, -np.inf])).data
    assert out[0] == 0.0
    assert out[1] == -np.inf


def test_log_softmax_outputs_normalize():
    rng = Rng(0)
    z = rng.normal(size=(4, 7)) + np.log(np.abs(rng.normal(size=(4, 7))))
    z[:, 2] = -np.inf
    out = log_softmax(z).data
    assert (out[:, 2] == -np.inf).all()
    assert np.isfinite(np.delete(out, 2, axis=1)).all()
    sums = np.exp(out).sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-12


def test_log_softmax_shift_invariance():
    rng = Rng(1)
    z = rng.normal(size=9)
    assert np.abs(log_softmax(z + 123.456).data - log_softmax(z).data).max() < 1e-12


def test_log_softmax_zero_weight_gradient_is_zero():
    log_w = np.array([np.log(2.0), -np.inf, 0.0])

    def fn(t):
        return -log_softmax(t["z"] + log_w)[0]

    g = grad(fn, {"z": np.array([0.3, 5.0, -0.2])})
    assert g.grads["z"][1] == 0.0
    assert g.grads["z"][0] != 0.0 and g.grads["z"][2] != 0.0


def test_log_softmax_errors():
    with pytest.raises(ValueError):
        log_softmax(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        log_softmax(np.array([np.nan, -np.inf]))
    with pytest.raises(ValueError):
        log_softmax(np.array([0.0, np.inf]))
    with pytest.raises(ValueError):
        log_softmax(np.array([-np.inf, -np.inf]))
    # one bad row of a batch is enough
    with pytest.raises(ValueError):
        log_softmax(np.array([[0.0, 1.0], [-np.inf, -np.inf]]))


# ---------------------------------------------------------------------------
# unit_normalize / normalize_rows
# ---------------------------------------------------------------------------

def test_unit_normalize_examples():
    assert np.allclose(unit_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)
    v = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(unit_normalize(v), v)
    assert np.allclose(unit_normalize([2.0, 0.0, 0.0, 0.0]), [1, 0, 0, 0])


def test_unit_normalize_norm_and_direction():
    rng = Rng(2)
    for _ in range(20):
        v = rng.normal(size=6)
        u = unit_normalize(v)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        assert np.dot(u, v) > 0


def test_unit_normalize_near_zero_errors():
    with pytest.raises(ValueError):
        unit_normalize(np.zeros(3))
    with pytest.raises(ValueError):
        unit_normalize(np.full(3, 1e-13))


def test_normalize_rows_unit():
    rng = Rng(3)
    x = rng.normal(size=(5, 4))
    out = normalize_rows(Tensor(x))
    assert np.abs(np.linalg.norm(out.data, axis=1) - 1.0).max() < 1e-10


def _normalize_rows_from_primitives(x):
    n2 = (x * x).sum(axis=-1, keepdims=True)
    return x / (n2 + NORM_FLOOR).sqrt()


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_normalize_rows_is_one_node_matching_primitive_graph():
    rng = Rng(4)
    x = rng.normal(size=(2, 5, 4))
    x[0, 1] *= 1e-12                              # |x|^2 at the floor's scale
    wts = rng.normal(size=x.shape)
    leaf = Tensor(x, requires_grad=True)
    out = normalize_rows(leaf)
    assert out._parents == (leaf,)
    assert np.array_equal(out.data, _normalize_rows_from_primitives(Tensor(x)).data)
    fused = grad(lambda t: (normalize_rows(t["x"]) * wts).sum(), {"x": x})
    ref = grad(lambda t: (_normalize_rows_from_primitives(t["x"]) * wts).sum(), {"x": x})
    assert fused.value == ref.value
    assert _rel_err(fused.grads["x"], ref.grads["x"]) < 1e-13


def test_normalize_rows_grad_matches_fd_at_unit_and_floor_scale():
    rng = Rng(5)
    wts = rng.normal(size=4)
    for scale, eps in ((1.0, 1e-6), (1e-12, 1e-18)):
        x = scale * rng.normal(size=(3, 4))
        assert np.sqrt((x * x).sum(axis=-1)).min() > 0.1 * scale

        def fn(t):
            return (normalize_rows(t["x"]) * wts).sum()

        a, f = grad(fn, {"x": x}), fd_grad(fn, {"x": x}, eps=eps)
        assert _rel_err(a.grads["x"], f.grads["x"]) < 1e-6, scale


# (x shape, leaves): a 2-D batch and a stack of batches, with every operand
# alone as the leaf.
AFFINE_CASES = [((5, 4), "xwb"), ((3, 5, 4), "xwb"), ((3, 5, 4), "x"), ((3, 5, 4), "w"),
                ((3, 5, 4), "b"), ((5, 4), "w")]


@pytest.mark.parametrize("sx,leaves", AFFINE_CASES)
def test_affine_is_one_node_matching_primitive_graph(sx, leaves):
    rng = Rng(12)
    arrays = {"x": rng.normal(size=sx), "w": rng.normal(size=(3, 4)), "b": rng.normal(size=3)}
    params = {k: arrays[k] for k in leaves}
    wts = rng.normal(size=sx[:-1] + (3,))

    def call(fn):
        return lambda t: (fn(*(t.get(k, Tensor(arrays[k])) for k in "xwb")) * wts).sum()

    out = affine(*(Tensor(arrays[k], requires_grad=True) for k in "xwb"))
    assert len(out._parents) == 3 and all(p._backward is None for p in out._parents)
    assert np.array_equal(out.data, arrays["x"] @ arrays["w"].T + arrays["b"])
    fused = grad(call(affine), params)
    ref = grad(call(lambda x, w, b: x @ w.T + b), params)
    assert fused.value == ref.value
    for k in params:
        assert fused.grads[k].shape == arrays[k].shape
        assert _rel_err(fused.grads[k], ref.grads[k]) < 1e-13, k


def test_affine_refuses_a_single_row_vector():
    with pytest.raises(ValueError, match="row axis"):
        affine(np.ones(4), np.ones((3, 4)), np.ones(3))


def _assert_same_bits(fn_fused, fn_ref, params):
    """Value and every gradient of two graphs equal bit for bit."""
    fused, ref = grad(fn_fused, params), grad(fn_ref, params)
    assert fused.value == ref.value
    for k in params:
        assert fused.grads[k].shape == params[k].shape
        assert np.array_equal(fused.grads[k], ref.grads[k]), k


@pytest.mark.parametrize("sx", [(5, 4), (3, 5, 4)])
def test_affine_relu_is_one_node_matching_affine_then_relu(sx):
    rng = Rng(13)
    params = {"x": rng.normal(size=sx), "w": rng.normal(size=(3, 4)),
              "b": -np.abs(rng.normal(size=3)) - 0.1}
    params["x"][..., 1, :] = 0.0                 # row 1 is b < 0: the rectifier zeroes it
    wts = rng.normal(size=sx[:-1] + (3,))
    leaves = [Tensor(params[k], requires_grad=True) for k in "xwb"]
    out = affine(*leaves, relu=True)
    assert out._parents == tuple(leaves)
    ref = affine(*leaves).relu()
    assert np.array_equal(out.data, ref.data)
    assert not out.data[..., 1, :].any() and out.data.any()
    _assert_same_bits(lambda t: (affine(t["x"], t["w"], t["b"], relu=True) * wts).sum(),
                      lambda t: (affine(t["x"], t["w"], t["b"]).relu() * wts).sum(), params)


@pytest.mark.parametrize("kind", ["bool", "float"])
def test_mask_fill_is_one_node_matching_primitive_graph(kind):
    rng = Rng(14)
    x = rng.normal(size=(2, 5, 4))
    fill = rng.normal(size=(5, 4))
    keep = rng.uniform(size=(2, 5, 1)) < 0.5
    keep[0, 0] = keep[1, 1] = True
    keep[0, 1] = False
    if kind == "bool":      # the encoder's dead-row fallback: x * ~dead + fill * dead
        ref = lambda t: t["x"] * keep + fill * ~keep
    else:                   # prototype completion: x * m + fill * (1 - m)
        keep = keep.astype(np.float64)
        ref = lambda t: t["x"] * keep + fill * (1.0 - keep)
    wts = rng.normal(size=x.shape)
    leaf = Tensor(x, requires_grad=True)
    out = mask_fill(leaf, keep, fill)
    assert out._parents == (leaf,)
    assert np.array_equal(out.data, ref({"x": leaf}).data)
    _assert_same_bits(lambda t: (mask_fill(t["x"], keep, fill) * wts).sum(),
                      lambda t: (ref(t) * wts).sum(), {"x": x})


def test_weighted_sum_is_one_node_matching_left_to_right_total():
    rng = Rng(15)
    params = {"x": rng.normal(size=(4, 3)), "y": rng.normal(size=3)}
    weights = [1.0, 0.1, 0.3, 1.0, 0.7]

    def terms(t):
        x, y = t["x"], t["y"]
        return [(x * x).sum(), (x @ y).exp().sum(), (y * y).sum(), x.sum(), (x @ y).sum()]

    def ref(t):
        first, *rest = terms(t)
        return sum((w * term for w, term in zip(weights[1:], rest)), first)

    def fused(t):
        return weighted_sum(list(zip(weights, terms(t))))

    leaves = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
    parts = terms(leaves)
    out = weighted_sum(list(zip(weights, parts)))
    assert out._parents == tuple(parts)
    assert out.data == ref(leaves).data
    _assert_same_bits(fused, ref, params)
    assert weighted_sum([(1.0, parts[0])]) is parts[0]


# ---------------------------------------------------------------------------
# psd_sqrt
# ---------------------------------------------------------------------------

def test_psd_sqrt_identity_and_diag():
    assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-12)
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_psd_sqrt_squaring_oracle():
    rng = Rng(4)
    for _ in range(10):
        a = rng.normal(size=(6, 6))
        s = a @ a.T
        r = psd_sqrt(s)
        assert np.abs(r - r.T).max() < 1e-10
        err = np.linalg.norm(r @ r - s)
        assert err <= 1e-8 * (1.0 + np.linalg.norm(s))


def test_psd_sqrt_idempotent_on_diagonal_roots():
    r = np.diag([0.5, 2.0, 7.0])
    assert np.abs(psd_sqrt(r @ r) - r).max() < 1e-8


def test_psd_sqrt_rejects_bad_input():
    with pytest.raises(ValueError):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]))  # indefinite


# ---------------------------------------------------------------------------
# check_psd
# ---------------------------------------------------------------------------

PSD_REFUSAL = "not positive semidefinite within tolerance"


def test_check_psd_accepts_matrix_and_stack():
    rng = Rng(5)
    factors = rng.normal(size=(4, 3, 3))
    stack_ = np.stack([f @ f.T for f in factors])
    assert check_psd(stack_[0]) is not None
    assert np.array_equal(check_psd(stack_), stack_)
    assert check_psd(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_check_psd_returns_largest_asymmetry_on_request():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    s, asym = check_psd(a, return_asym=True)
    assert s is a and asym == 0.0
    b = a.copy()
    b[0, 1] += 3e-11
    s, asym = check_psd(np.stack([a, b]), return_asym=True)
    assert asym == abs(b[0, 1] - b[1, 0])
    assert check_psd(np.zeros((0, 3, 3)), return_asym=True)[1] == 0.0


def test_check_psd_factorizes_the_shifted_input_up_to_the_sign_of_zeros(monkeypatch):
    # S + eig_tol * I is built in the symmetry test's scratch array: against
    # the sum with eig_tol * eye(d), an off-diagonal -0.0 stays -0.0 (the
    # sum gives +0.0), and every other entry is the same float
    a = np.array([[2.0, -0.0, 0.5], [-0.0, 1.0, 0.0], [0.5, 0.0, 3.0]])
    b = np.array([[1.0, 0.25, -0.0], [0.25, 1.0, 0.0], [-0.0, 0.0, 1.0]])
    seen, real = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: seen.append(m.copy()) or real(m))
    for s in (np.stack([a, b]), a, np.asfortranarray(b), b.T):
        before = s.copy()
        assert check_psd(s) is s and s.tobytes() == before.tobytes()
        got, want = seen.pop(), s + EIG_TOL * np.eye(3)
        assert got.shape == want.shape and np.array_equal(got, want)
        moved = got.view(np.int64) != want.view(np.int64)
        assert moved.any() and (got[moved] == 0.0).all() and np.signbit(got[moved]).all()


def test_check_psd_accepts_rank_deficient_covariances():
    # population covariances of n < d samples have d - n + 1 zero eigenvalues
    rng = Rng(6)
    covs = []
    for n in (1, 2, 5):
        x = rng.normal(size=(n, 8))
        c = x - x.mean(axis=0)
        covs.append(c.T @ c / n)
    check_psd(np.stack(covs))
    for c in covs:
        check_psd(c)


def test_check_psd_refuses_indefinite_beside_valid():
    good = np.stack([np.eye(3), 2.0 * np.eye(3)])
    bad = np.diag([1.0, -1e-9, 1.0])
    with pytest.raises(ValueError, match=PSD_REFUSAL):
        check_psd(np.concatenate([good, bad[None]]))
    with pytest.raises(ValueError, match=PSD_REFUSAL):
        check_psd(bad)
    # within tolerance: a round-off sized negative eigenvalue passes
    check_psd(np.diag([1.0, -1e-11, 1.0]))


def test_check_psd_refuses_bad_shapes_and_entries():
    with pytest.raises(ValueError, match="square"):
        check_psd(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        check_psd(np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError, match="symmetric"):
        check_psd(np.stack([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])]))
    with pytest.raises(ValueError, match="non-finite"):
        check_psd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# grad / fd_grad
# ---------------------------------------------------------------------------

def test_grad_constant_function():
    g = grad(lambda t: (t["w"] * 0.0).sum(), {"w": np.ones(4)})
    assert g.value == 0.0
    assert np.array_equal(g.grads["w"], np.zeros(4))


def test_grad_quadratic():
    w = np.array([1.0, -2.0, 0.5])
    g = grad(lambda t: 0.5 * (t["w"] * t["w"]).sum(), {"w": w})
    assert np.allclose(g.grads["w"], w, atol=1e-15)


def test_fd_grad_linear_exact():
    slope = np.array([2.0, -3.0, 0.25])
    g = fd_grad(lambda t: (t["w"] * slope).sum(), {"w": np.zeros(3)}, eps=1e-5)
    assert np.abs(g.grads["w"] - slope).max() < 1e-10


def test_fd_grad_quadratic():
    g = fd_grad(lambda t: 0.5 * (t["w"] * t["w"]).sum(), {"w": np.array([1.0])}, eps=1e-5)
    assert g.grads["w"][0] == pytest.approx(1.0, abs=1e-9)


def test_fd_grad_eps_validation():
    fn = lambda t: t["w"].sum()
    with pytest.raises(ValueError):
        fd_grad(fn, {"w": np.ones(2)}, eps=0.0)
    with pytest.raises(ValueError):
        fd_grad(fn, {"w": np.ones(2)}, eps=0.1)


def test_grad_matches_fd_on_composite():
    rng = Rng(5)
    x = rng.normal(size=(6, 5))

    def fn(t):
        h = (x @ t["w"].T + t["b"]).relu()
        n = normalize_rows(h + 0.2)
        s = stack([n[i] for i in range(3)], axis=0)
        return (s * s).sum() + log_softmax(h)[np.arange(6), np.arange(6) % 3].mean()

    params = {"w": rng.normal(size=(3, 5)), "b": rng.normal(size=3)}
    a = grad(fn, params)
    f = fd_grad(fn, params, eps=1e-5)
    for k in params:
        rel = np.abs(a.grads[k] - f.grads[k]) / (np.abs(f.grads[k]) + 1e-8)
        assert rel.max() < 1e-6


def test_grad_nonfinite_raises():
    def fn(t):
        return (t["w"] / 0.0).sum()

    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises((NumericsError, FloatingPointError)):
            grad(fn, {"w": np.ones(2)})


def test_tensor_broadcasting_backward():
    def fn(t):
        return ((t["m"] + t["v"]) * (t["m"] - t["v"])).sum()

    params = {"m": np.arange(6.0).reshape(2, 3), "v": np.array([0.5, -1.0, 2.0])}
    a = grad(fn, params)
    f = fd_grad(fn, params, eps=1e-5)
    for k in params:
        assert np.abs(a.grads[k] - f.grads[k]).max() < 1e-8


def test_first_gradient_bound_from_another_operand_is_not_altered():
    # `a + b` hands a and b the same array; a then receives a second
    # gradient through `a * d`, which must not be added into b's.
    rng = Rng(6)
    params = {k: rng.normal(size=(3, 4)) for k in "abcd"}

    def fn(t):
        return ((t["a"] + t["b"]) * t["c"]).sum() + (t["a"] * t["d"]).sum()

    leaves = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
    fn(leaves).backward()
    assert np.array_equal(leaves["b"].grad, params["c"])
    assert np.array_equal(leaves["a"].grad, params["c"] + params["d"])
    f = fd_grad(fn, params, eps=1e-5)
    for k in params:
        assert np.abs(leaves[k].grad - f.grads[k]).max() < 1e-8, k


# (a shape, b shape) pairs under numpy's matmul rule: stacked against one
# matrix, stack against stack, and every 1-D/2-D combination.
MATMUL_SHAPES = [((2, 3, 4), (4, 3)), ((2, 3, 4), (2, 4, 3)), ((3, 4), (4, 2)),
                 ((3, 4), (4,)), ((4,), (4, 2)), ((4,), (4,))]


@pytest.mark.parametrize("sa,sb", MATMUL_SHAPES)
def test_matmul_follows_numpy_rule_and_fd_grad(sa, sb):
    rng = Rng(11)
    params = {"a": rng.normal(size=sa), "b": rng.normal(size=sb)}
    # a fixed random weighting makes every output entry matter
    wts = rng.normal(size=np.shape(params["a"] @ params["b"]))

    def fn(t):
        return ((t["a"] @ t["b"]) * wts).sum()

    out = Tensor(params["a"]) @ Tensor(params["b"])
    assert np.array_equal(out.data, params["a"] @ params["b"])
    a = grad(fn, params)
    f = fd_grad(fn, params, eps=1e-5)
    for k in params:
        assert a.grads[k].shape == params[k].shape
        assert np.abs(a.grads[k] - f.grads[k]).max() < 1e-8, k


def test_transpose_swaps_last_two_axes_and_refuses_1d():
    x = np.arange(24.0).reshape(2, 3, 4)
    assert np.array_equal(Tensor(x).T.data, np.swapaxes(x, 1, 2))
    with pytest.raises(ValueError):
        Tensor(np.ones(3)).T


# ---------------------------------------------------------------------------
# Rng
# ---------------------------------------------------------------------------

def test_rng_bit_identical_streams():
    a, b = Rng(123), Rng(123)
    assert np.array_equal(a.normal(size=100), b.normal(size=100))
    assert np.array_equal(a.integers(0, 50, size=30), b.integers(0, 50, size=30))


def test_rng_split_reproducible_and_independent():
    a, b = Rng(7), Rng(7)
    ca, cb = a.split(3), b.split(3)
    for x, y in zip(ca, cb):
        assert np.array_equal(x.normal(size=10), y.normal(size=10))
    draws = [tuple(np.round(c.normal(size=4), 12)) for c in Rng(7).split(3)]
    assert len(set(draws)) == 3


def test_rng_state_roundtrips_through_json():
    rng = Rng(9)
    rng.normal(size=17)
    state = json.loads(json.dumps(rng.get_state()))
    expect = rng.normal(size=8)
    rng2 = Rng(0)
    rng2.set_state(state)
    assert np.array_equal(rng2.normal(size=8), expect)
