import numpy as np
import pytest

from tailshift import banks as B
from tailshift import losses as L
from tailshift import meta as MT
from tailshift.gradcheck import gradient_check_suite
from tailshift.mathcore import Rng, Tensor, fd_grad, grad, log_softmax, normalize_rows
from tailshift.mathcore.linalg import SYM_TOL

CP0 = L.ContrastiveParams(alpha=0.0, tau=1.0)


def unit_rows(rng, n, d):
    raw = rng.normal(size=(n, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


# One sample is a batch of one; these return the loss value.

def dc1(z, y, n, counts):
    return L.dc_loss_mean(np.atleast_2d(z), [y], [n], counts).data


def z2s1(e, y, table, cp):
    return L.z2s_loss_mean(np.atleast_2d(e), [y], table, cp).data


def aug1(f, y, w, b, sigma, ap):
    # every class holds `sigma`; only the label's is read
    return L.aug_loss_mean(np.atleast_2d(f), [y], w, b, np.stack([sigma] * len(b)), ap).data


# ---------------------------------------------------------------------------
# dc_loss_mean
# ---------------------------------------------------------------------------

def test_dc_uniform_counts_is_cross_entropy():
    counts = L.DomainClassCounts(np.array([[1, 1]]))
    assert dc1(np.zeros(2), 0, 0, counts) == pytest.approx(np.log(2), abs=1e-15)
    rng = Rng(0)
    counts5 = L.DomainClassCounts(np.full((1, 5), 7))
    for _ in range(10):
        z = rng.normal(size=5)
        ce = -(z[2] - np.log(np.exp(z - z.max()).sum()) - z.max())
        assert dc1(z, 2, 0, counts5) == pytest.approx(ce, abs=1e-12)


def test_dc_worked_example():
    counts = L.DomainClassCounts(np.array([[3, 1]]))
    assert dc1(np.zeros(2), 0, 0, counts) == pytest.approx(np.log(4 / 3), abs=1e-12)


def test_dc_zero_count_class_excluded():
    counts = L.DomainClassCounts(np.array([[1, 0]]))
    assert dc1(np.array([5.0, 100.0]), 0, 0, counts) == pytest.approx(0.0, abs=1e-15)
    g = grad(lambda t: L.dc_loss_mean(t["z"], [0], [0], counts), {"z": np.array([[5.0, 100.0]])})
    assert g.grads["z"][0, 1] == 0.0


def test_dc_zero_count_label_rejected():
    counts = L.DomainClassCounts(np.array([[1, 0]]))
    with pytest.raises(ValueError):
        dc1(np.zeros(2), 1, 0, counts)


def test_dc_shift_invariance():
    rng = Rng(1)
    counts = L.DomainClassCounts(rng.integers(0, 9, size=(2, 6)) + 1)
    z = rng.normal(size=6)
    a = dc1(z, 3, 1, counts)
    b = dc1(z + 57.25, 3, 1, counts)
    assert a == pytest.approx(b, abs=1e-12)


def test_dc_count_scaling_invariance():
    # scaling a domain's counts by a constant leaves the loss unchanged
    rng = Rng(2)
    base = rng.integers(1, 10, size=(1, 5))
    z = rng.normal(size=5)
    a = dc1(z, 2, 0, L.DomainClassCounts(base))
    b = dc1(z, 2, 0, L.DomainClassCounts(base * 13))
    assert a == pytest.approx(b, abs=1e-12)


def test_dc_nonnegative_and_finite():
    rng = Rng(3)
    for _ in range(25):
        counts = L.DomainClassCounts(rng.integers(0, 5, size=(1, 6)) + 1)
        z = 3.0 * rng.normal(size=6)
        val = dc1(z, int(rng.integers(0, 6)), 0, counts)
        assert np.isfinite(val)


def test_domain_class_counts_validation():
    with pytest.raises(ValueError):
        L.DomainClassCounts(np.array([[0, 0], [1, 1]]))  # empty domain row
    with pytest.raises(ValueError):
        L.DomainClassCounts(np.array([[-1, 2]]))
    with pytest.raises(ValueError, match="counts must be an integer array, not float64"):
        L.DomainClassCounts(np.array([[1.0, 2.0]]))  # whole numbers, but floats


# ---------------------------------------------------------------------------
# z2s_loss_mean
# ---------------------------------------------------------------------------

def test_z2s_closed_form_orthonormal():
    table = np.eye(2)
    e = np.array([1.0, 0.0])
    assert z2s1(e, 0, table, CP0) == pytest.approx(np.log(1 + np.exp(-1)), abs=1e-12)


def test_z2s_uniform_sims_is_log_c():
    # all similarities equal: the margin-free loss is ln C
    d = 4
    table = np.full((d, d), 0.5)  # unit rows, all pairwise sims 1
    e = np.full(d, 0.5)
    assert z2s1(e, 1, table, CP0) == pytest.approx(np.log(d), abs=1e-12)


def test_z2s_paper_scale_temperature():
    cp = L.ContrastiveParams(alpha=0.1, tau=1 / 30)
    val = z2s1(np.array([1.0, 0.0]), 0, np.eye(2), cp)
    assert val == pytest.approx(np.log1p(np.exp(-27)), rel=1e-3)
    assert val == pytest.approx(1.9e-12, rel=0.05)


def test_z2s_strictly_positive():
    rng = Rng(4)
    cp = L.ContrastiveParams(alpha=0.1, tau=0.2)
    for _ in range(20):
        table = unit_rows(rng, 5, 3)
        e = unit_rows(rng, 1, 3)[0]
        assert z2s1(e, int(rng.integers(0, 5)), table, cp) > 0


def test_z2s_rejects_non_normalized():
    with pytest.raises(ValueError):
        z2s1(np.array([1.0, 1.0]), 0, np.eye(2), CP0)
    with pytest.raises(ValueError):
        z2s1(np.array([1.0, 0.0]), 0, 2 * np.eye(2), CP0)


# ---------------------------------------------------------------------------
# s2s_loss
# ---------------------------------------------------------------------------

def test_s2s_identical_orthonormal_tables():
    expect = np.log(1 + 2 * np.exp(-1))
    assert L.s2s_loss(np.eye(2), np.eye(2), CP0).data == pytest.approx(expect, abs=1e-12)


def test_s2s_sharp_temperature_limit():
    cp = L.ContrastiveParams(alpha=0.0, tau=1 / 100)
    assert L.s2s_loss(np.eye(2), np.eye(2), cp).data < 1e-9


def test_s2s_all_rows_equal():
    for c, d in [(3, 4), (5, 2)]:
        row = np.full(d, 1.0 / np.sqrt(d))
        table = np.tile(row, (c, 1))
        assert L.s2s_loss(table, table, CP0).data == pytest.approx(np.log(2 * c - 1), abs=1e-12)


def test_s2s_shape_mismatch():
    with pytest.raises(ValueError):
        L.s2s_loss(np.eye(2), np.eye(3), CP0)


def test_s2s_margin_raises_loss():
    rng = Rng(5)
    a, b = unit_rows(rng, 4, 3), unit_rows(rng, 4, 3)
    lo = L.s2s_loss(a, b, L.ContrastiveParams(alpha=0.0, tau=0.5)).data
    hi = L.s2s_loss(a, b, L.ContrastiveParams(alpha=0.3, tau=0.5)).data
    assert hi > lo


# ---------------------------------------------------------------------------
# s2z_loss
# ---------------------------------------------------------------------------

def test_s2z_uniform_logits_first_term():
    c, d_v, d_s = 3, 4, 3
    table = np.eye(c, d_s)
    v_hat = np.ones((c, d_v))
    w = np.zeros((c, d_v))
    b = np.zeros(c)
    enc = lambda v: Tensor(np.eye(c, d_s))  # encoded rows equal the table
    val = L.s2z_loss(v_hat, w, b, enc, table, CP0).data
    expect = np.log(c) + _s2s_loss_from_primitives(Tensor(table), Tensor(table), CP0).data
    assert val == pytest.approx(expect, abs=1e-12)


def test_s2z_compositional_oracle():
    rng = Rng(6)
    c, d_v, d_s = 5, 4, 3
    table = unit_rows(rng, c, d_s)
    v_hat = rng.normal(size=(c, d_v))
    w = rng.normal(size=(c, d_v))
    b = rng.normal(size=c)
    enc_w = rng.normal(size=(d_s, d_v))

    def enc(v):
        raw = (v @ Tensor(enc_w).T).relu() + 1e-3
        return normalize_rows(raw)

    total = L.s2z_loss(v_hat, w, b, enc, table, CP0).data
    logits = v_hat @ w.T + b
    ce_terms = []
    for i in range(c):
        zi = logits[i]
        ce_terms.append(-(zi[i] - zi.max() - np.log(np.exp(zi - zi.max()).sum())))
    expect = np.mean(ce_terms) + _s2s_loss_from_primitives(enc(Tensor(v_hat)), Tensor(table),
                                                           CP0).data
    assert total == pytest.approx(expect, abs=1e-10)


# ---------------------------------------------------------------------------
# aug_loss_mean
# ---------------------------------------------------------------------------

def _ce(logits, y):
    m = logits.max()
    return -(logits[y] - m - np.log(np.exp(logits - m).sum()))


def test_aug_loss_lambda_zero_is_cross_entropy():
    rng = Rng(7)
    for _ in range(10):
        c, d = 5, 4
        w = rng.normal(size=(c, d))
        b = rng.normal(size=c)
        f = rng.normal(size=d)
        sig = np.eye(d)
        y = int(rng.integers(0, c))
        val = aug1(f, y, w, b, sig, L.AugParams(lam=0.0, k=1))
        assert val == pytest.approx(_ce(w @ f + b, y), abs=1e-12)


def test_aug_loss_sigma_zero_is_cross_entropy():
    rng = Rng(8)
    c, d = 4, 3
    w = rng.normal(size=(c, d))
    b = rng.normal(size=c)
    f = rng.normal(size=d)
    y = 2
    val = aug1(f, y, w, b, np.zeros((d, d)), L.AugParams(lam=5.0, k=1))
    assert val == pytest.approx(_ce(w @ f + b, y), abs=1e-12)


def test_aug_loss_worked_example():
    w = np.array([[1.0, 0.0], [0.0, 0.0]])
    f = np.array([1.0, 0.0])
    val = aug1(f, 0, w, np.zeros(2), np.eye(2), L.AugParams(lam=2.0, k=1))
    assert val == pytest.approx(np.log(2), abs=1e-12)


def test_aug_loss_monotone_in_lambda():
    rng = Rng(9)
    c, d = 5, 4
    w = 0.5 * rng.normal(size=(c, d))
    b = rng.normal(size=c)
    f = rng.normal(size=d)
    a = rng.normal(size=(d, d))
    sig = a @ a.T
    vals = [aug1(f, 1, w, b, sig, L.AugParams(lam=lam, k=1))
            for lam in (0.0, 1.0, 2.0, 5.0, 10.0)]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_aug_loss_rejects_non_psd():
    with pytest.raises(ValueError):
        aug1(np.zeros(2), 0, np.eye(2), np.zeros(2),
             np.diag([1.0, -0.5]), L.AugParams(lam=1.0, k=1))


def test_aug_loss_single_class_is_zero():
    val = aug1(np.ones(3), 0, np.ones((1, 3)), np.zeros(1), np.eye(3), L.AugParams(lam=2.0, k=1))
    assert val == pytest.approx(0.0, abs=1e-15)


def test_aug_loss_mean_matches_singles():
    rng = Rng(13)
    c, d, nb = 4, 3, 6
    w = 0.5 * rng.normal(size=(c, d))
    b = rng.normal(size=c)
    feats = rng.normal(size=(nb, d))
    labels = rng.integers(0, c, size=nb)
    factors = 0.5 * rng.normal(size=(c, d, d))
    sigmas = np.stack([f.T @ f for f in factors])
    ap = L.AugParams(lam=3.0, k=1)
    batched = L.aug_loss_mean(feats, labels, w, b, sigmas, ap).data
    singles = []
    for f, y in zip(feats, labels):
        d = w - w[y]
        quad = np.einsum("cj,jk,ck->c", d, sigmas[y], d)
        singles.append(_ce(w @ f + b + (ap.lam / 2.0) * quad, y))
    assert batched == pytest.approx(np.mean(singles), abs=1e-12)


def test_losses_finite_and_nonnegative_on_valid_inputs():
    rng = Rng(14)
    cp = L.ContrastiveParams(alpha=0.1, tau=0.25)
    counts = L.DomainClassCounts(rng.integers(0, 6, size=(2, 5)) + 1)
    for _ in range(10):
        z = 2.0 * rng.normal(size=5)
        table = unit_rows(rng, 5, 4)
        e = unit_rows(rng, 1, 4)[0]
        y = int(rng.integers(0, 5))
        for val in (dc1(z, y, 1, counts),
                    z2s1(e, y, table, cp),
                    L.s2s_loss(table, unit_rows(rng, 5, 4), cp).data):
            assert np.isfinite(val) and val >= 0.0


# ---------------------------------------------------------------------------
# one return type; gradients through any subset of inputs
# ---------------------------------------------------------------------------

def _kernel_calls():
    rng = Rng(15)
    c, d_v, d_s = 4, 3, 3
    cp = L.ContrastiveParams(alpha=0.1, tau=0.5)
    ap = L.AugParams(lam=2.0, k=1)
    counts = L.DomainClassCounts(np.full((1, c), 2))
    table = unit_rows(rng, c, d_s)
    w, b = rng.normal(size=(c, d_v)), rng.normal(size=c)
    sigmas = np.stack([np.eye(d_v)] * c)
    enc = lambda v: normalize_rows((v @ Tensor(np.eye(d_s, d_v)).T).relu() + 1e-3)
    return {
        "dc_loss_mean": lambda: L.dc_loss_mean(rng.normal(size=(2, c)), [0, 1], [0, 0], counts),
        "z2s_loss_mean": lambda: L.z2s_loss_mean(unit_rows(rng, 2, d_s), [0, 1], table, cp),
        "s2s_loss": lambda: L.s2s_loss(table, unit_rows(rng, c, d_s), cp),
        "s2s_stack_loss": lambda: L.s2s_loss(
            np.stack([unit_rows(rng, c, d_s) for _ in range(2)]), table, cp, pairs=True),
        "s2z_loss": lambda: L.s2z_loss(rng.normal(size=(c, d_v)), w, b, enc, table, cp),
        "aug_loss_mean": lambda: L.aug_loss_mean(rng.normal(size=(2, d_v)), [0, 1], w, b,
                                                 sigmas, ap),
    }


@pytest.mark.parametrize("name", sorted(_kernel_calls()))
def test_kernel_returns_tensor_for_arrays(name):
    out = _kernel_calls()[name]()
    assert isinstance(out, Tensor)
    assert out.data.shape == () and np.isfinite(out.data)


def test_gradient_suite_checks_exactly_the_kernels_training_calls():
    # every loss function meta imports from losses, plus the pairs form of
    # s2s_loss (L_S2S), which meta calls as well
    trained = {name for name, obj in vars(MT).items()
               if callable(obj) and not isinstance(obj, type)
               and getattr(obj, "__module__", None) == L.__name__}
    assert "aug_loss_mean" in trained and "s2s_loss" in trained
    cases = {r.name for r in gradient_check_suite(n_points=1)}
    assert cases == trained | {"s2s_loss pairs"}


def _grad_matches_fd(fn, params):
    a, f = grad(fn, params), fd_grad(fn, params, eps=1e-5)
    for k in params:
        rel = np.abs(a.grads[k] - f.grads[k]) / (np.abs(f.grads[k]) + 1e-8)
        assert rel.max() < 1e-4, k


def test_aug_loss_mean_grad_bias_only_leaf():
    rng = Rng(16)
    c, d, nb = 4, 3, 5
    feats, w = rng.normal(size=(nb, d)), 0.5 * rng.normal(size=(c, d))
    labels = rng.integers(0, c, size=nb)
    factors = 0.5 * rng.normal(size=(c, d, d))
    sigmas = np.stack([f.T @ f for f in factors])
    ap = L.AugParams(lam=2.0, k=1)
    _grad_matches_fd(lambda t: L.aug_loss_mean(feats, labels, w, t["b"], sigmas, ap),
                     {"b": rng.normal(size=c)})


def _aug_case(seed, c=5, d=3, nb=7):
    rng = Rng(seed)
    feats, w = rng.normal(size=(nb, d)), 0.5 * rng.normal(size=(c, d))
    b, labels = rng.normal(size=c), rng.integers(0, c, size=nb)
    factors = 0.5 * rng.normal(size=(c, d, d))
    return feats, labels, w, b, np.stack([f.T @ f for f in factors])


def test_aug_loss_mean_grad_features_only_leaf():
    feats, labels, w, b, sigmas = _aug_case(18)
    ap = L.AugParams(lam=2.0, k=1)
    _grad_matches_fd(lambda t: L.aug_loss_mean(t["F"], labels, w, b, sigmas, ap), {"F": feats})


def test_aug_loss_mean_grad_weights_only_leaf():
    feats, labels, w, b, sigmas = _aug_case(19)
    ap = L.AugParams(lam=2.0, k=1)
    _grad_matches_fd(lambda t: L.aug_loss_mean(feats, labels, t["W"], b, sigmas, ap), {"W": w})


def _aug_loss_from_primitives(f, labels, w, b, sigmas, lam):
    """The augmentation loss as a graph of mathcore primitives, one penalty
    row per sample, added into its logit row through a one-hot column."""
    nb = f.data.shape[0]
    logits = f @ w.T + b
    for i, y in enumerate(labels):
        d = w - w[int(y)]
        pen = ((d @ Tensor(sigmas[int(y)])) * d).sum(axis=1)
        logits = logits + Tensor(np.eye(nb)[:, i:i + 1]) * ((lam / 2.0) * pen)
    return -log_softmax(logits)[np.arange(nb), labels].mean()


def test_aug_loss_mean_matches_primitive_graph():
    feats, labels, w, b, sigmas = _aug_case(20, c=6, d=4, nb=9)
    sigmas[2] += np.triu(np.full((4, 4), 1e-12), 1)  # symmetric only within tolerance
    ap = L.AugParams(lam=3.0, k=1)
    params = {"F": feats, "W": w, "b": b}
    fused = grad(lambda t: L.aug_loss_mean(t["F"], labels, t["W"], t["b"], sigmas, ap), params)
    ref = grad(lambda t: _aug_loss_from_primitives(t["F"], labels, t["W"], t["b"], sigmas,
                                                   ap.lam), params)
    assert fused.value == pytest.approx(ref.value, rel=1e-14)
    for k in params:
        assert np.abs(fused.grads[k] - ref.grads[k]).max() < 1e-13, k


def test_aug_loss_mean_refuses_indefinite_sigma_of_batch_class():
    feats, labels, w, b, sigmas = _aug_case(21)
    labels = np.array([0, 1, 1, 3, 0, 3, 1])
    bad = sigmas.copy()
    bad[3] = np.diag([1.0, -1e-6, 1.0])
    ap = L.AugParams(lam=2.0, k=1)
    with pytest.raises(ValueError, match="not positive semidefinite within tolerance"):
        L.aug_loss_mean(feats, labels, w, b, bad, ap)
    # a class absent from the batch is not read
    bad[3] = sigmas[3]
    bad[2] = np.diag([1.0, -1.0, 1.0])
    assert L.aug_loss_mean(feats, labels, w, b, bad, ap).data == \
        L.aug_loss_mean(feats, labels, w, b, sigmas, ap).data


def test_sigma_primes_is_a_read_only_symmetrized_copy():
    feats, labels, w, b, sigmas = _aug_case(22)
    sigmas[1] += np.triu(np.full((3, 3), 1e-12), 1)   # symmetric only within tolerance
    rows = np.array([0, 1, 3])
    given = sigmas[rows].copy()
    sp = L.SigmaPrimes(given, rows)
    assert np.array_equal(sp.sigma, (given + np.swapaxes(given, 1, 2)) * 0.5)
    assert np.array_equal(sp.sigma, np.swapaxes(sp.sigma, 1, 2))
    given[0] = 7.0                      # the caller's arrays change afterwards
    rows[0] = 2
    assert np.array_equal(sp.classes, [0, 1, 3]) and sp.sigma[0, 0, 0] != 7.0
    for a in (sp.sigma, sp.classes):
        with pytest.raises(ValueError):
            a[0] = 0


def test_sigma_primes_of_an_exactly_symmetric_stack_is_its_copy():
    *_, sigmas = _aug_case(25)
    rows = np.array([0, 2, 3])
    given = sigmas[rows].copy()
    assert np.array_equal(given, np.swapaxes(given, 1, 2))
    sp = L.SigmaPrimes(given, rows)
    assert sp.sigma.tobytes() == given.tobytes()
    assert sp.sigma.tobytes() == ((given + np.swapaxes(given, 1, 2)) * 0.5).tobytes()
    given[1] = 7.0
    assert not sp.sigma.flags.writeable and sp.sigma[1, 0, 0] != 7.0


def test_sigma_primes_refuses_bad_rows():
    sig = np.stack([np.eye(2)] * 3)
    for classes in ([0, 2, 1], [0, 1, 1], [[0, 1, 2]]):
        with pytest.raises(ValueError, match="sorted and distinct"):
            L.SigmaPrimes(sig, classes)
    with pytest.raises(ValueError, match="one \\(d, d\\) row per class"):
        L.SigmaPrimes(sig, [0, 1])
    bad = sig.copy()
    bad[2] = np.diag([1.0, -1e-6])
    with pytest.raises(ValueError, match="^aug_loss_mean: matrix is not positive semidefinite"):
        L.SigmaPrimes(bad, [0, 1, 2])


def test_aug_loss_mean_on_sigma_primes_equals_raw_array_bit_for_bit():
    feats, labels, w, b, sigmas = _aug_case(23, c=6, d=4, nb=9)
    sigmas[2] += np.triu(np.full((4, 4), 1e-12), 1)
    ap = L.AugParams(lam=3.0, k=1)
    params = {"F": feats, "W": w, "b": b}
    raw = grad(lambda t: L.aug_loss_mean(t["F"], labels, t["W"], t["b"], sigmas, ap), params)
    # the stack holds the batch's classes and more, as a training step's does
    rows = np.union1d(labels, [5])
    sp = L.SigmaPrimes(sigmas[rows], rows)
    for stack in (sp, L.SigmaPrimes(sigmas[np.unique(labels)], np.unique(labels))):
        got = grad(lambda t: L.aug_loss_mean(t["F"], labels, t["W"], t["b"], stack, ap), params)
        assert got.value == raw.value
        for k in params:
            assert got.grads[k].tobytes() == raw.grads[k].tobytes(), k


def test_aug_loss_mean_refuses_label_outside_validated_rows(monkeypatch):
    feats, labels, w, b, sigmas = _aug_case(24)
    labels = np.array([0, 1, 1, 3, 0, 3, 1])
    sp = L.SigmaPrimes(sigmas[[0, 3]], [0, 3])
    ap = L.AugParams(lam=2.0, k=1)
    checked = []
    monkeypatch.setattr(L, "check_psd", lambda s: checked.append(s) or s)
    # a class between the validated ones, and one past the last
    with pytest.raises(ValueError, match="^aug_loss_mean: class 1 lies outside the validated"):
        L.aug_loss_mean(feats, labels, w, b, sp, ap)
    with pytest.raises(ValueError, match="class 4 lies outside"):
        L.aug_loss_mean(feats, np.where(labels == 1, 4, labels), w, b, sp, ap)
    # a stack is read as it is: the call validates nothing again
    L.aug_loss_mean(feats, np.where(labels == 1, 0, labels), w, b, sp, ap)
    assert checked == []


def _s2s_loss_from_primitives(a, b, cp):
    """The prototype contrast of table a (or a stack of them) against one
    table b as a graph of mathcore primitives, with one shift per table."""
    c = a.data.shape[-2]
    diag = np.arange(c)
    cross = (a @ b.T) / cp.tau
    intra = (a @ a.T) / cp.tau
    pos = cross[..., diag, diag] - cp.alpha / cp.tau
    offdiag = 1.0 - np.eye(c)
    shift = np.maximum(cross.data, intra.data).max(axis=(-2, -1))[..., None]
    epos = (pos - shift).exp()
    ecross = ((cross - shift[..., None]).exp() * offdiag).sum(axis=-1)
    eintra = ((intra - shift[..., None]).exp() * offdiag).sum(axis=-1)
    return (-(pos - shift) + (epos + ecross + eintra).log()).mean()


# (s_hat shape, table shape, leaves): a pair, a stack against one table,
# a stack over two leading axes, and each side alone as the leaf.
S2S_CASES = [((5, 4), (5, 4), "ab"), ((3, 5, 4), (5, 4), "ab"), ((2, 3, 5, 4), (5, 4), "ab"),
             ((3, 5, 4), (5, 4), "a"), ((3, 5, 4), (5, 4), "b")]


@pytest.mark.parametrize("sa,sb,leaves", S2S_CASES)
def test_s2s_loss_matches_primitive_graph(sa, sb, leaves):
    rng = Rng(22)
    cp = L.ContrastiveParams(alpha=0.1, tau=1.0 / 30.0)

    def unit(shape):
        raw = rng.normal(size=shape)
        return raw / np.linalg.norm(raw, axis=-1, keepdims=True)

    tables = {"a": unit(sa), "b": unit(sb)}
    params = {k: tables[k] for k in leaves}

    def call(kernel):
        return lambda t: kernel(*(t.get(k, Tensor(tables[k])) for k in "ab"), cp)

    fused = grad(call(L.s2s_loss), params)
    ref = grad(call(_s2s_loss_from_primitives), params)
    assert fused.value == pytest.approx(ref.value, rel=1e-14)
    for k in params:
        assert fused.grads[k].shape == tables[k].shape
        err = np.abs(fused.grads[k] - ref.grads[k]).max() / np.abs(ref.grads[k]).max()
        assert err < 1e-13, k


def _dc_loss_from_primitives(z, labels, log_prior):
    """The calibrated loss as a graph of mathcore primitives: the plain
    cross-entropy of the logits plus the log-prior."""
    b = z.data.shape[-2]
    if log_prior is not None:
        z = z + log_prior
    return -log_softmax(z)[..., np.arange(b), labels].mean()


def _z2s_loss_from_primitives(e, labels, t, cp):
    """The alignment loss as a graph of mathcore primitives."""
    b, c = e.data.shape[-2], t.data.shape[-2]
    margin = np.zeros((b, c))
    margin[np.arange(b), labels] = cp.alpha
    lsm = log_softmax((e @ t.T - margin) / cp.tau)
    return -lsm[..., np.arange(b), labels].mean()


def _assert_fused_matches(fused_fn, ref_fn, params):
    """Bit-equal value, gradients within 1e-13 relative, one op node."""
    leaves = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
    out = fused_fn(leaves)
    assert all(p._backward is None for p in out._parents)
    fused, ref = grad(fused_fn, params), grad(ref_fn, params)
    assert fused.value == ref.value
    for k in params:
        assert fused.grads[k].shape == params[k].shape
        err = np.abs(fused.grads[k] - ref.grads[k]).max() / np.abs(ref.grads[k]).max()
        assert err < 1e-13, k
    return fused


def test_dc_loss_mean_matches_primitive_graph_with_zero_count_classes():
    rng = Rng(23)
    counts = L.DomainClassCounts(np.array([[4, 0, 2, 7, 0, 1], [3, 5, 0, 1, 9, 0]]))
    domains = np.array([0, 1, 0, 1, 1, 0, 1])
    labels = np.array([0, 1, 3, 4, 0, 5, 3])
    z = 3.0 * rng.normal(size=(7, 6))
    n = counts.counts[domains]
    fused = _assert_fused_matches(
        lambda t: L.dc_loss_mean(t["z"], labels, domains, counts),
        lambda t: _dc_loss_from_primitives(t["z"], labels, counts.log_counts[domains]),
        {"z": z})
    assert (fused.grads["z"][n == 0] == 0.0).all()
    assert (fused.grads["z"][n > 0] != 0.0).all()


def test_log_counts_are_read_only_log_n_with_minus_inf_at_zero():
    counts = L.DomainClassCounts(np.array([[4, 0, 2], [1, 5, 0]]))
    lc = counts.log_counts
    assert not lc.flags.writeable
    with pytest.raises(ValueError):
        lc[0, 0] = 0.0
    assert lc.dtype == np.float64
    assert np.array_equal(lc == -np.inf, counts.counts == 0)
    assert np.array_equal(lc[counts.counts > 0], np.log(counts.counts[counts.counts > 0]))
    assert counts.log_counts is lc


def test_dc_loss_mean_unweighted_stack_matches_primitive_graph():
    rng = Rng(24)
    diag = np.arange(5)
    _assert_fused_matches(lambda t: L.dc_loss_mean(t["z"], diag, None, None),
                          lambda t: _dc_loss_from_primitives(t["z"], diag, None),
                          {"z": rng.normal(size=(3, 5, 5))})


def test_dc_loss_mean_refusals_stay():
    counts = L.DomainClassCounts(np.array([[1, 0, 2]]))
    with pytest.raises(ValueError, match="dc_loss_mean: a label has zero count"):
        L.dc_loss_mean(np.zeros((1, 3)), [1], [0], counts)
    # +inf at the zero-count class: refused before its -inf log count is added
    with pytest.raises(ValueError, match="dc_loss_mean: non-finite logits"):
        L.dc_loss_mean(np.array([[0.0, np.inf, 1.0]]), [0], [0], counts)
    with pytest.raises(ValueError, match="dc_loss_mean: non-finite logits"):
        L.dc_loss_mean(np.array([[0.0, 1.0, np.nan]]), [0], [0], None)
    feats, labels, w, b, sigmas = _aug_case(32)
    feats[1, 0] = np.inf
    with pytest.raises(ValueError, match="aug_loss_mean: non-finite logits"):
        L.aug_loss_mean(feats, labels, w, b, sigmas, L.AugParams(lam=1.0, k=1))


# (embeddings shape, table shape, leaves): a 2-D table, (B, d) embeddings
# against a (K, C, d) stack, and each side alone as the leaf.
Z2S_CASES = [((6, 4), (5, 4), "et"), ((6, 4), (3, 5, 4), "et"), ((6, 4), (3, 5, 4), "e"),
             ((6, 4), (3, 5, 4), "t"), ((6, 4), (5, 4), "t")]


@pytest.mark.parametrize("se,st,leaves", Z2S_CASES)
def test_z2s_loss_mean_matches_primitive_graph(se, st, leaves):
    rng = Rng(25)
    cp = L.ContrastiveParams(alpha=0.1, tau=1.0 / 30.0)

    def unit(shape):
        raw = rng.normal(size=shape)
        return raw / np.linalg.norm(raw, axis=-1, keepdims=True)

    arrays = {"e": unit(se), "t": unit(st)}
    labels = rng.integers(0, st[-2], size=se[0])
    params = {k: arrays[k] for k in leaves}

    def call(kernel):
        return lambda t: kernel(t.get("e", Tensor(arrays["e"])), labels,
                                t.get("t", Tensor(arrays["t"])), cp)

    _assert_fused_matches(call(L.z2s_loss_mean), call(_z2s_loss_from_primitives), params)


def test_s2z_loss_grad_encoder_only_leaves():
    rng = Rng(18)
    c, d_v, d_s = 5, 4, 3
    cp = L.ContrastiveParams(alpha=0.1, tau=0.5)
    table = unit_rows(rng, c, d_s)
    v_hat, w, b = rng.normal(size=(c, d_v)), 0.5 * rng.normal(size=(c, d_v)), rng.normal(size=c)

    def fn(t):
        enc = lambda v: normalize_rows((v @ t["We"].T + t["be"]).relu() + 1e-3)
        return L.s2z_loss(v_hat, w, b, enc, table, cp)

    _grad_matches_fd(fn, {"We": rng.normal(size=(d_s, d_v)), "be": rng.normal(size=d_s)})


# ---------------------------------------------------------------------------
# stacked tables: one call on a (K, C, d) stack is the mean of K calls
# ---------------------------------------------------------------------------

def _stack_case(seed, k=3, c=4, d_v=3, d_s=3):
    rng = Rng(seed)
    cp = L.ContrastiveParams(alpha=0.1, tau=0.5)
    tables = np.stack([unit_rows(rng, c, d_s) for _ in range(k)])
    return rng, cp, tables


def test_z2s_loss_mean_stack_is_mean_over_tables():
    rng, cp, tables = _stack_case(31)
    e, labels = unit_rows(rng, 5, 3), rng.integers(0, 4, size=5)
    stacked = L.z2s_loss_mean(e, labels, tables, cp).data
    assert stacked == pytest.approx(np.mean([L.z2s_loss_mean(e, labels, t, cp).data
                                             for t in tables]), abs=1e-14)


def test_s2z_loss_stack_is_mean_over_tables():
    rng, cp, _ = _stack_case(32)
    table = unit_rows(rng, 4, 3)
    v_hat = rng.normal(size=(3, 4, 3))
    w, b = 0.5 * rng.normal(size=(4, 3)), rng.normal(size=4)
    enc = lambda v: normalize_rows((v @ Tensor(np.eye(3)).T).relu() + 1e-3)
    stacked = L.s2z_loss(v_hat, w, b, enc, table, cp).data
    assert stacked == pytest.approx(np.mean([L.s2z_loss(v, w, b, enc, table, cp).data
                                             for v in v_hat]), abs=1e-14)


def test_stacked_kernels_grad_match_fd():
    rng, cp, _ = _stack_case(33)
    k, c, d_v, d_s = 3, 4, 3, 3
    labels = rng.integers(0, c, size=5)
    table = unit_rows(rng, c, d_s)
    _grad_matches_fd(lambda t: L.s2s_loss(normalize_rows(t["a"]), normalize_rows(t["b"]), cp),
                     {"a": rng.normal(size=(k, c, d_s)), "b": rng.normal(size=(c, d_s))})
    _grad_matches_fd(lambda t: L.z2s_loss_mean(normalize_rows(t["e"]), labels,
                                               normalize_rows(t["tab"]), cp),
                     {"e": rng.normal(size=(5, d_s)), "tab": rng.normal(size=(k, c, d_s))})

    def s2z(t):
        enc = lambda v: normalize_rows((v @ t["We"].T + t["be"]).relu() + 1e-3)
        return L.s2z_loss(t["vhat"], t["W"], t["b"], enc, table, cp)

    _grad_matches_fd(s2z, {"vhat": rng.normal(size=(k, c, d_v)),
                           "W": 0.5 * rng.normal(size=(c, d_v)), "b": rng.normal(size=c),
                           "We": rng.normal(size=(d_s, d_v)), "be": rng.normal(size=d_s)})


def _s2s_from_pairs(s_hat, table, cp, pairs):
    """s2s_loss composed of per-pair contrasts written here: the mean table
    term over the stack, plus with `pairs` the mean over the ordered pairs
    of distinct tables."""
    k = s_hat.data.shape[0]
    loss = sum(_s2s_loss_from_primitives(s_hat[m], table, cp) for m in range(k)) * (1.0 / k)
    if pairs and k > 1:
        loss = loss + sum(_s2s_loss_from_primitives(s_hat[m], s_hat[n], cp)
                          for m in range(k) for n in range(k) if m != n) * (1.0 / (k * (k - 1)))
    return loss


@pytest.mark.parametrize("c,d", [(20, 8), (50, 12)])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_s2s_stack_loss_matches_s2s_loss_composition(k, c, d):
    # s2s_loss with and without pairs against per-pair contrasts, at desk and
    # paper_s1 shapes and the training temperature
    rng = Rng(40 + k)
    cp = L.ContrastiveParams(alpha=0.1, tau=1.0 / 30.0)
    params = {"s": np.stack([unit_rows(rng, c, d) for _ in range(k)]),
              "tab": unit_rows(rng, c, d)}
    for pairs in (True, False):
        fused = grad(lambda t: L.s2s_loss(t["s"], t["tab"], cp, pairs=pairs), params)
        ref = grad(lambda t: _s2s_from_pairs(t["s"], t["tab"], cp, pairs), params)
        assert abs(fused.value - ref.value) <= 1e-12 * abs(ref.value), pairs
        for key in params:
            err = np.abs(fused.grads[key] - ref.grads[key]).max()
            assert err <= 1e-12 * np.abs(ref.grads[key]).max(), (key, pairs)


def test_s2s_stack_loss_grad_matches_fd():
    rng = Rng(45)
    cp = L.ContrastiveParams(alpha=0.1, tau=0.5)
    _grad_matches_fd(lambda t: L.s2s_loss(normalize_rows(t["s"]),
                                          normalize_rows(t["tab"]), cp, pairs=True),
                     {"s": rng.normal(size=(3, 4, 3)), "tab": rng.normal(size=(4, 3))})


def test_s2s_stack_loss_refuses_non_unit_rows_and_other_shapes():
    rng = Rng(46)
    cp = L.ContrastiveParams()
    good, table = np.stack([unit_rows(rng, 4, 3) for _ in range(2)]), unit_rows(rng, 4, 3)
    for bad_row in (1.01 * good[1, 2], np.full(3, np.nan)):
        bad = good.copy()
        bad[1, 2] = bad_row
        with pytest.raises(ValueError, match="s2s_loss s_hat"):
            L.s2s_loss(bad, table, cp, pairs=True)
        with pytest.raises(ValueError, match="s2s_loss table"):
            L.s2s_loss(good, bad[1], cp, pairs=True)
    with pytest.raises(ValueError, match="need a"):
        L.s2s_loss(good[0], table, cp, pairs=True)
    for pairs in (True, False):
        with pytest.raises(ValueError, match="need a"):
            L.s2s_loss(good, table[:3], cp, pairs=pairs)
        with pytest.raises(ValueError, match="need a"):
            L.s2s_loss(good, good, cp, pairs=pairs)


def test_semantic_table_and_its_array_give_identical_kernels():
    # a SemanticTable skips the unit-row re-check; nothing else may change
    rng = Rng(28)
    c, d_v, d_s, nb = 5, 4, 3, 7
    cp = L.ContrastiveParams(alpha=0.1, tau=0.2)
    table = B.SemanticTable(unit_rows(rng, c, d_s))
    emb, s_m = unit_rows(rng, nb, d_s), unit_rows(rng, c, d_s)
    labels = rng.integers(0, c, size=nb)
    v_hat, w, b = rng.normal(size=(c, d_v)), rng.normal(size=(c, d_v)), rng.normal(size=c)
    enc_w = rng.normal(size=(d_s, d_v))
    kernels = {
        "z2s": (lambda t, tab: L.z2s_loss_mean(t["x"], labels, tab, cp), emb),
        "s2s_n": (lambda t, tab: L.s2s_loss(t["x"], tab, cp), s_m),
        "s2s_m": (lambda t, tab: L.s2s_loss(tab, t["x"], cp), s_m),
        "s2s_pairs": (lambda t, tab: L.s2s_loss(t["x"], tab, cp, pairs=True), s_m[None]),
        "s2z": (lambda t, tab: L.s2z_loss(t["x"], w, b, lambda v: normalize_rows(
            (v @ Tensor(enc_w).T).relu() + 1e-3), tab, cp), v_hat),
    }
    for name, (fn, x) in kernels.items():
        a = grad(lambda t: fn(t, table), {"x": x})
        r = grad(lambda t: fn(t, table.s), {"x": x})
        assert a.value == r.value, name
        assert np.array_equal(a.grads["x"], r.grads["x"]), name


def test_arrays_with_a_non_unit_row_are_still_refused():
    rng = Rng(29)
    good = unit_rows(rng, 4, 3)
    scaled, nan_row = good.copy(), good.copy()
    scaled[2] *= 1.01
    nan_row[2] = np.nan
    labels = np.array([0, 1, 3])
    cp = L.ContrastiveParams()
    for bad in (scaled, nan_row):
        with pytest.raises(ValueError, match="z2s_loss_mean embeddings"):
            L.z2s_loss_mean(bad[:3], labels, good, cp)
        with pytest.raises(ValueError, match="z2s_loss_mean table"):
            L.z2s_loss_mean(good[:3], labels, bad, cp)
        with pytest.raises(ValueError, match="z2s_loss_mean table"):
            L.z2s_loss_mean(good[:3], labels, Tensor(bad), cp)
        with pytest.raises(ValueError, match="s2s_loss s_hat"):
            L.s2s_loss(bad, good, cp)
        with pytest.raises(ValueError, match="s2s_loss table"):
            L.s2s_loss(good, bad, cp)


def test_aug_loss_mean_on_sigma_asymmetric_within_tolerance():
    # the kernel reads the symmetric part of Sigma'; the reference graph uses
    # Sigma' as given, and the quadratic form cannot tell the two apart
    feats, labels, w, b, sigmas = _aug_case(30, c=6, d=4, nb=11)
    noise = Rng(31).uniform(-1.0, 1.0, size=sigmas.shape)
    sigmas = sigmas + 0.45 * SYM_TOL * (noise - np.swapaxes(noise, 1, 2)) / 2.0
    assert 0.2 * SYM_TOL < np.abs(sigmas - np.swapaxes(sigmas, 1, 2)).max() <= SYM_TOL
    ap = L.AugParams(lam=4.0, k=1)
    params = {"F": feats, "W": w, "b": b}
    fused = grad(lambda t: L.aug_loss_mean(t["F"], labels, t["W"], t["b"], sigmas, ap), params)
    ref = grad(lambda t: _aug_loss_from_primitives(t["F"], labels, t["W"], t["b"], sigmas,
                                                   ap.lam), params)
    assert fused.value == pytest.approx(ref.value, rel=1e-12)
    for k in params:
        scale = np.abs(ref.grads[k]).max()
        assert np.abs(fused.grads[k] - ref.grads[k]).max() <= 1e-12 * scale, k
