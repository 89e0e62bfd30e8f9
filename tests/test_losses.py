import numpy as np
import pytest

from tailshift import losses as L
from tailshift.mathcore import Rng, Tensor, grad

CP0 = L.ContrastiveParams(alpha=0.0, tau=1.0)


def unit_rows(rng, n, d):
    raw = rng.normal(size=(n, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# dc_loss
# ---------------------------------------------------------------------------

def test_dc_uniform_counts_is_cross_entropy():
    counts = L.DomainClassCounts(np.array([[1, 1]]))
    assert L.dc_loss(np.zeros(2), 0, 0, counts) == pytest.approx(np.log(2), abs=1e-15)
    rng = Rng(0)
    counts5 = L.DomainClassCounts(np.full((1, 5), 7))
    for _ in range(10):
        z = rng.normal(size=5)
        ce = -(z[2] - np.log(np.exp(z - z.max()).sum()) - z.max())
        assert L.dc_loss(z, 2, 0, counts5) == pytest.approx(ce, abs=1e-12)


def test_dc_worked_example():
    counts = L.DomainClassCounts(np.array([[3, 1]]))
    assert L.dc_loss(np.zeros(2), 0, 0, counts) == pytest.approx(np.log(4 / 3), abs=1e-12)


def test_dc_zero_count_class_excluded():
    counts = L.DomainClassCounts(np.array([[1, 0]]))
    assert L.dc_loss(np.array([5.0, 100.0]), 0, 0, counts) == pytest.approx(0.0, abs=1e-15)
    g = grad(lambda t: L.dc_loss(t["z"], 0, 0, counts), {"z": np.array([5.0, 100.0])})
    assert g.grads["z"][1] == 0.0


def test_dc_zero_count_label_rejected():
    counts = L.DomainClassCounts(np.array([[1, 0]]))
    with pytest.raises(ValueError):
        L.dc_loss(np.zeros(2), 1, 0, counts)


def test_dc_shift_invariance():
    rng = Rng(1)
    counts = L.DomainClassCounts(rng.integers(0, 9, size=(2, 6)) + 1)
    z = rng.normal(size=6)
    a = L.dc_loss(z, 3, 1, counts)
    b = L.dc_loss(z + 57.25, 3, 1, counts)
    assert a == pytest.approx(b, abs=1e-12)


def test_dc_count_scaling_invariance():
    # scaling a domain's counts by a constant leaves the loss unchanged
    rng = Rng(2)
    base = rng.integers(1, 10, size=(1, 5))
    z = rng.normal(size=5)
    a = L.dc_loss(z, 2, 0, L.DomainClassCounts(base))
    b = L.dc_loss(z, 2, 0, L.DomainClassCounts(base * 13))
    assert a == pytest.approx(b, abs=1e-12)


def test_dc_nonnegative_and_finite():
    rng = Rng(3)
    for _ in range(25):
        counts = L.DomainClassCounts(rng.integers(0, 5, size=(1, 6)) + 1)
        z = 3.0 * rng.normal(size=6)
        val = L.dc_loss(z, int(rng.integers(0, 6)), 0, counts)
        assert np.isfinite(val)


def test_domain_class_counts_validation():
    with pytest.raises(ValueError):
        L.DomainClassCounts(np.array([[0, 0], [1, 1]]))  # empty domain row
    with pytest.raises(ValueError):
        L.DomainClassCounts(np.array([[-1, 2]]))


# ---------------------------------------------------------------------------
# z2s_loss
# ---------------------------------------------------------------------------

def test_z2s_closed_form_orthonormal():
    table = np.eye(2)
    e = np.array([1.0, 0.0])
    assert L.z2s_loss(e, 0, table, CP0) == pytest.approx(np.log(1 + np.exp(-1)), abs=1e-12)


def test_z2s_uniform_sims_is_log_c():
    # all similarities equal: the margin-free loss is ln C
    d = 4
    table = np.full((d, d), 0.5)  # unit rows, all pairwise sims 1
    e = np.full(d, 0.5)
    assert L.z2s_loss(e, 1, table, CP0) == pytest.approx(np.log(d), abs=1e-12)


def test_z2s_paper_scale_temperature():
    cp = L.ContrastiveParams(alpha=0.1, tau=1 / 30)
    val = L.z2s_loss(np.array([1.0, 0.0]), 0, np.eye(2), cp)
    assert val == pytest.approx(np.log1p(np.exp(-27)), rel=1e-3)
    assert val == pytest.approx(1.9e-12, rel=0.05)


def test_z2s_strictly_positive():
    rng = Rng(4)
    cp = L.ContrastiveParams(alpha=0.1, tau=0.2)
    for _ in range(20):
        table = unit_rows(rng, 5, 3)
        e = unit_rows(rng, 1, 3)[0]
        assert L.z2s_loss(e, int(rng.integers(0, 5)), table, cp) > 0


def test_z2s_rejects_non_normalized():
    with pytest.raises(ValueError):
        L.z2s_loss(np.array([1.0, 1.0]), 0, np.eye(2), CP0)
    with pytest.raises(ValueError):
        L.z2s_loss(np.array([1.0, 0.0]), 0, 2 * np.eye(2), CP0)


# ---------------------------------------------------------------------------
# s2s_loss
# ---------------------------------------------------------------------------

def test_s2s_identical_orthonormal_tables():
    expect = np.log(1 + 2 * np.exp(-1))
    assert L.s2s_loss(np.eye(2), np.eye(2), CP0) == pytest.approx(expect, abs=1e-12)


def test_s2s_sharp_temperature_limit():
    cp = L.ContrastiveParams(alpha=0.0, tau=1 / 100)
    assert L.s2s_loss(np.eye(2), np.eye(2), cp) < 1e-9


def test_s2s_all_rows_equal():
    for c, d in [(3, 4), (5, 2)]:
        row = np.full(d, 1.0 / np.sqrt(d))
        table = np.tile(row, (c, 1))
        assert L.s2s_loss(table, table, CP0) == pytest.approx(np.log(2 * c - 1), abs=1e-12)


def test_s2s_shape_mismatch():
    with pytest.raises(ValueError):
        L.s2s_loss(np.eye(2), np.eye(3), CP0)


def test_s2s_margin_raises_loss():
    rng = Rng(5)
    a, b = unit_rows(rng, 4, 3), unit_rows(rng, 4, 3)
    lo = L.s2s_loss(a, b, L.ContrastiveParams(alpha=0.0, tau=0.5))
    hi = L.s2s_loss(a, b, L.ContrastiveParams(alpha=0.3, tau=0.5))
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
    val = L.s2z_loss(v_hat, w, b, enc, table, CP0)
    assert val == pytest.approx(np.log(c) + L.s2s_loss(table, table, CP0), abs=1e-12)


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
        from tailshift.mathcore import normalize_rows
        return normalize_rows(raw)

    total = L.s2z_loss(v_hat, w, b, enc, table, CP0)
    logits = v_hat @ w.T + b
    ce_terms = []
    for i in range(c):
        zi = logits[i]
        ce_terms.append(-(zi[i] - zi.max() - np.log(np.exp(zi - zi.max()).sum())))
    expect = np.mean(ce_terms) + L.s2s_loss(enc(Tensor(v_hat)).data, table, CP0)
    assert total == pytest.approx(expect, abs=1e-10)


# ---------------------------------------------------------------------------
# aug_loss / aug_bound
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
        val = L.aug_loss(f, y, w, b, sig, L.AugParams(lam=0.0, k=1))
        assert val == pytest.approx(_ce(w @ f + b, y), abs=1e-12)


def test_aug_loss_sigma_zero_is_cross_entropy():
    rng = Rng(8)
    c, d = 4, 3
    w = rng.normal(size=(c, d))
    b = rng.normal(size=c)
    f = rng.normal(size=d)
    y = 2
    val = L.aug_loss(f, y, w, b, np.zeros((d, d)), L.AugParams(lam=5.0, k=1))
    assert val == pytest.approx(_ce(w @ f + b, y), abs=1e-12)


def test_aug_loss_worked_example():
    w = np.array([[1.0, 0.0], [0.0, 0.0]])
    f = np.array([1.0, 0.0])
    val = L.aug_loss(f, 0, w, np.zeros(2), np.eye(2), L.AugParams(lam=2.0, k=1))
    assert val == pytest.approx(np.log(2), abs=1e-12)


def test_aug_loss_monotone_in_lambda():
    rng = Rng(9)
    c, d = 5, 4
    w = 0.5 * rng.normal(size=(c, d))
    b = rng.normal(size=c)
    f = rng.normal(size=d)
    a = rng.normal(size=(d, d))
    sig = a @ a.T
    vals = [L.aug_loss(f, 1, w, b, sig, L.AugParams(lam=lam, k=1))
            for lam in (0.0, 1.0, 2.0, 5.0, 10.0)]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_aug_loss_rejects_non_psd():
    with pytest.raises(ValueError):
        L.aug_loss(np.zeros(2), 0, np.eye(2), np.zeros(2),
                   np.diag([1.0, -0.5]), L.AugParams(lam=1.0, k=1))


def test_aug_bound_degenerate_gaussian():
    rng = Rng(11)
    c, d = 5, 3
    w = rng.normal(size=(c, d))
    b = rng.normal(size=c)
    mu = rng.normal(size=d)
    bound = L.aug_bound(mu, np.zeros((d, d)), w, b, 2, lam=5.0)
    assert bound == pytest.approx(_ce(w @ mu + b, 2), abs=1e-12)


def test_aug_bound_single_class_is_zero():
    assert L.aug_bound(np.ones(3), np.eye(3), np.ones((1, 3)), np.zeros(1), 0, 2.0) \
        == pytest.approx(0.0, abs=1e-15)


def test_aug_bound_dominates_monte_carlo():
    # E[CE] over f ~ N(mu, lam Sigma) must not exceed the bound + 3 SE.
    rng = Rng(12)
    n = 20000
    for trial in range(5):
        c = int(rng.integers(2, 7))
        d = int(rng.integers(2, 7))
        w = rng.normal(size=(c, d))
        b = rng.normal(size=c)
        mu = rng.normal(size=d)
        a = 0.7 * rng.normal(size=(d, d))
        sigma = a @ a.T
        lam = float(rng.uniform(0.2, 4.0))
        y = int(rng.integers(0, c))
        bound = L.aug_bound(mu, sigma, w, b, y, lam)
        z = rng.normal(size=(n, d))
        f = mu + np.sqrt(lam) * (z @ a.T)
        logits = f @ w.T + b
        m = logits.max(axis=1, keepdims=True)
        ce = -(logits[np.arange(n), y] - m[:, 0] - np.log(np.exp(logits - m).sum(axis=1)))
        est, se = ce.mean(), ce.std(ddof=1) / np.sqrt(n)
        assert est <= bound + 3 * se


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
    batched = L.aug_loss_mean(feats, labels, w, b, sigmas, ap)
    singles = np.mean([L.aug_loss(feats[i], int(labels[i]), w, b,
                                  sigmas[int(labels[i])], ap) for i in range(nb)])
    assert batched == pytest.approx(singles, abs=1e-12)


def test_losses_finite_and_nonnegative_on_valid_inputs():
    rng = Rng(14)
    cp = L.ContrastiveParams(alpha=0.1, tau=0.25)
    counts = L.DomainClassCounts(rng.integers(0, 6, size=(2, 5)) + 1)
    for _ in range(10):
        z = 2.0 * rng.normal(size=5)
        table = unit_rows(rng, 5, 4)
        e = unit_rows(rng, 1, 4)[0]
        y = int(rng.integers(0, 5))
        for val in (L.dc_loss(z, y, 1, counts),
                    L.z2s_loss(e, y, table, cp),
                    L.s2s_loss(table, unit_rows(rng, 5, 4), cp)):
            assert np.isfinite(val) and val >= 0.0
