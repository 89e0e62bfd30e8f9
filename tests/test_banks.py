import numpy as np
import pytest

from tailshift import banks as B
from tailshift.mathcore import Rng, Tensor, fd_grad, grad, normalize_rows, streams


def unit_rows(rng, n, d):
    raw = rng.normal(size=(n, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def make_table(rng, c=4, d_s=3):
    return B.SemanticTable(unit_rows(rng, c, d_s))


# ---------------------------------------------------------------------------
# SemanticTable
# ---------------------------------------------------------------------------

def test_semantic_table_validation():
    with pytest.raises(ValueError):
        B.SemanticTable(np.ones((3, 2)))  # non-unit rows
    with pytest.raises(ValueError):
        B.SemanticTable(np.ones((1, 4)))  # needs >= 2 classes
    table = make_table(Rng(0))
    assert table.n_classes == 4 and table.dim == 3


def test_semantic_table_is_a_read_only_copy():
    rows = unit_rows(Rng(23), 4, 3)
    table = B.SemanticTable(rows)
    before = table.s.copy()
    rows[0] = [0.0, 0.0, 5.0]          # the caller's array changes afterwards
    assert np.array_equal(table.s, before)
    with pytest.raises(ValueError):
        table.s[0, 0] = 2.0
    idx = table.neighbours(2)
    with pytest.raises(ValueError):
        idx[0, 0] = 3
    assert np.array_equal(table.s, before)


def test_neighbour_index_computed_once_per_k(monkeypatch):
    calls = []
    topk = B.topk_neighbours

    def spying_topk(table, k):
        calls.append((id(table), k))
        return topk(table, k)

    monkeypatch.setattr(B, "topk_neighbours", spying_topk)
    rng = Rng(24)
    table, other = make_table(rng, c=5, d_s=3), make_table(rng, c=5, d_s=3)
    bank = B.update_covariance(B.CovarianceBank.zeros(5, 2), rng.normal(size=(20, 2)),
                               rng.integers(0, 5, size=20))
    first = B.blend_covariance(bank, table, k=3)[0]
    for _ in range(3):
        assert np.array_equal(B.blend_covariance(bank, table, k=3)[0], first)
        B.blend_covariance(bank, table, k=2, weighted=False)
        B.blend_covariance(bank, other, k=3)
    assert sorted(calls) == sorted([(id(table), 3), (id(table), 2), (id(other), 3)])
    assert np.array_equal(table.neighbours(3), topk(table, 3))


# ---------------------------------------------------------------------------
# prototype EMA
# ---------------------------------------------------------------------------

def test_update_prototypes_fixed_point():
    bank = B.PrototypeBank.zeros(np.ones((1, 2), dtype=bool), d_v=2)
    bank.v[0, 0] = [3.0, -1.0]
    feats = np.tile([3.0, -1.0], (4, 1))
    out = B.update_prototypes(bank, 0, feats, np.zeros(4, dtype=int))
    assert np.allclose(out.v[0, 0], [3.0, -1.0], atol=1e-15)


def test_update_prototypes_half_mixing():
    bank = B.PrototypeBank.zeros(np.ones((1, 1), dtype=bool), d_v=2)
    out = B.update_prototypes(bank, 0, np.array([[2.0, 2.0]]), np.array([0]))
    assert np.allclose(out.v[0, 0], [1.0, 1.0], atol=1e-15)


def test_update_prototypes_untouched_classes():
    rng = Rng(1)
    bank = B.PrototypeBank.zeros(np.ones((2, 3), dtype=bool), d_v=2)
    bank.v[:] = rng.normal(size=bank.v.shape)
    before = bank.v.copy()
    out = B.update_prototypes(bank, 0, np.array([[1.0, 0.0]]), np.array([0]))
    assert np.array_equal(out.v[0, 1:], before[0, 1:])
    assert np.array_equal(out.v[1], before[1])
    assert np.array_equal(bank.v, before)  # input bank untouched


def test_update_prototypes_masked_label_rejected():
    mask = np.array([[True, False]])
    bank = B.PrototypeBank.zeros(mask, d_v=2)
    with pytest.raises(ValueError):
        B.update_prototypes(bank, 0, np.ones((1, 2)), np.array([1]))


def test_update_prototypes_error_names_masked_class_and_domain():
    mask = np.array([[True, True, True], [True, False, True]])
    bank = B.PrototypeBank.zeros(mask, d_v=2)
    with pytest.raises(ValueError, match="class 1 unseen in domain 1"):
        B.update_prototypes(bank, 1, np.ones((3, 2)), np.array([2, 1, 0]))
    # with one row per sample, the row of the offending sample is named
    with pytest.raises(ValueError, match="class 1 unseen in domain 1"):
        B.update_prototypes(bank, np.array([0, 1, 1]), np.ones((3, 2)), np.array([1, 0, 1]))


def test_update_prototypes_matches_per_class_means():
    rng = Rng(20)
    bank = B.PrototypeBank(v=rng.normal(size=(2, 5, 3)), mask=np.ones((2, 5), dtype=bool))
    feats, labels = rng.normal(size=(12, 3)), rng.integers(0, 4, size=12)
    out = B.update_prototypes(bank, 1, feats, labels)
    for c in range(5):
        expect = bank.v[1, c] if c not in labels else \
            0.5 * feats[labels == c].mean(axis=0) + 0.5 * bank.v[1, c]
        assert np.abs(out.v[1, c] - expect).max() < 1e-14
    assert np.array_equal(out.v[0], bank.v[0])


@pytest.mark.parametrize("n_classes,d_v,batch", [(20, 16, 16), (50, 32, 48)])
def test_pooled_update_equals_per_domain_loop(n_classes, d_v, batch):
    # desk and paper_s1 shapes: three domains' batches in one call, each
    # sample in its own domain's row, give the per-domain calls' bits
    rng = Rng(21)
    bank = B.PrototypeBank(v=rng.normal(size=(4, n_classes, d_v)),
                           mask=np.ones((4, n_classes), dtype=bool))
    doms = np.array([0, 2, 3])
    feats = rng.normal(size=(3 * batch, d_v))
    labels = rng.integers(0, n_classes, size=3 * batch)
    rows = np.repeat(doms, batch)
    loop = bank
    for n in doms:
        sel = rows == n
        loop = B.update_prototypes(loop, n, feats[sel], labels[sel])
    pooled = B.update_prototypes(bank, rows, feats, labels)
    assert np.array_equal(pooled.v, loop.v)


def test_shared_row_steps_once_toward_pooled_class_mean():
    # one global row (ablation row k): two domains' samples of a class make
    # one EMA step toward their pooled mean, not one step per domain
    bank = B.PrototypeBank.zeros(np.ones((1, 2), dtype=bool), d_v=2)
    bank.v[0] = [[4.0, 0.0], [0.0, 8.0]]
    feats = np.array([[2.0, 0.0], [0.0, 2.0], [6.0, 4.0]])
    out = B.update_prototypes(bank, 0, feats, np.array([0, 1, 0]))
    assert np.array_equal(out.v[0, 0], 0.5 * np.array([4.0, 2.0]) + 0.5 * bank.v[0, 0])
    assert np.array_equal(out.v[0, 1], 0.5 * np.array([0.0, 2.0]) + 0.5 * bank.v[0, 1])


def test_masked_off_rows_stay_zero():
    rng = Rng(2)
    mask = np.array([[True, False, True], [False, True, True]])
    bank = B.PrototypeBank.zeros(mask, d_v=3)
    for _ in range(5):
        for dom in range(2):
            classes = np.nonzero(mask[dom])[0]
            labels = rng.choice(classes, size=6)
            bank = B.update_prototypes(bank, dom, rng.normal(size=(6, 3)), labels)
    assert np.array_equal(bank.v[0, 1], np.zeros(3))
    assert np.array_equal(bank.v[1, 0], np.zeros(3))


# ---------------------------------------------------------------------------
# complete_semantic
# ---------------------------------------------------------------------------

def _norm_encoder(c, d_s):
    def enc(v):
        data = np.asarray(v.data if isinstance(v, Tensor) else v, dtype=float)
        out = np.zeros((c, d_s))
        for i, row in enumerate(data):
            n = np.linalg.norm(row)
            out[i] = row[:d_s] / n if n > 0 else np.eye(d_s)[0]
        return Tensor(out)
    return enc


def test_complete_semantic_all_live():
    rng = Rng(3)
    table = make_table(rng, c=3, d_s=3)
    bank = B.PrototypeBank.zeros(np.ones((1, 3), dtype=bool), d_v=3)
    bank.v[0] = rng.normal(size=(3, 3))
    enc = _norm_encoder(3, 3)
    out = B.complete_semantic(bank, enc, table, 0)
    assert np.allclose(out.data, enc(bank.v[0]).data, atol=1e-12)


def test_complete_semantic_all_masked_off():
    rng = Rng(4)
    table = make_table(rng, c=3, d_s=3)
    bank = B.PrototypeBank.zeros(np.zeros((1, 3), dtype=bool), d_v=3)
    out = B.complete_semantic(bank, _norm_encoder(3, 3), table, 0)
    assert np.array_equal(out.data, table.s)


def test_complete_semantic_mixed_rows():
    rng = Rng(5)
    table = make_table(rng, c=2, d_s=3)
    bank = B.PrototypeBank.zeros(np.array([[True, False]]), d_v=3)
    bank.v[0, 0] = [2.0, 0.0, 0.0]
    out = B.complete_semantic(bank, _norm_encoder(2, 3), table, 0)
    assert np.allclose(out.data[0], [1.0, 0.0, 0.0], atol=1e-12)
    assert np.array_equal(out.data[1], table.s[1])


def test_complete_semantic_zero_init_rows_fall_back_to_table():
    # a masked row that was never EMA-updated holds no estimate yet
    rng = Rng(6)
    table = make_table(rng, c=2, d_s=3)
    bank = B.PrototypeBank.zeros(np.array([[True, True]]), d_v=3)
    bank.v[0, 0] = [0.0, 3.0, 0.0]
    out = B.complete_semantic(bank, _norm_encoder(2, 3), table, 0)
    assert np.allclose(out.data[0], [0.0, 1.0, 0.0], atol=1e-12)
    assert np.array_equal(out.data[1], table.s[1])


def test_complete_semantic_rows_unit():
    rng = Rng(7)
    table = make_table(rng, c=5, d_s=4)
    mask = rng.uniform(size=(1, 5)) > 0.4
    mask[0, 0] = True
    bank = B.PrototypeBank.zeros(mask, d_v=4)
    for c in np.nonzero(mask[0])[0]:
        bank.v[0, c] = rng.normal(size=4)
    out = B.complete_semantic(bank, _norm_encoder(5, 4), table, 0)
    assert np.abs(np.linalg.norm(out.data, axis=1) - 1.0).max() < 1e-10


def test_complete_semantic_stack_equals_per_row_tables():
    rng = Rng(8)
    table = make_table(rng, c=4, d_s=3)
    mask = np.array([[True, True, False, True], [True, False, True, True],
                     [False, True, True, True]])
    bank = B.PrototypeBank.zeros(mask, d_v=3)
    bank.v[mask] = rng.normal(size=(int(mask.sum()), 3))
    bank.v[1, 3] = 0.0                      # masked in but not yet estimated
    w = rng.normal(size=(3, 3))
    enc = lambda v: normalize_rows((v @ Tensor(w).T).relu() + 1e-3)
    out = B.complete_semantic(bank, enc, table, [0, 2])
    assert out.data.shape == (2, 4, 3)
    for i, row in enumerate([0, 2]):
        single = B.complete_semantic(bank, enc, table, row).data
        assert np.abs(out.data[i] - single).max() <= 1e-14
    assert np.array_equal(B.complete_semantic(bank, enc, table, [1]).data[0, 3], table.s[3])
    # the encoder gets its gradient through the stacked rows
    wts = rng.normal(size=(2, 4, 3))

    def fn(t):
        enc_t = lambda v: normalize_rows((v @ t["w"].T).relu() + 1e-3)
        return (B.complete_semantic(bank, enc_t, table, [0, 2]) * wts).sum()

    a, f = grad(fn, {"w": w}), fd_grad(fn, {"w": w}, eps=1e-6)
    assert np.abs(a.grads["w"] - f.grads["w"]).max() < 1e-7


# ---------------------------------------------------------------------------
# streaming covariance
# ---------------------------------------------------------------------------

def test_covariance_first_sample():
    bank = B.CovarianceBank.zeros(2, 3)
    x = np.array([[1.0, 2.0, 3.0]])
    out = B.update_covariance(bank, x, np.array([0]))
    assert np.array_equal(out.mu[0], x[0])
    assert np.array_equal(out.sigma[0], np.zeros((3, 3)))
    assert out.n[0] == 1 and out.n[1] == 0


def test_covariance_streaming_equals_oneshot():
    c, d = 3, 4
    for schedule_rng in streams(9, 5):
        bank = B.CovarianceBank.zeros(c, d)
        all_x, all_y = [], []
        for _ in range(int(schedule_rng.integers(2, 6))):
            m = int(schedule_rng.integers(1, 8))
            x = schedule_rng.normal(size=(m, d))
            y = schedule_rng.integers(0, c, size=m)
            bank = B.update_covariance(bank, x, y)
            all_x.append(x)
            all_y.append(y)
        xs = np.concatenate(all_x)
        ys = np.concatenate(all_y)
        for cls in range(c):
            sel = xs[ys == cls]
            if len(sel) == 0:
                continue
            mu = sel.mean(axis=0)
            centered = sel - mu
            sig = centered.T @ centered / len(sel)
            assert np.abs(bank.mu[cls] - mu).max() < 1e-10
            assert np.abs(bank.sigma[cls] - sig).max() < 1e-10
            assert bank.n[cls] == len(sel)


def _two_pass(x, y, c):
    """Per-class mean and population covariance, computed class by class."""
    mu, sig = np.zeros((c, x.shape[1])), np.zeros((c, x.shape[1], x.shape[1]))
    for cls in np.unique(y):
        sel = x[y == cls]
        mu[cls] = sel.mean(axis=0)
        centred = sel - mu[cls]
        sig[cls] = centred.T @ centred / len(sel)
    return mu, sig, np.bincount(y, minlength=c)


def _unbalanced_batch(rng, nb, d, c):
    """One class holds all but two samples (the largest padding); the other
    two are singletons of distinct classes. Rows come in shuffled order."""
    y = np.full(nb, 3)
    y[:2] = [0, c - 1]
    return 2.0 + rng.normal(size=(nb, d)), y[rng.permutation(nb)]


def test_update_covariance_matches_two_pass_per_class():
    rng = Rng(25)
    c, d = 6, 4
    bank = B.CovarianceBank.zeros(c, d)
    x1, y1 = _unbalanced_batch(rng, 13, d, c)
    x2, y2 = rng.normal(size=(17, d)), rng.integers(0, c - 1, size=17)
    xs, ys = np.empty((0, d)), np.empty(0, dtype=int)
    for x, y in ((x1, y1), (x2, y2)):
        bank = B.update_covariance(bank, x, y)
        xs, ys = np.vstack([xs, x]), np.concatenate([ys, y])
        mu, sig, n = _two_pass(xs, ys, c)
        assert np.array_equal(bank.n, n)
        assert np.abs(bank.mu - mu).max() < 1e-13
        assert np.abs(bank.sigma - sig).max() < 1e-13
        assert np.array_equal(bank.sigma, np.swapaxes(bank.sigma, 1, 2))
    # after the first batch the singletons hold an exactly zero covariance
    first = B.update_covariance(B.CovarianceBank.zeros(c, d), x1, y1)
    assert np.array_equal(first.sigma[[0, c - 1]], np.zeros((2, d, d)))
    assert np.array_equal(first.mu[0], x1[y1 == 0][0])


def _batch_statistics(x, y):
    """Each class's mean, from segment sums of the label-sorted batch, and
    population covariance G / m, G the Gram product of its centred rows. The
    rows are zero-padded to one more than the largest class, the length of
    ``update_covariance``'s stack, since the product's length can change its
    summation order."""
    counts = np.bincount(y)
    classes = np.flatnonzero(counts)
    counts = counts[classes]
    starts = np.cumsum(counts) - counts
    xs = x[np.argsort(y, kind="stable")]
    mu_b = np.add.reduceat(xs, starts, axis=0) / counts[:, None].astype(np.float64)
    padded = np.zeros((len(classes), counts.max() + 1, x.shape[1]))
    for i, (s, m) in enumerate(zip(starts, counts)):
        padded[i, :m] = xs[s:s + m] - mu_b[i]
    sig_b = np.swapaxes(padded, 1, 2) @ padded
    sig_b /= counts[:, None, None].astype(np.float64)
    return classes, mu_b, sig_b


def test_first_merge_of_a_class_stores_batch_statistics_exactly():
    # a class's first batch (n = 0) is stored bit for bit as computed, and
    # whatever its mean and covariance slots held is not read: here class 4
    # holds NaN. From zeros the merge formula gives the same bits (m (G/m)/m
    # rounds back to G/m), so only such slots tell the rule from the formula.
    rng = Rng(27)
    c, d = 6, 4
    bank = B.update_covariance(B.CovarianceBank.zeros(c, d), rng.normal(size=(9, d)),
                               np.repeat([0, 1, 2], 3))
    bank.mu[4], bank.sigma[4] = np.nan, np.nan
    x, y = 0.7 + rng.normal(size=(12, d)), np.repeat([1, 3, 4, 5], 3)
    classes, mu_b, sig_b = _batch_statistics(x, y)
    out = B.update_covariance(bank, x, y)
    new = classes != 1
    assert np.array_equal(out.sigma[classes[new]], sig_b[new])
    assert np.array_equal(out.mu[classes[new]], mu_b[new])
    assert not np.array_equal(out.sigma[1], sig_b[0])
    assert np.array_equal(out.n, [3, 6, 3, 3, 3, 3])


def test_update_covariance_streaming_in_1_2_5_batches():
    rng = Rng(26)
    c, d, nb = 5, 3, 40
    x, y = 1.0 + rng.normal(size=(nb, d)), rng.integers(0, c, size=nb)
    y[:3] = [4, 4, 2]
    mu, sig, n = _two_pass(x, y, c)
    for parts in (1, 2, 5):
        bank = B.CovarianceBank.zeros(c, d)
        for xb, yb in zip(np.array_split(x, parts), np.array_split(y, parts)):
            bank = B.update_covariance(bank, xb, yb)
        assert np.array_equal(bank.n, n), parts
        assert np.abs(bank.mu - mu).max() < 1e-12, parts
        assert np.abs(bank.sigma - sig).max() < 1e-12, parts


def test_covariance_empty_class_unchanged():
    rng = Rng(10)
    bank = B.CovarianceBank.zeros(2, 2)
    bank = B.update_covariance(bank, rng.normal(size=(5, 2)), np.zeros(5, dtype=int))
    before = bank.copy()
    bank = B.update_covariance(bank, rng.normal(size=(3, 2)), np.zeros(3, dtype=int))
    assert np.array_equal(bank.mu[1], before.mu[1])
    assert np.array_equal(bank.sigma[1], before.sigma[1])
    assert bank.n[1] == 0


# ---------------------------------------------------------------------------
# covariance blending
# ---------------------------------------------------------------------------

def test_blend_k1_is_identity():
    rng = Rng(11)
    table = make_table(rng, c=4, d_s=3)
    bank = B.CovarianceBank.zeros(4, 2)
    bank = B.update_covariance(bank, rng.normal(size=(20, 2)),
                               rng.integers(0, 4, size=20))
    sig, empty = B.blend_covariance(bank, table, k=1)
    assert np.array_equal(sig, bank.sigma)
    assert not empty.any()


def test_blend_worked_example():
    # classes 0 and 1 nearly parallel, class 2 orthogonal; k = 2 picks {0, 1}
    s = np.array([[1.0, 0.0, 0.0],
                  [np.cos(0.1), np.sin(0.1), 0.0],
                  [0.0, 0.0, 1.0]])
    table = B.SemanticTable(s)
    bank = B.CovarianceBank(mu=np.zeros((3, 2)),
                            sigma=np.stack([2 * np.eye(2), np.eye(2), 5 * np.eye(2)]),
                            n=np.array([10, 2, 7]))
    sig, empty = B.blend_covariance(bank, table, k=2)
    assert np.allclose(sig[0], (10 * 2 + 2 * 1) / 12 * np.eye(2), atol=1e-12)
    assert not empty.any()


def test_blend_unweighted_mean():
    s = np.array([[1.0, 0.0], [np.cos(0.1), np.sin(0.1)]])
    table = B.SemanticTable(s)
    bank = B.CovarianceBank(mu=np.zeros((2, 2)),
                            sigma=np.stack([2 * np.eye(2), np.eye(2)]),
                            n=np.array([10, 2]))
    sig, _ = B.blend_covariance(bank, table, k=2, weighted=False)
    assert np.allclose(sig[0], 1.5 * np.eye(2), atol=1e-12)


def test_blend_weighted_equals_unweighted_for_equal_counts():
    rng = Rng(12)
    table = make_table(rng, c=5, d_s=3)
    factors = rng.normal(size=(5, 3, 3))
    bank = B.CovarianceBank(mu=np.zeros((5, 3)),
                            sigma=np.stack([f @ f.T for f in factors]),
                            n=np.full(5, 4))
    a, _ = B.blend_covariance(bank, table, k=3, weighted=True)
    b, _ = B.blend_covariance(bank, table, k=3, weighted=False)
    assert np.abs(a - b).max() < 1e-12


def test_blend_preserves_psd():
    rng = Rng(13)
    table = make_table(rng, c=6, d_s=4)
    factors = rng.normal(size=(6, 3, 3))
    bank = B.CovarianceBank(mu=np.zeros((6, 3)),
                            sigma=np.stack([f @ f.T for f in factors]),
                            n=rng.integers(1, 10, size=6))
    sig, _ = B.blend_covariance(bank, table, k=4)
    for m in sig:
        assert np.linalg.eigvalsh(m).min() >= -1e-10


def test_blend_all_zero_counts_flagged():
    rng = Rng(14)
    table = make_table(rng, c=3, d_s=3)
    bank = B.CovarianceBank.zeros(3, 2)
    sig, empty = B.blend_covariance(bank, table, k=2)
    assert empty.all()
    assert np.array_equal(sig, np.zeros_like(sig))


def test_blend_tie_break_and_self_inclusion():
    # duplicate rows: similarity ties; the class itself must stay selected
    row = np.array([1.0, 0.0])
    table = B.SemanticTable(np.stack([row, row, [0.0, 1.0]]))
    bank = B.CovarianceBank(mu=np.zeros((3, 2)),
                            sigma=np.stack([np.eye(2), 3 * np.eye(2), 9 * np.eye(2)]),
                            n=np.array([1, 1, 1]))
    sig, _ = B.blend_covariance(bank, table, k=1)
    assert np.array_equal(sig[1], 3 * np.eye(2))  # class 1 keeps its own sigma
    assert np.array_equal(B.topk_neighbours(table, 2)[1], np.array([1, 0]))


def _neighbours_by_class(table, k):
    """The per-class rule: the class first, then the others by a stable
    argsort of descending similarity (ties to the lower index)."""
    rows = []
    for c in range(table.n_classes):
        order = np.argsort(-(table.s @ table.s[c]), kind="stable")
        rows.append([c] + [int(j) for j in order if j != c][: k - 1])
    return np.asarray(rows)


def test_neighbour_index_matches_per_class_rule():
    rng = Rng(21)
    rows = unit_rows(rng, 6, 3)
    # duplicates of classes 1 and 4 give exact similarity ties, including
    # ties with the class itself
    table = B.SemanticTable(np.vstack([rows, rows[1], rows[4], rows[1]]))
    for k in range(1, table.n_classes + 1):
        assert np.array_equal(B.topk_neighbours(table, k), _neighbours_by_class(table, k)), k


def test_blend_matches_per_class_mix():
    rng = Rng(22)
    table = make_table(rng, c=7, d_s=3)
    factors = rng.normal(size=(7, 3, 3))
    bank = B.CovarianceBank(mu=np.zeros((7, 3)),
                            sigma=np.stack([f @ f.T for f in factors]),
                            n=np.array([5, 0, 0, 3, 0, 9, 1]))
    bank.sigma[bank.n == 0] = 0.0
    assert np.array_equal(bank.sigma, np.swapaxes(bank.sigma, 1, 2))
    for weighted in (True, False):
        sig, empty = B.blend_covariance(bank, table, k=2, weighted=weighted)
        assert np.array_equal(sig, np.swapaxes(sig, 1, 2))
        for c, sel in enumerate(_neighbours_by_class(table, 2)):
            n_sel = bank.n[sel].astype(float)
            assert empty[c] == (n_sel.sum() == 0)
            if empty[c]:
                assert np.array_equal(sig[c], np.zeros((3, 3)))
                continue
            wts = n_sel if weighted else np.ones(2)
            expect = np.einsum("i,ijk->jk", wts, bank.sigma[sel]) / wts.sum()
            assert np.abs(sig[c] - expect).max() < 1e-13


def test_blend_of_rows_is_those_rows_of_the_whole_blend():
    rng = Rng(24)
    c, d = 9, 4
    table = make_table(rng, c=c, d_s=3)
    x, y = rng.normal(size=(40, d)), rng.integers(0, c - 2, size=40)
    bank = B.update_covariance(B.CovarianceBank.zeros(c, d), x, y)
    for weighted in (True, False):
        whole, whole_empty = B.blend_covariance(bank, table, k=3, weighted=weighted)
        for rows in (np.array([0, 3, 7, 8]), np.arange(c), np.array([5])):
            sig, empty = B.blend_covariance(bank, table, k=3, weighted=weighted, rows=rows)
            assert sig.shape == (len(rows), d, d)
            assert np.array_equal(empty, whole_empty[rows])
            assert np.abs(sig - whole[rows]).max() <= 1e-15 * np.abs(whole).max()


def test_blend_k_out_of_range():
    rng = Rng(15)
    table = make_table(rng, c=3, d_s=3)
    bank = B.CovarianceBank.zeros(3, 2)
    with pytest.raises(ValueError):
        B.blend_covariance(bank, table, k=0)
    with pytest.raises(ValueError):
        B.blend_covariance(bank, table, k=4)
