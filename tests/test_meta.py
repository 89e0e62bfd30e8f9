import dataclasses

import numpy as np
import pytest

from tailshift import data as D
from tailshift import meta as MT
from tailshift import model as M
from tailshift.banks import update_prototypes
from tailshift.errors import ConfigError, ProtocolError
from tailshift.losses import ContrastiveParams, dc_loss_mean
from tailshift.mathcore import Rng, collect_grads, make_leaves


def bench(seed=0, **kw):
    base = dict(n_classes=6, n_train_domains=3, d_x=5, d_s=4, n_max=30, n_min=4,
                n_val_per_pair=2, n_test_per_pair=2, seed=seed)
    base.update(kw)
    return D.generate(D.SyntheticConfig(**base))


MCFG = M.ModelConfig(d_x=5, d_v=5, d_s=4, n_classes=6, hidden=(8,))


def tconf(**kw):
    base = dict(t_max=6, t_sigma=3, steps_per_epoch=1, batch_size=6, seed=0)
    base.update(kw)
    return MT.TrainConfig(**base)


# ---------------------------------------------------------------------------
# split_domains
# ---------------------------------------------------------------------------

def test_split_domains_two_domains():
    mtr, mte = MT.split_domains([0, 1], 1, Rng(0))
    assert set(mtr) | set(mte) == {0, 1}
    assert not set(mtr) & set(mte)
    assert len(mte) == 1


def test_split_domains_sizes():
    mtr, mte = MT.split_domains([0, 1, 2, 3], 1, Rng(1))
    assert len(mtr) == 3 and len(mte) == 1


def test_split_domains_deterministic_sequence():
    a = [MT.split_domains([0, 1, 2, 3], 2, rng) for rng in [Rng(5)] for _ in range(8)]
    b = [MT.split_domains([0, 1, 2, 3], 2, rng) for rng in [Rng(5)] for _ in range(8)]
    assert a == b


def test_split_domains_uniform_coverage():
    rng = Rng(2)
    seen = {MT.split_domains([0, 1, 2], 1, rng)[1] for _ in range(60)}
    assert seen == {(0,), (1,), (2,)}


def test_split_domains_size_validation():
    with pytest.raises(ConfigError):
        MT.split_domains([0, 1], 2, Rng(0))


# ---------------------------------------------------------------------------
# step mechanics
# ---------------------------------------------------------------------------

def test_outer_step_w_mte_zero_ignores_meta_grads():
    params = {"w": np.array([1.0, 2.0])}
    g1 = {"w": np.array([1.0, 0.0])}
    g2 = {"w": np.array([100.0, 100.0])}
    cfg = tconf(w_mte=0.0)
    out = MT.outer_step(params, g1, g2, cfg, lr=0.5)
    assert np.allclose(out["w"], [0.5, 2.0], atol=1e-15)


def test_outer_step_zero_lr_keeps_params():
    params = {"w": np.array([1.0])}
    out = MT.outer_step(params, {"w": np.array([5.0])}, None, tconf(), lr=0.0)
    assert np.array_equal(out["w"], params["w"])


def test_ablation_rows_structure():
    cfg = tconf()
    row_a = MT.apply_ablation(cfg, "a")
    assert not row_a.use_dc and not row_a.use_meta and not row_a.use_aug
    row_h = MT.apply_ablation(cfg, "h")
    assert row_h.use_dc and row_h.use_aug and not row_h.use_z2s
    row_k = MT.apply_ablation(cfg, "k")
    assert row_k.single_prototype and row_k.use_meta
    row_l = MT.apply_ablation(cfg, "l")
    assert row_l.unweighted_blend
    with pytest.raises(ConfigError):
        MT.apply_ablation(cfg, "z")


def test_train_config_validation():
    with pytest.raises(ConfigError):
        tconf(t_sigma=99)
    with pytest.raises(ConfigError):
        tconf(w1=-0.1)
    with pytest.raises(ConfigError):
        tconf(mte_size=0)


def test_lr_schedule_decays_at_milestones():
    cfg = tconf(t_max=10, t_sigma=0, beta2=0.1)
    assert cfg.lr_outer(0) == pytest.approx(0.1)
    assert cfg.lr_outer(4) == pytest.approx(0.01)
    assert cfg.lr_outer(8) == pytest.approx(0.001)


# ---------------------------------------------------------------------------
# loss assembly
# ---------------------------------------------------------------------------

def test_report_components_resum():
    ds = bench()
    cfg = tconf(t_max=5, t_sigma=2, w1=0.2, w2=0.3, w3=0.15, w4=0.05)
    res = MT.run(ds, cfg, MCFG)
    for rep in res.reports:
        ls = rep.losses
        expect = ls["L_Cls"] + cfg.w1 * ls["L_Z2S"] + cfg.w2 * ls["L_S2S"] \
            + cfg.w3 * ls["L_S2Z"] + cfg.w4 * ls["L_Aug"]
        assert ls["L_mtr"] == pytest.approx(expect, abs=1e-10)
        expect_mte = ls["L_MCls"] + cfg.w1 * ls["L_MZ2S"] + cfg.w4 * ls["L_MAug"]
        assert ls["L_mte"] == pytest.approx(expect_mte, abs=1e-10)


def test_zero_aux_weights_reduce_to_classification():
    ds = bench()
    cfg = tconf(w1=0.0, w2=0.0, w3=0.0, w4=0.0)
    res = MT.run(ds, cfg, MCFG)
    for rep in res.reports:
        assert rep.losses["L_mtr"] == rep.losses["L_Cls"]
        assert rep.losses["L_mte"] == rep.losses["L_MCls"]


def test_aug_inactive_before_t_sigma():
    ds = bench()
    cfg = tconf(t_max=6, t_sigma=4)
    res = MT.run(ds, cfg, MCFG)
    for rep in res.reports:
        if rep.epoch < 4:
            assert rep.losses["L_Aug"] == 0.0
            assert rep.losses["L_MAug"] == 0.0
        else:
            assert rep.losses["L_Aug"] > 0.0
    # covariance bank only starts accumulating at t_sigma
    assert res.cov.n.sum() > 0


def test_meta_test_losses_match_train_on_identical_batches():
    # with theta' = theta (beta1 irrelevant here) and the same concrete
    # batches, the calibrated classification terms coincide
    ds = bench()
    cfg = tconf(use_z2s=False, use_s2s=False, use_s2z=False, use_aug=False)
    st = MT.init_state(ds, cfg, MCFG)
    rng = Rng(3)
    batches = {0: D.sample_batch(ds, 0, 6, rng), 1: D.sample_batch(ds, 1, 6, rng)}
    leaves = make_leaves(st.params)
    l_mtr, comps, *_ = MT.meta_train_losses(
        leaves, batches, st.proto, st.cov, ds.semantic, ds.counts, cfg, MCFG, False)
    l_mte, comps_te = MT.meta_test_losses(
        make_leaves(st.params), batches, st.proto, ds.semantic, ds.counts,
        cfg, MCFG, False, None, d_mtr=(2,))
    assert comps_te["L_MCls"] == pytest.approx(comps["L_Cls"], abs=1e-12)


def test_meta_test_rejects_domain_overlap():
    ds = bench()
    cfg = tconf()
    st = MT.init_state(ds, cfg, MCFG)
    rng = Rng(4)
    batches = {0: D.sample_batch(ds, 0, 4, rng)}
    with pytest.raises(ProtocolError):
        MT.meta_test_losses(make_leaves(st.params), batches, st.proto,
                               ds.semantic, ds.counts, cfg, MCFG, False, None,
                               d_mtr=(0, 1))


def test_compositional_oracle_two_domains():
    # independently recompute every enabled component from the same banks
    ds = bench()
    cfg = tconf(use_aug=False)
    st = MT.init_state(ds, cfg, MCFG)
    rng = Rng(5)
    batches = {n: D.sample_batch(ds, n, 5, rng) for n in (0, 1)}
    leaves = make_leaves(st.params)
    l_mtr, comps, proto2, _, _ = MT.meta_train_losses(
        leaves, batches, st.proto, st.cov, ds.semantic, ds.counts, cfg, MCFG, False)

    from tailshift.losses import s2s_loss, s2z_loss, z2s_loss_mean
    from tailshift.banks import complete_semantic, decode_prototypes

    enc = lambda v: M.encode(st.params, v, MCFG)
    dec = lambda s: M.decode(st.params, s, MCFG)
    cls_terms, z2s_terms = [], []
    for n in (0, 1):
        x, y = batches[n]
        z = M.forward_features(st.params, x, MCFG)
        cls_terms.append(dc_loss_mean(M.forward_logits(st.params, z).data, y,
                                      np.full(len(y), n), ds.counts))
        z2s_terms.append(z2s_loss_mean(M.encode(st.params, z, MCFG).data, y,
                                       ds.semantic, cfg.cp))
    s_hat = {n: complete_semantic(proto2, enc, ds.semantic, n) for n in (0, 1)}
    pair = np.mean([s2s_loss(s_hat[0].data, s_hat[1].data, cfg.cp),
                    s2s_loss(s_hat[1].data, s_hat[0].data, cfg.cp)])
    anchor = np.mean([s2s_loss(s_hat[n].data, ds.semantic.s, cfg.cp) for n in (0, 1)])
    s2z = np.mean([s2z_loss(decode_prototypes(s_hat[n], dec).data, st.params["cls.W"],
                            st.params["cls.b"], enc, ds.semantic, cfg.cp)
                   for n in (0, 1)])
    assert comps["L_Cls"] == pytest.approx(np.mean(cls_terms), abs=1e-10)
    assert comps["L_Z2S"] == pytest.approx(np.mean(z2s_terms), abs=1e-10)
    assert comps["L_S2S"] == pytest.approx(pair + anchor, abs=1e-10)
    assert comps["L_S2Z"] == pytest.approx(s2z, abs=1e-10)
    expect = comps["L_Cls"] + cfg.w1 * comps["L_Z2S"] + cfg.w2 * comps["L_S2S"] \
        + cfg.w3 * comps["L_S2Z"]
    assert float(l_mtr.data) == pytest.approx(expect, abs=1e-10)


# ---------------------------------------------------------------------------
# run-level properties
# ---------------------------------------------------------------------------

def test_run_deterministic_reports():
    ds = bench()
    cfg = tconf()
    a = MT.run(ds, cfg, MCFG)
    b = MT.run(ds, cfg, MCFG)
    assert [r.to_json() for r in a.reports] == [r.to_json() for r in b.reports]
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


def test_row_a_is_plain_cross_entropy():
    ds = bench()
    cfg = MT.apply_ablation(tconf(), "a")
    res = MT.run(ds, cfg, MCFG)
    for rep in res.reports:
        ls = rep.losses
        assert ls["L_mtr"] == ls["L_Cls"]
        assert ls["L_Z2S"] == ls["L_S2S"] == ls["L_S2Z"] == ls["L_Aug"] == 0.0
        assert rep.d_mte == ()


def test_run_equals_plain_gradient_descent():
    # meta off, auxiliary weights zero: the trainer must be step-for-step
    # identical to a hand-rolled minibatch descent on the calibrated loss
    ds = bench()
    cfg = tconf(t_max=10, t_sigma=10, use_meta=False, use_z2s=False,
                use_s2s=False, use_s2z=False, use_aug=False)
    res = MT.run(ds, cfg, MCFG)

    root = Rng(cfg.seed)
    init_rng, loop_rng = root.split(2)
    params = M.init_params(MCFG, init_rng)
    domains = [0, 1, 2]
    for step in range(10):
        batches = {n: D.sample_batch(ds, n, cfg.batch_size, loop_rng) for n in domains}
        leaves = make_leaves(params)
        acc = None
        for n in domains:
            x, y = batches[n]
            z = M.forward_features(leaves, x, MCFG)
            term = dc_loss_mean(M.forward_logits(leaves, z), y,
                                np.full(len(y), n), ds.counts)
            acc = term if acc is None else acc + term
        loss = acc / float(len(domains))
        loss.backward()
        params = M.apply_step(params, collect_grads(leaves), cfg.lr_outer(step))
    for k in params:
        assert np.array_equal(params[k], res.params[k]), k


def test_w_mte_zero_never_reads_meta_test_data(monkeypatch):
    ds = bench()
    cfg = tconf(w_mte=0.0)
    calls = []
    real = MT.sample_batch

    def spy(dataset, domain, batch_size, rng):
        calls.append(domain)
        return real(dataset, domain, batch_size, rng)

    monkeypatch.setattr(MT, "sample_batch", spy)
    res = MT.run(ds, cfg, MCFG)
    for rep, sampled in zip(res.reports, np.array_split(calls, len(res.reports))):
        assert set(sampled) == set(rep.d_mtr)
        assert not set(sampled) & set(rep.d_mte)


def test_single_prototype_coincides_with_k1():
    ds = bench(n_train_domains=1)
    base = tconf(use_meta=False, t_max=6, t_sigma=3)
    a = MT.run(ds, base, MCFG)
    b = MT.run(ds, dataclasses.replace(base, single_prototype=True), MCFG)
    assert [r.to_json() for r in a.reports] == [r.to_json() for r in b.reports]
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


def test_single_prototype_uses_one_table():
    ds = bench()
    cfg = tconf(single_prototype=True)
    res = MT.run(ds, cfg, MCFG)
    assert res.proto.v.shape[0] == 1
    assert np.isfinite(res.reports[-1].losses["L_S2S"])


def test_row_a_fits_separable_toy():
    # balanced, widely separated clusters: CE training accuracy reaches 1.0
    ds = bench(n_max=12, n_min=12, noise_scale=0.1, transform_strength=0.05,
               anchor_spread=5.0)
    cfg = MT.apply_ablation(tconf(t_max=200, t_sigma=200, batch_size=12), "a")
    res = MT.run(ds, cfg, MCFG)
    train = ds.split == "train"
    logits = M.predict_logits(res.params, ds.x[train], MCFG)
    acc = (logits.argmax(axis=1) == ds.y[train]).mean()
    assert acc == 1.0


def episode_inputs(ds, cfg, mcfg):
    """Initial state and the first step's split and batches, drawn as `run`
    draws them."""
    st = MT.init_state(ds, cfg, mcfg)
    rng = Rng(0)
    rng.set_state(st.rng_state)
    d_mtr, d_mte = MT.split_domains(range(ds.n_train_domains), cfg.mte_size, rng)
    b_mtr = {n: D.sample_batch(ds, n, cfg.batch_size, rng) for n in d_mtr}
    b_mte = {m: D.sample_batch(ds, m, cfg.batch_size, rng) for m in d_mte}
    return st, b_mtr, b_mte


def test_fd_exact_rejects_large_models():
    ds = bench()
    cfg = tconf()
    big = M.ModelConfig(d_x=5, d_v=32, d_s=4, n_classes=6, hidden=(64,))
    st, b_mtr, b_mte = episode_inputs(ds, cfg, big)
    with pytest.raises(ConfigError):
        MT.outer_gradients(st.params, b_mtr, b_mte, st.proto, st.cov, ds.semantic,
                           ds.counts, cfg, big, False, mode="fd_exact")


def test_run_step_is_first_order_outer_gradient():
    ds = bench()
    cfg = tconf(t_max=1, t_sigma=0)
    st, b_mtr, b_mte = episode_inputs(ds, cfg, MCFG)
    g = MT.outer_gradients(st.params, b_mtr, b_mte, st.proto, st.cov, ds.semantic,
                           ds.counts, cfg, MCFG, True, mode="first_order")
    expect = M.apply_step(st.params, g, cfg.lr_outer(0))
    res = MT.run(ds, cfg, MCFG)
    assert list(res.params) == list(expect)
    for k in expect:
        assert np.array_equal(res.params[k], expect[k])


def test_meta_needs_two_domains():
    ds = bench(n_train_domains=1)
    with pytest.raises(ConfigError):
        MT.run(ds, tconf(), MCFG)


def test_first_order_close_to_fd_exact():
    ds = bench(n_classes=3, n_train_domains=3, d_x=2, d_s=2, n_max=20, n_min=4)
    mcfg = M.ModelConfig(d_x=2, d_v=3, d_s=2, n_classes=3, hidden=())
    cfg = tconf(beta1=0.1, use_aug=False,
                cp=ContrastiveParams(alpha=0.0, tau=0.5))
    cosines = []
    for seed in range(3):
        cfg_s = dataclasses.replace(cfg, seed=seed)
        st, b_mtr, b_mte = episode_inputs(ds, cfg_s, mcfg)
        proto = st.proto
        for n in b_mtr:
            z = M.forward_features(st.params, b_mtr[n][0], mcfg).data
            proto = update_prototypes(proto, n, z, b_mtr[n][1])
        g1 = MT.outer_gradients(st.params, b_mtr, b_mte, proto, st.cov,
                                ds.semantic, ds.counts, cfg_s, mcfg, False,
                                mode="first_order")
        g2 = MT.outer_gradients(st.params, b_mtr, b_mte, proto, st.cov,
                                ds.semantic, ds.counts, cfg_s, mcfg, False,
                                mode="fd_exact")
        v1, v2 = M.flatten_params(g1), M.flatten_params(g2)
        cosines.append(v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2)))
    assert np.mean(cosines) > 0.9


def test_resume_matches_uninterrupted_run():
    ds = bench()
    cfg = tconf(t_max=8, t_sigma=4)
    snap = {}

    def hook(state, report):
        if report.step == 3:
            snap["state"] = state

    full = MT.run(ds, cfg, MCFG, on_step=hook)
    resumed = MT.run(ds, cfg, MCFG, state=snap["state"])
    assert resumed.reports[0].step == 4
    tail = [r.to_json() for r in full.reports[4:]]
    assert [r.to_json() for r in resumed.reports] == tail
    for k in full.params:
        assert np.array_equal(full.params[k], resumed.params[k])
