import dataclasses
import weakref

import numpy as np
import pytest

from tailshift import data as D
from tailshift import losses as L
from tailshift import meta as MT
from tailshift import model as M
from tailshift.banks import (
    blend_covariance,
    complete_semantic,
    update_covariance,
    update_prototypes,
)
from tailshift.errors import ConfigError, DataFormatError, NumericsError, ProtocolError
from tailshift.losses import (
    ContrastiveParams,
    aug_loss_mean,
    dc_loss_mean,
    s2s_loss,
    s2z_loss,
    z2s_loss_mean,
)
from tailshift.config import load_run_config
from tailshift.gradcheck import fd_exact
from tailshift.mathcore import (Rng, Tensor, collect_grads, make_leaves, rng_from_state,
                                rng_state, streams)


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
    mtr, mte = MT.split_domains([0, 1], Rng(0))
    assert set(mtr) | set(mte) == {0, 1}
    assert not set(mtr) & set(mte)
    assert len(mte) == 1


def test_split_domains_sizes():
    mtr, mte = MT.split_domains([0, 1, 2, 3], Rng(1))
    assert len(mtr) == 3 and len(mte) == 1


def test_split_domains_deterministic_sequence():
    a = [MT.split_domains([0, 1, 2, 3], rng) for rng in [Rng(5)] for _ in range(8)]
    b = [MT.split_domains([0, 1, 2, 3], rng) for rng in [Rng(5)] for _ in range(8)]
    assert a == b


def test_split_domains_keeps_its_draw():
    # one meta-test domain, from the draw every stream was recorded with
    rng, twin = Rng(9), Rng(9)
    for _ in range(12):
        m = int(twin.choice(4, size=1, replace=False)[0])
        assert MT.split_domains(range(4), rng) == (tuple(v for v in range(4) if v != m), (m,))
    assert rng_state(rng) == rng_state(twin)


def test_split_domains_uniform_coverage():
    rng = Rng(2)
    seen = {MT.split_domains([0, 1, 2], rng)[1] for _ in range(60)}
    assert seen == {(0,), (1,), (2,)}


def test_split_domains_size_validation():
    with pytest.raises(ConfigError, match="needs >= 2 training domains"):
        MT.split_domains([0], Rng(0))


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
    assert res.state.cov.n.sum() > 0


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


def test_unequal_domain_batches_refused():
    # the pooled mean equals the mean of per-domain means only for equal sizes
    ds = bench()
    cfg = tconf()
    st = MT.init_state(ds, cfg, MCFG)
    rng = Rng(4)
    batches = {0: D.sample_batch(ds, 0, 4, rng), 1: D.sample_batch(ds, 1, 5, rng)}
    with pytest.raises(ProtocolError, match="differ in size"):
        MT.meta_train_losses(make_leaves(st.params), batches, st.proto, st.cov,
                             ds.semantic, ds.counts, cfg, MCFG, False)
    with pytest.raises(ProtocolError, match="differ in size"):
        MT.meta_test_losses(make_leaves(st.params), batches, st.proto, ds.semantic,
                            ds.counts, cfg, MCFG, False, None, d_mtr=(2,))


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
    from tailshift.banks import complete_semantic

    enc = lambda v: M.encode(st.params, v, MCFG)
    dec = lambda s: M.decode(st.params, s, MCFG)
    cls_terms, z2s_terms = [], []
    for n in (0, 1):
        x, y = batches[n]
        z = M.forward_features(st.params, x, MCFG)
        cls_terms.append(dc_loss_mean(M.forward_logits(st.params, z).data, y,
                                      np.full(len(y), n), ds.counts).data)
        z2s_terms.append(z2s_loss_mean(M.encode(st.params, z, MCFG).data, y,
                                       ds.semantic, cfg.cp).data)
    s_hat = {n: complete_semantic(proto2, enc, ds.semantic, n) for n in (0, 1)}
    pair = np.mean([s2s_loss(s_hat[0].data, s_hat[1].data, cfg.cp).data,
                    s2s_loss(s_hat[1].data, s_hat[0].data, cfg.cp).data])
    anchor = np.mean([s2s_loss(s_hat[n].data, ds.semantic.s, cfg.cp).data for n in (0, 1)])
    s2z = np.mean([s2z_loss(dec(s_hat[n]).data, st.params["cls.W"],
                            st.params["cls.b"], enc, ds.semantic, cfg.cp).data
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
    # identical to a hand-rolled minibatch descent on the calibrated loss of
    # the domains' batches pooled
    ds = bench()
    cfg = tconf(t_max=10, t_sigma=10, use_meta=False, use_z2s=False,
                use_s2s=False, use_s2z=False, use_aug=False)
    res = MT.run(ds, cfg, MCFG)

    init_rng, loop_rng = streams(cfg.seed, 2)
    params = M.init_params(MCFG, init_rng)
    domains = [0, 1, 2]
    for step in range(10):
        batches = {n: D.sample_batch(ds, n, cfg.batch_size, loop_rng) for n in domains}
        x = np.concatenate([batches[n][0] for n in domains])
        y = np.concatenate([batches[n][1] for n in domains])
        dom = np.repeat(domains, cfg.batch_size)
        leaves = make_leaves(params)
        z = M.forward_features(leaves, x, MCFG)
        dc_loss_mean(M.forward_logits(leaves, z), y, dom, ds.counts).backward()
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
    assert res.state.proto.v.shape[0] == 1
    assert np.isfinite(res.reports[-1].losses["L_S2S"])


@pytest.mark.parametrize("row", list(MT.ABLATION_ROWS))
def test_prototypes_update_only_when_a_loss_reads_them(row, monkeypatch):
    # rows a-e and h run no loss that reads the bank (L_S2S, L_S2Z, or
    # L_MZ2S on a meta-test half): they never update it
    ds = bench()
    cfg = MT.apply_ablation(tconf(), row)
    calls = []

    def spy(*args):
        calls.append(args)
        return update_prototypes(*args)

    monkeypatch.setattr(MT, "update_prototypes", spy)
    res = MT.run(ds, cfg, MCFG)
    if row in "abcdeh":
        assert calls == []
        assert np.array_equal(res.state.proto.v, MT.init_state(ds, cfg, MCFG).proto.v)
    else:
        assert len(calls) == cfg.total_steps


def test_row_a_fits_separable_toy():
    # balanced, widely separated clusters: CE training accuracy reaches 1.0
    ds = bench(n_max=12, n_min=12, noise_scale=0.1, transform_strength=0.05,
               anchor_spread=5.0)
    cfg = MT.apply_ablation(tconf(t_max=200, t_sigma=200, batch_size=12), "a")
    res = MT.run(ds, cfg, MCFG)
    train = ds.indices("train")
    logits = M.predict_logits(res.params, ds.x[train], MCFG)
    acc = (logits.argmax(axis=1) == ds.y[train]).mean()
    assert acc == 1.0


def episode_inputs(ds, cfg, mcfg, st=None):
    """A trainer state (the initial one by default) and its step's split and
    batches, drawn as `run` draws them."""
    st = MT.init_state(ds, cfg, mcfg) if st is None else st
    rng = rng_from_state(st.rng_state)
    d_mtr, d_mte = MT.split_domains(range(ds.n_train_domains), rng)
    b_mtr = {n: D.sample_batch(ds, n, cfg.batch_size, rng) for n in d_mtr}
    b_mte = {m: D.sample_batch(ds, m, cfg.batch_size, rng) for m in d_mte}
    return st, b_mtr, b_mte


def per_domain_episode(params, b_mtr, b_mte, proto, cov, table, counts, cfg, mcfg):
    """Reference episode with augmentation on, written domain by domain: one
    feature pass and one kernel call per domain and per prototype table,
    each loss the mean over domains (over tables for the prototype terms),
    and one covariance merge per meta-train domain."""
    def features(leaves, batches):
        return {n: (M.forward_features(leaves, batches[n][0], mcfg),
                    np.asarray(batches[n][1])) for n in sorted(batches)}

    def mean(terms):
        return sum(terms[1:], terms[0]) / float(len(terms))

    def cls(leaves, feats):
        return mean([dc_loss_mean(M.forward_logits(leaves, z), y, np.full(len(y), n), counts)
                     for n, (z, y) in feats.items()])

    def aug(leaves, feats):
        return mean([aug_loss_mean(z, y, leaves["cls.W"], leaves["cls.b"], sigma_prime, cfg.ap)
                     for z, y in feats.values()])

    leaves = make_leaves(params)
    enc = lambda v: M.encode(leaves, v, mcfg)
    feats = features(leaves, b_mtr)
    rows = sorted(feats)
    terms = {"L_Cls": cls(leaves, feats),
             "L_Z2S": mean([z2s_loss_mean(enc(z), y, table, cfg.cp) for z, y in feats.values()])}
    for n, (z, y) in feats.items():
        proto = update_prototypes(proto, n, z.data, y)
        cov = update_covariance(cov, z.data, y)
    sigma_prime, _ = blend_covariance(cov, table, min(cfg.ap.k, counts.n_classes))
    s_hat = {r: complete_semantic(proto, enc, table, r) for r in rows}
    terms["L_S2S"] = mean([s2s_loss(s_hat[n], table.s, cfg.cp) for n in rows]) \
        + mean([s2s_loss(s_hat[m], s_hat[n], cfg.cp) for m in rows for n in rows if m != n])
    terms["L_S2Z"] = mean([s2z_loss(M.decode(leaves, s_hat[r], mcfg), leaves["cls.W"],
                                    leaves["cls.b"], enc, table, cfg.cp) for r in rows])
    terms["L_Aug"] = aug(leaves, feats)
    l_mtr = terms["L_Cls"] + cfg.w1 * terms["L_Z2S"] + cfg.w2 * terms["L_S2S"] \
        + cfg.w3 * terms["L_S2Z"] + cfg.w4 * terms["L_Aug"]
    l_mtr.backward()
    g_mtr = collect_grads(leaves)

    leaves = make_leaves(M.apply_step(params, g_mtr, cfg.beta1))
    enc = lambda v: M.encode(leaves, v, mcfg)
    feats = features(leaves, b_mte)
    emb = {m: enc(z) for m, (z, _) in feats.items()}
    l_mz2s = mean([z2s_loss_mean(emb[m], y, table, cfg.cp) for m, (_, y) in feats.items()])
    for r in rows:
        s_prime = complete_semantic(proto, enc, table, r)
        l_mz2s = l_mz2s + mean([z2s_loss_mean(emb[m], y, s_prime, cfg.cp)
                                for m, (_, y) in feats.items()]) / float(len(rows))
    terms.update(L_mtr=l_mtr, L_MCls=cls(leaves, feats), L_MZ2S=l_mz2s,
                 L_MAug=aug(leaves, feats))
    l_mte = terms["L_MCls"] + cfg.w1 * l_mz2s + cfg.w4 * terms["L_MAug"]
    l_mte.backward()
    comps = {k: float(v.data) for k, v in terms.items()}
    comps["L_mte"] = float(l_mte.data)
    value = comps["L_mtr"] + cfg.w_mte * comps["L_mte"]
    return value, g_mtr, collect_grads(leaves), comps, proto, cov


class _Stop(Exception):
    pass


def test_pooled_episode_equals_per_domain_reference():
    # desk's first augmentation-active episode, from the state training
    # reaches there; pooling changes only the order of round-off
    cfg, _ = load_run_config("desk")
    ds = D.generate(cfg.data)
    first_aug = cfg.train.t_sigma * cfg.train.steps_per_epoch
    snap = {}

    def hook(state, report):
        if state.step == first_aug:
            snap["state"] = state
            raise _Stop

    with pytest.raises(_Stop):
        MT.run(ds, cfg.train, cfg.model, on_step=hook)
    st, b_mtr, b_mte = episode_inputs(ds, cfg.train, cfg.model, snap["state"])
    args = (st.params, b_mtr, b_mte, st.proto, st.cov, ds.semantic, ds.counts,
            cfg.train, cfg.model)
    value, g_mtr, g_mte, comps, proto, cov = MT.episode(*args, True)
    r_value, r_mtr, r_mte, r_comps, r_proto, r_cov = per_domain_episode(*args)

    def rel(a, b):
        # blockwise: largest difference over the largest reference entry
        # (a block the episode leaves at zero must stay exactly zero)
        a, b = np.asarray(a), np.asarray(b)
        return float(np.abs(a - b).max() / max(np.abs(b).max(), np.finfo(float).tiny))

    assert rel(value, r_value) <= 1e-12
    assert comps.keys() == r_comps.keys() and min(r_comps.values()) > 0
    for k in comps:
        assert rel(comps[k], r_comps[k]) <= 1e-12, k
    for g, r in ((g_mtr, r_mtr), (g_mte, r_mte)):
        for k in g:
            assert rel(g[k], r[k]) <= 1e-12, k
    assert np.array_equal(proto.mask, r_proto.mask)
    assert rel(proto.v, r_proto.v) <= 1e-12
    assert np.array_equal(cov.n, r_cov.n)
    assert rel(cov.mu, r_cov.mu) <= 1e-12 and rel(cov.sigma, r_cov.sigma) <= 1e-12


def count_op_nodes(loss):
    """Op nodes (tensors with a backward function) reachable from `loss`."""
    seen, todo, ops = {id(loss)}, [loss], 0
    while todo:
        node = todo.pop()
        ops += node._backward is not None
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return ops


# Op nodes of the first desk episode with augmentation on, per half. Each
# layer (affine, rectified or not), normalization, prototype completion, loss
# kernel and loss total is one node; only L_S2Z's and L_MZ2S's reported sums
# keep a `+` node of their own. Meta-train: 2 feature layers, logits, L_Cls;
# encoder (2) and L_Z2S; completed tables (encoder 2, mask fill); L_S2S;
# L_S2Z (decoder, logits, L_Cls, encoder 2, s2s, +); L_Aug; L_mtr. Meta-test:
# 2 feature layers, logits, L_MCls; encoder (2); completed tables (3); two
# L_MZ2S kernels and their +; L_MAug; L_mte. A change that splits a fused
# node apart again, or fuses more, must change these counts.
DESK_EPISODE_NODES = [20, 14]


def test_desk_episode_graph_node_bound(monkeypatch):
    cfg, _ = load_run_config("desk")
    ds = D.generate(cfg.data)
    st, b_mtr, b_mte = episode_inputs(ds, cfg.train, cfg.model)
    counted = []
    backward = Tensor.backward

    def counting_backward(loss):
        counted.append(count_op_nodes(loss))
        return backward(loss)

    monkeypatch.setattr(Tensor, "backward", counting_backward)
    MT.episode(st.params, b_mtr, b_mte, st.proto, st.cov, ds.semantic, ds.counts,
               cfg.train, cfg.model, True)
    assert counted == DESK_EPISODE_NODES


def test_desk_episode_builds_no_gradient_for_constants(monkeypatch):
    cfg, _ = load_run_config("desk")
    ds = D.generate(cfg.data)
    st, b_mtr, b_mte = episode_inputs(ds, cfg.train, cfg.model)
    targets = []
    accum = Tensor._accum

    def spying_accum(p, g):
        targets.append(p.requires_grad)
        return accum(p, g)

    monkeypatch.setattr(Tensor, "_accum", staticmethod(spying_accum))
    MT.episode(st.params, b_mtr, b_mte, st.proto, st.cov, ds.semantic, ds.counts,
               cfg.train, cfg.model, True)
    assert targets and all(targets)


def full_dfs_backward(loss):
    """``Tensor.backward`` as a depth-first walk of every node, leaves and
    constants included, then each op node's backward in reverse post-order."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def test_backward_over_op_nodes_matches_full_walk_bit_for_bit(monkeypatch):
    # desk's first augmentation-active episode, meta-train and meta-test
    cfg, _ = load_run_config("desk")
    ds = D.generate(cfg.data)
    st, b_mtr, b_mte = episode_inputs(ds, cfg.train, cfg.model)
    args = (st.params, b_mtr, b_mte, st.proto, st.cov, ds.semantic, ds.counts,
            cfg.train, cfg.model, True)
    _, g_mtr, g_mte, *_ = MT.episode(*args)
    monkeypatch.setattr(Tensor, "backward", full_dfs_backward)
    _, r_mtr, r_mte, *_ = MT.episode(*args)
    for got, want in ((g_mtr, r_mtr), (g_mte, r_mte)):
        assert list(got) == list(want)
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k


def test_meta_train_graph_is_freed_before_the_meta_test_graph_is_built(monkeypatch):
    # backward() consumes the meta-train graph, so nothing holds the
    # meta-train features once their gradient has been collected
    cfg, _ = load_run_config("desk")
    ds = D.generate(cfg.data)
    st, b_mtr, b_mte = episode_inputs(ds, cfg.train, cfg.model)
    feats, alive = [], []
    forward_features, meta_test_losses = M.forward_features, MT.meta_test_losses

    def recording_features(*args):
        out = forward_features(*args)
        feats.append(weakref.ref(out.data))
        return out

    def checking_meta_test(*args):
        alive.append(feats[0]() is not None)
        return meta_test_losses(*args)

    monkeypatch.setattr(M, "forward_features", recording_features)
    monkeypatch.setattr(MT, "meta_test_losses", checking_meta_test)
    MT.episode(st.params, b_mtr, b_mte, st.proto, st.cov, ds.semantic, ds.counts,
               cfg.train, cfg.model, True)
    assert alive == [False] and len(feats) == 2


def test_sigma_prime_is_validated_once_per_step_on_both_halves(monkeypatch):
    # one check_psd per augmentation step, through the losses binding, on
    # exactly the classes the two halves read
    cfg, _ = load_run_config("desk")
    ds = D.generate(cfg.data)
    st, b_mtr, b_mte = episode_inputs(ds, cfg.train, cfg.model)
    checked, real = [], L.check_psd
    monkeypatch.setattr(L, "check_psd", lambda s, **kw: checked.append(s.shape[0]) or real(s, **kw))
    built = []
    monkeypatch.setattr(MT, "SigmaPrimes", lambda *a: built.append(L.SigmaPrimes(*a)) or built[-1])
    MT.episode(st.params, b_mtr, b_mte, st.proto, st.cov, ds.semantic, ds.counts,
               cfg.train, cfg.model, True)
    labels = np.concatenate([b[1] for b in (*b_mtr.values(), *b_mte.values())])
    assert len(built) == 1
    assert np.array_equal(built[0].classes, np.unique(labels))
    assert checked == [len(np.unique(labels))]


def test_non_psd_row_read_only_by_meta_test_half_stops_the_step(monkeypatch):
    cfg, _ = load_run_config("desk")
    ds = D.generate(cfg.data)
    st, b_mtr, b_mte = episode_inputs(ds, cfg.train, cfg.model)
    y_mtr = np.concatenate([b[1] for b in b_mtr.values()])
    y_mte = np.concatenate([b[1] for b in b_mte.values()])
    only_mte = np.setdiff1d(y_mte, y_mtr)
    assert only_mte.size
    real = MT.blend_covariance

    def spoiled_blend(bank, table, k, weighted=True, rows=None):
        sig, empty = real(bank, table, k, weighted, rows)
        sig[np.searchsorted(rows, only_mte[0])] = np.diag(np.r_[-1.0, np.ones(len(sig[0]) - 1)])
        return sig, empty

    monkeypatch.setattr(MT, "blend_covariance", spoiled_blend)
    calls = []
    monkeypatch.setattr(MT, "meta_test_losses", lambda *a: calls.append(a))
    with pytest.raises(ValueError) as info:
        MT.episode(st.params, b_mtr, b_mte, st.proto, st.cov, ds.semantic, ds.counts,
                   cfg.train, cfg.model, True)
    assert str(info.value) == "aug_loss_mean: matrix is not positive semidefinite within tolerance"
    assert not calls


def test_fd_exact_rejects_large_models():
    ds = bench()
    cfg = tconf()
    big = M.ModelConfig(d_x=5, d_v=32, d_s=4, n_classes=6, hidden=(64,))
    st, b_mtr, b_mte = episode_inputs(ds, cfg, big)
    with pytest.raises(ConfigError):
        fd_exact(st.params, b_mtr, b_mte, st.proto, st.cov, ds.semantic,
                 ds.counts, cfg, big, False)


def test_run_step_is_first_order_outer_gradient():
    ds = bench()
    cfg = tconf(t_max=1, t_sigma=0)
    st, b_mtr, b_mte = episode_inputs(ds, cfg, MCFG)
    _, g_mtr, g_mte, *_ = MT.episode(st.params, b_mtr, b_mte, st.proto, st.cov,
                                     ds.semantic, ds.counts, cfg, MCFG, True)
    expect = MT.outer_step(st.params, g_mtr, g_mte, cfg, cfg.lr_outer(0))
    res = MT.run(ds, cfg, MCFG)
    assert list(res.params) == list(expect)
    for k in expect:
        assert np.array_equal(res.params[k], expect[k])


def test_meta_needs_two_domains():
    ds = bench(n_train_domains=1)
    with pytest.raises(ConfigError):
        MT.run(ds, tconf(), MCFG)


@pytest.mark.parametrize("error, named", [
    (ValueError("bad matrix"), True),
    (NumericsError("grad: non-finite loss or gradients"), True),
    (ConfigError("bad config"), False),
    (DataFormatError("bad file"), False),
])
def test_run_names_the_step_of_a_numerics_failure(monkeypatch, error, named):
    # the second step's update fails; configuration and data errors pass
    real_step, calls = MT.outer_step, []

    def outer_step(*args):
        calls.append(args)
        if len(calls) == 2:
            raise error
        return real_step(*args)

    monkeypatch.setattr(MT, "outer_step", outer_step)
    with pytest.raises(NumericsError if named else type(error)) as info:
        MT.run(bench(), tconf(), MCFG)
    if named:
        assert str(info.value) == f"step 1 (epoch 1): {error}"
        assert info.value.__cause__ is error
    else:
        assert info.value is error


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
        _, g_mtr, g_mte, *_ = MT.episode(st.params, b_mtr, b_mte, proto, st.cov,
                                         ds.semantic, ds.counts, cfg_s, mcfg, False)
        g1 = {k: g_mtr[k] + cfg_s.w_mte * g_mte[k] for k in g_mtr}
        g2 = fd_exact(st.params, b_mtr, b_mte, proto, st.cov,
                      ds.semantic, ds.counts, cfg_s, mcfg, False)
        v1, v2 = (np.concatenate([g[k].ravel() for k in g1]) for g in (g1, g2))
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


def test_desk_episode_checks_unit_rows_of_arrays_only(monkeypatch):
    # the semantic table was checked when it was built; only the rows the
    # episode makes (embeddings, completed prototype tables) are checked
    cfg, _ = load_run_config("desk")
    ds = D.generate(cfg.data)
    st, b_mtr, b_mte = episode_inputs(ds, cfg.train, cfg.model)
    checked = []
    check = L._check_unit_rows

    def spying_check(x, what):
        checked.append(what)
        return check(x, what)

    monkeypatch.setattr(L, "_check_unit_rows", spying_check)
    MT.episode(st.params, b_mtr, b_mte, st.proto, st.cov, ds.semantic, ds.counts,
               cfg.train, cfg.model, True)
    # one table check: the completed meta-test tables in z2s_loss_mean; the
    # completed meta-train stack is checked once, by L_S2S's s2s_loss, and
    # the re-encoded prototypes of s2z_loss once, by its s2s_loss
    assert sorted(checked) == sorted(
        ["z2s_loss_mean embeddings"] * 3 + ["z2s_loss_mean table"] + ["s2s_loss s_hat"] * 2)


def test_row_j_meta_train_half_calls_each_s2s_loss_binding_once(monkeypatch):
    # L_S2S is called through meta's binding of s2s_loss (pairs on) and the
    # re-alignment inside s2z_loss through losses' binding (pairs off)
    cfg, _ = load_run_config("desk")
    train = MT.apply_ablation(cfg.train, "j")
    ds = D.generate(cfg.data)
    st, b_mtr, b_mte = episode_inputs(ds, train, cfg.model)
    calls = {"meta": [], "losses": []}
    for name, module in (("meta", MT), ("losses", L)):
        def counting(*args, _kernel=module.s2s_loss, _name=name, **kw):
            calls[_name].append(kw.get("pairs", False))
            return _kernel(*args, **kw)

        monkeypatch.setattr(module, "s2s_loss", counting)
    MT.meta_train_losses(make_leaves(st.params), b_mtr, st.proto, st.cov, ds.semantic,
                         ds.counts, train, cfg.model, True, b_mte)
    assert calls == {"meta": [True], "losses": [False]}
