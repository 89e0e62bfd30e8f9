"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Criteria cover exact analytic identities, oracle equivalences
(finite differences, Monte-Carlo, one-shot statistics), and the directional
ablation orderings on the synthetic benchmark, each with its stated
tolerance and runtime budget.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from tailshift import data as D
from tailshift import evaluation as E
from tailshift import losses as L
from tailshift import meta as MT
from tailshift import model as M
from tailshift.banks import update_prototypes
from tailshift.cli import ablation_scores
from tailshift.cli import main as cli_main
from tailshift.config import load_run_config
from tailshift.gradcheck import fd_exact, gradient_check_suite
from tailshift.losses import ContrastiveParams
from tailshift.mathcore import Rng, rng_from_state, streams


def _record(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    results = gradient_check_suite(n_points=20, eps=1e-5, tol=1e-4, seed=0)
    elapsed = time.monotonic() - t0
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 30.0
    _record(1, "analytic gradients match central differences at 20 points "
               "(rel err < 1e-4, < 30 s)", ok,
            f"worst {worst:.2e}, {elapsed:.1f} s, "
            f"losses: {', '.join(r.name for r in results)}")


def test_criterion_2_degenerate_identities():
    rng = Rng(0)
    checks = []

    # dc_loss_mean == cross-entropy under uniform counts (batches of one)
    counts = L.DomainClassCounts(np.full((1, 6), 9))
    for _ in range(20):
        z = 3.0 * rng.normal(size=6)
        y = int(rng.integers(0, 6))
        m = z.max()
        ce = -(z[y] - m - np.log(np.exp(z - m).sum()))
        checks.append(abs(L.dc_loss_mean(z[None], [y], [0], counts).data - ce) < 1e-12)

    # aug_loss_mean == cross-entropy at lambda = 0 and at Sigma' = 0
    for _ in range(20):
        c, d = 5, 4
        w = rng.normal(size=(c, d))
        b = rng.normal(size=c)
        f = rng.normal(size=d)
        y = int(rng.integers(0, c))
        logits = w @ f + b
        m = logits.max()
        ce = -(logits[y] - m - np.log(np.exp(logits - m).sum()))
        a = rng.normal(size=(d, d))
        for sigma, lam in ((a @ a.T, 0.0), (np.zeros((d, d)), 7.0)):
            val = L.aug_loss_mean(f[None], [y], w, b, np.stack([sigma] * c),
                                  L.AugParams(lam=lam, k=1)).data
            checks.append(abs(val - ce) < 1e-12)

    # zero-count classes receive exactly zero gradient
    from tailshift.mathcore import grad
    counts0 = L.DomainClassCounts(np.array([[4, 0, 2, 0, 1]]))
    for _ in range(10):
        z = rng.normal(size=5)
        y = int(rng.choice([0, 2, 4]))
        g = grad(lambda t: L.dc_loss_mean(t["z"], [y], [0], counts0), {"z": z[None]})
        checks.append(g.grads["z"][0, 1] == 0.0 and g.grads["z"][0, 3] == 0.0)

    _record(2, "degenerate-case identities exact to 1e-12", all(checks))


def test_criterion_3_upper_bound_monte_carlo():
    t0 = time.monotonic()
    rng = Rng(1)
    n = 100_000
    failures = 0
    for _ in range(50):
        c = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        w = rng.normal(size=(c, d))
        b = rng.normal(size=c)
        mu = rng.normal(size=d)
        a = 0.7 * rng.normal(size=(d, d))
        sigma = a @ a.T
        lam = float(rng.uniform(0.1, 5.0))
        y = int(rng.integers(0, c))
        # the training kernel on a batch of one, every class holding sigma
        bound = L.aug_loss_mean(mu[None], [y], w, b, np.stack([sigma] * c),
                                L.AugParams(lam=lam, k=1)).data
        z = rng.normal(size=(n, d))
        f = mu + np.sqrt(lam) * (z @ a.T)
        logits = f @ w.T + b
        m = logits.max(axis=1, keepdims=True)
        ce = -(logits[np.arange(n), y] - m[:, 0] - np.log(np.exp(logits - m).sum(axis=1)))
        if ce.mean() > bound + 3 * ce.std(ddof=1) / np.sqrt(n):
            failures += 1
    elapsed = time.monotonic() - t0
    _record(3, "Monte-Carlo expected loss <= bound + 3 SE on 50 instances "
               "(< 2 min)", failures == 0 and elapsed < 120.0,
            f"{failures} violations, {elapsed:.1f} s")


def test_criterion_4_streaming_covariance_and_blend():
    from tailshift import banks as B
    rng = Rng(2)
    ok = True

    # streaming equals one-shot population statistics to 1e-10
    for schedule_rng in streams(2, 10):
        c, d = 4, 5
        bank = B.CovarianceBank.zeros(c, d)
        xs, ys = [], []
        for _ in range(int(schedule_rng.integers(2, 7))):
            m = int(schedule_rng.integers(1, 9))
            x = schedule_rng.normal(size=(m, d))
            y = schedule_rng.integers(0, c, size=m)
            bank = B.update_covariance(bank, x, y)
            xs.append(x)
            ys.append(y)
        xs_all, ys_all = np.concatenate(xs), np.concatenate(ys)
        for cls in range(c):
            sel = xs_all[ys_all == cls]
            if len(sel) == 0:
                continue
            mu = sel.mean(axis=0)
            cen = sel - mu
            sig = cen.T @ cen / len(sel)
            ok &= np.abs(bank.mu[cls] - mu).max() < 1e-10
            ok &= np.abs(bank.sigma[cls] - sig).max() < 1e-10

    # worked 3-class blend: Sigma'_0 = (22/12) I
    s = np.array([[1.0, 0.0, 0.0],
                  [np.cos(0.1), np.sin(0.1), 0.0],
                  [0.0, 0.0, 1.0]])
    bank = B.CovarianceBank(mu=np.zeros((3, 2)),
                            sigma=np.stack([2 * np.eye(2), np.eye(2), 4 * np.eye(2)]),
                            n=np.array([10, 2, 3]))
    sig, _ = B.blend_covariance(bank, B.SemanticTable(s), k=2)
    ok &= np.allclose(sig[0], (22 / 12) * np.eye(2), atol=1e-12)

    # k = 1 identity
    table = B.SemanticTable(np.stack([v / np.linalg.norm(v)
                                      for v in rng.normal(size=(4, 3))]))
    bank2 = B.CovarianceBank.zeros(4, 3)
    bank2 = B.update_covariance(bank2, rng.normal(size=(30, 3)),
                                rng.integers(0, 4, size=30))
    sig1, _ = B.blend_covariance(bank2, table, k=1)
    ok &= np.array_equal(sig1, bank2.sigma)

    _record(4, "streaming covariance equals one-shot statistics (1e-10); "
               "blend reproduces worked example and k=1 identity", bool(ok))


def test_criterion_5_count_curve():
    n1 = D.longtail_counts(1, 1565, 20, 50)
    n50 = D.longtail_counts(50, 1565, 20, 50)
    total = sum(D.longtail_counts(c, 1565, 20, 50) for c in range(1, 51))
    ratio = 1565 / 20
    ok = n1 == 1565 and n50 == 20 and 7000 <= total <= 9000 and ratio == 78.25
    _record(5, "count curve endpoints 1565/20, total in [7000, 9000], "
               "ratio 78.25", ok, f"total {total}")


def test_criterion_6_meta_gradient_oracle():
    ds = D.generate(D.SyntheticConfig(
        n_classes=3, n_train_domains=3, d_x=2, d_s=2, n_max=30, n_min=6,
        n_val_per_pair=1, n_test_per_pair=2, seed=5))
    mcfg = M.ModelConfig(d_x=2, d_v=3, d_s=2, n_classes=3, hidden=())
    n_params = M.param_count(M.init_params(mcfg, Rng(0)))
    cfg = MT.TrainConfig(t_max=8, t_sigma=8, batch_size=6, beta1=0.1,
                         use_aug=False, cp=ContrastiveParams(alpha=0.0, tau=0.5))
    cosines = []
    for trial in range(10):
        cfg_t = dataclasses.replace(cfg, seed=trial)
        st = MT.init_state(ds, cfg_t, mcfg)
        rng = rng_from_state(st.rng_state)
        d_mtr, d_mte = MT.split_domains([0, 1, 2], rng)
        b_mtr = {n: D.sample_batch(ds, n, 6, rng) for n in d_mtr}
        b_mte = {m: D.sample_batch(ds, m, 6, rng) for m in d_mte}
        proto = st.proto
        for n in d_mtr:
            z = M.forward_features(st.params, b_mtr[n][0], mcfg).data
            proto = update_prototypes(proto, n, z, b_mtr[n][1])
        _, g_mtr, g_mte, *_ = MT.episode(st.params, b_mtr, b_mte, proto, st.cov,
                                         ds.semantic, ds.counts, cfg_t, mcfg, False)
        g1 = {k: g_mtr[k] + cfg_t.w_mte * g_mte[k] for k in g_mtr}
        g2 = fd_exact(st.params, b_mtr, b_mte, proto, st.cov,
                      ds.semantic, ds.counts, cfg_t, mcfg, False)
        v1, v2 = (np.concatenate([g[k].ravel() for k in g1]) for g in (g1, g2))
        cosines.append(float(v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2))))
    mean_cos = float(np.mean(cosines))
    _record(6, "first-order vs exact meta-gradient cosine > 0.9 over 10 states",
            n_params <= 64 and mean_cos > 0.9,
            f"{n_params} params, mean cosine {mean_cos:.4f}")


def test_criterion_7_directional_ablations():
    t0 = time.monotonic()
    cfg, _ = load_run_config("desk")
    means = {row: cells.mean(axis=0)
             for row, cells in ablation_scores(cfg, ("a", "b", "i", "j"), 5).items()}
    elapsed = time.monotonic() - t0
    j_beats_a = bool((means["j"] > means["a"]).all())
    meta_helps = bool((means["j"] >= means["i"]).all())
    calib_helps = bool((means["b"] >= means["a"]).all())
    ok = j_beats_a and meta_helps and calib_helps and elapsed < 300.0
    detail = "; ".join(f"{r}: Acc-U {v[0]:.1f} Acc {v[1]:.1f} H {v[2]:.1f}"
                       for r, v in means.items()) + f"; {elapsed:.0f} s"
    _record(7, "synthetic benchmark orderings: j > a (all metrics), "
               "j >= i, b >= a over 5 seeds (< 5 min)", ok, detail)


def test_criterion_8_metric_units():
    ok = E.harmonic(0.60, 0.40) == pytest.approx(0.48, abs=1e-12)

    rng = Rng(3)
    pred, _ = E.decide(rng.normal(size=(25, 7)), threshold=0.0)
    ok &= bool((pred != E.OPEN).all())

    a = rng.normal(size=(3, 3))
    sig = a @ a.T
    mu = rng.normal(size=3)
    ok &= abs(E.frechet_distance(mu, sig, mu, sig)) < 1e-8
    delta = np.array([0.5, -1.5, 2.0])
    ok &= abs(E.frechet_distance(mu + delta, sig, mu, sig) - delta @ delta) < 1e-8
    _record(8, "metric identities: H(60, 40) = 48, threshold 0 never rejects, "
               "Fréchet identities to 1e-8", bool(ok))


def test_criterion_9_determinism(tmp_path):
    cfgd = {
        "data": {"n_classes": 6, "n_train_domains": 3, "d_x": 5, "d_s": 4,
                 "n_max": 30, "n_min": 4, "n_val_per_pair": 2,
                 "n_test_per_pair": 2, "seed": 0},
        "model": {"d_v": 5, "hidden": [8]},
        "train": {"t_max": 5, "t_sigma": 2, "batch_size": 6, "seed": 0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfgd))

    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append((out / "steps.jsonl").read_bytes())
    reports_identical = outs[0] == outs[1]

    gens = []
    for name in ("g1", "g2"):
        out = tmp_path / name
        assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        gens.append((out / "dataset.csv").read_bytes()
                    + (out / "embeddings.csv").read_bytes())
    data_identical = gens[0] == gens[1]

    _record(9, "bit-identical step reports and byte-identical generated CSVs "
               "across reruns", reports_identical and data_identical)
