"""Kernel micro-benchmark: one forward and backward pass of each loss kernel
at the ``desk`` and ``paper_s1`` shapes.

Inputs come from the workload seed: the preset's dataset is generated with
that seed, a model is initialised from it, and each kernel gets the tensors
training would hand it (a sampled batch, its features, logits and unit
embeddings, a semantic table, blended covariances). Every value and every
gradient must be finite. The timings predict what a kernel change does to a
step; they gate nothing.
"""

from __future__ import annotations

import copy
import math
import time

import numpy as np

from tailshift import banks as B
from tailshift import config as C
from tailshift import data as D
from tailshift import losses as L
from tailshift import model as M
from tailshift.mathcore import Rng, Tensor, make_leaves

KERNELS = ("dc", "z2s", "s2s", "s2z", "aug")
PRESETS = ("desk", "paper_s1")
MIN_REPEATS = 5
MIN_SECONDS = 0.15


def kernel_cases(preset: str, seed: int) -> dict:
    """kernel -> function that builds fresh leaves and returns (loss, leaves)."""
    _, raw = C.load_run_config(preset)
    raw = copy.deepcopy(raw)
    raw["seed"] = seed
    cfg = C.run_config_from_dict(raw)
    mcfg, tcfg = cfg.model, cfg.train
    ds = D.generate(cfg.data)
    table = ds.semantic
    rng = Rng(seed)
    params = M.init_params(mcfg, rng)
    x, y = D.sample_batch(ds, 0, tcfg.batch_size, rng)
    domains = np.zeros(len(y), dtype=np.int64)
    feats = M.forward_features(params, x, mcfg).data
    logits = M.predict_logits(params, x, mcfg)
    emb = M.embed(params, x, mcfg)
    noisy = table.s + 0.1 * rng.normal(size=table.s.shape)
    s_m = noisy / np.linalg.norm(noisy, axis=1, keepdims=True)
    v_hat = M.decode(params, table.s, mcfg).data
    train_idx = ds.indices("train")
    cov = B.update_covariance(B.CovarianceBank.zeros(ds.n_classes, mcfg.d_v),
                              M.forward_features(params, ds.x[train_idx], mcfg).data,
                              ds.y[train_idx])
    sigma_prime, _ = B.blend_covariance(cov, table, min(tcfg.ap.k, ds.n_classes))

    def leaf(a):
        return Tensor(a, requires_grad=True)

    def dc():
        z = leaf(logits)
        return L.dc_loss_mean(z, y, domains, ds.counts), [z]

    def z2s():
        e = leaf(emb)
        return L.z2s_loss_mean(e, y, table, tcfg.cp), [e]

    def s2s():
        a, b = leaf(s_m), leaf(table.s)
        return L.s2s_loss(a, b, tcfg.cp), [a, b]

    def s2z():
        leaves = make_leaves(params)
        v = leaf(v_hat)
        loss = L.s2z_loss(v, leaves["cls.W"], leaves["cls.b"],
                          lambda u: M.encode(leaves, u, mcfg), table, tcfg.cp)
        return loss, [v, *(leaves[k] for k in ("cls.W", "cls.b", "enc.W", "enc.b"))]

    def aug():
        f, w, b = leaf(feats), leaf(params["cls.W"]), leaf(params["cls.b"])
        return L.aug_loss_mean(f, y, w, b, sigma_prime, tcfg.ap), [f, w, b]

    return {"dc": dc, "z2s": z2s, "s2s": s2s, "s2z": s2z, "aug": aug}


def time_kernel(case) -> tuple[float, bool]:
    """Median ms of one forward + backward, and whether every value and
    gradient was finite."""
    times, finite = [], True
    started = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - started < MIN_SECONDS:
        t0 = time.perf_counter()
        loss, leaves = case()
        loss.backward()
        times.append(time.perf_counter() - t0)
        finite &= math.isfinite(float(loss.data)) and all(
            t.grad is not None and np.isfinite(t.grad).all() for t in leaves)
    return 1e3 * float(np.median(times)), finite


def run_micro(seed: int) -> dict:
    layers, failures, attempted = {}, [], 0
    for preset in PRESETS:
        for name, case in kernel_cases(preset, seed).items():
            ms, finite = time_kernel(case)
            layers[f"losses.{name}.fwd_bwd_ms.{preset}"] = ms
            attempted += 1
            if not finite:
                failures.append(f"{name} at {preset}: non-finite value or gradient")
    return {"layers": layers, "attempted": attempted, "failures": failures}
