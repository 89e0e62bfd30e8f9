"""Directional ablation study on the synthetic benchmark.

Reproduces the ablation grid's story at desk scale over a few seeds: the
calibrated loss beats plain cross-entropy, stacking the alignment and
augmentation blocks helps more, and the episodic meta loop on top does best.
Also runs the two variant rows (single global prototype table, unweighted
covariance blending).
"""

import dataclasses

import numpy as np

from tailshift import data as D
from tailshift import evaluation as E
from tailshift import meta as MT
from tailshift.config import load_run_config

SEEDS = 3
ROWS = ["a", "b", "d", "i", "j", "k", "l"]
LABEL = {
    "a": "cross-entropy only",
    "b": "calibrated loss",
    "d": "calibrated + meta",
    "i": "all losses, no meta",
    "j": "full method",
    "k": "single prototype table",
    "l": "unweighted blending",
}

cfg, _ = load_run_config("desk")
print(f"{SEEDS} seeds per row; columns are mean Acc-U / Acc / H\n")
print(f"{'row':<4} {'configuration':<26} {'Acc-U':>7} {'Acc':>7} {'H':>7}")
for row in ROWS:
    scores = []
    for seed in range(SEEDS):
        tc = dataclasses.replace(MT.apply_ablation(cfg.train, row), seed=seed)
        ds = D.generate(dataclasses.replace(cfg.data, seed=seed))
        res = MT.run(ds, tc, cfg.model)
        rep = E.evaluate(res.params, cfg.model, ds, ds.heldout_domain, 0.0)
        scores.append((rep.acc_u, rep.acc, rep.h))
    mean = np.mean(np.asarray(scores), axis=0)
    print(f"{row:<4} {LABEL[row]:<26} {mean[0]:7.1f} {mean[1]:7.1f} {mean[2]:7.1f}")
