"""Directional ablation study on the synthetic benchmark.

Reproduces the ablation grid's story at desk scale over a few seeds: the
calibrated loss beats plain cross-entropy, stacking the alignment and
augmentation blocks helps more, and the episodic meta loop on top does best.
Also runs the two variant rows (single global prototype table, unweighted
covariance blending). Every cell is trained and scored by
``tailshift.cli.ablation_scores``, as in ``tailshift ablate``.
"""

from tailshift.cli import ablation_scores
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
for row, cells in ablation_scores(cfg, ROWS, SEEDS).items():
    mean = cells.mean(axis=0)
    print(f"{row:<4} {LABEL[row]:<26} {mean[0]:7.1f} {mean[1]:7.1f} {mean[2]:7.1f}")
