"""Anatomy of the synthetic benchmark.

Generates the desk-scale dataset and prints what makes it hard: the
long-tail count curve, the per-domain class presence pattern, and the
inter-domain feature discrepancies measured by the Fréchet distance.
"""

import numpy as np

from tailshift import data as D
from tailshift.config import load_run_config
from tailshift.evaluation import frechet_distance

cfg, _ = load_run_config("desk")
ds = D.generate(cfg.data)

print(f"{len(ds.y)} samples, {ds.n_classes} classes, "
      f"{ds.n_train_domains} train domains + held-out {ds.heldout_domains}")

counts = ds.counts.counts
print("\nper-class training counts (head -> tail):")
print(" ", counts.sum(axis=0))
print(f"imbalance ratio: {counts.sum(axis=0).max() / counts.sum(axis=0).min():.1f}")

print("\nclass presence by domain (rows = domains, '#' = seen):")
for dom in range(ds.n_train_domains):
    print(f"  d{dom}: " + "".join("#" if c else "." for c in ds.counts.mask[dom]))

# Inter-domain shift: per-domain Gaussian fits of the raw test features. The
# held-out domain is as far from the training domains as they are from each
# other, which is exactly the generalization gap the trainer must close.
print("\npairwise Fréchet distances between domain feature clouds (test split):")
stats = {}
for dom in range(ds.n_train_domains + 1):
    idx = ds.indices("test", dom)
    x = ds.x[idx]
    stats[dom] = (x.mean(axis=0), np.cov(x, rowvar=False, bias=True))
for i in range(ds.n_train_domains + 1):
    row = [f"{frechet_distance(*stats[i], *stats[j]):7.2f}"
           for j in range(ds.n_train_domains + 1)]
    print(f"  d{i}: " + " ".join(row))

# The paper-scale curve: endpoints and mass of the published configuration.
total = sum(D.longtail_counts(c, 1565, 20, 50) for c in range(1, 51))
print(f"\npaper-scale curve: n(1) = {D.longtail_counts(1, 1565, 20, 50)}, "
      f"n(50) = {D.longtail_counts(50, 1565, 20, 50)}, total = {total}")
