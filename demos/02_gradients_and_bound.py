"""Verification machinery: gradient checks and the augmentation bound.

Every loss carries analytic reverse-mode gradients; this script confronts
them with the central-difference oracle, then pits the augmentation loss
that training calls, on one sample, against a Monte-Carlo estimate of the
expected cross-entropy it bounds in closed form.
"""

import numpy as np

from tailshift import losses as L
from tailshift.gradcheck import format_table, gradient_check_suite
from tailshift.mathcore import Rng

print("gradient suite (20 random points per loss, eps = 1e-5):\n")
print(format_table(gradient_check_suite(n_points=20)))

# --- the bound vs the sampled truth ----------------------------------------
# Draw a random classifier and Gaussian feature cloud, then estimate the
# expected cross-entropy by sampling. The closed form must sit above the
# estimate (it is an upper bound), and usually not by much.
rng = Rng(0)
c, d, n = 6, 5, 200_000
w = 0.5 * rng.normal(size=(c, d))
b = rng.normal(size=c)
mu = rng.normal(size=d)
a = 0.3 * rng.normal(size=(d, d))
sigma = a @ a.T
lam = 1.5
y = 1

# on a batch of one, with every class holding sigma, aug_loss_mean is the bound
bound = float(L.aug_loss_mean(mu[None], [y], w, b, np.stack([sigma] * c),
                              L.AugParams(lam=lam, k=1)).data)
z = rng.normal(size=(n, d))
f = mu + np.sqrt(lam) * (z @ a.T)
logits = f @ w.T + b
m = logits.max(axis=1, keepdims=True)
ce = -(logits[:, y] - m[:, 0] - np.log(np.exp(logits - m).sum(axis=1)))
print(f"\nMonte-Carlo E[CE] = {ce.mean():.4f} +- {ce.std(ddof=1)/np.sqrt(n):.4f}"
      f"   closed-form bound = {bound:.4f}")
print(f"bound - estimate  = {bound - ce.mean():.4f}  (must be >= ~-3 SE)")
