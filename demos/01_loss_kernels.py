"""Tour of the loss kernels on worked numbers.

Walks through the count-calibrated classification loss, the margin
contrastive alignment losses, and the implicit-augmentation surrogate,
checking each against a value you can verify on paper. Every kernel works
on a batch and returns a scalar Tensor; a single sample is a batch of one,
and ``.data`` holds the value.
"""

import numpy as np

from tailshift import losses as L

# --- count-calibrated classification ---------------------------------------
# One domain saw class 0 three times and class 1 once. With equal logits the
# calibrated probability of class 0 is 3/4, so the loss is ln(4/3).
counts = L.DomainClassCounts(np.array([[3, 1]]))
val = L.dc_loss_mean(np.zeros((1, 2)), labels=[0], domains=[0], counts=counts).data
print(f"dc_loss_mean (counts 3:1, equal logits)  = {val:.6f}   ln(4/3) = {np.log(4/3):.6f}")

# A class the domain never saw is excluded from the normalizer entirely: the
# loss ignores its logit no matter how large.
counts0 = L.DomainClassCounts(np.array([[1, 0]]))
val = L.dc_loss_mean(np.array([[5.0, 100.0]]), labels=[0], domains=[0], counts=counts0).data
print(f"dc_loss_mean (zero-count class excluded) = {val:.6f}")

# --- contrastive alignment ---------------------------------------------------
# Unit embedding sits exactly on its class row; one orthogonal distractor.
cp = L.ContrastiveParams(alpha=0.0, tau=1.0)
val = L.z2s_loss_mean(np.array([[1.0, 0.0]]), [0], np.eye(2), cp).data
print(f"z2s_loss_mean (perfect match, one distractor) = {val:.6f}   "
      f"ln(1+e^-1) = {np.log(1 + np.exp(-1)):.6f}")

# At the training temperature (1/30) the same configuration is already
# essentially solved: the loss collapses to ~2e-12.
sharp = L.ContrastiveParams(alpha=0.1, tau=1 / 30)
print(f"z2s_loss_mean at tau=1/30                = "
      f"{L.z2s_loss_mean(np.array([[1.0, 0.0]]), [0], np.eye(2), sharp).data:.3e}")

# Cross-table prototype contrast with two identical orthonormal tables: each
# class sees its positive at similarity 1 and two negatives at similarity 0.
val = L.s2s_loss(np.eye(2), np.eye(2), cp).data
print(f"s2s_loss (identical orthonormal)         = {val:.6f}   "
      f"ln(1+2e^-1) = {np.log(1 + 2 * np.exp(-1)):.6f}")

# --- implicit augmentation ----------------------------------------------------
# Worked two-class example: the quadratic penalty adds exactly 1 to the
# wrong class's logit, so the loss is ln 2. `sigma_primes` holds one blended
# covariance per class.
w = np.array([[1.0, 0.0], [0.0, 0.0]])
sigmas = np.stack([np.eye(2), np.eye(2)])
val = L.aug_loss_mean(np.array([[1.0, 0.0]]), [0], w, np.zeros(2), sigmas,
                      L.AugParams(lam=2.0, k=1)).data
print(f"aug_loss_mean (worked example)           = {val:.6f}   ln 2 = {np.log(2):.6f}")

# lam = 0 recovers the plain cross-entropy bit for bit.
plain = L.aug_loss_mean(np.array([[1.0, 0.0]]), [0], w, np.zeros(2), sigmas,
                        L.AugParams(lam=0.0, k=1)).data
print(f"aug_loss_mean at lam=0                   = {plain:.6f}   "
      f"(cross-entropy {np.log(1 + np.exp(-1)):.6f})")
