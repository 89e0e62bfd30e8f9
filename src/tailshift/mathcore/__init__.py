"""Numerical core: float64 tensors with reverse-mode gradients, a
finite-difference oracle, stable softmax/normalization kernels, PSD matrix
functions, and seeded splittable randomness."""

from .autodiff import (
    GradResult,
    Tensor,
    affine,
    as_tensor,
    collect_grads,
    fd_grad,
    grad,
    log_softmax,
    make_leaves,
    mask_fill,
    normalize_rows,
    stack,
    weighted_sum,
)
from .linalg import check_psd, check_symmetric, psd_sqrt
from .rng import Rng

__all__ = [
    "GradResult",
    "Rng",
    "Tensor",
    "affine",
    "as_tensor",
    "check_psd",
    "check_symmetric",
    "collect_grads",
    "fd_grad",
    "grad",
    "log_softmax",
    "make_leaves",
    "mask_fill",
    "normalize_rows",
    "psd_sqrt",
    "stack",
    "weighted_sum",
]

