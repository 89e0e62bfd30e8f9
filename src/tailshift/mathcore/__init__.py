"""Numerical core: float64 tensors with reverse-mode gradients, a
finite-difference oracle, stable softmax/normalization kernels, PSD matrix
functions, and seeded Philox streams spawned from one seed."""

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
    weighted_sum,
)
from .linalg import check_psd, psd_sqrt
from .rng import Rng, rng_from_state, rng_state, streams

__all__ = [
    "GradResult",
    "Rng",
    "Tensor",
    "affine",
    "as_tensor",
    "check_psd",
    "collect_grads",
    "fd_grad",
    "grad",
    "log_softmax",
    "make_leaves",
    "mask_fill",
    "normalize_rows",
    "psd_sqrt",
    "rng_from_state",
    "rng_state",
    "streams",
    "weighted_sum",
]

