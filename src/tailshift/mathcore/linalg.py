"""Symmetric/PSD matrix helpers on float64 arrays."""

from __future__ import annotations

import numpy as np

SYM_TOL = 1e-10
EIG_TOL = 1e-10


def _check_square_symmetric(s: np.ndarray, tol: float, ndims: tuple):
    """The input as a float64 array, its largest |S - S'| entry and the
    scratch array of its shape that the test wrote |S - S'| to, after
    refusing a non-square, non-finite or asymmetric input."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim not in ndims or s.shape[-1] != s.shape[-2]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(s).all():
        raise ValueError("matrix has non-finite entries")
    scratch = s - np.swapaxes(s, -1, -2)
    asym = np.abs(scratch, out=scratch).max(initial=0.0)
    if asym > tol:
        raise ValueError("matrix is not symmetric within tolerance")
    return s, asym, scratch


def check_symmetric(s: np.ndarray, tol: float = SYM_TOL) -> np.ndarray:
    return _check_square_symmetric(s, tol, (2,))[0]


def check_psd(s: np.ndarray, eig_tol: float = EIG_TOL, return_asym: bool = False):
    """Validate symmetry and eigenvalues >= -eig_tol of one (d, d) matrix or
    an (n, d, d) stack; returns the input, and with ``return_asym`` also the
    largest |S - S'| entry the symmetry test found (0.0 when S = S' exactly).

    The eigenvalue test is one batched Cholesky factorization of
    S + eig_tol * I, which exists exactly when every eigenvalue of S
    exceeds -eig_tol (up to round-off). S + eig_tol * I is built in the
    symmetry test's scratch array, so that it adds no second temporary of
    the input's size.
    """
    s, asym, shifted = _check_square_symmetric(s, SYM_TOL, (2, 3))
    d = s.shape[-1]
    if d:
        np.copyto(shifted, s)
        diag = np.arange(d)
        shifted[..., diag, diag] += eig_tol
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise ValueError("matrix is not positive semidefinite within tolerance") from None
    return (s, asym) if return_asym else s


def psd_sqrt(s: np.ndarray, eig_tol: float = EIG_TOL) -> np.ndarray:
    """Symmetric PSD square root R with R @ R = s.

    Eigenvalues below -eig_tol raise; small negatives from round-off are
    clamped to zero before the square root.
    """
    s = check_symmetric(s)
    vals, vecs = np.linalg.eigh(s)
    if vals.size and vals.min() < -eig_tol:
        raise ValueError("psd_sqrt: matrix is indefinite beyond tolerance")
    vals = np.clip(vals, 0.0, None)
    r = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (r + r.T)
