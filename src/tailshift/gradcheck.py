"""Analytic-vs-finite-difference gradient checks: every loss kernel, and the
exact meta-gradient oracle ``fd_exact``.

Each check draws random float64 inputs, routes constrained quantities
(unit embeddings, PSD covariances) through unconstrained raw parameters, and
compares the reverse-mode gradient with central differences coordinate by
coordinate. The largest relative error over all parameter blocks and points
must stay under the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as L
from . import meta as MT
from . import model as M
from .errors import ConfigError
from .mathcore import fd_grad, grad, normalize_rows, streams

FD_EXACT_MAX_PARAMS = 512
# shapes of every kernel check: classes, visual and semantic widths
N_CLASSES, D_V, D_S = 5, 6, 4


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _max_rel_err(fn, params, eps: float) -> float:
    analytic = grad(fn, params)
    oracle = fd_grad(fn, params, eps)
    worst = 0.0
    for key in params:
        rel = np.abs(analytic.grads[key] - oracle.grads[key]) \
            / (np.abs(oracle.grads[key]) + 1e-8)
        worst = max(worst, float(rel.max()))
    return worst


def _case_dc(rng: np.random.Generator):
    counts = L.DomainClassCounts(
        rng.integers(0, 6, size=(2, N_CLASSES)) + np.eye(2, N_CLASSES, dtype=np.int64))
    labels = [0, 1]
    domains = [0, 1]

    def fn(t):
        return L.dc_loss_mean(t["z"], labels, domains, counts)

    return fn, {"z": rng.normal(size=(2, N_CLASSES))}


def _case_z2s(rng: np.random.Generator, cp):
    labels = rng.integers(0, N_CLASSES, size=3)

    def fn(t):
        return L.z2s_loss_mean(normalize_rows(t["e"]), labels,
                               normalize_rows(t["tab"]), cp)

    return fn, {"e": rng.normal(size=(3, D_S)), "tab": rng.normal(size=(N_CLASSES, D_S))}


def _case_s2s(rng: np.random.Generator, cp, pairs: bool):
    def fn(t):
        return L.s2s_loss(normalize_rows(t["s"]), normalize_rows(t["tab"]), cp, pairs=pairs)

    return fn, {"s": rng.normal(size=(3, N_CLASSES, D_S)),
                "tab": rng.normal(size=(N_CLASSES, D_S))}


def _case_s2z(rng: np.random.Generator, cp):
    table = np.stack([v / np.linalg.norm(v) for v in rng.normal(size=(N_CLASSES, D_S))])
    mcfg = M.ModelConfig(d_x=D_V, d_v=D_V, d_s=D_S, n_classes=N_CLASSES)

    def fn(t):
        # the encoder training calls, dead-row fallback included
        enc = lambda v: M.encode({"enc.W": t["We"], "enc.b": t["be"]}, v, mcfg)
        return L.s2z_loss(t["vhat"], t["W"], t["b"], enc, table, cp)

    return fn, {"vhat": rng.normal(size=(N_CLASSES, D_V)),
                "W": 0.5 * rng.normal(size=(N_CLASSES, D_V)),
                "b": rng.normal(size=N_CLASSES),
                "We": rng.normal(size=(D_S, D_V)),
                "be": rng.normal(size=D_S)}


def _case_aug(rng: np.random.Generator, ap):
    labels = rng.integers(0, N_CLASSES, size=3)
    factors = 0.3 * rng.normal(size=(N_CLASSES, D_V, D_V))
    sigmas = np.stack([f.T @ f for f in factors])

    def fn(t):
        return L.aug_loss_mean(t["F"], labels, t["W"], t["b"], sigmas, ap)

    return fn, {"F": rng.normal(size=(3, D_V)),
                "W": 0.3 * rng.normal(size=(N_CLASSES, D_V)),
                "b": rng.normal(size=N_CLASSES)}


def gradient_check_suite(n_points: int = 20, eps: float = 1e-5, tol: float = 1e-4,
                         seed: int = 0) -> list[CheckResult]:
    """Run every kernel's check at `n_points` random points; one result each."""
    # Moderate temperature keeps every gradient coordinate well above the
    # roundoff floor of the central-difference oracle (~loss * 1e-16 / eps);
    # at the saturated training temperature (1/30) far-class gradients fall
    # to ~1e-9 and the oracle itself becomes the noise source.
    cp = L.ContrastiveParams(alpha=0.1, tau=0.5)
    ap = L.AugParams(lam=2.0, k=3)
    cases = {
        "dc_loss_mean": _case_dc,
        "z2s_loss_mean": lambda r: _case_z2s(r, cp),
        "s2s_loss": lambda r: _case_s2s(r, cp, False),
        "s2z_loss": lambda r: _case_s2z(r, cp),
        "aug_loss_mean": lambda r: _case_aug(r, ap),
        "s2s_loss pairs": lambda r: _case_s2s(r, cp, True),
    }
    points = streams(seed, len(cases) * n_points)
    results = []
    for i, (name, case) in enumerate(cases.items()):
        worst = 0.0
        for point_rng in points[i * n_points:(i + 1) * n_points]:
            fn, params = case(point_rng)
            worst = max(worst, _max_rel_err(fn, params, eps))
        results.append(CheckResult(name=name, max_rel_err=worst, tol=tol))
    return results


def format_table(results: list[CheckResult]) -> str:
    lines = [f"{'loss':<14} {'max rel err':>12}   status"]
    for r in results:
        lines.append(f"{r.name:<14} {r.max_rel_err:>12.3e}   "
                     f"{'pass' if r.passed else 'FAIL'} (tol {r.tol:g})")
    return "\n".join(lines)


def fd_exact(params: dict, batches_mtr: dict, batches_mte: dict, proto, cov, table,
             counts, cfg, mcfg, aug_active: bool) -> dict:
    """Exact meta-gradient oracle: the gradient of L_mtr + w_mte L_mte(theta')
    with respect to theta, the inner step included, by ``fd_grad`` central
    differences of ``meta.episode``'s value. Two episodes per parameter, so
    models above FD_EXACT_MAX_PARAMS are refused; it measures the first-order
    rule of ``meta.run`` and is not a way to train."""
    n_params = M.param_count(params)
    if n_params > FD_EXACT_MAX_PARAMS:
        raise ConfigError(
            f"fd_exact needs <= {FD_EXACT_MAX_PARAMS} parameters, got {n_params}")
    return fd_grad(
        lambda t: MT.episode({k: v.data for k, v in t.items()}, batches_mtr,
                             batches_mte, proto, cov, table, counts, cfg, mcfg,
                             aug_active)[0],
        params).grads
