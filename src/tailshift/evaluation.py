"""Leave-one-domain-out evaluation with confidence-thresholded open-class
detection, plus distribution diagnostics.

Metrics:

- ``acc_u``  accuracy on non-open classes in the held-out domain's test data.
- ``acc``    mean over all domains of per-domain accuracy on non-open classes
  (a pooled variant is reported alongside).
- ``h``      harmonic mean of pooled non-open accuracy and open-class
  detection accuracy; when the dataset has no open classes the open side is
  undefined and ``h`` falls back to ``acc`` with a flag.

Open classes are those absent from every training domain. ``decide`` is the
one open-set rule: a prediction is OPEN when the maximum softmax probability
(optionally the maximum logit, rescaled) falls below the threshold. Both
``evaluate`` and ``select_threshold`` score through it; ``select_threshold``
passes its whole grid in one call, so the confidences are computed once,
and scores H for every grid point from counts (``h_per_threshold``).
``evaluate`` scores Acc-U on one held-out domain (the CLI passes
``Dataset.heldout_domain``); ``select_threshold`` scores H over every domain
of its split and reads no held-out domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, write_rows
from .mathcore import psd_sqrt
from .mathcore.autodiff import _log_softmax_core
from .model import ModelConfig, Params, forward_features, predict_logits

OPEN = -1  # predicted-class sentinel for "open class"

# decide's confidence rules by name: (N, C) logits -> (N,) confidences in [0, 1]
CONFIDENCE_RULES = {
    "softmax": lambda logits: _log_softmax_core(logits)[1].max(axis=-1),
    "logit": lambda logits: 1.0 / (1.0 + np.exp(-logits.max(axis=-1))),
}


@dataclass
class MetricReport:
    acc_u: float
    acc: float
    h: float
    threshold: float
    pooled_acc: float
    open_acc: float | None = None                    # None when no open classes exist
    per_domain: dict = field(default_factory=dict)   # domain -> accuracy (non-open classes)
    per_class: dict = field(default_factory=dict)    # class -> accuracy (all domains pooled)
    h_fallback: bool = False                         # no open classes in the data

    def to_dict(self) -> dict:
        return {
            "acc_u": self.acc_u, "acc": self.acc, "h": self.h,
            "threshold": self.threshold, "pooled_acc": self.pooled_acc,
            "open_acc": self.open_acc,
            "per_domain": {str(k): v for k, v in self.per_domain.items()},
            "per_class": {str(k): v for k, v in self.per_class.items()},
            "h_fallback": self.h_fallback,
        }


def decide(logits: np.ndarray, threshold: float,
           confidence: str = "softmax") -> tuple[np.ndarray, np.ndarray]:
    """Classify rows of logits, or reject them as an open class.

    Returns (predicted class or OPEN, confidence) per row. Confidence is the
    max softmax probability by default ("logit" uses the max raw logit
    squashed through a sigmoid instead). OPEN iff confidence falls strictly
    below the threshold; argmax ties go to the lowest index. An array of
    thresholds broadcasts against the rows: a (G, 1) column gives one row of
    decisions per threshold.
    """
    if confidence not in CONFIDENCE_RULES:
        raise ValueError(f"unknown confidence rule {confidence!r}")
    logits = np.asarray(logits, dtype=np.float64)
    conf = CONFIDENCE_RULES[confidence](logits)
    return np.where(conf < threshold, OPEN, logits.argmax(axis=-1)), conf


def harmonic(a: float, b: float) -> float:
    return 0.0 if a + b == 0 else 2.0 * a * b / (a + b)


def metrics_from_predictions(y: np.ndarray, d: np.ndarray, pred: np.ndarray,
                             open_classes: np.ndarray, heldout_domain: int,
                             threshold: float) -> MetricReport:
    """Assemble the report from per-sample decisions (OPEN = -1)."""
    y = np.asarray(y)
    d = np.asarray(d)
    pred = np.asarray(pred)
    is_open_class = open_classes[y]
    known = ~is_open_class
    correct_known = (pred == y) & known
    correct_open = (pred == OPEN) & is_open_class

    held = d == heldout_domain
    acc_u = float(correct_known[held & known].mean()) if (held & known).any() else 0.0

    per_domain = {}
    for dom in np.unique(d):
        sel = (d == dom) & known
        per_domain[int(dom)] = float(correct_known[sel].mean()) if sel.any() else 0.0
    acc = float(np.mean(list(per_domain.values()))) if per_domain else 0.0
    pooled = float(correct_known[known].mean()) if known.any() else 0.0

    per_class = {}
    for cls in np.unique(y):
        sel = y == cls
        ok = correct_open[sel] if open_classes[cls] else correct_known[sel]
        per_class[int(cls)] = float(ok.mean())

    if is_open_class.any():
        b = float(correct_open[is_open_class].mean())
        h = harmonic(pooled, b)
        open_acc = 100.0 * b
        fallback = False
    else:
        h = acc
        open_acc = None
        fallback = True

    return MetricReport(acc_u=100.0 * acc_u, acc=100.0 * acc, h=100.0 * h,
                        threshold=threshold, pooled_acc=100.0 * pooled,
                        open_acc=open_acc,
                        per_domain={k: 100.0 * v for k, v in per_domain.items()},
                        per_class={k: 100.0 * v for k, v in per_class.items()},
                        h_fallback=fallback)


def evaluate(params: Params, mcfg: ModelConfig, dataset: Dataset,
             heldout_domain: int, threshold: float, split: str = "test",
             confidence: str = "softmax") -> MetricReport:
    """Run the model over a split and score it under the open-class protocol."""
    idx = dataset.indices(split)
    if idx.size == 0:
        raise ValueError(f"no {split} data to evaluate")
    if heldout_domain not in set(int(v) for v in np.unique(dataset.d[idx])):
        raise ValueError(f"held-out domain {heldout_domain} absent from {split} split")
    logits = predict_logits(params, dataset.x[idx], mcfg)
    pred, _ = decide(logits, threshold, confidence)
    open_classes = dataset.counts.counts.sum(axis=0) == 0
    return metrics_from_predictions(dataset.y[idx], dataset.d[idx], pred,
                                    open_classes, heldout_domain, threshold)


def select_threshold(params: Params, mcfg: ModelConfig, dataset: Dataset,
                     grid, heldout_domain: int | None = None,
                     split: str = "val", confidence: str = "softmax") -> float:
    """Grid point maximizing H over every domain of the given split; ties
    -> smallest value. H reads no held-out domain: `heldout_domain` is
    accepted from callers that pass one and is not read."""
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ValueError("threshold grid is empty")
    if len(grid) == 1:
        return grid[0]
    idx = dataset.indices(split)
    logits = predict_logits(params, dataset.x[idx], mcfg)
    open_classes = dataset.counts.counts.sum(axis=0) == 0
    preds, _ = decide(logits, np.asarray(grid)[:, None], confidence)
    scores = h_per_threshold(dataset.y[idx], dataset.d[idx], preds, open_classes)
    return grid[int(np.argmax(scores))]


def h_per_threshold(y: np.ndarray, d: np.ndarray, preds: np.ndarray,
                    open_classes: np.ndarray) -> np.ndarray:
    """``metrics_from_predictions(y, d, pred, ...).h`` for each row ``pred``
    of the (G, N) decisions, bit for bit, from per-threshold counts: every
    rate is an exact count over a sample count, as in ``mean``."""
    y, d, preds = np.asarray(y), np.asarray(d), np.asarray(preds)
    is_open_class = open_classes[y]
    known = ~is_open_class
    correct_known = (preds == y) & known

    def rate(sel):  # per-threshold share of the selected samples scored right
        n = int(sel.sum())
        return correct_known[:, sel].sum(axis=1) / n if n else np.zeros(len(preds))

    if is_open_class.any():
        pooled = rate(known)
        b = (preds[:, is_open_class] == OPEN).sum(axis=1) / int(is_open_class.sum())
        total = pooled + b
        h = np.divide(2.0 * pooled * b, total, out=np.zeros_like(total), where=total != 0)
    else:
        per_domain = [rate((d == dom) & known) for dom in np.unique(d)]
        h = np.stack(per_domain, axis=1).mean(axis=1) if per_domain else np.zeros(len(preds))
    return 100.0 * h


# ---------------------------------------------------------------------------
# distribution diagnostics
# ---------------------------------------------------------------------------

def frechet_distance(mu1, sigma1, mu2, sigma2) -> float:
    """Fréchet distance between Gaussians:
    ||mu1-mu2||^2 + Tr(S1 + S2 - 2 sqrt(sqrt(S1) S2 sqrt(S1)))."""
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu2 = np.asarray(mu2, dtype=np.float64)
    r1 = psd_sqrt(np.asarray(sigma1, dtype=np.float64))
    cross = psd_sqrt(r1 @ np.asarray(sigma2, dtype=np.float64) @ r1)
    diff = mu1 - mu2
    val = float(diff @ diff + np.trace(sigma1) + np.trace(sigma2) - 2.0 * np.trace(cross))
    return max(val, 0.0)


def dump_features(params: Params, mcfg: ModelConfig, dataset: Dataset, path,
                  split: str | None = None) -> int:
    """Write ``domain,label,z_0,...`` rows of extracted features through
    ``data.write_rows``; returns the row count."""
    idx = (np.arange(len(dataset.y)) if split is None else dataset.indices(split))
    header = "domain,label," + ",".join(f"z_{i}" for i in range(mcfg.d_v))
    z = (forward_features(params, dataset.x[idx], mcfg).data if idx.size
         else np.empty((0, mcfg.d_v)))
    write_rows(path, header, (dataset.d[idx], dataset.y[idx]), z)
    return int(idx.size)

