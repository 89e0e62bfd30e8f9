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
(optionally the maximum logit, rescaled) falls below the threshold.
``evaluate`` and ``select_threshold`` decide their split through one helper
(``select_threshold`` passes its whole grid, so the confidences are computed
once), and one counting function, ``_score``, scores a (G, N) grid of
decisions: ``metrics_from_predictions`` reports its row 0, and
``select_threshold`` takes the argmax of its H row. ``evaluate`` scores
Acc-U on one held-out domain (the CLI passes the first of
``Dataset.heldout_domains``); H is scored over every domain of the split.

Every pass over a split (``evaluate``, ``select_threshold``,
``dump_features``) runs the model on at most ``SCORE_BLOCK_ROWS`` rows at a
time, so its logits, features and confidences are bounded by the block, not
by the split. What still grows with the split is the integer decisions, one
row per threshold, and ``_score``'s counts over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, write_rows
from .mathcore import psd_sqrt
from .model import ModelConfig, Params, forward_features, predict_logits

OPEN = -1  # predicted-class sentinel for "open class"
SCORE_BLOCK_ROWS = 256  # most rows of a split run through the model at once


def _softmax_confidence(logits: np.ndarray) -> np.ndarray:
    """Max softmax probability of each row, as 1 / sum_j e^{z_j - max z},
    with no probability matrix built. The argmax's term is e^0 = 1 exactly
    and dividing by the positive row sum keeps the order, so this is
    ``max(softmax)`` bit for bit. Refuses a row holding NaN or +inf, or no
    finite entry."""
    m = logits.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise ValueError("decide: a row holds NaN or +inf, or no finite entry")
    ez = np.subtract(logits, m)
    np.exp(ez, out=ez)
    return 1.0 / ez.sum(axis=-1)


# decide's confidence rules by name: (N, C) logits -> (N,) confidences in [0, 1]
CONFIDENCE_RULES = {
    "softmax": _softmax_confidence,
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


def harmonic(a, b):
    """2ab / (a + b), 0 where a + b is 0: elementwise for arrays, a float for floats."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    total = a + b
    h = np.divide(2.0 * a * b, total, out=np.zeros_like(total), where=total != 0)
    return h if h.ndim else float(h)


def _score(y, d, preds, open_classes):
    """Score (G, N) decisions (OPEN = -1), one row per threshold, of samples
    labelled `y` in domains `d`. Returns the domains present and, per row in
    percent: each one's known-class accuracy (G, D), their mean (Acc), the
    pooled known-class accuracy, the share of open-class samples rejected
    (None when none is open) and H, which is then Acc. Each rate is an exact
    count over a sample count, 0 over no samples."""
    y, preds = np.asarray(y), np.atleast_2d(preds)
    is_open = open_classes[y]
    hit = (preds == y) & ~is_open
    domains, dom = np.unique(d, return_inverse=True)
    in_domain = (dom[:, None] == np.arange(domains.size)) & ~is_open[:, None]   # (N, D)

    def rate(hits, n):
        return np.divide(hits, n, out=np.zeros(np.shape(hits)), where=n != 0)

    per_domain = rate(hit.astype(np.int64) @ in_domain, in_domain.sum(axis=0))
    acc = per_domain.mean(axis=1) if domains.size else np.zeros(len(preds))
    pooled = rate(hit.sum(axis=1), in_domain.sum())
    rejected = ((preds[:, is_open] == OPEN).sum(axis=1) / is_open.sum()
                if is_open.any() else None)
    h = acc if rejected is None else harmonic(pooled, rejected)
    return (domains, 100.0 * per_domain, 100.0 * acc, 100.0 * pooled,
            None if rejected is None else 100.0 * rejected, 100.0 * h)


def metrics_from_predictions(y: np.ndarray, d: np.ndarray, pred: np.ndarray,
                             open_classes: np.ndarray, heldout_domain: int,
                             threshold: float) -> MetricReport:
    """The report of per-sample decisions (OPEN = -1): row 0 of ``_score``,
    Acc-U being the held-out domain's rate (0.0 if it is absent), plus each
    class's share scored right."""
    y, pred = np.asarray(y), np.asarray(pred)
    domains, per_domain, acc, pooled, rejected, h = _score(y, d, pred, open_classes)
    per_domain = dict(zip(domains.tolist(), per_domain[0].tolist()))
    n = np.bincount(y)
    hits = np.bincount(y[np.where(open_classes[y], pred == OPEN, pred == y)], minlength=n.size)
    seen = np.flatnonzero(n)
    return MetricReport(acc_u=per_domain.get(heldout_domain, 0.0), acc=float(acc[0]),
                        h=float(h[0]), threshold=threshold, pooled_acc=float(pooled[0]),
                        open_acc=None if rejected is None else float(rejected[0]),
                        per_domain=per_domain,
                        per_class=dict(zip(seen.tolist(),
                                           (100.0 * (hits[seen] / n[seen])).tolist())),
                        h_fallback=rejected is None)


def _row_blocks(idx: np.ndarray) -> list[np.ndarray]:
    """`idx` cut into the fewest blocks of at most ``SCORE_BLOCK_ROWS`` rows,
    whose sizes differ by at most one (one empty block when `idx` is empty).
    Even blocks leave no short tail: BLAS sums a product of few rows in
    another order, so a short last block could move the last bit of its
    rows against one pass over the whole split."""
    return np.array_split(idx, max(1, -(-idx.size // SCORE_BLOCK_ROWS)))


def _decisions(params: Params, mcfg: ModelConfig, dataset: Dataset, split: str,
               threshold, confidence: str):
    """(labels, domains, decisions, open classes) of a split: ``decide`` at
    `threshold` (a (G, 1) column gives one row of decisions per value) on
    one row block at a time, the open classes being those with no training
    sample."""
    idx = dataset.indices(split)
    pred = np.concatenate([decide(predict_logits(params, dataset.x[rows], mcfg),
                                  threshold, confidence)[0]
                           for rows in _row_blocks(idx)], axis=-1)
    return dataset.y[idx], dataset.d[idx], pred, dataset.counts.counts.sum(axis=0) == 0


def evaluate(params: Params, mcfg: ModelConfig, dataset: Dataset,
             heldout_domain: int, threshold: float, split: str = "test",
             confidence: str = "softmax") -> MetricReport:
    """Run the model over a split and score it under the open-class protocol."""
    idx = dataset.indices(split)
    if idx.size == 0:
        raise ValueError(f"no {split} data to evaluate")
    if heldout_domain not in dataset.d[idx]:
        raise ValueError(f"held-out domain {heldout_domain} absent from {split} split")
    return metrics_from_predictions(
        *_decisions(params, mcfg, dataset, split, threshold, confidence),
        heldout_domain, threshold)


def select_threshold(params: Params, mcfg: ModelConfig, dataset: Dataset,
                     grid, heldout_domain: int | None = None,
                     split: str = "val", confidence: str = "softmax") -> float:
    """Grid point maximizing H over every domain of the given split; ties
    -> smallest value. H reads no held-out domain: `heldout_domain` is
    accepted from callers that pass one and is not read."""
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ValueError("threshold grid is empty")
    scores = _score(*_decisions(params, mcfg, dataset, split, np.asarray(grid)[:, None],
                                confidence))[-1]
    return grid[int(np.argmax(scores))]


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


def dump_features(params: Params, mcfg: ModelConfig, dataset: Dataset, path, split: str) -> int:
    """Write ``domain,label,z_0,...`` rows of the features of the split named
    `split` through ``data.write_rows``, computing and writing one row block
    at a time; returns the row count."""
    idx = dataset.indices(split)
    header = "domain,label," + ",".join(f"z_{i}" for i in range(mcfg.d_v))
    write_rows(path, header, (((dataset.d[rows], dataset.y[rows]),
                               forward_features(params, dataset.x[rows], mcfg).data)
                              for rows in _row_blocks(idx)))
    return int(idx.size)

