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
falls below the threshold. Every score is read by ``_score`` from two
integer tables that ``_count`` fills: (G, D, C) hits per threshold, domain
and class, and (D, C) sample counts. ``evaluate`` and
``metrics_from_predictions`` report row 0, and ``select_threshold`` takes
the argmax of the H row. ``evaluate`` scores Acc-U on one held-out domain
(the CLI passes the first of ``Dataset.heldout_domains``); H is scored over
every domain of the split. Every pass over a split runs the model on at most
``SCORE_BLOCK_ROWS`` rows at a time and counts each block before the next
one runs, and reads the split's rows and domains from the dataset's cache
(``Dataset.indices``, ``Dataset.domains_of``), so what a pass holds does
not grow with the split.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, _distinct, write_rows
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


# the names decide's `confidence` accepts: the max softmax probability alone
CONFIDENCE_RULES = ("softmax",)


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
        return {**asdict(self), "per_domain": {str(k): v for k, v in self.per_domain.items()},
                "per_class": {str(k): v for k, v in self.per_class.items()}}


def decide(logits: np.ndarray, threshold: float,
           confidence: str = "softmax") -> tuple[np.ndarray, np.ndarray]:
    """Classify rows of logits, or reject them as an open class.

    Returns (predicted class or OPEN, confidence) per row. Confidence is the
    max softmax probability, the one rule ``confidence`` names. OPEN iff
    confidence falls strictly below the threshold; argmax ties go to the
    lowest index. An array of thresholds broadcasts against the rows: a
    (G, 1) column gives one row of decisions per threshold.
    """
    if confidence not in CONFIDENCE_RULES:
        raise ValueError(f"unknown confidence rule {confidence!r}")
    logits = np.asarray(logits, dtype=np.float64)
    conf = _softmax_confidence(logits)
    return np.where(conf < threshold, OPEN, logits.argmax(axis=-1)), conf


def harmonic(a, b):
    """2ab / (a + b), 0 where a + b is 0: elementwise for arrays, a float for floats."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    total = a + b
    h = np.divide(2.0 * a * b, total, out=np.zeros_like(total), where=total != 0)
    return h if h.ndim else float(h)


def _count(domains, open_classes, blocks, g: int = 1):
    """The (G, D, C) hits and (D, C) sample counts of row blocks of (G, B)
    decisions (OPEN = -1, a row per threshold), labels and domains: a hit is a
    known class predicted as itself or an open class rejected; D is `domains`."""
    n = np.zeros((domains.size, open_classes.size), dtype=np.int64)
    hits = np.zeros((g, *n.shape), dtype=np.int64)
    for preds, y, d in blocks:
        cell = np.searchsorted(domains, d) * open_classes.size + y
        right = np.where(open_classes[y], preds == OPEN, preds == y)
        hits += np.bincount((np.arange(g)[:, None] * n.size + cell)[right],
                            minlength=hits.size).reshape(hits.shape)
        n += np.bincount(cell, minlength=n.size).reshape(n.shape)
        del preds, y, d, cell, right  # so no block's arrays live while the next one runs
    return hits, n


def _score(hits, n, open_classes):
    """Each threshold row of the tables, in percent: per-domain known-class
    accuracy (G, D), their mean (Acc), pooled known-class accuracy, open-class
    rejection (None when no sample is open), per-class accuracy (G, C) and H
    (Acc when none is open). Each rate is one count over another, 0 over none."""
    known, n_known = hits[..., ~open_classes].sum(axis=-1), n[:, ~open_classes].sum(axis=-1)
    n_open = n[:, open_classes].sum()

    def rate(hits, n):
        return np.divide(hits, n, out=np.zeros(np.shape(hits)), where=n != 0)

    per_domain = rate(known, n_known)
    acc = per_domain.mean(axis=1) if n.shape[0] else np.zeros(len(hits))
    pooled = rate(known.sum(axis=1), n_known.sum())
    rejected = hits[..., open_classes].sum(axis=(1, 2)) / n_open if n_open else None
    h = acc if rejected is None else harmonic(pooled, rejected)
    return (100.0 * per_domain, 100.0 * acc, 100.0 * pooled,
            None if rejected is None else 100.0 * rejected,
            100.0 * rate(hits.sum(axis=1), n.sum(axis=0)), 100.0 * h)


def _report(domains, hits, n, open_classes, heldout_domain, threshold) -> MetricReport:
    """Row 0 of the tables; Acc-U is the held-out domain's rate (0.0 if it is
    absent), and per-class accuracy covers the classes with samples."""
    per_domain, acc, pooled, rejected, per_class, h = _score(hits[:1], n, open_classes)
    per_domain = dict(zip(domains.tolist(), per_domain[0].tolist()))
    seen = np.flatnonzero(n.sum(axis=0))
    return MetricReport(acc_u=per_domain.get(heldout_domain, 0.0), acc=float(acc[0]),
                        h=float(h[0]), threshold=threshold, pooled_acc=float(pooled[0]),
                        open_acc=None if rejected is None else float(rejected[0]),
                        per_domain=per_domain,
                        per_class=dict(zip(seen.tolist(), per_class[0, seen].tolist())),
                        h_fallback=rejected is None)


def metrics_from_predictions(y: np.ndarray, d: np.ndarray, pred: np.ndarray,
                             open_classes: np.ndarray, heldout_domain: int,
                             threshold: float) -> MetricReport:
    """The report of per-sample decisions (OPEN = -1), counted into tables."""
    domains = _distinct(np.asarray(d))
    tables = _count(domains, open_classes, [(np.asarray(pred)[None], np.asarray(y), d)])
    return _report(domains, *tables, open_classes, heldout_domain, threshold)


def _row_blocks(idx: np.ndarray):
    """Yield `idx` cut into the fewest blocks of at most ``SCORE_BLOCK_ROWS``
    rows, one view at a time, of sizes within one, the longer first, as
    ``np.array_split`` cuts them (one empty block for an empty `idx`): BLAS
    would sum a short tail block's product in another order and could move its
    rows' last bit."""
    k = max(1, -(-idx.size // SCORE_BLOCK_ROWS))
    size, longer = divmod(idx.size, k)
    for i in range(k):
        start = i * size + min(i, longer)
        yield idx[start:start + size + (i < longer)]


def _tables(params: Params, mcfg: ModelConfig, dataset: Dataset, split: str,
            threshold, confidence: str):
    """(domains, hits, n, open classes: those with no training sample) of ``decide``
    over a split at `threshold` (a (G, 1) column: a row per value), block by block."""
    idx, domains = dataset.indices(split), dataset.domains_of(split)
    open_classes = dataset.counts.counts.sum(axis=0) == 0
    blocks = ((np.atleast_2d(decide(predict_logits(params, dataset.x[rows], mcfg),
                                    threshold, confidence)[0]),
               dataset.y[rows], dataset.d[rows]) for rows in _row_blocks(idx))
    return domains, *_count(domains, open_classes, blocks, np.size(threshold)), open_classes


def evaluate(params: Params, mcfg: ModelConfig, dataset: Dataset,
             heldout_domain: int, threshold: float, split: str = "test",
             confidence: str = "softmax") -> MetricReport:
    """Run the model over a split and score it under the open-class protocol."""
    idx = dataset.indices(split)
    if idx.size == 0:
        raise ValueError(f"no {split} data to evaluate")
    if heldout_domain not in dataset.domains_of(split):
        raise ValueError(f"held-out domain {heldout_domain} absent from {split} split")
    return _report(*_tables(params, mcfg, dataset, split, threshold, confidence),
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
    _, hits, n, open_classes = _tables(params, mcfg, dataset, split,
                                       np.asarray(grid)[:, None], confidence)
    return grid[int(np.argmax(_score(hits, n, open_classes)[-1]))]


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

