"""Stateful per-domain prototype and per-class covariance tracking.

Prototypes are EMA-tracked mean features per (domain, class); classes a
domain never sees stay identically zero behind a presence mask, and the
masked table is completed with semantic rows before alignment. Class
covariances are streamed exactly (population statistics, merged batch by
batch) and blended across semantically similar classes so tail classes can
borrow second-order structure from related heads.

Both covariance steps are loop-free over classes. A batch is sorted by label
once, and its merge into the running statistics is one batched Gram product
over the class-centred rows with one more row per class, the mean-shift
term of the merge; blending is one mixing matrix (a row per class blended)
times the flattened covariance stack, with each class's top-k neighbours
read from an index the read-only ``SemanticTable`` computes once per k. The
distinct labels (or bank keys) of a batch, their counts and each sample's
group come from one ``np.bincount`` (``label_groups``).

Update operations return new bank objects; callers own the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .mathcore import Tensor, mask_fill

UNIT_TOL = 1e-10


@dataclass(frozen=True)
class SemanticTable:
    """Unit-normalized per-class semantic embeddings, shape (C, d_s).

    The table keeps a read-only copy of the rows it is given, so the rows
    checked here are the rows every later reader sees.
    """

    s: np.ndarray
    _neighbours: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        s = np.array(self.s, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] < 2:
            raise ValueError("semantic table must be (C >= 2, d_s)")
        if not np.isfinite(s).all():
            raise ValueError("semantic table has non-finite entries")
        norms = np.linalg.norm(s, axis=1)
        if np.abs(norms - 1.0).max() > UNIT_TOL:
            raise ValueError("semantic table rows must be unit-normalized")
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    def neighbours(self, k: int) -> np.ndarray:
        """``topk_neighbours(self, k)``, computed once per k and returned
        read-only. The rows never change, so the cache cannot go stale."""
        idx = self._neighbours.get(k)
        if idx is None:
            idx = topk_neighbours(self, k)
            idx.flags.writeable = False
            self._neighbours[k] = idx
        return idx

    @property
    def n_classes(self) -> int:
        return self.s.shape[0]

    @property
    def dim(self) -> int:
        return self.s.shape[1]


@dataclass
class PrototypeBank:
    """EMA visual prototypes v[domain, class] with presence masks."""

    v: np.ndarray          # (K, C, d_v)
    mask: np.ndarray       # (K, C) bool
    ema: ClassVar[float] = 0.5   # fixed weight on the incoming batch mean

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.v.ndim != 3 or self.mask.shape != self.v.shape[:2]:
            raise ValueError("prototype bank shapes are inconsistent")

    @classmethod
    def zeros(cls, mask: np.ndarray, d_v: int) -> "PrototypeBank":
        mask = np.asarray(mask, dtype=bool)
        return cls(v=np.zeros((*mask.shape, d_v)), mask=mask)

    def copy(self) -> "PrototypeBank":
        return PrototypeBank(v=self.v.copy(), mask=self.mask.copy())


def label_groups(keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of a nonnegative int array, sorted, their counts,
    and each element's index among them, all from one ``np.bincount``: the
    values and index are those of ``np.unique(keys, return_inverse=True)``.
    The count array runs up to the largest key, so the keys must be bounded
    by a size the program chose, such as the cells of a bank; codes read
    from a file, which have no bound, take ``data``'s sort-based path."""
    counts = np.bincount(keys)
    present = counts > 0
    groups = np.flatnonzero(present)
    return groups, counts[groups], (np.cumsum(present) - 1)[keys]


def update_prototypes(bank: PrototypeBank, rows, features, labels) -> PrototypeBank:
    """One EMA step per (bank row, class) toward the batch mean of its samples.

    `rows` gives each sample's bank row (one int serves the whole batch). For
    every (row, class) pair present in the batch
        v[row, c] <- ema * mean(features of its samples) + (1 - ema) * v[row, c];
    other entries are untouched. The step is one per pair however many
    domains feed a row, so a row shared by several domains steps once toward
    their pooled class mean. A label whose presence mask is false in its row
    is an error (the sample could not exist).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.broadcast_to(np.asarray(rows, dtype=np.int64), labels.shape)
    keys, _, inv = label_groups(np.ravel_multi_index((rows, labels), bank.mask.shape))
    r, c = np.unravel_index(keys, bank.mask.shape)
    unseen = np.flatnonzero(~bank.mask[r, c])
    if unseen.size:
        i = unseen[0]
        raise ValueError(f"update_prototypes: class {c[i]} unseen in domain {r[i]}")
    onehot = (inv[None, :] == np.arange(len(keys))[:, None]).astype(np.float64)
    batch_mean = onehot @ features / onehot.sum(axis=1)[:, None]
    out = bank.copy()
    out.v[r, c] = bank.ema * batch_mean + (1.0 - bank.ema) * bank.v[r, c]
    return out


def complete_semantic(bank: PrototypeBank, encode, table: SemanticTable, rows):
    """Prototype tables in semantic space with missing classes filled in.

    `rows` lists bank rows (domains); the result stacks one (C, d_s) table
    per row into (K, C, d_s), and a single row index gives one (C, d_s)
    table. Row c of a table is the encoded prototype when its domain has seen
    class c, else the semantic row s_c. A masked row still at its all-zero
    initialization holds no estimate yet and is treated as missing too.
    `encode` maps a (..., C, d_v) stack to unit (..., C, d_s) rows and may
    build a gradient graph; filled rows contribute no gradient.
    """
    v = bank.v[rows]
    known = bank.mask[rows] & (np.abs(v).max(axis=-1) > 0)
    return mask_fill(encode(Tensor(v)), known[..., None], table.s)


@dataclass
class CovarianceBank:
    """Streaming per-class mean/covariance over features from all domains.

    Covariances are population (divide-by-n) statistics, so any sequence of
    batch updates reproduces the one-shot statistics of the union exactly.
    Classes with n <= 1 have a zero covariance.
    """

    mu: np.ndarray      # (C, d_v)
    sigma: np.ndarray   # (C, d_v, d_v)
    n: np.ndarray       # (C,) int64

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        self.n = np.asarray(self.n, dtype=np.int64)

    @classmethod
    def zeros(cls, n_classes: int, d_v: int) -> "CovarianceBank":
        return cls(mu=np.zeros((n_classes, d_v)),
                   sigma=np.zeros((n_classes, d_v, d_v)),
                   n=np.zeros(n_classes, dtype=np.int64))

    def copy(self) -> "CovarianceBank":
        return CovarianceBank(mu=self.mu.copy(), sigma=self.sigma.copy(), n=self.n.copy())


def update_covariance(bank: CovarianceBank, features, labels) -> CovarianceBank:
    """Merge a batch into the running per-class statistics.

    With n existing and m incoming samples of a class:
        mu'    = (n mu + m mu_b) / (n + m)
        Sigma' = (n Sigma + m Sigma_b)/(n + m) + n m (mu - mu_b)(mu - mu_b)'/(n + m)^2
    where mu_b and Sigma_b are the batch's population statistics. The batch
    is sorted by label once (stably) and the class means are segment sums of
    the sorted rows. Each class's centred rows, then its mean-shift row
    sqrt(n m / (n + m)) (mu - mu_b), are scattered into a zero-padded
    (U, m_max + 1, d) stack P, so that P_u'P_u = m Sigma_b + n m (mu - mu_b)
    (mu - mu_b)'/(n + m) and every class's Sigma' is (n Sigma + P_u'P_u) /
    (n + m) from one batched Gram product. The first merge of a class (n = 0)
    reads neither of its slots: its shift row is zero and its old Sigma is
    taken as 0, so it stores the batch's own mean and P_u'P_u / m bit for bit.
    """
    features = np.asarray(features, dtype=np.float64)
    if not np.isfinite(features).all():
        raise ValueError("update_covariance: non-finite features")
    labels = np.asarray(labels, dtype=np.int64)
    classes, counts, _ = label_groups(labels)                          # (U,)
    u = len(classes)
    starts = np.cumsum(counts) - counts          # first row of each class once sorted
    m = counts.astype(np.float64)
    xs = features[np.argsort(labels, kind="stable")]
    mu_b = np.add.reduceat(xs, starts, axis=0) / m[:, None]            # (U, d)
    n = bank.n[classes].astype(np.float64)
    tot = n + m
    seen = np.flatnonzero(n > 0)
    seg = np.repeat(np.arange(u), counts)                              # class of each sorted row
    padded = np.zeros((u, counts.max(initial=0) + 1, xs.shape[1]))
    padded[seg, np.arange(len(xs)) - starts[seg]] = xs - mu_b[seg]
    padded[seen, counts[seen]] = np.sqrt(n[seen] * m[seen] / tot[seen])[:, None] \
        * (bank.mu[classes[seen]] - mu_b[seen])
    sig = bank.sigma[classes]
    sig[n == 0] = 0.0
    sig *= n[:, None, None]
    gram = np.swapaxes(padded, 1, 2) @ padded
    sig += gram
    sig /= tot[:, None, None]
    sym = np.add(sig, np.swapaxes(sig, 1, 2), out=gram)
    sym *= 0.5
    out = bank.copy()
    out.mu[classes] = mu_b
    out.mu[classes[seen]] = (n[seen, None] * bank.mu[classes[seen]]
                             + m[seen, None] * mu_b[seen]) / tot[seen, None]
    out.sigma[classes] = sym
    out.n[classes] += counts
    return out


def topk_neighbours(table: SemanticTable, k: int) -> np.ndarray:
    """(C, k) indices of each class's k most similar classes: the class
    itself first, then by descending similarity, ties to the lower index."""
    sims = table.s @ table.s.T
    np.fill_diagonal(sims, np.inf)
    return np.argsort(-sims, axis=1, kind="stable")[:, :k]


def blend_covariance(bank: CovarianceBank, table: SemanticTable, k: int,
                     weighted: bool = True, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Count-weighted mix of the covariances of each class's top-k semantic
    neighbours. Returns (sigma_prime stack, empty-flag per class); a class
    whose selected neighbours are all unseen gets a zero matrix and a flag.
    With `rows` (class indices) only those classes are blended, and both
    results hold one entry per row.

    The neighbours come from the table's cached index. Row c of a (C, C)
    mixing matrix holds its neighbours' weights divided by their total, so
    the whole stack is one product of that matrix (its `rows` only) with the
    (C, d*d) flattened covariances.
    """
    c_total = table.n_classes
    if not (1 <= k <= c_total):
        raise ValueError("blend_covariance: k must lie in [1, C]")
    if bank.sigma.shape[0] != c_total:
        raise ValueError("blend_covariance: bank/table class count mismatch")
    sel = table.neighbours(k)                                          # (C, k)
    if rows is not None:
        sel = sel[rows]
    n_sel = bank.n[sel].astype(np.float64)
    empty = n_sel.sum(axis=1) <= 0
    wts = np.where(empty[:, None], 0.0, n_sel if weighted else np.ones_like(n_sel))
    total = np.where(empty, 1.0, wts.sum(axis=1))
    mix = np.zeros((len(sel), c_total))
    mix[np.arange(len(sel))[:, None], sel] = wts / total[:, None]
    sigma_prime = (mix @ bank.sigma.reshape(c_total, -1)).reshape(-1, *bank.sigma.shape[1:])
    return sigma_prime, empty
