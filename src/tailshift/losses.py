"""Loss kernels for long-tailed multi-domain training.

Five kernels:

- ``dc_loss_mean``  count-calibrated softmax cross-entropy, the plain
  cross-entropy of the logits plus log counts; classes absent from the
  sample's own domain get log 0 = -inf and a gradient of exactly zero.
- ``z2s_loss_mean`` margin contrastive alignment of unit feature embeddings
  to their class rows in a semantic table.
- ``s2s_loss``  prototype contrast of a stack of tables: positives are
  same-class rows of two tables, negatives are other classes in both. Each
  table meets the one semantic table, and with ``pairs=True`` (L_S2S) every
  ordered pair of distinct tables meets as well, in one pass over one Gram
  matrix.
- ``s2z_loss``  cycle-style constraint on reconstructed prototypes: classify
  each decoded prototype as its own class, and re-align its re-encoding to
  the semantic table.
- ``aug_loss_mean`` implicit-augmentation surrogate: per-class quadratic
  penalties from a blended covariance inflate the softmax normalizer. A
  training step validates its blended covariances once, as a read-only
  ``SigmaPrimes`` that both of its ``aug_loss_mean`` calls read unchecked.
  On one sample with features mu, its value is the moment-generating-
  function upper bound on the expected cross-entropy of features drawn
  from N(mu, lam Sigma'_y), ISDA's surrogate; a Monte-Carlo estimate of
  that expectation must stay below it.

Every loss is one graph node with a hand-written backward
(``dc_loss_mean``, ``z2s_loss_mean``, ``s2s_loss``, ``aug_loss_mean``) or a
sum of such nodes (``s2z_loss`` adds a ``dc_loss_mean`` on its ``affine``
logits to an ``s2s_loss``). The softmax cross-entropies of
``dc_loss_mean``, ``z2s_loss_mean`` and ``aug_loss_mean`` are one helper on
``mathcore``'s log-softmax core; ``s2s_loss`` keeps its own shift, one per
Gram row (see its docstring). Like ``model``, each accepts plain arrays or
graph tensors and always returns a scalar Tensor (its ``.data`` is the
value). Gradients are analytic and cross-checked against
``mathcore.fd_grad``. A single sample is a batch of one, and the table
kernels (``z2s_loss_mean``, ``s2s_loss``, ``s2z_loss``) take a stack of
(C, d) tables over leading axes as well, returning the mean over the stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .banks import SemanticTable, label_groups
from .mathcore import Tensor, affine, as_tensor, check_psd
from .mathcore.autodiff import _log_softmax_core, _unbroadcast

UNIT_TOL = 1e-6


@dataclass(frozen=True)
class ContrastiveParams:
    """Margin and temperature of the contrastive kernels."""

    alpha: float = 0.1
    tau: float = 1.0 / 30.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")


@dataclass(frozen=True)
class AugParams:
    """Implicit-augmentation intensity and top-k neighbour count."""

    lam: float = 5.0
    k: int = 5

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class DomainClassCounts:
    """Per-domain training sample counts, shape (n_domains, n_classes).

    A zero entry marks a class unseen in that domain; the positivity pattern
    of a row is exactly the domain's prototype presence mask. The read-only
    ``log_counts`` (log 0 = -inf) is the log-prior of ``dc_loss_mean``.
    """

    counts: np.ndarray
    log_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2:
            raise ValueError("counts must be 2-D (domains x classes)")
        if not np.issubdtype(c.dtype, np.integer):
            raise ValueError(f"counts must be an integer array, not {c.dtype}")
        c = c.astype(np.int64)
        if (c < 0).any():
            raise ValueError("counts must be nonnegative")
        if (c.sum(axis=1) <= 0).any():
            raise ValueError("every domain must hold at least one sample")
        object.__setattr__(self, "counts", c)
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "log_counts", np.log(c))   # log 0 = -inf
        self.log_counts.flags.writeable = False

    @property
    def n_domains(self) -> int:
        return self.counts.shape[0]

    @property
    def n_classes(self) -> int:
        return self.counts.shape[1]

    @property
    def mask(self) -> np.ndarray:
        return self.counts > 0


def _table(table, what: str) -> Tensor:
    """A Tensor of unit rows from a Tensor, a SemanticTable or a plain
    (..., C, d) array. A SemanticTable's rows were checked at a tighter
    tolerance when it was built and are read-only, so only Tensors and arrays
    are checked here."""
    if isinstance(table, SemanticTable):
        return Tensor(table.s)
    t = as_tensor(table)
    _check_unit_rows(t.data, what)
    return t


def _check_unit_rows(x: np.ndarray, what: str):
    # `<=` is False for NaN, so a NaN row is refused as well
    x = np.atleast_2d(x)
    dev = np.abs(np.sqrt(np.add.reduce(x * x, axis=-1)) - 1.0)   # np.linalg.norm's sum
    if not (dev <= UNIT_TOL).all():
        raise ValueError(f"{what}: rows must be unit-normalized (max deviation "
                         f"{dev.max():.3g})")


# ---------------------------------------------------------------------------
# calibrated classification
# ---------------------------------------------------------------------------

def _nll_at_labels(z: np.ndarray, labels: np.ndarray, what: str, log_prior=None):
    """Mean of -log_softmax(z + log_prior) at `labels` over every (..., B, C)
    row, and dL/dz = (softmax - onehot) g / n for an upstream gradient g.
    The raw `z` is checked first, so a non-finite logit is refused in the
    name of the loss `what`, before +inf can meet a -inf log-prior as NaN."""
    if not np.isfinite(z).all():
        raise ValueError(f"{what}: non-finite logits")
    if log_prior is not None:
        z = z + log_prior
    lse, p = _log_softmax_core(z)
    rows = np.arange(z.shape[-2])
    picked = z[..., rows, labels] - lse[..., rows, 0]
    n = float(picked.size)

    def dz(g):
        d = p.copy()
        d[..., rows, labels] -= 1.0
        d *= g / n
        return d

    return -(picked.sum() / n), dz


def dc_loss_mean(logits, labels, domains, counts: DomainClassCounts | None):
    """Mean of -log( n_y e^{z_y} / sum_c n_c e^{z_c} ) over a batch.

    That is the plain cross-entropy of z + log n: Balanced Softmax (Ren et
    al., NeurIPS 2020), the logit-adjusted loss at tau = 1 (Menon et al.,
    ICLR 2021). `logits` is (B, C), or a (..., B, C) stack averaged over;
    `labels` and `domains` are int arrays of length B, and each sample's
    counts row is its own training domain. A zero count gives log n = -inf,
    so that class leaves the normalizer and its logit gets exactly zero
    gradient; ``counts=None`` gives the plain cross-entropy.

    One graph node: the backward is (softmax - onehot) g / n.
    """
    z = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    log_prior = None
    if counts is not None:
        domains = np.asarray(domains, dtype=np.int64)
        if (counts.counts[domains, labels] <= 0).any():
            raise ValueError("dc_loss_mean: a label has zero count in its domain")
        log_prior = counts.log_counts[domains]
    value, dz = _nll_at_labels(z.data, labels, "dc_loss_mean", log_prior)

    def bw(g):
        Tensor._accum(z, dz(g))

    return Tensor._from_op(np.asarray(value), (z,), bw)


# ---------------------------------------------------------------------------
# visual -> semantic alignment
# ---------------------------------------------------------------------------

def z2s_loss_mean(embeddings, labels, table, cp: ContrastiveParams):
    """Margin contrastive loss of unit embeddings against a semantic table,
    averaged over the batch.

    The positive similarity <e, s_y> is shifted down by the margin alpha, all
    similarities are scaled by 1/tau, and the result is a softmax
    cross-entropy at the class index. A (..., C, d) stack of tables gives the
    mean over the stack of the per-table losses.

    One graph node: with G = (softmax - onehot) g / (n tau) the derivative by
    the similarities, the backward adds G s into the embeddings and G' e
    into the table, summed back over broadcast stack axes.
    """
    e = as_tensor(embeddings)
    _check_unit_rows(e.data, "z2s_loss_mean embeddings")
    t = _table(table, "z2s_loss_mean table")
    labels = np.asarray(labels, dtype=np.int64)
    ed, td = e.data, t.data
    z = ed @ np.swapaxes(td, -1, -2)                       # (..., B, C)
    z[..., np.arange(ed.shape[-2]), labels] -= cp.alpha
    z /= cp.tau
    value, dz = _nll_at_labels(z, labels, "z2s_loss_mean")

    def bw(g):
        gs = dz(g) / cp.tau
        if e.requires_grad:
            Tensor._accum(e, _unbroadcast(gs @ td, ed.shape))
        if t.requires_grad:
            Tensor._accum(t, _unbroadcast(np.swapaxes(gs, -1, -2) @ ed, td.shape))

    return Tensor._from_op(np.asarray(value), (e, t), bw)


@functools.lru_cache(maxsize=32)
def _s2s_weights(k: int, c: int, pairs: bool) -> np.ndarray:
    """(K, C, N) weight of each term of ``s2s_loss``, where block N - 1 is the
    (C, d) table: 1/(KC) for a table term, 1/(K(K-1)C) for a pair of distinct
    tables of the stack (with ``pairs`` only), 0 for a table's own block,
    which is not a pair. Read-only."""
    n = k + 1 if pairs else 2
    w = np.full((k, c, n), 1.0 / float(k * (k - 1) * c) if pairs and k > 1 else 0.0)
    w[..., n - 1] = 1.0 / float(k * c)
    w[np.arange(k), :, np.arange(k) if pairs else 0] = 0.0
    w.flags.writeable = False
    return w


def s2s_loss(s_hat, table, cp: ContrastiveParams, pairs: bool = False):
    """Prototype contrast of a stack of (C, d) tables against one (C, d)
    table, and with ``pairs`` also between the tables of the stack:

        mean_k s2s(s_hat_k, table) [+ mean_{m != n} s2s(s_hat_m, s_hat_n)]

    For tables a, b, s2s(a, b) is the mean over classes c of the softmax
    cross-entropy whose positive is (a_c . b_c - alpha) / tau and whose
    negatives are a_c . b_j / tau and a_c . a_j / tau for j != c: other
    classes are pushed away both across and within tables. `s_hat` is one
    (C, d) table or a (..., C, d) stack; ``pairs=True`` (L_S2S) needs a
    (K, C, d) stack and adds the mean over its K(K - 1) ordered pairs of
    distinct tables, so with K = 1 only the table term remains.

    One graph node. Every similarity is an entry of a Gram matrix G of the
    stack's rows, scaled by 1/tau: against [stack; table] with ``pairs``,
    else each table's rows against [its own table; table]. The terms of
    class c of table m read only row (m, c) of G, so that row's maximum is
    their shift and its exponentials are taken once for all of them. The
    excluded diagonal entries of each (m, n) block (the positives and the
    self-similarities) are zeroed before the block row sums, never
    subtracted from a full sum. In the backward, block (m, n) of dL/dG is
    E_mn gs_mn off its diagonal for a cross block and E_mm times the sum of
    gs_mn over n for the intra block, with the positives' derivatives on the
    cross diagonals; the stack then gets (dG X + dG_s' S) / tau, where X is
    G's column rows and dG_s is dG's stack columns, and the table
    dG_t' S / tau.
    """
    a = _table(s_hat, "s2s_loss s_hat")
    t = _table(table, "s2s_loss table")
    ad, td = a.data, t.data
    if td.ndim != 2 or ad.shape[-2:] != td.shape or (pairs and ad.ndim != 3):
        raise ValueError(f"s2s_loss: need a {'(K' if pairs else '(...'}, C, d) stack "
                         f"and its (C, d) table")
    c, d = td.shape
    diag = np.arange(c)
    s = ad.reshape(-1, c, d)
    k = s.shape[0]
    if pairs:
        s = s.reshape(1, k * c, d)
        x = np.concatenate([s, td[None]], axis=1)                 # (1, (K+1)C, d)
    else:
        x = np.concatenate([s, np.broadcast_to(td, s.shape)], axis=1)   # (K, 2C, d)
    ks = np.arange(k)
    own = ks if pairs else np.zeros(k, dtype=np.int64)         # block n of m's own rows
    rows, n = s.shape[1], x.shape[1] // c
    gram = s @ np.swapaxes(x, -1, -2)                             # (., rows, NC)
    gram /= cp.tau
    shift = gram.max(axis=-1)
    e = gram - shift[..., None]
    e = np.exp(e, out=e).reshape(k, c, n, c)                      # [m, c, n, j]
    e[:, diag, :, diag] = 0.0
    rowsum = e.sum(axis=-1)                                       # (K, C, N)
    # pos[m, c, n] - shift: the positive s_mc . x_nc / tau - alpha / tau
    pos = gram.reshape(k, c, n, c).diagonal(axis1=1, axis2=3).swapaxes(1, 2) \
        - (shift.reshape(k, c, 1) + cp.alpha / cp.tau)
    epos = np.exp(pos)
    total = epos + rowsum + rowsum[ks, :, own][..., None]         # + intra sum
    terms = np.log(total) - pos
    wts = _s2s_weights(k, c, pairs)
    value = terms.ravel() @ wts.ravel()

    def bw(g):
        w = g * wts
        gs = w / total                                            # (K, C, N)
        dpos = epos * gs - w
        gs[ks, :, own] = gs.sum(axis=-1)                          # intra block of m
        dgram = e * gs[..., None]
        dgram[:, diag, :, diag] = dpos.swapaxes(0, 1)
        # the shape is rebuilt so that this closure keeps no reference to
        # `gram`; holding it made a paper_s1 pairs call about 15% slower
        dgram = dgram.reshape(len(s), rows, n * c)
        if a.requires_grad:
            da = (dgram @ x + np.swapaxes(dgram[..., :rows], -1, -2) @ s) / cp.tau
            Tensor._accum(a, da.reshape(ad.shape))
        if t.requires_grad:
            Tensor._accum(t, (dgram[..., rows:].reshape(-1, c).T @ s.reshape(-1, d)) / cp.tau)

    return Tensor._from_op(np.asarray(value), (a, t), bw)


def s2z_loss(v_hat, w, b, encode, table, cp: ContrastiveParams):
    """Cycle constraint on reconstructed prototypes.

    Each decoded prototype row i is classified by the linear head (w, b) with
    a plain cross-entropy against label i, and the re-encoded rows are pulled
    back onto the semantic table with ``s2s_loss``. `encode` maps a (C, d_v)
    matrix to unit (C, d_s) rows. A (..., C, d_v) stack of prototype tables
    gives the mean over the stack of the per-table losses.
    """
    v = as_tensor(v_hat)
    if not np.isfinite(v.data).all():
        raise ValueError("s2z_loss: non-finite prototypes")
    diag = np.arange(v.data.shape[-2])
    ce = dc_loss_mean(affine(v, w, b), diag, None, None)
    return ce + s2s_loss(encode(v), table, cp)


# ---------------------------------------------------------------------------
# implicit augmentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaPrimes:
    """Blended covariances Sigma' of the classes a step reads, validated once.

    Row i of `sigma` (R, d, d) is Sigma' of class ``classes[i]``; `classes`
    is sorted and distinct. Building one validates the rows as given with a
    single ``check_psd`` (a failure is reported in the name of
    ``aug_loss_mean``, the loss that reads them) and keeps read-only copies
    of `classes` and of the rows' symmetric part (S + S')/2, which is all a
    quadratic penalty sees. When the check finds S - S' exactly zero, that
    part is a plain copy of S, with no second transposed read.
    ``aug_loss_mean`` reads that part with no further check and refuses a
    label outside `classes`.
    """

    sigma: np.ndarray
    classes: np.ndarray

    def __post_init__(self):
        classes = np.array(self.classes, dtype=np.int64)
        s = np.asarray(self.sigma, dtype=np.float64)
        if classes.ndim != 1 or (np.diff(classes) <= 0).any():
            raise ValueError("SigmaPrimes: classes must be sorted and distinct")
        if s.ndim != 3 or s.shape[0] != classes.size:
            raise ValueError("SigmaPrimes: need one (d, d) row per class")
        try:
            _, asym = check_psd(s, return_asym=True)
        except ValueError as exc:
            raise ValueError(f"aug_loss_mean: {exc}") from exc
        if asym == 0.0:     # S = S' exactly, so (S + S')/2 is S bit for bit
            sym = s.copy()
        else:
            sym = s + np.swapaxes(s, 1, 2)
            sym *= 0.5
        sym.flags.writeable = classes.flags.writeable = False
        object.__setattr__(self, "sigma", sym)
        object.__setattr__(self, "classes", classes)

    def rows(self, classes: np.ndarray) -> np.ndarray:
        """The (U, d, d) symmetric parts of sorted distinct `classes`, the
        stack itself when they are all of its classes."""
        if np.array_equal(classes, self.classes):
            return self.sigma
        at = np.searchsorted(self.classes, classes)
        # `at` is the row of each known class; an unknown one meets another
        # class there or, past the last row, the appended -1 (labels are >= 0)
        outside = classes[np.append(self.classes, -1)[at] != classes]
        if outside.size:
            raise ValueError(f"aug_loss_mean: class {outside[0]} lies outside "
                             f"the validated rows of Sigma'")
        return self.sigma[at]


def aug_loss_mean(features, labels, w, b, sigma_primes, ap: AugParams):
    """Cross-entropy with per-class augmentation penalties in the normalizer,
    averaged over the batch.

    For a sample of class y the penalty of class c is
    (lam/2)(w_c - w_y)' Sigma'_y (w_c - w_y); it is identically zero for the
    true class, so lam = 0 or Sigma' = 0 recovers the plain cross-entropy on
    logits W f + b. Penalties are shared across samples of a class.
    `sigma_primes` is either a ``SigmaPrimes``, validated once for every
    class a training step reads and read here as it is, or a (C, d, d) array
    with one blended covariance per class, whose rows of the batch's labels
    are validated on each call.

    One graph node. The U distinct labels come from ``np.bincount``. With
    Sigma'_u the symmetric part of each label's covariance (equal to Sigma'
    up to ``SYM_TOL``), the forward makes A_u = W Sigma'_u, one (U, C, d)
    batched product, and subtracts from each A_u its own label row in place,
    so row c of A_u is (w_c - w_u)' Sigma'_u and the label row is exactly 0.
    The penalties are then two contractions of A, one against W and one
    against the label rows w_u; no (U, C, d) difference W - w_u is built.
    In the backward, d pen / d w_c is 2 A_u[c] (minus its sum over c into
    the label row w_u); the per-class penalty gradients are one (U, B)
    one-hot product with the batch's logit gradients.
    """
    f, wt, bt = as_tensor(features), as_tensor(w), as_tensor(b)
    labels = np.asarray(labels, dtype=np.int64)
    classes, _, inv = label_groups(labels)
    if not isinstance(sigma_primes, SigmaPrimes):
        sigma_primes = SigmaPrimes(np.asarray(sigma_primes, dtype=np.float64)[classes], classes)
    wd = wt.data
    a = wd @ sigma_primes.rows(classes)                  # (U, C, d): W Sigma'_u
    a -= a[np.arange(len(classes)), classes][:, None, :]   # row c: (w_c - w_u)' Sigma'_u
    # The contractions over d are batched matmuls, about twice as fast as
    # einsum here: a[u, c] . w_c over the class axis, a[u, c] . w_u over u.
    a_by_class = a.transpose(1, 0, 2)                    # (C, U, d) view
    pen = (a_by_class @ wd[:, :, None])[..., 0].T
    pen -= (a @ wd[classes][:, :, None])[..., 0]         # (U, C); exactly 0 at u's label
    logits = f.data @ wd.T + bt.data + (ap.lam / 2.0) * pen[inv]
    value, dlogits = _nll_at_labels(logits, labels, "aug_loss_mean")

    def bw(g):
        dz = dlogits(g)                                  # dL/dlogits, (B, C)
        if f.requires_grad:
            Tensor._accum(f, dz @ wd)
        if bt.requires_grad:
            Tensor._accum(bt, dz.sum(axis=0))
        if wt.requires_grad:
            onehot = np.where(inv[None, :] == np.arange(len(classes))[:, None],
                              ap.lam / 2.0, 0.0)                # (U, B)
            dpen = onehot @ dz                                  # (U, C)
            # d pen / d w_c = 2 A_u[c] for a symmetric Sigma'; the label row
            # of A_u is 0 and so takes no gradient through it.
            g2 = 2.0 * dpen
            dw = dz.T @ f.data + (g2.T[:, None, :] @ a_by_class)[:, 0]   # sum over u
            dw[classes] -= (g2[:, None, :] @ a)[:, 0]                     # sum over c
            Tensor._accum(wt, dw)

    return Tensor._from_op(np.asarray(value), (f, wt, bt), bw)

