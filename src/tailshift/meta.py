"""Episodic meta-train / meta-test optimization loop.

Each iteration draws one training domain at random as the meta-test set
and keeps the others as meta-train, accumulates the enabled losses on the
meta-train batches (calibrated classification, semantic alignment,
cross-prototype contrast, prototype cycle, implicit augmentation), takes an
inner step with learning rate beta1, evaluates the meta-test losses under
the stepped parameters, and finally updates the real parameters with beta2
on the combined objective. Prototype and covariance banks are updated
between the classification and alignment losses, matching the iteration's
line order; the augmentation loss and covariance tracking switch on at
epoch t_sigma.

Each half of an episode pools its equal-size per-domain batches into one
batch (per-sample domains select the count rows), so every loss is one
kernel call on one feature pass, and the per-domain prototype tables are
one (K, C, d_s) stack. The prototype EMA is one update of the pooled batch,
made only when a loss that runs reads the bank (L_S2S, L_S2Z, or L_MZ2S on
a meta-test half), as covariance tracking waits for the augmentation phase.
Each half's weighted total (L_mtr, L_mte) is one ``weighted_sum`` node.
In that phase the meta-train half blends Sigma' for the classes of both
halves only and validates it once, as the ``SigmaPrimes`` both halves read.

``episode`` computes one iteration's losses and gradients; ``run`` trains
with it by the first-order rule, which treats the meta-test gradient at the
stepped parameters as the gradient with respect to the originals. The
exact meta-gradient oracle that measures this approximation lives in
``gradcheck``.

Toggles reproduce the ablation grid: rows a-j switch losses and the meta
loop on and off, row k collapses the per-domain prototype tables into a
single global table, and row l removes the count weighting from covariance
blending.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as M
from .banks import (
    CovarianceBank,
    PrototypeBank,
    SemanticTable,
    blend_covariance,
    complete_semantic,
    update_covariance,
    update_prototypes,
)
from .data import Dataset, sample_batch
from .errors import ConfigError, DataFormatError, NumericsError, ProtocolError, check_count
from .losses import (
    AugParams,
    ContrastiveParams,
    DomainClassCounts,
    SigmaPrimes,
    aug_loss_mean,
    dc_loss_mean,
    s2s_loss,
    s2z_loss,
    z2s_loss_mean,
)
from .mathcore import collect_grads, make_leaves, rng_from_state, rng_state, streams, weighted_sum

# Outer-rate schedule: 10x decays at 40% and 80% of t_max.
DECAY_MILESTONES = (0.4, 0.8)
DECAY_FACTOR = 0.1

LOSS_KEYS = ("L_Cls", "L_Z2S", "L_S2S", "L_S2Z", "L_Aug", "L_mtr",
             "L_MCls", "L_MZ2S", "L_MAug", "L_mte")


@dataclass(frozen=True)
class TrainConfig:
    beta1: float = 0.2
    beta2: float = 0.1
    w1: float = 0.1
    w2: float = 0.1
    w3: float = 0.1
    w4: float = 0.1
    w_mte: float = 0.3
    t_max: int = 100                 # epochs
    t_sigma: int = 40                # epoch at which covariance tracking + aug start
    steps_per_epoch: int = 1
    batch_size: int = 48             # per participating domain
    cp: ContrastiveParams = field(default_factory=ContrastiveParams)
    ap: AugParams = field(default_factory=AugParams)
    seed: int = 0
    use_dc: bool = True              # False -> plain cross-entropy
    use_z2s: bool = True
    use_s2s: bool = True
    use_s2z: bool = True
    use_aug: bool = True
    use_meta: bool = True
    single_prototype: bool = False
    unweighted_blend: bool = False

    def __post_init__(self):
        check_count("seed", self.seed)
        if min(self.w1, self.w2, self.w3, self.w4, self.w_mte) < 0:
            raise ConfigError("loss weights must be >= 0")
        if min(self.beta1, self.beta2) < 0:
            raise ConfigError("learning rates beta1 and beta2 must be >= 0")
        if not (0 <= self.t_sigma <= self.t_max):
            raise ConfigError("need 0 <= t_sigma <= t_max")
        if self.steps_per_epoch < 1 or self.batch_size < 1:
            raise ConfigError("steps_per_epoch and batch_size must be >= 1")

    @property
    def total_steps(self) -> int:
        return self.t_max * self.steps_per_epoch

    def lr_outer(self, epoch: int) -> float:
        lr = self.beta2
        for frac in DECAY_MILESTONES:
            if epoch >= frac * self.t_max:
                lr *= DECAY_FACTOR
        return lr


# Ablation grid: which losses and loop variants each row enables.
ABLATION_ROWS: dict[str, dict] = {
    "a": dict(use_dc=False, use_z2s=False, use_s2s=False, use_s2z=False,
              use_aug=False, use_meta=False),
    "b": dict(use_dc=True, use_z2s=False, use_s2s=False, use_s2z=False,
              use_aug=False, use_meta=False),
    "c": dict(use_dc=False, use_z2s=False, use_s2s=False, use_s2z=False,
              use_aug=False, use_meta=True),
    "d": dict(use_dc=True, use_z2s=False, use_s2s=False, use_s2z=False,
              use_aug=False, use_meta=True),
    "e": dict(use_dc=True, use_z2s=True, use_s2s=False, use_s2z=False,
              use_aug=False, use_meta=False),
    "f": dict(use_dc=True, use_z2s=True, use_s2s=True, use_s2z=False,
              use_aug=False, use_meta=False),
    "g": dict(use_dc=True, use_z2s=True, use_s2s=True, use_s2z=True,
              use_aug=False, use_meta=False),
    "h": dict(use_dc=True, use_z2s=False, use_s2s=False, use_s2z=False,
              use_aug=True, use_meta=False),
    "i": dict(use_dc=True, use_z2s=True, use_s2s=True, use_s2z=True,
              use_aug=True, use_meta=False),
    "j": dict(use_dc=True, use_z2s=True, use_s2s=True, use_s2z=True,
              use_aug=True, use_meta=True),
    "k": dict(use_dc=True, use_z2s=True, use_s2s=True, use_s2z=True,
              use_aug=True, use_meta=True, single_prototype=True),
    "l": dict(use_dc=True, use_z2s=True, use_s2s=True, use_s2z=True,
              use_aug=True, use_meta=True, unweighted_blend=True),
}


def apply_ablation(cfg: TrainConfig, row: str) -> TrainConfig:
    if row not in ABLATION_ROWS:
        raise ConfigError(f"unknown ablation row {row!r}")
    return replace(cfg, **ABLATION_ROWS[row])


@dataclass
class StepReport:
    step: int
    epoch: int
    d_mtr: tuple[int, ...]
    d_mte: tuple[int, ...]
    losses: dict
    grad_norm_mtr: float
    grad_norm_mte: float
    lr_outer: float

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


@dataclass
class TrainerState:
    """Everything needed to continue a run exactly where it stopped."""

    params: dict
    proto: PrototypeBank
    cov: CovarianceBank
    rng_state: dict
    step: int


@dataclass
class RunResult:
    params: dict
    reports: list
    state: TrainerState


def split_domains(train_domains, rng: np.random.Generator):
    """Disjoint (meta-train, meta-test) split: one meta-test domain, drawn
    uniformly, and the others as meta-train."""
    domains = sorted(int(v) for v in train_domains)
    if len(domains) < 2:
        raise ConfigError("the meta loop needs >= 2 training domains")
    mte = domains[int(rng.choice(len(domains), size=1, replace=False)[0])]
    return tuple(v for v in domains if v != mte), (mte,)


def _grad_norm(grads: dict) -> float:
    # np.add.reduce is what ndarray.sum() calls, without its wrapper
    return math.sqrt(sum(float(np.add.reduce(g * g, axis=None)) for g in grads.values()))


def _proto_domain(cfg: TrainConfig, domain):
    return 0 if cfg.single_prototype else domain


def _pool(batches: dict):
    """One (x, y, domains) batch: the per-domain batches concatenated in
    domain order.

    Every loss is a batch mean, so the mean over the pooled batch equals the
    mean over domains of the per-domain means only when all domains bring
    the same number of samples; unequal (or empty) batches are refused.
    """
    order = sorted(batches)
    sizes = {len(batches[n][1]) for n in order}
    if len(sizes) != 1:
        raise ProtocolError(f"per-domain batches differ in size: {sorted(sizes)}")
    if 0 in sizes:
        raise ValueError("empty batch")
    x = np.concatenate([batches[n][0] for n in order])
    y = np.concatenate([np.asarray(batches[n][1], dtype=np.int64) for n in order])
    return x, y, np.repeat(np.asarray(order, dtype=np.int64), sizes.pop())


def meta_train_losses(leaves, batches, proto: PrototypeBank, cov: CovarianceBank,
                      table: SemanticTable | None, counts: DomainClassCounts,
                      cfg: TrainConfig, mcfg: M.ModelConfig, aug_active: bool,
                      batches_mte: dict | None = None):
    """Meta-train (or conventional) loss graph for one iteration.

    Returns (L_mtr tensor, component floats, proto', cov', sigma_prime).
    Bank updates happen between the classification/alignment losses and the
    prototype-dependent losses, in iteration line order. `batches_mte` are
    the batches of the meta-test half that follows, if one does; then L_MZ2S
    reads the prototypes. In the augmentation phase `sigma_prime` is the
    step's ``SigmaPrimes``: Sigma' blended for, and validated on, the labels
    of both halves, so that it is built and checked once per step.
    """
    enc = lambda v: M.encode(leaves, v, mcfg)
    x, y, dom = _pool(batches)
    feats = M.forward_features(leaves, x, mcfg)

    comps = dict.fromkeys(LOSS_KEYS, 0.0)
    l_cls = dc_loss_mean(M.forward_logits(leaves, feats), y, dom,
                         counts if cfg.use_dc else None)
    comps["L_Cls"] = float(l_cls.data)
    parts = [(1.0, l_cls)]

    if cfg.use_z2s:
        l_z2s = z2s_loss_mean(enc(feats), y, table, cfg.cp)
        comps["L_Z2S"] = float(l_z2s.data)
        parts.append((cfg.w1, l_z2s))

    # Only L_S2S, L_S2Z and a meta-test half's L_MZ2S read the prototypes.
    if cfg.use_s2s or cfg.use_s2z or (cfg.use_z2s and batches_mte is not None):
        proto = update_prototypes(proto, _proto_domain(cfg, dom), feats.data, y)

    sigma_prime = None
    if cfg.use_aug and aug_active:
        cov = update_covariance(cov, feats.data, y)
        read = [y] + [np.asarray(batches_mte[m][1], dtype=np.int64) for m in batches_mte or ()]
        rows = np.flatnonzero(np.bincount(np.concatenate(read)))
        blended, _ = blend_covariance(cov, table, min(cfg.ap.k, counts.n_classes),
                                      weighted=not cfg.unweighted_blend, rows=rows)
        sigma_prime = SigmaPrimes(blended, rows)

    proto_rows = sorted({_proto_domain(cfg, n) for n in batches})
    if cfg.use_s2s or cfg.use_s2z:
        s_hat = complete_semantic(proto, enc, table, proto_rows)    # (K, C, d_s)

    if cfg.use_s2s:
        l_s2s = s2s_loss(s_hat, table, cfg.cp, pairs=True)
        comps["L_S2S"] = float(l_s2s.data)
        parts.append((cfg.w2, l_s2s))

    if cfg.use_s2z:
        l_s2z = s2z_loss(M.decode(leaves, s_hat, mcfg), leaves["cls.W"], leaves["cls.b"],
                         enc, table, cfg.cp)
        comps["L_S2Z"] = float(l_s2z.data)
        parts.append((cfg.w3, l_s2z))

    if cfg.use_aug and aug_active:
        l_aug = aug_loss_mean(feats, y, leaves["cls.W"], leaves["cls.b"],
                              sigma_prime, cfg.ap)
        comps["L_Aug"] = float(l_aug.data)
        parts.append((cfg.w4, l_aug))

    l_mtr = weighted_sum(parts)
    comps["L_mtr"] = float(l_mtr.data)
    return l_mtr, comps, proto, cov, sigma_prime


def meta_test_losses(leaves, batches, proto: PrototypeBank,
                     table: SemanticTable | None, counts: DomainClassCounts,
                     cfg: TrainConfig, mcfg: M.ModelConfig, aug_active: bool,
                     sigma_prime, d_mtr):
    """Meta-test loss graph under stepped parameters.

    Visual features of the meta-test batches are aligned to the semantic
    table and to the meta-train domains' prototype tables, the latter
    recomputed with the stepped encoder.
    """
    if set(batches) & set(d_mtr):
        raise ProtocolError("meta-test domains overlap meta-train domains")
    enc = lambda v: M.encode(leaves, v, mcfg)
    x, y, dom = _pool(batches)
    feats = M.forward_features(leaves, x, mcfg)

    comps = dict.fromkeys(("L_MCls", "L_MZ2S", "L_MAug", "L_mte"), 0.0)
    l_cls = dc_loss_mean(M.forward_logits(leaves, feats), y, dom,
                         counts if cfg.use_dc else None)
    comps["L_MCls"] = float(l_cls.data)
    parts = [(1.0, l_cls)]

    if cfg.use_z2s:
        emb = enc(feats)
        proto_rows = sorted({_proto_domain(cfg, n) for n in d_mtr})
        s_hat_prime = complete_semantic(proto, enc, table, proto_rows)
        l_z2s = z2s_loss_mean(emb, y, table, cfg.cp) \
            + z2s_loss_mean(emb, y, s_hat_prime, cfg.cp)
        comps["L_MZ2S"] = float(l_z2s.data)
        parts.append((cfg.w1, l_z2s))

    if cfg.use_aug and aug_active:
        l_aug = aug_loss_mean(feats, y, leaves["cls.W"], leaves["cls.b"],
                              sigma_prime, cfg.ap)
        comps["L_MAug"] = float(l_aug.data)
        parts.append((cfg.w4, l_aug))

    l_mte = weighted_sum(parts)
    comps["L_mte"] = float(l_mte.data)
    return l_mte, comps


def episode(params: dict, batches_mtr: dict, batches_mte: dict | None,
            proto: PrototypeBank, cov: CovarianceBank,
            table: SemanticTable | None, counts: DomainClassCounts,
            cfg: TrainConfig, mcfg: M.ModelConfig, aug_active: bool):
    """One episode at `params`: the meta-train graph and its gradient, then,
    when meta-test batches are given, the beta1 inner step and the meta-test
    graph and its gradient under the stepped parameters.

    Returns (value, g_mtr, g_mte | None, comps, proto', cov'), where value is
    L_mtr + w_mte L_mte (L_mtr alone without meta-test batches). The input
    banks are left untouched.
    """
    leaves = make_leaves(params)
    l_mtr, comps, proto, cov, sigma_prime = meta_train_losses(
        leaves, batches_mtr, proto, cov, table, counts, cfg, mcfg, aug_active, batches_mte)
    l_mtr.backward()
    g_mtr = collect_grads(leaves)
    value = float(l_mtr.data)
    g_mte = None
    if batches_mte is not None:
        leaves_te = make_leaves(M.apply_step(params, g_mtr, cfg.beta1))
        l_mte, comps_te = meta_test_losses(
            leaves_te, batches_mte, proto, table, counts, cfg, mcfg,
            aug_active, sigma_prime, tuple(batches_mtr))
        l_mte.backward()
        g_mte = collect_grads(leaves_te)
        comps.update(comps_te)
        value = value + cfg.w_mte * float(l_mte.data)
    return value, g_mtr, g_mte, comps, proto, cov


def outer_step(params: dict, grads_mtr: dict, grads_mte: dict | None,
               cfg: TrainConfig, lr: float) -> dict:
    """theta_{t+1} = theta_t - lr (grad L_mtr + w_mte grad L_mte)."""
    if grads_mte is None or cfg.w_mte == 0.0:
        return M.apply_step(params, grads_mtr, lr)
    return M.apply_step(params, grads_mtr, lr, grads_mte, cfg.w_mte)


# glibc's mallopt parameters (malloc.h) and the values ``_keep_heap`` sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 4 << 20
_TRIM_THRESHOLD_BYTES = 16 << 20
_heap_kept = False


def _libc_mallopt():
    """glibc's ``mallopt``, or None where the C library is not glibc or the
    function cannot be loaded."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _keep_heap() -> None:
    """Once per process, on glibc: serve blocks under 4 MiB from the heap and
    trim its top only past 16 MiB free, so that each training step reuses
    the memory the step before it freed.

    glibc's default thresholds move with the order of frees; in the
    augmentation phase they let every step hand its heap top back to the
    system and fault the same pages in again on the next (about 140-200
    minor faults per paper_s1 aug step). Elsewhere this does nothing. No
    value changes.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    mallopt = _libc_mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def init_state(dataset: Dataset, cfg: TrainConfig, mcfg: M.ModelConfig) -> TrainerState:
    """Fresh trainer state: seeded parameter init, zero banks, loop stream."""
    init_rng, loop_rng = streams(cfg.seed, 2)
    params = M.init_params(mcfg, init_rng)
    mask = dataset.counts.mask
    if cfg.single_prototype:
        mask = mask.any(axis=0, keepdims=True)
    proto = PrototypeBank.zeros(mask, mcfg.d_v)
    cov = CovarianceBank.zeros(dataset.n_classes, mcfg.d_v)
    return TrainerState(params=params, proto=proto, cov=cov,
                        rng_state=rng_state(loop_rng), step=0)


def run(dataset: Dataset, cfg: TrainConfig, mcfg: M.ModelConfig,
        state: TrainerState | None = None, on_step=None) -> RunResult:
    """Execute the training loop from `state` (or a fresh one) to t_max.

    With the meta loop disabled this is conventional training on all domains
    pooled, using the outer learning-rate schedule. Deterministic given the
    seed: reports from two identical runs are bit-identical. A step whose
    losses or update fail on their numerics (a ``ValueError`` or
    ``NumericsError``) raises ``NumericsError`` naming the step and epoch,
    chained to the original error.

    The first call in a process fixes glibc's malloc thresholds (see
    ``_keep_heap``), so that steps stop returning freed heap memory to the
    system and faulting it in again; off glibc nothing is set. Values do
    not depend on it.
    """
    _keep_heap()
    needs_table = cfg.use_z2s or cfg.use_s2s or cfg.use_s2z or cfg.use_aug
    if needs_table and dataset.semantic is None:
        raise ConfigError("enabled losses require a semantic table")
    if mcfg.n_classes != dataset.n_classes or mcfg.d_x != dataset.x.shape[1] \
            or (dataset.semantic is not None and mcfg.d_s != dataset.semantic.dim):
        raise ConfigError("model config does not match the dataset")
    train_domains = list(range(dataset.n_train_domains))

    if state is None:
        state = init_state(dataset, cfg, mcfg)
    params, proto, cov = state.params, state.proto, state.cov
    loop_rng = rng_from_state(state.rng_state)

    table = dataset.semantic
    counts = dataset.counts
    reports: list[StepReport] = []

    for step in range(state.step, cfg.total_steps):
        epoch = step // cfg.steps_per_epoch
        aug_active = cfg.use_aug and epoch >= cfg.t_sigma
        lr = cfg.lr_outer(epoch)

        if cfg.use_meta:
            d_mtr, d_mte = split_domains(train_domains, loop_rng)
        else:
            d_mtr, d_mte = tuple(train_domains), ()
        batches = {n: sample_batch(dataset, n, cfg.batch_size, loop_rng) for n in d_mtr}
        # w_mte == 0 skips the meta-test half entirely: its data is never read.
        batches_mte = None
        if cfg.use_meta and cfg.w_mte != 0.0:
            batches_mte = {m: sample_batch(dataset, m, cfg.batch_size, loop_rng)
                           for m in d_mte}

        try:
            _, g_mtr, g_mte, comps, proto, cov = episode(
                params, batches, batches_mte, proto, cov, table, counts, cfg, mcfg,
                aug_active)
            params = outer_step(params, g_mtr, g_mte, cfg, lr)
        except (ConfigError, DataFormatError):
            raise
        except (ValueError, NumericsError) as exc:
            raise NumericsError(f"step {step} (epoch {epoch}): {exc}") from exc

        report = StepReport(step=step, epoch=epoch, d_mtr=d_mtr, d_mte=d_mte,
                            losses=comps, grad_norm_mtr=_grad_norm(g_mtr),
                            grad_norm_mte=0.0 if g_mte is None else _grad_norm(g_mte),
                            lr_outer=lr)
        reports.append(report)

        if on_step is not None:
            on_step(TrainerState(params=params, proto=proto, cov=cov,
                                 rng_state=rng_state(loop_rng), step=step + 1),
                    report)

    final = TrainerState(params=params, proto=proto, cov=cov,
                         rng_state=rng_state(loop_rng), step=cfg.total_steps)
    return RunResult(params=params, reports=reports, state=final)
