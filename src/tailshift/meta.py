"""Episodic meta-train / meta-test optimization loop.

Each iteration randomly splits the training domains into meta-train and
meta-test sets, accumulates the enabled losses on per-domain meta-train
batches (calibrated classification, semantic alignment, cross-prototype
contrast, prototype cycle, implicit augmentation), takes an inner step with
learning rate beta1, evaluates the meta-test losses under the stepped
parameters, and finally updates the real parameters with beta2 on the
combined objective. Prototype and covariance banks are updated between the
classification and alignment losses, matching the iteration's line order;
the augmentation loss and covariance tracking switch on at epoch t_sigma.

``episode`` computes one iteration's losses and gradients; ``run`` trains
with it by the first-order rule, which treats the meta-test gradient at the
stepped parameters as the gradient with respect to the originals.
``outer_gradients`` also offers ``fd_exact``, which differentiates the
episode value by central finite differences, including the dependence of
the inner step on the parameters. It is a desk-scale oracle (parameter
count capped) used to measure how good the first-order approximation is,
not a way to train.

Toggles reproduce the ablation grid: rows a-j switch losses and the meta
loop on and off, row k collapses the per-domain prototype tables into a
single global table, and row l removes the count weighting from covariance
blending.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as M
from .banks import (
    CovarianceBank,
    PrototypeBank,
    SemanticTable,
    blend_covariance,
    complete_semantic,
    decode_prototypes,
    update_covariance,
    update_prototypes,
)
from .data import Dataset, sample_batch
from .errors import ConfigError, ProtocolError
from .losses import (
    AugParams,
    ContrastiveParams,
    DomainClassCounts,
    aug_loss_mean,
    cross_entropy_mean,
    dc_loss_mean,
    s2s_loss,
    s2z_loss,
    z2s_loss_mean,
)
from .mathcore import Rng, collect_grads, make_leaves

FD_EXACT_MAX_PARAMS = 512

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
    mte_size: int = 1
    seed: int = 0
    ema: float = 0.5
    use_dc: bool = True              # False -> plain cross-entropy
    use_z2s: bool = True
    use_s2s: bool = True
    use_s2z: bool = True
    use_aug: bool = True
    use_meta: bool = True
    single_prototype: bool = False
    unweighted_blend: bool = False
    decay_milestones: tuple[float, ...] = (0.4, 0.8)
    decay_factor: float = 0.1
    eval_every_epochs: int = 0       # 0 disables periodic validation metrics

    def __post_init__(self):
        if min(self.w1, self.w2, self.w3, self.w4, self.w_mte) < 0:
            raise ConfigError("loss weights must be >= 0")
        if not (0 <= self.t_sigma <= self.t_max):
            raise ConfigError("need 0 <= t_sigma <= t_max")
        if self.steps_per_epoch < 1 or self.batch_size < 1:
            raise ConfigError("steps_per_epoch and batch_size must be >= 1")
        if self.mte_size < 1:
            raise ConfigError("mte_size must be >= 1")
        if not (0 < self.ema <= 1):
            raise ConfigError("ema must lie in (0, 1]")

    @property
    def total_steps(self) -> int:
        return self.t_max * self.steps_per_epoch

    def lr_outer(self, epoch: int) -> float:
        lr = self.beta2
        for frac in self.decay_milestones:
            if epoch >= frac * self.t_max:
                lr *= self.decay_factor
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
        payload = dataclasses.asdict(self)
        payload["d_mtr"] = list(self.d_mtr)
        payload["d_mte"] = list(self.d_mte)
        return json.dumps(payload, sort_keys=True)


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
    proto: PrototypeBank
    cov: CovarianceBank
    reports: list
    history: list
    state: TrainerState


def split_domains(train_domains, mte_size: int, rng: Rng):
    """Disjoint (meta-train, meta-test) split, uniform over valid splits."""
    domains = sorted(int(v) for v in train_domains)
    if not 1 <= mte_size < len(domains):
        raise ConfigError("mte_size must satisfy 1 <= mte_size < #train domains")
    chosen = rng.choice(len(domains), size=mte_size, replace=False)
    mte = tuple(sorted(domains[i] for i in chosen))
    mtr = tuple(v for v in domains if v not in mte)
    return mtr, mte


def _grad_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g) ** 2))
    return float(np.sqrt(total))


def _proto_domain(cfg: TrainConfig, domain: int) -> int:
    return 0 if cfg.single_prototype else domain


def _features(leaves, batches, mcfg: M.ModelConfig) -> dict:
    """domain -> (feature tensor, int labels), refusing empty batches."""
    feats = {}
    for n in sorted(batches):
        x, y = batches[n]
        if len(y) == 0:
            raise ValueError("empty batch")
        feats[n] = (M.forward_features(leaves, x, mcfg), np.asarray(y, dtype=np.int64))
    return feats


def _domain_mean(feats: dict, fn):
    acc = None
    for n in feats:
        term = fn(n)
        acc = term if acc is None else acc + term
    return acc / float(len(feats))


def _cls_loss(leaves, feats: dict, counts: DomainClassCounts, cfg: TrainConfig):
    """Calibrated (or, with use_dc off, plain) cross-entropy, domain mean."""
    if cfg.use_dc:
        return _domain_mean(feats, lambda n: dc_loss_mean(
            M.forward_logits(leaves, feats[n][0]), feats[n][1],
            np.full(len(feats[n][1]), n), counts))
    return _domain_mean(feats, lambda n: cross_entropy_mean(
        M.forward_logits(leaves, feats[n][0]), feats[n][1]))


def _aug_loss(leaves, feats: dict, sigma_prime, cfg: TrainConfig):
    return _domain_mean(feats, lambda n: aug_loss_mean(
        feats[n][0], feats[n][1], leaves["cls.W"], leaves["cls.b"],
        sigma_prime, cfg.ap))


def meta_train_losses(leaves, batches, proto: PrototypeBank, cov: CovarianceBank,
                      table: SemanticTable | None, counts: DomainClassCounts,
                      cfg: TrainConfig, mcfg: M.ModelConfig, aug_active: bool):
    """Meta-train (or conventional) loss graph for one iteration.

    Returns (L_mtr tensor, component floats, proto', cov', sigma_prime).
    Bank updates happen between the classification/alignment losses and the
    prototype-dependent losses, in iteration line order.
    """
    enc = lambda v: M.encode(leaves, v, mcfg)
    dec = lambda s: M.decode(leaves, s, mcfg)
    feats = _features(leaves, batches, mcfg)

    comps = dict.fromkeys(LOSS_KEYS, 0.0)
    l_cls = _cls_loss(leaves, feats, counts, cfg)
    comps["L_Cls"] = float(l_cls.data)
    parts = [l_cls]

    if cfg.use_z2s:
        l_z2s = _domain_mean(feats, lambda n: z2s_loss_mean(
            enc(feats[n][0]), feats[n][1], table, cfg.cp))
        comps["L_Z2S"] = float(l_z2s.data)
        parts.append(cfg.w1 * l_z2s)

    for n in feats:
        proto = update_prototypes(proto, _proto_domain(cfg, n),
                                  feats[n][0].data, feats[n][1])

    sigma_prime = None
    if cfg.use_aug and aug_active:
        for n in feats:
            cov = update_covariance(cov, feats[n][0].data, feats[n][1])
        sigma_prime, _ = blend_covariance(cov, table, min(cfg.ap.k, counts.n_classes),
                                          weighted=not cfg.unweighted_blend)

    proto_rows = sorted({_proto_domain(cfg, n) for n in feats})
    s_hat = {r: complete_semantic(proto, enc, table, r) for r in proto_rows} \
        if (cfg.use_s2s or cfg.use_s2z) else {}

    if cfg.use_s2s:
        pair_terms = [s2s_loss(s_hat[m], s_hat[n], cfg.cp)
                      for m in proto_rows for n in proto_rows if m != n]
        anchor = [s2s_loss(s_hat[n], table.s, cfg.cp) for n in proto_rows]
        l_s2s = sum(anchor[1:], anchor[0]) / float(len(anchor))
        if pair_terms:
            l_s2s = l_s2s + sum(pair_terms[1:], pair_terms[0]) / float(len(pair_terms))
        comps["L_S2S"] = float(l_s2s.data)
        parts.append(cfg.w2 * l_s2s)

    if cfg.use_s2z:
        v_hat = {r: decode_prototypes(s_hat[r], dec) for r in proto_rows}
        terms = [s2z_loss(v_hat[r], leaves["cls.W"], leaves["cls.b"], enc, table, cfg.cp)
                 for r in proto_rows]
        l_s2z = sum(terms[1:], terms[0]) / float(len(terms))
        comps["L_S2Z"] = float(l_s2z.data)
        parts.append(cfg.w3 * l_s2z)

    if cfg.use_aug and aug_active:
        l_aug = _aug_loss(leaves, feats, sigma_prime, cfg)
        comps["L_Aug"] = float(l_aug.data)
        parts.append(cfg.w4 * l_aug)

    l_mtr = sum(parts[1:], parts[0])
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
    feats = _features(leaves, batches, mcfg)

    comps = dict.fromkeys(("L_MCls", "L_MZ2S", "L_MAug", "L_mte"), 0.0)
    l_cls = _cls_loss(leaves, feats, counts, cfg)
    comps["L_MCls"] = float(l_cls.data)
    parts = [l_cls]

    if cfg.use_z2s:
        emb = {m: enc(feats[m][0]) for m in feats}
        l_z2s = _domain_mean(feats, lambda m: z2s_loss_mean(emb[m], feats[m][1], table, cfg.cp))
        proto_rows = sorted({_proto_domain(cfg, n) for n in d_mtr})
        for r in proto_rows:
            s_hat_prime = complete_semantic(proto, enc, table, r)
            l_z2s = l_z2s + _domain_mean(feats, lambda m: z2s_loss_mean(
                emb[m], feats[m][1], s_hat_prime, cfg.cp)) / float(len(proto_rows))
        comps["L_MZ2S"] = float(l_z2s.data)
        parts.append(cfg.w1 * l_z2s)

    if cfg.use_aug and aug_active:
        l_aug = _aug_loss(leaves, feats, sigma_prime, cfg)
        comps["L_MAug"] = float(l_aug.data)
        parts.append(cfg.w4 * l_aug)

    l_mte = sum(parts[1:], parts[0])
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
        leaves, batches_mtr, proto, cov, table, counts, cfg, mcfg, aug_active)
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
    total = dict(grads_mtr)
    if grads_mte is not None and cfg.w_mte != 0.0:
        total = {k: total[k] + cfg.w_mte * grads_mte[k] for k in total}
    return M.apply_step(params, total, lr)


def outer_gradients(params: dict, batches_mtr: dict, batches_mte: dict,
                    proto: PrototypeBank, cov: CovarianceBank,
                    table: SemanticTable | None, counts: DomainClassCounts,
                    cfg: TrainConfig, mcfg: M.ModelConfig, aug_active: bool,
                    mode: str = "first_order"):
    """Gradient of L_mtr + w_mte L_mte(theta') with respect to theta.

    ``first_order`` combines the two analytic pieces of one episode;
    ``fd_exact`` differentiates the episode value (inner step included) by
    central finite differences and requires a small parameter count.
    """
    if mode == "first_order":
        _, g_mtr, g_mte, *_ = episode(params, batches_mtr, batches_mte, proto, cov,
                                      table, counts, cfg, mcfg, aug_active)
        return {k: g_mtr[k] + cfg.w_mte * g_mte[k] for k in g_mtr}

    if mode == "fd_exact":
        n_params = M.param_count(params)
        if n_params > FD_EXACT_MAX_PARAMS:
            raise ConfigError(
                f"fd_exact needs <= {FD_EXACT_MAX_PARAMS} parameters, got {n_params}")
        value = lambda p: episode(p, batches_mtr, batches_mte, proto, cov, table,
                                  counts, cfg, mcfg, aug_active)[0]
        eps = 1e-5
        vec = M.flatten_params(params)
        g = np.zeros_like(vec)
        for i in range(vec.size):
            orig = vec[i]
            vec[i] = orig + eps
            hi = value(M.unflatten_params(vec, params))
            vec[i] = orig - eps
            lo = value(M.unflatten_params(vec, params))
            vec[i] = orig
            g[i] = (hi - lo) / (2 * eps)
        return M.unflatten_params(g, params)

    raise ConfigError(f"unknown meta mode {mode!r}")


def _validation_accuracy(params: dict, mcfg: M.ModelConfig, dataset: Dataset) -> dict:
    idx = dataset.indices("val")
    if idx.size == 0:
        return {}
    logits = M.predict_logits(params, dataset.x[idx], mcfg)
    pred = logits.argmax(axis=1)
    correct = pred == dataset.y[idx]
    out = {"overall": float(correct.mean())}
    for dom in np.unique(dataset.d[idx]):
        sel = dataset.d[idx] == dom
        out[f"domain_{int(dom)}"] = float(correct[sel].mean())
    return out


def init_state(dataset: Dataset, cfg: TrainConfig, mcfg: M.ModelConfig) -> TrainerState:
    """Fresh trainer state: seeded parameter init, zero banks, loop stream."""
    root = Rng(cfg.seed)
    init_rng, loop_rng = root.split(2)
    params = M.init_params(mcfg, init_rng)
    mask = dataset.counts.mask
    if cfg.single_prototype:
        mask = mask.any(axis=0, keepdims=True)
    proto = PrototypeBank.zeros(mask, mcfg.d_v, ema=cfg.ema)
    cov = CovarianceBank.zeros(dataset.n_classes, mcfg.d_v)
    return TrainerState(params=params, proto=proto, cov=cov,
                        rng_state=loop_rng.get_state(), step=0)


def run(dataset: Dataset, cfg: TrainConfig, mcfg: M.ModelConfig,
        state: TrainerState | None = None, on_step=None) -> RunResult:
    """Execute the training loop from `state` (or a fresh one) to t_max.

    With the meta loop disabled this is conventional training on all domains
    pooled, using the outer learning-rate schedule. Deterministic given the
    seed: reports from two identical runs are bit-identical.
    """
    needs_table = cfg.use_z2s or cfg.use_s2s or cfg.use_s2z or cfg.use_aug
    if needs_table and dataset.semantic is None:
        raise ConfigError("enabled losses require a semantic table")
    if mcfg.n_classes != dataset.n_classes or mcfg.d_x != dataset.x.shape[1]:
        raise ConfigError("model config does not match the dataset")
    train_domains = list(range(dataset.n_train_domains))
    if cfg.use_meta:
        if len(train_domains) < 2:
            raise ConfigError("the meta loop needs >= 2 training domains")
        if not cfg.mte_size < len(train_domains):
            raise ConfigError("mte_size must leave at least one meta-train domain")

    if state is None:
        state = init_state(dataset, cfg, mcfg)
    params, proto, cov = state.params, state.proto, state.cov
    loop_rng = Rng(0)
    loop_rng.set_state(state.rng_state)

    table = dataset.semantic
    counts = dataset.counts
    reports: list[StepReport] = []
    history: list[dict] = []

    for step in range(state.step, cfg.total_steps):
        epoch = step // cfg.steps_per_epoch
        aug_active = cfg.use_aug and epoch >= cfg.t_sigma
        lr = cfg.lr_outer(epoch)

        if cfg.use_meta:
            d_mtr, d_mte = split_domains(train_domains, cfg.mte_size, loop_rng)
        else:
            d_mtr, d_mte = tuple(train_domains), ()
        batches = {n: sample_batch(dataset, n, cfg.batch_size, loop_rng) for n in d_mtr}
        # w_mte == 0 skips the meta-test half entirely: its data is never read.
        batches_mte = None
        if cfg.use_meta and cfg.w_mte != 0.0:
            batches_mte = {m: sample_batch(dataset, m, cfg.batch_size, loop_rng)
                           for m in d_mte}

        _, g_mtr, g_mte, comps, proto, cov = episode(
            params, batches, batches_mte, proto, cov, table, counts, cfg, mcfg,
            aug_active)
        params = outer_step(params, g_mtr, g_mte, cfg, lr)

        report = StepReport(step=step, epoch=epoch, d_mtr=d_mtr, d_mte=d_mte,
                            losses=comps, grad_norm_mtr=_grad_norm(g_mtr),
                            grad_norm_mte=0.0 if g_mte is None else _grad_norm(g_mte),
                            lr_outer=lr)
        reports.append(report)

        if cfg.eval_every_epochs and (step + 1) % (cfg.eval_every_epochs * cfg.steps_per_epoch) == 0:
            entry = {"step": step, **_validation_accuracy(params, mcfg, dataset)}
            history.append(entry)

        if on_step is not None:
            on_step(TrainerState(params=params, proto=proto, cov=cov,
                                 rng_state=loop_rng.get_state(), step=step + 1),
                    report)

    final = TrainerState(params=params, proto=proto, cov=cov,
                         rng_state=loop_rng.get_state(), step=cfg.total_steps)
    return RunResult(params=params, proto=proto, cov=cov, reports=reports,
                     history=history, state=final)
