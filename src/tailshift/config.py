"""Run configuration: JSON schema, presets, and hashing.

A run config file has five sections, all optional (defaults apply):

    {
      "data":  { synthetic generator fields } | {"path": "<dataset dir>"},
      "model": { "d_v": 16, "hidden": [32] },
      "train": { training loop fields, incl. "cp": {"alpha","tau"},
                 "ap": {"lam","k"}, "ablation" toggles },
      "eval":  { "threshold": null, "grid": [..], "confidence": "softmax" },
      "io":    { "checkpoint_every_epochs": 0 }
    }

Model input/semantic/class dimensions are filled from the data section when
omitted. ``load_run_config`` accepts a filesystem path or the name of a
packaged preset (``paper_s1``, ``desk``). The config hash is the sha256 of
the canonical JSON and ties checkpoints to the data they were trained on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .data import SyntheticConfig
from .errors import ConfigError
from .losses import AugParams, ContrastiveParams
from .meta import TrainConfig
from .model import ModelConfig

PRESETS = ("paper_s1", "desk")


@dataclass(frozen=True)
class EvalOptions:
    threshold: float | None = None
    grid: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(20))
    confidence: str = "softmax"

    def __post_init__(self):
        if self.threshold is not None and not (0.0 <= self.threshold <= 1.0):
            raise ConfigError("threshold must lie in [0, 1]")
        if not self.grid:
            raise ConfigError("threshold grid must be nonempty")


@dataclass(frozen=True)
class IoOptions:
    checkpoint_every_epochs: int = 0


@dataclass(frozen=True)
class RunConfig:
    data: SyntheticConfig | None
    data_path: str | None
    model: ModelConfig
    train: TrainConfig
    eval: EvalOptions = field(default_factory=EvalOptions)
    io: IoOptions = field(default_factory=IoOptions)


def _take(d: dict, cls, section: str, **overrides):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(d) - names
    if unknown:
        raise ConfigError(f"unknown field(s) in '{section}': {sorted(unknown)}")
    merged = {**d, **overrides}
    return cls(**merged)


def run_config_from_dict(raw: dict) -> RunConfig:
    raw = dict(raw)
    unknown = set(raw) - {"data", "model", "train", "eval", "io", "seed"}
    if unknown:
        raise ConfigError(f"unknown top-level section(s): {sorted(unknown)}")
    seed = raw.get("seed")

    data_sec = dict(raw.get("data", {}))
    data_path = data_sec.pop("path", None)
    data_cfg = None
    if data_path is None:
        if "tail_domain_budget" in data_sec and data_sec["tail_domain_budget"] is not None:
            data_sec["tail_domain_budget"] = tuple(data_sec["tail_domain_budget"])
        if seed is not None:
            data_sec["seed"] = int(seed)
        data_cfg = _take(data_sec, SyntheticConfig, "data")
    elif data_sec:
        raise ConfigError("data section mixes 'path' with generator fields")

    model_sec = dict(raw.get("model", {}))
    if data_cfg is not None:
        model_sec.setdefault("d_x", data_cfg.d_x)
        model_sec.setdefault("d_s", data_cfg.d_s)
        model_sec.setdefault("n_classes", data_cfg.n_classes)
    for key in ("d_x", "d_s", "n_classes", "d_v"):
        if key not in model_sec:
            raise ConfigError(f"model section needs '{key}' (not derivable)")
    if "hidden" in model_sec:
        model_sec["hidden"] = tuple(model_sec["hidden"])
    model_cfg = _take(model_sec, ModelConfig, "model")

    train_sec = dict(raw.get("train", {}))
    cp = train_sec.pop("cp", None)
    ap = train_sec.pop("ap", None)
    if cp is not None:
        train_sec["cp"] = _take(dict(cp), ContrastiveParams, "train.cp")
    if ap is not None:
        train_sec["ap"] = _take(dict(ap), AugParams, "train.ap")
    if "decay_milestones" in train_sec:
        train_sec["decay_milestones"] = tuple(train_sec["decay_milestones"])
    if seed is not None:
        train_sec["seed"] = int(seed)
    train_cfg = _take(train_sec, TrainConfig, "train")

    eval_sec = dict(raw.get("eval", {}))
    if "grid" in eval_sec:
        eval_sec["grid"] = tuple(eval_sec["grid"])
    eval_opts = _take(eval_sec, EvalOptions, "eval")
    io_opts = _take(dict(raw.get("io", {})), IoOptions, "io")

    return RunConfig(data=data_cfg, data_path=data_path, model=model_cfg,
                     train=train_cfg, eval=eval_opts, io=io_opts)


def run_config_to_dict(cfg: RunConfig) -> dict:
    out: dict = {}
    if cfg.data_path is not None:
        out["data"] = {"path": cfg.data_path}
    else:
        out["data"] = dataclasses.asdict(cfg.data)
        if out["data"]["tail_domain_budget"] is not None:
            out["data"]["tail_domain_budget"] = list(out["data"]["tail_domain_budget"])
    out["model"] = dataclasses.asdict(cfg.model)
    out["model"]["hidden"] = list(cfg.model.hidden)
    out["train"] = dataclasses.asdict(cfg.train)
    out["train"]["cp"] = dataclasses.asdict(cfg.train.cp)
    out["train"]["ap"] = dataclasses.asdict(cfg.train.ap)
    out["train"]["decay_milestones"] = list(cfg.train.decay_milestones)
    out["eval"] = dataclasses.asdict(cfg.eval)
    out["eval"]["grid"] = list(cfg.eval.grid)
    out["io"] = dataclasses.asdict(cfg.io)
    return out


def config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_run_config(spec: str | Path) -> tuple[RunConfig, dict]:
    """Resolve a path or preset name to (RunConfig, raw dict)."""
    path = Path(spec)
    if path.exists():
        raw = json.loads(path.read_text(encoding="utf-8"))
    elif str(spec) in PRESETS:
        ref = resources.files("tailshift").joinpath(f"presets/{spec}.json")
        raw = json.loads(ref.read_text(encoding="utf-8"))
    else:
        raise ConfigError(f"config {spec!r} is neither a file nor a preset "
                          f"(presets: {', '.join(PRESETS)})")
    return run_config_from_dict(raw), raw
