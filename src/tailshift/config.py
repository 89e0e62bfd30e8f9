"""Run configuration: JSON schema, presets, and hashing.

A run config file has five sections, all optional (defaults apply):

    {
      "data":  { data.SyntheticConfig fields },
      "model": { "d_v": 16, "hidden": [32] },
      "train": { training loop fields, incl. "cp": {"alpha","tau"},
                 "ap": {"lam","k"}, "ablation" toggles },
      "eval":  { "threshold": null, "grid": [..] },
      "io":    { "checkpoint_every_epochs": 0 }
    }

An existing dataset directory is passed with ``--data``, not through the
config, and a field its section does not define is refused. Model input,
semantic and class sizes are filled from the data section when omitted.
``run_config_to_dict`` is the one serialized form (plain JSON types) that
checkpoints store and ``--resume`` compares; ``run_config_from_dict`` reads
it back. ``load_run_config`` takes a config file or a preset name (``paper_s1``,
``desk``). The data section's ``config_hash`` fingerprints its dataset.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import ClassVar

from .data import SyntheticConfig
from .errors import ConfigError, check_count
from .losses import AugParams, ContrastiveParams
from .meta import TrainConfig
from .model import ModelConfig

PRESETS = ("paper_s1", "desk")


@dataclass(frozen=True)
class EvalOptions:
    threshold: float | None = None
    grid: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(20))
    # not a setting: ``decide``'s one rule, for callers that pass it on
    confidence: ClassVar[str] = "softmax"

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(self.grid))
        if self.threshold is not None and not (0.0 <= self.threshold <= 1.0):
            raise ConfigError("threshold must lie in [0, 1]")
        if not self.grid or not all(0.0 <= g <= 1.0 for g in self.grid):
            raise ConfigError(f"threshold grid must be points in [0, 1], not {list(self.grid)}")


@dataclass(frozen=True)
class IoOptions:
    checkpoint_every_epochs: int = 0

    def __post_init__(self):
        check_count("checkpoint_every_epochs", self.checkpoint_every_epochs)


@dataclass(frozen=True)
class RunConfig:
    data: SyntheticConfig
    model: ModelConfig
    train: TrainConfig
    eval: EvalOptions = field(default_factory=EvalOptions)
    io: IoOptions = field(default_factory=IoOptions)


def _object(value, section: str) -> dict:
    """A copy of config section ``value``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"'{section}' must be a JSON object, not {type(value).__name__}")
    return dict(value)


def _take(d, cls, section: str, **overrides):
    """``cls`` built from section ``d`` and ``overrides``. A field ``cls``
    lacks, or a value its constructor refuses with ``ValueError`` or
    ``TypeError`` (a wrong type), is a ``ConfigError`` naming the section."""
    d = _object(d, section)
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown field(s) in '{section}': {sorted(unknown)}")
    try:
        return cls(**{**d, **overrides})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{section}': {exc}") from exc


def run_config_from_dict(raw: dict) -> RunConfig:
    raw = _object(raw, "run config")
    unknown = set(raw) - {"data", "model", "train", "eval", "io", "seed"}
    if unknown:
        raise ConfigError(f"unknown top-level section(s): {sorted(unknown)}")
    seeded = {} if raw.get("seed") is None else {"seed": raw["seed"]}

    data_cfg = _take(raw.get("data", {}), SyntheticConfig, "data", **seeded)

    model_sec = _object(raw.get("model", {}), "model")
    model_sec.setdefault("d_x", data_cfg.d_x)
    model_sec.setdefault("d_s", data_cfg.d_s)
    model_sec.setdefault("n_classes", data_cfg.n_classes)
    model_cfg = _take(model_sec, ModelConfig, "model")

    train_sec = _object(raw.get("train", {}), "train")
    for key, cls in (("cp", ContrastiveParams), ("ap", AugParams)):
        sec = train_sec.pop(key, None)
        if sec is not None:
            train_sec[key] = _take(sec, cls, f"train.{key}")
    train_cfg = _take(train_sec, TrainConfig, "train", **seeded)

    return RunConfig(data=data_cfg, model=model_cfg, train=train_cfg,
                     eval=_take(raw.get("eval", {}), EvalOptions, "eval"),
                     io=_take(raw.get("io", {}), IoOptions, "io"))


def run_config_to_dict(cfg: RunConfig) -> dict:
    """The config as plain JSON types (tuples become lists)."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_run_config(spec: str | Path) -> tuple[RunConfig, dict]:
    """Resolve a config file or preset name to (RunConfig, raw dict)."""
    path = Path(spec)
    if path.is_file():
        raw = json.loads(path.read_text(encoding="utf-8"))
    elif str(spec) in PRESETS:
        ref = resources.files("tailshift").joinpath(f"presets/{spec}.json")
        raw = json.loads(ref.read_text(encoding="utf-8"))
    else:
        raise ConfigError(f"config {spec!r} is neither a file nor a preset "
                          f"(presets: {', '.join(PRESETS)})")
    return run_config_from_dict(raw), raw
