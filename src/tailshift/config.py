"""Run configuration: JSON schema, presets, and hashing.

A run config file has five sections, all optional (defaults apply):

    {
      "data":  { data.SyntheticConfig fields },
      "model": { "d_v": 16, "hidden": [32] },
      "train": { training loop fields, incl. "cp": {"alpha","tau"},
                 "ap": {"lam","k"}, "ablation" toggles },
      "eval":  { "threshold": null },
      "io":    { "checkpoint_every_epochs": 0 }
    }

An existing dataset directory is passed with ``--data``, not through the
config. A field its section does not define is refused, as is a missing
required field and a value without its field's type: an int field takes an
int >= 0 (every int setting is a count), a bool field ``true`` or
``false``, a float field any number, ``hidden`` a list of ints and
``threshold`` also ``null``. Model input,
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
import typing
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
    # not settings: the points ``score`` scans on the validation split when
    # no threshold is set, and ``decide``'s one rule, for callers that pass
    # them on
    grid: ClassVar[tuple[float, ...]] = tuple(round(0.05 * i, 2) for i in range(20))
    confidence: ClassVar[str] = "softmax"

    def __post_init__(self):
        if self.threshold is not None and not (0.0 <= self.threshold <= 1.0):
            raise ConfigError("threshold must lie in [0, 1]")


@dataclass(frozen=True)
class IoOptions:
    checkpoint_every_epochs: int = 0  # a count, checked by ``_take`` as every int field is


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


def _check_type(name: str, value, hint) -> None:
    """Refuse config value ``value`` of field ``name`` unless it has the
    field's type ``hint``. A nested section's value arrives built."""
    if hint is int:
        check_count(name, value)
        return
    number = type(value) in (int, float)  # a bool is no number
    if hint is bool:
        ok, kind = type(value) is bool, "true or false"
    elif hint is float:
        ok, kind = number, "a number"
    elif hint == float | None:
        ok, kind = number or value is None, "a number or null"
    elif hint == tuple[int, ...]:
        ok, kind = type(value) is list and all(type(v) is int for v in value), "a list of ints"
    else:
        ok, kind = isinstance(value, hint), hint.__name__
    if not ok:
        raise ConfigError(f"{name} must be {kind}, not {value!r}")


def _take(d, cls, section: str, **overrides):
    """``cls`` built from section ``d`` and ``overrides``. A field ``cls``
    lacks, a required field missing, a value without its field's type
    (``_check_type``), or a value its constructor refuses with
    ``ValueError`` or ``TypeError`` is a ``ConfigError`` naming the
    section."""
    d = {**_object(d, section), **overrides}
    fields = dataclasses.fields(cls)
    unknown = set(d) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown field(s) in '{section}': {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in d and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing field(s) in '{section}': {missing}")
    hints = typing.get_type_hints(cls)
    try:
        for name, value in d.items():
            _check_type(name, value, hints[name])
        return cls(**d)
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
