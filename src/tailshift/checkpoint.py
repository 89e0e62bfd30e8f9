"""Versioned text checkpoints.

A checkpoint is a single JSON document holding the model/train configs, the
step counter, every parameter block, the prototype and covariance banks, and
the training-loop random state. Every array is stored the same way, as its
dtype, its shape and the hex of its little-endian bytes, so a save/load round
trip is bit-exact and resuming reproduces the uninterrupted run's trace. A
fingerprint of the training data ties the checkpoint to its dataset. A save
writes a temporary file next to the target and renames it into place, so a
failed save leaves any earlier checkpoint at that path intact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .banks import CovarianceBank, PrototypeBank
from .errors import DataFormatError
from .meta import TrainerState

FORMAT = "tailshift-checkpoint"
VERSION = 3
# Top-level fields of a version-3 payload besides format and version.
FIELDS = ("step", "model_config", "train_config", "dataset_fingerprint", "params",
          "proto", "cov", "rng_state")


def _enc_array(a: np.ndarray) -> dict:
    a = np.asarray(a)
    le = a.astype(a.dtype.newbyteorder("<"), copy=False)
    return {"dtype": le.dtype.str, "shape": list(a.shape), "hex": le.tobytes().hex()}


def _dec_array(d: dict) -> np.ndarray:
    stored = np.frombuffer(bytes.fromhex(d["hex"]), dtype=np.dtype(d["dtype"]))
    return stored.astype(stored.dtype.newbyteorder("=")).reshape(d["shape"])


def save_checkpoint(path, state: TrainerState, model_config: dict,
                    train_config: dict, dataset_fingerprint: str) -> None:
    payload = {
        "format": FORMAT,
        "version": VERSION,
        "step": state.step,
        "model_config": model_config,
        "train_config": train_config,
        "dataset_fingerprint": dataset_fingerprint,
        # list of pairs: block order is part of the state (reduction order
        # in gradient norms must survive a resume bit-exactly)
        "params": [[k, _enc_array(v)] for k, v in state.params.items()],
        "proto": {
            "v": _enc_array(state.proto.v),
            "mask": _enc_array(state.proto.mask),
            "ema": state.proto.ema,
        },
        "cov": {
            "mu": _enc_array(state.cov.mu),
            "sigma": _enc_array(state.cov.sigma),
            "n": _enc_array(state.cov.n),
        },
        "rng_state": state.rng_state,
    }
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[TrainerState, dict]:
    """Returns (trainer state, full payload dict). A file that is not a
    whole version-3 checkpoint raises ``DataFormatError`` naming the file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataFormatError(f"{path}: not a JSON document ({exc})") from exc
    if not isinstance(raw, dict) or raw.get("format") != FORMAT:
        raise DataFormatError(f"{path}: not a tailshift checkpoint")
    if raw.get("version") != VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {raw.get('version')}")
    missing = [k for k in FIELDS if k not in raw]
    if missing:
        raise DataFormatError(f"{path}: checkpoint lacks {', '.join(missing)}")
    try:
        params = {k: _dec_array(v) for k, v in raw["params"]}
        proto = PrototypeBank(v=_dec_array(raw["proto"]["v"]),
                              mask=_dec_array(raw["proto"]["mask"]),
                              ema=float(raw["proto"]["ema"]))
        cov = CovarianceBank(mu=_dec_array(raw["cov"]["mu"]),
                             sigma=_dec_array(raw["cov"]["sigma"]),
                             n=_dec_array(raw["cov"]["n"]))
        state = TrainerState(params=params, proto=proto, cov=cov,
                             rng_state=raw["rng_state"], step=int(raw["step"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint "
                              f"({type(exc).__name__}: {exc})") from exc
    return state, raw
