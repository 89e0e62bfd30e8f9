"""Versioned text checkpoints.

A checkpoint is a single JSON document holding the model/train configs, the
step counter, every parameter block, the prototype and covariance banks, and
the training-loop random state. Floats are stored as C99 hex literals, so a
save/load round trip is bit-exact and resuming reproduces the uninterrupted
run's trace. A fingerprint of the training data ties the checkpoint to its
dataset.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .banks import CovarianceBank, PrototypeBank
from .errors import DataFormatError
from .meta import TrainerState

FORMAT = "tailshift-checkpoint"
VERSION = 2


def _enc_array(a: np.ndarray) -> dict:
    a = np.asarray(a)
    if a.dtype == bool:
        return {"shape": list(a.shape), "kind": "bool",
                "data": [int(v) for v in a.reshape(-1)]}
    if np.issubdtype(a.dtype, np.integer):
        return {"shape": list(a.shape), "kind": "int",
                "data": [int(v) for v in a.reshape(-1)]}
    return {"shape": list(a.shape), "kind": "f64",
            "data": [float(v).hex() for v in a.reshape(-1)]}


def _dec_array(d: dict) -> np.ndarray:
    shape = tuple(d["shape"])
    if d["kind"] == "bool":
        return np.array(d["data"], dtype=bool).reshape(shape)
    if d["kind"] == "int":
        return np.array(d["data"], dtype=np.int64).reshape(shape)
    return np.array([float.fromhex(v) for v in d["data"]],
                    dtype=np.float64).reshape(shape)


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
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_checkpoint(path) -> tuple[TrainerState, dict]:
    """Returns (trainer state, full payload dict)."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if raw.get("format") != FORMAT:
        raise DataFormatError("not a tailshift checkpoint")
    if raw.get("version") != VERSION:
        raise DataFormatError(f"unsupported checkpoint version {raw.get('version')}")
    params = {k: _dec_array(v) for k, v in raw["params"]}
    proto = PrototypeBank(v=_dec_array(raw["proto"]["v"]),
                          mask=_dec_array(raw["proto"]["mask"]),
                          ema=float(raw["proto"]["ema"]))
    cov = CovarianceBank(mu=_dec_array(raw["cov"]["mu"]),
                         sigma=_dec_array(raw["cov"]["sigma"]),
                         n=_dec_array(raw["cov"]["n"]))
    state = TrainerState(params=params, proto=proto, cov=cov,
                         rng_state=raw["rng_state"], step=int(raw["step"]))
    return state, raw
