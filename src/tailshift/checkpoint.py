"""Versioned text checkpoints.

A checkpoint is a single JSON document holding the model/train configs, the
step counter, every parameter block, the prototype and covariance banks, and
the training-loop random state. Every array is stored the same way, as its
dtype, its shape and the hex of its little-endian bytes, so a save/load round
trip is bit-exact and resuming reproduces the uninterrupted run's trace. A
fingerprint of the training data ties the checkpoint to its dataset. A save
encodes everything but the arrays' hex in one call of the C JSON encoder,
with a placeholder where each hex belongs, and writes that text into a
temporary file next to the target, hexing each array's bytes between its
pieces a bounded slice at a time. It then renames the file into place, so a
failed save leaves any earlier checkpoint at that path intact.
A load reads the file's bytes into one buffer and parses the document with
each array's hex cut out. It decodes every hex run in place, over the
front of its own text, packs the decoded arrays at the front of the buffer
and cuts the buffer to them, so it holds about the file's size at its peak
and about half of it after; the arrays it hands back, with the configs and
fingerprint, are views of that buffer.
"""

from __future__ import annotations

import binascii
import itertools
import json
import os
import re
from pathlib import Path

import numpy as np

from .banks import CovarianceBank, PrototypeBank
from .config import _take
from .errors import DataFormatError
from .mathcore import rng_from_state
from .meta import TrainerState
from .model import ModelConfig, param_shapes

FORMAT = "tailshift-checkpoint"
VERSION = 3
# Top-level fields of a version-3 payload besides format and version, and
# the ones ``load_checkpoint`` hands back beside the state.
FIELDS = ("step", "model_config", "train_config", "dataset_fingerprint", "params",
          "proto", "cov", "rng_state")
META = ("model_config", "train_config", "dataset_fingerprint")
# An array's bytes are hexed and written this many at a time, so a save
# holds one slice's hex at most beside the document's array-free text.
_SLICE = 1 << 16
# Stands in for an array's hex in the encoded document; numbered from 0. It
# needs no JSON escaping, and no two copies of it can overlap.
_HOLE = "tailshift-array-hex-"
# An array's hex string in a stored document: the value of a "hex" key.
_HEX_RUN = re.compile(rb'"hex"\s*:\s*"([^"]*)"')
# Decoded arrays start at multiples of this many bytes of the load buffer.
# A run of 2n hex digits sits after at least `"hex":"`, so n rounded up to
# it never outruns the run's own text: each array is written at or before
# the start of its run.
_ALIGN = 8


def _skeleton(payload: dict, hole: str) -> tuple[list[bytes], list[np.ndarray]]:
    """Encode ``payload`` in one C-encoder call, with ``hole`` in place of
    each array's hex. Returns the ASCII document split at every copy of
    ``hole``, and the arrays, little-endian, in document order."""
    arrays = []

    def hold(a):
        if not isinstance(a, np.ndarray):
            raise TypeError(f"{type(a).__name__} is not JSON serializable")
        le = a.astype(a.dtype.newbyteorder("<"), copy=False)
        arrays.append(le)
        return {"dtype": le.dtype.str, "hex": hole, "shape": list(a.shape)}

    text = json.dumps(payload, sort_keys=True, default=hold)
    return text.encode("ascii").split(hole.encode("ascii")), arrays


def _take_array(d: dict, runs, name: str, want=np.float64) -> np.ndarray:
    """Decode encoded array `name`, which must be of dtype `want` in either
    byte order, removing its hex from ``d``, which holds the index of a run
    ``_unhex_runs`` decoded; the array is a writable view of that run's
    bytes."""
    dtype = np.dtype(d["dtype"])
    if dtype.newbyteorder("=") != want:
        raise ValueError(f"{name} is stored as {dtype.name}, not {np.dtype(want).name}")
    hole = d.pop("hex")
    if not (isinstance(hole, str) and hole.isdigit() and int(hole) < len(runs)):
        raise ValueError(f"array hex {hole!r} is not a hex run of the file")
    stored = np.frombuffer(runs[int(hole)], dtype=dtype)
    return stored.astype(stored.dtype.newbyteorder("="), copy=False).reshape(d["shape"])


def _read_document(path: Path) -> tuple[bytes, bytearray, list]:
    """The file's bytes in one buffer, split into the document with each
    hex run replaced by its index, and the (start, end) of every run."""
    buf = bytearray(path.stat().st_size)
    with open(path, "rb") as fh:
        if fh.readinto(buf) != len(buf):
            raise OSError(f"{path}: changed size while being read")
    pieces, spans, at = [], [], 0
    for k, run in enumerate(_HEX_RUN.finditer(buf)):
        pieces += [buf[at:run.start(1)], str(k).encode("ascii")]
        spans.append(run.span(1))
        at = run.end(1)
    pieces.append(buf[at:])
    return b"".join(pieces), buf, spans


def _unhex_runs(buf: bytearray, spans: list) -> list[memoryview]:
    """Decode each hex run of `buf` in place, a bounded slice at a time,
    packing the decoded bytes at the front of `buf`, and cut `buf` to them.
    Every write lands before the hex still to be read. Returns one view of
    `buf` per run."""
    mv = memoryview(buf)
    packed, at = [], 0
    try:
        for start, end in spans:
            if (end - start) % 2:
                raise ValueError("odd-length hex")
            for i in range(start, end, 2 * _SLICE):
                chunk = binascii.unhexlify(mv[i:min(i + 2 * _SLICE, end)])
                j = at + (i - start) // 2
                mv[j:j + len(chunk)] = chunk
            size = (end - start) // 2
            packed.append((at, size))
            at += -(-size // _ALIGN) * _ALIGN
    finally:
        mv.release()
    del buf[at:]
    mv = memoryview(buf)
    return [mv[a:a + size] for a, size in packed]


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
        "params": [[k, v] for k, v in state.params.items()],
        "proto": {"v": state.proto.v, "mask": state.proto.mask, "ema": state.proto.ema},
        "cov": {"mu": state.cov.mu, "sigma": state.cov.sigma, "n": state.cov.n},
        "rng_state": state.rng_state,
    }
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    for n in itertools.count():
        pieces, arrays = _skeleton(payload, f"{_HOLE}{n}")
        # every array left one hole; a surplus copy is a payload string that
        # spells the hole, so the next numbered hole is tried
        if len(pieces) == len(arrays) + 1:
            break
    try:
        with open(tmp, "wb") as fh:
            fh.write(pieces[0])
            for a, piece in zip(arrays, pieces[1:]):
                raw = a.ravel().view(np.uint8)
                for i in range(0, raw.size, _SLICE):
                    fh.write(binascii.hexlify(raw[i:i + _SLICE]))
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[TrainerState, dict]:
    """Returns (trainer state, metadata), the metadata being the payload's
    ``META`` fields. A file that is not a whole version-3 checkpoint, whose
    stored ``model_config`` the config parser refuses, or whose state no run
    of that config could resume, raises ``DataFormatError`` naming the file.
    ``train_config`` is left to the run that resumes it."""
    path = Path(path)
    doc, buf, spans = _read_document(path)
    try:
        raw = json.loads(doc)
    except ValueError as exc:
        raise DataFormatError(f"{path}: not a JSON document ({exc})") from exc
    del doc
    if not isinstance(raw, dict) or raw.get("format") != FORMAT:
        raise DataFormatError(f"{path}: not a tailshift checkpoint")
    if raw.get("version") != VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {raw.get('version')}")
    missing = [k for k in FIELDS if k not in raw]
    if missing:
        raise DataFormatError(f"{path}: checkpoint lacks {', '.join(missing)}")
    try:
        mcfg = _take(raw["model_config"], ModelConfig, "model_config")
        runs = _unhex_runs(buf, spans)
        params = {k: _take_array(v, runs, f"parameter block {k}") for k, v in raw["params"]}
        proto = PrototypeBank(v=_take_array(raw["proto"]["v"], runs, "proto.v"),
                              mask=_take_array(raw["proto"]["mask"], runs, "proto.mask", bool))
        ema = raw["proto"]["ema"]
        cov = CovarianceBank(mu=_take_array(raw["cov"]["mu"], runs, "cov.mu"),
                             sigma=_take_array(raw["cov"]["sigma"], runs, "cov.sigma"),
                             n=_take_array(raw["cov"]["n"], runs, "cov.n", np.int64))
        rng_from_state(raw["rng_state"])
    except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint "
                              f"({type(exc).__name__}: {exc})") from exc
    step, c, d = raw["step"], mcfg.n_classes, mcfg.d_v
    for bad, what in (
            (type(step) is not int or step < 0, f"step {step!r} is not an int >= 0"),
            ([(k, a.shape) for k, a in params.items()] != param_shapes(mcfg),
             "parameter blocks are not the names, order and shapes its model_config builds"),
            (proto.v.shape[1:] != (c, d) or cov.mu.shape != (c, d)
             or cov.sigma.shape != (c, d, d) or cov.n.shape != (c,),
             f"bank arrays are not shaped for {c} classes of d_v {d}"),
            (ema != PrototypeBank.ema,
             f"prototype EMA weight {ema!r} is not the fixed {PrototypeBank.ema}")):
        if bad:
            raise DataFormatError(f"{path}: {what}")
    state = TrainerState(params=params, proto=proto, cov=cov,
                         rng_state=raw["rng_state"], step=step)
    return state, {k: raw[k] for k in META}
