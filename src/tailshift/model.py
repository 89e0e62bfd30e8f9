"""Learnable maps: feature extractor, linear classifier, and the visual <->
semantic encoder/decoder pair, on flat named parameter blocks.

The feature extractor is a small MLP (rectifiers between layers, linear
output). The encoder is affine -> rectifier -> row normalization, so its
outputs live on the unit sphere of the semantic space; the decoder mirrors
it without the normalization. Parameters are a plain ``dict[str, ndarray]``;
forward builders accept either arrays or graph tensors, so the same code
path serves inference and gradient computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .mathcore import affine, mask_fill, normalize_rows


@dataclass(frozen=True)
class ModelConfig:
    d_x: int
    d_v: int
    d_s: int
    n_classes: int
    hidden: tuple[int, ...] = (64,)

    def __post_init__(self):
        dims = (self.d_x, self.d_v, self.d_s, self.n_classes, *self.hidden)
        if any(d < 1 for d in dims):
            raise ConfigError("all model dimensions must be >= 1")
        object.__setattr__(self, "hidden", tuple(self.hidden))

    @property
    def feature_dims(self) -> list[tuple[int, int]]:
        widths = [self.d_x, *self.hidden, self.d_v]
        return [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]


Params = dict  # str -> np.ndarray, insertion-ordered


def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter block, in block order: each affine
    layer's weight, then its bias."""
    layers = [*((f"f{i}", dims) for i, dims in enumerate(cfg.feature_dims)),
              ("cls", (cfg.n_classes, cfg.d_v)), ("enc", (cfg.d_s, cfg.d_v)),
              ("dec", (cfg.d_v, cfg.d_s))]
    return [pair for prefix, (dout, din) in layers
            for pair in ((f"{prefix}.W", (dout, din)), (f"{prefix}.b", (dout,)))]


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> Params:
    """Symmetric-uniform fan-in initialization of all blocks."""
    p: Params = {}
    for name, shape in param_shapes(cfg):
        if name.endswith(".W"):  # a bias follows its weight and shares its fan-in
            bound = 1.0 / np.sqrt(shape[1])
        p[name] = rng.uniform(-bound, bound, size=shape)
    return p


def param_count(params: Params) -> int:
    return int(sum(np.asarray(v).size for v in params.values()))


def apply_step(params: Params, grads, lr: float, extra=None, w: float = 1.0) -> Params:
    """theta' = theta - lr * grad over float64 array blocks, or with a
    second gradient `extra` theta - lr * (grad + w * extra), leaving the
    inputs untouched."""
    if grads.keys() != params.keys() or (extra is not None and extra.keys() != params.keys()):
        raise ValueError("apply_step: gradient blocks do not match parameters")
    out: Params = {}
    for k, v in params.items():
        g = grads[k]
        if g.shape != v.shape or (extra is not None and extra[k].shape != v.shape):
            raise ValueError(f"apply_step: shape mismatch for block {k}")
        if extra is None:
            step = lr * g
        else:
            step = w * extra[k]
            step += g
            step *= lr
        out[k] = np.subtract(v, step, out=step)
    return out


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def forward_features(params: Params, x, cfg: ModelConfig):
    """z = f(x): MLP over rows of x, rectifiers between layers."""
    z = x
    last = len(cfg.feature_dims) - 1
    for i in range(last + 1):
        z = affine(z, params[f"f{i}.W"], params[f"f{i}.b"], relu=i < last)
    return z


def forward_logits(params: Params, z):
    return affine(z, params["cls.W"], params["cls.b"])


DEAD_ROW_NORM = 1e-8


def encode(params: Params, z, cfg: ModelConfig):
    """Unit-row semantic embeddings of visual features.

    A row the rectifier kills entirely has no direction to normalize; such
    rows map to the uniform unit vector (gradient-free), keeping the output
    exactly on the unit sphere instead of exploding through 1/norm. The test
    reads the floored norms the normalization computed; the floor moves the
    DEAD_ROW_NORM threshold by about 5e-17.
    """
    r = affine(z, params["enc.W"], params["enc.b"], relu=True)
    unit, norms = normalize_rows(r, return_norms=True)
    dead = norms < DEAD_ROW_NORM
    if dead.any():
        unit = mask_fill(unit, ~dead, np.ones(cfg.d_s) / np.sqrt(cfg.d_s))
    return unit


def decode(params: Params, s, cfg: ModelConfig):
    """Visual reconstruction of semantic rows."""
    return affine(s, params["dec.W"], params["dec.b"], relu=True)


def predict_logits(params: Params, x, cfg: ModelConfig) -> np.ndarray:
    """Inference logits on plain arrays."""
    z = forward_features(params, np.asarray(x, dtype=np.float64), cfg)
    return forward_logits(params, z).data


def embed(params: Params, x, cfg: ModelConfig) -> np.ndarray:
    """Inference semantic embeddings e(f(x)) on plain arrays."""
    z = forward_features(params, np.asarray(x, dtype=np.float64), cfg)
    return encode(params, z, cfg).data
