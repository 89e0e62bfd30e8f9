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
from .mathcore import GradResult, Rng, as_tensor, normalize_rows


@dataclass(frozen=True)
class ModelConfig:
    d_x: int
    d_v: int
    d_s: int
    n_classes: int
    hidden: tuple[int, ...] = (64,)

    def __post_init__(self):
        dims = (self.d_x, self.d_v, self.d_s, self.n_classes, *self.hidden)
        if any(int(d) < 1 for d in dims):
            raise ConfigError("all model dimensions must be >= 1")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @property
    def feature_dims(self) -> list[tuple[int, int]]:
        widths = [self.d_x, *self.hidden, self.d_v]
        return [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]


Params = dict  # str -> np.ndarray, insertion-ordered


def init_params(cfg: ModelConfig, rng: Rng) -> Params:
    """Symmetric-uniform fan-in initialization of all blocks."""

    def affine(prefix: str, dout: int, din: int, p: Params):
        bound = 1.0 / np.sqrt(din)
        p[f"{prefix}.W"] = rng.uniform(-bound, bound, size=(dout, din))
        p[f"{prefix}.b"] = rng.uniform(-bound, bound, size=dout)

    p: Params = {}
    for i, (dout, din) in enumerate(cfg.feature_dims):
        affine(f"f{i}", dout, din, p)
    affine("cls", cfg.n_classes, cfg.d_v, p)
    affine("enc", cfg.d_s, cfg.d_v, p)
    affine("dec", cfg.d_v, cfg.d_s, p)
    return p


def clone_params(params: Params) -> Params:
    return {k: np.array(v, dtype=np.float64) for k, v in params.items()}


def flatten_params(params: Params) -> np.ndarray:
    return np.concatenate([np.asarray(v, dtype=np.float64).reshape(-1)
                           for v in params.values()])


def unflatten_params(vec: np.ndarray, like: Params) -> Params:
    out: Params = {}
    pos = 0
    for k, v in like.items():
        n = int(np.prod(v.shape)) if v.shape else 1
        out[k] = np.asarray(vec[pos:pos + n], dtype=np.float64).reshape(v.shape)
        pos += n
    if pos != vec.size:
        raise ValueError("unflatten_params: size mismatch")
    return out


def param_count(params: Params) -> int:
    return int(sum(np.asarray(v).size for v in params.values()))


def apply_step(params: Params, grads, lr: float) -> Params:
    """theta' = theta - lr * grad, leaving the inputs untouched."""
    g = grads.grads if isinstance(grads, GradResult) else grads
    if set(g) != set(params):
        raise ValueError("apply_step: gradient blocks do not match parameters")
    out: Params = {}
    for k, v in params.items():
        if np.shape(g[k]) != np.shape(v):
            raise ValueError(f"apply_step: shape mismatch for block {k}")
        out[k] = np.asarray(v, dtype=np.float64) - lr * np.asarray(g[k], dtype=np.float64)
    return out


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def forward_features(params: Params, x, cfg: ModelConfig):
    """z = f(x): MLP over rows of x, rectifiers between layers."""
    z = as_tensor(x)
    n_layers = len(cfg.feature_dims)
    for i in range(n_layers):
        z = z @ as_tensor(params[f"f{i}.W"]).T + as_tensor(params[f"f{i}.b"])
        if i < n_layers - 1:
            z = z.relu()
    return z


def forward_logits(params: Params, z):
    return as_tensor(z) @ as_tensor(params["cls.W"]).T + as_tensor(params["cls.b"])


DEAD_ROW_NORM = 1e-8


def encode(params: Params, z, cfg: ModelConfig):
    """Unit-row semantic embeddings of visual features.

    A row the rectifier kills entirely has no direction to normalize; such
    rows map to the uniform unit vector (gradient-free), keeping the output
    exactly on the unit sphere instead of exploding through 1/norm.
    """
    a = as_tensor(z) @ as_tensor(params["enc.W"]).T + as_tensor(params["enc.b"])
    r = a.relu()
    norms = np.linalg.norm(r.data, axis=-1, keepdims=True)
    unit = normalize_rows(r)
    if (norms < DEAD_ROW_NORM).any():
        dead = norms < DEAD_ROW_NORM
        fallback = np.ones(cfg.d_s) / np.sqrt(cfg.d_s)
        unit = unit * (~dead) + fallback * dead
    return unit


def decode(params: Params, s, cfg: ModelConfig):
    """Visual reconstruction of semantic rows."""
    a = as_tensor(s) @ as_tensor(params["dec.W"]).T + as_tensor(params["dec.b"])
    return a.relu()


def predict_logits(params: Params, x, cfg: ModelConfig) -> np.ndarray:
    """Inference logits on plain arrays."""
    z = forward_features(params, np.asarray(x, dtype=np.float64), cfg)
    return forward_logits(params, z).data


def embed(params: Params, x, cfg: ModelConfig) -> np.ndarray:
    """Inference semantic embeddings e(f(x)) on plain arrays."""
    z = forward_features(params, np.asarray(x, dtype=np.float64), cfg)
    return encode(params, z, cfg).data
