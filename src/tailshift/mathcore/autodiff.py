"""Minimal reverse-mode gradient engine on dense float64 numpy arrays.

A :class:`Tensor` wraps an ndarray and records the operation graph as it is
built. Calling ``backward()`` on a scalar result accumulates gradients into
every reachable leaf created with ``requires_grad=True``. The primitive set
is deliberately small: affine algebra, elementwise transcendentals, rectifier,
reductions, indexing, and the numerically stable log-softmax.
Four compositions are one node each with a hand-written backward, and each
gives the value and gradients of its primitive composition bit for bit:
``affine`` (``x @ w.T + b``, optionally rectified: a whole layer),
``normalize_rows``, ``mask_fill`` (``x * keep + fill * (1 - keep)`` for a
constant fill) and ``weighted_sum`` (a loss total ``w_0 t_0 + w_1 t_1 + ...``
summed left to right). The log-softmax array math lives
once, in ``_log_softmax_core``; the fused cross-entropy nodes of
``losses`` call it, and so does ``log_softmax``, their reference in the
tests. It takes no weights:
a prior enters as a log-prior added to the logits, with -inf for an entry
that must get probability 0.

Gradients accumulate by rebinding, never in place: the first gradient a
node receives is bound as is (it may be another node's array), and each
later one replaces it with a new sum. So no backward function may write
into its incoming gradient. An op computes an operand's gradient only when
that operand requires one.

``backward()`` consumes the graph it sweeps: once an op node's backward has
run, the node drops its gradient, its parent links and its backward
function, which holds the forward arrays, so each part of the graph is
freed as soon as the sweep is past it. Leaves keep their gradients and
every node keeps its value. A second ``backward()`` through a consumed node
raises ``ValueError``.

``grad`` runs the analytic path, ``fd_grad`` is the independent
central-difference oracle used to cross-check it; the two must never be
collapsed into one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericsError

# Floor added under squared norms before the square root in normalize_rows.
# Keeps the training graph finite when a rectifier zeroes a whole row; for
# rows of norm >= 1e-7 the deviation from an exact unit norm is < 1e-10.
NORM_FLOOR = 1e-24

# Largest step fd_grad accepts; beyond it the central difference's
# truncation error swamps the comparison it exists for.
FD_EPS_MAX = 1e-2


def _consumed(g):
    raise ValueError("backward() through a graph that an earlier backward() consumed")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # Make `ndarray <op> Tensor` dispatch to the reflected Tensor operator
    # instead of a numpy elementwise object loop.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._backward = None

    @classmethod
    def _from_op(cls, data, parents, backward):
        out = cls(data)
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward
                break
        return out

    @staticmethod
    def _accum(p: "Tensor", g: np.ndarray):
        # `g` may be shared with other nodes, so it is bound, never written.
        if p.requires_grad:
            p.grad = g if p.grad is None else p.grad + g

    # -- graph traversal ---------------------------------------------------

    def backward(self):
        """Run every op node's backward once, each after all nodes that
        consume it. The depth-first walk visits op nodes only: a leaf or a
        constant has no parents and no backward, so skipping it leaves the
        op nodes, and the gradients, in the order a walk of every node gives.

        Each op node is consumed as soon as its backward has run: its
        gradient, parents and backward function are dropped, and a backward
        that raises ``ValueError`` takes the function's place."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[Tensor] = set()      # a Tensor hashes by identity
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p._backward is not None and p not in seen:
                    stack.append((p, False))
        seen = None     # so that `topo` holds the only walk reference to a node
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None
                node._parents = ()
                node._backward = _consumed

    # -- basic arithmetic --------------------------------------------------

    def __add__(self, other):
        a, b = self, as_tensor(other)
        out_data = a.data + b.data

        def bw(g):
            if a.requires_grad:
                Tensor._accum(a, _unbroadcast(g, a.data.shape))
            if b.requires_grad:
                Tensor._accum(b, _unbroadcast(g, b.data.shape))

        return Tensor._from_op(out_data, (a, b), bw)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def bw(g):
            Tensor._accum(a, -g)

        return Tensor._from_op(-a.data, (a,), bw)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        a, b = self, as_tensor(other)
        out_data = a.data * b.data

        def bw(g):
            if a.requires_grad:
                Tensor._accum(a, _unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                Tensor._accum(b, _unbroadcast(g * a.data, b.data.shape))

        return Tensor._from_op(out_data, (a, b), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, as_tensor(other)
        out_data = a.data / b.data

        def bw(g):
            if a.requires_grad:
                Tensor._accum(a, _unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                Tensor._accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return Tensor._from_op(out_data, (a, b), bw)

    def __matmul__(self, other):
        """Matrix product under numpy's rule: leading axes broadcast, and a
        1-D operand is promoted to a matrix (a row on the left, a column on
        the right) whose added axis is dropped from the result."""
        a, b = self, as_tensor(other)
        out_data = a.data @ b.data

        def bw(g):
            am = np.atleast_2d(a.data)          # 1-D -> (1, n)
            bm = np.atleast_2d(b.data.T).T      # 1-D -> (n, 1); else unchanged
            gm = np.reshape(g, np.broadcast_shapes(am.shape[:-2], bm.shape[:-2])
                            + (am.shape[-2], bm.shape[-1]))
            if a.requires_grad:
                Tensor._accum(a, _unbroadcast(gm @ np.swapaxes(bm, -1, -2),
                                              am.shape).reshape(a.data.shape))
            if b.requires_grad:
                Tensor._accum(b, _unbroadcast(np.swapaxes(am, -1, -2) @ gm,
                                              bm.shape).reshape(b.data.shape))

        return Tensor._from_op(out_data, (a, b), bw)

    def __rmatmul__(self, other):
        return as_tensor(other) @ self

    @property
    def T(self):
        """Swap the last two axes (the transpose of every stacked matrix)."""
        a = self
        if a.data.ndim < 2:
            raise ValueError("T needs at least 2 axes")

        def bw(g):
            Tensor._accum(a, np.swapaxes(g, -1, -2))

        return Tensor._from_op(np.swapaxes(a.data, -1, -2), (a,), bw)

    def __getitem__(self, idx):
        a = self
        out_data = a.data[idx]

        def bw(g):
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            Tensor._accum(a, buf)

        return Tensor._from_op(out_data, (a,), bw)

    # -- elementwise -------------------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def bw(g):
            Tensor._accum(a, g * out_data)

        return Tensor._from_op(out_data, (a,), bw)

    def log(self):
        a = self

        def bw(g):
            Tensor._accum(a, g / a.data)

        return Tensor._from_op(np.log(a.data), (a,), bw)

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)

        def bw(g):
            Tensor._accum(a, g * 0.5 / out_data)

        return Tensor._from_op(out_data, (a,), bw)

    def relu(self):
        a = self
        mask = a.data > 0

        def bw(g):
            Tensor._accum(a, g * mask)

        return Tensor._from_op(np.maximum(a.data, 0.0), (a,), bw)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            Tensor._accum(a, np.broadcast_to(gg, a.data.shape).copy())

        return Tensor._from_op(out_data, (a,), bw)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        return f"Tensor({self.data!r}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _log_softmax_core(z: np.ndarray):
    """Log-normalizer m + log sum_j e^{z_j - m} over the last axis of `z`
    (kept as a size-1 axis; m is the row max) and the softmax.

    An entry of -inf gets probability exactly 0. One check on the row max
    refuses NaN (the max propagates it), +inf and a row with no finite
    entry. Only ``losses.s2s_loss`` and the softmax confidence of
    ``evaluation.decide`` (which needs no probability matrix) keep a max
    shift of their own.
    """
    m = z.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise ValueError("log_softmax: a row holds NaN or +inf, or no finite entry")
    ez = np.exp(z - m)
    s = ez.sum(axis=-1, keepdims=True)
    return m + np.log(s), ez / s


def log_softmax(x):
    """Log-probabilities of the softmax over the last axis.

    An entry of -inf is reported as -inf and left out of the normalizer; a
    loss at any other entry sends it exactly zero gradient. So a weighted
    softmax log(w_i e^{x_i} / sum_j w_j e^{x_j}) is ``log_softmax(x + log w)``.

    Accepts a Tensor or ndarray (1-D or batched rows); returns a Tensor.
    No module of the package calls it. The tests build reference graphs of
    the fused cross-entropy nodes of ``losses`` on it, and those nodes must
    match such a graph bit for bit.
    """
    xt = as_tensor(x)
    lse, p = _log_softmax_core(xt.data)

    def bw(g):
        Tensor._accum(xt, g - p * g.sum(axis=-1, keepdims=True))

    return Tensor._from_op(xt.data - lse, (xt,), bw)


def affine(x, w, b, relu: bool = False) -> Tensor:
    """One node for ``x @ w.T + b``, or with ``relu`` for the layer
    ``(x @ w.T + b).relu()``: x is (..., n, d_in), w is (d_out, d_in) and b
    is (d_out,).

    The backward first masks g where the rectifier cut (with ``relu``), then
    adds g @ w into x, (x' g)' summed over stack axes into w, and g summed
    over every axis but the last into b. When no operand requires a
    gradient (inference), neither the mask nor the backward is built.
    """
    xt, wt, bt = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd = xt.data, wt.data
    if xd.ndim < 2:
        raise ValueError("affine: x needs a row axis")
    out_data = xd @ wd.T
    out_data += bt.data
    needs_grad = xt.requires_grad or wt.requires_grad or bt.requires_grad
    mask = out_data > 0 if relu and needs_grad else None
    if relu:
        np.maximum(out_data, 0.0, out=out_data)
    if not needs_grad:
        return Tensor(out_data)

    def bw(g):
        if mask is not None:
            g = g * mask
        if xt.requires_grad:
            Tensor._accum(xt, g @ wd)
        if wt.requires_grad:
            Tensor._accum(wt, _unbroadcast(xd.swapaxes(-1, -2) @ g, wd.T.shape).T)
        if bt.requires_grad:
            Tensor._accum(bt, _unbroadcast(g, bt.data.shape))

    return Tensor._from_op(out_data, (xt, wt, bt), bw)


def mask_fill(x, keep, fill) -> Tensor:
    """One node for ``x * keep + fill * (1 - keep)``: entries where the 0/1
    (or bool) mask `keep` is 1 come from x, the others from the constant
    array `fill`, which takes no gradient. `keep` and `fill` broadcast
    against x; the result may not be larger than ``x * keep``.

    The backward adds g * keep into x.
    """
    xt = as_tensor(x)
    keep = np.asarray(keep, dtype=np.float64)
    kept = xt.data * keep
    out_data = kept + fill * (1.0 - keep)
    if out_data.shape != kept.shape:
        raise ValueError("mask_fill: fill broadcasts beyond x * keep")

    def bw(g):
        Tensor._accum(xt, _unbroadcast(g * keep, xt.data.shape))

    return Tensor._from_op(out_data, (xt,), bw)


def weighted_sum(pairs) -> Tensor:
    """One node for ``w_0 t_0 + w_1 t_1 + ...`` over (float weight, term)
    pairs of same-shape terms, summed left to right. A weight of 1.0 takes
    its term as it is, so ``weighted_sum([(1.0, a), (w, b)])`` is
    ``a + w * b``, and a lone term of weight 1.0 is returned itself.

    The backward adds g * w_i into term i (g itself for a weight of 1.0).
    """
    weights = [float(w) for w, _ in pairs]
    terms = [as_tensor(t) for _, t in pairs]
    if len(terms) == 1 and weights[0] == 1.0:
        return terms[0]
    shape = terms[0].data.shape
    if any(t.data.shape != shape for t in terms):
        raise ValueError("weighted_sum: terms differ in shape")
    out_data = None
    for w, t in zip(weights, terms):
        part = t.data if w == 1.0 else t.data * w
        out_data = part if out_data is None else out_data + part

    def bw(g):
        for w, t in zip(weights, terms):
            if t.requires_grad:
                Tensor._accum(t, g if w == 1.0 else g * w)

    return Tensor._from_op(out_data, tuple(terms), bw)


def normalize_rows(x, return_norms: bool = False):
    """Scale rows to (floored) unit Euclidean norm inside the graph.

    One node: y = x / n with n = sqrt(|x|^2 + NORM_FLOOR), and the backward
    is (g - y (y . g)) / n. With ``return_norms`` it returns (y, n), the
    (..., 1) array of floored norms it divided by.
    """
    xt = as_tensor(x)
    xd = xt.data
    n = np.sqrt((xd * xd).sum(axis=-1, keepdims=True) + NORM_FLOOR)
    y = xd / n

    def bw(g):
        Tensor._accum(xt, (g - y * (y * g).sum(axis=-1, keepdims=True)) / n)

    out = Tensor._from_op(y, (xt,), bw)
    return (out, n) if return_norms else out


@dataclass
class GradResult:
    """Scalar loss value plus one gradient array per parameter block."""

    value: float
    grads: dict[str, np.ndarray]


def make_leaves(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=True) for k, v in params.items()}


def collect_grads(leaves: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {
        k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for k, t in leaves.items()
    }


def grad(loss_fn, params: dict[str, np.ndarray]) -> GradResult:
    """Analytic reverse-mode gradient of a scalar loss of parameter blocks.

    `loss_fn` receives a dict of Tensors (same keys as `params`) and must
    return a scalar Tensor built from supported primitives.
    """
    leaves = make_leaves(params)
    out = loss_fn(leaves)
    if not isinstance(out, Tensor):
        raise TypeError("loss_fn must return a Tensor (got %r)" % type(out).__name__)
    out.backward()
    grads = collect_grads(leaves)
    value = float(out.data)
    if not np.isfinite(value) or any(not np.isfinite(g).all() for g in grads.values()):
        raise NumericsError("grad: non-finite loss or gradients")
    return GradResult(value=value, grads=grads)


def fd_grad(loss_fn, params: dict[str, np.ndarray], eps: float = 1e-5) -> GradResult:
    """Central finite-difference gradient oracle, (L(x+eps)-L(x-eps))/2eps."""
    if not (0.0 < eps <= FD_EPS_MAX):
        raise ValueError(f"fd_grad: eps must lie in (0, {FD_EPS_MAX:g}]")

    def evaluate(p: dict[str, np.ndarray]) -> float:
        out = loss_fn({k: Tensor(v) for k, v in p.items()})
        val = float(out.data if isinstance(out, Tensor) else out)
        if not np.isfinite(val):
            raise NumericsError("fd_grad: non-finite loss evaluation")
        return val

    base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    grads = {}
    for key, arr in base.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = evaluate(base)
            flat[i] = orig - eps
            lo = evaluate(base)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads[key] = g
    return GradResult(value=evaluate(base), grads=grads)
