"""Spans and counters for the traced benchmark job.

The traced job times each layer from outside the program: ``install``
rebinds the public functions of each layer to wrappers that record one span
per call. ``tailshift.meta`` imports its kernels and bank updates by name, so
the wrapper replaces the name in ``tailshift.meta`` (the caller), and
``tailshift.losses.s2s_loss`` is wrapped as well so that the ``s2s`` call
inside ``s2z_loss`` nests as a child span. ``Tensor.backward`` is wrapped on
the class. Nothing under ``src/`` is edited, and an untraced job installs
none of this.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span, or -1. Spans stay in memory and are written out when the
workload ends, before the job's untimed closing checks. A layer's self time is its spans' durations minus the parts covered by
their child spans.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter

# (span name, module that calls the function, attribute). A span name listed
# twice wraps each binding of one function under that name.
TRACED = (
    ("mathcore.check_psd", "tailshift.losses", "check_psd"),
    ("losses.dc", "tailshift.meta", "dc_loss_mean"),
    ("losses.z2s", "tailshift.meta", "z2s_loss_mean"),
    ("losses.s2s", "tailshift.meta", "s2s_loss"),
    ("losses.s2s", "tailshift.losses", "s2s_loss"),
    ("losses.s2z", "tailshift.meta", "s2z_loss"),
    ("losses.aug", "tailshift.meta", "aug_loss_mean"),
    ("banks.update_prototypes", "tailshift.meta", "update_prototypes"),
    ("banks.update_covariance", "tailshift.meta", "update_covariance"),
    ("banks.blend_covariance", "tailshift.meta", "blend_covariance"),
    ("banks.complete_semantic", "tailshift.meta", "complete_semantic"),
    ("model.forward_features", "tailshift.model", "forward_features"),
    ("model.encode", "tailshift.model", "encode"),
    ("model.decode", "tailshift.model", "decode"),
    ("model.apply_step", "tailshift.model", "apply_step"),
    ("meta.run", "tailshift.meta", "run"),
    ("meta.meta_train_losses", "tailshift.meta", "meta_train_losses"),
    ("meta.meta_test_losses", "tailshift.meta", "meta_test_losses"),
    ("meta.outer_step", "tailshift.meta", "outer_step"),
    ("data.generate", "tailshift.data", "generate"),
    ("data.save_dataset", "tailshift.data", "save_dataset"),
    ("data.load_dataset", "tailshift.data", "load_dataset"),
    ("data.load_embeddings", "tailshift.data", "load_embeddings"),
    ("data.sample_batch", "tailshift.meta", "sample_batch"),
    ("evaluation.select_threshold", "tailshift.evaluation", "select_threshold"),
    ("evaluation.evaluate", "tailshift.evaluation", "evaluate"),
    ("checkpoint.save", "tailshift.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "tailshift.checkpoint", "load_checkpoint"),
    ("cli.gen_data", "tailshift.cli", "cmd_gen_data"),
    ("cli.train", "tailshift.cli", "cmd_train"),
    ("cli.eval", "tailshift.cli", "cmd_eval"),
)

# Functions that write a file: span name -> (byte counter, index of the path
# argument).
WRITES = {
    "checkpoint.save": ("checkpoint.bytes", 0),
    "data.save_dataset": ("data.dataset_bytes", 1),
}


def count_op_nodes(loss) -> int:
    """Op nodes (tensors with a backward function) reachable from `loss`."""
    seen = {id(loss)}
    todo = [loss]
    ops = 0
    while todo:
        node = todo.pop()
        if node._backward is not None:
            ops += 1
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return ops


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """Wrap `fn` so that each call records a span; `after(args)`
        runs once the span has closed, for counters."""
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                open_spans.pop()
            if after is not None:
                after(args)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module, attr in TRACED:
            mod = importlib.import_module(module)
            after = self._count_bytes(*WRITES[name]) if name in WRITES else None
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), after=after))
        from tailshift.mathcore.autodiff import Tensor

        # Counting walks the graph once more; it gets a span of its own so
        # that its time is not charged to the enclosing layer.
        counter = self.wrap("trace.count_nodes", count_op_nodes)
        backward = self.wrap("mathcore.backward", Tensor.backward)

        def traced_backward(loss):
            self.counters["mathcore.nodes"] += counter(loss)
            return backward(loss)

        Tensor.backward = traced_backward

    def _count_bytes(self, counter: str, path_arg: int):
        def after(args):
            self.counters[counter] += os.path.getsize(args[path_arg])
        return after

    def summary(self) -> dict:
        """name -> [calls, self seconds, inclusive seconds]."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += (end - start) - covered[i]
            agg[2] += end - start
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)
