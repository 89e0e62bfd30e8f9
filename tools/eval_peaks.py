"""Traced memory peak of each pass over a split, at preset size.

    python3 tools/eval_peaks.py [PRESET|CONFIG]

Generates the dataset of a preset or config file (default ``paper_s1``) and
trains on it for one step, with ``tailshift`` imported from this checkout's
``src/`` and BLAS on one thread, as ``perfbench`` runs it (unless the
environment sets the thread counts). Then it runs each pass that scores a
split once untraced (so one-time caches, such as ``Dataset.indices``, are
built) and once under ``tracemalloc``, and prints one line per pass: its
split, the split's row count and the high-water of the traced call in MiB
(NumPy's buffers included). The passes are ``evaluate`` on ``test`` at
threshold 0.5 and the first held-out domain, ``select_threshold`` on ``val``
over the config's grid, and ``dump_features`` of ``test`` into a temporary
file. A peak that grows with the split's rows shows a pass that holds the
whole split at once.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_peak(fn) -> int:
    """Bytes of the ``tracemalloc`` high-water during ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pass_peaks(dataset, cfg, params, tmp: Path) -> list[tuple[str, str, int, int]]:
    """(pass, split, rows, traced peak in bytes) of each pass over a split
    of `dataset` under the ``RunConfig`` `cfg` and the model `params`."""
    from tailshift import evaluation as E

    passes = [
        ("evaluate", "test", lambda: E.evaluate(params, cfg.model, dataset,
                                                dataset.heldout_domains[0], 0.5)),
        ("select_threshold", "val", lambda: E.select_threshold(params, cfg.model, dataset,
                                                               cfg.eval.grid)),
        ("dump_features", "test", lambda: E.dump_features(params, cfg.model, dataset,
                                                          tmp / "features.csv", split="test")),
    ]
    rows = []
    for name, split, fn in passes:
        fn()
        rows.append((name, split, int(dataset.indices(split).size), traced_peak(fn)))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Traced memory peak of evaluate, select_threshold and dump_features.")
    parser.add_argument("config", nargs="?", default="paper_s1", metavar="PRESET|CONFIG")
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    from tailshift import meta as MT
    from tailshift.config import load_run_config
    from tailshift.data import generate
    from tailshift.errors import ConfigError

    try:
        cfg = load_run_config(args.config)[0]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dataset = generate(cfg.data)
    train = dataclasses.replace(cfg.train, t_max=1, t_sigma=1, steps_per_epoch=1)
    params = MT.run(dataset, train, cfg.model).params
    with tempfile.TemporaryDirectory() as tmp:
        rows = pass_peaks(dataset, cfg, params, Path(tmp))
    print(f"{'pass':<16} {'split':<5} {'rows':>6} {'peak_mib':>8}")
    for name, split, n, peak in rows:
        print(f"{name:<16} {split:<5} {n:>6} {peak / (1 << 20):>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
