"""CPU time and minor page faults of the training steps, by phase.

    python3 tools/step_faults.py [PRESET|CONFIG] [--skip N]

Generates the dataset of a preset or config file (default ``paper_s1``) and
trains on it in this process, with ``tailshift`` imported from this
checkout's ``src/`` and BLAS on one thread, as ``perfbench`` runs it (unless
the environment sets the thread counts). Around each step it reads the
process CPU time and the minor page faults of ``resource.getrusage``; a step
is counted from the end of the one before it (the first from the call into
``meta.run``), so it includes sampling its batches. Prints one line each for
the steps before epoch ``t_sigma`` (``pre-aug``) and from it on (``aug``):
the number of steps and the median CPU ms and minor faults per step
(``-`` for a phase without steps). ``--skip N`` leaves the first N steps of
each phase out of its line, the steps that first grow the heap. A last line
gives the process's peak RSS once training has ended (``ru_maxrss``, in
MiB), data generation and imports included.

A steady-state step that reuses the heap memory it already holds takes
about 0 faults; one whose freed memory went back to the system faults it in
again on every step.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mark() -> tuple[float, int]:
    return time.process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def step_costs(dataset, cfg) -> list[tuple[bool, float, int]]:
    """(aug phase, CPU ms, minor faults) of each step of ``meta.run`` on
    `dataset` under the ``RunConfig`` `cfg`."""
    from tailshift import meta as MT

    epochs = []
    marks = [_mark()]

    def on_step(state, report):
        marks.append(_mark())
        epochs.append(report.epoch)

    MT.run(dataset, cfg.train, cfg.model, on_step=on_step)
    aug = cfg.train.use_aug
    return [(aug and epoch >= cfg.train.t_sigma, (t1 - t0) * 1e3, f1 - f0)
            for epoch, (t0, f0), (t1, f1) in zip(epochs, marks, marks[1:])]


def phase_lines(costs, skip: int = 0) -> list[str]:
    """The table ``main`` prints for the `costs` of ``step_costs``."""
    lines = [f"{'phase':<8} {'steps':>5} {'cpu_ms_p50':>10} {'minflt_p50':>10}"]
    for name, aug in (("pre-aug", False), ("aug", True)):
        rows = [c for c in costs if c[0] == aug][skip:]
        if rows:
            ms = f"{statistics.median(r[1] for r in rows):.3f}"
            faults = f"{statistics.median(r[2] for r in rows):g}"
        else:
            ms = faults = "-"
        lines.append(f"{name:<8} {len(rows):>5} {ms:>10} {faults:>10}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Median CPU ms and minor page faults per training step, by phase.")
    parser.add_argument("config", nargs="?", default="paper_s1", metavar="PRESET|CONFIG")
    parser.add_argument("--skip", type=int, default=0, metavar="N",
                        help="leave the first N steps of each phase out")
    args = parser.parse_args()
    if args.skip < 0:
        parser.error("--skip must be >= 0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    from tailshift.config import load_run_config
    from tailshift.data import generate
    from tailshift.errors import ConfigError

    try:
        cfg = load_run_config(args.config)[0]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(phase_lines(step_costs(generate(cfg.data), cfg), args.skip)))
    # ru_maxrss is in KiB on Linux, in bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak_rss_mb {peak / (1 << 20 if sys.platform == 'darwin' else 1 << 10):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
