"""Compare the losses of two ``steps.jsonl`` traces, step by step.

    python3 tools/trace_diff.py OLD NEW

For each loss key, prints the largest relative difference
|new - old| / max(|old|, |new|) over the first ten steps, the largest over
all steps, and the first step whose value differs (``-`` if none), then the
same three figures over every key. Exits 1 if the two files do not hold the
same steps with the same loss keys, 2 on a wrong argument count.
"""

from __future__ import annotations

import json
import sys

FIRST_STEPS = 10


def read_losses(path) -> tuple[list[int], list[dict]]:
    """The step numbers and loss dicts of a ``steps.jsonl``, in file order."""
    steps, losses = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                steps.append(record["step"])
                losses.append(record["losses"])
    return steps, losses


def rel_diff(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def trace_diff(old, new) -> list[tuple[str, float, float, int | None]]:
    """(loss key, largest relative difference over the first ten steps, over
    all steps, first differing step or None) for each key, sorted by key."""
    steps, a = read_losses(old)
    steps_new, b = read_losses(new)
    if steps != steps_new:
        raise ValueError("the traces hold different steps")
    keys = sorted(a[0]) if a else []
    if any(sorted(x) != keys or sorted(y) != keys for x, y in zip(a, b)):
        raise ValueError("the traces hold different loss keys")
    rows = []
    for key in keys:
        rel = [rel_diff(x[key], y[key]) for x, y in zip(a, b)]
        first = next((s for s, r in zip(steps, rel) if r > 0), None)
        rows.append((key, max(rel[:FIRST_STEPS]), max(rel), first))
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        rows = trace_diff(*args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"trace_diff: {exc}", file=sys.stderr)
        return 1
    firsts = [r[3] for r in rows if r[3] is not None]
    rows.append(("all", max((r[1] for r in rows), default=0.0),
                 max((r[2] for r in rows), default=0.0), min(firsts, default=None)))
    print(f"{'loss':<8} {'first ' + str(FIRST_STEPS):>10} {'all':>10}  first differing step")
    for key, head, whole, first in rows:
        print(f"{key:<8} {head:>10.3g} {whole:>10.3g}  {'-' if first is None else first}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
