"""Split the per-layer self times of a traced ``paper_s1_train`` job by
training phase: steps before epoch ``t_sigma`` and augmentation steps.

    python3 perfbench/phases.py .perfbench_work/spans-paper_s1_train-SEED.json

The traced job writes its spans to that file (see ``spans.py``). Each span
of the training loop is assigned to the step whose ``meta.outer_step`` ends
next; the table gives each layer's self time per step in both phases and
the difference, largest first, so it shows where an augmentation step's
extra cost sits.
"""

from __future__ import annotations

import bisect
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tailshift import config as C  # noqa: E402


def phase_self_ms(spans: list, first_aug: int) -> tuple[dict, dict]:
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    step_ends = sorted(end for name, _, end, _ in spans if name == "meta.outer_step")
    loop_start = min(start for name, start, _, _ in spans if name == "meta.run")
    pre, aug = defaultdict(float), defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        if name == "meta.run" or not loop_start <= start <= step_ends[-1]:
            continue
        step = bisect.bisect_right(step_ends, start)
        (aug if step >= first_aug else pre)[name] += (end - start) - covered[i]
    n_aug = len(step_ends) - first_aug
    return ({k: 1e3 * v / first_aug for k, v in pre.items()},
            {k: 1e3 * v / n_aug for k, v in aug.items()})


def main(argv: list[str]) -> int:
    cfg, _ = C.load_run_config("paper_s1")
    first_aug = cfg.train.t_sigma * cfg.train.steps_per_epoch
    spans = json.loads(Path(argv[1]).read_text(encoding="utf-8"))["spans"]
    pre, aug = phase_self_ms(spans, first_aug)
    extra = {k: aug.get(k, 0.0) - pre.get(k, 0.0) for k in {*pre, *aug}}
    print(f"{'layer':<28} {'pre-aug':>9} {'aug':>9} {'extra':>9}  (self ms/step)")
    for name in sorted(extra, key=extra.get, reverse=True):
        print(f"{name:<28} {pre.get(name, 0.0):9.3f} {aug.get(name, 0.0):9.3f} "
              f"{extra[name]:9.3f}")
    print(f"{'total':<28} {sum(pre.values()):9.3f} {sum(aug.values()):9.3f} "
          f"{sum(extra.values()):9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
