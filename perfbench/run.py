"""tailshift benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed. Each workload is a closed batch job: one
job runs at a time, each in a fresh process with BLAS pinned to one thread,
and the harness starts jobs until ``--seconds`` have passed (at least one).
The seed makes every input; the program sees only the generated data and
configs. Workloads and metrics, with units and directions, are listed in
``BENCHMARK.json``:

- ``paper_s1_train``: the ``paper_s1`` preset in memory, generate ->
  ``meta.run`` -> ``select_threshold`` + ``evaluate``. From epoch
  ``t_sigma`` on, steps run the augmentation phase.
- ``desk_ablate``: ``tailshift ablate`` with rows a, b, i and j on ``desk``
  over two seeds; each cell generates, trains and evaluates (threshold 0).
  Small shapes, so graph overhead and ``s2s_loss`` dominate.
- ``desk_files``: the file-based CLI path: ``gen-data``, ``train`` with a
  checkpoint every epoch, ``train --resume`` from the mid-run checkpoint,
  and ``eval --dump-features``.

The two in-memory workloads end by keeping one trained model as a CLI user
would: ``gen-data`` of its config, a checkpoint of its final state,
``train --resume`` of the finished run and ``eval`` from the files. This is
timed with the rest of the job.

Times are process CPU time of the job (see ``job.py``). ``--trace 0``
reports the end-to-end metrics: medians over the jobs of the run, with
set-up time sampled by extra processes that stop at the first call into
``meta.run``. ``--trace 1`` runs untraced and traced jobs in turn (see
``spans.py``), then the kernel micro-benchmark (``micro.py``), and reports
the per-layer metrics; the untraced jobs give the ``meta.step_*`` phase
figures and the base of ``trace.overhead_frac``. Every metric is printed by
name with its unit; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed /
attempted`` is the share of operations (training steps, evaluations,
checkpoint round trips, CLI commands, repeat-determinism checks, kernel
checks) whose output check failed.

``python3 perfbench/sweep.py`` runs two interleaved ten-seed sets per
workload and reports medians and quartile spreads; ``python3 -m pytest
perfbench`` runs the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
MIN_SETUP_SAMPLES = 6

# End-to-end figures each job reports; the run reports their medians.
JOB_METRICS = ("setup_s", "job_cpu_s", "train_steps_per_s", "step_ms_p50", "step_ms_p90",
               "peak_rss_mb", "acc_u_pct", "h_pct")
PHASE_METRICS = ("meta.step_pre_aug.ms", "meta.step_aug.ms", "meta.aug_step_ratio")


class Run:
    """Spawns the jobs of one benchmark run and tallies their operations."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.environment: dict = {}
        self.h_fallback = None
        self.samples = ""
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self._n = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def spawn(self, mode: str, trace: bool = False) -> dict | None:
        self._n += 1
        tag = f"{mode}{self._n}"
        out = self.work / f"{tag}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        spec = {"workload": self.workload, "seed": self.seed, "mode": mode,
                "trace": trace, "workdir": str(self.work / tag), "out": str(out),
                "spans_out": str(WORK / f"spans-{self.workload}-{self.seed}.json")}
        cmd = [sys.executable, str(HERE / "job.py"), json.dumps(spec)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            return self._failed(f"{tag}: timed out")
        if proc.returncode != 0 or not out.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            return self._failed(f"{tag}: exit {proc.returncode}: {' | '.join(tail)}")
        result = json.loads(out.read_text(encoding="utf-8"))
        shutil.rmtree(self.work / tag, ignore_errors=True)
        out.unlink()
        self.attempted += result.pop("attempted", 0)
        self.failures += [f"{tag}: {f}" for f in result.pop("failures", [])]
        self.environment = result.pop("environment", self.environment)
        return result

    def _failed(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(what)
        return None

    def check_repeats(self, jobs: list[dict]) -> None:
        """Jobs of one run share their inputs, so their outputs must agree."""
        if len(jobs) > 1:
            self.attempted += 1
            if any(j["outputs"] != jobs[0]["outputs"] for j in jobs[1:]):
                self.failures.append("repeated jobs disagree on their outputs")

    def untraced(self, seconds: float) -> dict:
        jobs, setups = [], []
        while True:
            setups.append(self.spawn("setup"))
            jobs.append(self.spawn("job"))
            if self.elapsed() >= seconds or None in jobs:
                break
        while len(setups) + len(jobs) < MIN_SETUP_SAMPLES and None not in jobs:
            setups.append(self.spawn("setup"))
        jobs = [j for j in jobs if j is not None]
        self.check_repeats(jobs)
        if not jobs:
            return {}
        out = {k: statistics.median(j[k] for j in jobs) for k in JOB_METRICS}
        samples = [s["setup_s"] for s in setups if s is not None] + [j["setup_s"] for j in jobs]
        out["setup_s"] = statistics.median(samples)
        self.samples = f"jobs={len(jobs)}, set-up samples={len(samples)}"
        self.h_fallback = jobs[0]["h_fallback"]
        return out

    def traced(self, seconds: float) -> dict:
        """Untraced and traced jobs in turn, so that host drift falls on both
        sides of ``trace.overhead_frac`` alike."""
        base, traced = [], []
        while True:
            base.append(self.spawn("job"))
            traced.append(self.spawn("job", trace=True))
            if self.elapsed() >= seconds or None in base + traced:
                break
        micro = self.spawn("micro")
        if None in base + traced or micro is None:
            return {}
        self.check_repeats(base + traced)
        self.samples = f"untraced jobs={len(base)}, traced jobs={len(traced)}"
        out = {k: statistics.median(t["layers"][k] for t in traced)
               for k in traced[0]["layers"]}
        out.update({k: statistics.median(b[k] for b in base) for k in PHASE_METRICS})
        out.update(micro["layers"])
        out["trace.overhead_frac"] = (statistics.median(t["job_cpu_s"] for t in traced)
                                      / statistics.median(b["job_cpu_s"] for b in base) - 1.0)
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tailshift" / "__init__.py").is_file():
        print(f"error: no tailshift source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]

    load = os.getloadavg()
    run = Run(args.workload, args.seed)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        values = run.traced(args.seconds) if args.trace else run.untraced(args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    missing = [m["name"] for m in listed if m["name"] not in values]
    for failure in run.failures:
        print(f"FAILED {failure}")
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    env = dict(run.environment, loadavg_at_start=" ".join(f"{v:.2f}" for v in load))
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(medians over {run.samples})")
    metrics = {}
    for m in listed:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<36} {value:>14.6g} {m['unit']}")
    if not args.trace:
        fallback = "n/a" if run.h_fallback is None else str(run.h_fallback).lower()
        print(f"  {'h_fallback':<36} {fallback:>14}")
    failed = len(run.failures)
    print(f"  {'ops_failed_frac':<36} {failed / max(run.attempted, 1):>14.6g} "
          f"({failed} of {run.attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
