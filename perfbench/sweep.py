"""Run the benchmark over ten seeds per workload, twice, and summarise each
end-to-end metric.

    python3 perfbench/sweep.py [--out FILE]

For each workload of ``BENCHMARK.json``, seeds 1 to 10 are run as two sets,
A and B, interleaved (A1 B1 A2 B2 ...), so that host drift falls on both
sets alike. For each set it reports the median, quartiles and spread of
every end-to-end metric; the spread is the distance between the first and
third quartile (``statistics.quantiles(n=4)``) as a share of the median,
the figure that must stay within the metric's bound, as must the shift of
set B's median from set A's. One traced run per workload gives the
per-layer medians. With ``--out`` the summary and the environment are
written as JSON, in the form of ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = ("A", "B")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env_line = next((ln for ln in lines if ln.startswith("environment: ")), "")
    return json.loads(lines[-1]), env_line.removeprefix("environment: ")


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    summary: dict = {"label": f"commit {commit()} with its working tree",
                     "run_seconds": seconds, "seeds": [SEEDS.start, SEEDS.stop - 1],
                     "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs: dict = {s: [] for s in SETS}
        for seed in SEEDS:
            for label in SETS:
                result, env = run_once(workload, seed, seconds, 0)
                runs[label].append(result)
                print(f"{workload} seed {seed} set {label}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
        entry: dict = {"correct": all(r["correct"] for rs in runs.values() for r in rs),
                       "attempted": sum(r["attempted"] for rs in runs.values() for r in rs),
                       "failed": sum(r["failed"] for rs in runs.values() for r in rs),
                       "end_to_end": {}}
        for name, m in metrics.items():
            sets = {s: summarise([r["metrics"][name]["value"] for r in runs[s]]) for s in SETS}
            a, b = sets["A"]["median"], sets["B"]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            entry["end_to_end"][name] = {"unit": m["unit"], "bound": m["bound"],
                                         "shift_b_worse": worse, **sets}
            print(f"  {name:<18} median A {a:11.5g} B {b:11.5g} {m['unit']:<4} "
                  f"spread A {sets['A']['spread']:6.3f} B {sets['B']['spread']:6.3f}  "
                  f"B worse by {worse:+6.3f}  bound {m['bound']}", flush=True)
        traced, env = run_once(workload, SEEDS.start, seconds, 1)
        entry["per_layer"] = {name: v["value"] for name, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
        summary["environment"] = env
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
