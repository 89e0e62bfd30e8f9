"""One benchmark job, run in a fresh process by ``run.py``.

    python3 perfbench/job.py '<spec json>'

The spec names the workload, its seed and the mode. Modes:

- ``job``: run the workload, then the closing checks; with ``"trace": true``
  the layer wrappers of ``spans.py`` are installed first.
- ``setup``: stop at the first call into ``meta.run`` (a set-up sample).
- ``micro``: the kernel micro-benchmark of ``micro.py``.

The job writes one JSON result to ``spec["out"]``. Its times are process
CPU time (``time.process_time``, counted from process start): BLAS runs on
one thread, so this is the job's own work, and the time the host
deschedules it drops out. The end-to-end figures and the per-layer spans
are taken when the workload ends, before the closing checks, which verify
the outputs and count into the operation totals but are not timed.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tailshift  # noqa: E402
from tailshift import checkpoint as CK  # noqa: E402
from tailshift import cli  # noqa: E402
from tailshift import config as C  # noqa: E402
from tailshift import data as D  # noqa: E402
from tailshift import evaluation as E  # noqa: E402
from tailshift import meta as MT  # noqa: E402

ABLATE_ROWS = ("a", "b", "i", "j")
ABLATE_SEEDS = 2
REPORT_PCTS = ("acc_u", "acc", "h", "pooled_acc", "open_acc")


class SetupReached(BaseException):
    """Raised at the first call into meta.run in ``setup`` mode; derives from
    BaseException so that the CLI's ``except Exception`` lets it through."""


class Ops:
    """Operations attempted and the ones whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class RunProbe:
    """Wraps ``tailshift.meta.run`` in every job: notes the first call (end of
    set-up), times each step between ``on_step`` callbacks and checks that
    every step's losses are finite."""

    def __init__(self, ops: Ops, setup_only: bool):
        self.ops = ops
        self.setup_only = setup_only
        self.setup_at: float | None = None
        self.calls: list[dict] = []

    def install(self) -> None:
        original = MT.run

        def run(dataset, cfg, mcfg, state=None, on_step=None):
            now = time.process_time()
            if self.setup_at is None:
                self.setup_at = now
                if self.setup_only:
                    raise SetupReached
            stamps, aug = [now], []

            def hook(st, report):
                if on_step is not None:
                    on_step(st, report)
                stamps.append(time.process_time())
                aug.append(cfg.use_aug and report.epoch >= cfg.t_sigma)
                values = [*report.losses.values(), report.grad_norm_mtr,
                          report.grad_norm_mte]
                self.ops.check(all(math.isfinite(v) for v in values),
                               f"non-finite loss at step {report.step}")

            result = original(dataset, cfg, mcfg, state=state, on_step=hook)
            self.calls.append({"start": now, "end": time.process_time(),
                               "step_s": np.diff(stamps), "aug": np.array(aug, bool),
                               "use_aug": cfg.use_aug, "state": result.state,
                               "final_loss": result.reports[-1].losses["L_mtr"]
                               if result.reports else None})
            return result

        MT.run = run

    @property
    def steps(self) -> int:
        return sum(len(c["step_s"]) for c in self.calls)

    def step_metrics(self) -> dict:
        """Per-call percentiles of step latency, averaged over the calls: a
        pooled percentile over cells of very different step cost would fall
        on the gap between them."""
        calls = [c for c in self.calls if len(c["step_s"])]
        ms = [1e3 * c["step_s"] for c in calls]
        out = {
            "train_steps_per_s": self.steps / sum(c["end"] - c["start"] for c in calls),
            "step_ms_p50": float(np.mean([np.percentile(v, 50) for v in ms])),
            "step_ms_p90": float(np.mean([np.percentile(v, 90) for v in ms])),
        }
        phased = [(v, c["aug"]) for v, c in zip(ms, calls) if c["use_aug"]]
        pre = [np.median(v[~a]) for v, a in phased if (~a).any()]
        aug = [np.median(v[a]) for v, a in phased if a.any()]
        if pre and aug:
            out["meta.step_pre_aug.ms"] = float(np.mean(pre))
            out["meta.step_aug.ms"] = float(np.mean(aug))
            out["meta.aug_step_ratio"] = out["meta.step_aug.ms"] / out["meta.step_pre_aug.ms"]
        return out


def preset_raw(name: str, seed: int) -> dict:
    _, raw = C.load_run_config(name)
    raw = copy.deepcopy(raw)
    raw["seed"] = seed
    return raw


def write_config(raw: dict, path: Path) -> Path:
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def run_cli(ops: Ops, *argv) -> bool:
    args = [str(a) for a in argv]
    return ops.check(cli.main(args) == 0, f"tailshift {args[0]} exited non-zero")


def check_report(ops: Ops, rep: dict, what: str) -> None:
    values = [rep[k] for k in REPORT_PCTS if rep.get(k) is not None]
    ops.check(all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in values),
              f"{what}: metrics not finite or outside [0, 100]")


def states_equal(a: MT.TrainerState, b: MT.TrainerState) -> bool:
    def same(x, y):
        x, y = np.asarray(x), np.asarray(y)
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    return (list(a.params) == list(b.params)
            and all(same(a.params[k], b.params[k]) for k in a.params)
            and same(a.proto.v, b.proto.v) and same(a.proto.mask, b.proto.mask)
            and a.proto.ema == b.proto.ema
            and same(a.cov.mu, b.cov.mu) and same(a.cov.sigma, b.cov.sigma)
            and same(a.cov.n, b.cov.n)
            and a.rng_state == b.rng_state and a.step == b.step)


def file_round_trip(raw: dict, state: MT.TrainerState, work: Path, ops: Ops,
                    threshold: float | None = None) -> dict | None:
    """Keep a model trained in memory the way a CLI user keeps one, and
    score it from the files: ``gen-data`` of its config, a checkpoint of its
    final state, ``train --resume`` of the finished run and ``eval`` of the
    checkpoint. The checkpoint round trip must be bit-exact, and resuming
    the finished run must rewrite the same checkpoint. Returns the eval
    report, or None when a command failed."""
    work.mkdir(parents=True)
    cfg_path = write_config(raw, work / "config.json")
    cfg = C.run_config_from_dict(raw)
    data = work / "data"
    if not run_cli(ops, "gen-data", "--config", cfg_path, "--out", data):
        return None
    ckpt = work / "final.json"
    cfg_dict = C.run_config_to_dict(cfg)
    CK.save_checkpoint(ckpt, state, cfg_dict["model"], cfg_dict["train"],
                       C.config_hash(dataclasses.asdict(cfg.data)))
    loaded, _ = CK.load_checkpoint(ckpt)
    ops.check(states_equal(loaded, state), "checkpoint round trip is not bit-exact")
    if run_cli(ops, "train", "--config", cfg_path, "--data", data, "--resume", ckpt,
               "--out", work / "resumed"):
        ops.check((work / "resumed" / "checkpoint.json").read_bytes() == ckpt.read_bytes(),
                  "resuming a finished run changed its checkpoint")
    argv = ["eval", "--checkpoint", ckpt, "--data", data, "--config", cfg_path,
            "--out", work / "eval"]
    if threshold is not None:
        argv += ["--threshold", repr(threshold)]
    if not run_cli(ops, *argv):
        return None
    return json.loads((work / "eval" / "metrics.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# workloads: each returns its eval reports (as dicts) and its closing checks,
# which run after the timed part
# ---------------------------------------------------------------------------

def paper_s1_train(seed: int, work: Path, ops: Ops, probe: RunProbe):
    raw = preset_raw("paper_s1", seed)
    cfg = C.run_config_from_dict(raw)
    ds = D.generate(cfg.data)
    res = MT.run(ds, cfg.train, cfg.model)
    held = ds.heldout_domains[0]
    th = E.select_threshold(res.params, cfg.model, ds, cfg.eval.grid,
                            heldout_domain=held, confidence=cfg.eval.confidence)
    report = E.evaluate(res.params, cfg.model, ds, held, th,
                        confidence=cfg.eval.confidence).to_dict()
    on_file = file_round_trip(raw, res.state, work / "files", ops, threshold=th)

    def closing():
        if on_file is not None:
            ops.check(on_file == json.loads(json.dumps(report)),
                      "file-based eval differs from in-memory eval")

    return [report], closing


def desk_ablate(seed: int, work: Path, ops: Ops, probe: RunProbe):
    raw = preset_raw("desk", seed)
    run_cli(ops, "ablate", "--config", write_config(raw, work / "desk.json"),
            "--rows", ",".join(ABLATE_ROWS), "--seeds", ABLATE_SEEDS, "--out", work / "ablate")
    with open(work / "ablate" / "ablation.csv", encoding="utf-8") as fh:
        reports = [{k: float(row[k]) for k in ("acc_u", "acc", "h")}
                   for row in csv.DictReader(fh)]
    # `ablate` keeps the data seed and trains seeds seed, seed + 1, ...; the
    # last cell trained is the last row at the last seed.
    last = copy.deepcopy(raw)
    del last["seed"]
    last["data"]["seed"] = seed
    last["train"].update(MT.ABLATION_ROWS[ABLATE_ROWS[-1]], seed=seed + ABLATE_SEEDS - 1)
    on_file = file_round_trip(last, probe.calls[-1]["state"], work / "files", ops)

    def closing():
        ops.check(len(reports) == len(ABLATE_ROWS), "ablation.csv lacks rows")
        if on_file is not None:
            check_report(ops, on_file, "file-based eval")

    return reports, closing


def desk_files(seed: int, work: Path, ops: Ops, probe: RunProbe):
    raw = preset_raw("desk", seed)
    raw["io"]["checkpoint_every_epochs"] = 1
    cfg = C.run_config_from_dict(raw)
    cfg_path = write_config(raw, work / "desk_files.json")
    every = cfg.train.steps_per_epoch
    mid = cfg.train.total_steps // 2 // every * every
    run_cli(ops, "gen-data", "--config", cfg_path, "--out", work / "data")
    run_cli(ops, "train", "--config", cfg_path, "--data", work / "data",
            "--out", work / "full")
    run_cli(ops, "train", "--config", cfg_path, "--data", work / "data",
            "--resume", work / "full" / f"checkpoint_{mid:06d}.json",
            "--out", work / "resumed")
    run_cli(ops, "eval", "--checkpoint", work / "full" / "checkpoint.json",
            "--data", work / "data", "--config", cfg_path, "--out", work / "eval",
            "--dump-features")
    report = json.loads((work / "eval" / "metrics.json").read_text(encoding="utf-8"))
    return [report], lambda: check_desk_files(mid, work, ops)


WORKLOADS = {
    "paper_s1_train": paper_s1_train,
    "desk_ablate": desk_ablate,
    "desk_files": desk_files,
}


def check_desk_files(mid: int, work: Path, ops: Ops) -> None:
    full = (work / "full" / "steps.jsonl").read_bytes().splitlines(keepends=True)
    resumed = (work / "resumed" / "steps.jsonl").read_bytes()
    ops.check(b"".join(full[mid:]) == resumed and len(full) > mid,
              "resumed steps.jsonl differs from the uninterrupted run")
    final = work / "full" / "checkpoint.json"
    ops.check((work / "resumed" / "checkpoint.json").read_bytes() == final.read_bytes(),
              "resumed run ends on another checkpoint")
    state, payload = CK.load_checkpoint(final)
    again = work / "roundtrip.json"
    CK.save_checkpoint(again, state, payload["model_config"], payload["train_config"],
                       payload["dataset_fingerprint"])
    state2, _ = CK.load_checkpoint(again)
    ops.check(states_equal(state, state2) and again.read_bytes() == final.read_bytes(),
              "checkpoint round trip is not bit-exact")


# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# per-layer figures of a traced job
# ---------------------------------------------------------------------------

PER_STEP_MS = (
    "mathcore.backward", "mathcore.check_psd",
    "losses.dc", "losses.z2s", "losses.s2s", "losses.s2z", "losses.aug",
    "banks.update_prototypes", "banks.update_covariance", "banks.blend_covariance",
    "banks.complete_semantic",
    "model.forward_features", "model.encode", "model.decode", "model.apply_step",
    "meta.run", "meta.meta_train_losses", "meta.meta_test_losses", "meta.outer_step",
    "data.sample_batch",
)
PER_STEP_CALLS = ("mathcore.backward", "mathcore.check_psd", "losses.s2s", "losses.aug",
                  "banks.blend_covariance")
PER_JOB_S = ("data.generate", "data.save_dataset", "data.load_dataset", "data.load_embeddings")
PER_JOB_MS = ("evaluation.select_threshold", "evaluation.evaluate",
              "checkpoint.save", "checkpoint.load")
CLI_S = ("cli.gen_data", "cli.train", "cli.eval")


def layer_metrics(tracer, steps: int) -> dict:
    """Self time per step or per job. The ``cli`` commands are entry points
    that contain the other layers, so they report their whole duration."""
    agg = tracer.summary()
    calls = {k: v[0] for k, v in agg.items()}
    self_s = {k: v[1] for k, v in agg.items()}
    out = {}
    for name in PER_STEP_MS:
        out[f"{name}.ms"] = 1e3 * self_s.get(name, 0.0) / steps
    for name in PER_STEP_CALLS:
        out[f"{name}.calls"] = calls.get(name, 0) / steps
    out["mathcore.nodes_per_step"] = tracer.counters["mathcore.nodes"] / steps
    for name in PER_JOB_S:
        out[f"{name}.s"] = self_s.get(name, 0.0)
    for name in PER_JOB_MS:
        out[f"{name}.ms"] = 1e3 * self_s.get(name, 0.0)
    for name in CLI_S:
        out[f"{name}.s"] = agg[name][2] if name in agg else 0.0
    out["data.dataset_bytes"] = tracer.counters["data.dataset_bytes"]
    out["checkpoint.bytes"] = tracer.counters["checkpoint.bytes"]
    out["checkpoint.saves"] = calls.get("checkpoint.save", 0)
    return out


# ---------------------------------------------------------------------------

def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_job(spec: dict) -> dict:
    ops = Ops()
    probe = RunProbe(ops, setup_only=spec["mode"] == "setup")
    probe.install()
    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    work = Path(spec["workdir"])
    work.mkdir(parents=True, exist_ok=True)
    try:
        reports, closing_checks = WORKLOADS[spec["workload"]](spec["seed"], work, ops, probe)
    except SetupReached:
        return {"setup_s": probe.setup_at}
    t_end = time.process_time()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fallback = [r["h_fallback"] for r in reports if "h_fallback" in r]
    out = {
        "setup_s": probe.setup_at,
        "job_cpu_s": t_end,
        "peak_rss_mb": rss_mib,
        "acc_u_pct": float(np.mean([r["acc_u"] for r in reports])),
        "h_pct": float(np.mean([r["h"] for r in reports])),
        "h_fallback": any(fallback) if fallback else None,
        "outputs": [[r.get(k) for k in ("acc_u", "acc", "h", "threshold")] for r in reports]
        + [c["final_loss"] for c in probe.calls],
        "steps": probe.steps,
        **probe.step_metrics(),
    }
    if tracer is not None:
        # Only the workload's own spans: the closing checks below are not timed.
        out["layers"] = layer_metrics(tracer, probe.steps)
        tracer.dump(spec["spans_out"])

    for i, rep in enumerate(reports):
        check_report(ops, rep, f"evaluation {i}")
    closing_checks()
    out["attempted"] = ops.attempted
    out["failures"] = ops.failures
    out["environment"] = environment()
    return out


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    src = (ROOT / "src" / "tailshift").resolve()
    if Path(tailshift.__file__).resolve().parent != src:
        print(f"error: imported tailshift from {tailshift.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if spec["mode"] == "micro":
        from micro import run_micro

        result = run_micro(spec["seed"])
    else:
        result = run_job(spec)
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
