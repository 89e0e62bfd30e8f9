"""Command-line interface.

Subcommands:

- ``gen-data``   write a synthetic benchmark (dataset.csv, embeddings.csv,
  manifest.json) from a config
- ``train``      run the training loop; writes steps.jsonl, history.json and
  a checkpoint
- ``eval``       score a checkpoint on a dataset under the open-class
  protocol; writes metrics.json
- ``gradcheck``  verify analytic gradients of every loss kernel against
  central finite differences
- ``ablate``     train + evaluate a set of ablation rows over several seeds
  and emit a CSV summary

Exit codes: 0 success, 1 check/criterion failure or runtime error, 2 usage
or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as CK
from . import data as D
from . import evaluation as E
from . import meta as MT
from .config import (
    EvalOptions,
    RunConfig,
    config_hash,
    load_run_config,
    run_config_to_dict,
)
from .errors import ConfigError, DataFormatError
from .gradcheck import format_table, gradient_check_suite

DATASET_FILE = "dataset.csv"
EMBEDDINGS_FILE = "embeddings.csv"
MANIFEST_FILE = "manifest.json"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_dataset_dir(path: str | Path) -> tuple[D.Dataset, str]:
    """Load dataset + embeddings from a gen-data directory; returns the
    dataset and its fingerprint (manifest config hash, else file hash)."""
    root = Path(path)
    ds_file = root / DATASET_FILE
    if not ds_file.exists():
        raise DataFormatError(f"no {DATASET_FILE} under {root}")
    manifest = None
    if (root / MANIFEST_FILE).exists():
        manifest = json.loads((root / MANIFEST_FILE).read_text(encoding="utf-8"))
    emb_file = root / EMBEDDINGS_FILE
    table = None
    if emb_file.exists():
        head = emb_file.read_text(encoding="utf-8").splitlines()
        if not head:
            raise DataFormatError("empty embeddings file")
        d_s = len(head[0].split(",")) - 1
        n_classes = len([ln for ln in head[1:] if ln])
        table = D.load_embeddings(emb_file, n_classes, d_s)
    dataset = D.load_dataset(ds_file, semantic=table)
    fingerprint = manifest["config_hash"] if manifest else _sha256(ds_file)
    return dataset, fingerprint


def _resolve_dataset(cfg: RunConfig, data_dir: str | None) -> tuple[D.Dataset, str]:
    if data_dir is not None:
        return _load_dataset_dir(data_dir)
    if cfg.data_path is not None:
        return _load_dataset_dir(cfg.data_path)
    if cfg.data is None:
        raise ConfigError("config has no data section and no --data given")
    dataset = D.generate(cfg.data)
    return dataset, config_hash(dataclasses.asdict(cfg.data))


def cmd_gen_data(args) -> int:
    cfg, _ = load_run_config(args.config)
    if cfg.data is None:
        raise ConfigError("gen-data needs a synthetic data section, not a path")
    data_cfg = cfg.data if args.seed is None else dataclasses.replace(cfg.data, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = D.generate(data_cfg)
    D.save_dataset(dataset, out / DATASET_FILE)
    D.save_embeddings(dataset.semantic, out / EMBEDDINGS_FILE)
    cfg_dict = dataclasses.asdict(data_cfg)
    if cfg_dict["tail_domain_budget"] is not None:
        cfg_dict["tail_domain_budget"] = list(cfg_dict["tail_domain_budget"])
    manifest = {
        "config": cfg_dict,
        "seed": data_cfg.seed,
        "config_hash": config_hash(cfg_dict),
        "files": {
            DATASET_FILE: _sha256(out / DATASET_FILE),
            EMBEDDINGS_FILE: _sha256(out / EMBEDDINGS_FILE),
        },
    }
    (out / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2, sort_keys=True),
                                     encoding="utf-8")
    print(f"wrote {out / DATASET_FILE} ({len(dataset.y)} samples), "
          f"{out / EMBEDDINGS_FILE}, {out / MANIFEST_FILE}")
    return 0


def _train_once(cfg: RunConfig, dataset: D.Dataset, fingerprint: str,
                out: Path | None, resume: str | None) -> MT.RunResult:
    cfg_dict = run_config_to_dict(cfg)
    model_cfg_dict, train_cfg_dict = cfg_dict["model"], cfg_dict["train"]
    state = None
    if resume is not None:
        state, payload = CK.load_checkpoint(resume)
        if payload["dataset_fingerprint"] != fingerprint:
            raise ConfigError("checkpoint was trained on different data "
                              "(fingerprint mismatch)")
        for key, ours in (("model_config", model_cfg_dict), ("train_config", train_cfg_dict)):
            if payload[key] != ours:
                raise ConfigError(f"checkpoint {key} differs from this run's; "
                                  "resuming would mix two configs")

    hooks = None
    if out is not None and cfg.io.checkpoint_every_epochs > 0:
        every = cfg.io.checkpoint_every_epochs * cfg.train.steps_per_epoch

        def hooks(st, report):
            if (report.step + 1) % every == 0:
                CK.save_checkpoint(out / f"checkpoint_{report.step + 1:06d}.json",
                                   st, model_cfg_dict, train_cfg_dict, fingerprint)

    result = MT.run(dataset, cfg.train, cfg.model, state=state, on_step=hooks)
    if out is not None:
        mode = "a" if resume is not None else "w"
        with open(out / "steps.jsonl", mode, encoding="utf-8") as fh:
            for report in result.reports:
                fh.write(report.to_json() + "\n")
        (out / "history.json").write_text(
            json.dumps(result.history, indent=2), encoding="utf-8")
        CK.save_checkpoint(out / "checkpoint.json", result.state,
                           model_cfg_dict, train_cfg_dict, fingerprint)
    return result


def cmd_train(args) -> int:
    cfg, _ = load_run_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg,
            train=dataclasses.replace(cfg.train, seed=args.seed),
            data=None if cfg.data is None else dataclasses.replace(cfg.data, seed=args.seed))
    if args.ablation is not None:
        cfg = dataclasses.replace(cfg, train=MT.apply_ablation(cfg.train, args.ablation))
    dataset, fingerprint = _resolve_dataset(cfg, args.data)
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    result = _train_once(cfg, dataset, fingerprint, out, args.resume)
    last = result.reports[-1] if result.reports else None
    if last is not None:
        print(f"finished step {last.step + 1}/{cfg.train.total_steps}  "
              f"L_mtr={last.losses['L_mtr']:.4f}  L_mte={last.losses['L_mte']:.4f}")
    if out is not None:
        print(f"checkpoint: {out / 'checkpoint.json'}")
    return 0


def _evaluate_checkpoint(ckpt_path: str, data_dir: str, threshold: float | None,
                         eval_opts: EvalOptions) -> E.MetricReport:
    state, payload = CK.load_checkpoint(ckpt_path)
    dataset, fingerprint = _load_dataset_dir(data_dir)
    if payload["dataset_fingerprint"] != fingerprint:
        raise ConfigError("checkpoint/dataset mismatch (fingerprint differs)")
    from .config import run_config_from_dict
    mcfg = run_config_from_dict({"model": payload["model_config"]}).model
    heldout = dataset.heldout_domains
    heldout_domain = heldout[0] if heldout else int(dataset.domains[-1])
    if threshold is None:
        threshold = eval_opts.threshold
    if threshold is None:
        threshold = E.select_threshold(state.params, mcfg, dataset, eval_opts.grid,
                                       heldout_domain=heldout_domain,
                                       confidence=eval_opts.confidence)
    return E.evaluate(state.params, mcfg, dataset, heldout_domain, threshold,
                      confidence=eval_opts.confidence)


def cmd_eval(args) -> int:
    eval_opts = EvalOptions()
    if args.config is not None:
        cfg, _ = load_run_config(args.config)
        eval_opts = cfg.eval
    report = _evaluate_checkpoint(args.checkpoint, args.data, args.threshold, eval_opts)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.json").write_text(text, encoding="utf-8")
        if args.dump_features:
            from .config import run_config_from_dict
            state, payload = CK.load_checkpoint(args.checkpoint)
            mcfg = run_config_from_dict({"model": payload["model_config"]}).model
            dataset, _ = _load_dataset_dir(args.data)
            n = E.dump_features(state.params, mcfg, dataset,
                                out / "features.csv", split="test")
            print(f"wrote {out / 'features.csv'} ({n} rows)", file=sys.stderr)
    return 0


def cmd_gradcheck(args) -> int:
    results = gradient_check_suite(n_points=args.points, eps=args.eps,
                                   tol=args.tol, seed=args.seed)
    print(format_table(results))
    if all(r.passed for r in results):
        return 0
    worst = max(results, key=lambda r: r.max_rel_err / r.tol)
    print(f"worst offender: {worst.name} ({worst.max_rel_err:.3e} >= {worst.tol:g})")
    return 1


def cmd_ablate(args) -> int:
    cfg, _ = load_run_config(args.config)
    rows = [r.strip() for r in args.rows.split(",") if r.strip()]
    for row in rows:
        if row not in MT.ABLATION_ROWS:
            raise ConfigError(f"unknown ablation row {row!r}")
    threshold = cfg.eval.threshold if cfg.eval.threshold is not None else 0.0

    lines = ["row,n_seeds,acc_u,acc,h"]
    summary = {}
    for row in rows:
        scores = []
        for i in range(args.seeds):
            seed = cfg.train.seed + i
            run_cfg = dataclasses.replace(
                cfg, train=dataclasses.replace(
                    MT.apply_ablation(cfg.train, row), seed=seed))
            dataset, fingerprint = _resolve_dataset(run_cfg, args.data)
            result = _train_once(run_cfg, dataset, fingerprint, None, None)
            heldout = dataset.heldout_domains
            heldout_domain = heldout[0] if heldout else int(dataset.domains[-1])
            rep = E.evaluate(result.params, run_cfg.model, dataset,
                             heldout_domain, threshold,
                             confidence=cfg.eval.confidence)
            scores.append((rep.acc_u, rep.acc, rep.h))
        mean = np.mean(np.asarray(scores), axis=0)
        summary[row] = mean
        lines.append(f"{row},{args.seeds},{mean[0]:.2f},{mean[1]:.2f},{mean[2]:.2f}")
        print(f"row {row}: Acc-U {mean[0]:.2f}  Acc {mean[1]:.2f}  H {mean[2]:.2f}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ablation.csv").write_text(csv_text, encoding="utf-8")
        print(f"wrote {out / 'ablation.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailshift",
        description="long-tailed classification under domain shift: data "
                    "generation, training, evaluation, verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic benchmark")
    p.add_argument("--config", required=True, help="config path or preset name")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="run the training loop")
    p.add_argument("--config", required=True)
    p.add_argument("--data", default=None, help="dataset directory (from gen-data)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ablation", default=None, choices=sorted(MT.ABLATION_ROWS))
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--dump-features", action="store_true",
                   help="also write test-split features.csv under --out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify loss gradients")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run ablation rows over seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--rows", required=True, help="comma-separated row ids (a..l)")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--data", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures -> exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
