"""Command-line interface.

Subcommands:

- ``gen-data``   write a synthetic benchmark (dataset.csv, its binary copy
  dataset.npy, embeddings.csv, manifest.json) from a config
- ``train``      run the training loop; writes steps.jsonl (one line as each
  step ends) and checkpoints
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
import itertools
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
    _take,
    config_hash,
    load_run_config,
    run_config_to_dict,
)
from .errors import ConfigError, DataFormatError, check_count
from .mathcore.autodiff import FD_EPS_MAX
from .model import ModelConfig

DATASET_FILE = "dataset.csv"
DATASET_COPY_FILE = "dataset.npy"
EMBEDDINGS_FILE = "embeddings.csv"
MANIFEST_FILE = "manifest.json"


def _sha256(path: Path) -> str:
    """Hash a file in 64 KiB chunks, never holding the whole file."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_dataset_dir(path: str | Path) -> tuple[D.Dataset, str]:
    """Load dataset + embeddings from a gen-data directory; returns the
    dataset and its fingerprint: the manifest's config hash, unless there is
    no manifest or ``dataset.csv`` differs from the sha256 it lists, in
    which case the CSV's own sha256. The binary copy ``dataset.npy`` is read
    only when the manifest lists the sha256s of both files and both match;
    otherwise the CSV is parsed. A dataset with no held-out domain is
    refused: ``generate`` always makes one, so only a directory can lack it."""
    root = Path(path)
    ds_file = root / DATASET_FILE
    if not ds_file.exists():
        raise DataFormatError(f"no {DATASET_FILE} under {root}")
    csv_hash = _sha256(ds_file)
    fingerprint, files = csv_hash, {}
    man_file = root / MANIFEST_FILE
    if man_file.exists():
        try:
            manifest = json.loads(man_file.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise DataFormatError(f"{man_file}: not a JSON document ({exc})") from exc
        if not isinstance(manifest, dict) or not isinstance(manifest.get("config_hash"), str):
            raise DataFormatError(f"{man_file}: no config_hash string")
        files = manifest.get("files", {})
        if not isinstance(files, dict) or not all(isinstance(v, str) for v in files.values()):
            raise DataFormatError(f"{man_file}: files must map file names to sha256 strings")
        if files.get(DATASET_FILE, csv_hash) == csv_hash:
            fingerprint = manifest["config_hash"]
    emb_file = root / EMBEDDINGS_FILE
    table = D.load_embeddings(emb_file) if emb_file.exists() else None
    npy_file = root / DATASET_COPY_FILE
    if files.get(DATASET_FILE) == csv_hash and npy_file.exists() \
            and files.get(DATASET_COPY_FILE) == _sha256(npy_file):
        dataset = D.load_dataset_npy(npy_file, semantic=table)
    else:
        dataset = D.load_dataset(ds_file, semantic=table)
    if not dataset.heldout_domains:
        raise DataFormatError("dataset has no held-out domain: every domain of its "
                              "test split has training data, so none can be scored as unseen")
    return dataset, fingerprint


def cmd_gen_data(args) -> int:
    cfg, _ = load_run_config(args.config)
    data_cfg = cfg.data if args.seed is None else dataclasses.replace(cfg.data, seed=args.seed)
    dataset = D.generate(data_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)   # after generate: a refused config leaves nothing
    D.save_dataset(dataset, out / DATASET_FILE)
    D.save_dataset_npy(dataset, out / DATASET_COPY_FILE)
    D.save_embeddings(dataset.semantic, out / EMBEDDINGS_FILE)
    cfg_dict = dataclasses.asdict(data_cfg)
    manifest = {
        "config": cfg_dict,
        "seed": data_cfg.seed,
        "config_hash": config_hash(cfg_dict),
        "files": {
            DATASET_FILE: _sha256(out / DATASET_FILE),
            DATASET_COPY_FILE: _sha256(out / DATASET_COPY_FILE),
            EMBEDDINGS_FILE: _sha256(out / EMBEDDINGS_FILE),
        },
    }
    (out / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2, sort_keys=True),
                                     encoding="utf-8")
    print(f"wrote {out / DATASET_FILE} ({len(dataset.y)} samples), "
          f"{out / DATASET_COPY_FILE}, {out / EMBEDDINGS_FILE}, {out / MANIFEST_FILE}")
    return 0


def _train_once(cfg: RunConfig, dataset: D.Dataset, fingerprint: str,
                out: Path | None, resumed: tuple[MT.TrainerState, dict] | None
                ) -> MT.RunResult:
    """Train ``cfg`` on ``dataset``, from ``resumed`` (what ``load_checkpoint``
    returned) when given, refusing a checkpoint of other data or configs."""
    cfg_dict = run_config_to_dict(cfg)
    model_cfg_dict, train_cfg_dict = cfg_dict["model"], cfg_dict["train"]
    state = None
    if resumed is not None:
        state, payload = resumed
        if payload["dataset_fingerprint"] != fingerprint:
            raise ConfigError("checkpoint was trained on different data "
                              "(fingerprint mismatch)")
        # by canonical JSON, where 1 is not true and 32.0 is not 32
        for key, ours in (("model_config", model_cfg_dict), ("train_config", train_cfg_dict)):
            if config_hash(payload[key]) != config_hash(ours):
                raise ConfigError(f"checkpoint {key} differs from this run's; "
                                  "resuming would mix two configs")
        # a finished run's checkpoint resumes to no step; a later one was
        # never written by this run
        if state.step > cfg.train.total_steps:
            raise ConfigError(f"checkpoint step {state.step} lies past this run's "
                              f"{cfg.train.total_steps} steps")

    if out is None:
        return MT.run(dataset, cfg.train, cfg.model, state=state)
    every = cfg.io.checkpoint_every_epochs * cfg.train.steps_per_epoch
    # a resumed run keeps the steps before its checkpoint and rewrites the
    # rest, so resuming into the interrupted run's directory leaves no step
    # twice
    steps = out / "steps.jsonl"
    kept = []
    if state is not None and state.step and steps.exists():
        with open(steps, encoding="utf-8") as fh:
            kept = list(itertools.islice(fh, state.step))
    with open(steps, "w", encoding="utf-8") as fh:
        fh.writelines(kept)

        # each step's line is written as it ends, so a run that fails keeps
        # the lines of the steps it finished; the run's last step is saved
        # below as checkpoint.json
        def hook(st, report):
            fh.write(report.to_json() + "\n")
            if every > 0 and (report.step + 1) % every == 0 \
                    and report.step + 1 < cfg.train.total_steps:
                fh.flush()  # the trace on disk covers every checkpoint
                CK.save_checkpoint(out / f"checkpoint_{report.step + 1:06d}.json",
                                   st, model_cfg_dict, train_cfg_dict, fingerprint)

        result = MT.run(dataset, cfg.train, cfg.model, state=state, on_step=hook)
    CK.save_checkpoint(out / "checkpoint.json", result.state,
                       model_cfg_dict, train_cfg_dict, fingerprint)
    return result


def cmd_train(args) -> int:
    cfg, _ = load_run_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg,
            train=dataclasses.replace(cfg.train, seed=args.seed),
            data=dataclasses.replace(cfg.data, seed=args.seed))
    if args.ablation is not None:
        cfg = dataclasses.replace(cfg, train=MT.apply_ablation(cfg.train, args.ablation))
    # loaded first, so the load's transient text is freed before the
    # dataset's arrays are made
    resumed = None if args.resume is None else CK.load_checkpoint(args.resume)
    dataset, fingerprint = (
        _load_dataset_dir(args.data) if args.data is not None
        else (D.generate(cfg.data), config_hash(dataclasses.asdict(cfg.data))))
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    result = _train_once(cfg, dataset, fingerprint, out, resumed)
    last = result.reports[-1] if result.reports else None
    if last is not None:
        print(f"finished step {last.step + 1}/{cfg.train.total_steps}  "
              f"L_mtr={last.losses['L_mtr']:.4f}  L_mte={last.losses['L_mte']:.4f}")
    if out is not None:
        print(f"checkpoint: {out / 'checkpoint.json'}")
    return 0


def score(params, mcfg, dataset: D.Dataset, eval_opts: EvalOptions) -> E.MetricReport:
    """Score a model on the dataset's first held-out domain (the first domain
    with no training data, which ``_load_dataset_dir`` requires of a dataset
    directory and ``generate`` always makes) at the options' threshold
    (``eval --threshold``, else the config's), else at the grid point that
    maximizes H on the validation split."""
    threshold = eval_opts.threshold
    if threshold is None:
        threshold = E.select_threshold(params, mcfg, dataset, eval_opts.grid)
    return E.evaluate(params, mcfg, dataset, dataset.heldout_domains[0], threshold)


def ablation_scores(cfg: RunConfig, rows, n_seeds: int,
                    dataset: D.Dataset | None = None) -> dict[str, np.ndarray]:
    """Train and ``score`` each ablation row at ``n_seeds`` seeds; returns
    each row's (n_seeds, 3) array of Acc-U, Acc and H. Cell i trains at
    train seed ``cfg.train.seed + i`` on data generated at
    ``cfg.data.seed + i``, or on ``dataset`` when one is given. Rows run in
    the outer loop, so the last cell trained is the last row's last seed."""
    row_cfgs = {row: MT.apply_ablation(cfg.train, row) for row in rows}
    datasets = [dataset] * n_seeds if dataset is not None else [
        D.generate(dataclasses.replace(cfg.data, seed=cfg.data.seed + i))
        for i in range(n_seeds)]
    scores = {}
    for row, train_cfg in row_cfgs.items():
        cells = []
        for i, ds in enumerate(datasets):
            result = MT.run(ds, dataclasses.replace(train_cfg, seed=train_cfg.seed + i),
                            cfg.model)
            rep = score(result.params, cfg.model, ds, cfg.eval)
            cells.append((rep.acc_u, rep.acc, rep.h))
        scores[row] = np.asarray(cells)
    return scores


def cmd_eval(args) -> int:
    if args.dump_features and not args.out:
        raise ConfigError("--dump-features writes under --out, which is not given")
    eval_opts = EvalOptions() if args.config is None else load_run_config(args.config)[0].eval
    if args.threshold is not None:
        eval_opts = dataclasses.replace(eval_opts, threshold=args.threshold)
    state, payload = CK.load_checkpoint(args.checkpoint)
    dataset, fingerprint = _load_dataset_dir(args.data)
    if payload["dataset_fingerprint"] != fingerprint:
        raise ConfigError("checkpoint/dataset mismatch (fingerprint differs)")
    mcfg = _take(payload["model_config"], ModelConfig, "model_config")
    report = score(state.params, mcfg, dataset, eval_opts)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.json").write_text(text, encoding="utf-8")
        if args.dump_features:
            n = E.dump_features(state.params, mcfg, dataset,
                                out / "features.csv", split="test")
            print(f"wrote {out / 'features.csv'} ({n} rows)", file=sys.stderr)
    return 0


def cmd_gradcheck(args) -> int:
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    if not 0.0 < args.eps <= FD_EPS_MAX:
        raise ConfigError(f"--eps must lie in (0, {FD_EPS_MAX:g}]")
    if not 0.0 < args.tol < np.inf:
        raise ConfigError("--tol must be finite and > 0")
    check_count("--seed", args.seed)
    # imported here, so the other commands do not load it
    from .gradcheck import format_table, gradient_check_suite

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
    if not rows:
        raise ConfigError("--rows names no ablation row")
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    # a dataset directory is one fixed dataset, so every cell trains on it
    dataset = None if args.data is None else _load_dataset_dir(args.data)[0]

    lines = ["row,n_seeds,acc_u,acc,h"]
    for row, cells in ablation_scores(cfg, rows, args.seeds, dataset).items():
        mean = cells.mean(axis=0)
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
