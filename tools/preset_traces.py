"""Hash what the CLI pipeline writes for each preset.

    python3 tools/preset_traces.py [--expect FILE] [PRESET ...]

For each preset (default: every packaged preset), runs ``gen-data`` ->
``train`` -> ``eval``, then ``ablate --rows a,j --seeds 2``, in a temporary
directory, with ``tailshift`` imported from this checkout's ``src/`` and
BLAS on one thread (unless the environment sets the thread counts), and
prints one ``<sha256>  <preset>/<file>`` line per output file:
``dataset.csv``, ``dataset.npy``, ``embeddings.csv``, ``manifest.json``,
``steps.jsonl``, ``checkpoint.json``, ``metrics.json`` and ``ablation.csv``.
After ``steps.jsonl`` comes ``<preset>/steps.jsonl[:t_sigma]``, the hash of
its lines for the steps before the augmentation phase (epochs below the
preset's ``t_sigma``). A change that keeps the numbers leaves the lines of
the CSV files, ``steps.jsonl`` and ``metrics.json`` unchanged, and a change
to the augmentation phase alone leaves ``steps.jsonl[:t_sigma]`` unchanged.
``manifest.json`` also stores the data config, and ``checkpoint.json`` the
run config and the data config's hash, so their lines move with the config
schema. Exits 1 if a command fails.

With ``--expect FILE``, a saved output of this tool, each printed line is
also compared with the line of the same ``<preset>/<file>`` name in FILE
(lines of presets not run are ignored); every line that differs, or that
one side lacks, is reported on stderr, and any difference exits 1. So
``python3 tools/preset_traces.py > before.txt`` on one tree and
``python3 tools/preset_traces.py --expect before.txt`` on another checks
that a change keeps every output byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each hashed file, under the --out directory of the command that writes it
OUTPUTS = (("bench", "dataset.csv"), ("bench", "dataset.npy"), ("bench", "embeddings.csv"),
           ("bench", "manifest.json"), ("run", "steps.jsonl"), ("run", "checkpoint.json"),
           ("eval", "metrics.json"), ("ablate", "ablation.csv"))


def preset_traces(preset: str, main, pre_aug_steps: int) -> list[str]:
    """The output lines for one preset; ``main`` is ``tailshift.cli.main``,
    and the first `pre_aug_steps` lines of ``steps.jsonl`` are hashed on
    their own as well."""
    with tempfile.TemporaryDirectory() as tmp:
        bench, run, ev, ab = (str(Path(tmp) / name)
                              for name in ("bench", "run", "eval", "ablate"))
        for argv in (["gen-data", "--config", preset, "--out", bench],
                     ["train", "--config", preset, "--data", bench, "--out", run],
                     ["eval", "--config", preset, "--data", bench,
                      "--checkpoint", str(Path(run) / "checkpoint.json"), "--out", ev],
                     ["ablate", "--config", preset, "--rows", "a,j", "--seeds", "2",
                      "--out", ab]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"{preset}: tailshift {argv[0]} exited {code}")
        lines = []
        for d, f in OUTPUTS:
            data = (Path(tmp) / d / f).read_bytes()
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {preset}/{f}")
            if f == "steps.jsonl":
                head = b"".join(data.splitlines(keepends=True)[:pre_aug_steps])
                lines.append(f"{hashlib.sha256(head).hexdigest()}  {preset}/{f}[:t_sigma]")
        return lines


def mismatches(lines: list[str], expected: list[str], presets) -> list[str]:
    """A report line for each ``<hash>  <preset>/<file>`` line of `lines`
    that differs from, or is missing in, the `expected` lines of `presets`,
    and for each such expected line that `lines` lacks."""
    got = {name: h for h, name in (line.split("  ", 1) for line in lines)}
    want = {name: h for h, name in (line.split("  ", 1) for line in expected if line.strip())
            if name.split("/", 1)[0] in presets}
    out = []
    for name in [*got, *(n for n in want if n not in got)]:
        if got.get(name) != want.get(name):
            out.append(f"differs: {name}: expected {want.get(name, '(none)')}, "
                       f"got {got.get(name, '(none)')}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="Hash the CLI outputs of each preset.")
    parser.add_argument("presets", nargs="*", metavar="PRESET")
    parser.add_argument("--expect", metavar="FILE",
                        help="a saved output to compare the printed lines with")
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    from tailshift.cli import main as cli_main
    from tailshift.config import PRESETS, load_run_config

    presets = args.presets or list(PRESETS)
    printed = []
    for preset in presets:
        train = load_run_config(preset)[0].train
        lines = preset_traces(preset, cli_main, train.t_sigma * train.steps_per_epoch)
        print("\n".join(lines), flush=True)
        printed += lines
    if args.expect is None:
        return 0
    report = mismatches(printed, Path(args.expect).read_text().splitlines(), presets)
    for line in report:
        print(line, file=sys.stderr)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
