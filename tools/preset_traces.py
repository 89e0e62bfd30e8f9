"""Hash what the CLI pipeline writes for each preset.

    python3 tools/preset_traces.py [--expect FILE] [PRESET ...]

For each preset (default: every packaged preset), runs ``gen-data`` ->
``train`` -> ``eval``, then ``ablate --rows a,j --seeds 2``, in a temporary
directory, with ``tailshift`` imported from this checkout's ``src/`` and
BLAS on one thread (unless the environment sets the thread counts). Its
first line names the setting that the bytes depend on, ``setting: blas
<core>; simd <targets>``: the BLAS core that numpy's bundled OpenBLAS
selected for this CPU (``unknown`` where the library does not export
``scipy_openblas_get_corename64_``) and numpy's SIMD dispatch targets that
this CPU enables. Then it prints one ``<sha256>  <preset>/<file>`` line per
output file: ``dataset.csv``, ``dataset.npy``, ``embeddings.csv``,
``manifest.json``, ``steps.jsonl``, ``checkpoint.json``, ``metrics.json``,
``features.csv`` (of ``eval --dump-features``) and ``ablation.csv``.
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
that a change keeps every output byte-identical. Another BLAS core or SIMD
level changes the bytes of the data and training outputs, so a FILE whose
setting line differs from this run's is refused with both settings named
on stderr (exit 2) before any preset runs; a FILE without a setting line
is compared line by line.
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
           ("eval", "metrics.json"), ("eval", "features.csv"), ("ablate", "ablation.csv"))
SETTING = "setting: "


def setting() -> str:
    """The setting line of this process: numpy's BLAS core and its enabled
    SIMD dispatch targets. It imports numpy, whose OpenBLAS reads the
    environment once, as it loads, so call it once the environment is set."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        # dlsym through the extension module's handle searches the libraries
        # it links, among them the OpenBLAS that numpy's wheel bundles
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        core = "unknown"
    else:
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        core = corename().decode()
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"{SETTING}blas {core}; simd {','.join(simd) or 'none'}"


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
                      "--checkpoint", str(Path(run) / "checkpoint.json"), "--out", ev,
                      "--dump-features"],
                     ["ablate", "--config", preset, "--rows", "a,j", "--seeds", "2",
                      "--out", ab]):
            # the commands' reports are not outputs; an error is shown on failure
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"{err.getvalue()}{preset}: tailshift {argv[0]} exited {code}")
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
    want = {name: h for h, name in (line.split("  ", 1) for line in expected
                                    if line.strip() and not line.startswith(SETTING))
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

    ours = setting()
    print(ours, flush=True)
    expected = None if args.expect is None else Path(args.expect).read_text().splitlines()
    saved = next((line for line in expected or () if line.startswith(SETTING)), ours)
    if saved != ours:
        print(f"setting differs: {args.expect} has '{saved[len(SETTING):]}', "
              f"this run has '{ours[len(SETTING):]}'", file=sys.stderr)
        return 2
    presets = args.presets or list(PRESETS)
    printed = []
    for preset in presets:
        train = load_run_config(preset)[0].train
        lines = preset_traces(preset, cli_main, train.t_sigma * train.steps_per_epoch)
        print("\n".join(lines), flush=True)
        printed += lines
    if expected is None:
        return 0
    report = mismatches(printed, expected, presets)
    for line in report:
        print(line, file=sys.stderr)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
