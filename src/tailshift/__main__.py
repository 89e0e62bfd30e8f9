"""The ``tailshift`` command and ``python -m tailshift``: ``cli.main`` with
OpenBLAS on one thread, unless ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set. OpenBLAS reads the variable once, when numpy
loads it, so it is set here, before ``cli`` imports numpy. The products are
too small to split, and idle workers spin: ``train --config desk`` spent
0.39 s of CPU at 0.26 s wall without the setting, 0.26 s with it.
"""

import os
import sys


def main(argv=None) -> int:
    if not (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from . import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
