#!/usr/bin/env python3
"""Desk-scale benchmark of spectral_kcenter.

    python3 bench/run.py --workload compare|select-cap|path-oracle \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree: the package is imported from ``src/``
there and nowhere else. One run:

1. pins BLAS to one thread and measures set-up: fresh interpreters that
   import the package and finish one ``select_best`` (one discarded, then
   ``SETUP_REPEATS`` timed);
2. repeats passes over the inputs made from ``--seed`` for about
   ``--seconds`` (at least ``MIN_PASSES``);
3. checks the outputs: against ``reference.json`` where it applies (all of
   them at the default seed, the seed-independent ones at any seed), every
   pass against the first, and every selection and table on its own
   (``check.py``), and that every pass repeats the same counts;
4. prints a few lines for people, then one JSON line with the end-to-end
   metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

The work is done by ``harness.py``; this launcher only checks that the tree
has the package source, pins BLAS to one thread and puts ``src/`` first on
the path, all before NumPy is imported.

Every pass runs with the speed probe of ``probe.py`` armed; reported times
exclude the probe's own time and are scaled to its reference speed (set-up,
which runs in child processes, by probe samples just before and after each
spawn). The result file keeps the unscaled times too. Timings are medians
over passes. With ``--trace 1`` the passes alternate traced and untraced,
starting traced; per-layer numbers come from the traced passes and
``trace.overhead_pct`` compares the two kinds. Result files, the outputs of
one pass and all spans go to ``bench/out/``.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if not (SRC / "spectral_kcenter" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'spectral_kcenter'}; run from "
              "a source tree of spectral-kcenter", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before NumPy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    from harness import main as run
    return run()


if __name__ == "__main__":
    sys.exit(main())
