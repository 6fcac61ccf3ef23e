"""The command line: ``python -m ssbspec`` and the installed ``ssbspec``.

Every matrix the commands factor is n <= 4 or a batched stack of such, so
a BLAS thread pool gives them nothing, while OpenBLAS's idle worker spins
on a second core for about 0.1 s of CPU per process.  ``run`` therefore
asks for one BLAS thread before numpy loads, unless the caller has chosen
a count.

A command is one short process whose cyclic garbage is a few hundred
argparse objects, the same at any input size, yet CPython's cyclic
collector made about 35 passes while numpy and the package imported (about
7 ms) and traversed the roughly 23k tracked objects again at shutdown
(about 25-30 ms).  ``run`` therefore keeps the collector off from before
numpy loads until the command returns, then ``gc.freeze()``s the heap so
the shutdown collections skip it, and restores the caller's collector
state.  That cut the median ``cmd_cpu_s`` of the benchmark's ``cli-mix``
from 0.247 to 0.213 s on 2 vCPUs, and peak RSS rose by about 0.2 MB.
Importing this module, or ``ssbspec``, changes nothing, and library
callers of ``ssbspec.cli.main`` keep their own collector.
"""
import gc
import os
import sys

__all__ = ["run"]

# the variables OpenBLAS reads for its thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run(argv=None) -> int:
    if not any(os.environ.get(var) for var in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    collecting = gc.isenabled()
    gc.disable()
    try:
        from .cli import main

        return main(argv)
    finally:
        gc.freeze()
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(run())
