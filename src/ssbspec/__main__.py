"""The command line: ``python -m ssbspec`` and the installed ``ssbspec``.

Every matrix the commands factor is n <= 4 or a batched stack of such, so
a BLAS thread pool gives them nothing, while OpenBLAS's idle worker spins
on a second core for about 0.1 s of CPU per process.  ``run`` therefore
asks for one BLAS thread before numpy loads, unless the caller has chosen
a count.  Importing this module, or ``ssbspec``, changes nothing.
"""
import os
import sys

__all__ = ["run"]

# the variables OpenBLAS reads for its thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run(argv=None) -> int:
    if not any(os.environ.get(var) for var in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main

    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
