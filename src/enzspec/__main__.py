"""Console entry (`enzspec`, `python -m enzspec`): runs the command-line front
end with BLAS on one thread unless the caller set the thread count.

The eigensolver makes many small BLAS calls, and OpenBLAS's default thread
pool makes complex delta sweeps 3-5x slower.  The variables are read when
numpy loads, so they are set before `enzspec.cli` is imported; importing
this module does nothing, and the library modules leave them alone.
"""

import os
import sys

__all__ = ["main"]

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for name in _BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
