"""The `tqr` command (also `python -m tqrgroups`)."""

import os
import sys


def main(argv: list[str] | None = None) -> int:
    # One BLAS thread unless the caller chose: on a busy machine a second one made
    # a (361 x 19)(19 x 361) product 53 times slower. numpy reads these on import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
