"""The `tqr` command (also `python -m tqrgroups`).

A TQR_* environment knob outside its range makes the package refuse to
import; that is reported here as bad input, exit 2, like any other.
"""

import os
import sys


def main(argv: list[str] | None = None) -> int:
    # One BLAS thread unless the caller chose: on a busy machine a second one made
    # a (361 x 19)(19 x 361) product 53 times slower. numpy reads these on import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        from .cli import main as cli_main
    except ValueError as exc:  # raised by config on a bad knob
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
