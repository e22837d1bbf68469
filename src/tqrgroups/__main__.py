"""The `tqr` command (also `python -m tqrgroups`).

A TQR_* environment knob outside its range makes the package refuse to
import; that is reported here as bad input, exit 2, like any other.
"""

import sys


def main(argv: list[str] | None = None) -> int:
    try:
        from .cli import main as cli_main
    except ValueError as exc:  # raised by config on a bad knob
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
