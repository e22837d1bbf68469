"""Shared numeric tolerances and size caps.

The size caps are overridable via environment; a knob set to a value outside
its range raises ValueError on import, naming the variable. The tolerance is
fixed: a certificate whose tolerance a user can raise certifies nothing.
"""

import os


def _env_int(name, default):
    """A positive integer knob."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return value


# The one tolerance of all certified-rounding and orthogonality checks.
TOL = 1e-8

# Largest group we will enumerate at all (permutation closure, cosets, ...).
MAX_ORDER = _env_int("TQR_MAX_ORDER", 20000)

# Largest group for which a character table is computed from scratch.
CHARTABLE_CAP = _env_int("TQR_CHARTABLE_CAP", 2000)

# Eigenvalues of the recombined class matrix closer than this are a collision.
EIG_COLLISION = 1e-6

# Attempts at re-randomizing the class-matrix combination before giving up.
MAX_EIG_ATTEMPTS = 12
