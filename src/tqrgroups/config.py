"""Shared numeric tolerances and size caps, overridable via environment.

A knob set to a value outside its range raises ValueError on import, naming
the variable.
"""

import math
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


def _env_tol(name, default):
    """A tolerance knob: finite and strictly between 0 and 0.5, so that every
    `residual > tol` test can fail and rounding to the nearest integer stays
    unambiguous."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0 < value < 0.5:
        raise ValueError(f"{name} must be a number with 0 < {name} < 0.5, got {raw!r}")
    return value


# One tolerance knob for all certified-rounding and orthogonality checks.
TOL = _env_tol("TQR_TOL", 1e-8)

# Largest group we will enumerate at all (permutation closure, cosets, ...).
MAX_ORDER = _env_int("TQR_MAX_ORDER", 20000)

# Largest group for which a character table is computed from scratch.
CHARTABLE_CAP = _env_int("TQR_CHARTABLE_CAP", 2000)

# Eigenvalues of the recombined class matrix closer than this are a collision.
EIG_COLLISION = 1e-6

# Attempts at re-randomizing the class-matrix combination before giving up.
MAX_EIG_ATTEMPTS = 12
