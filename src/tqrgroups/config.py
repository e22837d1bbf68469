"""Shared numeric tolerances and size caps.

Each is a constant: nothing here reads the environment. The tolerance is
fixed because a certificate whose tolerance a user can raise certifies
nothing; the caps because each is derived from the work it bounds.
"""

# The one tolerance of all certified-rounding and orthogonality checks.
TOL = 1e-8

# Largest group we will enumerate at all (permutation closure, cosets, ...).
MAX_ORDER = 20000

# Most cells r * |G| a character table is computed over: the products the
# class matrix gathers, and an abelian table's values (r = |G| there).
# 2000 * 2000 admits every group of order at most 2000.
TABLE_CELLS = 2000 * 2000

# Eigenvalues of the recombined class matrix closer than this are a collision.
EIG_COLLISION = 1e-6

# Attempts at re-randomizing the class-matrix combination before giving up.
MAX_EIG_ATTEMPTS = 12
