import functools

import numpy as np
import pytest
from hypothesis import settings, HealthCheck

from tqrgroups import build_group, compute_char_table, conjugacy_classes, groups

settings.register_profile(
    "ci", max_examples=40, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("ci")


def _cyclic(n):
    return {"family": "cyclic", "params": {"n": n}}


def _product(a, b):
    return {"family": "product", "params": {"left": a, "right": b}}


# The working fixture set used across module tests; the acceptance suite adds
# the full cyclic/dihedral sweeps on top of these.
FIXTURE_SPECS = {
    "S3": {"family": "symmetric", "params": {"n": 3}},
    "S4": {"family": "symmetric", "params": {"n": 4}},
    "S5": {"family": "symmetric", "params": {"n": 5}},
    "A4": {"family": "alternating", "params": {"n": 4}},
    "A5": {"family": "alternating", "params": {"n": 5}},
    "Q8": {"family": "quaternion8", "params": {}},
    "D4": {"family": "dihedral", "params": {"n": 4}},
    "D5": {"family": "dihedral", "params": {"n": 5}},
    "D8": {"family": "dihedral", "params": {"n": 8}},
    "C6": _cyclic(6),
    "C12": _cyclic(12),
    "C64": _cyclic(64),
    "ES3": {"family": "extraspecial", "params": {"p": 3}},
    "ES5": {"family": "extraspecial", "params": {"p": 5}},
    "aff5": {"family": "affine", "params": {"p": 5}},
    "aff7": {"family": "affine", "params": {"p": 7}},
    "aff11": {"family": "affine", "params": {"p": 11}},
    "aff13": {"family": "affine", "params": {"p": 13}},
    "C2xS4": _product(_cyclic(2), {"family": "symmetric", "params": {"n": 4}}),
    "C2xS3": _product(_cyclic(2), {"family": "symmetric", "params": {"n": 3}}),
    "C3xD4": _product(_cyclic(3), {"family": "dihedral", "params": {"n": 4}}),
}


@functools.lru_cache(maxsize=None)
def get_group(name):
    return build_group(FIXTURE_SPECS[name])


@functools.lru_cache(maxsize=None)
def get_classes(name):
    return conjugacy_classes(get_group(name))


@functools.lru_cache(maxsize=None)
def get_table(name):
    return compute_char_table(get_group(name), get_classes(name))


@functools.lru_cache(maxsize=None)
def get_table_for_spec(spec_key):
    """spec_key: a JSON-serialized group spec (hashable)."""
    import json
    G = build_group(json.loads(spec_key))
    C = conjugacy_classes(G)
    return G, C, compute_char_table(G, C)


def element_order(G, x):
    """The order of element x of G, by groups.element_orders."""
    return int(groups.element_orders(lambda a, b: G.mul[a, b], G.identity, [x])[0])


def mask_row(mask, r):
    """An oracle's int bitmask as the library's (r,) boolean support row."""
    return np.array([bool(mask >> i & 1) for i in range(r)])


def row_mask(row):
    """A library support row as an oracle's int bitmask."""
    return sum(1 << int(i) for i in np.flatnonzero(row))


@pytest.fixture(scope="session")
def fixtures():
    return {name: (get_group(name), get_classes(name), get_table(name))
            for name in FIXTURE_SPECS}
