"""Tensor quasi-randomness of finite groups, computationally.

Build groups, compute character tables, evaluate covering criteria for tensor
products of representations, run the tensor-product Markov chain, and
construct explicit representations whose tensor powers fail to spread.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it. The modules are imported on first
# use rather than here: they import numpy, and the `tqr` entry point
# (tqrgroups.__main__) must set the BLAS thread variables before numpy loads,
# which importing this package first would otherwise do.
_EXPORTS = {name: module for module, names in {
    "groups": ("GroupTable", "ClassData", "GroupError", "build_group",
               "conjugacy_classes", "center", "upper_central_series", "normal_subgroups",
               "quotient", "center_free_quotient_chain", "derived_subgroup",
               "subgroup_from_members", "AbelianGroup"),
    "chartable": ("CharTable", "CharTableError",
                  "compute_char_table", "induce_character", "from_interchange",
                  "dumps_interchange", "loads_interchange"),
    "classfuncs": ("DecompositionError", "plancherel", "support_measure_frac",
                   "character_of", "decompose", "rep_from_selector"),
    "criteria": ("CriteriaParams", "CriterionReport", "two_factor_cover",
                 "three_factor_cover", "multiplicity_profile", "check_tqr", "check_qr"),
    "markov": ("build_chain", "t_step_distribution", "mixing_time",
               "mixing_experiment", "stationarity_residual", "distances_to_stationary"),
    "counterexample": ("AutAction", "dual_action", "m_fold_sumset",
                       "translate_cover", "invariant_small_doubling_set",
                       "build_counterexample_rep", "default_epsilon"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
