"""Tensor quasi-randomness of finite groups, computationally.

Build groups, compute character tables, evaluate covering criteria for tensor
products of representations, run the tensor-product Markov chain, and
construct explicit representations whose tensor powers fail to spread.
"""

__version__ = "0.1.0"

from .groups import (GroupTable, ClassData, Subgroup, GroupError, build_group,
                     conjugacy_classes, center, normal_subgroups, quotient,
                     center_free_quotient_chain, derived_subgroup,
                     subgroup_table, subgroup_from_members)
from .chartable import (CharTable, ClassFunction, CharTableError,
                        compute_char_table, induce_character,
                        to_interchange, from_interchange,
                        dumps_interchange, loads_interchange)
from .classfuncs import (RepMultiset, DecompositionError, plancherel_frac,
                         reduced_character, character_of, reduce_rep,
                         split_off_identity, lp_norm, inner_product, decompose,
                         rep_from_selector)
from .criteria import (CriteriaParams, CriterionReport, CoverReport,
                       covering_lemma_check, two_factor_cover,
                       three_factor_cover, multiplicity_profile, check_tqr,
                       check_qr)
from .markov import (ChainModel, MixingReport, build_chain,
                     t_step_distribution, mixing_time, mixing_experiment,
                     stationarity_residual, distances_to_stationary)
from .counterexample import (AbelianGroup, AutAction, AbelianStructure,
                             abelian_structure, dual_action, character_value,
                             m_fold_sumset, translate_cover,
                             invariant_small_doubling_set,
                             build_counterexample_rep, verify_vtheta_partition,
                             default_epsilon)
