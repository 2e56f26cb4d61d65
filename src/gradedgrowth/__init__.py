"""Desk-scale computations around word metrics and group-ring filtrations:
Cayley balls and dead ends, crystal/Hecke deformations, rank-based
invariance defects over GF(p), augmentation-filtration growth with its
p-central-series cross-check, almost-invariant transversal certificates,
ideal-generator extraction and Golod-Shafarevich certificates."""

from .errors import (ContractError, GradedGrowthError, OutOfRangeError,
                     ResourceBudgetError, SearchFailedError)
from .groups import (GroupOracle, WordMetricBall, ball, find_dead_ends,
                     is_dead_end, triangle_dead_end_family)
from .rewriting import (RewritingGroup, RewritingSystem, confluence_check,
                        knuth_bendix, reduce_word, triangle_group)
from .hecke import (HeckeElement, crystal_monomial_check, delta, delta_mul,
                    hecke_mul, untwist)
from .subspace import (BallAmbient, Subspace, intersect,
                       invariance_defect, right_multiply, set_defect, span,
                       sum_subspaces)
from .filtration import (AugmentationLadder, FiniteGroupAlgebra, aug_ladder,
                         build_group_algebra, free_graded_dims,
                         graded_dims_via_jennings, growth_report,
                         jennings_hilbert_coeffs, jennings_series, magnus_deg,
                         rs_generators, rs_step_bound, witt_ranks)
from .tiling import (ThetaParams, build_transversal, congruence_quotient,
                     folner_search, greedy_fill, quotient_chain, theta,
                     verify_certificate)
from .algebra_probe import algebra_tiling_probe
from .gs import GSPresentation, gs_certificate, gs_value, relator_degrees
from .registry import get_group, load_registry, make_group

__version__ = "0.1.0"
