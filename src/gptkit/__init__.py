"""Exact-arithmetic toolkit for convex operational models.

State spaces are pointed generating cones with a strictly positive
order unit; composites, protocols, and decision procedures all run on
exact rationals, with tolerances entering only at comparison points.
"""

from .composites import (BipartiteState, CompositeSpace,
                         check_distributive_inclusion, conditional,
                         effect_on_max, effect_on_min, f_hat, is_composite,
                         is_entangled, marginal, max_tensor, min_tensor,
                         omega_hat, product_vec, remote_evaluate)
from .cones import ConeRep, enumerate_rays, partition_rays
from .errors import (DegenerateConeError, DimensionCapError,
                     DimensionMismatchError, InvalidInputError,
                     SearchCapError, SolverError, ToolkitError,
                     UnitMismatchError, UnsupportedConeError)
from .models import (direct_sum, entangled_state_coords, make_ball,
                     make_classical, make_polygon, make_squit,
                     parse_model_name, symmetry_group)
from .protocols import (BroadcastReport, CheatBound, CommitmentTranscript,
                        DoubleDecomposition, TeleportationCertificate,
                        TeleportationScheme, bc_cheat_bound, bc_cheat_curve,
                        bc_run, build_cloner,
                        construct_deterministic_teleportation,
                        exposing_effect, find_double_decomposition,
                        is_broadcastable, is_clonable, is_nondisturbing,
                        nondisturbing_basis, verify_compression_witness,
                        verify_correction_free, verify_teleportation)
from .spaces import (ConeDecomposition, Effect, LinearMapRep, Observable,
                     StateSpace, base_norm, decompose_cone, dual_cone,
                     is_effect, is_norm_contractive,
                     is_order_isomorphism, is_positive_map,
                     one_shot_distinguishing_observable,
                     verify_self_duality_witness)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
