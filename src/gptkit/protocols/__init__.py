"""Protocol-level decision procedures and simulators."""

from .disturbance import is_nondisturbing, nondisturbing_basis
from .cloning import BroadcastReport, build_cloner, is_broadcastable, is_clonable
from .bitcommit import (
    CheatBound,
    CommitmentTranscript,
    DoubleDecomposition,
    bc_cheat_bound,
    bc_cheat_curve,
    bc_run,
    exposing_effect,
    find_double_decomposition,
)
from .teleport import (
    TeleportationCertificate,
    TeleportationScheme,
    construct_deterministic_teleportation,
    verify_compression_witness,
    verify_correction_free,
    verify_teleportation,
)
