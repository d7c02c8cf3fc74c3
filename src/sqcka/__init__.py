"""Exact simulator and key-rate analyzer for a GHZ-based semi-quantum
conference key agreement protocol under collective attacks."""

from .attacks import (
    CollectiveAttack,
    ConditionalChannelTable,
    DepolarizingParams,
    EveGram,
    EveVectorCatalogue,
    depolarizing_attack,
    eve_catalogue,
    identity_attack,
    joint_az_analytic,
    load_attack_file,
    p_ghz_analytic,
)
from .estimation import (
    EstimateWithRadius,
    TallyCounts,
    estimate_branch_norms,
    estimate_channel_conditionals,
    estimate_p_ghz,
    estimate_re_overlap,
)
from .keyrate import (
    KeyRateReport,
    PairingPlan,
    depolarizing_entropy_lower,
    depolarizing_keyrate,
    exact_entropy_oracle,
    keyrate_lower,
    pairing_maximize,
    theorem1_entropy_bound,
)
from .protocol import (
    ProtocolParams,
    SessionRecord,
    ThetaSchedule,
    expand_theta_schedule,
    prepare_ghz,
    run_round_exact,
    run_session,
)
from .qmath import (
    RegisterLayout,
    StateVector,
    binary_entropy,
    conditional_entropy,
    partial_trace,
    tensor,
)

__version__ = "0.1.0"
