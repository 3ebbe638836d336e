"""Device-independent QKD toolkit.

Numerical machinery for CHSH-certified entanglement-based key distribution:
spectral analysis of the two-party CHSH observable for uncharacterized
detectors, construction and verification of the bipartite squash channel
that reduces it to a phase-error test, the one-party squash no-go check,
asymptotic and finite-size key-rate formulas, Toeplitz hashing, and an
end-to-end Monte Carlo protocol simulator.
"""

from .chsh import (
    CHSHMeasurement,
    chsh_measurement,
    chsh_povm,
    positive_lift,
    povm_equals_local_mixture,
    t_sign,
)
from .hashing import ToeplitzHash
from .linalg import (
    QuantumChannel,
    adjoint_apply,
    apply_channel,
    generalized_x,
    identity,
    min_eigenvalue,
    pauli,
    tensor,
)
from .protocol import (
    CustomSource,
    DepolarizingSource,
    MisalignedSource,
    Transcript,
    estimate_chsh,
    povm_noise_experiment,
    qber,
    run_protocol,
)
from .rates import (
    KeyLengthReport,
    ProtocolParams,
    asymptotic_rate,
    azuma_tail,
    binary_entropy,
    chernoff_abort_bound,
    chsh_test_deviation,
    device_dependent_rate,
    finite_key_length,
    leftover_bound,
    qber_threshold,
    sampling_deviation,
    smooth_min_entropy_bound,
    syndrome_budget,
    total_deviation,
)
from .squash import (
    ChoiMatrix,
    FeasibilityReport,
    SquashChannel,
    channel_from_choi,
    flip_amplitude,
    single_party_squash_feasibility,
    squash_channel,
    verify_squash_conditions,
)

__version__ = "0.1.0"
