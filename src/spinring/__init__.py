"""spinring: quantum communication on a Heisenberg spin ring with a twisted boundary.

Library layout:

- ring: configurations, the uniform-gauge sector Hamiltonian, the mode cosines
  its closed-form energies rest on (`_mode_cosines`), and a dense
  eigendecomposition propagation oracle.
- bessel: integer-order J_n ladders by Miller's downward recurrence.
- amplitude: the spectral mode-sum kernel, the three amplitude routes and xi.
- optimize: twist/time grid search with a Newton polish; pairwise plans; fidelity.
- blockage: half-flux diametric blocking checks.
- entangle: the flux-qubit/ring entanglement curve and entangling-time scans.
- cli: reproducible command-line front end (`spinring ...`).

Reference implementations that only check these (the 2^N full-space oracle,
the dense entangling reference, the single-bond gauge) live in the test suite.
"""

__version__ = "0.1.0"  # the only copy: serialize.ARTIFACT_VERSION and pyproject.toml read it

from .amplitude import (
    AmplitudeQuery,
    AmplitudeResult,
    BesselTruncationError,
    SpectralKernel,
    amplitude_bessel,
    amplitude_oracle,
    amplitude_spectral,
    xi,
    xi_profile,
)
from .bessel import bessel_j_ladder
from .blockage import BlockageReport, verify_blockage
from .entangle import (
    EntanglementReading,
    EntanglingScan,
    entanglement_curve,
    find_entangling_time,
)
from .optimize import (
    PairTransfer,
    SearchSpec,
    TransferPoint,
    TransferRecord,
    fidelity_from_xi,
    multiparty_plan,
    optimize_transfers,
)
from .ring import (
    RingConfig,
    build_hamiltonian,
    propagate_oracle,
    site_state,
)

__all__ = [
    "AmplitudeQuery",
    "AmplitudeResult",
    "BesselTruncationError",
    "BlockageReport",
    "EntanglementReading",
    "EntanglingScan",
    "PairTransfer",
    "RingConfig",
    "SearchSpec",
    "SpectralKernel",
    "TransferPoint",
    "TransferRecord",
    "amplitude_bessel",
    "amplitude_oracle",
    "amplitude_spectral",
    "bessel_j_ladder",
    "build_hamiltonian",
    "entanglement_curve",
    "fidelity_from_xi",
    "find_entangling_time",
    "multiparty_plan",
    "optimize_transfers",
    "propagate_oracle",
    "site_state",
    "verify_blockage",
    "xi",
    "xi_profile",
]
