"""spinring: quantum communication on a Heisenberg spin ring with a twisted boundary.

Library layout:

- ring: configurations, the sector Hamiltonian in two gauges, the analytic
  mode spectrum, and two brute-force propagation oracles.
- bessel: integer-order J_n by Miller's downward recurrence.
- amplitude: the spectral mode-sum kernel, the three amplitude routes and xi.
- optimize: twist/time grid search with refinement; pairwise plans; fidelity.
- blockage: half-flux diametric blocking checks and switch contrast.
- entangle: flux-qubit/ring conditional evolution and entangling-time scans.
- cli: reproducible command-line front end (`spinring ...`).
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
from .bessel import bessel_j, bessel_j_ladder
from .blockage import BlockageReport, switch_contrast, verify_blockage
from .entangle import (
    EntanglementReading,
    EntanglingScan,
    JointFluxRingState,
    entanglement_curve,
    evolve_joint,
    find_entangling_time,
    flux_ring_entanglement,
    scan_times,
)
from .optimize import (
    PairTransfer,
    SearchSpec,
    TransferPoint,
    TransferRecord,
    fidelity_from_xi,
    multiparty_plan,
    optimize_transfer,
    optimize_transfers,
)
from .ring import (
    ModeSpectrum,
    RingConfig,
    build_hamiltonian,
    full_space_oracle,
    hop_phases,
    mode_energies,
    mode_spectrum,
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
    "JointFluxRingState",
    "ModeSpectrum",
    "PairTransfer",
    "RingConfig",
    "SearchSpec",
    "SpectralKernel",
    "TransferPoint",
    "TransferRecord",
    "amplitude_bessel",
    "amplitude_oracle",
    "amplitude_spectral",
    "bessel_j",
    "bessel_j_ladder",
    "build_hamiltonian",
    "entanglement_curve",
    "evolve_joint",
    "fidelity_from_xi",
    "find_entangling_time",
    "flux_ring_entanglement",
    "full_space_oracle",
    "hop_phases",
    "mode_energies",
    "mode_spectrum",
    "multiparty_plan",
    "optimize_transfer",
    "optimize_transfers",
    "propagate_oracle",
    "scan_times",
    "site_state",
    "switch_contrast",
    "verify_blockage",
    "xi",
    "xi_profile",
]
