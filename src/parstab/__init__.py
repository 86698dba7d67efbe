"""Observer-based boundary stabilization of drift-reaction-diffusion plants
on boxes: eigenbasis computation, controller synthesis, Lyapunov decay
certificates and closed-loop simulation.

The `parstab` command lives in `parstab.cli` (`python -m parstab`); the
package import leaves it unloaded."""

from .spectral_basis import (
    FaceId,
    ModeTable,
    PlantConfig,
    conormal_trace,
    count_unstable,
    enumerate_eigenpairs,
    eval_phi,
    eval_psi,
    riesz_constants,
)
from .lifting import LiftingContext, lambda_gamma
from .synthesis import (
    SynthesisArtifacts,
    assemble_F,
    place_observer_gain,
    select_eta,
    select_gamma_ladder,
    synthesize,
    validate_sensors,
)
from .certification import (
    Certificate,
    certify,
    check_psi,
    check_theta1,
    compute_S1,
    compute_S2,
    compute_Sphi,
    solve_lyapunov,
)
from .simulation import (
    ClosedLoop,
    SimulationRun,
    estimate_decay_rate,
    run,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "FaceId",
    "ModeTable",
    "PlantConfig",
    "conormal_trace",
    "count_unstable",
    "enumerate_eigenpairs",
    "eval_phi",
    "eval_psi",
    "riesz_constants",
    "LiftingContext",
    "lambda_gamma",
    "SynthesisArtifacts",
    "assemble_F",
    "place_observer_gain",
    "select_eta",
    "select_gamma_ladder",
    "synthesize",
    "validate_sensors",
    "Certificate",
    "certify",
    "check_psi",
    "check_theta1",
    "compute_S1",
    "compute_S2",
    "compute_Sphi",
    "solve_lyapunov",
    "ClosedLoop",
    "SimulationRun",
    "estimate_decay_rate",
    "run",
    "write_csv",
    "__version__",
]
