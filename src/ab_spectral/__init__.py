"""Self-adjoint extensions and eigenfunction expansions of the 3D
Aharonov-Bohm Hamiltonian.

The library realizes, numerically, the decomposition of the Hamiltonian of a
charged particle around an infinitely thin solenoid into radial channels
(m, p), the one-parameter families of self-adjoint boundary conditions in the
critical channels |m + phi| < 1, and the eigenfunction transforms that
diagonalize every channel against its spectral measure (an absolutely
continuous density on E >= 0 plus at most one bound-state atom).

Modules
-------
special     radial eigenfunction families (closed forms over Bessel functions)
measures    spectral measures, bound states, quadrature discretization
transform   1D forward/inverse transforms, Parseval and diagonalization
bumps       analytic compactly supported test profiles
ab3d        3D channel decomposition, assembly, symmetry covariance
verify      property suite and machine-readable reports
cli         command-line interface (ab-spectral)
"""

from .errors import ConfigurationError, ContractError, DomainError, SeriesDomainError
from .measures import (
    ExtensionParams,
    MeasureQuadrature,
    SpectralMeasure,
    ac_density,
    atom_weight,
    bound_state_energy,
    discretize,
    has_bound_state,
    spectral_measure,
)
from .special import (
    ZETA_BOUND,
    chi_kappa,
    theta_kappa,
    u_eigen,
    u_theta_eigen,
    w_eigen,
    wronskian,
)
from .transform import (
    RadialFunction,
    TransformCoefficients,
    apply_l_q,
    forward,
    inverse,
    parseval_defect,
    roundtrip_defect,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ContractError",
    "DomainError",
    "SeriesDomainError",
    "ExtensionParams",
    "MeasureQuadrature",
    "SpectralMeasure",
    "ac_density",
    "atom_weight",
    "bound_state_energy",
    "discretize",
    "has_bound_state",
    "spectral_measure",
    "ZETA_BOUND",
    "chi_kappa",
    "theta_kappa",
    "u_eigen",
    "u_theta_eigen",
    "w_eigen",
    "wronskian",
    "RadialFunction",
    "TransformCoefficients",
    "apply_l_q",
    "forward",
    "inverse",
    "parseval_defect",
    "roundtrip_defect",
    "__version__",
]
