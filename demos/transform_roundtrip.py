"""The radial eigenfunction transform as a numerical unitary.

forward() integrates a compactly supported profile against the eigenfunction
kernel; inverse() synthesizes it back from the coefficients against the
spectral measure.  Three defects certify the construction: Parseval (norms
agree), roundtrip (synthesis recovers the profile), and diagonalization (the
transform turns the differential operator into multiplication by E).  The
bound-state atom carries real mass -- dropping it breaks Parseval visibly,
which doubles as a negative control.
"""

import math

import numpy as np

from ab_spectral import ExtensionParams, discretize, spectral_measure
from ab_spectral.bumps import GaussianBump
from ab_spectral.measures import gauss_legendre
from ab_spectral.special import ZETA_BOUND
from ab_spectral.transform import (
    RadialFunction,
    apply_l_q,
    forward,
    parseval_defect,
    roundtrip_defect,
)

# A smooth bump on [0.5, 3] with analytic second derivative.  The kernels
# accept zeta = r**2 E up to ZETA_BOUND = 2500, which caps E_max at 2500/9.
bump = GaussianBump(0.5, 3.0)
r, w = gauss_legendre(0.5, 3.0, 64)
psi = RadialFunction(r, w, bump(r), second_derivative=bump.derivative2)
E_MAX = ZETA_BOUND / 3.0**2
print(f"profile on [0.5, 3], ||psi||^2 = {psi.norm_sq():.6f}, E_max = {E_MAX:.1f}")

print("\nunitarity across extensions (parseval / roundtrip / diagonalization):")
for kappa, theta in ((1.5, 0.0), (0.3, 0.0), (0.3, math.pi / 2), (0.0, 1.0)):
    params = ExtensionParams(kappa, theta)
    quad = discretize(spectral_measure(params), E_MAX, node_budget=32)
    coeffs = forward(params, psi, quad)
    pv = parseval_defect(psi, coeffs)
    rt = roundtrip_defect(params, psi, quad)

    # one spectral grid: the atom is the last node of quad.nodes, weighted
    # by its mass, so the diagonalization sum needs no separate atom term
    image = forward(params, apply_l_q(kappa, psi), quad)
    num = np.sum(quad.weights * np.abs(image.values - quad.nodes * coeffs.values) ** 2)
    diag = math.sqrt(float(num) / psi.norm_sq())

    atoms = f"{len(quad.atoms)} atom" if quad.atoms else "no atom"
    print(
        f"  kappa = {kappa:4.1f}, theta = {theta:6.4f} ({atoms}): "
        f"{pv:.1e} / {rt:.1e} / {diag:.1e}"
    )

# ---------------------------------------------------------------------------
# Negative control: the bound state is not optional

params = ExtensionParams(0.3, math.pi / 2)
quad = discretize(spectral_measure(params), E_MAX, node_budget=32)
honest = parseval_defect(psi, forward(params, psi, quad))
broken = parseval_defect(psi, forward(params, psi, quad, include_atoms=False))
energy, weight = quad.atoms[0]
print(f"\ndropping the atom at E_b = {energy:.3f}:")
print(f"  Parseval defect with atom    : {honest:.2e}")
print(f"  Parseval defect without atom : {broken:.2e}  <- the atom's share of the norm")
