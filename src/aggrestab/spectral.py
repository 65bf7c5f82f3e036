"""Linearization about a constant state and its stability verdicts.

The operator S(M) = -Laplace(phi) + div(M grad K(phi)) is taken in flux form
(zero boundary fluxes), so its weighted row sums vanish identically and its
quadratic form coincides with the energy form
J(phi, psi) = int grad(phi).grad(psi) - M int grad K(phi).grad(psi).
The principal eigenvalue is the minimum of J's Rayleigh quotient over the
zero-mean subspace. It is solved for alone in the cosine modes w_1..w_{n-1}
of the grid's `basis`, on S(M) = L + M D. The modes diagonalize the discrete
Laplacian L exactly, so L is its eigenvalues there.

Everything here takes the assembled kernel `km` and the mass M, and reads the
grid from `km.grid`. S(M) is affine in M: `assemble_linearized(km)` builds
its mass-independent parts once, the `LinearizedFamily`, and
`principal_eigenpair(family, M)` solves it at one M, and `bilinear_form(km,
M, phi, psi)` is J at level M; both refuse an M that is negative or not
finite. `stability_verdict(km, M)` reports on the constant state u = M.

The kernel holds D and solves for the eigenpair: a Green kernel's D is
diagonal in the modes too, so S(M) is a vector; a Gaussian or power-law
kernel is solved matrix-free by the block eigensolver of `eigen`, O(n log n)
per step; only a table projects its dense D, once per family, and solves with
SciPy's `eigh`. Neither L nor S(M) is formed: the residual check applies L by
`gradient` and `divergence`, and D by the kernel's actions, not by the stored
form of D that the solve read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, UnsupportedKernelError
from .grid import check_real, divergence, gradient
from .kernel import KernelMatrices, _finite, apply_grad, l2_operator_norm

LAMBDA_1 = math.pi**2

VERDICT_STABLE = "linearly_stable_sufficient"
VERDICT_UNSTABLE = "linearly_unstable"
VERDICT_INCONCLUSIVE = "inconclusive"


class LinearizedFamily:
    """S(M) = L + M D with L = -Laplace, D = div(grad K(.)) (zero flux), for any M.

    L acts by face differences, D is the kernel's (`km.drift`, `km.symmetric_drift`).
    The family holds what the solve reads at every M, built when first read.
    """

    def __init__(self, km: KernelMatrices):
        self.grid, self.km = km.grid, km

    @cached_property
    def reduced(self) -> tuple:
        """L and D on the cosine modes w_1..w_{n-1}: L is its eigenvalues lambda_k^h,
        D the form that the kernel solves with, its `drift_form`."""
        return self.grid.basis.eigenvalues_discrete[1:], self.km.drift_form()


def assemble_linearized(km: KernelMatrices) -> LinearizedFamily:
    """-Laplace + M div(grad K(.)) in zero-flux form, on the kernel's grid, for every M."""
    return LinearizedFamily(km)


def bilinear_form(km: KernelMatrices, mass_level: float, phi, psi) -> float:
    """Energy form J(phi, psi) at level M of cell values over interior faces."""
    check_real(mass_level, "mass level M", 0)
    if not (np.isfinite(phi).all() and np.isfinite(psi).all()):
        raise InvalidParameterError("phi and psi must be finite")
    grid = km.grid
    gphi = gradient(phi, grid)[1:-1]
    gpsi = gradient(psi, grid)[1:-1]
    gk = apply_grad(km, phi)[1:-1]
    return float(grid.h * np.sum(gphi * gpsi) - mass_level * grid.h * np.sum(gk * gpsi))


# an M whose S(M) overflows is refused by `_finite`, not warned about
@np.errstate(over="ignore", invalid="ignore")
def principal_eigenpair(family: LinearizedFamily, mass_level: float):
    """Smallest eigenvalue of the symmetrized S(M) on zero-mean vectors.

    Solved for that eigenpair alone in the cosine modes. Returns (eigenvalue,
    mode) with the mode normalized to unit L2 norm; the weak eigenrelation
    residual in the full space is verified before returning. An M so large
    that S(M), its eigenvalue or the residual leaves the doubles is refused.
    """
    check_real(mass_level, "mass level M", 0)
    grid = family.grid
    lam, vec, d_vec, scale = family.km.eigenpair(family.reduced, mass_level)
    # scale is at most the infinity norm of the reduced operator that was solved
    r = mass_level * d_vec - divergence(gradient(vec, grid), grid) - lam * vec
    residual = np.max(np.abs(r - r.mean()))
    _finite((scale, residual), mass_level)
    if not residual <= 1e-8 * max(scale, 1.0):
        raise UnsupportedKernelError(
            f"weak eigenrelation residual {residual:.2e} exceeds tolerance"
        )
    return lam, vec


def compute_interaction_coefficient(km: KernelMatrices) -> float:
    """Double integral of K against the first cosine mode in both slots: A in M > 1/A."""
    return km.interaction_coefficient()


@dataclass(frozen=True, eq=False)
class StabilityReport:
    mass_level: float
    lambda1: float
    lambda1_discrete: float
    grad_norm: float
    interaction_coefficient: float  # A
    critical_mass_instability: float  # 1/A
    stability_bound_mass: float  # sqrt(lambda1)/grad_norm
    verdict: str
    margin: float
    principal_eigenvalue: float
    principal_mode: np.ndarray  # cell values
    thresholds_consistent: bool


def stability_verdict(km: KernelMatrices, mass_level: float) -> StabilityReport:
    """Full stability report for the constant state at level M of the kernel on its grid."""
    # first, as it refuses an oversized dense path and M that is negative or not finite
    eig, mode = principal_eigenpair(assemble_linearized(km), mass_level)
    grad_norm = l2_operator_norm(km)
    a_coef = compute_interaction_coefficient(km)
    critical = 1.0 / a_coef if a_coef > 0 else math.inf
    bound = math.sqrt(LAMBDA_1) / grad_norm if grad_norm > 0 else math.inf
    margin = math.sqrt(LAMBDA_1) - mass_level * grad_norm
    if margin > 0:
        verdict = VERDICT_STABLE
    elif a_coef > 0 and mass_level > critical:
        verdict = VERDICT_UNSTABLE
    else:
        verdict = VERDICT_INCONCLUSIVE
    # sufficient conditions only: flag if the eigenvalue sign contradicts them
    consistent = not (
        (verdict == VERDICT_STABLE and eig < 0) or (verdict == VERDICT_UNSTABLE and eig > 0)
    )
    return StabilityReport(
        mass_level=mass_level,
        lambda1=LAMBDA_1,
        lambda1_discrete=float(km.grid.basis.eigenvalues_discrete[1]),
        grad_norm=grad_norm,
        interaction_coefficient=a_coef,
        critical_mass_instability=critical,
        stability_bound_mass=bound,
        verdict=verdict,
        margin=margin,
        principal_eigenvalue=eig,
        principal_mode=mode,
        thresholds_consistent=consistent,
    )
