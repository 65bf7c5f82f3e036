"""Linearization about a constant state and its stability verdicts.

The operator -Laplace(phi) + div(M grad K(phi)) is assembled in flux form
(zero boundary fluxes), so its weighted row sums vanish identically and its
quadratic form coincides with the energy form
J(phi, psi) = int grad(phi).grad(psi) - M int grad K(phi).grad(psi).
The principal eigenvalue is the minimum of J's Rayleigh quotient over the
zero-mean subspace, extracted by dense symmetric eigendecomposition after
deflating the constant vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, InvalidParameterError, UnsupportedKernelError
from .grid import Field, Grid1D, SpectralBasis, divergence, gradient
from .kernel import KernelMatrices, KernelSpec, apply_grad, assemble, l2_operator_norm

LAMBDA_1 = math.pi**2

VERDICT_STABLE = "linearly_stable_sufficient"
VERDICT_UNSTABLE = "linearly_unstable"
VERDICT_INCONCLUSIVE = "inconclusive"

_SYMMETRY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LinearizedOperator:
    grid: Grid1D
    km: KernelMatrices
    mass_level: float
    matrix: np.ndarray

    @cached_property
    def symmetric_part(self) -> np.ndarray:
        # uniform quadrature weight, so the plain transpose is the L2 adjoint
        return 0.5 * (self.matrix + self.matrix.T)


def assemble_linearized(grid: Grid1D, km: KernelMatrices, mass_level: float) -> LinearizedOperator:
    """Dense matrix of -Laplace + M div(grad K(.)) in zero-flux form."""
    if mass_level < 0:
        raise InvalidParameterError("mass level M must be nonnegative")
    if km.grid != grid:
        raise GridMismatchError("kernel matrices do not match grid")
    drift = grid.h * km.gradk_faces
    drift[[0, -1], :] = 0.0
    laplacian = divergence(gradient(np.eye(grid.n), grid), grid)
    matrix = -laplacian + mass_level * divergence(drift, grid)
    return LinearizedOperator(grid, km, mass_level, matrix)


def bilinear_form(lop: LinearizedOperator, phi: Field, psi: Field) -> float:
    """Energy form J(phi, psi) over interior faces."""
    if phi.grid != lop.grid or psi.grid != lop.grid:
        raise GridMismatchError("field grids do not match operator grid")
    h = lop.grid.h
    gphi = gradient(phi.values, lop.grid)[1:-1]
    gpsi = gradient(psi.values, lop.grid)[1:-1]
    gk = apply_grad(lop.km, phi)[1:-1]
    return float(h * np.sum(gphi * gpsi) - lop.mass_level * h * np.sum(gk * gpsi))


def principal_eigenpair(lop: LinearizedOperator):
    """Smallest eigenvalue of the symmetrized operator on zero-mean vectors.

    Returns (eigenvalue, mode) with the mode normalized to unit L2 norm; the
    weak eigenrelation residual is verified before returning.
    """
    asym = float(np.max(np.abs(lop.km.k_centers - lop.km.k_centers.T), initial=0.0))
    if asym > _SYMMETRY_TOL:
        raise UnsupportedKernelError(
            f"kernel value matrix asymmetric (residual {asym:.2e}); "
            "the Rayleigh characterization needs a symmetric kernel"
        )
    n = lop.grid.n
    s = lop.symmetric_part
    # orthonormal basis of the zero-mean subspace by deflating the constant
    q, _ = np.linalg.qr(np.eye(n)[:, 1:] - 1.0 / n)
    reduced = q.T @ s @ q
    eigvals, eigvecs = np.linalg.eigh(0.5 * (reduced + reduced.T))
    lam = float(eigvals[0])
    vec = q @ eigvecs[:, 0]
    vec /= math.sqrt(lop.grid.h) * np.linalg.norm(vec)
    residual = np.max(np.abs(s @ vec - lam * vec - (s @ vec - lam * vec).mean()))
    scale = np.linalg.norm(lop.matrix, np.inf)
    if residual > 1e-8 * max(scale, 1.0):
        raise UnsupportedKernelError(
            f"weak eigenrelation residual {residual:.2e} exceeds tolerance"
        )
    return lam, Field(lop.grid, vec)


def compute_interaction_coefficient(km: KernelMatrices, basis: SpectralBasis) -> float:
    """Double integral of K against the first cosine mode in both slots."""
    if basis.grid != km.grid:
        raise GridMismatchError("basis grid does not match kernel grid")
    w1 = basis.modes[:, 1]
    return float(km.grid.h**2 * (w1 @ km.k_centers @ w1))


# conventional short name: A in the instability condition M > 1/A
compute_A = compute_interaction_coefficient


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
    principal_mode: Field
    thresholds_consistent: bool

    _CSV_HEADER = "M,lambda1,grad_norm,A,M_crit_instab,M_bound_stab,principal_eig,verdict"

    @classmethod
    def csv_header(cls) -> str:
        return cls._CSV_HEADER

    def csv_row(self) -> str:
        return ",".join(
            [
                repr(self.mass_level),
                repr(self.lambda1),
                repr(self.grad_norm),
                repr(self.interaction_coefficient),
                repr(self.critical_mass_instability),
                repr(self.stability_bound_mass),
                repr(self.principal_eigenvalue),
                self.verdict,
            ]
        )


def stability_verdict(spec: KernelSpec, grid: Grid1D, mass_level: float) -> StabilityReport:
    """Full stability report for the constant state at level M."""
    if mass_level < 0:
        raise InvalidParameterError("mass level M must be nonnegative")
    km = assemble(spec, grid)
    basis = SpectralBasis(grid)
    grad_norm = l2_operator_norm(km)
    a_coef = compute_interaction_coefficient(km, basis)
    lop = assemble_linearized(grid, km, mass_level)
    eig, mode = principal_eigenpair(lop)
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
        lambda1_discrete=float(basis.eigenvalues_discrete[1]),
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
