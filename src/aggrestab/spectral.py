"""Linearization about a constant state and its stability verdicts.

The operator S(M) = -Laplace(phi) + div(M grad K(phi)) is assembled in flux
form (zero boundary fluxes), so its weighted row sums vanish identically and
its quadratic form coincides with the energy form
J(phi, psi) = int grad(phi).grad(psi) - M int grad K(phi).grad(psi).
The principal eigenvalue is the minimum of J's Rayleigh quotient over the
zero-mean subspace. It is solved for alone in the cosine modes w_1..w_{n-1}
of `SpectralBasis`, on S(M) = L + M D (`LinearizedFamily`). The modes
diagonalize the discrete Laplacian L exactly, so L is its eigenvalues there.

For a Green kernel D is diagonal in the modes too, with the symbol
d_k = (2/h) sin(k pi h / 2) t_k of `KernelMatrices.symbols`. Then S(M) is
the vector lambda_k^h + M d_k, the principal eigenpair is its smallest entry
with the mode w_k, and no n x n array is built: the residual check applies L
by `gradient` and `divergence` and D by its symbol. Other kernels project the
dense D once per family and solve for the one eigenpair with `eigh`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh

from .errors import GridMismatchError, InvalidParameterError, UnsupportedKernelError
from .grid import MAX_STORED_VALUES, Field, Grid1D, SpectralBasis, divergence, gradient
from .kernel import KernelMatrices, KernelSpec, apply_grad, assemble, l2_operator_norm

LAMBDA_1 = math.pi**2

VERDICT_STABLE = "linearly_stable_sufficient"
VERDICT_UNSTABLE = "linearly_unstable"
VERDICT_INCONCLUSIVE = "inconclusive"

_SYMMETRY_TOL = 1e-8
# n x n arrays the dense path holds at its peak: the kernel's value and
# gradient samples, D, its projection, L, S(M) and a temporary
_DENSE_ARRAYS = 7


@dataclass(frozen=True, eq=False)
class LinearizedOperator:
    grid: Grid1D
    km: KernelMatrices
    mass_level: float
    family: LinearizedFamily

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense S(M), built when first read."""
        return self.family.laplacian + self.mass_level * self.family.drift


class LinearizedFamily:
    """S(M) = L + M D with L = -Laplace, D = div(grad K(.)) (zero flux), for any M.

    The dense L and D are built when first read. A kernel without symbols is
    refused here, before anything is allocated, when the dense path would
    hold more than MAX_STORED_VALUES values at once.
    """

    def __init__(self, grid: Grid1D, km: KernelMatrices):
        if km.grid != grid:
            raise GridMismatchError("kernel matrices do not match grid")
        if km.symbols is None and _DENSE_ARRAYS * grid.n**2 > MAX_STORED_VALUES:
            raise InvalidParameterError(
                f"the dense stability path at n = {grid.n} holds {_DENSE_ARRAYS} n x n arrays, "
                f"{_DENSE_ARRAYS * grid.n**2:.3g} values; the limit is {MAX_STORED_VALUES:.0e}"
            )
        self.grid, self.km, self.basis = grid, km, SpectralBasis(grid)

    def at(self, mass_level: float) -> LinearizedOperator:
        if mass_level < 0:
            raise InvalidParameterError("mass level M must be nonnegative")
        return LinearizedOperator(self.grid, self.km, mass_level, self)

    @cached_property
    def laplacian(self) -> np.ndarray:
        return -divergence(gradient(np.eye(self.grid.n), self.grid), self.grid)

    @cached_property
    def drift(self) -> np.ndarray:
        drift = self.grid.h * self.km.gradk_faces
        drift[[0, -1], :] = 0.0
        return divergence(drift, self.grid)

    @cached_property
    def drift_symbol(self) -> np.ndarray:
        """d_k, k = 0..n-1, for a Green kernel: D w_k = d_k w_k."""
        angles = np.arange(self.grid.n) * (0.5 * np.pi * self.grid.h)
        return (2.0 / self.grid.h) * np.sin(angles) * self.km.symbols[1]

    @cached_property
    def reduced(self) -> tuple:
        """L and D on the cosine modes w_1..w_{n-1}.

        L is its eigenvalues lambda_k^h. D is the vector d_k for a Green kernel,
        and otherwise the symmetric part of its projection.
        """
        lap = self.basis.eigenvalues_discrete[1:]
        if self.km.symbols is not None:
            return lap, self.drift_symbol[1:]
        asym = float(np.max(np.abs(self.km.k_centers - self.km.k_centers.T), initial=0.0))
        if asym > _SYMMETRY_TOL:
            raise UnsupportedKernelError(
                f"kernel value matrix asymmetric (residual {asym:.2e}); "
                "the Rayleigh characterization needs a symmetric kernel"
            )
        drift = self.basis.project(self.drift)[1:, 1:]
        return lap, 0.5 * (drift + drift.T)


def assemble_linearized(grid: Grid1D, km: KernelMatrices, mass_level: float) -> LinearizedOperator:
    """-Laplace + M div(grad K(.)) in zero-flux form."""
    return LinearizedFamily(grid, km).at(mass_level)


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

    Solved for that eigenpair alone in the cosine modes. Returns (eigenvalue,
    mode) with the mode normalized to unit L2 norm; the weak eigenrelation
    residual in the full space is verified before returning.
    """
    family, mass, basis = lop.family, lop.mass_level, lop.family.basis
    lap, drift = family.reduced
    if drift.ndim == 1:  # S(M) is diagonal in the modes
        symbol = lap + mass * drift
        k = int(np.argmin(symbol))
        lam, vec = float(symbol[k]), basis.mode(k + 1).values
        # S vec, with L applied by the face differences and D by its symbol
        s_vec = -divergence(gradient(vec, lop.grid), lop.grid)
        s_vec += mass * basis.from_spectral(family.drift_symbol * basis.to_spectral(vec))
        r = s_vec - lam * vec
        scale = float(np.abs(symbol).max())  # rho(S), at most ||S||_inf
    else:
        eigvals, eigvecs = eigh(np.diag(lap) + mass * drift, subset_by_index=[0, 0])
        lam = float(eigvals[0])
        vec = basis.from_spectral(np.concatenate(([0.0], eigvecs[:, 0])))
        # (S + S^T)/2 applied to vec without forming it; uniform weights make S^T the L2 adjoint
        r = 0.5 * (lop.matrix @ vec + vec @ lop.matrix) - lam * vec
        scale = np.linalg.norm(lop.matrix, np.inf)
    residual = np.max(np.abs(r - r.mean()))
    if residual > 1e-8 * max(scale, 1.0):
        raise UnsupportedKernelError(
            f"weak eigenrelation residual {residual:.2e} exceeds tolerance"
        )
    return lam, Field(lop.grid, vec)


def compute_interaction_coefficient(km: KernelMatrices, basis: SpectralBasis) -> float:
    """Double integral of K against the first cosine mode in both slots."""
    if basis.grid != km.grid:
        raise GridMismatchError("basis grid does not match kernel grid")
    if km.symbols is not None:
        return float(km.symbols[0][1])
    w1 = basis.mode(1).values
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
    lop = assemble_linearized(grid, km, mass_level)  # refuses an oversized dense path
    grad_norm = l2_operator_norm(km)
    a_coef = compute_interaction_coefficient(km, basis)
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
