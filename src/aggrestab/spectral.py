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

For a Green kernel D is diagonal in the modes too, with the symbol
d_k = (2/h) sin(k pi h / 2) t_k of `KernelMatrices.symbols`. Then S(M) is
the vector lambda_k^h + M d_k and its smallest entry gives the eigenpair.
A Gaussian or power-law kernel is solved matrix-free, by the block
eigensolver of `eigen` on diag(lambda_k^h) + M D_r, D_r the symmetric part
of D in the modes, applied by the kernel's FFT actions: O(n log n) per step,
started and preconditioned by the circulant estimate of D_r's diagonal.
Only a table projects its dense D, once per family, and solves with SciPy's
`eigh`, imported there so that no other path loads SciPy.
Neither L nor S(M) is formed: the residual check applies L by `gradient` and
`divergence`, and D by `apply_grad` for a Green kernel (not by the symbol it
checks), by the symmetric part of D from `apply_grad` and its adjoint
otherwise (not by the projection a table's solve read).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, UnsupportedKernelError
from .eigen import smallest_eigenpair
from .grid import check_real, check_size, divergence, gradient
from .kernel import KernelMatrices, apply, apply_grad, apply_grad_adjoint, l2_operator_norm

LAMBDA_1 = math.pi**2

VERDICT_STABLE = "linearly_stable_sufficient"
VERDICT_UNSTABLE = "linearly_unstable"
VERDICT_INCONCLUSIVE = "inconclusive"

_SYMMETRY_TOL = 1e-8
# n x n arrays a table's dense path holds at its peak, in the second transform
# of `reduced`'s projection of D: the kernel's value and gradient samples, D,
# the first transform's output, and the second's reordered input, FFT and output
_DENSE_ARRAYS = 7
# the block eigensolver's width on a Gaussian or power-law kernel, and the
# 2-norm of its residual in the modes, relative to the check's scale, that stops it
_BLOCK = 4
_SOLVE_TOL = 1e-11


class LinearizedFamily:
    """S(M) = L + M D with L = -Laplace, D = div(grad K(.)) (zero flux), for any M.

    L acts by face differences, D by the kernel's `apply_grad` and its
    adjoint. Only a table's D is dense, built when first read; a table is
    refused here, before anything is allocated, when that path would hold more
    values at once than `check_size` allows.
    """

    def __init__(self, km: KernelMatrices):
        grid = km.grid
        if km.spec.variant == "tabulated":
            check_size(_DENSE_ARRAYS * grid.n**2, f"the dense stability path at n = {grid.n}")
        self.grid, self.km = grid, km

    @cached_property
    def drift(self) -> np.ndarray:
        """D as an n x n array, from the dense gradient sample."""
        return divergence(self.grid.h * self.km.gradk_faces, self.grid)

    def symmetric_drift(self, vec) -> np.ndarray:
        """(D + D^T) vec / 2 on cell values along axis 0, by the kernel's actions.

        Uniform weights make D^T the L2 adjoint of D: it is the adjoint gradient
        action applied to -gradient(vec), whose boundary faces are zero as the
        zero-flux D ignores them.
        """
        adjoint = apply_grad_adjoint(self.km, gradient(vec, self.grid))
        return 0.5 * (divergence(apply_grad(self.km, vec), self.grid) - adjoint)

    def reduced_drift(self, coef) -> np.ndarray:
        """The symmetric part of D on mode coefficients of w_1..w_{n-1}, along axis 0."""
        basis = self.grid.basis
        vec = basis.from_spectral(np.concatenate((np.zeros((1,) + coef.shape[1:]), coef)))
        return basis.to_spectral(self.symmetric_drift(vec))[1:]

    @cached_property
    def drift_symbol(self) -> np.ndarray:
        """d_k, k = 0..n-1, for a Green kernel: D w_k = d_k w_k."""
        angles = np.arange(self.grid.n) * (0.5 * np.pi * self.grid.h)
        return (2.0 / self.grid.h) * np.sin(angles) * self.km.symbols[1]

    @cached_property
    def drift_diagonal(self) -> tuple:
        """The circulant estimate of the reduced D's diagonal, and its exact last entry.

        A Gaussian or power-law D has Toeplitz entries d_m = g((m + 1/2) h) -
        g((m - 1/2) h) away from the boundary rows, even in m as g is odd. The
        estimate sum_m d_m cos(k pi m h), k = 1..n-1, is one real FFT of
        their even extension. The last diagonal entry, w_{n-1} . D w_{n-1},
        is one action.
        """
        n = self.grid.n
        d = np.diff(self.km.grad_toeplitz.offsets)[n - 1 :]
        estimate = np.fft.rfft(np.concatenate((d, [0.0], d[:0:-1]))).real[1:n]
        last = np.zeros(n - 1)
        last[-1] = 1.0
        return estimate, float(self.reduced_drift(last)[-1])

    @cached_property
    def reduced(self) -> tuple:
        """L and D on the cosine modes w_1..w_{n-1}, where D has a stored form.

        L is its eigenvalues lambda_k^h. D is the vector d_k for a Green kernel,
        and for a table the symmetric part of its dense projection.
        """
        lap = self.grid.basis.eigenvalues_discrete[1:]
        if self.km.symbols is not None:
            return lap, self.drift_symbol[1:]
        asym = self.km.symmetry_residual
        if asym > _SYMMETRY_TOL:
            raise UnsupportedKernelError(
                f"kernel value matrix asymmetric (residual {asym:.2e}); "
                "the Rayleigh characterization needs a symmetric kernel"
            )
        drift = self.grid.basis.project(self.drift)[1:, 1:]
        return lap, 0.5 * (drift + drift.T)


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


def _finite(values, mass: float):
    """values, refused when one of them has left the doubles at this mass."""
    if not np.isfinite(values).all():
        raise InvalidParameterError(
            f"mass level M = {mass:g} takes S(M) or its eigenpair beyond the largest double"
        )
    return values


def _block_solve(family: LinearizedFamily, mass: float) -> tuple:
    """(eigenvalue, mode coefficients, scale) of a Gaussian or power-law S(M).

    The block eigensolver on diag(lambda_k^h) + M D_r, D_r = `reduced_drift`,
    starts at the modes where the circulant estimate lambda_k^h + M e_k is
    smallest, and is preconditioned by (lambda_k^h + M e_k - shift)^-1 with
    the shift below the estimate's minimum. The scale is |e_{n-1} . S e_{n-1}|
    or |eigenvalue|, whichever is larger: both are at most the 2-norm of the
    reduced operator, so at most its infinity norm.
    """
    lap = family.grid.basis.eigenvalues_discrete[1:]
    estimate, last = family.drift_diagonal
    diagonal = lap + mass * estimate
    order = np.argsort(diagonal, kind="stable")[: min(_BLOCK, lap.size)]
    start = np.zeros((lap.size, order.size))
    start[order, np.arange(order.size)] = 1.0
    # a shift just below the minimum makes the preconditioner near singular on one
    # mode, which stalls the iteration; one far below flattens it to the identity
    low = float(diagonal[order[0]])
    shifted = diagonal - (low - 1.0 - 0.01 * abs(low))

    def operator(coef):  # refused when not finite, before the projection's eigh reads it
        return _finite(lap[:, None] * coef + mass * family.reduced_drift(coef), mass)

    scale = max(abs(lap[-1] + mass * last), 1.0)
    lam, coef = smallest_eigenpair(
        operator, start, _SOLVE_TOL, scale, precond=lambda r: r / shifted[:, None]
    )
    return lam, coef, max(scale, abs(lam))


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
    km, grid = family.km, family.grid
    if km.symbols is not None:  # S(M) is diagonal in the modes
        lap, drift = family.reduced
        symbol = lap + mass_level * drift
        k = int(np.argmin(symbol))
        lam, vec = float(symbol[k]), grid.basis.mode(k + 1)
        d_vec = divergence(apply_grad(km, vec), grid)
        scale = float(np.abs(symbol).max())
    else:
        if km.spec.variant == "tabulated":
            from scipy.linalg import eigh  # a table's direct solve is the one use of SciPy

            lap, drift = family.reduced
            reduced = _finite(np.diag(lap) + mass_level * drift, mass_level)
            eigvals, eigvecs = eigh(reduced, subset_by_index=[0, 0])
            lam, coef = float(eigvals[0]), eigvecs[:, 0]
            scale = np.linalg.norm(reduced, np.inf)
        else:
            lam, coef, scale = _block_solve(family, mass_level)
        vec = grid.basis.from_spectral(np.concatenate(([0.0], coef)))
        d_vec = family.symmetric_drift(vec)
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
    if km.symbols is not None:
        return float(km.symbols[0][1])
    w1 = km.grid.basis.mode(1)
    return float(km.grid.h * (w1 @ apply(km, w1)))


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
