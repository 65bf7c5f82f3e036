"""The smallest eigenpair of a symmetric operator known only by its action.

Knyazev's LOBPCG (SIAM J. Sci. Comput. 23, 2001): each step is a Rayleigh-Ritz
projection onto the span of the current block, its preconditioned residuals
and the last step's direction. The new directions are orthonormalized against
the block and among themselves before the operator is applied to them, so the
projected matrix carries the roundoff of one action, whatever the angles
between the directions.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

# steps before the solver gives up; the kernels of the tests take at most about 110
_MAX_ITER = 1000


def _orthonormal_complement(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning z with the span of the orthonormal x projected out.

    Projected twice, so that what roundoff leaves of x after the first pass is
    removed too; a column that x and the others span to within roundoff becomes
    some unit direction orthogonal to them, which a Rayleigh-Ritz step tolerates.
    """
    for _ in range(2):
        z = z - x @ (x.T @ z)
        z = np.linalg.qr(z)[0]
    return z


def smallest_eigenpair(op, start: np.ndarray, rtol: float, scale=0.0, precond=None) -> tuple:
    """(eigenvalue, unit eigenvector) of the smallest eigenvalue of op.

    op maps an (m, j) block to its image; `start` is an (m, k) block of
    orthonormal columns, whose width fixes the block size; precond maps a block
    of residuals to search directions, the identity if None. Stops once the
    first Ritz pair (theta, x) has |op x - theta x| <= rtol max(scale, |theta|),
    and raises ConvergenceError if that takes more than _MAX_ITER steps. On
    m <= 3k rows the space is its own trial basis.
    """
    m, k = start.shape
    if 3 * k >= m:  # three blocks would span the space: one Rayleigh-Ritz step on all of it
        start = np.eye(m)
    basis, image = start, op(start)
    for _ in range(_MAX_ITER + 1):
        projected = basis.T @ image
        theta, y = np.linalg.eigh(0.5 * (projected + projected.T))
        theta, y = theta[:k], y[:, :k]
        x, ax = basis @ y, image @ y
        residual = ax - x * theta
        # the residual norm scaled by its largest entry, whose square could overflow
        peak = np.abs(residual[:, 0]).max() or 1.0
        if peak * np.linalg.norm(residual[:, 0] / peak) <= rtol * max(scale, abs(theta[0])):
            return float(theta[0]), x[:, 0]
        directions = residual if precond is None else precond(residual)
        if basis.shape[1] > k:  # the step's direction: the part of the new block outside the old
            directions = np.hstack((directions, basis[:, k:] @ y[k:]))
        directions = _orthonormal_complement(directions, x)
        basis, image = np.hstack((x, directions)), np.hstack((ax, op(directions)))
    raise ConvergenceError(f"the block eigensolver did not converge in {_MAX_ITER} steps")
