"""Uniform cell-centered discretization of [0,1] with Neumann boundary handling.

Fields live as cell averages; discrete gradients live on the n+1 cell faces,
with the two boundary faces pinned to zero flux. The sampled cosine modes
w_0 = 1, w_k = sqrt(2) cos(k pi x) form an exactly orthonormal discrete basis
under midpoint quadrature, which diagonalizes the discrete Neumann Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n cells on [0,1]; centers at (i+1/2)h, faces at ih."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise InvalidParameterError(f"need n >= 4 cells, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @cached_property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.h

    @cached_property
    def faces(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h


@dataclass(frozen=True)
class Field:
    """Cell-average vector on a grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise InvalidParameterError(
                f"field length {values.shape} does not match grid n={self.grid.n}"
            )
        object.__setattr__(self, "values", values)

    @property
    def mass(self) -> float:
        return self.grid.h * float(self.values.sum())

    def with_values(self, values) -> "Field":
        return Field(self.grid, np.asarray(values, dtype=float))


def constant_field(grid: Grid1D, value: float) -> Field:
    return Field(grid, np.full(grid.n, float(value)))


def lp_norm(f, p: float, grid: Grid1D | None = None) -> float:
    """L^p norm with weight h per entry; p = inf gives the max norm.

    Takes a Field (midpoint quadrature over cells), or a face vector with its
    grid (weight h per face).
    """
    if p < 1:
        raise InvalidParameterError(f"p must be in [1, inf], got {p}")
    if isinstance(f, Field):
        grid, f = f.grid, f.values
    elif grid is None:
        raise InvalidParameterError("the L^p norm of a face vector needs its grid")
    v = np.abs(np.asarray(f, dtype=float))
    if np.isinf(p):
        return float(v.max(initial=0.0))
    return float((grid.h * np.sum(v**p)) ** (1.0 / p))


def gradient(u, grid: Grid1D) -> np.ndarray:
    """Cells -> faces along axis 0: (u_{i+1}-u_i)/h, boundary faces 0 (zero flux)."""
    u = np.asarray(u, dtype=float)
    if u.shape[:1] != (grid.n,):
        raise InvalidParameterError(
            f"cell array shape {u.shape} does not match grid (need n={grid.n} rows)"
        )
    g = np.zeros((grid.n + 1,) + u.shape[1:])
    g[1:-1] = np.diff(u, axis=0) / grid.h
    return g


def divergence(g, grid: Grid1D) -> np.ndarray:
    """Faces -> cells along axis 0: (g_{i+1}-g_i)/h."""
    g = np.asarray(g, dtype=float)
    if g.shape[:1] != (grid.n + 1,):
        raise InvalidParameterError(
            f"face array shape {g.shape} does not match grid (need n+1={grid.n + 1} rows)"
        )
    return np.diff(g, axis=0) / grid.h


def project_zero_mean(f: Field) -> Field:
    return f.with_values(f.values - f.values.mean())


class SpectralBasis:
    """Neumann cosine eigenpairs of -Laplace on [0,1], sampled at cell centers.

    Continuum eigenvalues are (k pi)^2; the matching eigenvalues of the
    three-point discrete Neumann Laplacian are (2/h^2)(1 - cos(k pi h)).
    Both are exposed: thresholds use the continuum values, time evolution
    the discrete ones.
    """

    def __init__(self, grid: Grid1D):
        self.grid = grid
        n = grid.n
        k = np.arange(n)
        self.wavenumbers = k
        self.eigenvalues = (k * np.pi) ** 2
        self.eigenvalues_discrete = (2.0 / grid.h**2) * (1.0 - np.cos(k * np.pi * grid.h))
        # modes[:, k] = w_k at cell centers
        modes = np.cos(np.outer(grid.centers, k * np.pi))
        modes[:, 1:] *= np.sqrt(2.0)
        self.modes = modes

    def mode(self, k: int) -> Field:
        if not 0 <= k < self.grid.n:
            raise InvalidParameterError(f"mode index {k} outside [0, {self.grid.n})")
        return Field(self.grid, self.modes[:, k].copy())

    def to_spectral(self, f: Field) -> np.ndarray:
        if f.grid != self.grid:
            raise InvalidParameterError("field grid does not match basis grid")
        return self.grid.h * (self.modes.T @ f.values)

    def from_spectral(self, c: np.ndarray) -> Field:
        c = np.asarray(c, dtype=float)
        if c.shape != (self.grid.n,):
            raise InvalidParameterError("coefficient length does not match basis")
        return Field(self.grid, self.modes @ c)
