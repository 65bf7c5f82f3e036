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

# the most float values one array may hold (800 MB): larger runs and dense
# samples are refused before they allocate
MAX_STORED_VALUES = 10**8


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


def _rows(a, rows: int, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape[:1] != (rows,):
        raise InvalidParameterError(f"{what} shape {a.shape} does not match grid ({rows} rows)")
    return a


def gradient(u, grid: Grid1D) -> np.ndarray:
    """Cells -> faces along axis 0: (u_{i+1}-u_i)/h, boundary faces 0 (zero flux)."""
    u = _rows(u, grid.n, "cell array")
    g = np.zeros((grid.n + 1,) + u.shape[1:])
    g[1:-1] = np.diff(u, axis=0) / grid.h
    return g


def divergence(g, grid: Grid1D) -> np.ndarray:
    """Faces -> cells along axis 0: (g_{i+1}-g_i)/h."""
    return np.diff(_rows(g, grid.n + 1, "face array"), axis=0) / grid.h


def project_zero_mean(f: Field) -> Field:
    return f.with_values(f.values - f.values.mean())


class SpectralBasis:
    """Neumann cosine eigenpairs of -Laplace on [0,1], sampled at cell centers.

    Mode coefficients c_k = h sum_i u_i w_k(x_i) are sqrt(h) times the
    orthonormal DCT-II of u; every change of basis goes through that transform,
    computed with NumPy's FFT (scipy.fft would load scipy.special, about 5 MB).
    Continuum eigenvalues are (k pi)^2; the matching eigenvalues of the
    three-point discrete Neumann Laplacian are (2/h^2)(1 - cos(k pi h)).
    Both are exposed: thresholds use the continuum values, time evolution
    the discrete ones.
    """

    def __init__(self, grid: Grid1D):
        self.grid = grid
        n = grid.n
        k = np.arange(n)
        self.eigenvalues = (k * np.pi) ** 2
        self.eigenvalues_discrete = (2.0 / grid.h**2) * (1.0 - np.cos(k * np.pi * grid.h))
        # the transforms' twiddle factors, functions of pi k / 2n alone
        angle = (0.5 * np.pi / n) * k
        self._cos, self._sin = np.cos(angle), np.sin(angle)
        self._shift = (n / np.sqrt(2.0)) * np.exp(1j * angle[: n // 2 + 1])

    def mode(self, k: int) -> Field:
        if not 0 <= k < self.grid.n:
            raise InvalidParameterError(f"mode index {k} outside [0, {self.grid.n})")
        w = np.cos(self.grid.centers * (k * np.pi))
        return Field(self.grid, w * np.sqrt(2.0) if k > 0 else w)

    def to_spectral(self, u) -> np.ndarray:
        """Mode coefficients of cell values, along axis 0."""
        u = _rows(u, self.grid.n, "cell array")
        n, half = self.grid.n, self.grid.n // 2 + 1
        cos, sin = _along_axis0(self._cos, u.ndim), _along_axis0(self._sin, u.ndim)
        # Makhoul's DCT-II: V = FFT of the even samples followed by the odd ones reversed,
        # c_k ~ Re(e^{-i pi k / 2n} V_k), and V_k = conj(V_{n-k}) as the samples are real
        spec = np.fft.rfft(np.concatenate((u[::2], u[1::2][::-1])), axis=0)
        re, im = spec.real, spec.imag
        c = np.empty(u.shape)
        c[:half] = cos[:half] * re + sin[:half] * im
        c[half:] = cos[half:] * re[n - half : 0 : -1] - sin[half:] * im[n - half : 0 : -1]
        c *= np.sqrt(2.0) / n
        c[0] /= np.sqrt(2.0)
        return c

    def from_spectral(self, c) -> np.ndarray:
        """Cell values of mode coefficients, along axis 0."""
        c = _rows(c, self.grid.n, "coefficient array")
        n, half = self.grid.n, self.grid.n // 2 + 1
        # to_spectral undone: V_k = (n / sqrt 2) e^{i pi k / 2n} (c_k - i c_{n-k}), with c_0
        # weighted by sqrt 2 and c_n = 0; one inverse real FFT; the sample order restored
        spec = np.zeros((half,) + c.shape[1:], dtype=complex)
        spec[1:] = c[: n - half : -1]
        spec *= -1j
        spec += c[:half]
        spec[0] *= np.sqrt(2.0)
        spec *= _along_axis0(self._shift, c.ndim)
        v = np.fft.irfft(spec, n, axis=0)
        u = np.empty(c.shape)
        u[::2] = v[: (n + 1) // 2]
        u[1::2] = v[(n + 1) // 2 :][::-1]
        return u

    def project(self, a) -> np.ndarray:
        """Matrix in the modes of the n x n operator a: entry (j, k) is h w_j . (a w_k)."""
        return self.to_spectral(self.to_spectral(a).T).T / self.grid.h


def _along_axis0(v: np.ndarray, ndim: int) -> np.ndarray:
    """The vector v shaped to act along axis 0 of an ndim-dimensional array."""
    return v.reshape((-1,) + (1,) * (ndim - 1))
