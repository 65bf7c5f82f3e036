"""Uniform cell-centered discretization of [0,1] with Neumann boundary handling.

A state is a NumPy array of cell averages along axis 0. It carries no grid: a
function reads the grid from the kernel or operator it takes, or from a
`grid` argument right after the array. Discrete gradients live on the n+1
cell faces, and the Neumann condition lives here: `gradient` pins the two
boundary faces to zero flux and `divergence` reads them as zero flux, so
-divergence is the exact adjoint of gradient. The sampled cosine modes
w_0 = 1, w_k = sqrt(2) cos(k pi x) form an exactly orthonormal discrete
basis under midpoint quadrature, which diagonalizes the discrete Neumann
Laplacian.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError

# the most float values one array may hold (800 MB); check_size refuses more
MAX_STORED_VALUES = 10**8
# the log of the largest double: e^x overflows above it
LOG_MAX_DOUBLE = math.log(np.finfo(float).max)
# the smallest normal double: a sum below it has lost digits
SMALLEST_NORMAL = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n cells on [0,1]; centers at (i+1/2)h, faces at ih."""

    n: int

    def __post_init__(self):
        n = check_count(self.n, "the cell count n", 4)
        object.__setattr__(self, "n", check_size(n, f"a grid of n = {n} cells"))

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @cached_property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.h

    @cached_property
    def faces(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h

    @cached_property
    def basis(self) -> SpectralBasis:
        """The grid's Neumann cosine modes, built once per grid."""
        return SpectralBasis(self)


def check_count(value, what: str, least: int) -> int:
    """value as an int, refused unless it is an integer (NumPy's included; no float) >= least."""
    try:
        count = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{what} must be an integer, got {value!r}") from None
    if count < least:
        raise InvalidParameterError(f"need {what} >= {least}, got {count}")
    return count


def check_size(count, what: str):
    """count, the values that what would hold, refused above MAX_STORED_VALUES (NaN too)."""
    if count <= MAX_STORED_VALUES:
        return count
    limit = f"the limit is {MAX_STORED_VALUES:.0e}"
    raise InvalidParameterError(f"{what} holds {count:.3g} values; {limit}")


def check_real(value, what: str, low: float, strict: bool = False, finite: bool = True):
    """value, refused unless it is a real number (bool too, as in check_count) above low
    (strict) or at least low, and below inf unless not finite; NaN fails each comparison."""
    if not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{what} must be a real number, got {value!r}")
    if (value > low if strict else value >= low) and (value < math.inf or not finite):
        return value
    words = ("positive" if strict else "nonnegative") + (" and finite" if finite else "")
    interval = f"in {'(' if strict else '['}{low:g}, inf{')' if finite else ']'}"
    raise InvalidParameterError(f"{what} must be {words if low == 0 else interval}, got {value}")


def lp_norm(v, p: float, grid: Grid1D):
    """L^p norm along axis 0 with weight h per entry; p = inf gives the max norm.

    Takes cell values (midpoint quadrature over cells) or face values (weight h
    per face) on the grid: a float for one array, one norm per column of an
    (rows, m) array, each equal to the norm of that column alone.
    """
    check_real(p, "p", 1, finite=False)
    a = np.asarray(v, dtype=float)
    # F order, so that each column is summed contiguously, as a lone vector is
    v = np.abs(a, order="F")
    if np.isinf(p):
        norms = v.max(axis=0, initial=0.0)
    else:
        with np.errstate(over="ignore"):
            if p != 1:
                v **= p
            norms = sums = grid.h * v.sum(axis=0)
        # p = 1 takes no power: its sums are its norms, unless one overflowed (or is NaN)
        if p != 1 or not sums.max(initial=0.0) < math.inf:
            sums = np.ravel(sums)
            # a scalar root per column: NumPy's array power can move the last digit
            roots = [s ** (1.0 / p) for s in sums]
            # a sum that overflowed, or for p > 1 fell below the smallest normal double, is
            # redone with its column's peak divided out, so that its largest term is 1
            low = 0.0 if p == 1 else SMALLEST_NORMAL
            columns = a.reshape(len(a), math.prod(a.shape[1:]))
            for i in np.flatnonzero(~((low <= sums) & (sums < math.inf))):
                column = np.abs(columns[:, i])
                if 0 < (peak := column.max(initial=0.0)) < math.inf:  # not zero, no inf or NaN
                    roots[i] = peak * (grid.h * np.sum((column / peak) ** p)) ** (1.0 / p)
            norms = np.reshape(roots, v.shape[1:])
    return float(norms) if v.ndim == 1 else norms


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
    """Faces -> cells along axis 0: (g_{i+1}-g_i)/h, the boundary faces read as 0 (zero flux)."""
    g = _rows(g, grid.n + 1, "face array")
    d = g[1:] - g[:-1]
    d[0], d[-1] = g[1], 0.0 - g[-2]  # 0 - g, not -g: a zero keeps the sign np.diff gave it
    return np.divide(d, grid.h, out=d)


class SpectralBasis:
    """Neumann cosine eigenpairs of -Laplace on [0,1], sampled at cell centers.

    Mode coefficients c_k = h sum_i u_i w_k(x_i) are sqrt(h) times the
    orthonormal DCT-II of u; every change of basis goes through that transform,
    Makhoul's: one gather in (the even samples, then the odd ones reversed), one
    NumPy real FFT and one multiply by a twiddle built here with the scale and c_0's
    weight; back, their inverses and one gather out. A batch of columns copies its
    two halves instead, faster than a gather (scipy.fft loads scipy.special, 5 MB).
    The eigenvalues of the three-point discrete Neumann Laplacian are
    (2/h^2)(1 - cos(k pi h)), below the continuum (k pi)^2; time evolution
    uses them, and the stability thresholds the continuum LAMBDA_1 = pi^2.
    """

    def __init__(self, grid: Grid1D):
        self.grid = grid
        n = grid.n
        k = np.arange(n)
        self.eigenvalues_discrete = (2.0 / grid.h**2) * (1.0 - np.cos(k * np.pi * grid.h))
        # e^{-+i pi k / 2n} on the half spectrum, times sqrt(2)/n and n/sqrt(2); c_0's weight at 0
        turn = np.exp(1j * ((0.5 * np.pi / n) * k[: n // 2 + 1]))
        self._twiddle, self._shift = (np.sqrt(2.0) / n) * turn.conj(), (n / np.sqrt(2.0)) * turn
        self._twiddle[0], self._shift[0] = 1.0 / n, n
        # Makhoul's sample order, the even samples then the odd ones reversed, and its inverse
        self._order, self._restore = np.concatenate((k[::2], k[1::2][::-1])), np.empty_like(k)
        self._restore[self._order] = k

    def mode(self, k: int) -> np.ndarray:
        k = check_count(k, "the mode index", 0)
        if not k < self.grid.n:
            raise InvalidParameterError(f"mode index {k} outside [0, {self.grid.n})")
        w = np.cos(self.grid.centers * (k * np.pi))
        return w * np.sqrt(2.0) if k > 0 else w

    def to_spectral(self, u) -> np.ndarray:
        """Mode coefficients of cell values, along axis 0."""
        u = _rows(u, self.grid.n, "cell array")
        n, half = self.grid.n, self.grid.n // 2 + 1
        # Makhoul's DCT-II: V = FFT of the even samples followed by the odd ones reversed; with
        # W = twiddle V, c_k = Re W_k below half and -Im W_{n-k} above, as V_k = conj(V_{n-k})
        spec = np.fft.rfft(
            u[self._order] if u.ndim == 1 else np.concatenate((u[::2], u[1::2][::-1])), axis=0
        )
        spec *= _along_axis0(self._twiddle, u.ndim)
        c = np.empty(u.shape)
        c[:half] = spec.real
        np.negative(spec.imag[n - half : 0 : -1], out=c[half:])
        return c

    def from_spectral(self, c) -> np.ndarray:
        """Cell values of mode coefficients, along axis 0."""
        c = _rows(c, self.grid.n, "coefficient array")
        n, half = self.grid.n, self.grid.n // 2 + 1
        # to_spectral undone: V_k = shift_k (c_k - i c_{n-k}) with c_n = 0, filled part by
        # part; one inverse real FFT; the sample order restored. A batch of F-ordered
        # columns keeps its order, so that each column is filled and stored contiguously
        order = "F" if c.flags.f_contiguous else "C"
        spec = np.empty((half,) + c.shape[1:], dtype=complex, order=order)
        spec.real, spec.imag[0] = c[:half], 0.0
        np.negative(c[: n - half : -1], out=spec.imag[1:])
        spec *= _along_axis0(self._shift, c.ndim)
        v = np.fft.irfft(spec, n, axis=0)
        if c.ndim == 1:
            return v[self._restore]
        u = np.empty(c.shape, order=order)
        u[::2] = v[: (n + 1) // 2]
        u[1::2] = v[(n + 1) // 2 :][::-1]
        return u

    def project(self, a) -> np.ndarray:
        """Matrix in the modes of the n x n operator a: entry (j, k) is h w_j . (a w_k)."""
        return self.to_spectral(self.to_spectral(a).T).T / self.grid.h


def _along_axis0(v: np.ndarray, ndim: int) -> np.ndarray:
    """The vector v shaped to act along axis 0 of an ndim-dimensional array."""
    return v if ndim == 1 else v.reshape((-1,) + (1,) * (ndim - 1))
