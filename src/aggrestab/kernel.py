"""Aggregation kernels K(x,y), their integral operators and norm estimates.

Built-in families: the chemotaxis Green function on [0,1] (the Neumann Green
function of -d^2/dx^2 + a, in closed form for every a > 0), a truncated
Gaussian, a power-law gradient family bracketing the critical integrability
exponent, and tabulated data. Values are sampled at cell centers; x-gradients
at cell faces, so the gradient is never evaluated on its diagonal jump.

The kernel actions `apply`, `apply_grad` and the adjoint `apply_grad_adjoint`
take values along axis 0, of shape (n,) or (n, m) (n + 1 rows for face
values), as `grid`'s operators do, and return arrays. `KernelMatrices(spec,
grid)` is the kernel on the grid as one of three classes, whose methods give
every action, norm, residual, the operator D = div(grad K(.)) of the
linearization and its solve; only a table acts by a dense product:

- `_Symbols`, a Green kernel: at cell centers and faces every cosine mode above
  n aliases onto a DCT mode, so K and grad K have exact O(n) symbols. `apply`
  and `apply_grad_adjoint` act by them, O(n log n), and `apply_grad` by two
  decaying scans (`_DecayScan`), O(n), as grad K is separable on each side
  of the diagonal. A norm level's row and column sums are such scans.
- `_Convolution`, a Gaussian or power-law kernel: K and grad K depend on
  x - y alone, so their samples are Toeplitz matrices of 2n offsets. Each
  action is one zero-padded real FFT (`_Toeplitz`), O(n log n) per column,
  and a norm level's sums are windows of the offsets.
- `_Table`, a tabulated kernel: products with the stored table, O(n^2) per column.

The mixed gradient norms are estimated on a refinement ladder, in O(n) work
and memory per level but for a table, until it resolves the kernel's length scale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .eigen import smallest_eigenpair
from .errors import InvalidParameterError, KernelLoadError, SingularityError, UnsupportedKernelError
from .grid import LOG_MAX_DOUBLE, MAX_STORED_VALUES, Grid1D, _along_axis0, _rows, check_real
from .grid import check_size, divergence, gradient, lp_norm

# the two Green variants are one family: green_closed_form is a = 1
_GREEN = ("green_closed_form", "green_series")
# the KernelSpec fields each variant reads besides scale (a table reads its arrays)
VARIANT_PARAMETERS = {
    "green_closed_form": (),
    "green_series": ("a",),
    "gaussian": ("sigma",),
    "power_law_gradient": ("alpha", "delta"),
    "tabulated": (),
}

# the log of 3, the headroom that a mixed gradient norm needs over its peak sample
_LOG_3 = math.log(3.0)

# classification probe exponents, largest first
CLASSIFY_QPRIMES = (np.inf, 4.0, 2.0, 1.5, 1.1, 1.0)

# log-log slope of the refinement trend separating convergent from divergent
# norm estimates; between the two the trend is declared ambiguous
_SLOPE_FINITE = 0.05
_SLOPE_DIVERGENT = 0.15

# a ladder for a kernel of length scale l is extended by doubling until its
# finest level has n l >= _RESOLVED_CELLS, but past no level above _MAX_LEVEL
_RESOLVED_CELLS = 32
_MAX_LEVEL = 2**20

# a decay scan's blocks span at most this exponent: its weights e^{+-c i} stay
# within [1.6e-28, 6.2e27], so it overflows on no input below 1e270, and each
# weight carries at most 64 rounding units of its exponent
_SCAN_EXPONENT = 64.0

# the operator norm's block eigensolver: its width, and the residual, relative
# to the largest eigenvalue of A^T A, that stops it
_NORM_BLOCK = 8
_NORM_TOL = 1e-8

# the largest value-symmetry defect of a table that the linearized solve accepts
_SYMMETRY_TOL = 1e-8
# n x n arrays a table's linearized solve holds at its peak, in the second transform
# of its projection of D: the kernel's value and gradient samples, D, the first
# transform's output, and the second's reordered input, FFT and output
_DENSE_ARRAYS = 7
# the block eigensolver's width on a convolution's S(M), and the 2-norm of its
# residual in the modes, relative to the check's scale, that stops it
_BLOCK = 4
_SOLVE_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """One kernel definition; use the classmethod constructors."""

    variant: str
    a: float = 1.0
    sigma: float = 0.1
    alpha: float = 0.5
    delta: float = 0.0
    table_values: np.ndarray | None = None
    table_grad: np.ndarray | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANT_PARAMETERS:
            raise InvalidParameterError(f"unknown kernel variant {self.variant!r}")
        check_real(self.scale, "kernel scale", -math.inf, strict=True)
        if self.variant in _GREEN:
            check_real(self.a, "Green a", 0, strict=True)
            if self.variant == "green_closed_form" and self.a != 1:
                raise InvalidParameterError(f"green_closed_form has a = 1, got a = {self.a:g}")
        if self.variant == "gaussian":
            check_real(self.sigma, "gaussian sigma", 0, strict=True)
        if self.variant == "power_law_gradient":
            check_real(self.alpha, "power-law alpha", 0, strict=True)
            check_real(self.delta, "power-law delta", 0)
            if self.delta == 0 and self.alpha >= 1:
                raise InvalidParameterError(
                    "power law with delta = 0 needs alpha < 1 (gradient not integrable)"
                )
        if self.variant == "tabulated":
            if self.table_values is None or self.table_grad is None:
                raise InvalidParameterError("tabulated kernel needs value and gradient tables")
            n = self.table_values.shape[0]
            if self.table_values.shape != (n, n) or self.table_grad.shape != (n + 1, n):
                raise InvalidParameterError(
                    "tabulated tables must be n x n (values) and (n+1) x n (gradient)"
                )
            if not (np.isfinite(self.table_values).all() and np.isfinite(self.table_grad).all()):
                raise InvalidParameterError("tabulated kernel tables must be finite")
        # the samples are computed unscaled, then scaled: both must be finite doubles
        if self._log_reach() + math.log(max(1.0, abs(self.scale))) > LOG_MAX_DOUBLE:
            at = "".join(f"{k} = {getattr(self, k):g}, " for k in VARIANT_PARAMETERS[self.variant])
            raise InvalidParameterError(
                f"the {self.variant} kernel at {at}scale = {self.scale:g} has values or norms "
                "beyond the largest double"
            )

    def _log_reach(self) -> float:
        """A bound on the log of the largest magnitude that an unscaled sample on [0,1],
        or a factor it is computed from, reaches, and of 3 times the peak |grad K|: a
        mixed gradient norm is at most (2 + h) times that peak."""
        if self.variant in _GREEN:
            # K <= coth(s) / s <= (1 + s) / a with s = sqrt(a), as is h K 1; |grad K| <= 1
            return max(math.log1p(math.sqrt(self.a)) - math.log(self.a), _LOG_3)
        if self.variant == "gaussian":  # sigma^2 and (x - y) / sigma^2; |grad K| <= 1 / sigma
            return max(2.0 * abs(math.log(self.sigma)), _LOG_3 - math.log(self.sigma))
        if self.variant == "tabulated":
            tables = (self.table_values, self.table_grad)
            values, grad = (float(max(t.max(initial=0.0), -t.min(initial=0.0))) for t in tables)
            return math.log(max(1.0, values, 3.0 * grad))  # 3 times 1e308 is inf: refused
        if self.delta == 0:  # alpha < 1: |K| <= 1 / (1 - alpha), and r^-alpha in grad K peaks
            # at the finest sample, r = h / 2, where check_size bounds any grid's 2n
            peak = self.alpha * math.log(2.0 * MAX_STORED_VALUES)
            return max(_LOG_3 + peak, -math.log1p(-self.alpha))
        # grad K peaks at delta^-alpha, and K is made of (r + delta)^(1 - alpha), 0 <= r <= 1
        log_delta = math.log(self.delta)
        ends = (log_delta, math.log1p(self.delta))
        return max(_LOG_3 - self.alpha * log_delta, *((1.0 - self.alpha) * end for end in ends))

    @classmethod
    def green_closed_form(cls, scale=1.0):
        return cls("green_closed_form", a=1.0, scale=scale)

    @classmethod
    def green_series(cls, a, scale=1.0):
        return cls("green_series", a=float(a), scale=scale)

    @classmethod
    def gaussian(cls, sigma, scale=1.0):
        return cls("gaussian", sigma=float(sigma), scale=scale)

    @classmethod
    def power_law(cls, alpha, delta=0.0, scale=1.0):
        return cls("power_law_gradient", alpha=float(alpha), delta=float(delta), scale=scale)

    @classmethod
    def tabulated(cls, values, grad, scale=1.0):
        return cls(
            "tabulated",
            table_values=np.asarray(values, dtype=float),
            table_grad=np.asarray(grad, dtype=float),
            scale=scale,
        )

    @classmethod
    def zero(cls, n):
        return cls.tabulated(np.zeros((n, n)), np.zeros((n + 1, n)))


@dataclass(frozen=True)
class KernelNormEstimate:
    """Grid estimate of the mixed sup/L^q' gradient norm with its trend."""

    q_prime: float
    value: float
    refinement_trend: tuple
    verdict: str  # finite | divergent | ambiguous


@dataclass(frozen=True)
class KernelValidationReport:
    neumann_residual: float
    neumann_ok: bool
    mean_gradient_residual: float
    mean_gradient_ok: bool
    symmetry_residual: float
    norm_estimates: dict
    norms_finite: bool
    hilbert_schmidt_norm: float
    classification: KernelClassification

    @property
    def passed(self) -> bool:
        return self.neumann_ok and self.mean_gradient_ok and self.norms_finite


@dataclass(frozen=True)
class KernelClassification:
    category: str  # mildly_singular | strongly_singular | undetermined
    critical_q_prime: float | None
    estimates: dict


def _green(a, x, y):
    """Neumann Green function of -d^2/dx^2 + a on [0,1].

    cosh(s(1 - max(x, y))) cosh(s min(x, y)) / (s sinh s) with s = sqrt(a),
    written with exponents <= 0 only, so it cannot overflow.
    """
    s, d = math.sqrt(a), np.abs(x - y)
    num = np.exp(-s * d) + np.exp(-s * (2 - d)) + np.exp(-s * (x + y)) + np.exp(-s * (2 - x - y))
    return num / (2.0 * s * -math.expm1(-2.0 * s))


def _green_p(s, x):
    """sinh(s x) e^{-s x} / (sinh(s) e^{-s}), in [0, 1]."""
    return np.expm1(-2.0 * s * x) / math.expm1(-2.0 * s)


def _green_q(s, y):
    """cosh(s (1 - y)) e^{-s (1 - y)}, in [1/2, 1]."""
    return 0.5 * (1.0 + np.exp(-2.0 * s * (1.0 - y)))


def _green_dx(a, x, y, dist=None):
    """x-derivative of `_green`; the average of the one-sided ones at x = y.

    For x < y it is sinh(s x) cosh(s (1 - y)) / sinh s = e^{-s (y - x)} p(x) q(y)
    with s = sqrt(a); for x > y the mirror (x, y) -> (1 - x, 1 - y) with a minus
    sign. Every factor lies in [0, 1] and off the diagonal only one side's term
    is nonzero, so nothing cancels as a -> 0 and nothing overflows. `dist`, if
    given, is |x - y|.
    """
    s = math.sqrt(a)
    w = 0.5 * (1.0 + np.sign(y - x))  # 1 for x < y, 0 for x > y, 1/2 at x = y
    # built in place, so a dense (n+1) x n sample peaks at four such arrays
    out = w * _green_p(s, x) * _green_q(s, y)
    out -= (1.0 - w) * _green_p(s, 1.0 - x) * _green_q(s, 1.0 - y)
    del w
    out *= np.exp(-s * (np.abs(x - y) if dist is None else dist))
    return out


def _green_symbols(spec: KernelSpec, grid: Grid1D) -> tuple:
    """Exact (sigma_k, t_k, e_k) of the Green kernel on the grid, k = 0..n-1.

    With s = sqrt(a), c = s h / 2 and theta_k = k pi h / 2, the aliased mode
    sums are sigma_k = sinh(2c) / (4 n s (sinh^2 c + sin^2 theta_k)) and
    t_k = -(h/2) sin(theta_k) cosh(c) / (sinh^2 c + sin^2 theta_k); they and
    e_k = -h t_k / (2 sin theta_k) are divided through by cosh^2 c: no overflow.
    """
    s, h = math.sqrt(spec.a), grid.h
    c = 0.5 * s * h
    sech = 2.0 * math.exp(-c) / (1.0 + math.exp(-2.0 * c))
    sin_theta = np.sin(np.arange(1, grid.n) * (0.5 * np.pi * h))
    denom = (sech * sin_theta) ** 2 + math.tanh(c) ** 2
    # k = 0, the constant mode (grad K 1 = 0), is set apart: its denominator
    # tanh^2 c alone underflows for a tiny a
    sigma = np.concatenate(([h / (2.0 * s * math.tanh(c))], h * math.tanh(c) / (2.0 * s) / denom))
    t = np.concatenate(([0.0], -0.5 * h * sech * sin_theta / denom))
    e = np.concatenate(([0.0], 0.25 * h * h * sech / denom))
    return spec.scale * sigma, spec.scale * t, spec.scale * e


def _power_law_value(spec, r):
    r = np.asarray(r, dtype=float)
    if spec.alpha == 1.0:
        return -np.log((r + spec.delta) / spec.delta)
    out = (r + spec.delta) ** (1.0 - spec.alpha)
    if spec.delta > 0:
        out = out - spec.delta ** (1.0 - spec.alpha)
    return -out / (1.0 - spec.alpha)


def eval_kernel(spec: KernelSpec, x, y):
    """Pointwise K(x,y); accepts scalars or broadcastable arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.variant in _GREEN:
        out = _green(spec.a, x, y)
    elif spec.variant == "gaussian":
        out = np.exp(-((x - y) ** 2) / (2.0 * spec.sigma**2))
    elif spec.variant == "power_law_gradient":
        out = _power_law_value(spec, np.abs(x - y))
    else:
        raise InvalidParameterError("tabulated kernels have no off-grid evaluation")
    return spec.scale * out


def eval_grad_x(spec: KernelSpec, x, y):
    """Pointwise x-derivative of K; undefined on the diagonal for delta = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.variant in _GREEN:
        out = _green_dx(spec.a, x, y)
    elif spec.variant == "gaussian":
        out = -(x - y) / spec.sigma**2 * np.exp(-((x - y) ** 2) / (2.0 * spec.sigma**2))
    elif spec.variant == "power_law_gradient":
        r = np.abs(x - y)
        if spec.delta == 0 and np.any(r == 0):
            raise SingularityError("power-law gradient is singular on the diagonal")
        out = -np.sign(x - y) * (r + spec.delta) ** (-spec.alpha)
    else:
        raise InvalidParameterError("tabulated kernels have no off-grid evaluation")
    return spec.scale * out


class _Toeplitz:
    """The (r x n) Toeplitz matrix T[i, j] = t[i - j + n - 1] of r + n - 1 offsets t.

    T u along axis 0 is rows n-1..n+r-2 of the linear convolution t * u, and
    T^T v is rows r-1..r+n-2 of t * (v reversed), reversed. A circular
    convolution of size 2n >= r + n - 1 wraps only onto rows outside those,
    so either is one zero-padded real FFT (Chan & Ng, SIAM Rev. 38, 1996).
    """

    def __init__(self, t: np.ndarray, n: int):
        self.n, self.rows = n, t.size - n + 1
        self.spectrum = np.fft.rfft(t, 2 * n)

    def _convolve(self, v: np.ndarray, first: int, count: int) -> np.ndarray:
        size = 2 * self.n
        spec = np.fft.rfft(v, size, axis=0) * _along_axis0(self.spectrum, v.ndim)
        return np.fft.irfft(spec, size, axis=0)[first : first + count]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self._convolve(u, self.n - 1, self.rows)

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        return self._convolve(v[::-1], self.rows - 1, self.n)[::-1]


def _values_matrix(spec: KernelSpec, grid: Grid1D) -> np.ndarray:
    if spec.variant == "tabulated":
        return spec.scale * spec.table_values
    check_size((grid.n + 1) * grid.n, f"a dense kernel sample at n = {grid.n}")
    return np.asarray(eval_kernel(spec, grid.centers[:, None], grid.centers[None, :]))


def _gradk_matrix(spec: KernelSpec, grid: Grid1D) -> np.ndarray:
    if spec.variant == "tabulated":
        return spec.scale * spec.table_grad
    check_size((grid.n + 1) * grid.n, f"a dense kernel sample at n = {grid.n}")
    x, y = grid.faces[:, None], grid.centers[None, :]
    if spec.variant in _GREEN:
        # |x_f - y_j| from the index offset: the rounded coordinates are off by
        # up to 1e-16, which the factor e^{-s |x - y|} multiplies by s
        dist = np.abs(np.arange(grid.n + 1.0)[:, None] - (np.arange(grid.n) + 0.5)) * grid.h
        return spec.scale * _green_dx(spec.a, x, y, dist)
    return np.asarray(eval_grad_x(spec, x, y))


def assemble(spec: KernelSpec, grid: Grid1D) -> KernelMatrices:
    """The kernel on the grid: values at centers, gradient at faces, sampled when read."""
    return KernelMatrices(spec, grid)


def apply(km: KernelMatrices, u) -> np.ndarray:
    """Integral operator on cell values along axis 0: result_i = h sum_j K(x_i, y_j) u_j."""
    return km.apply(_rows(u, km.grid.n, "cell array"))


def apply_grad(km: KernelMatrices, u, out=None) -> np.ndarray:
    """Gradient of the integral operator on cell values along axis 0, at faces; in out if given."""
    return km.apply_grad(_rows(u, km.grid.n, "cell array"), out)


def apply_grad_adjoint(km: KernelMatrices, v) -> np.ndarray:
    """The adjoint of `apply_grad`, face values to cell values along axis 0."""
    return km.apply_grad_adjoint(_rows(v, km.grid.n + 1, "face array"))


def hilbert_schmidt_grad_norm(km: KernelMatrices) -> float:
    """L^2(Omega x Omega) norm of the gradient kernel, h times the Frobenius norm of its sample."""
    return km.hilbert_schmidt_grad_norm()


def l2_operator_norm(km: KernelMatrices) -> float:
    """Largest singular value of u -> grad K(u) between L^2 spaces: with uniform quadrature
    weight h on both sides, the Euclidean spectral norm of A = h * gradk_faces."""
    return km.l2_operator_norm()


def _scaled_norm(values: np.ndarray, weights=1.0) -> float:
    """sqrt(sum weights * values^2), scaled exactly by the power of two of the
    largest |value|, so no square overflows."""
    _, exp = math.frexp(float(np.abs(values).max(initial=0.0)))
    scaled = np.ldexp(values, -exp)
    return float(np.ldexp(np.sqrt(np.sum(weights * np.square(scaled))), exp))


def _finite(values, mass: float):
    """values, refused when one of them has left the doubles at this mass."""
    if not np.isfinite(values).all():
        raise InvalidParameterError(
            f"mass level M = {mass:g} takes S(M) or its eigenpair beyond the largest double"
        )
    return values


def _mixed_norm(sums, peak: float, h: float, q_prime: float) -> float:
    """sup_x (h sum_y |grad K|^q')^(1/q') plus the same over y.

    sums(q') gives the row and column sums of (|grad K| / peak)^q'. Their largest
    term is 1, so at any q' no sum overflows or falls below the smallest normal
    double; a zero peak, where every sample underflowed, gives 0.
    """
    if peak == 0:
        return 0.0
    return peak * sum(float(np.max(h * s, initial=0.0)) ** (1.0 / q_prime) for s in sums(q_prime))


class _DecayScan:
    """out_r = post_r sum_{k <= r} e^{-c (r - k)} pre_k v_k along axis 0 of n rows, c >= 0.

    The rows are cut into blocks of at most L / c rows, L = _SCAN_EXPONENT.
    Within a block the sum is e^{-c r} times a cumulative sum of e^{c k} pre_k
    v_k (local indices), so no weight leaves [e^-L, e^L] for any c. The sums
    of the blocks before are carried in by a scan over the blocks. One block
    covers c n <= L: a Green kernel with a <= L^2 at any n. The weights, pre
    and post included, are O(n) and computed once.
    """

    def __init__(self, c: float, n: int, pre=1.0, post=1.0):
        self.block = n if c * n <= _SCAN_EXPONENT else max(1, int(_SCAN_EXPONENT / c))
        self.decay = math.exp(-c * self.block)
        grow = np.tile(np.exp(c * np.arange(self.block)), -(-n // self.block))[:n]  # e^{c k}
        self.pre, self.post = pre * grow, post / grow

    @cached_property
    def stacked(self) -> tuple:
        """pre and post over their reversed copies: row 0 weights the scan, row 1 its mirror."""
        return np.stack((self.pre, self.pre[::-1])), np.stack((self.post, self.post[::-1]))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        acc = _along_axis0(self.pre, v.ndim) * v
        self._accumulate(acc)
        return np.multiply(acc, _along_axis0(self.post, v.ndim), out=acc)

    def both(self, v: np.ndarray) -> np.ndarray:
        """The scan of v over its mirror image along a new axis 0, each weight applied to both
        in one multiply; the mirror is the scan of v reversed read backwards,
        out_r = post_{n-1-r} sum_{k >= r} e^{-c (k - r)} pre_{n-1-k} v_k."""
        pre, post = self.stacked
        if v.ndim > 1:
            shape = pre.shape + (1,) * (v.ndim - 1)
            pre, post = pre.reshape(shape), post.reshape(shape)
        acc = pre * v
        self._accumulate(acc[0])
        self._accumulate(acc[1, ::-1])
        return np.multiply(acc, post, out=acc)

    def _accumulate(self, rows: np.ndarray):
        """The sums of the scan, in place along axis 0 of rows."""
        if self.block == len(rows):
            np.add.accumulate(rows, axis=0, out=rows)
        else:
            rows[:] = self._blocked(rows)

    def _blocked(self, rows: np.ndarray) -> np.ndarray:
        """The cumulative sum of every block, plus the decayed sum of the blocks before."""
        n, rest = len(rows), rows.shape[1:]
        blocks = np.zeros((-(-n // self.block) * self.block,) + rest)
        blocks[:n] = rows
        blocks = blocks.reshape((-1, self.block) + rest)
        np.add.accumulate(blocks, axis=1, out=blocks)
        # carry_b = sum_{b' < b} decay^(b - b') total_b', by doubling; a block
        # spans more than L / 2, so the weight decay^step underflows within 6 steps
        carry = np.zeros((len(blocks),) + rest)
        carry[1:] = self.decay * blocks[:-1, -1]
        step, weight = 1, self.decay
        while step < len(carry) and weight > 0:
            carry[step:] += weight * carry[:-step]
            step, weight = 2 * step, weight * weight
        blocks += carry[:, None]
        return blocks.reshape((-1,) + rest)[:n]


class KernelMatrices:
    """Kernel on a grid: values at center pairs, x-gradient at (face, center).

    `KernelMatrices(spec, grid)` is one of three structures, chosen in `__new__`:
    `_Symbols` for a Green kernel, `_Convolution` for a Gaussian or power-law kernel,
    `_Table` for a table, which refuses a table of another n (`InvalidParameterError`).
    Their methods give every action, norm, residual and linearized solve. This base
    class holds what they share: the dense samples `k_centers` and `gradk_faces`, taken
    when first read (a table's actions read them: they are its tables), D = div(grad
    K(.)) in zero-flux form, and the operator norm, A and eigenpair of a kernel that no
    cosine mode diagonalizes.
    """

    # max |K(x, y) - K(y, x)| at the centers, 0 unless the kernel is a table
    symmetry_residual = 0.0

    def __new__(cls, spec=None, grid=None):
        # the one choice of structure; a copy or an unpickled kernel names its own class
        if cls is KernelMatrices:
            green, table = spec.variant in _GREEN, spec.variant == "tabulated"
            cls = _Symbols if green else _Table if table else _Convolution
        return super().__new__(cls)

    def __init__(self, spec: KernelSpec, grid: Grid1D):
        self.spec, self.grid = spec, grid

    @cached_property
    def k_centers(self) -> np.ndarray:
        return _values_matrix(self.spec, self.grid)

    @cached_property
    def gradk_faces(self) -> np.ndarray:
        return _gradk_matrix(self.spec, self.grid)

    @property
    def drift(self) -> np.ndarray:
        """D as an n x n array, from the dense gradient sample."""
        return divergence(self.grid.h * self.gradk_faces, self.grid)

    def symmetric_drift(self, vec) -> np.ndarray:
        """(D + D^T) vec / 2 on cell values along axis 0, by the kernel's actions.

        Uniform weights make D^T the L2 adjoint of D: it is the adjoint gradient
        action applied to -gradient(vec), whose boundary faces are zero as the
        zero-flux D ignores them.
        """
        adjoint = apply_grad_adjoint(self, gradient(vec, self.grid))
        return 0.5 * (divergence(apply_grad(self, vec), self.grid) - adjoint)

    def reduced_drift(self, coef) -> np.ndarray:
        """The symmetric part of D on mode coefficients of w_1..w_{n-1}, along axis 0."""
        basis = self.grid.basis
        vec = basis.from_spectral(np.concatenate((np.zeros((1,) + coef.shape[1:]), coef)))
        return basis.to_spectral(self.symmetric_drift(vec))[1:]

    def l2_operator_norm(self) -> float:
        """The square root of the largest eigenvalue of A^T A, A = `apply_grad`, by the block
        eigensolver from a seeded random block: it converges on the gap to the block's last
        eigenvalue, as these kernels' top singular values come in near-equal pairs."""
        n = self.grid.n
        start = np.linalg.qr(np.random.default_rng(0).standard_normal((n, min(_NORM_BLOCK, n))))[0]
        # A is scaled exactly by the power of two of its largest sample, so A^T A cannot overflow
        _, exp = math.frexp(self.grid.h * self.grad_peak())

        def gram(v):
            return -np.ldexp(apply_grad_adjoint(self, np.ldexp(apply_grad(self, v), -exp)), -exp)

        # abs, not a minus sign: a zero kernel's eigenvalue may be -0.0
        return math.ldexp(math.sqrt(abs(smallest_eigenpair(gram, start, _NORM_TOL)[0])), exp)

    def interaction_coefficient(self) -> float:
        w1 = self.grid.basis.mode(1)
        return float(self.grid.h * (w1 @ self.apply(w1)))

    def eigenpair(self, reduced: tuple, mass: float) -> tuple:
        """(eigenvalue, mode, D_sym mode by the actions, scale) from `solve`'s coefficients."""
        lam, coef, scale = self.solve(reduced, mass)
        vec = self.grid.basis.from_spectral(np.concatenate(([0.0], coef)))
        return lam, vec, self.symmetric_drift(vec), scale


class _Symbols(KernelMatrices):
    """A Green kernel, whose `symbols` (sigma, t, e), k = 0..n-1, are h K w_k = sigma_k w_k at
    the centers and h dK/dx w_k = t_k sqrt(2) sin(k pi x) = `gradient`(e_k w_k) at the faces,
    so u -> grad K(u) has singular values |t_k|. They, and the O(n) weights of `scan`, are
    built when first read: a ladder level reads neither."""

    @cached_property
    def symbols(self) -> tuple:
        return _green_symbols(self.spec, self.grid)

    @cached_property
    def scan(self) -> _DecayScan:  # see `apply_grad`
        s, h = math.sqrt(self.spec.a), self.grid.h
        p = self.spec.scale * h * math.exp(-0.5 * s * h) * _green_p(s, self.grid.faces[-2::-1])
        return _DecayScan(s * h, self.grid.n, pre=_green_q(s, self.grid.centers[::-1]), post=p)

    @cached_property
    def drift_symbol(self) -> np.ndarray:
        """d_k = (2/h) sin(k pi h / 2) t_k, k = 0..n-1: D w_k = d_k w_k."""
        angles = np.arange(self.grid.n) * (0.5 * np.pi * self.grid.h)
        return (2.0 / self.grid.h) * np.sin(angles) * self.symbols[1]

    def apply(self, u: np.ndarray) -> np.ndarray:
        basis = self.grid.basis
        return basis.from_spectral(_along_axis0(self.symbols[0], u.ndim) * basis.to_spectral(u))

    def apply_grad(self, u: np.ndarray, out) -> np.ndarray:
        """O(n) per column, reading no sample. With c = s h, the centers y_j < x_f
        contribute -e^{-c (f - 1 - j + 1/2)} p_{n-f} q_{n-1-j} u_j (see `_green_dx`):
        `scan` of u, whose weights are q reversed in and p reversed out, with scale, h
        and e^{-c/2}. The centers above are its mirror image, the same scan reversed;
        `scan.both` runs the two at once. The boundary faces, where p = 0, read 0."""
        scans = self.scan.both(u)  # the centers below, then those above
        out = np.empty((len(u) + 1,) + u.shape[1:]) if out is None else out
        out[:-1], out[-1] = scans[1], 0.0
        out[1:] -= scans[0]
        return out

    def apply_grad_adjoint(self, v: np.ndarray) -> np.ndarray:
        """`apply_grad` is `gradient` after the symbol e, so its adjoint is e after
        -`divergence`, the adjoint of `gradient`: O(n log n)."""
        basis, e = self.grid.basis, _along_axis0(self.symbols[2], v.ndim)
        return -basis.from_spectral(e * basis.to_spectral(divergence(v, self.grid)))

    def hilbert_schmidt_grad_norm(self) -> float:
        return _scaled_norm(self.symbols[1])  # the singular values' norm

    def l2_operator_norm(self) -> float:
        return float(np.abs(self.symbols[1]).max())

    def boundary_residual(self) -> float:
        return 0.0  # the factor p vanishes on both boundary faces

    def level_norms(self, q_primes) -> list:
        """Mixed norms without the (n+1) x n sample: |dG/dx| at (x_f, y_j) is
        e^{-s |x_f - y_j|} p_f q_j for x_f < y_j and the mirror p_{n-f} q_{n-1-j}
        otherwise (see `_green_dx`). Row f then sums to e^{-q' s h/2} (a_f + a_{n-f})
        with a_f = p_f^q' sum_{j >= f} r^{j-f} q_j^q' and r = e^{-q' s h}, and column
        j to e^{-q' s h/2} (b_j + b_{n-1-j}) with b_j = q_j^q' sum_{f <= j} r^{j-f} p_f^q'.
        For q' = inf the maximum is at a face next to the diagonal, where the sides
        mirror each other: e^{-s h/2} max_j p_j q_j. p and q both grow, so dividing
        each by its maximum divides that peak out."""
        s, grid, h = math.sqrt(self.spec.a), self.grid, self.grid.h
        p, q = _green_p(s, grid.faces[:-1]), _green_q(s, grid.centers)  # row n sums to 0
        edge, p_max, q_max = math.exp(-0.5 * s * h), float(p.max()), float(q.max())

        def sums(q_prime):
            # past 2 LOG_MAX_DOUBLE the decay e^{-q' s h} is 0, as it is for any larger exponent
            scan = _DecayScan(min(q_prime * s * h, 2.0 * LOG_MAX_DOUBLE), grid.n)
            pq, qq = (p / p_max) ** q_prime, (q / q_max) ** q_prime
            rows = np.append(pq * scan(qq[::-1])[::-1], 0.0)
            cols = qq * scan(pq)
            return rows + rows[::-1], cols + cols[::-1]

        sup = 2.0 * edge * float(np.max(p * q))
        return [
            sup if np.isinf(q_prime) else edge * _mixed_norm(sums, p_max * q_max, h, q_prime)
            for q_prime in q_primes
        ]

    def interaction_coefficient(self) -> float:
        return float(self.symbols[0][1])

    def drift_form(self) -> np.ndarray:
        return self.drift_symbol[1:]

    def eigenpair(self, reduced: tuple, mass: float) -> tuple:
        """S(M)'s smallest entry, with D applied to its mode by `apply_grad`, not the symbol."""
        lap, drift = reduced
        symbol = lap + mass * drift
        k = int(np.argmin(symbol))
        vec = self.grid.basis.mode(k + 1)
        d_vec = divergence(apply_grad(self, vec), self.grid)
        return float(symbol[k]), vec, d_vec, float(np.abs(symbol).max())


class _Convolution(KernelMatrices):
    """A Gaussian or power-law kernel, whose samples are Toeplitz matrices. The gradient's
    `offsets` and each `_Toeplitz` are built when first read: a ladder level reads the offsets."""

    @cached_property
    def offsets(self) -> np.ndarray:  # the gradient at x_f - y_j = (m - 1/2) h, m = 1-n..n
        n, h = self.grid.n, self.grid.h
        return eval_grad_x(self.spec, (np.arange(2 * n) - (n - 0.5)) * h, 0.0)

    @cached_property
    def grad_toeplitz(self) -> _Toeplitz:
        return _Toeplitz(self.offsets, self.grid.n)

    @cached_property
    def value_toeplitz(self) -> _Toeplitz:  # K(|i - j| h) at (center i, center j)
        n = self.grid.n
        return _Toeplitz(eval_kernel(self.spec, np.abs(np.arange(1 - n, n)) * self.grid.h, 0.0), n)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.grid.h * self.value_toeplitz(u)

    def apply_grad(self, u: np.ndarray, out) -> np.ndarray:
        return np.multiply(self.grid.h, self.grad_toeplitz(u), out=out)

    def apply_grad_adjoint(self, v: np.ndarray) -> np.ndarray:
        return self.grid.h * self.grad_toeplitz.adjoint(v)

    def hilbert_schmidt_grad_norm(self) -> float:
        """The sample holds its offset f - j = m - n + 1 in min(m + 1, 2n - m) entries."""
        n, m = self.grid.n, np.arange(2 * self.grid.n)
        return self.grid.h * _scaled_norm(self.offsets, np.minimum(m + 1, 2 * n - m))

    def boundary_residual(self) -> float:  # the two boundary rows hold all 2n offsets
        return float(np.abs(self.offsets).max())

    grad_peak = boundary_residual  # so they hold the peak

    def level_norms(self, q_primes) -> list:
        """Mixed norms from g = |offsets|: row f sums the window g[f : f + n] and column j
        the window g[n - 1 - j : 2n - j]; one cumulative sum gives them all. Every window
        spans offsets of length 1 across the diagonal, so it holds a sizable share of the
        whole sum and differences of the cumulative sum keep their digits."""
        g = np.abs(self.offsets)
        n, h, peak = self.grid.n, self.grid.h, float(g.max())

        def sums(q_prime):
            c = np.concatenate(([0.0], np.cumsum((g / peak) ** q_prime)))
            return c[n:] - c[: n + 1], c[n + 1 :] - c[:n]

        return [2.0 * peak if np.isinf(q) else _mixed_norm(sums, peak, h, q) for q in q_primes]

    def drift_form(self) -> tuple:
        """The circulant estimate of the reduced D's diagonal, and its exact last entry: D has
        Toeplitz entries d_m = g((m + 1/2) h) - g((m - 1/2) h) away from the boundary rows,
        even in m as g is odd, so the estimate sum_m d_m cos(k pi m h), k = 1..n-1, is one
        real FFT of their even extension. The last entry is one action."""
        n = self.grid.n
        d = np.diff(self.offsets)[n - 1 :]
        estimate = np.fft.rfft(np.concatenate((d, [0.0], d[:0:-1]))).real[1:n]
        last = np.zeros(n - 1)
        last[-1] = 1.0
        return estimate, float(self.reduced_drift(last)[-1])

    def solve(self, reduced: tuple, mass: float) -> tuple:
        """(eigenvalue, mode coefficients, scale) by the block eigensolver on diag(lambda_k^h)
        + M D_r, D_r = `reduced_drift`, started at the modes where the circulant estimate
        lambda_k^h + M e_k is smallest and preconditioned by (lambda_k^h + M e_k - shift)^-1,
        the shift below the estimate's minimum. The scale, |e_{n-1} . S e_{n-1}| or
        |eigenvalue| if larger, is at most the infinity norm of the reduced operator."""
        lap, (estimate, last) = reduced
        diagonal = lap + mass * estimate
        order = np.argsort(diagonal, kind="stable")[: min(_BLOCK, lap.size)]
        start = np.zeros((lap.size, order.size))
        start[order, np.arange(order.size)] = 1.0
        # a shift just below the minimum makes the preconditioner near singular on one
        # mode, which stalls the iteration; one far below flattens it to the identity
        low = float(diagonal[order[0]])
        shifted = diagonal - (low - 1.0 - 0.01 * abs(low))

        def operator(coef):  # refused when not finite, before the projection's eigh reads it
            return _finite(lap[:, None] * coef + mass * self.reduced_drift(coef), mass)

        scale = max(abs(lap[-1] + mass * last), 1.0)
        lam, coef = smallest_eigenpair(
            operator, start, _SOLVE_TOL, scale, precond=lambda r: r / shifted[:, None]
        )
        return lam, coef, max(scale, abs(lam))


class _Table(KernelMatrices):
    """A tabulated kernel: its dense samples are its scaled tables, which its actions
    multiply, and its D is projected densely and solved by SciPy's `eigh`."""

    def __init__(self, spec: KernelSpec, grid: Grid1D):
        if (n := spec.table_values.shape[0]) != grid.n:
            raise InvalidParameterError(f"a table of n = {n} does not match grid n = {grid.n}")
        super().__init__(spec, grid)

    @cached_property
    def symmetry_residual(self) -> float:
        return float(np.max(np.abs(self.k_centers - self.k_centers.T), initial=0.0))

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.grid.h * (self.k_centers @ u)

    def apply_grad(self, u: np.ndarray, out) -> np.ndarray:
        return np.multiply(self.grid.h, self.gradk_faces @ u, out=out)

    def apply_grad_adjoint(self, v: np.ndarray) -> np.ndarray:
        return self.grid.h * (self.gradk_faces.T @ v)

    def hilbert_schmidt_grad_norm(self) -> float:
        return self.grid.h * _scaled_norm(self.gradk_faces)

    def grad_peak(self) -> float:
        return float(np.abs(self.gradk_faces).max(initial=0.0))

    def boundary_residual(self) -> float:
        return float(np.max(np.abs(self.gradk_faces[[0, -1], :]), initial=0.0))

    def level_norms(self, q_primes) -> list:
        """The sup of the table's rows' L^q' norms plus its columns'."""
        gk, grid = self.gradk_faces, self.grid
        return [lp_norm(gk.T, q, grid).max() + lp_norm(gk, q, grid).max() for q in q_primes]

    def drift_form(self) -> np.ndarray:
        """The symmetric part of D's dense projection on the modes; refused before anything is
        allocated above `check_size`'s limit, and for an asymmetric table (no Rayleigh quotient)."""
        n = self.grid.n
        check_size(_DENSE_ARRAYS * n**2, f"the dense stability path at n = {n}")
        if (asym := self.symmetry_residual) > _SYMMETRY_TOL:
            raise UnsupportedKernelError(
                f"kernel value matrix asymmetric (residual {asym:.2e}); "
                "the Rayleigh characterization needs a symmetric kernel"
            )
        drift = self.grid.basis.project(self.drift)[1:, 1:]
        return 0.5 * (drift + drift.T)

    def solve(self, reduced: tuple, mass: float) -> tuple:
        from scipy.linalg import eigh  # a table's direct solve is the one use of SciPy

        lap, drift = reduced
        operator = _finite(np.diag(lap) + mass * drift, mass)
        eigvals, eigvecs = eigh(operator, subset_by_index=[0, 0])
        return float(eigvals[0]), eigvecs[:, 0], np.linalg.norm(operator, np.inf)


def _level_norms(spec: KernelSpec, n: int, q_primes) -> list:
    """The mixed norm of every q' at level n: |scale| times the unscaled kernel's, whose
    structure divides its peak out before the q' powers (`_mixed_norm`), so no power sum
    leaves the doubles at any q'."""
    norms = KernelMatrices(replace(spec, scale=1.0), Grid1D(n)).level_norms(q_primes)
    return [abs(spec.scale) * float(norm) for norm in norms]


def _estimate(q_prime: float, trend: tuple) -> KernelNormEstimate:
    """Verdict from the log-log slope of the trend over its finest pair of levels."""
    values = [v for _, v in trend]
    if not all(np.isfinite(values)):
        return KernelNormEstimate(q_prime, math.inf, trend, "divergent")
    if len(trend) < 2 or values[-1] == 0.0:
        return KernelNormEstimate(q_prime, values[-1], trend, "finite")
    (n0, v0), (n1, v1) = trend[-2], trend[-1]
    slope = 0.0 if v0 <= 0 else math.log(v1 / v0) / math.log(n1 / n0)
    if slope >= _SLOPE_DIVERGENT:
        return KernelNormEstimate(q_prime, math.inf, trend, "divergent")
    if slope <= _SLOPE_FINITE:
        return KernelNormEstimate(q_prime, values[-1], trend, "finite")
    return KernelNormEstimate(q_prime, values[-1], trend, "ambiguous")


def _length_scale(spec: KernelSpec) -> float | None:
    """The width of a built-in kernel's peak: 1/sqrt(a), sigma, or a power law's delta > 0."""
    if spec.variant in _GREEN:
        return 1.0 / math.sqrt(spec.a)
    if spec.variant == "gaussian":
        return spec.sigma
    if spec.variant == "power_law_gradient" and spec.delta > 0:
        return spec.delta
    return None


def _norm_ladder(spec: KernelSpec, q_primes, levels=None) -> dict:
    """Norm estimates for every q' in q_primes, one `_level_norms` per level.

    A ladder, given or default, that does not resolve the kernel's length
    scale is extended by doubling; on a coarser grid a narrow peak reads as a
    trend that is not there.
    """
    for q in q_primes:
        check_real(q, "q'", 1, finite=False)
    if spec.variant == "tabulated":  # the table is its only level
        levels = (spec.table_values.shape[0],)
    elif levels is None:
        levels = (64, 128, 256, 512, 1024, 2048)
    levels = list(levels)
    if not levels or levels != sorted(set(levels)):
        raise InvalidParameterError("refinement levels must be nonempty and strictly increasing")
    scale = _length_scale(spec)
    while scale and levels[-1] * scale < _RESOLVED_CELLS and 2 * levels[-1] <= _MAX_LEVEL:
        levels.append(2 * levels[-1])
    trends = {q: [] for q in q_primes}
    for n in levels:
        for (q, trend), value in zip(trends.items(), _level_norms(spec, n, trends)):
            trend.append((n, value))
    return {q: _estimate(q, tuple(trend)) for q, trend in trends.items()}


def norm_inf_qprime(spec: KernelSpec, q_prime: float, levels=None) -> KernelNormEstimate:
    """Estimate the mixed norm ess sup_x ||grad K(x,.)||_{q'} (+ transpose term).

    Computed on each refinement level; the trend's log-log slope over the
    finest pair of levels decides the verdict: a persistent power-law growth
    marks the norm as infinite. A built-in kernel's level costs O(n): window
    sums of 2n offset samples (Gaussian, power law) or decaying scans of the
    separable Green factors. A tabulated kernel's one level is its dense table.
    """
    return _norm_ladder(spec, (q_prime,), levels)[q_prime]


def _classify_estimates(estimates: dict) -> KernelClassification:
    """Singularity class in d = 1 from the verdicts of the CLASSIFY_QPRIMES estimates."""
    finite = [q for q, e in estimates.items() if e.verdict == "finite"]
    divergent = [q for q, e in estimates.items() if e.verdict == "divergent"]
    finite_above = [q for q in finite if q > 1]
    divergent_above = [q for q in divergent if q > 1]
    if finite_above:
        if divergent_above:
            lo = max(finite_above)
            above = [q for q in divergent_above if q > lo]
            hi = min(above) if above else math.inf
            critical = math.sqrt(lo * hi) if np.isfinite(hi) else lo
        else:
            critical = math.inf
        return KernelClassification("mildly_singular", critical, estimates)
    if 1.0 in finite and divergent_above:
        return KernelClassification("strongly_singular", 1.0, estimates)
    return KernelClassification("undetermined", None, estimates)


def classify(spec: KernelSpec, levels=None) -> KernelClassification:
    """Singularity class in d = 1 from the finiteness pattern over q'."""
    return _classify_estimates(_norm_ladder(spec, CLASSIFY_QPRIMES, levels))


def validate_assumptions(
    km: KernelMatrices, tol: float, q_primes=(np.inf,)
) -> KernelValidationReport:
    """Check the boundary, constant-state and integrability assumptions.

    Failures are reported, not raised: the report carries measured residuals
    for the boundary normal derivative, the gradient of the kernel's y-integral
    (constant states are equilibria iff it vanishes), the finiteness of the
    mixed gradient norms, and the value-symmetry defect. One sweep of the
    refinement ladder gives both the q_primes estimates and the classification.
    """
    check_real(tol, "tol", 0, strict=True)
    neumann = km.boundary_residual()  # max |grad K| on the faces x = 0 and x = 1
    mean_grad = float(np.max(np.abs(apply_grad(km, np.ones(km.grid.n))[1:-1]), initial=0.0))
    ladder = _norm_ladder(km.spec, (*q_primes, *CLASSIFY_QPRIMES))
    estimates = {q: ladder[q] for q in q_primes}
    norms_finite = all(e.verdict == "finite" for e in estimates.values())
    return KernelValidationReport(
        neumann_residual=neumann,
        neumann_ok=neumann <= tol,
        mean_gradient_residual=mean_grad,
        mean_gradient_ok=mean_grad <= tol,
        symmetry_residual=km.symmetry_residual,
        norm_estimates=estimates,
        norms_finite=norms_finite,
        hilbert_schmidt_norm=hilbert_schmidt_grad_norm(km),
        classification=_classify_estimates({q: ladder[q] for q in CLASSIFY_QPRIMES}),
    )


def save_tabulated_csv(path, km: KernelMatrices):
    """Write the kernel's samples on its grid as x,y,k,gradk rows (one of k/gradk per row)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "k", "gradk"])
        for i, x in enumerate(km.grid.centers):
            for j, y in enumerate(km.grid.centers):
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(km.k_centers[i, j])), ""])
        for f, x in enumerate(km.grid.faces):
            for j, y in enumerate(km.grid.centers):
                writer.writerow([repr(float(x)), repr(float(y)), "", repr(float(km.gradk_faces[f, j]))])


def load_tabulated_csv(path, grid: Grid1D) -> KernelSpec:
    """Read a tabulated kernel written in the x,y,k,gradk row format, one row per cell."""
    check_size((grid.n + 1) * grid.n, f"a dense kernel sample at n = {grid.n}")
    n, h = grid.n, grid.h
    values = np.full((n, n), np.nan)
    grad = np.full((n + 1, n), np.nan)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != ["x", "y", "k", "gradk"]:
                raise KernelLoadError(f"{path}: expected header x,y,k,gradk")
            for row in reader:
                if len(row) != 4:
                    raise KernelLoadError(f"{path}: malformed row {row!r}")
                if not all(math.isfinite(float(c)) for c in row if c != ""):
                    raise KernelLoadError(f"{path}: non-finite entry in row {row!r}")
                x, y = float(row[0]), float(row[1])
                j = round(y / h - 0.5)
                if not (0 <= j < n and abs(grid.centers[j] - y) <= 1e-9):
                    raise KernelLoadError(f"{path}: y={y} is not a cell center of n={n}")
                if (row[2] == "") == (row[3] == ""):  # a row holds one of k and gradk
                    what = "both k and" if row[2] else "neither k nor"
                    raise KernelLoadError(f"{path}: row with {what} gradk")
                if row[2] != "":
                    i = round(x / h - 0.5)
                    if not (0 <= i < n and abs(grid.centers[i] - x) <= 1e-9):
                        raise KernelLoadError(f"{path}: x={x} is not a cell center of n={n}")
                    table, cell, entry = values, (i, j), row[2]
                else:
                    f = round(x / h)
                    if not (0 <= f <= n and abs(grid.faces[f] - x) <= 1e-9):
                        raise KernelLoadError(f"{path}: x={x} is not a face of n={n}")
                    table, cell, entry = grad, (f, j), row[3]
                if not np.isnan(table[cell]):
                    raise KernelLoadError(f"{path}: repeated entry in row {row!r}")
                table[cell] = float(entry)
    except (OSError, ValueError) as exc:
        raise KernelLoadError(f"{path}: {exc}") from exc
    if np.isnan(values).any() or np.isnan(grad).any():
        raise KernelLoadError(f"{path}: incomplete kernel table for n={n}")
    return KernelSpec.tabulated(values, grad)
