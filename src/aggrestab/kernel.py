"""Aggregation kernels K(x,y), their integral operators and norm estimates.

Built-in families: the chemotaxis Green function on [0,1] (the Neumann Green
function of -d^2/dx^2 + a, in closed form for every a > 0), a truncated
Gaussian, a power-law gradient family bracketing the critical integrability
exponent, and tabulated data. Values are sampled at cell centers; x-gradients
at cell faces, so the gradient is never evaluated on its diagonal jump.

A Green kernel is diagonal in the cosine modes of `SpectralBasis`: at cell
centers and faces every mode above n aliases onto a DCT mode, so its
integral operator and its gradient have exact O(n) symbols and need no
n x n sample.

The mixed gradient norms are estimated on a refinement ladder in O(n) work
and memory per level: Gaussian and power-law gradients depend on x - y alone,
so each row and column sum of |grad K|^q' is a window of 2n offset samples;
the Green gradient is separable on each side of the diagonal, so its sums are
geometric scans. Only a tabulated kernel is read as a dense table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    GridMismatchError,
    InvalidParameterError,
    KernelLoadError,
    SingularityError,
)
from .grid import MAX_STORED_VALUES, Field, Grid1D

# the two Green variants are one family: green_closed_form is a = 1
_GREEN = ("green_closed_form", "green_series")
_VARIANTS = (*_GREEN, "gaussian", "power_law_gradient", "tabulated")

# classification probe exponents, largest first
CLASSIFY_QPRIMES = (np.inf, 4.0, 2.0, 1.5, 1.1, 1.0)

# log-log slope of the refinement trend separating convergent from divergent
# norm estimates; between the two the trend is declared ambiguous
_SLOPE_FINITE = 0.05
_SLOPE_DIVERGENT = 0.15

# relative change of the singular value that stops the power iteration
_POWER_TOL = 1e-8
_POWER_MAX_ITER = 10000


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """One kernel definition; use the classmethod constructors."""

    variant: str
    a: float = 1.0
    sigma: float = 0.1
    normalization: float = 1.0
    alpha: float = 0.5
    delta: float = 0.0
    table_values: np.ndarray | None = None
    table_grad: np.ndarray | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise InvalidParameterError(f"unknown kernel variant {self.variant!r}")
        if self.variant in _GREEN and not 0 < self.a < math.inf:
            raise InvalidParameterError("the Green kernel requires a finite a > 0")
        if self.variant == "gaussian" and self.sigma <= 0:
            raise InvalidParameterError("gaussian requires sigma > 0")
        if self.variant == "power_law_gradient":
            if self.alpha <= 0 or self.delta < 0:
                raise InvalidParameterError("power law requires alpha > 0 and delta >= 0")
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

    @classmethod
    def green_closed_form(cls, scale=1.0):
        return cls("green_closed_form", a=1.0, scale=scale)

    @classmethod
    def green_series(cls, a, scale=1.0):
        return cls("green_series", a=float(a), scale=scale)

    @classmethod
    def gaussian(cls, sigma, normalization=1.0, scale=1.0):
        return cls("gaussian", sigma=float(sigma), normalization=float(normalization), scale=scale)

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


class KernelMatrices:
    """Kernel on a grid: values at center pairs, x-gradient at (face, center).

    Each n x n sample is taken when first read. A Green kernel also carries
    `symbols` = (sigma, t), k = 0..n-1, which need no sample: h K w_k =
    sigma_k w_k at the centers and h dK/dx w_k = t_k sqrt(2) sin(k pi x) at the
    faces, so the singular values of u -> grad K(u) are |t_k|. Other kernels
    have `symbols = None`.
    """

    def __init__(self, spec: KernelSpec, grid: Grid1D):
        self.spec, self.grid = spec, grid
        self.symbols = _green_symbols(spec, grid) if spec.variant in _GREEN else None

    @cached_property
    def k_centers(self) -> np.ndarray:
        return _values_matrix(self.spec, self.grid)

    @cached_property
    def gradk_faces(self) -> np.ndarray:
        return _gradk_matrix(self.spec, self.grid)


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


def _green_dx(a, x, y):
    """x-derivative of `_green`; the average of the one-sided ones at x = y.

    For x < y it is sinh(s x) cosh(s (1 - y)) / sinh s = e^{-s (y - x)} p(x) q(y)
    with s = sqrt(a); for x > y the mirror (x, y) -> (1 - x, 1 - y) with a minus
    sign. Every factor lies in [0, 1] and off the diagonal only one side's term
    is nonzero, so nothing cancels as a -> 0 and nothing overflows.
    """
    s = math.sqrt(a)
    w = 0.5 * (1.0 + np.sign(y - x))  # 1 for x < y, 0 for x > y, 1/2 at x = y
    # built in place, so a dense (n+1) x n sample peaks at four such arrays
    out = w * _green_p(s, x) * _green_q(s, y)
    out -= (1.0 - w) * _green_p(s, 1.0 - x) * _green_q(s, 1.0 - y)
    del w
    out *= np.exp(-s * np.abs(x - y))
    return out


def _green_symbols(spec: KernelSpec, grid: Grid1D) -> tuple:
    """Exact (sigma_k, t_k) of the Green kernel on the grid, k = 0..n-1.

    With s = sqrt(a), c = s h / 2 and theta_k = k pi h / 2, the aliased mode
    sums are sigma_k = sinh(2c) / (4 n s (sinh^2 c + sin^2 theta_k)) and
    t_k = -(h/2) sin(theta_k) cosh(c) / (sinh^2 c + sin^2 theta_k); both are
    computed divided through by cosh^2 c, which cannot overflow.
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
    return spec.scale * sigma, spec.scale * t


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
        out = spec.normalization * np.exp(-((x - y) ** 2) / (2.0 * spec.sigma**2))
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
        out = -spec.normalization * (x - y) / spec.sigma**2 * np.exp(
            -((x - y) ** 2) / (2.0 * spec.sigma**2)
        )
    elif spec.variant == "power_law_gradient":
        r = np.abs(x - y)
        if spec.delta == 0 and np.any(r == 0):
            raise SingularityError("power-law gradient is singular on the diagonal")
        out = -np.sign(x - y) * (r + spec.delta) ** (-spec.alpha)
    else:
        raise InvalidParameterError("tabulated kernels have no off-grid evaluation")
    return spec.scale * out


def _check_sample_size(grid: Grid1D):
    if (grid.n + 1) * grid.n > MAX_STORED_VALUES:
        raise InvalidParameterError(
            f"a dense kernel sample at n = {grid.n} holds {(grid.n + 1) * grid.n:.3g} values; "
            f"the limit is {MAX_STORED_VALUES:.0e}"
        )


def _values_matrix(spec: KernelSpec, grid: Grid1D) -> np.ndarray:
    if spec.variant == "tabulated":
        return spec.scale * spec.table_values.copy()
    _check_sample_size(grid)
    return np.asarray(eval_kernel(spec, grid.centers[:, None], grid.centers[None, :]))


def _gradk_matrix(spec: KernelSpec, grid: Grid1D) -> np.ndarray:
    if spec.variant == "tabulated":
        return spec.scale * spec.table_grad.copy()
    _check_sample_size(grid)
    return np.asarray(eval_grad_x(spec, grid.faces[:, None], grid.centers[None, :]))


def assemble(spec: KernelSpec, grid: Grid1D) -> KernelMatrices:
    """The kernel on the grid: values at centers, gradient at faces, sampled when read."""
    if spec.variant == "tabulated" and spec.table_values.shape != (grid.n, grid.n):
        raise GridMismatchError("tabulated value table does not match grid")
    return KernelMatrices(spec, grid)


def apply(km: KernelMatrices, u: Field) -> Field:
    """Integral operator: result_i = h sum_j K(x_i, y_j) u_j."""
    if u.grid != km.grid:
        raise GridMismatchError("field grid does not match kernel grid")
    return Field(km.grid, km.grid.h * (km.k_centers @ u.values))


def apply_grad(km: KernelMatrices, u: Field) -> np.ndarray:
    """Gradient of the integral operator, sampled at faces."""
    if u.grid != km.grid:
        raise GridMismatchError("field grid does not match kernel grid")
    return km.grid.h * (km.gradk_faces @ u.values)


def hilbert_schmidt_grad_norm(km: KernelMatrices) -> float:
    """L^2(Omega x Omega) norm of the gradient kernel."""
    return float(np.sqrt(km.grid.h**2 * np.sum(km.gradk_faces**2)))


def l2_operator_norm(km: KernelMatrices) -> float:
    """Largest singular value of u -> grad K(u) between L^2 spaces.

    For a Green kernel it is max_k |t_k|. Otherwise power iteration on the
    composed map (adjoint . map) from a seeded random start vector; with
    uniform quadrature weight h on both sides this is the Euclidean spectral
    norm of h * gradk_faces.
    """
    if km.symbols is not None:
        return float(np.abs(km.symbols[1]).max())
    a = km.grid.h * km.gradk_faces
    v = np.random.default_rng(0).standard_normal(km.grid.n)
    v /= np.linalg.norm(v)
    sigma_prev = -1.0
    for _ in range(_POWER_MAX_ITER):
        w = a.T @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        sigma = math.sqrt(nw)
        v = w / nw
        if abs(sigma - sigma_prev) <= _POWER_TOL * max(sigma, 1e-300):
            return sigma
        sigma_prev = sigma
    raise ConvergenceError(f"power iteration did not converge in {_POWER_MAX_ITER} iterations")


def _mixed_norm(row_sums, col_sums, h: float, q_prime: float) -> float:
    """sup_x (h sum_y |grad K|^q')^(1/q') plus the same over y, from the sums."""
    sups = (float(np.max(h * sums, initial=0.0)) for sums in (row_sums, col_sums))
    return sum(sup ** (1.0 / q_prime) for sup in sups)


def _norm_value(gk: np.ndarray, h: float, q_prime: float) -> float:
    """Mixed norm of one sampled |grad K| (faces x centers) at cell width h."""
    if np.isinf(q_prime):
        return 2.0 * float(gk.max(initial=0.0))
    powered = gk**q_prime
    return _mixed_norm(powered.sum(axis=1), powered.sum(axis=0), h, q_prime)


def _window_norm(g: np.ndarray, h: float, q_prime: float) -> float:
    """`_norm_value` of a level whose |grad K| at (face f, center j) is g[f - j + n - 1].

    Row f sums the window g[f : f + n] and column j the window
    g[n - 1 - j : 2n - j]; one cumulative sum gives them all. Every window
    spans offsets of length 1 across the diagonal, so it holds a sizable share
    of the whole sum and differences of the cumulative sum keep their digits.
    """
    n = g.size // 2
    if np.isinf(q_prime):
        return 2.0 * float(g.max())
    c = np.concatenate(([0.0], np.cumsum(g**q_prime)))
    return _mixed_norm(c[n:] - c[: n + 1], c[n + 1 :] - c[:n], h, q_prime)


def _decay_sum(v: np.ndarray, c: float) -> np.ndarray:
    """out_i = sum_{k >= 0} e^{-c k} v_{i+k} by doubling: log2(len) vector passes."""
    out, k = v.copy(), 1
    while k < out.size:
        out[:-k] += math.exp(-c * k) * out[k:]
        k *= 2
    return out


def _green_norm(spec: KernelSpec, grid: Grid1D, q_prime: float) -> float:
    """`_norm_value` of the Green kernel on the grid without its (n+1) x n sample.

    |dG/dx| at (x_f, y_j) is e^{-s |x_f - y_j|} p_f q_j for x_f < y_j and the
    mirror p_{n-f} q_{n-1-j} otherwise (see `_green_dx`). Row f then sums to
    e^{-q' s h/2} (a_f + a_{n-f}) with a_f = p_f^q' sum_{j >= f} r^{j-f} q_j^q'
    and r = e^{-q' s h}, and column j to e^{-q' s h/2} (b_j + b_{n-1-j}) with
    b_j = q_j^q' sum_{f <= j} r^{j-f} p_f^q'. For q' = inf, |dG/dx| grows
    towards the diagonal on both sides, so its maximum is at a face next to
    it, where the two sides mirror each other: e^{-s h/2} max_j p_j q_j.
    """
    s, h = math.sqrt(spec.a), grid.h
    p, q = _green_p(s, grid.faces), _green_q(s, grid.centers)
    edge = abs(spec.scale) * math.exp(-0.5 * s * h)
    if np.isinf(q_prime):
        return 2.0 * edge * float(np.max(p[:-1] * q))
    pq, qq = p**q_prime, q**q_prime
    rows = pq * np.append(_decay_sum(qq, q_prime * s * h), 0.0)
    cols = qq * _decay_sum(pq[-2::-1], q_prime * s * h)[::-1]
    return edge * _mixed_norm(rows + rows[::-1], cols + cols[::-1], h, q_prime)


def _level_norms(spec: KernelSpec, n: int, q_primes) -> list:
    """The mixed norm of every q' at level n; only a tabulated kernel is read densely."""
    grid = Grid1D(n)
    if spec.variant == "tabulated":
        gk = np.abs(_gradk_matrix(spec, grid))
        return [_norm_value(gk, grid.h, q) for q in q_primes]
    if spec.variant in _GREEN:
        return [_green_norm(spec, grid, q) for q in q_primes]
    g = np.abs(eval_grad_x(spec, (np.arange(2 * n) - (n - 0.5)) * grid.h, 0.0))
    return [_window_norm(g, grid.h, q) for q in q_primes]


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


def _norm_ladder(spec: KernelSpec, q_primes, levels=None) -> dict:
    """Norm estimates for every q' in q_primes, one `_level_norms` per level."""
    for q in q_primes:
        if not q >= 1:  # written so that NaN fails too
            raise InvalidParameterError(f"q' must be in [1, inf], got {q}")
    if spec.variant == "tabulated":  # the table is its only level
        levels = (spec.table_values.shape[0],)
    elif levels is None:
        levels = (64, 128, 256, 512, 1024, 2048)
    if list(levels) != sorted(set(levels)):
        raise InvalidParameterError("refinement levels must be strictly increasing")
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
    spec: KernelSpec, grid: Grid1D, tol: float, q_primes=(np.inf,)
) -> KernelValidationReport:
    """Check the boundary, constant-state and integrability assumptions.

    Failures are reported, not raised: the report carries measured residuals
    for the boundary normal derivative, the gradient of the kernel's y-integral
    (constant states are equilibria iff it vanishes), the finiteness of the
    mixed gradient norms, and the value-symmetry defect. One sweep of the
    refinement ladder gives both the q_primes estimates and the classification.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    km = assemble(spec, grid)
    neumann = float(np.max(np.abs(km.gradk_faces[[0, -1], :]), initial=0.0))
    row_integral = grid.h * km.gradk_faces.sum(axis=1)
    mean_grad = float(np.max(np.abs(row_integral[1:-1]), initial=0.0))
    symmetry = float(np.max(np.abs(km.k_centers - km.k_centers.T), initial=0.0))
    ladder = _norm_ladder(spec, (*q_primes, *CLASSIFY_QPRIMES))
    estimates = {q: ladder[q] for q in q_primes}
    norms_finite = all(e.verdict == "finite" for e in estimates.values())
    return KernelValidationReport(
        neumann_residual=neumann,
        neumann_ok=neumann <= tol,
        mean_gradient_residual=mean_grad,
        mean_gradient_ok=mean_grad <= tol,
        symmetry_residual=symmetry,
        norm_estimates=estimates,
        norms_finite=norms_finite,
        hilbert_schmidt_norm=hilbert_schmidt_grad_norm(km),
        classification=_classify_estimates({q: ladder[q] for q in CLASSIFY_QPRIMES}),
    )


def save_tabulated_csv(path, grid: Grid1D, km: KernelMatrices):
    """Write kernel samples as x,y,k,gradk rows (one of k/gradk per row)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "k", "gradk"])
        for i, x in enumerate(grid.centers):
            for j, y in enumerate(grid.centers):
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(km.k_centers[i, j])), ""])
        for f, x in enumerate(grid.faces):
            for j, y in enumerate(grid.centers):
                writer.writerow([repr(float(x)), repr(float(y)), "", repr(float(km.gradk_faces[f, j]))])


def load_tabulated_csv(path, grid: Grid1D) -> KernelSpec:
    """Read a tabulated kernel written in the x,y,k,gradk row format."""
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
                if row[2] != "":
                    i = round(x / h - 0.5)
                    if not (0 <= i < n and abs(grid.centers[i] - x) <= 1e-9):
                        raise KernelLoadError(f"{path}: x={x} is not a cell center of n={n}")
                    values[i, j] = float(row[2])
                elif row[3] != "":
                    f = round(x / h)
                    if not (0 <= f <= n and abs(grid.faces[f] - x) <= 1e-9):
                        raise KernelLoadError(f"{path}: x={x} is not a face of n={n}")
                    grad[f, j] = float(row[3])
                else:
                    raise KernelLoadError(f"{path}: row with neither k nor gradk")
    except OSError as exc:
        raise KernelLoadError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise KernelLoadError(f"{path}: {exc}") from exc
    if np.isnan(values).any() or np.isnan(grad).any():
        raise KernelLoadError(f"{path}: incomplete kernel table for n={n}")
    return KernelSpec.tabulated(values, grad)
