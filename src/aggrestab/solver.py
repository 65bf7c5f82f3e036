"""Time integration: Strang-split finite-volume stepping and the Duhamel fixed point.

The method-of-lines integrator splits each step symmetrically (Strang): a
half step of diffusion, applied exactly as e^{-(dt/2) L_h} on the cosine
modes of the grid's `basis`, then the nonlocal transport with donor-cell
upwinding and Heun's method (SSP-RK2), then a second diffusion half step.
The scheme is second order in time, and discrete mass conservation and
positivity are structural: diffusion leaves the constant mode alone and
e^{-t L_h} is nonnegative, and each Heun stage is a forward-Euler step under
the CFL bound. Transport alone sets the automatic step. `evolve` alone drives
the step: it carries the mode coefficients, two transforms and two kernel
actions a step, and builds and checks the states off the step path, a block of
steps at a time, with one batched transform and one pass per check (finiteness,
positivity, mass) a block; `step_imex` is its run of one set step. The mild
solver iterates the integral fixed point on the same exact propagator, with its
own drift treatment and the same kernel action `apply_grad`.

Every state and datum is a cell array, as in `grid`: the initial datum, the
stepper's input and output, and the inputs of the mild solver and the
semigroup probes. The solver's entry points take the datum and the assembled
kernel and read the grid from `km.grid`: `evolve(u0, km, mode, ...)`,
`step_imex(u, dt, mode, M, km)` and `picard_mild_solve(u0, km, T)`. Each
refuses, through `check_datum`, anything but a finite (n,) array. A
`Trajectory` keeps its stored states as the rows of one (stored states, n) array;
the Picard states are time-major too, and a sweep runs over blocks of time rows.
Every L^p norm here, of the run record, of a Picard change and of the semigroup
probes, is one `lp_norm` call on a transposed batch: one column, one norm, per time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParameterError,
    NonContractionError,
    NoExistenceTimeError,
    RejectedStepError,
    SchemeFailureError,
)
from .grid import MAX_STORED_VALUES, Grid1D, check_count, check_real, check_size
from .grid import LOG_MAX_DOUBLE, divergence, gradient, lp_norm
from .kernel import KernelMatrices, apply_grad
from .spectral import LAMBDA_1

MODES = ("nonlinear", "perturbed", "linearized")

_DT_EPS = 1e-30  # guards the pure-diffusion case in the CFL formula
# evolve refuses a run that needs more steps than this, or keeps more state
# values than check_size allows; the longest default basin_probe horizon
# (t_end = 1000 at the automatic step cap h/2) is 2000 n steps
_MAX_STEPS = 10**8
# the values in one block of time rows, of a Picard sweep or of evolve's waiting states,
# so that its work stays in cache
_BLOCK = 2**14


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    snapshots: np.ndarray  # (stored states, n): row j holds the cell values at times[j]
    mass: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    min_value: np.ndarray

    @classmethod
    def from_states(cls, times, states, grid: Grid1D):
        """The run record of cell-value rows on the grid, reduced along axis 1."""
        snapshots = np.asarray(states, dtype=float, order="C")  # kept, not copied, if C-ordered
        return cls(
            times=np.asarray(times, dtype=float),
            snapshots=snapshots,
            mass=grid.h * snapshots.sum(axis=1),
            l1=lp_norm(snapshots.T, 1, grid),
            l2=lp_norm(snapshots.T, 2, grid),
            linf=lp_norm(snapshots.T, np.inf, grid),
            min_value=snapshots.min(axis=1),
        )

    def norm_series(self, which: str) -> np.ndarray:
        if which not in ("l1", "l2", "linf"):
            raise InvalidParameterError(f"unknown norm {which!r}; the norms are l1, l2 and linf")
        return getattr(self, which)


@dataclass(frozen=True, eq=False)
class MildSolveDiagnostics:
    picard_distances: list
    contraction_ratio: float
    times: np.ndarray
    states: np.ndarray  # (n_time + 1, n): row j holds the cell values at times[j]
    grid: Grid1D

    @cached_property
    def trajectory(self) -> Trajectory:
        """The run record of the states, built when first read."""
        return Trajectory.from_states(self.times, self.states, self.grid)


def check_datum(u, n: int) -> np.ndarray:
    """u as a float array, refused unless it is a finite (n,) cell array of real numbers."""
    values = np.asarray(u)
    if values.dtype.kind not in "biuf":
        raise InvalidParameterError(f"the datum has dtype {values.dtype}, not real numbers")
    if not np.isfinite(values).all():
        raise InvalidParameterError("the datum has a non-finite value")
    if values.shape != (n,):
        raise InvalidParameterError(f"field length {values.shape} does not match grid n={n}")
    return values.astype(float, copy=False)


def initial_field(descriptor: str, grid: Grid1D, seed: int = 0) -> np.ndarray:
    """The cell values of an initial datum given by a config descriptor string.

    Forms: constant:<M> | constant_plus_mode:<M>,<amplitude>,<k>
    | random_zero_mean:<amplitude>,<seed> | csv:<path> (one value per line).
    """
    kind, _, arg = descriptor.partition(":")
    if kind not in ("constant", "constant_plus_mode", "random_zero_mean", "csv"):
        raise InvalidParameterError(f"unknown initial descriptor {descriptor!r}")
    try:
        if kind == "constant":
            values = np.full(grid.n, float(arg))
        elif kind == "constant_plus_mode":
            level, amplitude, k = arg.split(",")
            values = float(level) + float(amplitude) * grid.basis.mode(int(k))
        elif kind == "random_zero_mean":
            amplitude, sub_seed = arg.split(",")
            rng = np.random.default_rng(int(sub_seed) if sub_seed else seed)
            values = rng.standard_normal(grid.n)
            values -= values.mean()
            peak = np.abs(values).max()
            if peak > 0:
                values *= float(amplitude) / peak
        else:
            values = np.loadtxt(arg, dtype=float, ndmin=1)
        return check_datum(values, grid.n)
    except (ValueError, OSError) as exc:
        raise InvalidParameterError(f"bad initial descriptor {descriptor!r}: {exc}") from exc


def _velocity(u: np.ndarray, km: KernelMatrices, out=None):
    """The transport velocity grad K(u) at the faces, in out when given, its two boundary
    faces (no flux) at 0, and its max|v|; refused when not finite."""
    v = apply_grad(km, u, out)
    v[0] = v[-1] = 0.0
    vmax = float(max(v.max(), -v.min()))
    if not math.isfinite(vmax):
        raise SchemeFailureError("non-finite transport velocity: no step is admissible")
    return v, vmax


def _cfl_dt(vmax: float, h: float) -> float:
    """A quarter of the CFL step h/(2 vmax), capped at h/2."""
    return min(h / (8.0 * vmax + _DT_EPS), 0.5 * h)


def auto_dt(u: np.ndarray, km: KernelMatrices) -> float:
    """A quarter of the CFL step of the transport at the cell values u, capped at h/2.

    Every mode advects with grad K(u). Diffusion is exact, so the cap keeps a
    step with no transport from jumping across the whole run.
    """
    return _cfl_dt(_velocity(u, km)[1], km.grid.h)


class _Strang:
    """The Strang step on mode coefficients, in its own face array; it recomputes
    e^{-(dt/2) L_h} only when dt changes."""

    def __init__(self, mode: str, mass_level: float, km: KernelMatrices):
        self.mode, self.mass_level, self.km, self.dt, self.half = mode, mass_level, km, None, None
        self.basis, self.grid, self.h = km.grid.basis, km.grid, km.grid.h
        self.faces = np.empty(km.grid.n + 1)  # a stage's velocity, then its flux

    def __call__(self, c: np.ndarray, dt: float):
        """The closing coefficients from those of the start c, and the two stages' larger max|v|."""
        basis = self.basis
        if dt != self.dt:
            self.dt, self.half = dt, np.exp(-0.5 * dt * basis.eigenvalues_discrete)
        start = basis.from_spectral(self.half * c)
        stage, v1 = self._stage(start, dt)
        stage, v2 = self._stage(stage, dt)
        stage += start
        out = basis.to_spectral(np.multiply(0.5, stage, out=stage))
        out *= self.half
        out[0] = c[0]  # the transforms conserve mass only to roundoff; pin the mean exactly
        return out, max(v1, v2)

    def _stage(self, u: np.ndarray, dt: float):
        """One forward-Euler upwind transport step and its max|v|, refused above the CFL bound."""
        v, vmax = _velocity(u, self.km, self.faces)
        if vmax > 0 and dt > (admissible := self.h / (2.0 * vmax)):
            raise RejectedStepError(dt, admissible)
        # v becomes the flux in place: M grad K(u) in linearized mode, else (M + u) grad K(u),
        # at M = 0 in nonlinear mode, with u upwinded; the constant M needs no upwinding
        if self.mode == "linearized":
            v *= self.mass_level
        else:
            upwind = np.where(v[1:-1] > 0, u[:-1], u[1:])
            if self.mode == "perturbed":
                upwind += self.mass_level
            v[1:-1] *= upwind
        d = divergence(v, self.grid)
        return np.subtract(u, np.multiply(dt, d, out=d), out=d), vmax


def step_imex(
    u: np.ndarray, dt: float, mode: str, mass_level: float, km: KernelMatrices
) -> np.ndarray:
    """One Strang step: exact half-step diffusion, Heun upwind transport, half-step diffusion.

    It is evolve's one step of a set dt, with evolve's checks on the datum,
    on each Heun stage's CFL bound and on the result.
    """
    return evolve(u, km, mode, mass_level, t_end=dt, dt=dt).snapshots[-1]


def _auto_step(c, t, dt, t_end, budget, strang):
    """One step from t at dt, halved while a stage is rejected; a step past t_end ends on it.

    Returns the coefficients, their time and the stages' max|v|; fails when dt
    makes no progress or would need more than budget steps.
    """
    while True:
        if t + dt == t or dt * budget < t_end - t:
            raise SchemeFailureError(f"dt={dt:g} at t={t:g} needs more than {_MAX_STEPS:.0e} steps")
        last = t + dt >= t_end
        try:
            c, vmax = strang(c, t_end - t if last else dt)
            return c, t_end if last else t + dt, vmax
        except RejectedStepError:
            dt *= 0.5


# an overflow or NaN in a run shows in its velocity or state checks, which refuse it
@np.errstate(over="ignore", invalid="ignore")
def evolve(
    u0,
    km: KernelMatrices,
    mode: str,
    mass_level: float = 0.0,
    t_end: float = 1.0,
    dt: float | None = None,
    output_stride: int = 1,
) -> Trajectory:
    """Integrate the datum u0 on km's grid to t_end, recording every output_stride steps.

    dt=None selects the automatic step: auto_dt's rule at the datum, then at
    the larger max|v| of the previous step's two stages; it is halved while a
    stage is rejected, and the last step lands on t_end. A set dt is rounded
    down to t_end / (whole number of steps) and kept.

    A step does two cosine transforms and two kernel actions; its state waits in a
    block of about 2^14 values, built by one batched transform and checked there.
    The first failing state raises at its own time, even when a later step raised first.
    """
    if mode not in MODES:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    check_real(t_end, "t_end", 0, strict=True)
    if dt is not None:
        check_real(dt, "dt", 0, strict=True)
    output_stride = check_count(output_stride, "the output stride", 1)
    check_real(mass_level, "mass level M", 0)
    grid = km.grid
    h, n, from_spectral = grid.h, grid.n, grid.basis.from_spectral
    u = check_datum(u0, n)
    mass0 = h * float(u.sum())
    if mode == "nonlinear" and u.min() < 0:
        raise InvalidParameterError("nonlinear mode requires a nonnegative initial datum")
    if mode != "nonlinear" and abs(mass0) > 1e-10 * max(1.0, float(np.abs(u).max())):
        raise InvalidParameterError("perturbation modes require a zero-mean initial datum")
    auto = dt is None
    # an automatic run takes at least the steps of its cap h/2; a set dt, exactly its own
    steps = t_end / (0.5 * h if auto else dt)
    run = f"a run of {'at least ' if auto else ''}{steps:.3g} steps"
    if steps > _MAX_STEPS:
        raise InvalidParameterError(f"{run} is refused; the limit is {_MAX_STEPS:.0e} steps")
    check_size(((steps + 1) / output_stride + 2) * n, f"{run} at stride {output_stride}")
    nsteps = max(1, math.ceil(steps - 1e-12))  # the step count of a set dt
    dt = auto_dt(u, km) if auto else t_end / nsteps
    strang = _Strang(mode, mass_level, km)
    c = grid.basis.to_spectral(u)
    floor = -1e-12 * max(1.0, float(np.abs(u).max()))
    # the waiting steps: closing coefficients, times and whether each is stored
    rows = max(1, _BLOCK // n)
    block, block_times, kept = np.empty((rows, n)), np.empty(rows), np.empty(rows, dtype=bool)
    times, states = [np.zeros(1)], [u[None]]

    def check(k: int) -> None:
        """Check the first k waiting states in step order, raising the first failure, and
        keep the stored ones."""
        cells = from_spectral(block[:k].T).T
        finite = np.isfinite(cells).all(axis=1)
        bad = ~finite
        if mode == "nonlinear":
            low = cells.min(axis=1)
            drift = np.abs(h * cells.sum(axis=1) - mass0)
            bad |= (low < floor) | (mass0 != 0) & (drift > 1e-12 * abs(mass0))
        if bad.any():
            j = int(bad.argmax())
            t = float(block_times[j])
            if not finite[j]:
                raise SchemeFailureError(f"non-finite state at t={t:g}")
            if low[j] < floor:
                raise SchemeFailureError(
                    f"positivity lost at t={t:g} (min {low[j]:.3e}); refine dt or the grid"
                )
            raise SchemeFailureError(f"mass drift {drift[j] / abs(mass0):.3e} at t={t:g}")
        times.append(block_times[:k][kept[:k]])
        states.append(cells[kept[:k]])

    t, step, last, waiting, stored = 0.0, 0, False, 0, 1
    try:
        while not last:
            step += 1
            if auto:
                c, t, vmax = _auto_step(c, t, dt, t_end, _MAX_STEPS - step + 1, strang)
                dt, last = _cfl_dt(vmax, h), t == t_end
            else:
                c, _ = strang(c, dt)
                t, last = step * dt, step == nsteps
            keep = step % output_stride == 0 or last
            block[waiting], block_times[waiting], kept[waiting] = c, t, keep
            waiting += 1
            if keep:
                stored += 1
                if stored * n > MAX_STORED_VALUES:
                    raise SchemeFailureError(
                        f"the snapshots up to t={t:g} hold more than {MAX_STORED_VALUES:.0e} "
                        "values; raise the output stride"
                    )
            if waiting == rows or last:
                k, waiting = waiting, 0
                check(k)
    except Exception:
        # a waiting state's failure comes first, as it did at its own step
        if waiting:
            check(waiting)
        raise
    return Trajectory.from_states(np.concatenate(times), np.concatenate(states), grid)


def heat_semigroup(u, grid: Grid1D, t) -> np.ndarray:
    """e^{-t L_h}, the Neumann heat propagator, on cell values along axis 0, exact on the
    grid's cosine modes. An array of times adds its axes after u's: a column per time."""
    times = np.asarray(t)
    for time in times.flat:
        check_real(time, "semigroup time", 0)
    return _propagate(grid.basis.to_spectral(u), grid, times)


def _propagate(c: np.ndarray, grid: Grid1D, times: np.ndarray) -> np.ndarray:
    """The cell values of e^{-t L_h} on the mode coefficients c, for each of the times."""
    decay = np.exp(-np.multiply.outer(grid.basis.eigenvalues_discrete, times))
    decay = decay.reshape((grid.n,) + (1,) * (c.ndim - 1) + times.shape)
    return grid.basis.from_spectral(c.reshape(c.shape + (1,) * times.ndim) * decay)


@dataclass(frozen=True, eq=False)
class SemigroupProbeReport:
    p: float
    q: float
    times: np.ndarray
    smoothing_ratios: np.ndarray  # per (probe, time), no-derivative estimate
    gradient_ratios: np.ndarray  # per (probe, time), derivative estimate
    smoothing_constant: float
    gradient_constant: float


def semigroup_probe(probes, grid: Grid1D, p: float, q: float, times) -> SemigroupProbeReport:
    """Empirical constants in the heat-semigroup decay estimates (d = 1).

    For each probe f and time t the report records
      ||e^{tL} f||_p / ((1 + t^{-(1/2)(1/q-1/p)}) ||f||_q)              and
      ||d/dx e^{tL} f||_p * t^{(1/2)(1/q-1/p)+1/2} * e^{lambda_1 t} / ||f||_q;
    the suprema are the empirical constants.
    """
    if not 1 <= q <= p:
        raise InvalidParameterError("need 1 <= q <= p <= inf")
    times = np.asarray(times, dtype=float)
    if times.size == 0 or not np.all((times > 0) & (LAMBDA_1 * times < LOG_MAX_DOUBLE)):
        limit = LOG_MAX_DOUBLE / LAMBDA_1  # about 71.9: e^{lambda_1 t} overflows above it
        raise InvalidParameterError(f"probe times must lie in (0, {limit:.4g})")
    probes = list(probes)
    if not probes:
        raise InvalidParameterError("need at least one probe")
    expo = 0.5 * (1.0 / q - 1.0 / p)  # 1/inf = 0
    smoothing = np.zeros((len(probes), times.size))
    grad = np.zeros((len(probes), times.size))
    for i, f in enumerate(probes):
        fq = lp_norm(f, q, grid)
        if fq == 0:
            continue
        uf = heat_semigroup(f, grid, times)  # a column per time
        smoothing[i] = lp_norm(uf, p, grid) / ((1.0 + times**-expo) * fq)
        # the ratio first: e^{lambda_1 t} times t^{...} alone may overflow
        ratio = lp_norm(gradient(uf, grid), p, grid) / fq
        grad[i] = ratio * np.exp(LAMBDA_1 * times) * times ** (expo + 0.5)
    return SemigroupProbeReport(
        p=p,
        q=q,
        times=times,
        smoothing_ratios=smoothing,
        gradient_ratios=grad,
        smoothing_constant=float(smoothing.max(initial=0.0)),
        gradient_constant=float(grad.max(initial=0.0)),
    )


def existence_time(u0, grid: Grid1D, grad_norm: float, q_prime: float, c_emp: float) -> float:
    """Horizon on which the Duhamel map contracts, from the scalar condition.

    Mild branch (q' > 1): 4 c T^{1/(2q)} g ||u0||_1 < 1 with 1/q = 1 - 1/q'.
    Strongly singular branch (q' = 1): 4 c T^{1/2} g (||u0||_1 + ||u0||_inf) < 1.
    The returned T solves the corresponding equality.
    """
    u0 = check_datum(u0, grid.n)
    check_real(c_emp, "empirical constant", 0, strict=True)
    check_real(q_prime, "q'", 1, finite=False)
    if check_real(grad_norm, "gradient kernel norm", 0, finite=False) == math.inf:
        raise NoExistenceTimeError("gradient kernel norm estimate is infinite")
    if q_prime > 1:
        q = q_prime / (q_prime - 1.0) if np.isfinite(q_prime) else 1.0
        gamma = 1.0 / (2.0 * q)
        budget = 4.0 * c_emp * grad_norm * lp_norm(u0, 1, grid)
    else:
        gamma = 0.5
        budget = 4.0 * c_emp * grad_norm * (lp_norm(u0, 1, grid) + lp_norm(u0, np.inf, grid))
    try:
        horizon = float(budget ** (-1.0 / gamma)) if budget > 0 else math.inf
    except OverflowError:  # T beyond the largest double: no finite horizon binds
        horizon = math.inf
    if horizon == 0:
        raise NoExistenceTimeError(f"the existence time underflows to 0 (budget {budget:g})")
    return horizon


def picard_mild_solve(
    u0,
    km: KernelMatrices,
    horizon: float,
    n_time: int = 128,
    max_iter: int = 30,
    tol: float = 1e-10,
    q_prime: float = np.inf,
) -> MildSolveDiagnostics:
    """Fixed-point iteration on the Duhamel integral form of the dynamics.

    The drift contribution is accumulated mode-wise: the propagator factor is
    integrated exactly over each time subinterval against the trapezoidal
    average of the transport term, so the endpoint singularity of the
    gradient-semigroup bound never enters the quadrature.
    """
    u0 = check_datum(u0, km.grid.n)
    check_real(horizon, "horizon T", 0, strict=True)
    n_time = check_count(n_time, "the time interval count n_time", 2)
    max_iter = check_count(max_iter, "the sweep count max_iter", 1)
    check_real(tol, "tol", 0, finite=False)
    check_real(q_prime, "q'", 1, finite=False)
    # two (n_time + 1, n) arrays, free and states, and the blocks' work, about
    # 9 * _BLOCK values: three bound them
    check_size(3 * km.grid.n * (n_time + 1), f"a Picard solve at n = {km.grid.n}, n_time = {n_time}")
    grid = km.grid
    basis = grid.basis
    lam = basis.eigenvalues_discrete
    dt = horizon / n_time
    times = dt * np.arange(n_time + 1)
    q = 1.0 if np.isinf(q_prime) else (q_prime / (q_prime - 1.0) if q_prime > 1 else np.inf)
    rows = max(1, _BLOCK // grid.n)
    blocks = [slice(j, j + rows) for j in range(0, n_time + 1, rows)]

    decay = np.exp(-lam * dt)
    gain = np.empty_like(lam)
    gain[0] = dt
    gain[1:] = (1.0 - decay[1:]) / lam[1:]

    def sweep(states: np.ndarray) -> float:
        """One Picard sweep, block by block in place; sup_t ||.||_1 + sup_t ||.||_q of the change.

        A block reads only its own old rows and two rows carried from the block
        before: its last raw drift row and its last Duhamel drift integral row.
        """
        sup = np.zeros(2)  # over the times so far: the change's L^1 and L^q norms
        carry = np.zeros((2, grid.n))
        for s in blocks:
            old = states[s].T
            flux = apply_grad(km, old)  # u grad K(u) at the interior faces
            flux[1:-1] *= 0.5 * (old[:-1] + old[1:])
            d = np.empty((old.shape[1] + 1, grid.n))  # row 0: the row carried in
            d[1:] = basis.to_spectral(divergence(flux, grid)).T
            d[0] = carry[0]
            dbar = gain * (0.5 * (d[:-1] + d[1:]))  # the trapezoidal average over each subinterval
            carry[0] = d[-1]
            first = 0 if s.start else 1  # the first block starts at t_0, whose integral is 0
            d[first] = carry[1]
            for j in range(first, len(dbar)):
                np.multiply(decay, d[j], out=d[j + 1])
                d[j + 1] += dbar[j]
            carry[1] = d[-1]
            new = basis.from_spectral(d[1:].T)
            np.subtract(free[s].T, new, out=new)
            change = np.subtract(new.T, states[s], out=d[1:]).T  # one column per time
            states[s] = new.T
            l1 = lp_norm(change, 1, grid)
            lq = l1 if q == 1 else lp_norm(change, q, grid)
            np.maximum(sup, (l1.max(), lq.max()), out=sup)
        return float(sup.sum())

    distances = []
    # an overflow shows as a non-finite distance, which ends the iteration
    with np.errstate(over="ignore", invalid="ignore"):
        # states are time-major (n_time + 1, n) arrays: row j holds the cell values at t_j
        free, c0 = np.empty((n_time + 1, grid.n)), basis.to_spectral(u0)
        for s in blocks:
            free[s] = _propagate(c0, grid, times[s]).T
        states = free.copy()
        for _ in range(max_iter):
            distance = sweep(states)
            if not math.isfinite(distance):
                raise NonContractionError(distances)
            distances.append(distance)
            if distance <= tol:
                break
        else:
            raise NonContractionError(distances)
    ratios = [b / a for a, b in zip(distances, distances[1:]) if a > 0 and b > 0]
    contraction = float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0
    return MildSolveDiagnostics(distances, contraction, times, states, grid)
