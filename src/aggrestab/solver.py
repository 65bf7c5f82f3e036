"""Time integration: Strang-split finite-volume stepping and the Duhamel fixed point.

The method-of-lines integrator splits each step symmetrically (Strang): a
half step of diffusion, applied exactly as e^{-(dt/2) L_h} on the cosine
modes of `SpectralBasis`, then the nonlocal transport with donor-cell
upwinding and Heun's method (SSP-RK2), then a second diffusion half step.
The scheme is second order in time, and discrete mass conservation and
positivity are structural: diffusion leaves the constant mode alone and
e^{-t L_h} is nonnegative, and each Heun stage is a forward-Euler step under
the CFL bound. Transport alone sets the automatic step. The mild solver
iterates the integral fixed point on the same exact propagator, with its own
treatment of the drift.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    NonContractionError,
    NoExistenceTimeError,
    RejectedStepError,
    SchemeFailureError,
)
from .grid import MAX_STORED_VALUES, Field, Grid1D, SpectralBasis, divergence, gradient, lp_norm
from .kernel import KernelMatrices, KernelSpec, apply_grad, assemble
from .spectral import LAMBDA_1

MODES = ("nonlinear", "perturbed", "linearized")

_DT_EPS = 1e-30  # guards the pure-diffusion case in the CFL formula
# evolve refuses a run that needs more steps than this, or keeps more state
# values than MAX_STORED_VALUES; the longest default basin_probe horizon
# (t_end = 1000 at the automatic step cap h/2) is 2000 n steps
_MAX_STEPS = 10**8


@dataclass(frozen=True)
class SimConfig:
    n: int
    kernel: KernelSpec
    mode: str
    mass_level: float = 0.0
    t_end: float = 1.0
    dt: float | None = None  # None selects the automatic step, chosen before each step
    initial: str = "constant:1.0"
    output_stride: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParameterError(f"unknown mode {self.mode!r}")
        if self.t_end <= 0:
            raise InvalidParameterError("t_end must be positive")
        if self.dt is not None and self.dt <= 0:
            raise InvalidParameterError("dt must be positive")
        if self.output_stride < 1:
            raise InvalidParameterError("output stride must be >= 1")
        if self.mass_level < 0:
            raise InvalidParameterError("mass level M must be nonnegative")


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    snapshots: list
    mass: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    min_value: np.ndarray

    @classmethod
    def from_states(cls, times, states):
        fields = list(states)
        return cls(
            times=np.asarray(times, dtype=float),
            snapshots=fields,
            mass=np.array([f.mass for f in fields]),
            l1=np.array([lp_norm(f, 1) for f in fields]),
            l2=np.array([lp_norm(f, 2) for f in fields]),
            linf=np.array([lp_norm(f, np.inf) for f in fields]),
            min_value=np.array([float(f.values.min()) for f in fields]),
        )

    def norm_series(self, which: str) -> np.ndarray:
        return {"l1": self.l1, "l2": self.l2, "linf": self.linf}[which]


@dataclass(frozen=True, eq=False)
class MildSolveDiagnostics:
    existence_time: float
    picard_distances: list
    contraction_ratio: float
    trajectory: Trajectory
    q: float
    q_prime: float


def initial_field(descriptor: str, grid: Grid1D, seed: int = 0) -> Field:
    """Build an initial datum from a config descriptor string.

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
            values = float(level) + float(amplitude) * SpectralBasis(grid).mode(int(k)).values
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
        if not np.isfinite(values).all():
            raise InvalidParameterError("the datum has a non-finite value")
        return Field(grid, values)
    except (ValueError, OSError) as exc:
        raise InvalidParameterError(f"bad initial descriptor {descriptor!r}: {exc}") from exc


def _transport_flux(state: Field, mode: str, mass_level: float, km: KernelMatrices):
    """Face flux of the drift term and the advecting velocity used for CFL."""
    v = apply_grad(km, state)
    v[[0, -1]] = 0.0
    if mode == "linearized":
        return mass_level * v, v
    u = state.values
    upwind = np.zeros(km.grid.n + 1)
    upwind[1:-1] = np.where(v[1:-1] > 0, u[:-1], u[1:])
    if mode == "nonlinear":
        return v * upwind, v
    # perturbed: flux (M + phi) grad K(phi), the constant part needs no upwinding
    return v * (mass_level + upwind), v


def auto_dt(state: Field, km: KernelMatrices, mode: str, mass_level: float) -> float:
    """A quarter of the CFL step of the transport at state, capped at h/2.

    Diffusion is exact, so the cap keeps a step with no transport from
    jumping across the whole run.
    """
    _, v = _transport_flux(state, mode, mass_level, km)
    vmax = float(np.abs(v).max())
    if not math.isfinite(vmax):
        raise SchemeFailureError("non-finite transport velocity: no step is admissible")
    h = km.grid.h
    return min(h / (8.0 * vmax + _DT_EPS), 0.5 * h)


def _transport_stage(state: Field, dt: float, mode: str, mass_level: float, km: KernelMatrices):
    """One forward-Euler step of the upwind transport, refused above the CFL bound."""
    flux, v = _transport_flux(state, mode, mass_level, km)
    vmax = float(np.abs(v).max())
    if not math.isfinite(vmax):
        raise RejectedStepError(dt, 0.0)  # no step is admissible: a NaN fails no comparison
    if vmax > 0:
        admissible = km.grid.h / (2.0 * vmax)
        if dt > admissible:
            raise RejectedStepError(dt, admissible)
    return Field(state.grid, state.values - dt * divergence(flux, km.grid))


def step_imex(
    state: Field,
    dt: float,
    mode: str,
    mass_level: float,
    km: KernelMatrices,
    basis: SpectralBasis | None = None,
) -> Field:
    """One Strang step: exact half-step diffusion, Heun upwind transport, half-step diffusion.

    Each Heun stage is checked against the CFL bound. Pass the grid's basis
    to reuse it across steps.
    """
    if mode not in MODES:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    basis = basis if basis is not None else SpectralBasis(state.grid)
    half = np.exp(-0.5 * dt * basis.eigenvalues_discrete)
    start = Field(state.grid, basis.from_spectral(half * basis.to_spectral(state.values)))
    stage = _transport_stage(start, dt, mode, mass_level, km)
    stage = _transport_stage(stage, dt, mode, mass_level, km)
    out = basis.from_spectral(half * basis.to_spectral(0.5 * (start.values + stage.values)))
    # the transforms conserve mass only to roundoff; pin the mean exactly
    out += state.values.mean() - out.mean()
    return Field(state.grid, out)


def _auto_step(state, t, t_end, budget, mode, mass_level, km, basis):
    """One step from t at the automatic dt, halved while a stage is rejected.

    Returns the new state and its time; a step that would pass t_end ends on
    it. Fails when dt makes no progress or would need more than budget steps.
    """
    dt = auto_dt(state, km, mode, mass_level)
    while True:
        if t + dt == t or dt * budget < t_end - t:
            raise SchemeFailureError(f"dt={dt:g} at t={t:g} needs more than {_MAX_STEPS:.0e} steps")
        last = t + dt >= t_end
        try:
            new = step_imex(state, t_end - t if last else dt, mode, mass_level, km, basis)
            return new, t_end if last else t + dt
        except RejectedStepError as exc:
            if exc.admissible == 0.0:  # a non-finite velocity: no smaller step helps
                raise
            dt *= 0.5


def evolve(config: SimConfig, kernel_matrices: KernelMatrices | None = None) -> Trajectory:
    """Integrate to t_end, recording snapshots every output_stride steps.

    A set dt is rounded down to t_end / (whole number of steps) and kept. The
    automatic step is chosen from the current state before every step and
    halved while a stage is rejected; the last step lands on t_end.
    """
    grid = Grid1D(config.n)
    km = kernel_matrices if kernel_matrices is not None else assemble(config.kernel, grid)
    basis = SpectralBasis(grid)
    state = initial_field(config.initial, grid, config.seed)
    if config.mode == "nonlinear":
        if state.values.min() < 0:
            raise InvalidParameterError("nonlinear mode requires a nonnegative initial datum")
    else:
        scale = max(1.0, float(np.abs(state.values).max()))
        if abs(state.mass) > 1e-10 * scale:
            raise InvalidParameterError("perturbation modes require a zero-mean initial datum")
    auto = config.dt is None
    # an automatic run takes at least the steps of its cap h/2; a set dt, exactly its own
    steps = config.t_end / (0.5 * grid.h if auto else config.dt)
    stored = ((steps + 1) / config.output_stride + 2) * grid.n
    if steps > _MAX_STEPS or stored > MAX_STORED_VALUES:
        raise InvalidParameterError(
            f"the run needs {'at least ' if auto else ''}{steps:.3g} steps and keeps up to "
            f"{stored:.3g} state values; the limits are {_MAX_STEPS:.0e} and {MAX_STORED_VALUES:.0e}"
        )
    if not auto:
        nsteps = max(1, math.ceil(steps - 1e-12))
        dt = config.t_end / nsteps
    mass0 = state.mass
    floor = -1e-12 * max(1.0, float(np.abs(state.values).max()))
    times = [0.0]
    states = [state]
    t, step, last = 0.0, 0, False
    while not last:
        step += 1
        if auto:
            state, t = _auto_step(
                state, t, config.t_end, _MAX_STEPS - step + 1,
                config.mode, config.mass_level, km, basis,
            )
            last = t == config.t_end
        else:
            state = step_imex(state, dt, config.mode, config.mass_level, km, basis)
            t, last = step * dt, step == nsteps
        if not np.isfinite(state.values).all():
            raise SchemeFailureError(f"non-finite state at t={t:g}")
        if config.mode == "nonlinear":
            if float(state.values.min()) < floor:
                raise SchemeFailureError(
                    f"positivity lost at t={t:g} (min {state.values.min():.3e}); "
                    "refine dt or the grid"
                )
            if mass0 != 0 and abs(state.mass - mass0) > 1e-12 * abs(mass0):
                raise SchemeFailureError(
                    f"mass drift {abs(state.mass - mass0) / abs(mass0):.3e} at t={t:g}"
                )
        if step % config.output_stride == 0 or last:
            times.append(t)
            states.append(state)
            if len(states) * grid.n > MAX_STORED_VALUES:
                raise SchemeFailureError(
                    f"the snapshots up to t={t:g} hold more than {MAX_STORED_VALUES:.0e} values; "
                    "raise the output stride"
                )
    return Trajectory.from_states(times, states)


def heat_semigroup(f: Field, t: float) -> Field:
    """Neumann heat propagator, exact on the discrete cosine basis."""
    if t < 0:
        raise InvalidParameterError("semigroup time must be nonnegative")
    basis = SpectralBasis(f.grid)
    c = basis.to_spectral(f.values)
    return Field(f.grid, basis.from_spectral(c * np.exp(-basis.eigenvalues_discrete * t)))


@dataclass(frozen=True, eq=False)
class SemigroupProbeReport:
    p: float
    q: float
    times: np.ndarray
    smoothing_ratios: np.ndarray  # per (probe, time), no-derivative estimate
    gradient_ratios: np.ndarray  # per (probe, time), derivative estimate
    smoothing_constant: float
    gradient_constant: float


def semigroup_probe(probes, p: float, q: float, times) -> SemigroupProbeReport:
    """Empirical constants in the heat-semigroup decay estimates (d = 1).

    For each probe f and time t the report records
      ||e^{tL} f||_p / ((1 + t^{-(1/2)(1/q-1/p)}) ||f||_q)              and
      ||d/dx e^{tL} f||_p * t^{(1/2)(1/q-1/p)+1/2} * e^{lambda_1 t} / ||f||_q;
    the suprema are the empirical constants.
    """
    if not 1 <= q <= p:
        raise InvalidParameterError("need 1 <= q <= p <= inf")
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(times <= 0):
        raise InvalidParameterError("probe times must be positive")
    probes = list(probes)
    if not probes:
        raise InvalidParameterError("need at least one probe")
    expo = 0.5 * (1.0 / q - 1.0 / p)  # 1/inf = 0
    smoothing = np.zeros((len(probes), times.size))
    grad = np.zeros((len(probes), times.size))
    for i, f in enumerate(probes):
        fq = lp_norm(f, q)
        if fq == 0:
            continue
        for j, t in enumerate(times):
            uf = heat_semigroup(f, t)
            smoothing[i, j] = lp_norm(uf, p) / ((1.0 + t**(-expo)) * fq)
            g = gradient(uf.values, f.grid)
            grad[i, j] = lp_norm(g, p, f.grid) * t ** (expo + 0.5) * math.exp(LAMBDA_1 * t) / fq
    return SemigroupProbeReport(
        p=p,
        q=q,
        times=times,
        smoothing_ratios=smoothing,
        gradient_ratios=grad,
        smoothing_constant=float(smoothing.max(initial=0.0)),
        gradient_constant=float(grad.max(initial=0.0)),
    )


def existence_time(u0: Field, grad_norm: float, q_prime: float, c_emp: float) -> float:
    """Horizon on which the Duhamel map contracts, from the scalar condition.

    Mild branch (q' > 1): 4 c T^{1/(2q)} g ||u0||_1 < 1 with 1/q = 1 - 1/q'.
    Strongly singular branch (q' = 1): 4 c T^{1/2} g (||u0||_1 + ||u0||_inf) < 1.
    The returned T solves the corresponding equality.
    """
    if c_emp <= 0:
        raise InvalidParameterError("empirical constant must be positive")
    if q_prime < 1:
        raise InvalidParameterError("q' must be in [1, inf]")
    if not np.isfinite(grad_norm):
        raise NoExistenceTimeError("gradient kernel norm estimate is infinite")
    if grad_norm < 0:
        raise InvalidParameterError("gradient kernel norm must be nonnegative")
    if grad_norm == 0:
        return math.inf
    if q_prime > 1:
        q = q_prime / (q_prime - 1.0) if np.isfinite(q_prime) else 1.0
        gamma = 1.0 / (2.0 * q)
        budget = 4.0 * c_emp * grad_norm * lp_norm(u0, 1)
    else:
        gamma = 0.5
        budget = 4.0 * c_emp * grad_norm * (lp_norm(u0, 1) + lp_norm(u0, np.inf))
    if budget == 0:
        return math.inf
    return float(budget ** (-1.0 / gamma))


def picard_mild_solve(
    u0: Field,
    km: KernelMatrices,
    horizon: float,
    n_time: int = 128,
    max_iter: int = 30,
    tol: float = 1e-10,
    q_prime: float = np.inf,
    existence_estimate: float | None = None,
) -> MildSolveDiagnostics:
    """Fixed-point iteration on the Duhamel integral form of the dynamics.

    The drift contribution is accumulated mode-wise: the propagator factor is
    integrated exactly over each time subinterval against the trapezoidal
    average of the transport term, so the endpoint singularity of the
    gradient-semigroup bound never enters the quadrature.
    """
    if horizon <= 0:
        raise InvalidParameterError("horizon T must be positive")
    if n_time < 2:
        raise InvalidParameterError("need at least 2 time intervals")
    if km.grid.n * (n_time + 1) > MAX_STORED_VALUES:
        raise InvalidParameterError(
            f"the (n, n_time + 1) states hold {km.grid.n * (n_time + 1):.3g} values; "
            f"the limit is {MAX_STORED_VALUES:.0e}"
        )
    if existence_estimate is not None and horizon > existence_estimate:
        warnings.warn(
            f"T={horizon:g} exceeds the contraction estimate {existence_estimate:g}; "
            "the iteration may not contract",
            stacklevel=2,
        )
    grid = km.grid
    basis = SpectralBasis(grid)
    lam = basis.eigenvalues_discrete
    dt = horizon / n_time
    times = dt * np.arange(n_time + 1)
    q = 1.0 if np.isinf(q_prime) else (q_prime / (q_prime - 1.0) if q_prime > 1 else np.inf)

    # states are (n, n_time + 1) arrays: column j holds the cell values at t_j
    c0 = basis.to_spectral(u0.values)
    free = basis.from_spectral(c0[:, None] * np.exp(-np.outer(lam, times)))

    decay = np.exp(-lam * dt)
    gain = np.empty_like(lam)
    gain[0] = dt
    gain[1:] = (1.0 - decay[1:]) / lam[1:]

    # a function of its own, so that the face array is freed before the transform
    def face_flux(states: np.ndarray) -> np.ndarray:
        """u grad K(u) at the faces for every time, zero at the boundary faces."""
        flux = grid.h * (km.gradk_faces @ states)
        flux[[0, -1]] = 0.0
        flux[1:-1] *= 0.5 * (states[:-1] + states[1:])
        return flux

    def drift_integrals(states: np.ndarray) -> np.ndarray:
        """Mode coefficients of the Duhamel drift integral from 0 to each t_j."""
        d = basis.to_spectral(divergence(face_flux(states), grid))
        dbar = 0.5 * (d[:, :-1] + d[:, 1:])  # trapezoidal average over each subinterval
        d[:, 0] = 0.0
        for j in range(n_time):
            d[:, j + 1] = decay * d[:, j] + gain * dbar[:, j]
        return d

    def norm_xt(delta: np.ndarray) -> float:
        """sup_t ||.||_1 + sup_t ||.||_q over the time columns; overwrites delta."""
        np.abs(delta, out=delta)
        sup1 = grid.h * delta.sum(axis=0)
        if np.isinf(q):
            supq = delta.max(axis=0)
        else:
            delta **= q
            supq = (grid.h * delta.sum(axis=0)) ** (1.0 / q)
        return float(sup1.max() + supq.max())

    states = free.copy()
    distances = []
    for _ in range(max_iter):
        new_states = basis.from_spectral(drift_integrals(states))
        np.subtract(free, new_states, out=new_states)
        # the old iterate's buffer takes the change, then is dropped
        distances.append(norm_xt(np.subtract(new_states, states, out=states)))
        states = new_states
        if distances[-1] <= tol:
            break
    else:
        raise NonContractionError(distances)
    ratios = [b / a for a, b in zip(distances, distances[1:]) if a > 0 and b > 0]
    contraction = float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0
    trajectory = Trajectory.from_states(times, [Field(grid, col) for col in states.T])
    return MildSolveDiagnostics(
        existence_time=existence_estimate if existence_estimate is not None else math.inf,
        picard_distances=distances,
        contraction_ratio=contraction,
        trajectory=trajectory,
        q=q,
        q_prime=q_prime,
    )
