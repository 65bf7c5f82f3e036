"""Theorem-level experiments: rate fits, threshold bisection, basin probes.

These orchestrate the solver and spectral modules into the measurements the
stability statements are checked against: fitted exponential rates of the
perturbation norm, the critical mass located by the sign of the principal
eigenvalue, lower bounds on the nonlinear attraction basin, and agreement
between the two independent time discretizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitFailureError, InvalidBracketError, InvalidParameterError
from .grid import Field, Grid1D, SpectralBasis
from .kernel import KernelSpec, assemble
from .solver import SimConfig, Trajectory, auto_dt, evolve, picard_mild_solve, step_imex
from .spectral import LAMBDA_1, VERDICT_STABLE, LinearizedFamily, principal_eigenpair
from .spectral import stability_verdict

# log-norm fit window: samples outside are discarded, as is the leading
# transient fraction
_NORM_FLOOR = 1e-10
_NORM_CEIL = 1e6
_TRANSIENT_FRACTION = 0.05
_MIN_SAMPLES = 10


@dataclass(frozen=True)
class RateFit:
    rate: float  # positive = decay of the norm
    r_squared: float
    window: tuple
    samples_used: int
    reliable: bool


@dataclass(frozen=True)
class BasinProbe:
    mass_level: float
    eta_estimate: float  # largest tested amplitude that decayed
    eta_fail: float | None  # smallest tested amplitude that did not
    open_above: bool
    bisection_history: tuple


def fit_rate(traj: Trajectory, norm: str = "l2") -> RateFit:
    """Least-squares exponential rate of the chosen norm, decay positive."""
    series = traj.norm_series(norm)
    if series.size < _MIN_SAMPLES:
        raise FitFailureError(f"need >= {_MIN_SAMPLES} snapshots, got {series.size}")
    keep = (series > _NORM_FLOOR) & (series < _NORM_CEIL)
    skip = int(math.ceil(_TRANSIENT_FRACTION * series.size))
    keep[:skip] = False
    if keep.sum() < _MIN_SAMPLES:
        raise FitFailureError(
            f"only {int(keep.sum())} usable samples after windowing, need {_MIN_SAMPLES}"
        )
    t = traj.times[keep]
    y = np.log(series[keep])
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    degenerate = ss_tot <= 1e-20
    r2 = 0.0 if degenerate else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(
        rate=float(-slope),
        r_squared=r2,
        window=(float(t[0]), float(t[-1])),
        samples_used=int(keep.sum()),
        reliable=(not degenerate) and r2 >= 0.99,
    )


def threshold_bisect(
    spec: KernelSpec,
    grid: Grid1D,
    mass_lo: float,
    mass_hi: float,
    tol_mass: float,
    history: list | None = None,
) -> float:
    """Critical mass where the principal eigenvalue changes sign."""
    if not (0 <= mass_lo < mass_hi):
        raise InvalidParameterError("need 0 <= M_lo < M_hi")
    if tol_mass <= 0:
        raise InvalidParameterError("tol_M must be positive")
    # the kernel and the mass-independent parts of S(M) are built once
    family = LinearizedFamily(grid, assemble(spec, grid))

    def eig(mass):
        return principal_eigenpair(family.at(mass))[0]

    lo, hi = mass_lo, mass_hi
    e_lo, e_hi = eig(lo), eig(hi)
    if not (e_lo > 0 > e_hi):
        raise InvalidBracketError(
            f"principal eigenvalue does not change sign on [{lo}, {hi}]: "
            f"{e_lo:.4g} and {e_hi:.4g}"
        )
    while hi - lo > tol_mass:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats: no tolerance below their spacing
        e_mid = eig(mid)
        if history is not None:
            history.append((lo, hi, mid, e_mid))
        if e_mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _decays(spec, grid, mass_level, amplitude, t_end, n, seed):
    """Run the perturbed dynamics from amplitude * w1 and classify decay."""
    if amplitude == 0:
        return True
    config = SimConfig(
        n=n,
        kernel=spec,
        mode="perturbed",
        mass_level=mass_level,
        t_end=t_end,
        initial=f"constant_plus_mode:0,{amplitude!r},1",
        output_stride=10**9,  # endpoints only
        seed=seed,
    )
    traj = evolve(config)
    return traj.l2[-1] <= 0.01 * traj.l2[0]


def basin_probe(
    spec: KernelSpec,
    grid: Grid1D,
    mass_level: float,
    amplitude_hi: float,
    steps: int,
    t_end: float | None = None,
    seed: int = 0,
) -> BasinProbe:
    """Bracket the attraction-basin radius by bisection on the amplitude.

    Only ever reports a lower bound: if every tested amplitude decays the
    result is flagged open above.
    """
    if amplitude_hi <= 0 or steps < 1:
        raise InvalidParameterError("need amplitude_hi > 0 and steps >= 1")
    report = stability_verdict(spec, grid, mass_level)
    if report.verdict != VERDICT_STABLE:
        raise InvalidParameterError(
            f"basin probe needs the verified-stable regime, verdict is {report.verdict}"
        )
    if t_end is None:
        rate = LAMBDA_1 * (1.0 - mass_level * report.interaction_coefficient)
        t_end = 10.0 / max(rate, 1e-2)
    history = []
    if _decays(spec, grid, mass_level, amplitude_hi, t_end, grid.n, seed):
        history.append((amplitude_hi, True))
        return BasinProbe(mass_level, amplitude_hi, None, True, tuple(history))
    history.append((amplitude_hi, False))
    lo, hi = 0.0, amplitude_hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        ok = _decays(spec, grid, mass_level, mid, t_end, grid.n, seed)
        history.append((mid, ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return BasinProbe(mass_level, lo, hi, False, tuple(history))


def cross_validate(
    u0: Field,
    spec: KernelSpec,
    grid: Grid1D,
    horizon: float,
    n_time: int = 128,
) -> float:
    """Max L-infinity gap between the split stepper and the mild discretization.

    Both runs start from u0; the comparison is taken over the mild solver's
    output times, with the stepper's steps aligned so the times are shared.
    """
    km = assemble(spec, grid)
    basis = SpectralBasis(grid)
    mild = picard_mild_solve(u0, km, horizon, n_time=n_time)
    dt_grid = horizon / n_time
    state = u0
    gap = 0.0
    for idx in range(1, n_time + 1):
        # equal substeps per mild output time, none longer than the automatic step
        sub = max(1, math.ceil(dt_grid / auto_dt(state, km, "nonlinear", 0.0)))
        for _ in range(sub):
            state = step_imex(state, dt_grid / sub, "nonlinear", 0.0, km, basis)
        gap = max(gap, float(np.abs(state.values - mild.trajectory.snapshots[idx].values).max()))
    return gap
