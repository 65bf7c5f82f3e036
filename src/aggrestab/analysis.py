"""Theorem-level experiments: rate fits, threshold bisection, basin probes.

These orchestrate the solver and spectral modules into the measurements the
stability statements are checked against: fitted exponential rates of the
perturbation norm, the critical mass located by the sign of the principal
eigenvalue, lower bounds on the nonlinear attraction basin, and agreement
between the two independent time discretizations. Each takes the assembled
kernel `km` and assembles nothing: `threshold_bisect(km, M_lo, M_hi, tol)`
builds one `LinearizedFamily` for all its masses, `basin_probe(km, M, ...)`
steps on the kernel that its verdict reads, and `cross_validate(u0, km, T)`
runs both solvers on it, the split stepper through `evolve` like every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitFailureError, InvalidBracketError, InvalidParameterError
from .grid import check_count, check_real
from .kernel import KernelMatrices
from .solver import Trajectory, evolve, picard_mild_solve
from .spectral import LAMBDA_1, VERDICT_STABLE, assemble_linearized, principal_eigenpair
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
    km: KernelMatrices,
    mass_lo: float,
    mass_hi: float,
    tol_mass: float,
    history: list | None = None,
) -> float:
    """Critical mass where the principal eigenvalue changes sign.

    `principal_eigenpair` refuses an endpoint that is not finite.
    """
    if not (0 <= mass_lo < mass_hi):  # written so that NaN fails too
        raise InvalidParameterError("need 0 <= M_lo < M_hi")
    check_real(tol_mass, "tol_M", 0, strict=True)
    family = assemble_linearized(km)  # the mass-independent parts of S(M), built once

    def eig(mass):
        return principal_eigenpair(family, mass)[0]

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


def _decays(km, mass_level, amplitude, t_end) -> bool:
    """Run the perturbed dynamics from amplitude * w1 and classify decay."""
    u0 = amplitude * km.grid.basis.mode(1)
    traj = evolve(u0, km, "perturbed", mass_level, t_end, output_stride=10**9)  # endpoints only
    return bool(traj.l2[-1] <= 0.01 * traj.l2[0])


def basin_probe(
    km: KernelMatrices,
    mass_level: float,
    amplitude_hi: float,
    steps: int,
    t_end: float | None = None,
) -> BasinProbe:
    """Bracket the attraction-basin radius by bisection on the amplitude.

    Only ever reports a lower bound: if every tested amplitude decays the
    result is flagged open above.
    """
    check_real(amplitude_hi, "amplitude_hi", 0, strict=True)
    steps = check_count(steps, "the bisection step count", 1)
    report = stability_verdict(km, mass_level)
    if report.verdict != VERDICT_STABLE:
        raise InvalidParameterError(
            f"basin probe needs the verified-stable regime, verdict is {report.verdict}"
        )
    if t_end is None:
        rate = LAMBDA_1 * (1.0 - mass_level * report.interaction_coefficient)
        t_end = 10.0 / max(rate, 1e-2)
    history = []
    if _decays(km, mass_level, amplitude_hi, t_end):
        history.append((amplitude_hi, True))
        return BasinProbe(mass_level, amplitude_hi, None, True, tuple(history))
    history.append((amplitude_hi, False))
    lo, hi = 0.0, amplitude_hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        ok = _decays(km, mass_level, mid, t_end)
        history.append((mid, ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return BasinProbe(mass_level, lo, hi, False, tuple(history))


def cross_validate(u0, km: KernelMatrices, horizon: float, n_time: int = 128) -> float:
    """Max L-infinity gap between the split stepper and the mild discretization.

    Both runs start from the cell values u0 on the kernel's grid; the comparison
    is taken over the mild solver's output times. `evolve` advances the stepper
    over each mild interval at its automatic step, whose last step lands on the
    mild time.
    """
    mild = picard_mild_solve(u0, km, horizon, n_time=n_time)
    u, gap = u0, 0.0
    for state in mild.trajectory.snapshots[1:]:
        u = evolve(u, km, "nonlinear", t_end=horizon / n_time, output_stride=10**9).snapshots[-1]
        gap = max(gap, float(np.abs(u - state).max()))
    return gap
