import math
import sys

import numpy as np
import pytest
import scipy.linalg

from aggrestab import analysis, kernel, spectral
from aggrestab import (
    Grid1D,
    KernelSpec,
    SpectralBasis,
    Trajectory,
    assemble_linearized,
    basin_probe,
    bilinear_form,
    cross_validate,
    evolve,
    existence_time,
    fit_rate,
    heat_semigroup,
    initial_field,
    lp_norm,
    picard_mild_solve,
    principal_eigenpair,
    stability_verdict,
    step_imex,
    threshold_bisect,
    validate_assumptions,
)
from aggrestab.errors import FitFailureError, InvalidBracketError, InvalidParameterError


def _direct_critical_mass(spec, grid):
    """M* = 1/mu_max of the projected pencil (-D_r) v = mu L_r v, with L_r > 0.

    D_r is the symmetric part of the dense D projected on the modes w_1..w_{n-1}.
    """
    family = spectral.assemble_linearized(kernel.assemble(spec, grid))
    drift = grid.basis.project(family.km.drift)[1:, 1:]
    lap = np.diag(grid.basis.eigenvalues_discrete[1:])
    return 1.0 / scipy.linalg.eigh(-0.5 * (drift + drift.T), lap, eigvals_only=True)[-1]


def _green_km(n=64):
    return kernel.assemble(KernelSpec.green_closed_form(), Grid1D(n))


def _gaussian_km(n=64):
    return kernel.assemble(KernelSpec.gaussian(0.1), Grid1D(n))


def _symbol_critical_mass(a, n):
    """M*(n) = min_k lambda_k^h / (-d_k) from the Green kernel's symbols."""
    grid = Grid1D(n)
    km = kernel.assemble(KernelSpec.green_series(a), grid)
    lap, drift = spectral.assemble_linearized(km).reduced
    return float(np.min(lap / -drift))


class TestFitRate:
    def test_recovers_synthetic_exponential(self, grid128):
        times = np.linspace(0.0, 2.0, 50)
        states = [math.exp(-3.0 * t) * np.ones(grid128.n) for t in times]
        fit = fit_rate(Trajectory.from_states(times, states, grid128), norm="linf")
        assert fit.rate == pytest.approx(3.0, rel=1e-10)
        assert fit.reliable

    def test_growth_has_negative_rate(self, grid128):
        times = np.linspace(0.0, 1.0, 40)
        states = [math.exp(2.0 * t) * np.ones(grid128.n) for t in times]
        fit = fit_rate(Trajectory.from_states(times, states, grid128))
        assert fit.rate == pytest.approx(-2.0, rel=1e-10)

    def test_too_few_samples(self, grid128):
        times = np.linspace(0.0, 1.0, 4)
        states = [np.ones(grid128.n) for _ in times]
        with pytest.raises(FitFailureError):
            fit_rate(Trajectory.from_states(times, states, grid128))
        # enough snapshots, but every norm below the floor
        times = np.linspace(0.0, 1.0, 40)
        states = [np.full(grid128.n, 1e-14) for _ in times]
        with pytest.raises(FitFailureError, match="after windowing"):
            fit_rate(Trajectory.from_states(times, states, grid128))

    def test_underflowed_norms_are_windowed_out(self, grid128):
        times = np.linspace(0.0, 1.0, 40)
        values = [math.exp(-3.0 * t) if t <= 0.5 else 1e-14 for t in times]
        states = [v * np.ones(grid128.n) for v in values]
        fit = fit_rate(Trajectory.from_states(times, states, grid128))
        assert fit.samples_used < len(times)
        assert fit.rate == pytest.approx(3.0, rel=1e-8)


class TestThresholdBisect:
    def test_finds_green_critical_mass(self, green):
        grid = Grid1D(128)
        critical = threshold_bisect(kernel.assemble(green, grid), 5.0, 20.0, tol_mass=0.01)
        assert critical == pytest.approx(1.0 + math.pi**2, rel=0.01)

    def test_history_brackets_shrink(self, green):
        grid = Grid1D(64)
        history = []
        threshold_bisect(kernel.assemble(green, grid), 5.0, 20.0, tol_mass=0.1, history=history)
        widths = [hi - lo for lo, hi, _, _ in history]
        assert all(b <= a for a, b in zip(widths, widths[1:]))

    def test_matches_direct_critical_mass(self, green):
        grid = Grid1D(256)
        direct = _direct_critical_mass(green, grid)
        bisected = threshold_bisect(kernel.assemble(green, grid), 5.0, 20.0, tol_mass=1e-6)
        assert bisected == pytest.approx(direct, abs=1e-6)

    def test_mass_independent_work_done_once(self, green, monkeypatch):
        calls = {}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        gaussian = kernel.assemble(KernelSpec.gaussian(0.1), Grid1D(64))
        table = KernelSpec.tabulated(gaussian.k_centers, gaussian.gradk_faces)
        monkeypatch.setattr(kernel, "_gradk_matrix", counting("sample", kernel._gradk_matrix))
        monkeypatch.setattr(kernel, "_values_matrix", counting("values", kernel._values_matrix))
        family = spectral.assemble_linearized
        monkeypatch.setattr(analysis, "assemble_linearized", counting("family", family))
        monkeypatch.setattr(SpectralBasis, "project", counting("project", SpectralBasis.project))
        for spec, bracket, samples, values in [
            # a Green kernel is its symbols: no dense sample and no projection
            (green, (5.0, 20.0), 0, 0),
            # a Gaussian kernel acts by FFT: no dense sample and no projection either
            (KernelSpec.gaussian(0.1), (0.0, 20.0), 0, 0),
            # a table: one gradient sample, one family, and one projection of D; one
            # value sample, for its symmetry check
            (table, (0.0, 20.0), 1, 1),
        ]:
            calls.update(sample=0, values=0, family=0, project=0)
            history = []
            km = kernel.assemble(spec, Grid1D(64))
            threshold_bisect(km, *bracket, tol_mass=0.01, history=history)
            assert len(history) > 10
            assert calls == {"sample": samples, "values": values, "family": 1, "project": samples}

    def test_stops_at_float_spacing(self, green, monkeypatch):
        # a tolerance below the spacing of the bracket's floats cannot be met
        calls = []

        def counting(family, mass):
            calls.append(mass)
            if len(calls) > 200:
                raise RuntimeError("bisection does not stop")
            return spectral.principal_eigenpair(family, mass)

        monkeypatch.setattr(analysis, "principal_eigenpair", counting)
        history = []
        km = kernel.assemble(green, Grid1D(16))
        critical = threshold_bisect(km, 5.0, 20.0, tol_mass=1e-300, history=history)
        lo, hi, mid, e_mid = history[-1]
        lo, hi = (mid, hi) if e_mid > 0 else (lo, mid)
        # it stops with lo and hi adjacent floats around the critical mass
        assert np.nextafter(lo, np.inf) == hi
        assert critical in (lo, hi)
        assert len(calls) == len(history) + 2

    def test_symbol_critical_mass_matches_generalized_eigenvalue(self, green):
        direct = _direct_critical_mass(green, Grid1D(256))
        assert _symbol_critical_mass(1.0, 256) == pytest.approx(direct, rel=1e-12)
        assert _symbol_critical_mass(1.0, 256) == pytest.approx(10.86946107936029, rel=1e-12)

    def test_symbol_critical_mass_is_second_order(self):
        errors = [_symbol_critical_mass(1.0, n) - (1.0 + math.pi**2) for n in (128, 256, 512, 1024)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.01)

    @pytest.mark.parametrize("a", [1.0, 4.0])
    def test_richardson_critical_mass(self, a):
        # the O(h^2) error cancels: (4 M*(2n) - M*(n)) / 3 = a + pi^2 to O(h^4)
        extrapolated = (4.0 * _symbol_critical_mass(a, 512) - _symbol_critical_mass(a, 256)) / 3.0
        assert abs(extrapolated - (a + math.pi**2)) <= 1e-8

    def test_invalid_bracket_raises(self, green):
        grid = Grid1D(64)
        with pytest.raises(InvalidBracketError):
            threshold_bisect(kernel.assemble(green, grid), 0.0, 5.0, tol_mass=0.1)

    def test_argument_validation(self, green):
        grid = Grid1D(64)
        with pytest.raises(InvalidParameterError):
            threshold_bisect(kernel.assemble(green, grid), 5.0, 3.0, tol_mass=0.1)
        with pytest.raises(InvalidParameterError):
            threshold_bisect(kernel.assemble(green, grid), 3.0, 5.0, tol_mass=-1.0)


class TestBasinProbe:
    def test_stable_regime_reports_open_lower_bound(self, green):
        km = kernel.assemble(green, Grid1D(64))
        probe = basin_probe(km, mass_level=5.0, amplitude_hi=1.0, steps=2, t_end=2.0)
        assert probe.eta_estimate > 0
        # deep inside the stable regime every tested amplitude decays
        assert probe.open_above
        assert probe.eta_fail is None

    def test_bisects_when_no_amplitude_decays(self, green):
        # too short a horizon for any amplitude to decay by 100x
        km = kernel.assemble(green, Grid1D(32))
        probe = basin_probe(km, mass_level=5.0, amplitude_hi=1.0, steps=3, t_end=1e-3)
        assert not probe.open_above
        assert probe.eta_estimate == 0.0
        assert probe.eta_fail == 0.125
        assert probe.bisection_history == ((1.0, False), (0.5, False), (0.25, False), (0.125, False))
        assert all(type(decayed) is bool for _, decayed in probe.bisection_history)

    def test_bisection_moves_both_ends(self, green, monkeypatch):
        # amplitudes below 0.3 decay: 1 and 0.5 do not, 0.25 does, 0.375 does not
        monkeypatch.setattr(analysis, "_decays", lambda km, mass, amplitude, t: amplitude < 0.3)
        km = kernel.assemble(green, Grid1D(32))
        probe = basin_probe(km, mass_level=5.0, amplitude_hi=1.0, steps=3, t_end=1.0)
        assert (probe.eta_estimate, probe.eta_fail, probe.open_above) == (0.25, 0.375, False)
        assert probe.bisection_history == ((1.0, False), (0.5, False), (0.25, True), (0.375, False))

    def test_default_horizon_is_ten_decay_times(self, green, monkeypatch):
        # without t_end each run lasts 10 / (lambda_1 (1 - M A)), the linear rate's ten e-folds
        km = kernel.assemble(green, Grid1D(32))
        horizons, decays = [], analysis._decays
        monkeypatch.setattr(
            analysis, "_decays", lambda *args: horizons.append(args[-1]) or decays(*args)
        )
        probe = basin_probe(km, mass_level=5.0, amplitude_hi=0.1, steps=1)
        rate = spectral.LAMBDA_1 * (1.0 - 5.0 * stability_verdict(km, 5.0).interaction_coefficient)
        assert horizons == [pytest.approx(10.0 / rate, rel=1e-15)]
        assert probe.open_above and probe.eta_estimate == 0.1

    def test_rejects_unstable_regime(self, green):
        km = kernel.assemble(green, Grid1D(64))
        with pytest.raises(InvalidParameterError):
            basin_probe(km, mass_level=20.0, amplitude_hi=0.1, steps=2)

    def test_argument_validation(self, green):
        km = kernel.assemble(green, Grid1D(64))
        with pytest.raises(InvalidParameterError):
            basin_probe(km, mass_level=5.0, amplitude_hi=-1.0, steps=2)


class TestCrossValidate:
    def test_discretizations_agree(self, green):
        grid = Grid1D(128)
        u0 = initial_field("constant_plus_mode:1,0.1,1", grid)
        gap = cross_validate(u0, kernel.assemble(green, grid), horizon=0.2, n_time=64)
        assert gap < 1e-3

    def test_reads_no_gradient_sample(self, green):
        km = kernel.assemble(green, Grid1D(64))
        cross_validate(initial_field("constant_plus_mode:1,0.1,1", km.grid), km, 0.1, n_time=8)
        assert "gradk_faces" not in vars(km)

    def test_one_evolve_call_per_mild_interval(self, green, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["t_end"])
            return evolve(*args, **kwargs)

        monkeypatch.setattr(analysis, "evolve", counted)
        km = kernel.assemble(green, Grid1D(64))
        cross_validate(initial_field("constant_plus_mode:1,0.1,1", km.grid), km, 0.1, n_time=8)
        assert calls == [0.1 / 8] * 8

    def test_gap_shrinks_with_time_refinement(self, green):
        grid = Grid1D(128)
        u0, km = initial_field("constant_plus_mode:1,0.1,1", grid), kernel.assemble(green, grid)
        coarse = cross_validate(u0, km, horizon=0.2, n_time=16)
        fine = cross_validate(u0, km, horizon=0.2, n_time=128)
        assert fine < coarse


# each analysis entry point on a Green kernel at n = 64 unless named otherwise
NON_FINITE = {
    "threshold-tol-nan": lambda: threshold_bisect(_green_km(), 0.0, 30.0, tol_mass=math.nan),
    "threshold-tol-inf": lambda: threshold_bisect(_green_km(), 0.0, 30.0, tol_mass=math.inf),
    "threshold-lo-nan": lambda: threshold_bisect(_green_km(), math.nan, 30.0, 0.01),
    "threshold-hi-inf": lambda: threshold_bisect(_green_km(), 0.0, math.inf, 0.01),
    "verdict-M-nan": lambda: stability_verdict(_green_km(), math.nan),
    "verdict-M-inf": lambda: stability_verdict(_green_km(), math.inf),
    "gaussian-verdict-M-nan": lambda: stability_verdict(_gaussian_km(), math.nan),
    "gaussian-verdict-M-inf": lambda: stability_verdict(_gaussian_km(), math.inf),
    "eigenpair-M-nan": lambda: principal_eigenpair(assemble_linearized(_green_km()), math.nan),
    "bilinear-M-nan": lambda: bilinear_form(_green_km(32), math.nan, np.ones(32), np.ones(32)),
    "bilinear-M-negative": lambda: bilinear_form(_green_km(32), -3.0, np.ones(32), np.ones(32)),
    "bilinear-phi-nan": lambda: bilinear_form(
        _green_km(32), 1.0, np.full(32, math.nan), np.ones(32)
    ),
    "bilinear-psi-inf": lambda: bilinear_form(
        _green_km(32), 1.0, np.ones(32), np.full(32, math.inf)
    ),
    "validate-tol-nan": lambda: validate_assumptions(_green_km(), tol=math.nan),
    "validate-tol-inf": lambda: validate_assumptions(_green_km(), tol=math.inf),
    "basin-amplitude-nan": lambda: basin_probe(_green_km(), 5.0, math.nan, steps=2),
    "basin-amplitude-inf": lambda: basin_probe(_green_km(), 5.0, math.inf, steps=2),
    "basin-M-nan": lambda: basin_probe(_green_km(), math.nan, 1.0, steps=2),
    # counts that are not integers, NaN tolerances and times, and unknown names
    "basin-steps-float": lambda: basin_probe(_green_km(32), 5.0, 1.0, steps=2.5, t_end=1e-3),
    "picard-n_time-float": lambda: picard_mild_solve(np.ones(32), _green_km(32), 0.01, n_time=2.5),
    "picard-max_iter-float": lambda: picard_mild_solve(
        np.ones(32), _green_km(32), 0.01, max_iter=2.5
    ),
    "picard-tol-nan": lambda: picard_mild_solve(np.ones(32), _green_km(32), 0.01, tol=math.nan),
    "picard-q_prime-nan": lambda: picard_mild_solve(
        np.ones(32), _green_km(32), 0.01, q_prime=math.nan
    ),
    "cross-validate-n_time-float": lambda: cross_validate(np.ones(32), _green_km(32), 0.01, 2.5),
    "evolve-stride-float": lambda: evolve(
        np.ones(32), _green_km(32), "nonlinear", output_stride=2.5
    ),
    "evolve-dt-inf": lambda: evolve(np.ones(32), _green_km(32), "nonlinear", dt=math.inf),
    "lp-norm-p-nan": lambda: lp_norm(np.ones(32), math.nan, Grid1D(32)),
    "existence-datum-nan": lambda: existence_time(np.full(32, math.nan), Grid1D(32), 1.0, 2.0, 1.0),
    "mode-index-float": lambda: Grid1D(32).basis.mode(2.5),
    "heat-t-nan": lambda: heat_semigroup(np.ones(32), Grid1D(32), math.nan),
    "heat-t-inf": lambda: heat_semigroup(np.ones(32), Grid1D(32), math.inf),
    "fit-rate-unknown-norm": lambda: fit_rate(
        evolve(np.ones(32), _green_km(32), "nonlinear", t_end=0.1), "l3"
    ),
    "existence-c_emp-inf": lambda: existence_time(np.ones(32), Grid1D(32), 1.0, 2.0, math.inf),
    # values that are not real numbers
    "evolve-t_end-str": lambda: evolve(np.ones(32), _green_km(32), "nonlinear", 1.0, "1"),
    "evolve-M-None": lambda: evolve(np.ones(32), _green_km(32), "nonlinear", mass_level=None),
}
# an infinite mass level in every mode, from a datum the mode accepts
for _mode in ("nonlinear", "perturbed", "linearized"):
    _u0 = np.ones(32) if _mode == "nonlinear" else 0.1 * Grid1D(32).basis.mode(1)
    NON_FINITE[f"evolve-{_mode}-M-inf"] = lambda m=_mode, u=_u0: evolve(
        u, _green_km(32), m, math.inf
    )
    NON_FINITE[f"step-imex-{_mode}-M-inf"] = lambda m=_mode, u=_u0: step_imex(
        u, 1e-3, m, math.inf, _green_km(32)
    )


@pytest.mark.parametrize("call", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_argument_refused(call):
    with pytest.raises(InvalidParameterError):
        call()


# M = 1 is stable and [0, 20] brackets the critical mass for both kernels below
ANALYSES = {
    "stability_verdict": lambda km: stability_verdict(km, 1.0),
    "threshold_bisect": lambda km: threshold_bisect(km, 0.0, 20.0, tol_mass=0.1),
    "basin_probe": lambda km: basin_probe(km, 1.0, 1.0, steps=1, t_end=1e-3),
    "validate_assumptions": lambda km: validate_assumptions(km, tol=1e-6),
}


@pytest.mark.parametrize("analysis_call", ANALYSES.values(), ids=ANALYSES.keys())
@pytest.mark.parametrize("make_km", [_green_km, _gaussian_km], ids=["green", "gaussian"])
def test_analysis_assembles_nothing(make_km, analysis_call, monkeypatch):
    km = make_km(32)
    # every module that imports assemble by name holds its own binding of it
    calls = []
    original = kernel.assemble
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "aggrestab" and getattr(module, "assemble", None) is original:
            monkeypatch.setattr(module, "assemble", lambda *a: calls.append(a) or original(*a))
    analysis_call(km)
    assert calls == []
