import math

import numpy as np
import pytest

from aggrestab import solver
from aggrestab import (
    Field,
    Grid1D,
    KernelSpec,
    SimConfig,
    SpectralBasis,
    assemble,
    auto_dt,
    constant_field,
    evolve,
    existence_time,
    heat_semigroup,
    initial_field,
    lp_norm,
    picard_mild_solve,
    semigroup_probe,
    step_imex,
)
from aggrestab.errors import (
    InvalidParameterError,
    NoExistenceTimeError,
    NonContractionError,
    RejectedStepError,
    SchemeFailureError,
)


class TestInitialField:
    def test_constant(self):
        f = initial_field("constant:2.5", Grid1D(16))
        np.testing.assert_allclose(f.values, 2.5)

    def test_constant_plus_mode(self):
        grid = Grid1D(64)
        f = initial_field("constant_plus_mode:3,0.1,2", grid)
        basis = SpectralBasis(grid)
        np.testing.assert_allclose(f.values, 3.0 + 0.1 * basis.mode(2).values)

    def test_random_zero_mean(self):
        f = initial_field("random_zero_mean:0.5,7", Grid1D(64))
        assert abs(f.mass) < 1e-14
        assert np.abs(f.values).max() == pytest.approx(0.5)

    def test_random_is_seeded(self):
        a = initial_field("random_zero_mean:0.5,7", Grid1D(64))
        b = initial_field("random_zero_mean:0.5,7", Grid1D(64))
        np.testing.assert_array_equal(a.values, b.values)

    def test_csv(self, tmp_path):
        path = tmp_path / "u0.csv"
        path.write_text("".join(f"{v}\n" for v in range(16)))
        f = initial_field(f"csv:{path}", Grid1D(16))
        np.testing.assert_allclose(f.values, np.arange(16.0))

    def test_bad_descriptor(self):
        with pytest.raises(InvalidParameterError):
            initial_field("sawtooth:1", Grid1D(16))
        with pytest.raises(InvalidParameterError):
            initial_field("constant:abc", Grid1D(16))


class TestStepImex:
    def test_conserves_mass(self, km128, grid128):
        u = initial_field("constant_plus_mode:2,0.5,1", grid128)
        out = step_imex(u, 1e-4, "nonlinear", 0.0, km128)
        assert out.mass == pytest.approx(u.mass, rel=1e-14)

    def test_preserves_positivity(self, km128, grid128, rng):
        u = Field(grid128, rng.random(128) + 1e-6)
        dt = auto_dt(u, km128, "nonlinear", 0.0)
        out = step_imex(u, dt, "nonlinear", 0.0, km128)
        assert out.values.min() >= -1e-14

    def test_rejects_cfl_violation(self, km128, grid128):
        u = initial_field("constant_plus_mode:10,2,1", grid128)
        with pytest.raises(RejectedStepError) as exc:
            step_imex(u, 1.0, "nonlinear", 0.0, km128)
        assert exc.value.admissible < 1.0

    def test_invalid_arguments(self, km128, grid128):
        u = constant_field(grid128, 1.0)
        with pytest.raises(InvalidParameterError):
            step_imex(u, -0.1, "nonlinear", 0.0, km128)
        with pytest.raises(InvalidParameterError):
            step_imex(u, 0.1, "hyperbolic", 0.0, km128)

    def test_pure_diffusion_decays_modes(self, grid128):
        km = assemble(KernelSpec.zero(128), grid128)
        basis = SpectralBasis(grid128)
        u = Field(grid128, 1.0 + 0.1 * basis.mode(1).values)
        dt = 1e-3
        out = step_imex(u, dt, "linearized", 0.0, km)
        lam = basis.eigenvalues_discrete[1]
        expected = 1.0 + 0.1 * basis.mode(1).values * math.exp(-lam * dt)
        np.testing.assert_allclose(out.values, expected, atol=1e-12)


class TestEvolve:
    def test_validates_initial_data(self, green):
        bad = SimConfig(n=64, kernel=green, mode="nonlinear", initial="constant:-1")
        with pytest.raises(InvalidParameterError):
            evolve(bad)
        nonzero_mean = SimConfig(n=64, kernel=green, mode="perturbed", initial="constant:1")
        with pytest.raises(InvalidParameterError):
            evolve(nonzero_mean)

    def test_refuses_unbounded_runs_before_stepping(self, green, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped a run that should be refused")

        monkeypatch.setattr(solver, "step_imex", no_step)
        for dt, stride in [(1e-300, 10**9), (5e-324, 10**9), (1e-7, 1)]:
            config = SimConfig(n=64, kernel=green, mode="nonlinear", dt=dt, output_stride=stride)
            with pytest.raises(InvalidParameterError, match="limit"):
                evolve(config)

    def test_records_requested_stride(self, green):
        config = SimConfig(
            n=64,
            kernel=green,
            mode="nonlinear",
            t_end=0.01,
            dt=1e-3,
            initial="constant:1",
            output_stride=5,
        )
        traj = evolve(config)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.01)
        assert len(traj.snapshots) == len(traj.times)

    def test_stable_perturbation_decays_at_spectral_rate(self, green):
        config = SimConfig(
            n=128,
            kernel=green,
            mode="perturbed",
            mass_level=5.0,
            t_end=0.5,
            initial="constant_plus_mode:0,0.01,1",
            output_stride=20,
        )
        traj = evolve(config)
        rate = -math.log(traj.l2[-1] / traj.l2[0]) / traj.times[-1]
        expected = math.pi**2 * (1.0 - 5.0 / (1.0 + math.pi**2))
        assert rate == pytest.approx(expected, rel=0.02)

    def test_mass_and_positivity_guarantees(self, green):
        config = SimConfig(
            n=64,
            kernel=green,
            mode="nonlinear",
            mass_level=12.0,
            t_end=1.0,
            initial="constant_plus_mode:12,0.12,1",
            output_stride=10,
        )
        traj = evolve(config)
        assert np.abs(traj.mass - traj.mass[0]).max() <= 1e-12 * traj.mass[0]
        assert traj.min_value.min() >= -1e-12

    def test_second_order_in_time(self, green):
        def run(steps):
            config = SimConfig(
                n=64,
                kernel=green,
                mode="nonlinear",
                mass_level=8.0,
                t_end=0.5,
                dt=0.5 / steps,
                initial="constant_plus_mode:8,2,1",
                output_stride=10**9,
            )
            return evolve(config).snapshots[-1].values

        reference = run(4096)
        coarse, fine = (float(np.abs(run(k) - reference).max()) for k in (128, 256))
        assert coarse / fine == pytest.approx(4.0, abs=0.5)

    @pytest.mark.parametrize("mass, t_end", [(30.0, 0.5), (80.0, 0.25)])
    def test_past_threshold_runs_reach_t_end(self, green, mass, t_end):
        config = SimConfig(
            n=64,
            kernel=green,
            mode="nonlinear",
            mass_level=mass,
            t_end=t_end,
            initial=f"constant_plus_mode:{mass},{0.01 * mass},1",
            output_stride=100,
        )
        traj = evolve(config)
        assert traj.times[-1] == t_end
        assert np.abs(traj.mass - traj.mass[0]).max() <= 1e-12 * traj.mass[0]
        assert traj.min_value.min() >= -1e-12
        assert traj.linf[-1] > 10.0 * mass  # the mass has aggregated into a peak

    def test_linearized_run_takes_order_n_steps(self, green):
        n, t_end = 256, 1.0
        config = SimConfig(
            n=n,
            kernel=green,
            mode="linearized",
            mass_level=5.0,
            t_end=t_end,
            initial="constant_plus_mode:0,0.01,1",
        )
        traj = evolve(config)
        assert len(traj.times) - 1 <= 2 * n * t_end + 2
        assert traj.times[-1] == t_end

    def test_rejected_auto_step_is_halved(self, green, monkeypatch):
        # an automatic step far above the CFL bound is halved until each stage is admissible
        monkeypatch.setattr(solver, "auto_dt", lambda *args: 0.1)
        config = SimConfig(
            n=64, kernel=green, mode="nonlinear", mass_level=5.0, t_end=0.1,
            initial="constant_plus_mode:5,3,1",
        )
        traj = evolve(config)
        assert traj.times[-1] == 0.1
        assert np.diff(traj.times).max() < 0.1
        assert traj.min_value.min() >= -1e-12

    def test_refuses_unbounded_auto_runs_before_stepping(self, green, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped a run that should be refused")

        monkeypatch.setattr(solver, "step_imex", no_step)
        # at n = 64 and t_end = 1 even the step cap h/2 needs 128 steps
        monkeypatch.setattr(solver, "_MAX_STEPS", 100)
        config = SimConfig(n=64, kernel=green, mode="nonlinear")
        with pytest.raises(InvalidParameterError, match="limit"):
            evolve(config)
        monkeypatch.setattr(solver, "_MAX_STEPS", 10**8)
        monkeypatch.setattr(solver, "MAX_STORED_VALUES", 64 * 100)
        with pytest.raises(InvalidParameterError, match="limit"):
            evolve(config)

    def test_auto_run_past_the_stored_limit_is_scheme_failure(self, green, monkeypatch):
        # past threshold the velocity grows and the step falls well below h/2
        config = SimConfig(
            n=64, kernel=green, mode="nonlinear", mass_level=30.0, t_end=0.5,
            initial="constant_plus_mode:30,0.3,1",
        )
        # the 66 states stored at the cap h/2 pass the check before stepping
        monkeypatch.setattr(solver, "MAX_STORED_VALUES", 64 * 1000)
        with pytest.raises(SchemeFailureError, match="snapshots"):
            evolve(config)


class TestHeatSemigroup:
    def test_identity_at_time_zero(self, grid128, rng):
        f = Field(grid128, rng.standard_normal(128))
        np.testing.assert_allclose(heat_semigroup(f, 0.0).values, f.values, atol=1e-12)

    def test_mode_decay_is_exact(self, grid256):
        basis = SpectralBasis(grid256)
        f = basis.mode(3)
        t = 0.01
        out = heat_semigroup(f, t)
        np.testing.assert_allclose(
            out.values, math.exp(-basis.eigenvalues_discrete[3] * t) * f.values, atol=1e-12
        )

    def test_semigroup_property(self, grid128, rng):
        f = Field(grid128, rng.standard_normal(128))
        one = heat_semigroup(f, 0.3)
        two = heat_semigroup(heat_semigroup(f, 0.1), 0.2)
        np.testing.assert_allclose(one.values, two.values, atol=1e-12)

    def test_negative_time_rejected(self, grid128):
        with pytest.raises(InvalidParameterError):
            heat_semigroup(constant_field(grid128, 1.0), -0.1)


class TestSemigroupProbe:
    def test_constants_finite_and_positive(self, grid128, rng):
        basis = SpectralBasis(grid128)
        z = rng.standard_normal(128)
        probes = [basis.mode(1), Field(grid128, z - z.mean())]
        report = semigroup_probe(probes, p=np.inf, q=1, times=np.geomspace(1e-3, 2.0, 20))
        assert 0 < report.smoothing_constant < np.inf
        assert 0 < report.gradient_constant < np.inf

    def test_invalid_exponent_order(self, grid128):
        with pytest.raises(InvalidParameterError):
            semigroup_probe([constant_field(grid128, 1.0)], p=1, q=2, times=[0.1])

    def test_nonpositive_times_rejected(self, grid128):
        with pytest.raises(InvalidParameterError):
            semigroup_probe([constant_field(grid128, 1.0)], p=2, q=2, times=[0.0, 0.1])
        with pytest.raises(InvalidParameterError):
            semigroup_probe([], p=2, q=2, times=[0.1])


class TestExistenceTime:
    def test_scaling_in_initial_size(self, grid128):
        small = existence_time(constant_field(grid128, 1.0), 0.3, np.inf, 1.0)
        large = existence_time(constant_field(grid128, 2.0), 0.3, np.inf, 1.0)
        # gamma = 1/2 at q' = inf, so doubling u0 quarters the horizon
        assert large == pytest.approx(small / 4.0, rel=1e-12)

    def test_infinite_norm_estimate_rejected(self, grid128):
        with pytest.raises(NoExistenceTimeError):
            existence_time(constant_field(grid128, 1.0), math.inf, np.inf, 1.0)

    def test_zero_interaction_gives_infinite_horizon(self, grid128):
        assert existence_time(constant_field(grid128, 1.0), 0.0, np.inf, 1.0) == math.inf

    def test_strongly_singular_branch(self, grid128):
        u0 = constant_field(grid128, 1.0)
        t = existence_time(u0, 0.5, 1.0, 1.0)
        assert t == pytest.approx((4.0 * 0.5 * 2.0) ** -2.0)


class TestPicardMildSolve:
    def test_contracts_within_existence_horizon(self, green, grid128, km128):
        u0 = initial_field("constant_plus_mode:1,0.1,1", grid128)
        diag = picard_mild_solve(u0, km128, 0.2, n_time=64)
        assert diag.contraction_ratio < 1.0
        d = diag.picard_distances
        assert all(b < a for a, b in zip(d, d[1:]))

    def test_pure_diffusion_converges_immediately(self, grid128):
        km = assemble(KernelSpec.zero(128), grid128)
        u0 = initial_field("constant_plus_mode:1,0.1,1", grid128)
        diag = picard_mild_solve(u0, km, 0.5, n_time=32)
        # the drift vanishes, so the free flow is already the fixed point
        assert len(diag.picard_distances) <= 2

    def test_conserves_mass(self, km128, grid128):
        u0 = initial_field("constant_plus_mode:1,0.1,1", grid128)
        diag = picard_mild_solve(u0, km128, 0.2, n_time=64)
        drift = np.abs(diag.trajectory.mass - u0.mass).max()
        assert drift <= 1e-10 * u0.mass

    def test_warns_beyond_existence_estimate(self, km128, grid128):
        u0 = initial_field("constant_plus_mode:1,0.1,1", grid128)
        with pytest.warns(UserWarning, match="contraction estimate"):
            picard_mild_solve(u0, km128, 0.2, n_time=32, existence_estimate=0.1)

    def test_non_contraction_raises(self, green, grid128, km128):
        # far beyond the horizon with few iterations the residual cannot reach tol
        u0 = initial_field("constant_plus_mode:40,4,1", grid128)
        with pytest.raises(NonContractionError) as exc:
            picard_mild_solve(u0, km128, 5.0, n_time=32, max_iter=3, tol=1e-14)
        assert len(exc.value.distances) == 3

    def test_argument_validation(self, km128, grid128):
        u0 = constant_field(grid128, 1.0)
        with pytest.raises(InvalidParameterError):
            picard_mild_solve(u0, km128, -1.0)
        with pytest.raises(InvalidParameterError):
            picard_mild_solve(u0, km128, 1.0, n_time=1)
        # (128, 10^7 + 1) states: refused before they are allocated
        with pytest.raises(InvalidParameterError, match="limit"):
            picard_mild_solve(u0, km128, 1.0, n_time=10**7)


def _dense_picard_reference(u0, km, horizon, n_time, q_prime, max_iter=30, tol=1e-10):
    """Picard iteration with one dense n x n mode-matrix product per output time."""
    grid = km.grid
    n, h = grid.n, grid.h
    k = np.arange(n)
    modes = np.cos(np.outer(grid.centers, k * np.pi))
    modes[:, 1:] *= np.sqrt(2.0)
    lam = (2.0 / h**2) * (1.0 - np.cos(k * np.pi * h))
    dt = horizon / n_time
    times = dt * np.arange(n_time + 1)
    q = 1.0 if np.isinf(q_prime) else q_prime / (q_prime - 1.0)
    c0 = h * (modes.T @ u0.values)
    free = np.array([modes @ (c0 * np.exp(-lam * t)) for t in times])
    decay = np.exp(-lam * dt)
    gain = np.empty_like(lam)
    gain[0] = dt
    gain[1:] = (1.0 - decay[1:]) / lam[1:]

    def drift_coefficients(states):
        coeffs = np.empty_like(states)
        for idx, row in enumerate(states):
            v = h * (km.gradk_faces @ row)
            v[0] = v[-1] = 0.0
            face_avg = np.zeros(n + 1)
            face_avg[1:-1] = 0.5 * (row[:-1] + row[1:])
            coeffs[idx] = h * (modes.T @ (np.diff(v * face_avg) / h))
        return coeffs

    def norm_xt(delta):
        sup1 = max(h * np.abs(row).sum() for row in delta)
        supq = max((h * np.sum(np.abs(row) ** q)) ** (1.0 / q) for row in delta)
        return sup1 + supq

    states, distances = free.copy(), []
    for _ in range(max_iter):
        d = drift_coefficients(states)
        dbar = 0.5 * (d[:-1] + d[1:])
        new_states = free.copy()
        acc = np.zeros(n)
        for j in range(1, n_time + 1):
            acc = decay * acc + gain * dbar[j - 1]
            new_states[j] -= modes @ acc
        distances.append(norm_xt(new_states - states))
        states = new_states
        if distances[-1] <= tol:
            break
    return states, distances


class TestPicardAgainstDenseReference:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("q_prime", [np.inf, 2.0], ids=["qinf", "q2"])
    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.green_closed_form(1.0), KernelSpec.gaussian(0.1)],
        ids=["green", "gaussian"],
    )
    def test_matches_reference(self, spec, q_prime, n):
        grid = Grid1D(n)
        km = assemble(spec, grid)
        u0 = initial_field("constant_plus_mode:1,0.5,1", grid)
        diag = picard_mild_solve(u0, km, 0.1, n_time=64, q_prime=q_prime)
        ref_states, ref_distances = _dense_picard_reference(u0, km, 0.1, 64, q_prime)
        states = np.array([f.values for f in diag.trajectory.snapshots])
        assert np.abs(states - ref_states).max() <= 1e-12
        assert len(diag.picard_distances) == len(ref_distances)
        for d, ref in zip(diag.picard_distances, ref_distances):
            if ref >= 1e-8:
                assert d == pytest.approx(ref, rel=1e-9, abs=0)
