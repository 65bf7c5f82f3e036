import math
import tracemalloc

import numpy as np
import pytest

from aggrestab import grid as grid_module
from aggrestab import kernel, solver
from aggrestab import (
    Grid1D,
    KernelSpec,
    SpectralBasis,
    assemble,
    auto_dt,
    cross_validate,
    divergence,
    evolve,
    existence_time,
    gradient,
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
        np.testing.assert_allclose(f, 2.5)

    def test_constant_plus_mode(self):
        grid = Grid1D(64)
        f = initial_field("constant_plus_mode:3,0.1,2", grid)
        basis = SpectralBasis(grid)
        np.testing.assert_allclose(f, 3.0 + 0.1 * basis.mode(2))

    def test_random_zero_mean(self):
        f = initial_field("random_zero_mean:0.5,7", Grid1D(64))
        assert abs(Grid1D(64).h * float(f.sum())) < 1e-14
        assert np.abs(f).max() == pytest.approx(0.5)

    def test_random_is_seeded(self):
        a = initial_field("random_zero_mean:0.5,7", Grid1D(64))
        b = initial_field("random_zero_mean:0.5,7", Grid1D(64))
        np.testing.assert_array_equal(a, b)

    def test_csv(self, tmp_path):
        path = tmp_path / "u0.csv"
        path.write_text("".join(f"{v}\n" for v in range(16)))
        f = initial_field(f"csv:{path}", Grid1D(16))
        np.testing.assert_allclose(f, np.arange(16.0))

    def test_bad_descriptor(self):
        with pytest.raises(InvalidParameterError):
            initial_field("sawtooth:1", Grid1D(16))
        with pytest.raises(InvalidParameterError):
            initial_field("constant:abc", Grid1D(16))


class TestDatumCheck:
    """Every solver entry point refuses a datum that is not a finite real (n,) cell array."""

    ENTRY_POINTS = {
        "evolve": lambda u, km: evolve(u, km, "nonlinear", t_end=0.01),
        "step_imex": lambda u, km: step_imex(u, 1e-3, "nonlinear", 0.0, km),
        "picard_mild_solve": lambda u, km: picard_mild_solve(u, km, 0.01, n_time=4),
        "cross_validate": lambda u, km: cross_validate(u, km, 0.01, n_time=4),
    }
    BAD_DATA = {
        "nan": lambda n: np.where(np.arange(n) == 3, np.nan, 1.0),
        "inf": lambda n: np.where(np.arange(n) == 3, np.inf, 1.0),
        "(n, 2)": lambda n: np.ones((n, 2)),
        "(n - 1,)": lambda n: np.ones(n - 1),
        "complex": lambda n: np.full(n, 1.0 + 1.0j),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", sorted(BAD_DATA))
    def test_entry_points_refuse_bad_data(self, green, entry, bad):
        km = assemble(green, Grid1D(16))
        with pytest.raises(InvalidParameterError):
            self.ENTRY_POINTS[entry](self.BAD_DATA[bad](16), km)

    def test_descriptor_names_the_non_finite_datum(self):
        with pytest.raises(InvalidParameterError) as info:
            initial_field("constant:nan", Grid1D(16))
        assert str(info.value) == (
            "bad initial descriptor 'constant:nan': the datum has a non-finite value"
        )


class TestStepImex:
    def test_conserves_mass(self, km128, grid128):
        u = initial_field("constant_plus_mode:2,0.5,1", grid128)
        out = step_imex(u, 1e-4, "nonlinear", 0.0, km128)
        assert out.sum() == pytest.approx(u.sum(), rel=1e-14)

    def test_preserves_positivity(self, km128, grid128, rng):
        u = rng.random(128) + 1e-6
        dt = auto_dt(u, km128)
        out = step_imex(u, dt, "nonlinear", 0.0, km128)
        assert out.min() >= -1e-14

    def test_rejects_cfl_violation(self, km128, grid128):
        u = initial_field("constant_plus_mode:10,2,1", grid128)
        with pytest.raises(RejectedStepError) as exc:
            step_imex(u, 1.0, "nonlinear", 0.0, km128)
        assert exc.value.admissible < 1.0

    def test_invalid_arguments(self, km128, grid128):
        u = np.ones(grid128.n)
        for dt in (-0.1, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                step_imex(u, dt, "nonlinear", 0.0, km128)
        with pytest.raises(InvalidParameterError):
            step_imex(u, 0.1, "hyperbolic", 0.0, km128)

    @pytest.mark.parametrize(
        "mode, mass_level, datum",
        [
            ("nonlinear", 0.0, "constant_plus_mode:8,2,1"),
            ("perturbed", 8.0, "constant_plus_mode:0,2,1"),
            ("linearized", 8.0, "constant_plus_mode:0,2,1"),
        ],
    )
    def test_is_one_set_dt_evolve_step(self, green, mode, mass_level, datum):
        km = assemble(green, Grid1D(64))
        u = initial_field(datum, km.grid)
        out = step_imex(u, 1e-3, mode, mass_level, km)
        traj = evolve(u, km, mode, mass_level, t_end=1e-3, dt=1e-3)
        assert traj.times.tolist() == [0.0, 1e-3]
        assert np.array_equal(out, traj.snapshots[-1])

    def test_refuses_what_evolve_refuses(self, km128, grid128):
        for u, mode, mass_level in [
            (initial_field("constant_plus_mode:1,2,1", grid128), "nonlinear", 0.0),
            (np.full(grid128.n, 0.5), "perturbed", 5.0),
            (np.full(grid128.n, 0.5), "linearized", 5.0),
            (np.ones(grid128.n), "nonlinear", -1.0),
        ]:
            with pytest.raises(InvalidParameterError):
                step_imex(u, 1e-4, mode, mass_level, km128)

    def test_pure_diffusion_decays_modes(self, grid128):
        km = assemble(KernelSpec.zero(128), grid128)
        basis = SpectralBasis(grid128)
        u = 0.1 * basis.mode(1)  # a perturbation: zero mean
        dt = 1e-3
        out = step_imex(u, dt, "linearized", 0.0, km)
        lam = basis.eigenvalues_discrete[1]
        expected = 0.1 * basis.mode(1) * math.exp(-lam * dt)
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestEvolve:
    def test_validates_initial_data(self, green):
        km = assemble(green, Grid1D(64))
        with pytest.raises(InvalidParameterError):
            evolve(np.full(64, -1.0), km, "nonlinear")
        with pytest.raises(InvalidParameterError):
            evolve(np.full(64, 1.0), km, "perturbed")

    @pytest.mark.parametrize(
        "arguments, message",
        [
            ({"mode": "hyperbolic"}, "unknown mode"),
            ({"t_end": 0.0}, "t_end must be positive"),
            ({"t_end": math.nan}, "t_end must be positive"),
            ({"dt": -1e-3}, "dt must be positive"),
            ({"dt": math.nan}, "dt must be positive"),
            ({"output_stride": 0}, "output stride"),
            ({"mass_level": -1.0}, "mass level"),
            ({"mass_level": math.nan}, "mass level"),
        ],
    )
    def test_refuses_bad_arguments(self, green, arguments, message):
        km = assemble(green, Grid1D(64))
        with pytest.raises(InvalidParameterError, match=message):
            evolve(np.ones(64), km, **{"mode": "nonlinear", **arguments})

    @pytest.mark.parametrize("dt", [None, 1e-3])
    def test_datum_near_the_largest_double_raises_no_warning(self, green, dt):
        # the mass sum and the Green scan overflow; the velocity check refuses the run, and
        # no RuntimeWarning (an error under this suite's filter) escapes before it
        km = assemble(green, Grid1D(64))
        with pytest.raises(SchemeFailureError, match="non-finite transport velocity"):
            evolve(np.full(64, 1e308), km, "nonlinear", dt=dt)

    @pytest.mark.parametrize(
        "fault, message",
        # a first mode above the mean takes u below 0; a scaled state drifts off its mass
        [
            (lambda c: c + np.eye(len(c))[1] * 2 * c[0], "positivity lost"),
            (lambda c: c * (1 + 1e-9), "mass drift"),
        ],
        ids=["positivity", "mass"],
    )
    def test_faulty_step_is_refused(self, green, monkeypatch, fault, message):
        step = solver._Strang.__call__
        monkeypatch.setattr(solver._Strang, "__call__", lambda *args: (fault(step(*args)[0]), 0.0))
        km = assemble(green, Grid1D(32))
        with pytest.raises(SchemeFailureError, match=message):
            evolve(np.full(32, 5.0), km, "nonlinear", 5.0, t_end=0.01, dt=1e-3)

    def test_refuses_unbounded_runs_before_stepping(self, green, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped a run that should be refused")

        monkeypatch.setattr(solver._Strang, "__call__", no_step)
        km = assemble(green, Grid1D(64))
        for dt, stride in [(1e-300, 10**9), (5e-324, 10**9), (1e-7, 1)]:
            with pytest.raises(InvalidParameterError, match="limit"):
                evolve(np.ones(64), km, "nonlinear", dt=dt, output_stride=stride)

    def test_records_requested_stride(self, green):
        km = assemble(green, Grid1D(64))
        traj = evolve(np.ones(64), km, "nonlinear", t_end=0.01, dt=1e-3, output_stride=5)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.01)
        assert len(traj.snapshots) == len(traj.times)

    def test_stable_perturbation_decays_at_spectral_rate(self, green):
        km = assemble(green, Grid1D(128))
        u0 = initial_field("constant_plus_mode:0,0.01,1", km.grid)
        traj = evolve(u0, km, "perturbed", mass_level=5.0, t_end=0.5, output_stride=20)
        rate = -math.log(traj.l2[-1] / traj.l2[0]) / traj.times[-1]
        expected = math.pi**2 * (1.0 - 5.0 / (1.0 + math.pi**2))
        assert rate == pytest.approx(expected, rel=0.02)

    def test_mass_and_positivity_guarantees(self, green):
        km = assemble(green, Grid1D(64))
        u0 = initial_field("constant_plus_mode:12,0.12,1", km.grid)
        traj = evolve(u0, km, "nonlinear", mass_level=12.0, t_end=1.0, output_stride=10)
        assert np.abs(traj.mass - traj.mass[0]).max() <= 1e-12 * traj.mass[0]
        assert traj.min_value.min() >= -1e-12

    def test_second_order_in_time(self, green):
        km = assemble(green, Grid1D(64))
        u0 = initial_field("constant_plus_mode:8,2,1", km.grid)

        def run(steps):
            traj = evolve(u0, km, "nonlinear", 8.0, t_end=0.5, dt=0.5 / steps, output_stride=10**9)
            return traj.snapshots[-1]

        reference = run(4096)
        coarse, fine = (float(np.abs(run(k) - reference).max()) for k in (128, 256))
        assert coarse / fine == pytest.approx(4.0, abs=0.5)

    @pytest.mark.parametrize("mass, t_end", [(30.0, 0.5), (80.0, 0.25)])
    def test_past_threshold_runs_reach_t_end(self, green, mass, t_end):
        km = assemble(green, Grid1D(64))
        u0 = initial_field(f"constant_plus_mode:{mass},{0.01 * mass},1", km.grid)
        traj = evolve(u0, km, "nonlinear", mass_level=mass, t_end=t_end, output_stride=100)
        assert traj.times[-1] == t_end
        assert np.abs(traj.mass - traj.mass[0]).max() <= 1e-12 * traj.mass[0]
        # every step keeps the datum's mean, so roundoff does not pile up over the steps
        assert np.abs(traj.mass - traj.mass[0]).max() <= 1e-14 * traj.mass[0]
        assert traj.min_value.min() >= -1e-12
        assert traj.linf[-1] > 10.0 * mass  # the mass has aggregated into a peak

    def test_linearized_run_takes_order_n_steps(self, green):
        n, t_end = 256, 1.0
        km = assemble(green, Grid1D(n))
        u0 = initial_field("constant_plus_mode:0,0.01,1", km.grid)
        traj = evolve(u0, km, "linearized", mass_level=5.0, t_end=t_end)
        assert len(traj.times) - 1 <= 2 * n * t_end + 2
        assert traj.times[-1] == t_end

    def test_rejected_auto_step_is_halved(self, green, monkeypatch):
        # an automatic step far above the CFL bound is halved until each stage is admissible
        monkeypatch.setattr(solver, "auto_dt", lambda *args: 0.1)
        km = assemble(green, Grid1D(64))
        u0 = initial_field("constant_plus_mode:5,3,1", km.grid)
        traj = evolve(u0, km, "nonlinear", mass_level=5.0, t_end=0.1)
        assert traj.times[-1] == 0.1
        assert np.diff(traj.times).max() < 0.1
        assert traj.min_value.min() >= -1e-12

    def test_refuses_unbounded_auto_runs_before_stepping(self, green, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped a run that should be refused")

        monkeypatch.setattr(solver._Strang, "__call__", no_step)
        # at n = 64 and t_end = 1 even the step cap h/2 needs 128 steps
        monkeypatch.setattr(solver, "_MAX_STEPS", 100)
        km = assemble(green, Grid1D(64))
        with pytest.raises(InvalidParameterError, match="limit"):
            evolve(np.ones(64), km, "nonlinear")
        monkeypatch.setattr(solver, "_MAX_STEPS", 10**8)
        monkeypatch.setattr(grid_module, "MAX_STORED_VALUES", 64 * 100)
        with pytest.raises(InvalidParameterError, match="limit"):
            evolve(np.ones(64), km, "nonlinear")

    def test_auto_run_past_the_stored_limit_is_scheme_failure(self, green, monkeypatch):
        # past threshold the velocity grows and the step falls well below h/2
        km = assemble(green, Grid1D(64))
        u0 = initial_field("constant_plus_mode:30,0.3,1", km.grid)
        # the 66 states stored at the cap h/2 pass the check before stepping
        monkeypatch.setattr(solver, "MAX_STORED_VALUES", 64 * 1000)
        # the 1000th stored state's own time, as when each state was checked at its step
        with pytest.raises(SchemeFailureError, match=r"^the snapshots up to t=0\.344079 hold"):
            evolve(u0, km, "nonlinear", mass_level=30.0, t_end=0.5)


def _count_calls(monkeypatch) -> dict:
    """The solver's kernel actions and transforms, counted by name from here on."""
    calls = {"apply_grad": 0, "to_spectral": 0, "from_spectral": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(solver, "apply_grad", counted("apply_grad", solver.apply_grad))
    for name in ("to_spectral", "from_spectral"):
        monkeypatch.setattr(SpectralBasis, name, counted(name, getattr(SpectralBasis, name)))
    return calls


class TestCarriedCoefficients:
    """evolve carries the mode coefficients from step to step; step_imex starts from cell values."""

    @staticmethod
    def hand_loop(u, mass_level, km, dts):
        times, states = [0.0], [u]
        for dt, t in dts(u):
            u = step_imex(u, dt, "nonlinear", mass_level, km)
            times.append(t)
            states.append(u)
        return np.array(times), np.array(states)

    def test_set_dt_matches_step_imex(self, green):
        km = assemble(green, Grid1D(64))
        u0 = initial_field("constant_plus_mode:8,2,1", km.grid)
        traj = evolve(u0, km, "nonlinear", mass_level=8.0, t_end=0.05, dt=1e-3)
        dt = 0.05 / 50
        _, states = self.hand_loop(u0, 8.0, km, lambda u: [(dt, k * dt) for k in range(1, 51)])
        assert np.abs(traj.snapshots - states).max() <= 1e-13 * np.abs(states).max()

    def test_auto_dt_at_the_cap_matches_step_imex(self, green):
        km = assemble(green, Grid1D(64))
        u0 = initial_field("constant_plus_mode:8,0.08,1", km.grid)
        t_end = 0.1
        traj = evolve(u0, km, "nonlinear", mass_level=8.0, t_end=t_end)

        def cap_steps(u):
            t, dt = 0.0, auto_dt(u, km)
            assert dt == 0.5 * km.grid.h  # the cap h/2 binds
            while t + dt < t_end:
                yield dt, t + dt
                t += dt
            yield t_end - t, t_end

        times, states = self.hand_loop(u0, 8.0, km, cap_steps)
        assert np.array_equal(traj.times, times)
        assert np.abs(traj.snapshots - states).max() <= 1e-13 * np.abs(states).max()

    def test_step_work_budget(self, green, monkeypatch):
        calls = _count_calls(monkeypatch)
        km = assemble(green, Grid1D(64))
        u0 = initial_field("constant_plus_mode:8,0.08,1", km.grid)
        steps = len(evolve(u0, km, "nonlinear", mass_level=8.0, t_end=0.1).times) - 1
        assert steps == math.ceil(0.1 / (0.5 / 64))  # every step at the cap h/2
        # one inverse transform a step, and one a block of waiting states
        blocks = math.ceil(steps / (solver._BLOCK // 64))
        assert calls == {
            "apply_grad": 1 + 2 * steps, "to_spectral": 1 + steps, "from_spectral": steps + blocks
        }

    def test_non_finite_velocity_after_the_first_step(self, green, monkeypatch):
        # auto_dt reads the datum, the first step's two stages pass, the second step's first fails
        action, calls = solver.apply_grad, []

        def fails_late(km, u, out=None):
            calls.append(None)
            return action(km, u, out) if len(calls) < 4 else np.full(km.grid.n + 1, np.nan)

        monkeypatch.setattr(solver, "apply_grad", fails_late)
        km = assemble(green, Grid1D(64))
        u0 = initial_field("constant_plus_mode:5,0.5,1", km.grid)
        with pytest.raises(SchemeFailureError):
            evolve(u0, km, "nonlinear", mass_level=5.0, t_end=0.1)
        assert len(calls) == 4  # no halving loop


class TestBlockChecks:
    """evolve builds and checks its states a block of steps at a time; the first failing
    state still fails the run, with the message and time it raised at its own step."""

    # at n = 512 a block holds 32 states: a fault from step 40 on waits in the block of
    # steps 33 to 64, whose later states fail too
    N, STEPS, DT, START = 512, 70, 2.0**-12, 40
    LOST = "positivity lost at t=0.00976562 (min -3.515e+00); refine dt or the grid"

    def run(self, green, monkeypatch, fault, velocity_fails_at=None):
        """The set-dt run with fault applied to the closing coefficients from step START on,
        and its steps; from step velocity_fails_at on, the transport velocity is NaN."""
        strang, action, steps = solver._Strang.__call__, solver.apply_grad, []

        def faulty(self, c, dt):
            out, vmax = strang(self, c, dt)
            steps.append(None)
            if len(steps) >= TestBlockChecks.START:
                out = out.copy()
                fault(out)
            return out, vmax

        def velocity(km, u, out=None):
            v = action(km, u, out)
            if velocity_fails_at is not None and len(steps) + 1 >= velocity_fails_at:
                v[...] = np.nan
            return v

        monkeypatch.setattr(solver._Strang, "__call__", faulty)
        monkeypatch.setattr(solver, "apply_grad", velocity)
        km = assemble(green, Grid1D(self.N))
        u0 = initial_field("constant_plus_mode:5,0.5,1", km.grid)
        with pytest.raises(SchemeFailureError) as info:
            evolve(u0, km, "nonlinear", 5.0, t_end=self.STEPS * self.DT, dt=self.DT)
        return str(info.value), len(steps)

    @staticmethod
    def lose_positivity(c):
        c[-1] -= 6.0  # the finest cosine mode dips below 0; the mean and the velocity stay

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lose_positivity, LOST),
            (lambda c: c.__setitem__(0, 1.001 * c[0]), "mass drift 1.000e-03 at t=0.00976562"),
        ],
        ids=["positivity", "mass"],
    )
    def test_the_first_failing_state_wins(self, green, monkeypatch, fault, message):
        assert f"{self.START * self.DT:g}" == "0.00976562"
        failure, steps = self.run(green, monkeypatch, fault)
        assert failure == message
        assert steps == 64  # the block ran to its end before it was checked

    def test_a_non_finite_state_wins_over_the_velocity_it_makes(self, green, monkeypatch):
        # the NaN state of step 40 makes step 41's velocity NaN, and that step raises first
        failure, steps = self.run(green, monkeypatch, lambda c: c.__setitem__(3, np.nan))
        assert failure == "non-finite state at t=0.00976562"
        assert steps == 40

    def test_a_later_velocity_failure_reports_the_earlier_state(self, green, monkeypatch):
        failure, steps = self.run(green, monkeypatch, self.lose_positivity, velocity_fails_at=45)
        assert failure == self.LOST
        assert steps == 44


class TestStateConvention:
    def test_trajectory_reductions_match_lp_norm(self, grid128, rng):
        states = rng.standard_normal((5, grid128.n))
        traj = solver.Trajectory.from_states(np.arange(5.0), states, grid128)
        for row, state in enumerate(states):
            assert traj.mass[row] == grid128.h * float(state.sum())
            assert traj.l1[row] == lp_norm(state, 1, grid128)
            assert traj.l2[row] == lp_norm(state, 2, grid128)
            assert traj.linf[row] == lp_norm(state, np.inf, grid128)
            assert traj.min_value[row] == state.min()


class TestGreenActionReadsNoSample:
    """A Green kernel's dynamics run on its O(n) action, never its (n+1) x n sample."""

    @pytest.mark.parametrize(
        "mode, initial",
        [
            ("nonlinear", "constant_plus_mode:5,0.5,1"),
            ("linearized", "constant_plus_mode:0,0.1,1"),
            ("perturbed", "constant_plus_mode:0,0.5,2"),
        ],
    )
    def test_evolve(self, green, mode, initial, monkeypatch):
        sample, samples = kernel._gradk_matrix, []
        monkeypatch.setattr(kernel, "_gradk_matrix", lambda *a: samples.append(a) or sample(*a))
        km = assemble(green, Grid1D(64))
        evolve(initial_field(initial, km.grid), km, mode, mass_level=5.0, t_end=0.01)
        assert samples == []

    def test_picard_mild_solve(self, green):
        km = assemble(green, Grid1D(64))
        picard_mild_solve(initial_field("constant_plus_mode:1,0.1,1", km.grid), km, 0.1, n_time=16)
        assert "gradk_faces" not in vars(km)


class TestHeatSemigroup:
    def test_identity_at_time_zero(self, grid128, rng):
        f = rng.standard_normal(128)
        np.testing.assert_allclose(heat_semigroup(f, grid128, 0.0), f, atol=1e-12)

    def test_mode_decay_is_exact(self, grid256):
        basis = SpectralBasis(grid256)
        f = basis.mode(3)
        t = 0.01
        out = heat_semigroup(f, grid256, t)
        np.testing.assert_allclose(
            out, math.exp(-basis.eigenvalues_discrete[3] * t) * f, atol=1e-12
        )

    def test_semigroup_property(self, grid128, rng):
        f = rng.standard_normal(128)
        one = heat_semigroup(f, grid128, 0.3)
        two = heat_semigroup(heat_semigroup(f, grid128, 0.1), grid128, 0.2)
        np.testing.assert_allclose(one, two, atol=1e-12)

    def test_negative_time_rejected(self, grid128):
        with pytest.raises(InvalidParameterError):
            heat_semigroup(np.ones(128), grid128, -0.1)

    @pytest.mark.parametrize("m", [8, 3])
    def test_batch_acts_along_axis_0(self, m, rng):
        # m = n is the square batch that a propagator acting along the last axis gets wrong
        grid = Grid1D(8)
        u = rng.standard_normal((8, m))
        out = heat_semigroup(u, grid, 0.01)
        assert out.shape == (8, m)
        for j in range(m):
            assert np.array_equal(out[:, j], heat_semigroup(u[:, j], grid, 0.01))

    def test_times_add_trailing_axes(self, grid128, rng):
        f, times = rng.standard_normal(128), np.array([[0.0, 1e-3], [0.01, 0.5]])
        out = heat_semigroup(f, grid128, times)
        assert out.shape == (128, 2, 2)
        for index in np.ndindex(times.shape):
            one = heat_semigroup(f, grid128, times[index])
            assert np.array_equal(out[(slice(None), *index)], one)
        batch = rng.standard_normal((128, 3))
        out = heat_semigroup(batch, grid128, times[1])
        assert out.shape == (128, 3, 2)
        for j, t in enumerate(times[1]):
            assert np.array_equal(out[:, :, j], heat_semigroup(batch, grid128, t))

    @pytest.mark.parametrize(
        "t", [-0.1, math.nan, math.inf, [0.1, -0.1], [math.nan], [0.0, math.inf]]
    )
    def test_negative_or_non_finite_time_refused(self, grid128, t):
        message = "semigroup time must be nonnegative and finite"
        with pytest.raises(InvalidParameterError, match=message):
            heat_semigroup(np.ones(128), grid128, t)


class TestSemigroupProbe:
    def test_constants_finite_and_positive(self, grid128, rng):
        basis = SpectralBasis(grid128)
        z = rng.standard_normal(128)
        probes = [basis.mode(1), z - z.mean(), np.zeros(128)]
        report = semigroup_probe(probes, grid128, p=np.inf, q=1, times=np.geomspace(1e-3, 2.0, 20))
        assert 0 < report.smoothing_constant < np.inf
        assert 0 < report.gradient_constant < np.inf
        # a zero probe has no ratio to bound, and reads 0
        assert not report.smoothing_ratios[-1].any() and not report.gradient_ratios[-1].any()

    def test_invalid_exponent_order(self, grid128):
        with pytest.raises(InvalidParameterError):
            semigroup_probe([np.ones(128)], grid128, p=1, q=2, times=[0.1])

    @pytest.mark.parametrize(
        "p, q, message",
        [
            ("2", 1, "p must be a real number"),
            (2, None, "q must be a real number"),
            (math.nan, 1, r"p must be in \[1, inf\]"),
            (2, 0.5, r"q must be in \[1, inf\]"),
        ],
    )
    def test_exponent_that_is_not_a_real_number_at_least_one(self, grid128, p, q, message):
        with pytest.raises(InvalidParameterError, match=message):
            semigroup_probe([np.ones(128)], grid128, p=p, q=q, times=[0.1])

    @pytest.mark.parametrize(
        "probe", [np.where(np.arange(128) == 5, math.nan, 1.0), np.ones(64), np.ones((128, 1))]
    )
    def test_probe_that_is_not_a_finite_cell_array(self, grid128, probe):
        # a NaN cell would give NaN constants, with no error
        with pytest.raises(InvalidParameterError):
            semigroup_probe([np.ones(128), probe], grid128, p=np.inf, q=1, times=[0.1])

    def test_nonpositive_times_rejected(self, grid128):
        with pytest.raises(InvalidParameterError):
            semigroup_probe([np.ones(128)], grid128, p=2, q=2, times=[0.0, 0.1])
        with pytest.raises(InvalidParameterError):
            semigroup_probe([], grid128, p=2, q=2, times=[0.1])

    def test_times_where_the_weight_overflows_are_refused(self):
        # e^{pi^2 t} overflows a double above t = 71.92
        grid = Grid1D(64)
        probes = [grid.basis.mode(1), np.ones(64) + grid.basis.mode(2)]
        with pytest.raises(InvalidParameterError, match=r"in \(0, 71.92\)"):
            semigroup_probe(probes, grid, p=np.inf, q=1, times=[1.0, 80.0])
        report = semigroup_probe(probes, grid, p=np.inf, q=1, times=[1.0, 71.9])
        assert np.isfinite(report.gradient_ratios).all()
        assert np.isfinite(report.smoothing_ratios).all()

    def test_batch_matches_one_time_at_a_time(self, grid128, rng):
        basis, (p, q) = grid128.basis, (4.0, 2.0)
        probes = [basis.mode(1), rng.standard_normal(128)]
        times = np.geomspace(1e-3, 2.0, 9)
        report = semigroup_probe(probes, grid128, p=p, q=q, times=times)
        expo = 0.5 * (1.0 / q - 1.0 / p)
        for i, f in enumerate(probes):
            fq = lp_norm(f, q, grid128)
            for j, t in enumerate(times):
                uf = heat_semigroup(f, grid128, t)
                smoothing = lp_norm(uf, p, grid128) / ((1.0 + t**-expo) * fq)
                grad = lp_norm(gradient(uf, grid128), p, grid128) / fq
                grad *= t ** (expo + 0.5) * math.exp(math.pi**2 * t)
                assert report.smoothing_ratios[i, j] == pytest.approx(smoothing, rel=1e-12)
                assert report.gradient_ratios[i, j] == pytest.approx(grad, rel=1e-12)


class TestExistenceTime:
    def test_scaling_in_initial_size(self, grid128):
        small = existence_time(np.full(128, 1.0), grid128, 0.3, np.inf, 1.0)
        large = existence_time(np.full(128, 2.0), grid128, 0.3, np.inf, 1.0)
        # gamma = 1/2 at q' = inf, so doubling u0 quarters the horizon
        assert large == pytest.approx(small / 4.0, rel=1e-12)

    def test_infinite_norm_estimate_rejected(self, grid128):
        with pytest.raises(NoExistenceTimeError):
            existence_time(np.ones(128), grid128, math.inf, np.inf, 1.0)

    def test_zero_interaction_gives_infinite_horizon(self, grid128):
        for q_prime in (np.inf, 2.0, 1.0):
            assert existence_time(np.ones(128), grid128, 0.0, q_prime, 1.0) == math.inf

    def test_overflowed_horizon_is_infinite(self):
        # budget^(-1/gamma) = (4e-200)^(-2) is beyond the largest double
        assert existence_time(np.ones(64), Grid1D(64), 1e-200, np.inf, 1.0) == math.inf

    def test_strongly_singular_branch(self, grid128):
        t = existence_time(np.ones(128), grid128, 0.5, 1.0, 1.0)
        assert t == pytest.approx((4.0 * 0.5 * 2.0) ** -2.0)

    @pytest.mark.parametrize(
        "grad_norm, q_prime, c_emp",
        [(math.nan, np.inf, 1.0), (0.5, math.nan, 1.0), (0.5, np.inf, math.nan)],
        ids=["grad_norm", "q_prime", "c_emp"],
    )
    def test_nan_argument_refused(self, grid128, grad_norm, q_prime, c_emp):
        # NaN fails every comparison, so each guard is written to be failed by it
        with pytest.raises(InvalidParameterError):
            existence_time(np.ones(128), grid128, grad_norm, q_prime, c_emp)


class TestPicardMildSolve:
    def test_contracts_within_existence_horizon(self, green, grid128, km128):
        u0 = initial_field("constant_plus_mode:1,0.1,1", grid128)
        diag = picard_mild_solve(u0, km128, 0.2, n_time=64)
        assert diag.contraction_ratio < 1.0
        d = diag.picard_distances
        assert all(b < a for a, b in zip(d, d[1:]))

    def test_distance_near_q_prime_one_keeps_its_lq_part(self, green):
        # q' = 1.01 reads each change in L^101, whose powers of changes near 1e-4 fell below
        # the doubles: the distance read sup ||.||_1 alone, half its q' = inf value. It lies
        # between the L^11 (q' = 1.1) and the sup-norm (q' = 1) distances
        grid = Grid1D(64)
        km = assemble(green, grid)
        u0 = initial_field("constant_plus_mode:0.1,0.05,1", grid)
        d = {
            q: picard_mild_solve(u0, km, 0.05, n_time=16, q_prime=q).picard_distances[:3]
            for q in (1.0, 1.01, 1.1, np.inf)
        }
        for l1, low, mid, high in zip(d[np.inf], d[1.1], d[1.01], d[1.0]):
            assert l1 <= low <= mid <= high

    def test_pure_diffusion_converges_immediately(self, grid128):
        km = assemble(KernelSpec.zero(128), grid128)
        u0 = initial_field("constant_plus_mode:1,0.1,1", grid128)
        diag = picard_mild_solve(u0, km, 0.5, n_time=32)
        # the drift vanishes, so the free flow is already the fixed point
        assert len(diag.picard_distances) <= 2

    def test_conserves_mass(self, km128, grid128):
        u0 = initial_field("constant_plus_mode:1,0.1,1", grid128)
        diag = picard_mild_solve(u0, km128, 0.2, n_time=64)
        mass = grid128.h * float(u0.sum())
        drift = np.abs(diag.trajectory.mass - mass).max()
        assert drift <= 1e-10 * mass

    def test_non_contraction_raises(self, green, grid128, km128):
        # far beyond the horizon with few iterations the residual cannot reach tol
        u0 = initial_field("constant_plus_mode:40,4,1", grid128)
        with pytest.raises(NonContractionError) as exc:
            picard_mild_solve(u0, km128, 5.0, n_time=32, max_iter=3, tol=1e-14)
        assert len(exc.value.distances) == 3

    def test_argument_validation(self, km128, grid128):
        u0 = np.ones(128)
        with pytest.raises(InvalidParameterError):
            picard_mild_solve(u0, km128, -1.0)
        with pytest.raises(InvalidParameterError):
            picard_mild_solve(u0, km128, 1.0, n_time=1)
        # (128, 10^7 + 1) states: refused before they are allocated
        with pytest.raises(InvalidParameterError, match="limit"):
            picard_mild_solve(u0, km128, 1.0, n_time=10**7)

    def test_recurrence_matches_the_column_loop(self, green):
        # the drift recurrence runs on time-major rows with the column loop's arithmetic
        km = assemble(green, Grid1D(16))
        u0 = initial_field("constant_plus_mode:1,0.5,1", km.grid)
        diag = picard_mild_solve(u0, km, 0.1, n_time=8)
        states, distances = _column_loop(u0, km, 0.1, 8, len(diag.picard_distances))
        assert len(diag.picard_distances) > 2
        assert np.array_equal(diag.trajectory.snapshots, states.T)
        assert diag.picard_distances == distances

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    def test_blocks_match_one_block(self, green, monkeypatch, rows):
        # the 9 time rows in blocks of 1, 2 (the last of 1), 3 and 4 (the last of 1): each
        # block carries the drift and integral rows it needs from the block before
        km = assemble(green, Grid1D(16))
        u0 = initial_field("constant_plus_mode:1,0.5,1", km.grid)
        whole = picard_mild_solve(u0, km, 0.1, n_time=8)
        monkeypatch.setattr(solver, "_BLOCK", rows * 16)
        diag = picard_mild_solve(u0, km, 0.1, n_time=8)
        states, distances = _column_loop(u0, km, 0.1, 8, len(diag.picard_distances))
        assert np.array_equal(diag.trajectory.snapshots, whole.trajectory.snapshots)
        assert np.array_equal(diag.trajectory.snapshots, states.T)
        # each time's norms are its row's sums, whatever block holds the row
        assert diag.picard_distances == whole.picard_distances == distances

    @pytest.mark.parametrize("n, n_time", [(64, 8), (512, 512)])
    def test_a_kernel_with_no_drift_keeps_the_free_solution(self, n, n_time):
        # at (512, 512): 17 blocks of 32 time rows, the last of one row. The zero kernel
        # adds no drift, so the first sweep changes nothing and the states stay the free
        # term, built block by block, which matches one heat_semigroup call over all times
        km = assemble(KernelSpec.zero(n), Grid1D(n))
        u0 = initial_field("constant_plus_mode:1,0.5,1", km.grid)
        diag = picard_mild_solve(u0, km, 0.1, n_time=n_time)
        assert diag.picard_distances == [0.0]
        np.testing.assert_array_equal(diag.states, heat_semigroup(u0, km.grid, diag.times).T)
        # the run record is built when first read, from the same states
        assert "trajectory" not in vars(diag)
        assert diag.trajectory.snapshots is diag.states

    def test_memory_budget(self, green):
        # the free solution and the states, and blocks of 2^14 values: 2.55 times one array
        # here (3.05 at 2^15, 6.0 before the blocks); the run record is built only when read
        n, n_time = 512, 512
        km = assemble(green, Grid1D(n))
        u0 = initial_field("constant_plus_mode:1,0.5,1", km.grid)
        picard_mild_solve(u0, km, 0.01, n_time=4)
        tracemalloc.start()
        try:
            picard_mild_solve(u0, km, 0.01, n_time=n_time)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 8 * n * (n_time + 1)

    def test_sweep_work_budget(self, green, monkeypatch):
        calls = _count_calls(monkeypatch)
        km = assemble(green, Grid1D(64))
        u0 = initial_field("constant_plus_mode:1,0.5,1", km.grid)
        sweeps = len(picard_mild_solve(u0, km, 0.1, n_time=16).picard_distances)
        assert sweeps > 2
        # one kernel action and one transform pair a sweep, and the free solution's pair
        assert calls == {"apply_grad": sweeps, "to_spectral": 1 + sweeps, "from_spectral": 1 + sweeps}

    def test_datum_near_the_largest_double_raises_no_warning(self, green):
        # the free solution's transform overflows: a non-finite distance, and no warning
        km = assemble(green, Grid1D(64))
        with pytest.raises(NonContractionError):
            picard_mild_solve(np.full(64, 1e308), km, 0.01, n_time=8)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_is_refused(self, km128, horizon):
        # an infinite step would make every propagator factor 0 * inf
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            picard_mild_solve(np.ones(128), km128, horizon)


def _column_loop(u0, km, horizon, n_time, sweeps):
    """The Picard states after sweeps sweeps at q' = inf, one column per time, and each
    sweep's distance from the lp_norm of each time's change."""
    basis, lam, grid = km.grid.basis, km.grid.basis.eigenvalues_discrete, km.grid
    dt = horizon / n_time
    decay = np.exp(-lam * dt)
    gain = np.empty_like(lam)
    gain[0] = dt
    gain[1:] = (1.0 - decay[1:]) / lam[1:]
    c0 = basis.to_spectral(u0)
    free = basis.from_spectral(c0[:, None] * np.exp(-np.outer(lam, dt * np.arange(n_time + 1))))
    states, distances = free.copy(), []
    for _ in range(sweeps):
        flux = kernel.apply_grad(km, states)
        flux[1:-1] *= 0.5 * (states[:-1] + states[1:])
        d = basis.to_spectral(divergence(flux, grid))
        dbar = 0.5 * (d[:, :-1] + d[:, 1:])
        d[:, 0] = 0.0
        for j in range(n_time):
            d[:, j + 1] = decay * d[:, j] + gain * dbar[:, j]
        new = free - basis.from_spectral(d)
        # q' = inf: sup_t ||.||_1 + sup_t ||.||_q at q = 1
        sup1 = max(lp_norm(row, 1, grid) for row in (new - states).T)
        distances.append(sup1 + sup1)
        states = new
    return states, distances


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
    c0 = h * (modes.T @ u0)
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
        assert np.abs(diag.trajectory.snapshots - ref_states).max() <= 1e-12
        assert len(diag.picard_distances) == len(ref_distances)
        for d, ref in zip(diag.picard_distances, ref_distances):
            if ref >= 1e-8:
                assert d == pytest.approx(ref, rel=1e-9, abs=0)
