import math

import numpy as np
import pytest

from aggrestab import Grid1D, KernelSpec, assemble, save_tabulated_csv, solver
from aggrestab.cli import (
    EXIT_BAD_KERNEL,
    EXIT_OK,
    EXIT_SCHEME,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RunConfig,
    main,
)


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GREEN_LINES = "kernel.variant = green_closed_form\ngrid.n = 64\n"


class TestRunConfig:
    def test_parses_comments_and_whitespace(self, tmp_path):
        path = write_config(
            tmp_path,
            "c.cfg",
            "# a comment\nkernel.variant = green_closed_form  # trailing\n\ngrid.n = 64\n",
        )
        config = RunConfig.from_file(path)
        assert config.get("kernel.variant") == "green_closed_form"
        assert config.grid().n == 64

    def test_rejects_unknown_key(self, tmp_path):
        from aggrestab.errors import ConfigError

        path = write_config(tmp_path, "c.cfg", "kernel.variant = green_closed_form\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig.from_file(path)

    def test_rejects_duplicate_key(self, tmp_path):
        from aggrestab.errors import ConfigError

        path = write_config(tmp_path, "c.cfg", "grid.n = 64\ngrid.n = 128\n")
        with pytest.raises(ConfigError, match="duplicate"):
            RunConfig.from_file(path)

    def test_rejects_removed_key(self, tmp_path):
        from aggrestab.errors import ConfigError

        text = "kernel.variant = green_series\nkernel.a = 4\nkernel.m = 4096\ngrid.n = 64\n"
        path = write_config(tmp_path, "c.cfg", text)
        with pytest.raises(ConfigError, match="kernel.m was removed"):
            RunConfig.from_file(path)
        assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == EXIT_USAGE

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "c.cfg", GREEN_LINES + "seed = 3\n")
        config = RunConfig.from_file(path)
        assert config.seed == 3
        monkeypatch.setenv("AGGRESTAB_SEED", "11")
        assert config.seed == 11


class TestCommands:
    def test_validate_kernel_green_passes(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", GREEN_LINES)
        out = tmp_path / "out"
        assert main(["validate-kernel", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = (out / "kernel_report.txt").read_text()
        assert "neumann_ok=True" in report
        assert "classification=mildly_singular" in report

    def test_validate_kernel_gaussian_fails(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.cfg", "kernel.variant = gaussian\nkernel.sigma = 0.1\ngrid.n = 64\n"
        )
        out = tmp_path / "out"
        code = main(["validate-kernel", "--config", cfg, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert (out / "kernel_report.txt").exists()

    def test_analyze_reports_instability(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", GREEN_LINES + "analysis.M = 15\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, row = (out / "stability_report.csv").read_text().splitlines()
        assert header.startswith("M,lambda1")
        assert row.endswith("linearly_unstable")

    def test_simulate_writes_trajectory(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES
            + "sim.mode = nonlinear\nsim.M = 5\nsim.t_end = 0.1\n"
            + "sim.initial = constant_plus_mode:5,0.05,1\nsim.output_stride = 10\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,mass,l1,l2,linf,min_u"
        assert len(lines) > 2

    def test_simulate_is_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES
            + "sim.mode = perturbed\nsim.M = 5\nsim.t_end = 0.05\n"
            + "sim.initial = random_zero_mean:0.1,9\nsim.output_stride = 5\nseed = 9\n",
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_simulate_snapshots_option(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES
            + "sim.mode = nonlinear\nsim.t_end = 0.01\nsim.initial = constant:1\n"
            + "sim.snapshots = true\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        snaps = (out / "snapshots.csv").read_text().splitlines()
        assert snaps[0].startswith("x,t=")
        assert len(snaps) == 65  # header + one row per cell

    def test_mild_solve_contracts(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES
            + "sim.initial = constant_plus_mode:1,0.1,1\nmild.n_time = 32\nmild.T_factor = 0.5\n"
            + "mild.q_prime = inf\n",
        )
        out = tmp_path / "out"
        assert main(["mild-solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "picard.csv").read_text().splitlines()
        assert lines[0] == "iteration,distance_XT,ratio"
        assert lines[-1].startswith("T_existence=")
        t_exist = float(lines[-1].split("=")[1])
        assert math.isfinite(t_exist) and t_exist > 0

    def test_mild_solve_divergent_kernel_is_unusable(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            "kernel.variant = power_law_gradient\nkernel.alpha = 0.5\ngrid.n = 64\n"
            + "sim.initial = constant:1\nmild.q_prime = 4\n",
        )
        out = tmp_path / "out"
        code = main(["mild-solve", "--config", cfg, "--out", str(out)])
        assert code == EXIT_BAD_KERNEL

    def test_simulate_non_finite_tabulated_kernel_is_unusable(self, tmp_path):
        grid = Grid1D(16)
        table = tmp_path / "kernel.csv"
        save_tabulated_csv(table, grid, assemble(KernelSpec.green_closed_form(), grid))
        lines = table.read_text().splitlines()
        row = 1 + grid.n * grid.n + grid.n  # gradient at the first interior face
        x, y, k, gradk = lines[row].split(",")
        lines[row] = ",".join([x, y, k, "inf"])
        table.write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path,
            "c.cfg",
            f"kernel.variant = tabulated\nkernel.csv = {table}\ngrid.n = 16\n"
            + "sim.initial = constant_plus_mode:1,0.1,1\nsim.t_end = 0.01\n",
        )
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_BAD_KERNEL

    def test_simulate_rejected_step_is_scheme_failure(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES
            + "sim.mode = nonlinear\nsim.M = 5\nsim.t_end = 1\nsim.dt = 0.5\n"
            # the first Heun stage breaks the CFL bound h / (2 max|v|)
            + "sim.initial = constant_plus_mode:5,3,1\n",
        )
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_SCHEME

    @pytest.mark.parametrize("dt", ["auto", "0.001"])
    def test_simulate_nan_velocity_is_scheme_failure(self, tmp_path, monkeypatch, capsys, dt):
        # a NaN velocity fails the stage's CFL check instead of passing it
        monkeypatch.setattr(solver, "apply_grad", lambda km, u: np.full(km.grid.n + 1, np.nan))
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES + f"sim.M = 5\nsim.dt = {dt}\nsim.initial = constant_plus_mode:5,0.5,1\n",
        )
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_SCHEME
        assert "scheme failure" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize("dt", ["auto", "0.001"])
    def test_simulate_non_finite_state_is_scheme_failure(self, tmp_path, monkeypatch, capsys, dt):
        # an admissible velocity, but the linearized flux M v overflows
        monkeypatch.setattr(solver, "apply_grad", lambda km, u: np.full(km.grid.n + 1, 2.0))
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES
            + f"sim.mode = linearized\nsim.M = 1e308\nsim.dt = {dt}\n"
            + "sim.initial = constant_plus_mode:0,0.5,1\n",
        )
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_SCHEME
        assert "non-finite state" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_simulate_auto_run_limits(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES + "sim.M = 30\nsim.t_end = 0.5\nsim.initial = constant_plus_mode:30,0.3,1\n",
        )
        # the step cap h/2 alone needs 64 steps: refused before the first one
        monkeypatch.setattr(solver, "_MAX_STEPS", 50)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_USAGE
        # past threshold the automatic step falls below h/2, and the run needs more
        monkeypatch.setattr(solver, "_MAX_STEPS", 1000)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_SCHEME

    @pytest.mark.parametrize(
        "command, line",
        [("analyze", "analysis.M = 1"), ("threshold", "analysis.M_lo = 0\nanalysis.M_hi = 5")],
    )
    def test_asymmetric_tabulated_kernel_is_unusable(self, tmp_path, command, line):
        grid = Grid1D(16)
        values = np.zeros((16, 16))
        values[0, 1] = 1.0
        spec = KernelSpec.tabulated(values, np.zeros((17, 16)))
        table = tmp_path / "kernel.csv"
        save_tabulated_csv(table, grid, assemble(spec, grid))
        cfg = write_config(
            tmp_path,
            "c.cfg",
            f"kernel.variant = tabulated\nkernel.csv = {table}\ngrid.n = 16\n{line}\n",
        )
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_BAD_KERNEL

    def test_threshold_locates_critical_mass(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES + "analysis.M_lo = 5\nanalysis.M_hi = 20\nanalysis.tol_M = 0.01\n",
        )
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "threshold.csv").read_text().splitlines()
        critical = float(lines[-1].split("=")[1])
        assert critical == pytest.approx(1.0 + math.pi**2, rel=0.01)

    def test_threshold_invalid_bracket(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES + "analysis.M_lo = 0\nanalysis.M_hi = 5\nanalysis.tol_M = 0.1\n",
        )
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path):
        code = main(["analyze", "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_USAGE

    def test_unknown_command(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", GREEN_LINES)
        assert main(["frobnicate", "--config", cfg]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, text",
        [
            # (1024, 10^7 + 1) Picard states
            ("mild-solve", GREEN_LINES.replace("64", "1024") + "mild.n_time = 10000000\n"),
            # a 200000^2 dense kernel sample
            ("analyze", "kernel.variant = gaussian\nkernel.sigma = 0.1\ngrid.n = 200000\n"),
            # one 6000^2 sample fits, the seven n x n arrays of the dense path do not
            ("analyze", "kernel.variant = gaussian\nkernel.sigma = 0.1\ngrid.n = 6000\n"),
            ("threshold", "kernel.variant = gaussian\nkernel.sigma = 0.1\ngrid.n = 6000\n"),
        ],
        ids=["mild-solve", "analyze", "analyze-dense-path", "threshold-dense-path"],
    )
    def test_oversized_arrays_are_refused(self, tmp_path, capsys, command, text):
        cfg = write_config(tmp_path, "c.cfg", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "the limit is 1e+08" in capsys.readouterr().err

    def test_config_with_bad_value(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", "kernel.variant = green_closed_form\ngrid.n = two\n")
        assert main(["analyze", "--config", cfg]) == EXIT_USAGE
        datum = tmp_path / "datum.csv"
        datum.write_text("1.0\n" * 63 + "nan\n")
        for command, line in [
            ("validate-kernel", "validate.q_prime = abc"),
            ("validate-kernel", "validate.q_prime = nan"),
            ("validate-kernel", "validate.q_prime = 1,nan"),
            ("analyze", "analysis.M = nan"),
            ("validate-kernel", "kernel.scale = nan"),
            ("simulate", "sim.t_end = inf"),
            ("simulate", "sim.initial = constant:nan"),
            ("simulate", "sim.mode = perturbed\nsim.initial = constant_plus_mode:0,inf,1"),
            ("simulate", "sim.initial = random_zero_mean:nan,3"),
            ("simulate", f"sim.initial = csv:{datum}"),
            # refused before the first step: 1e300 steps, and 6.4e8 stored values
            ("simulate", "sim.dt = 1e-300"),
            ("simulate", "sim.dt = 1e-7"),
        ]:
            cfg = write_config(tmp_path, "q.cfg", GREEN_LINES + line + "\n")
            code = main([command, "--config", cfg, "--out", str(tmp_path)])
            assert code == EXIT_USAGE, line
