import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from aggrestab import Grid1D, KernelSpec, assemble, save_tabulated_csv, solver
from aggrestab import grid as grid_module
from aggrestab.cli import (
    EXIT_BAD_KERNEL,
    EXIT_NO_CONTRACTION,
    EXIT_OK,
    EXIT_SCHEME,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RunConfig,
    _KEYS,
    main,
)


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GREEN_LINES = "kernel.variant = green_closed_form\ngrid.n = 64\n"
GAUSSIAN_32 = "kernel.variant = gaussian\nkernel.sigma = 0.1\ngrid.n = 32\n"


def assert_unknown_key(tmp_path, capsys, text, key):
    """The config text, holding key, is refused as holding an unknown key: exit 64, one line."""
    from aggrestab.errors import ConfigError

    path = write_config(tmp_path, "c.cfg", text)
    with pytest.raises(ConfigError, match=re.escape(f"unknown config keys: {key}")):
        RunConfig.from_file(path)
    assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"aggrestab: config error: unknown config keys: {key}\n"


class TestRunConfig:
    def test_parses_comments_and_whitespace(self, tmp_path):
        path = write_config(
            tmp_path,
            "c.cfg",
            "# a comment\nkernel.variant = green_closed_form  # trailing\n\ngrid.n = 64\n",
        )
        config = RunConfig.from_file(path)
        assert config["kernel.variant"] == "green_closed_form"
        assert config["grid.n"] == 64

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

    def test_rejects_removed_key(self, tmp_path, capsys):
        text = "kernel.variant = green_series\nkernel.a = 4\nkernel.m = 4096\ngrid.n = 64\n"
        assert_unknown_key(tmp_path, capsys, text, "kernel.m")

    def test_rejects_normalization_key(self, tmp_path, capsys):
        text = "kernel.variant = gaussian\nkernel.sigma = 0.1\nkernel.normalization = 2\ngrid.n = 64\n"
        assert_unknown_key(tmp_path, capsys, text, "kernel.normalization")

    def test_rejects_output_dir_key(self, tmp_path, capsys):
        assert_unknown_key(tmp_path, capsys, GREEN_LINES + "output.dir = elsewhere\n", "output.dir")

    def test_rejects_a_config_that_is_not_utf8(self, tmp_path, capsys):
        from aggrestab.errors import ConfigError

        path = tmp_path / "c.cfg"
        path.write_bytes(GREEN_LINES.encode() + b"# caf\xff\n")
        with pytest.raises(ConfigError, match=re.escape(f"cannot read config {path}: ")):
            RunConfig.from_file(path)
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("aggrestab: config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("initial", ["random_zero_mean:0.1,", "constant:0.0"])
    def test_seed_key_is_bounded(self, tmp_path, capsys, initial):
        # with or without a datum that reads the run seed
        lines = "kernel.variant = green_closed_form\ngrid.n = 32\nsim.mode = perturbed\n"
        cfg = write_config(tmp_path, "c.cfg", lines + f"sim.initial = {initial}\nseed = -1\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == "aggrestab: config error: seed: must be >= 0, got -1\n"

    def test_out_defaults_to_the_working_directory(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "c.cfg", GREEN_LINES)
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "stability_report.csv").is_file()


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

    def test_validate_kernel_narrow_green_passes(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.cfg", "kernel.variant = green_series\nkernel.a = 1e6\ngrid.n = 64\n"
        )
        out = tmp_path / "out"
        assert main(["validate-kernel", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = (out / "kernel_report.txt").read_text()
        assert "classification=mildly_singular" in report
        assert "critical_q_prime=inf" in report

    def test_analyze_reports_instability(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", GREEN_LINES + "analysis.M = 15\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, row = (out / "stability_report.csv").read_text().splitlines()
        assert header.startswith("M,lambda1")
        assert row.endswith("linearly_unstable")

    def test_analyze_writes_17_significant_digits(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", GREEN_LINES + "analysis.M = 3\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, row = (out / "stability_report.csv").read_text().splitlines()
        header, row = header.split(","), row.split(",")
        assert len(header) == len(row)
        assert row[-1] == "linearly_stable_sufficient"
        assert row[:-1] == [format(float(v), ".17g") for v in row[:-1]]

    @pytest.mark.parametrize(
        "lines",
        ["analysis.M = 3\n", "sim.M = 3\n", "analysis.M = 3\nsim.M = abc\n"],
        ids=["analysis", "sim", "analysis-beside-unused-sim"],
    )
    def test_analyze_mass_falls_back_to_sim(self, tmp_path, lines):
        cfg = write_config(tmp_path, "c.cfg", GREEN_LINES + lines)
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == EXIT_OK
        row = (out / "stability_report.csv").read_text().splitlines()[1]
        assert float(row.split(",")[0]) == 3.0

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

    @pytest.mark.parametrize(
        "flag, code",
        [("true", EXIT_OK), ("YES", EXIT_OK), ("0", EXIT_OK), ("ture", EXIT_USAGE)],
        ids=["true", "YES", "0", "ture"],
    )
    def test_simulate_snapshots_option(self, tmp_path, capsys, flag, code):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES
            + "sim.mode = nonlinear\nsim.t_end = 0.01\nsim.initial = constant:1\n"
            + f"sim.snapshots = {flag}\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == code
        if code == EXIT_USAGE:
            assert "sim.snapshots: not a flag" in capsys.readouterr().err
        if flag == "0" or code == EXIT_USAGE:
            assert not (out / "snapshots.csv").exists()
            return
        snaps = (out / "snapshots.csv").read_text().splitlines()
        assert snaps[0].startswith("x,t=")
        assert len(snaps) == 65  # header + one row per cell

    @pytest.mark.parametrize(
        "table, shape", [("1\n" * 63, "(63,)"), ("1 2\n" * 64, "(64, 2)")], ids=["short", "2-column"]
    )
    def test_simulate_wrong_length_datum_is_refused(self, tmp_path, capsys, table, shape):
        datum = tmp_path / "u0.csv"
        datum.write_text(table)
        cfg = write_config(tmp_path, "c.cfg", GREEN_LINES + f"sim.initial = csv:{datum}\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert f"length {shape} does not match grid n=64" in capsys.readouterr().err

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

    def test_mild_solve_at_q_prime_one(self, tmp_path):
        # q' = 1 measures the iterates in sup_t L^1 + sup_t L^inf
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES + "sim.initial = constant_plus_mode:1,0.1,1\nmild.n_time = 32\n"
            + "mild.q_prime = 1\n",
        )
        out = tmp_path / "out"
        assert main(["mild-solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "picard.csv").read_text().splitlines()
        assert float(lines[-2].split(",")[1]) <= 1e-10
        assert math.isfinite(float(lines[-1].split("=")[1]))

    def test_mild_solve_non_contraction_still_writes_picard(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES + "sim.initial = constant_plus_mode:1,0.1,1\nmild.n_time = 32\n"
            + "mild.max_iter = 1\n",
        )
        out = tmp_path / "out"
        assert main(["mild-solve", "--config", cfg, "--out", str(out)]) == EXIT_NO_CONTRACTION
        lines = (out / "picard.csv").read_text().splitlines()
        assert lines[0] == "iteration,distance_XT,ratio"
        assert lines[1].startswith("1,") and lines[1].endswith(",")
        assert len(lines) == 3 and lines[-1].startswith("T_existence=")

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

    def test_mild_solve_underflowed_existence_time_is_unusable(self, tmp_path, capsys):
        # budget^(-1/gamma) = (8e200)^(-2) underflows to 0 and no mild.T is set
        cfg = write_config(tmp_path, "c.cfg", GREEN_LINES + "kernel.scale = 1e200\n")
        code = main(["mild-solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_BAD_KERNEL
        assert "existence time" in capsys.readouterr().err

    def test_mild_solve_overflowed_existence_time_is_infinite(self, tmp_path, capsys):
        # budget^(-1/gamma) = (8e-200)^(-2) is beyond the largest double: the horizon is free
        cfg = write_config(tmp_path, "c.cfg", GREEN_LINES + "kernel.scale = 1e-200\n")
        out = tmp_path / "out"
        assert main(["mild-solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "picard.csv").read_text().splitlines()[-1] == "T_existence=inf"
        assert capsys.readouterr().err == ""

    def test_mild_solve_overflowed_horizon_is_free(self, tmp_path):
        # T_existence = 1.09e308 is finite, mild.T_factor times it is not: the horizon is free
        text = GREEN_LINES.replace("64", "16") + (
            "kernel.scale = 1.2e-155\nmild.T_factor = 4\nmild.n_time = 4\n"
        )
        cfg = write_config(tmp_path, "c.cfg", text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mild-solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "picard.csv").read_text().splitlines()
        assert len(lines) > 2 and lines[1].startswith("1,")
        assert math.isfinite(float(lines[-1].split("=")[1]))

    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_mild_solve_non_positive_horizon_is_refused(self, tmp_path, capsys, horizon):
        text = GREEN_LINES.replace("64", "32") + f"mild.n_time = 8\nmild.T = {horizon}\n"
        cfg = write_config(tmp_path, "c.cfg", text)
        out = tmp_path / "out"
        assert main(["mild-solve", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert "mild.T" in capsys.readouterr().err
        assert not (out / "picard.csv").exists()

    def test_mild_solve_beyond_existence_time_warns_in_one_line(self, tmp_path, capsys):
        text = GREEN_LINES.replace("64", "32") + (
            "sim.initial = constant_plus_mode:1,0.5,1\nmild.T_factor = 4\n"
        )
        cfg = write_config(tmp_path, "c.cfg", text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mild-solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == (
            "aggrestab: warning: T=0.0628215 exceeds the contraction estimate 0.0157054; "
            "the iteration may not contract\n"
        )
        lines = (out / "picard.csv").read_text().splitlines()
        assert lines[0] == "iteration,distance_XT,ratio"
        assert lines[-1] == "T_existence=0.015705375665695052"

    def test_mild_solve_overflow_writes_no_nan_row(self, tmp_path, capsys):
        # the third sweep overflows: the run stops with the two finite distances
        text = GREEN_LINES + "kernel.scale = 1e100\nmild.T = 0.01\n"
        cfg = write_config(tmp_path, "c.cfg", text)
        out = tmp_path / "out"
        code = main(["mild-solve", "--config", cfg, "--out", str(out)])
        assert code == EXIT_NO_CONTRACTION
        (warning,) = capsys.readouterr().err.splitlines()
        assert warning.startswith("aggrestab: warning: T=0.01 exceeds the contraction estimate")
        lines = (out / "picard.csv").read_text().splitlines()
        numbers = [float(v) for line in lines[1:-1] for v in line.split(",")[1:] if v]
        numbers.append(float(lines[-1].split("=")[1]))
        assert len(lines) == 4 and all(math.isfinite(v) for v in numbers)

    def test_simulate_non_finite_tabulated_kernel_is_unusable(self, tmp_path):
        grid = Grid1D(16)
        table = tmp_path / "kernel.csv"
        save_tabulated_csv(table, assemble(KernelSpec.green_closed_form(), grid))
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
        monkeypatch.setattr(
            solver, "apply_grad", lambda km, u, out=None: np.full(km.grid.n + 1, np.nan)
        )
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES + f"sim.M = 5\nsim.dt = {dt}\nsim.initial = constant_plus_mode:5,0.5,1\n",
        )
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_SCHEME
        assert "scheme failure" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_simulate_nan_velocity_after_the_first_step_is_scheme_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        # only a Heun stage reads the velocity after the first step: no halving follows
        action, calls = solver.apply_grad, []

        def fails_late(km, u, out=None):
            calls.append(None)
            return action(km, u, out) if len(calls) < 6 else np.full(km.grid.n + 1, np.nan)

        monkeypatch.setattr(solver, "apply_grad", fails_late)
        cfg = write_config(
            tmp_path, "c.cfg", GREEN_LINES + "sim.M = 5\nsim.initial = constant_plus_mode:5,0.5,1\n"
        )
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_SCHEME
        assert "scheme failure" in capsys.readouterr().err
        assert len(calls) == 6

    def test_simulate_set_dt_nan_stage_velocity_is_named(self, tmp_path, monkeypatch, capsys):
        # the second step's first stage reads a NaN velocity; a set dt reads no other
        action, calls = solver.apply_grad, []

        def fails_late(km, u, out=None):
            calls.append(None)
            return action(km, u, out) if len(calls) < 3 else np.full(km.grid.n + 1, np.nan)

        monkeypatch.setattr(solver, "apply_grad", fails_late)
        cfg = write_config(
            tmp_path,
            "c.cfg",
            GREEN_LINES + "sim.M = 5\nsim.dt = 0.001\nsim.initial = constant_plus_mode:5,0.5,1\n",
        )
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_SCHEME
        assert "non-finite transport velocity" in capsys.readouterr().err
        assert len(calls) == 3

    @pytest.mark.parametrize("dt", ["auto", "0.001"])
    def test_simulate_non_finite_state_is_scheme_failure(self, tmp_path, monkeypatch, capsys, dt):
        # an admissible velocity, but the linearized flux M v overflows
        monkeypatch.setattr(
            solver, "apply_grad", lambda km, u, out=None: np.full(km.grid.n + 1, 2.0)
        )
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

    @pytest.mark.parametrize(
        "command, code, line",
        [
            (
                "simulate",
                EXIT_SCHEME,
                "scheme failure: non-finite transport velocity: no step is admissible",
            ),
            (
                "mild-solve",
                EXIT_BAD_KERNEL,
                "unusable kernel: the existence time underflows to 0 (budget inf)",
            ),
        ],
    )
    def test_datum_near_the_largest_double_ends_in_one_line(
        self, tmp_path, capsys, command, code, line
    ):
        # h times the sum of the 64 cells is 1e308, but the sum is not a double: no NumPy
        # warning escapes, and the run ends in its typed refusal
        cfg = write_config(tmp_path, "c.cfg", GREEN_LINES + "sim.initial = constant:1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == f"aggrestab: {line}\n"

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

    def test_tabulated_kernel_is_scaled(self, tmp_path):
        grid = Grid1D(16)
        table = tmp_path / "kernel.csv"
        save_tabulated_csv(table, assemble(KernelSpec.gaussian(0.1), grid))
        reports = {}
        for scale in ("1", "2"):
            text = f"kernel.variant = tabulated\nkernel.csv = {table}\ngrid.n = 16\n"
            cfg = write_config(tmp_path, "c.cfg", text + f"analysis.M = 3\nkernel.scale = {scale}\n")
            out = tmp_path / scale
            assert main(["analyze", "--config", cfg, "--out", str(out)]) == EXIT_OK
            header, row = (out / "stability_report.csv").read_text().splitlines()
            reports[scale] = dict(zip(header.split(","), row.split(",")))
        for name in ("A", "grad_norm"):
            assert float(reports["2"][name]) == pytest.approx(2 * float(reports["1"][name]), rel=1e-7)

    @pytest.mark.parametrize("command", ["validate-kernel", "analyze", "simulate", "mild-solve", "threshold"])
    def test_table_defaults_written_out_change_nothing(self, tmp_path, command):
        # every key with a default, set to the text the key table gives it, but
        # kernel.delta: only the power law reads it, and a Green config refuses it
        defaults = "".join(
            f"{key} = {default}\n"
            for key, (_, default, _) in _KEYS.items()
            if isinstance(default, str) and key != "kernel.delta"
        )
        outputs = []
        for name, text in (("minimal", GREEN_LINES), ("defaults", GREEN_LINES + defaults)):
            cfg = write_config(tmp_path, f"{name}.cfg", text)
            out = tmp_path / name
            assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] and outputs[0] == outputs[1]

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
        save_tabulated_csv(table, assemble(spec, grid))
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
        "command, text, limit",
        [
            # (1024, 10^7 + 1) Picard states
            ("mild-solve", GREEN_LINES.replace("64", "1024") + "mild.n_time = 10000000\n", None),
            # (101, 64) Picard states fit a limit of 10^4 values, the three arrays of the
            # solve do not
            ("mild-solve", GREEN_LINES + "mild.n_time = 100\n", 10**4),
            # a 200000^2 table, refused before its file is read
            ("analyze", "kernel.variant = tabulated\nkernel.csv = {table}\ngrid.n = 200000\n", None),
            # a 16^2 table fits a limit of 10^3 values, the seven n x n arrays of its
            # dense path do not; a Gaussian kernel has no dense path
            ("analyze", "kernel.variant = tabulated\nkernel.csv = {table}\ngrid.n = 16\n", 10**3),
            ("threshold", "kernel.variant = tabulated\nkernel.csv = {table}\ngrid.n = 16\n", 10**3),
            # a grid of 10^12 cells, refused before its first array
            ("analyze", GREEN_LINES.replace("64", "1000000000000"), None),
        ],
        ids=[
            "mild-solve",
            "mild-solve-three-arrays",
            "analyze",
            "analyze-dense-path",
            "threshold-dense-path",
            "analyze-grid",
        ],
    )
    def test_oversized_arrays_are_refused(self, tmp_path, capsys, monkeypatch, command, text, limit):
        table = tmp_path / "kernel.csv"
        save_tabulated_csv(table, assemble(KernelSpec.gaussian(0.1), Grid1D(16)))
        if limit is not None:
            monkeypatch.setattr(grid_module, "MAX_STORED_VALUES", limit)
        cfg = write_config(tmp_path, "c.cfg", text.format(table=table))
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE
        assert f"the limit is {limit or 10**8:.0e}" in capsys.readouterr().err

    def test_large_gaussian_analyze_runs_matrix_free(self, tmp_path):
        # one 6000^2 sample would be 288 MB; the kernel acts by FFT and the eigenpair is
        # found by the block eigensolver
        text = "kernel.variant = gaussian\nkernel.sigma = 0.1\ngrid.n = 6000\nanalysis.M = 3\n"
        cfg = write_config(tmp_path, "c.cfg", text)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 20e6
        row = (tmp_path / "out" / "stability_report.csv").read_text().splitlines()[1]
        assert row.endswith(",inconclusive")

    @pytest.mark.parametrize("command", ["analyze", "validate-kernel"])
    @pytest.mark.parametrize("a", ["1e-310", "1e-321", "5e-324"])
    def test_green_values_beyond_a_double_are_refused(self, tmp_path, capsys, command, a):
        # the Green kernel is about 1/a: 1e310 and more overflow a double
        text = f"kernel.variant = green_series\nkernel.a = {a}\ngrid.n = 64\n"
        cfg = write_config(tmp_path, "c.cfg", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "beyond the largest double" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "simulate", "mild-solve", "validate-kernel"])
    @pytest.mark.parametrize(
        "params",
        [
            "gaussian\nkernel.sigma = 1e160",
            "gaussian\nkernel.sigma = 1e-160",
            "power_law_gradient\nkernel.alpha = 1e300\nkernel.delta = 0.5",
            "power_law_gradient\nkernel.alpha = 1e3\nkernel.delta = 0.1",
            "gaussian\nkernel.sigma = 1e-150\nkernel.scale = 1e10",
            # a delta = 0 power law's gradient peaks at (2n)^alpha, in the finest cell
            "power_law_gradient\nkernel.alpha = 0.5\nkernel.delta = 0\nkernel.scale = 1e308",
            # the Green gradient is at most 1, but its q' = inf norm is about 2
            "green_closed_form\nkernel.scale = 1e308",
        ],
        ids=["sigma-large", "sigma-small", "alpha-huge", "alpha-large", "scaled", "peak", "norm"],
    )
    def test_kernel_samples_beyond_a_double_are_refused(self, tmp_path, capsys, command, params):
        cfg = write_config(tmp_path, "c.cfg", f"kernel.variant = {params}\ngrid.n = 16\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "beyond the largest double" in err and "Traceback" not in err

    def test_kernel_report_scales_with_the_kernel(self, tmp_path):
        # q' = 2 read as divergent, value inf, at scale 1e200 while |scale| came before the powers
        reports = {}
        for scale in ("1", "1e200"):
            text = f"kernel.variant = gaussian\nkernel.sigma = 0.1\nkernel.scale = {scale}\n"
            cfg = write_config(tmp_path, "c.cfg", text + "grid.n = 64\nvalidate.q_prime = inf,2,1.5\n")
            out = tmp_path / scale
            assert main(["validate-kernel", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
            lines = (out / "kernel_report.txt").read_text().splitlines()
            reports[scale] = dict(line.split("=") for line in lines)
        unit, large = reports["1"], reports["1e200"]
        for q in ("inf", "2.0", "1.5"):
            assert large[f"norm_inf_q{q}_verdict"] == unit[f"norm_inf_q{q}_verdict"] == "finite"
            value = float(large[f"norm_inf_q{q}"])
            assert value == pytest.approx(1e200 * float(unit[f"norm_inf_q{q}"]), rel=1e-12)
        assert large["classification"] == unit["classification"]
        assert large["critical_q_prime"] == unit["critical_q_prime"]

    @pytest.mark.parametrize(
        "command, text",
        [
            ("analyze", GREEN_LINES + "kernel.scale = 10\nanalysis.M = 1e308\n"),
            ("analyze", GAUSSIAN_32 + "analysis.M = 1e307\n"),
            ("threshold", GAUSSIAN_32 + "analysis.M_hi = 1e308\n"),
        ],
        ids=["green", "gaussian", "threshold"],
    )
    def test_mass_beyond_the_doubles_is_refused(self, tmp_path, capsys, command, text):
        cfg = write_config(tmp_path, "c.cfg", text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("aggrestab: mass level M = 1e+30") and err.count("\n") == 1
        assert not any(out.iterdir())

    def test_analyze_at_a_large_scale(self, tmp_path):
        # the operator norm's A^T A overflowed at scale 1e160, and analyze died in eigh
        rows = {}
        for scale in ("1", "1e160"):
            text = f"kernel.variant = gaussian\nkernel.sigma = 0.1\nkernel.scale = {scale}\n"
            cfg = write_config(tmp_path, "c.cfg", text + "grid.n = 16\nanalysis.M = 3\n")
            out = tmp_path / scale
            assert main(["analyze", "--config", cfg, "--out", str(out)]) == EXIT_OK
            header, row = (out / "stability_report.csv").read_text().splitlines()
            rows[scale] = dict(zip(header.split(","), row.split(",")))
        unit, large = rows["1"], rows["1e160"]
        grad_norm = float(large["grad_norm"])
        assert grad_norm == pytest.approx(1e160 * float(unit["grad_norm"]), rel=1e-12)
        assert large["verdict"] == "linearly_unstable"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("grid.n = 64\n", "missing required key kernel.variant"),
            ("kernel.variant = green_closed_form\n", "missing required key grid.n"),
            ("kernel.variant = gaussian\ngrid.n = 64\n", "missing required key kernel.sigma"),
            (GREEN_LINES + "sim.M 5\n", "expected key=value, got 'sim.M 5'"),
            ("kernel.variant = mexican_hat\ngrid.n = 64\n", "unknown kernel.variant 'mexican_hat'"),
            # a kernel.* key the variant does not read, a default value too, and a
            # table's before its file is read
            (GREEN_LINES + "kernel.a = 5\n", "kernel.variant = green_closed_form reads no kernel.a"),
            (
                "kernel.variant = green_series\nkernel.a = 2\nkernel.delta = 0\ngrid.n = 64\n",
                "kernel.variant = green_series reads no kernel.delta",
            ),
            (
                "kernel.variant = gaussian\nkernel.sigma = 0.1\nkernel.alpha = 0.5\n"
                "kernel.csv = k.csv\ngrid.n = 64\n",
                "kernel.variant = gaussian reads no kernel.alpha, kernel.csv",
            ),
            (
                "kernel.variant = tabulated\nkernel.csv = absent.csv\nkernel.sigma = 0.1\n"
                "grid.n = 16\n",
                "kernel.variant = tabulated reads no kernel.sigma",
            ),
        ],
        ids=[
            "no-variant",
            "no-grid",
            "no-sigma",
            "no-equals",
            "unknown-variant",
            "closed-form-a",
            "series-delta",
            "gaussian-alpha-csv",
            "tabulated-sigma",
        ],
    )
    def test_incomplete_or_unread_config_is_refused(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, "c.cfg", text)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "stability_report.csv").exists()

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
