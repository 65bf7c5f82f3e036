"""The three benchmark workloads: seeded CLI configs and the checks on their outputs.

Each task is one `aggrestab` subcommand with a generated flat config, the exit
code it must return and the name of the check that reads its output files.
Checks compare against closed forms where the theory gives one, and against
the verdicts and classifications the code reports for these inputs otherwise.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

PI2 = math.pi**2
M_STAR = 1.0 + PI2  # critical mass of the Green kernel (a = 1)
GREEN = {"kernel.variant": "green_closed_form"}

# Bisection on [lo, hi] stops once hi - lo <= tol, after ceil(log2(width / tol))
# halvings. Keeping the width in (2^17 tol, 2^18 tol] fixes that count at 18
# for every seed, so the seed moves the bracket but not the amount of work.
THRESHOLD_TOL = 1e-4
THRESHOLD_MIN_WIDTH = 2**17 * THRESHOLD_TOL


def _green_series_constants(a: float) -> tuple[float, float]:
    """(A, L2 norm of u -> d/dx K u) for the Green function of -d^2/dx^2 + a.

    A = 1/(a + pi^2); the gradient's singular values are k pi/(a + k^2 pi^2),
    largest at k = 1 while a < 2 pi^2.
    """
    return 1.0 / (a + PI2), math.pi / (a + PI2)


def _green_hs_norm() -> float:
    """Closed-form L2(Omega x Omega) norm of d/dx G for the a = 1 Green kernel.

    ||d/dx G||^2 = sum_k k^2 pi^2 / (1 + k^2 pi^2)^2 = (S1 - b^2 S2) / pi^2 with
    b = 1/pi, S1 = sum 1/(k^2 + b^2) = (pi b coth(pi b) - 1) / (2 b^2) and
    S2 = sum 1/(k^2 + b^2)^2 = -S1'(b) / (2 b).
    """
    b = 1.0 / math.pi
    f = math.pi * b / math.tanh(math.pi * b) - 1.0
    df = math.pi / math.tanh(math.pi * b) - math.pi**2 * b / math.sinh(math.pi * b) ** 2
    s1 = f / (2.0 * b * b)
    s2 = -(df / (2.0 * b * b) - f / b**3) / (2.0 * b)
    return math.sqrt((s1 - b * b * s2) / PI2)


def _task(name, command, config, check, expect=None, exit_code=0):
    return {
        "name": name,
        "command": command,
        "config": config,
        "exit": exit_code,
        "check": check,
        "expect": expect or {},
    }


def dynamics(rng: random.Random) -> list:
    """Time stepping: nonlinear, linearized and perturbed IMEX runs, and Picard."""
    datum_seed = rng.randrange(1, 2**31)
    return [
        _task("simulate-nonlinear-M5", "simulate", {
            **GREEN, "grid.n": 512, "sim.mode": "nonlinear", "sim.M": 5, "sim.t_end": 0.25,
            "sim.initial": "constant_plus_mode:5,0.05,1", "sim.output_stride": 1,
        }, "nonlinear", {"trend": "decay"}),
        _task("simulate-nonlinear-M12", "simulate", {
            **GREEN, "grid.n": 256, "sim.mode": "nonlinear", "sim.M": 12, "sim.t_end": 1,
            "sim.initial": "constant_plus_mode:12,0.12,1",
        }, "nonlinear", {"trend": "growth"}),
        _task("simulate-linearized-M5", "simulate", {
            **GREEN, "grid.n": 256, "sim.mode": "linearized", "sim.M": 5, "sim.t_end": 1,
            "sim.initial": "constant_plus_mode:0,0.01,1",
        }, "linearized", {"M": 5}),
        _task("simulate-perturbed-M8", "simulate", {
            **GREEN, "grid.n": 512, "sim.mode": "perturbed", "sim.M": 8, "sim.t_end": 0.1,
            "sim.initial": f"random_zero_mean:0.5,{datum_seed}",
        }, "perturbed"),
        _task("mild-solve", "mild-solve", {
            **GREEN, "grid.n": 512, "mild.n_time": 512, "mild.T_factor": 0.5,
            "sim.initial": "constant_plus_mode:1,0.5,1",
        }, "picard"),
    ]


def stability(rng: random.Random) -> list:
    """Dense eigen work: threshold bisection and three stability analyses."""
    lo = rng.uniform(4.0, 6.0)
    hi = rng.uniform(max(18.0, lo + THRESHOLD_MIN_WIDTH + 1e-6), 22.0)
    a_series = 4.0
    a_ref, g_ref = _green_series_constants(1.0)
    as_ref, gs_ref = _green_series_constants(a_series)
    return [
        _task("threshold-green", "threshold", {
            **GREEN, "grid.n": 512, "analysis.M_lo": repr(lo), "analysis.M_hi": repr(hi),
            "analysis.tol_M": THRESHOLD_TOL,
        }, "threshold"),
        _task("analyze-green-M12", "analyze", {**GREEN, "grid.n": 1024, "analysis.M": 12},
              "analyze", {"verdict": "linearly_unstable", "eig_sign": -1,
                          "A": a_ref, "A_tol": 1e-6, "grad_norm": g_ref}),
        _task("analyze-gaussian-M3", "analyze", {
            "kernel.variant": "gaussian", "kernel.sigma": 0.1, "grid.n": 1024, "analysis.M": 3,
        }, "analyze", {"verdict": "inconclusive", "eig_sign": 1}),
        _task("analyze-green-series-M8", "analyze", {
            "kernel.variant": "green_series", "kernel.a": a_series, "grid.n": 512, "analysis.M": 8,
        }, "analyze", {"verdict": "linearly_stable_sufficient", "eig_sign": 1,
                       "A": as_ref, "A_tol": 1e-5, "grad_norm": gs_ref}),
    ]


def kernel_survey(rng: random.Random) -> list:
    """Kernel validation and classification, each up to n = 2048 internally."""
    return [
        _task("validate-green", "validate-kernel", {
            **GREEN, "grid.n": 512, "validate.q_prime": "inf,2,1",
        }, "kernel", {
            "classification": "mildly_singular", "critical_q_prime": math.inf,
            "verdicts": {"inf": "finite", "2.0": "finite", "1.0": "finite"},
            "hilbert_schmidt_norm": _green_hs_norm(),
        }),
        _task("validate-power-law", "validate-kernel", {
            "kernel.variant": "power_law_gradient", "kernel.alpha": 0.5, "grid.n": 512,
            "validate.q_prime": "inf,1.5",
        }, "kernel", {
            # classify brackets the critical q' between the ladder's q' = 2
            # (finite) and 3 (divergent) and reports their geometric mean
            "classification": "mildly_singular", "critical_q_prime": math.sqrt(6.0),
            "verdicts": {"inf": "divergent", "1.5": "finite"},
        }, exit_code=2),
        _task("validate-gaussian", "validate-kernel", {
            "kernel.variant": "gaussian", "kernel.sigma": 0.1, "grid.n": 512,
        }, "kernel", {
            "classification": "mildly_singular", "critical_q_prime": math.inf,
            "verdicts": {"inf": "finite"}, "neumann_ok": False,
        }, exit_code=2),
    ]


WORKLOADS = {"dynamics": dynamics, "stability": stability, "kernel_survey": kernel_survey}


def build(workload: str, seed: int, run_dir: Path) -> list:
    """Write the workload's configs under run_dir and return its task list."""
    tasks = WORKLOADS[workload](random.Random(seed))
    for task in tasks:
        config = run_dir / "configs" / f"{task['name']}.cfg"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text("".join(f"{k} = {v}\n" for k, v in task["config"].items()))
        task["config_path"] = str(config)
        task["out"] = str(run_dir / "out" / task["name"])
    return tasks


# ---------------------------------------------------------------- checks
#
# A check reads the task's output directory and returns (problems, ref_errs):
# a list of failed conditions and the relative errors against closed forms.


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _trajectory(out: Path):
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(("t", "mass", "l1", "l2", "linf", "min_u"))}


def _check_series(tr, config, problems):
    if not all(np.isfinite(col).all() for col in tr.values()):
        problems.append("non-finite value in trajectory.csv")
    if abs(tr["t"][-1] - float(config["sim.t_end"])) > 1e-9:
        problems.append(f"last time {tr['t'][-1]} != t_end {config['sim.t_end']}")


def check_nonlinear(out, task):
    tr = _trajectory(out)
    problems = []
    _check_series(tr, task["config"], problems)
    drift = float(np.abs(tr["mass"] - tr["mass"][0]).max()) / abs(tr["mass"][0])
    if drift > 1e-12:
        problems.append(f"mass drift {drift:.3e} > 1e-12")
    if tr["min_u"].min() < -1e-12:
        problems.append(f"min_u {tr['min_u'].min():.3e} < -1e-12")
    # the oscillation max u - min u tracks the perturbation of u = M
    osc = tr["linf"] - tr["min_u"]
    ratio = osc[-1] / osc[0]
    if task["expect"]["trend"] == "decay" and not ratio < 0.5:
        problems.append(f"perturbation did not decay: ratio {ratio:.3g}")
    if task["expect"]["trend"] == "growth" and not ratio > 1.5:
        problems.append(f"perturbation did not grow: ratio {ratio:.3g}")
    return problems, {}


def check_linearized(out, task):
    """Fitted L2 decay rate against pi^2 (1 - M/(1 + pi^2)), as acceptance criterion 04."""
    tr = _trajectory(out)
    problems = []
    _check_series(tr, task["config"], problems)
    skip = math.ceil(0.05 * tr["t"].size)  # leading transient, as fit_rate discards it
    slope = np.polyfit(tr["t"][skip:], np.log(tr["l2"][skip:]), 1)[0]
    rate, predicted = -float(slope), PI2 * (1.0 - task["expect"]["M"] / M_STAR)
    if abs(rate - predicted) > max(0.02 * abs(predicted), 0.02 * PI2):
        problems.append(f"linearized rate {rate:.5f} vs {predicted:.5f} beyond 2%")
    return problems, {"linearized_rate": _rel(rate, predicted)}


def check_perturbed(out, task):
    tr = _trajectory(out)
    problems = []
    _check_series(tr, task["config"], problems)
    if not tr["l2"][-1] < 0.5 * tr["l2"][0]:
        problems.append(f"perturbation did not decay: l2 {tr['l2'][0]:.3g} -> {tr['l2'][-1]:.3g}")
    return problems, {}


def check_picard(out, task):
    lines = (out / "picard.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:-1]]
    distances = [float(r[1]) for r in rows]
    ratios = [float(r[2]) for r in rows if r[2]]
    t_exist = float(lines[-1].partition("=")[2])
    problems = []
    if not distances or distances[-1] > 1e-10:
        problems.append(f"Picard not converged: distances {distances[-1:]}")
    if not ratios or max(ratios) >= 1.0:
        problems.append(f"Picard contraction ratios {ratios} not all < 1")
    if not 0.0 < t_exist < math.inf:
        problems.append(f"existence time {t_exist} not finite and positive")
    return problems, {}


def check_threshold(out, task):
    lines = (out / "threshold.csv").read_text().splitlines()
    m_crit = float(lines[-1].partition("=")[2])
    problems = []
    if len(lines) - 2 != 18:
        problems.append(f"{len(lines) - 2} bisection steps, expected 18")
    if _rel(m_crit, M_STAR) > 1e-3:
        problems.append(f"M* {m_crit} vs 1 + pi^2 = {M_STAR}")
    return problems, {"M_critical": _rel(m_crit, M_STAR)}


def check_analyze(out, task):
    header, row = (out / "stability_report.csv").read_text().splitlines()
    report = dict(zip(header.split(","), row.split(",")))
    expect, problems, refs = task["expect"], [], {}
    if report["verdict"] != expect["verdict"]:
        problems.append(f"verdict {report['verdict']} != {expect['verdict']}")
    if math.copysign(1.0, float(report["principal_eig"])) != expect["eig_sign"]:
        problems.append(f"principal eigenvalue {report['principal_eig']} has the wrong sign")
    if "A" in expect:
        a_coef, grad_norm = float(report["A"]), float(report["grad_norm"])
        if abs(a_coef - expect["A"]) > expect["A_tol"]:
            problems.append(f"A {a_coef} vs {expect['A']}")
        if abs(grad_norm - expect["grad_norm"]) > 1e-3:
            problems.append(f"grad_norm {grad_norm} vs {expect['grad_norm']}")
        refs = {"A": _rel(a_coef, expect["A"]), "grad_norm": _rel(grad_norm, expect["grad_norm"])}
    return problems, refs


def check_kernel(out, task):
    lines = (out / "kernel_report.txt").read_text().splitlines()
    report = dict(line.split("=", 1) for line in lines)
    expect, problems, refs = task["expect"], [], {}
    if report["classification"] != expect["classification"]:
        problems.append(f"classification {report['classification']}")
    critical = float(report["critical_q_prime"])
    want = expect["critical_q_prime"]
    if not (critical == want or abs(critical - want) <= 1e-12 * want):
        problems.append(f"critical q' {critical} != {want}")
    for q, verdict in expect["verdicts"].items():
        got = report.get(f"norm_inf_q{q}_verdict")
        if got != verdict:
            problems.append(f"q'={q} verdict {got} != {verdict}")
    if "neumann_ok" in expect and report["neumann_ok"] != str(expect["neumann_ok"]):
        problems.append(f"neumann_ok {report['neumann_ok']}")
    if "hilbert_schmidt_norm" in expect:
        err = _rel(float(report["hilbert_schmidt_norm"]), expect["hilbert_schmidt_norm"])
        if err > 1e-3:
            problems.append(f"Hilbert-Schmidt norm relative error {err:.3e}")
        refs["hilbert_schmidt_norm"] = err
    return problems, refs


CHECKS = {
    "nonlinear": check_nonlinear,
    "linearized": check_linearized,
    "perturbed": check_perturbed,
    "picard": check_picard,
    "threshold": check_threshold,
    "analyze": check_analyze,
    "kernel": check_kernel,
}


def check(task) -> tuple[list, dict]:
    """Run the task's output check; a missing or malformed output is a problem."""
    try:
        return CHECKS[task["check"]](Path(task["out"]), task)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], {}
