"""Acceptance suite: closed-form targets and property checks at pinned tolerances.

Each test prints exactly one PASS/FAIL line for its criterion; the assert
carries the same condition so pytest and the printed summary agree.
"""

import math
import time

import numpy as np
import pytest

import aggrestab as ag
from aggrestab.cli import EXIT_OK, main
from aggrestab.spectral import VERDICT_STABLE, VERDICT_UNSTABLE

PI2 = math.pi**2
GREEN = ag.KernelSpec.green_closed_form()


def report(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def linearized_rate(mass, n=256, amplitude=0.01, t_end=1.0):
    km = ag.assemble(GREEN, ag.Grid1D(n))
    u0 = ag.initial_field(f"constant_plus_mode:0,{amplitude},1", km.grid)
    traj = ag.evolve(u0, km, "linearized", mass_level=mass, t_end=t_end, output_stride=20)
    return ag.fit_rate(traj).rate


def test_criterion_01_instability_constant():
    start = time.perf_counter()
    grid = ag.Grid1D(512)
    a1 = ag.compute_interaction_coefficient(ag.assemble(GREEN, grid))
    a4 = ag.compute_interaction_coefficient(ag.assemble(ag.KernelSpec.green_series(4.0), grid))
    err1 = abs(a1 - 1.0 / (1.0 + PI2))
    err4 = abs(a4 - 1.0 / (4.0 + PI2))
    elapsed = time.perf_counter() - start
    ok = err1 < 1e-6 and err4 < 1e-5 and elapsed < 5.0
    report(
        "criterion 01 instability constant",
        ok,
        f"A(a=1) err {err1:.2e} (tol 1e-6), A(a=4) err {err4:.2e} (tol 1e-5), {elapsed:.1f}s",
    )


def test_criterion_02_threshold_sharpness():
    start = time.perf_counter()
    grid = ag.Grid1D(256)
    critical = ag.threshold_bisect(ag.assemble(GREEN, grid), 5.0, 20.0, tol_mass=0.005)
    bound = math.sqrt(PI2) / ag.l2_operator_norm(ag.assemble(GREEN, grid))
    expected = 1.0 + PI2
    err_crit = abs(critical - expected) / expected
    err_bound = abs(bound - expected) / expected
    agreement = abs(critical - bound) / expected
    elapsed = time.perf_counter() - start
    ok = err_crit < 0.01 and err_bound < 0.01 and agreement < 0.015 and elapsed < 30.0
    report(
        "criterion 02 threshold sharpness",
        ok,
        f"bisect {critical:.4f}, bound {bound:.4f}, target {expected:.4f}, "
        f"errs {err_crit:.2e}/{err_bound:.2e}, gap {agreement:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_operator_norm():
    grid = ag.Grid1D(512)
    norm = ag.l2_operator_norm(ag.assemble(GREEN, grid))
    expected = math.pi / (1.0 + PI2)
    err = abs(norm - expected)
    # the Green symbols, and the block power iteration on kernels whose top
    # singular values come in near-equal pairs
    cases = [(GREEN, 64)] + [
        (spec, n)
        for spec in (
            ag.KernelSpec.gaussian(0.1),
            ag.KernelSpec.power_law(0.5),
            ag.KernelSpec.power_law(1.5, delta=0.01),
        )
        for n in (64, 256, 512)
    ]
    err_svd = 0.0
    for spec, n in cases:
        km = ag.assemble(spec, ag.Grid1D(n))
        dense = float(np.linalg.svd(km.grid.h * km.gradk_faces, compute_uv=False)[0])
        err_svd = max(err_svd, abs(ag.l2_operator_norm(km) - dense))
    ok = err < 1e-3 and err_svd < 1e-6
    report(
        "criterion 03 operator norm",
        ok,
        f"power iteration {norm:.7f} vs pi/(1+pi^2) {expected:.7f} (err {err:.2e}), "
        f"SVD crosscheck err {err_svd:.2e}",
    )


def test_criterion_04_linearized_rates():
    start = time.perf_counter()
    a_coef = 1.0 / (1.0 + PI2)
    checks = []
    for mass, amplitude, t_end in (
        (0.0, 0.01, 0.8),
        (5.0, 0.01, 1.0),
        (10.87, 0.01, 1.0),
        (21.74, 1e-4, 0.6),
    ):
        rate = linearized_rate(mass, amplitude=amplitude, t_end=t_end)
        predicted = PI2 * (1.0 - mass * a_coef)
        tol = max(0.02 * abs(predicted), 0.02 * PI2)
        checks.append((mass, rate, predicted, abs(rate - predicted) <= tol))
    flip = linearized_rate(10.0) > 0 > linearized_rate(12.0)
    elapsed = time.perf_counter() - start
    ok = all(c[3] for c in checks) and flip and elapsed < 60.0
    detail = ", ".join(f"M={m:g}: {r:.3f} vs {p:.3f}" for m, r, p, _ in checks)
    report(
        "criterion 04 linearized rates",
        ok,
        f"{detail}; sign flip 10->12 {flip}, {elapsed:.1f}s",
    )


def test_criterion_05_nonlinear_dichotomy():
    def run(mass, t_end):
        km = ag.assemble(GREEN, ag.Grid1D(128))
        u0 = ag.initial_field(f"constant_plus_mode:{mass},{0.01 * mass},1", km.grid)
        traj = ag.evolve(u0, km, "nonlinear", mass_level=mass, t_end=t_end, output_stride=100)
        pert = [
            ag.lp_norm(s - mass, 2, km.grid) for s in (traj.snapshots[0], traj.snapshots[-1])
        ]
        drift = float(np.abs(traj.mass - traj.mass[0]).max()) / traj.mass[0]
        return pert[0], pert[-1], drift, float(traj.min_value.min())

    s0, s1, drift_s, min_s = run(5.0, 5.0)
    g0, g1, drift_g, min_g = run(12.0, 3.0)
    decayed = s1 <= 1e-6 * s0
    grew = g1 >= 10.0 * g0
    conserved = max(drift_s, drift_g) <= 1e-12
    positive = min(min_s, min_g) >= -1e-12
    ok = decayed and grew and conserved and positive
    report(
        "criterion 05 nonlinear dichotomy",
        ok,
        f"M=5 ratio {s1 / s0:.2e} (<=1e-6), M=12 growth {g1 / g0:.1f}x (>=10), "
        f"mass drift {max(drift_s, drift_g):.2e}, min u {min(min_s, min_g):.2e}",
    )


def test_criterion_06_constant_steady_state():
    km = ag.assemble(GREEN, ag.Grid1D(128))
    u0 = np.full(128, 7.0)
    traj = ag.evolve(u0, km, "nonlinear", mass_level=7.0, t_end=1.0, output_stride=50)
    deviation = float(np.abs(traj.snapshots - 7.0).max())
    ok = deviation <= 1e-10
    report(
        "criterion 06 constant steady state",
        ok,
        f"max cell deviation {deviation:.2e} over t in [0,1] (tol 1e-10)",
    )


def test_criterion_07_poincare_suite():
    grid = ag.Grid1D(512)
    basis = ag.SpectralBasis(grid)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(grid.n)
        v -= v.mean()
        g = np.diff(v) / grid.h
        ratio = PI2 * ag.lp_norm(v, 2, grid) ** 2 / (grid.h * float(g @ g))
        worst = max(worst, ratio)
    w1 = basis.mode(1)
    g1 = np.diff(w1) / grid.h
    equality = PI2 * ag.lp_norm(w1, 2, grid) ** 2 / (grid.h * float(g1 @ g1))
    ok = worst <= 1.02 and abs(equality - 1.0) <= 1e-3
    report(
        "criterion 07 poincare suite",
        ok,
        f"worst of 100 random ratios {worst:.4f} (<=1.02), w1 equality {equality:.6f}",
    )


def test_criterion_08_mild_solver_equivalence():
    grid = ag.Grid1D(256)
    km = ag.assemble(GREEN, grid)
    u0 = ag.initial_field("constant_plus_mode:1,0.1,1", grid)
    horizon = ag.existence_time(u0, grid, ag.l2_operator_norm(km), np.inf, 1.0)
    diag = ag.picard_mild_solve(u0, km, horizon, n_time=128)
    gap = ag.cross_validate(u0, km, horizon / 2.0, n_time=128)
    ok = gap < 1e-3 and diag.contraction_ratio < 1.0
    report(
        "criterion 08 mild solver equivalence",
        ok,
        f"Linf gap {gap:.2e} up to T/2={horizon / 2.0:.3f} (tol 1e-3), "
        f"Picard ratio {diag.contraction_ratio:.3f} (<1)",
    )


def test_criterion_09_semigroup_constants():
    def constants(n, nt):
        grid = ag.Grid1D(n)
        basis = ag.SpectralBasis(grid)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(n)
        z -= z.mean()
        x = grid.centers
        bump = np.exp(-0.5 * ((x - 0.5) / 0.07) ** 2)
        bump -= bump.mean()
        probes = [basis.mode(1), basis.mode(3), z, bump]
        rep = ag.semigroup_probe(probes, grid, p=np.inf, q=1, times=np.geomspace(1e-3, 5.0, nt))
        return rep.smoothing_constant, rep.gradient_constant

    coarse = constants(128, 40)
    fine = constants(256, 80)
    rel = [abs(f - c) / c for c, f in zip(coarse, fine)]
    finite = all(np.isfinite(coarse)) and all(np.isfinite(fine))
    ok = finite and max(rel) <= 0.20
    report(
        "criterion 09 semigroup constants",
        ok,
        f"smoothing {coarse[0]:.4f}->{fine[0]:.4f}, gradient {coarse[1]:.2f}->{fine[1]:.2f}, "
        f"max rel change {max(rel):.2e} (<=0.20)",
    )


def test_criterion_10_kernel_classification():
    green_cls = ag.classify(GREEN, levels=(64, 128, 256, 512))
    power = ag.KernelSpec.power_law(0.5)
    levels = (64, 128, 256, 512, 1024, 2048)
    low = ag.norm_inf_qprime(power, 1.5, levels)
    high = ag.norm_inf_qprime(power, 4.0, levels)
    sup_est = green_cls.estimates[np.inf]
    ok = (
        green_cls.category == "mildly_singular"
        and sup_est.verdict == "finite"
        and low.verdict == "finite"
        and high.verdict == "divergent"
    )
    report(
        "criterion 10 kernel classification",
        ok,
        f"green {green_cls.category} (sup norm {sup_est.verdict}), "
        f"power law alpha=1/2: q'=1.5 {low.verdict}, q'=4 {high.verdict}",
    )


def test_criterion_11_self_convergence():
    dt = 0.25 / 2048

    def run(n):
        km = ag.assemble(GREEN, ag.Grid1D(n))
        u0 = ag.initial_field("constant_plus_mode:1,0.1,1", km.grid)
        traj = ag.evolve(u0, km, "nonlinear", 1.0, t_end=0.25, dt=dt, output_stride=10**9)
        return traj.snapshots[-1]

    solutions = {n: run(n) for n in (64, 128, 256, 512)}
    errors = [
        float(np.abs(solutions[n] - 0.5 * (solutions[2 * n][0::2] + solutions[2 * n][1::2])).max())
        for n in (64, 128, 256)
    ]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    ok = min(orders) >= 1.8
    report(
        "criterion 11 self convergence",
        ok,
        f"Richardson orders {', '.join(f'{o:.2f}' for o in orders)} (min >= 1.8)",
    )


def test_criterion_12_determinism(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "kernel.variant = green_closed_form\n"
        "grid.n = 64\n"
        "sim.mode = perturbed\n"
        "sim.M = 5\n"
        "sim.t_end = 0.05\n"
        "sim.initial = random_zero_mean:0.1,\n"
        "sim.output_stride = 5\n"
        "seed = 17\n"
    )
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
        outputs.append((out / "trajectory.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    report(
        "criterion 12 determinism",
        ok,
        f"repeated cmd_simulate byte-identical: {ok} ({len(outputs[0])} bytes)",
    )


def test_verdict_consistency_supplement():
    # the two analytic thresholds coincide for the Green kernel, so verdicts
    # must switch directly from stable to unstable across the critical mass
    grid = ag.Grid1D(128)
    below = ag.stability_verdict(ag.assemble(GREEN, grid), 10.0)
    above = ag.stability_verdict(ag.assemble(GREEN, grid), 12.0)
    assert below.verdict == VERDICT_STABLE
    assert above.verdict == VERDICT_UNSTABLE
    assert below.thresholds_consistent and above.thresholds_consistent
