import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import aggrestab
from aggrestab import (
    Grid1D,
    KernelSpec,
    LAMBDA_1,
    SpectralBasis,
    assemble,
    assemble_linearized,
    bilinear_form,
    compute_interaction_coefficient,
    l2_operator_norm,
    principal_eigenpair,
    stability_verdict,
)
from aggrestab import divergence, gradient, kernel, spectral
from aggrestab import grid as grid_module
from aggrestab.errors import InvalidParameterError, UnsupportedKernelError
from aggrestab.spectral import VERDICT_INCONCLUSIVE, VERDICT_STABLE, VERDICT_UNSTABLE


def _table(spec, grid):
    """The kernel as a table of its dense samples, which takes the dense path."""
    km = assemble(spec, grid)
    return KernelSpec.tabulated(km.k_centers, km.gradk_faces)


def _dense_operator(family, mass):
    """S(M) = -Laplace + M D as an n x n array, for the checks below."""
    grid = family.grid
    laplacian = -divergence(gradient(np.eye(grid.n), grid), grid)
    return laplacian + mass * family.km.drift


class TestAssembly:
    def test_weighted_row_sums_vanish(self, km128):
        # flux form: the operator annihilates nothing but preserves total mass
        family = assemble_linearized(km128)
        col_sums = _dense_operator(family, 7.0).sum(axis=0)
        assert np.abs(col_sums).max() < 1e-9

    def test_negative_mass_rejected(self, green, grid128, km128):
        with pytest.raises(InvalidParameterError, match="must be nonnegative"):
            principal_eigenpair(assemble_linearized(km128), -1.0)
        with pytest.raises(InvalidParameterError, match="must be nonnegative"):
            stability_verdict(assemble(green, grid128), -1.0)

    def test_matrix_matches_bilinear_form(self, grid128, km128, rng):
        # h <L phi, psi> = J(phi, psi) for zero-flux discretizations
        family = assemble_linearized(km128)
        matrix = _dense_operator(family, 4.0)
        for _ in range(3):
            phi = rng.standard_normal(grid128.n)
            psi = rng.standard_normal(grid128.n)
            lhs = grid128.h * float(psi @ (matrix @ phi))
            rhs = bilinear_form(km128, 4.0, phi, psi)
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


class TestPrincipalEigenpair:
    def test_pure_diffusion_gives_discrete_lambda1(self, grid256):
        km = assemble(KernelSpec.zero(256), grid256)
        family = assemble_linearized(km)
        eig, mode = principal_eigenpair(family, 0.0)
        basis = grid256.basis
        assert eig == pytest.approx(basis.eigenvalues_discrete[1], rel=1e-10)
        # the minimizing mode is the first cosine, up to sign
        overlap = abs(grid256.h * float(mode @ basis.mode(1)))
        assert overlap == pytest.approx(1.0, abs=1e-6)

    def test_mode_is_zero_mean_and_normalized(self, km256):
        from aggrestab import lp_norm

        eig, mode = principal_eigenpair(assemble_linearized(km256), 12.0)
        assert abs(km256.grid.h * float(mode.sum())) < 1e-10
        assert lp_norm(mode, 2, km256.grid) == pytest.approx(1.0, rel=1e-10)

    def test_eigenvalue_decreases_with_mass(self, km128):
        eigs = [
            principal_eigenpair(assemble_linearized(km128), m)[0]
            for m in (0.0, 5.0, 10.0, 15.0)
        ]
        assert all(a > b for a, b in zip(eigs, eigs[1:]))

    def test_residual_catches_a_wrong_symbol(self, green, grid256, monkeypatch):
        # the residual applies D by the kernel action, not by the symbols it checks
        true_symbols = kernel._green_symbols

        def doubled(spec, grid):
            return tuple(2.0 * symbol for symbol in true_symbols(spec, grid))

        monkeypatch.setattr(kernel, "_green_symbols", doubled)
        with pytest.raises(UnsupportedKernelError, match="residual"):
            principal_eigenpair(assemble_linearized(assemble(green, grid256)), 12.0)

    def test_dense_residual_catches_a_wrong_projection(self, grid256, monkeypatch):
        # the dense residual applies D itself, not the projection the solver read
        km = assemble(_table(KernelSpec.gaussian(0.1), grid256), grid256)
        project = SpectralBasis.project
        monkeypatch.setattr(SpectralBasis, "project", lambda self, a: 2.0 * project(self, a))
        with pytest.raises(UnsupportedKernelError, match="residual"):
            principal_eigenpair(assemble_linearized(km), 12.0)

    def test_asymmetric_kernel_rejected(self, grid128):
        values = np.zeros((128, 128))
        values[0, 1] = 1.0
        km = assemble(KernelSpec.tabulated(values, np.zeros((129, 128))), grid128)
        with pytest.raises(UnsupportedKernelError):
            principal_eigenpair(assemble_linearized(km), 1.0)


def _qr_reference(family, mass):
    """Principal eigenpair by QR deflation of the constant and a full eigh."""
    n = family.grid.n
    matrix = _dense_operator(family, mass)
    s = 0.5 * (matrix + matrix.T)
    q, _ = np.linalg.qr(np.eye(n)[:, 1:] - 1.0 / n)
    reduced = q.T @ s @ q
    eigvals, eigvecs = np.linalg.eigh(0.5 * (reduced + reduced.T))
    vec = q @ eigvecs[:, 0]
    return eigvals[0], vec / (math.sqrt(family.grid.h) * np.linalg.norm(vec))


class TestAgainstQRReference:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec.green_closed_form(1.0),
            KernelSpec.gaussian(0.1),
            KernelSpec.green_series(4.0),
            KernelSpec.power_law(0.5),
            # the Green kernels take the diagonal path, the others the dense one
            KernelSpec.green_closed_form(2.5),
            KernelSpec.green_closed_form(-1.0),
            KernelSpec.green_series(4.0, scale=2.5),
            KernelSpec.green_series(4.0, scale=-1.0),
        ],
        ids=[
            "green",
            "gaussian",
            "green_series",
            "power_law",
            "green-scale2.5",
            "green-scale-1",
            "green_series-scale2.5",
            "green_series-scale-1",
        ],
    )
    def test_eigenpair_matches(self, spec, n):
        grid = Grid1D(n)
        km = assemble(spec, grid)
        family = assemble_linearized(km)
        for mass in (0.0, 5.0, 12.0):
            eig, mode = principal_eigenpair(family, mass)
            ref_eig, ref_mode = _qr_reference(family, mass)
            scale = np.linalg.norm(_dense_operator(family, mass), np.inf)
            assert abs(eig - ref_eig) <= 1e-13 * scale
            sign = math.copysign(1.0, float(mode @ ref_mode))
            assert np.abs(mode - sign * ref_mode).max() <= 1e-8


RAYLEIGH_SPECS = [
    KernelSpec.green_closed_form(),
    KernelSpec.green_series(40.0),
    KernelSpec.gaussian(0.1),
    KernelSpec.power_law(1.5, delta=0.01),
]


class TestRayleighBound:
    """lambda = min J(phi, phi) / (h |phi|^2) over zero-mean phi: every phi reads at or above
    the principal eigenvalue, and its mode reads it. The largest gap measured at the mode
    is 2.6e-12 of max(|lambda|, 1), and a random phi reads at least 0.14 of it above."""

    @pytest.mark.parametrize("twin", [False, True], ids=["structured", "table-twin"])
    @pytest.mark.parametrize(
        "spec", RAYLEIGH_SPECS, ids=["green", "green40", "gaussian", "power_law"]
    )
    @pytest.mark.parametrize("n", [32, 128])
    def test_quotient_is_bounded_by_the_eigenvalue(self, spec, twin, n, rng):
        grid = Grid1D(n)
        km = assemble(_table(spec, grid) if twin else spec, grid)
        family = assemble_linearized(km)
        for mass in (0.0, 5.0, 12.0, 100.0):
            eig, mode = principal_eigenpair(family, mass)
            scale = max(abs(eig), 1.0)
            quotient = bilinear_form(km, mass, mode, mode) / (grid.h * float(mode @ mode))
            assert abs(quotient - eig) <= 1e-11 * scale
            for _ in range(8):
                phi = rng.standard_normal(n)
                phi -= phi.mean()
                assert bilinear_form(km, mass, phi, phi) / (grid.h * float(phi @ phi)) >= eig


class TestMatrixFree:
    """The block eigensolver on the Toeplitz FFT actions against a dense eigh."""

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec.gaussian(0.1),
            KernelSpec.gaussian(0.01),
            KernelSpec.power_law(0.5),
            KernelSpec.power_law(1.5, delta=0.01),
        ],
        ids=["gaussian0.1", "gaussian0.01", "power_law0.5", "power_law1.5-0.01"],
    )
    def test_eigenvalue_matches_dense_eigh(self, spec, n):
        grid = Grid1D(n)
        family = assemble_linearized(assemble(spec, grid))
        for mass in (0.0, 5.0, 12.0, 1e4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                eig, mode = principal_eigenpair(family, mass)
            matrix = _dense_operator(family, mass)
            reduced = grid.basis.project(0.5 * (matrix + matrix.T))[1:, 1:]
            ref = scipy.linalg.eigh(reduced, eigvals_only=True, subset_by_index=[0, 0])[0]
            assert abs(eig - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("n", range(4, 30))
    def test_small_grids_match_dense(self, n):
        # three blocks of the solver span these few modes: its trial basis is all of them
        grid = Grid1D(n)
        km = assemble(KernelSpec.power_law(1.5, delta=0.01), grid)
        dense = float(np.linalg.svd(grid.h * km.gradk_faces, compute_uv=False)[0])
        assert l2_operator_norm(km) == pytest.approx(dense, rel=1e-10)
        family = assemble_linearized(km)
        for mass in (0.0, 12.0):
            matrix = _dense_operator(family, mass)
            reduced = grid.basis.project(0.5 * (matrix + matrix.T))[1:, 1:]
            ref = scipy.linalg.eigh(reduced, eigvals_only=True, subset_by_index=[0, 0])[0]
            assert principal_eigenpair(family, mass)[0] == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("mass", [1e150, 1e200, 1e305, 1e306])
    def test_huge_mass_converges_without_overflow(self, mass):
        # the residual's entries are about M: its squares overflow past M ~ 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = stability_verdict(assemble(KernelSpec.gaussian(0.1), Grid1D(32)), mass)
        assert report.verdict == VERDICT_UNSTABLE
        assert report.principal_eigenvalue == pytest.approx(-17.556409730305 * mass, rel=1e-9)

    @pytest.mark.parametrize(
        "spec, mass",
        [
            (KernelSpec.green_closed_form(scale=10.0), 1e308),
            (KernelSpec.gaussian(0.1), 1e307),
            (KernelSpec.gaussian(0.1), 1e308),
            (KernelSpec.power_law(0.5), 5e307),
            (_table(KernelSpec.gaussian(0.1), Grid1D(32)), 1e307),
        ],
        ids=["green-scale10", "gaussian", "gaussian-1e308", "power_law", "table"],
    )
    def test_mass_beyond_the_doubles_is_refused(self, spec, mass):
        # the Green eigenvalue read -inf with a NaN residual; the others died in eigh, although
        # the Gaussian's lambda = -1.76e308 at M = 1e307 is a double: its residual is not
        family = assemble_linearized(assemble(spec, Grid1D(32)))
        with pytest.raises(InvalidParameterError, match=re.escape(f"M = {mass:g} takes S")):
            principal_eigenpair(family, mass)

    def test_reads_no_dense_sample(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense sample")

        monkeypatch.setattr(kernel, "_gradk_matrix", refuse)
        monkeypatch.setattr(kernel, "_values_matrix", refuse)
        for spec in (KernelSpec.gaussian(0.1), KernelSpec.power_law(1.5, delta=0.01)):
            assert stability_verdict(assemble(spec, Grid1D(128)), 12.0).principal_eigenvalue < 0


class TestGreenSymbols:
    """The Green symbols against the dense sample and its projection."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("scale", [1.0, 2.5, -1.0])
    @pytest.mark.parametrize("a", [1.0, 4.0])
    def test_match_dense_projection(self, a, scale, n):
        grid = Grid1D(n)
        km = assemble(KernelSpec.green_series(a, scale=scale), grid)
        family = assemble_linearized(km)
        basis = grid.basis
        for projected, symbol in (
            (grid.h * basis.project(km.k_centers), km.symbols[0]),
            (basis.project(family.km.drift), km.drift_symbol),
        ):
            largest = np.abs(projected).max()
            assert np.abs(projected - np.diag(np.diag(projected))).max() <= 1e-13 * largest
            assert np.abs(np.diag(projected) - symbol).max() <= 1e-13 * largest
        if n == 64:
            dense = float(np.linalg.svd(grid.h * km.gradk_faces, compute_uv=False)[0])
            assert l2_operator_norm(km) == pytest.approx(dense, rel=1e-12)

    def test_large_grid_allocates_no_dense_array(self, green):
        # one 65536 x 65536 sample would be 34 GB
        tracemalloc.start()
        try:
            report = stability_verdict(assemble(green, Grid1D(65536)), 12.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == VERDICT_UNSTABLE
        assert peak < 50e6


def test_import_leaves_scipy_fft_unloaded(tmp_path):
    # neither the import nor a Green simulate and mild-solve nor a Gaussian analyze
    # load scipy.fft, scipy.linalg, scipy.signal or scipy.special: each would add to
    # every CLI run's start time and memory (scipy.fft loads scipy.special, about
    # 5 MB); only a tabulated kernel's stability analysis imports scipy.linalg
    src = str(Path(aggrestab.__file__).resolve().parent.parent)
    green = tmp_path / "green.cfg"
    green.write_text(
        "kernel.variant = green_closed_form\ngrid.n = 64\nsim.mode = nonlinear\nsim.M = 5\n"
        "sim.t_end = 0.01\nsim.initial = constant_plus_mode:5,0.05,1\nmild.n_time = 16\n"
    )
    gaussian = tmp_path / "gaussian.cfg"
    gaussian.write_text(
        "kernel.variant = gaussian\nkernel.sigma = 0.1\ngrid.n = 64\nanalysis.M = 3\n"
    )
    runs = [("simulate", str(green)), ("mild-solve", str(green)), ("analyze", str(gaussian))]
    code = f"""
import sys
sys.path.insert(0, {src!r})
heavy = ("scipy.fft", "scipy.linalg", "scipy.signal", "scipy.special")
import aggrestab
from aggrestab.cli import main
loaded = [name for name in heavy if name in sys.modules]
for command, config in {runs!r}:
    if main([command, "--config", config, "--out", {str(tmp_path / "out")!r}]) != 0:
        sys.exit(command + " failed")
    loaded += [name for name in heavy if name in sys.modules]
sys.exit(", ".join(sorted(set(loaded))) or 0)
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestInteractionCoefficient:
    def test_green_closed_form_value(self, km256):
        # for the Green kernel of -d^2/dx^2 + a the coefficient is 1/(a + pi^2)
        a_coef = compute_interaction_coefficient(km256)
        assert a_coef == pytest.approx(1.0 / (1.0 + math.pi**2), abs=1e-5)


class TestStabilityVerdict:
    def test_verdicts_across_masses(self, green, grid128):
        critical = 1.0 + math.pi**2
        below = stability_verdict(assemble(green, grid128), 5.0)
        above = stability_verdict(assemble(green, grid128), 2.0 * critical)
        assert below.verdict == VERDICT_STABLE
        assert below.principal_eigenvalue > 0
        assert above.verdict == VERDICT_UNSTABLE
        assert above.principal_eigenvalue < 0
        assert below.thresholds_consistent and above.thresholds_consistent

    def test_thresholds_agree_for_green(self, green, grid256):
        # both the sharp instability level 1/A and the sufficient bound
        # sqrt(lambda1)/||grad K|| equal a + lambda1 for this kernel
        report = stability_verdict(assemble(green, grid256), 1.0)
        expected = 1.0 + math.pi**2
        assert report.critical_mass_instability == pytest.approx(expected, rel=1e-3)
        assert report.stability_bound_mass == pytest.approx(expected, rel=1e-3)

    def test_between_bounds_is_not_misreported(self, grid128):
        # gaussian kernel: the two thresholds differ, the gap is inconclusive
        spec = KernelSpec.gaussian(0.2)
        report = stability_verdict(assemble(spec, grid128), 1.0)
        gap_mass = 0.5 * (report.stability_bound_mass + report.critical_mass_instability)
        mid = stability_verdict(assemble(spec, grid128), gap_mass)
        assert mid.verdict in (VERDICT_INCONCLUSIVE, VERDICT_STABLE, VERDICT_UNSTABLE)

    def test_lambda1_constant(self):
        assert LAMBDA_1 == pytest.approx(math.pi**2)

    def test_dense_path_peak_is_counted(self):
        # the refusal below counts _DENSE_ARRAYS n x n arrays; one spare covers O(n) work
        n = 512
        table = _table(KernelSpec.gaussian(0.1), Grid1D(n))
        tracemalloc.start()
        try:
            stability_verdict(assemble(table, Grid1D(n)), 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (kernel._DENSE_ARRAYS + 1) * 8 * n**2

    def test_oversized_dense_path_refused_before_allocating(self, monkeypatch):
        # the 64^2 table is below a limit of 10^4 values, the dense path's seven arrays are not
        table = _table(KernelSpec.gaussian(0.1), Grid1D(64))
        monkeypatch.setattr(grid_module, "MAX_STORED_VALUES", 10**4)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match="the limit is 1e\\+04"):
                stability_verdict(assemble(table, Grid1D(64)), 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
