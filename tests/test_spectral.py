import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aggrestab
from aggrestab import (
    Grid1D,
    KernelSpec,
    LAMBDA_1,
    SpectralBasis,
    assemble,
    assemble_linearized,
    bilinear_form,
    compute_A,
    compute_interaction_coefficient,
    l2_operator_norm,
    principal_eigenpair,
    stability_verdict,
)
from aggrestab import spectral
from aggrestab.errors import GridMismatchError, InvalidParameterError, UnsupportedKernelError
from aggrestab.spectral import VERDICT_INCONCLUSIVE, VERDICT_STABLE, VERDICT_UNSTABLE


class TestAssembly:
    def test_weighted_row_sums_vanish(self, grid128, km128):
        # flux form: the operator annihilates nothing but preserves total mass
        lop = assemble_linearized(grid128, km128, 7.0)
        col_sums = lop.matrix.sum(axis=0)
        assert np.abs(col_sums).max() < 1e-9

    def test_negative_mass_rejected(self, grid128, km128):
        with pytest.raises(InvalidParameterError):
            assemble_linearized(grid128, km128, -1.0)

    def test_grid_mismatch_rejected(self, km128):
        with pytest.raises(GridMismatchError):
            assemble_linearized(Grid1D(64), km128, 1.0)

    def test_matrix_matches_bilinear_form(self, grid128, km128, rng):
        # h <L phi, psi> = J(phi, psi) for zero-flux discretizations
        lop = assemble_linearized(grid128, km128, 4.0)
        for _ in range(3):
            phi = rng.standard_normal(grid128.n)
            psi = rng.standard_normal(grid128.n)
            lhs = grid128.h * float(psi @ (lop.matrix @ phi))
            from aggrestab import Field

            rhs = bilinear_form(lop, Field(grid128, phi), Field(grid128, psi))
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


class TestPrincipalEigenpair:
    def test_pure_diffusion_gives_discrete_lambda1(self, grid256):
        km = assemble(KernelSpec.zero(256), grid256)
        lop = assemble_linearized(grid256, km, 0.0)
        eig, mode = principal_eigenpair(lop)
        basis = SpectralBasis(grid256)
        assert eig == pytest.approx(basis.eigenvalues_discrete[1], rel=1e-10)
        # the minimizing mode is the first cosine, up to sign
        overlap = abs(grid256.h * float(mode.values @ basis.mode(1).values))
        assert overlap == pytest.approx(1.0, abs=1e-6)

    def test_mode_is_zero_mean_and_normalized(self, grid256, km256):
        from aggrestab import lp_norm

        eig, mode = principal_eigenpair(assemble_linearized(grid256, km256, 12.0))
        assert abs(mode.mass) < 1e-10
        assert lp_norm(mode, 2) == pytest.approx(1.0, rel=1e-10)

    def test_eigenvalue_decreases_with_mass(self, grid128, km128):
        eigs = [
            principal_eigenpair(assemble_linearized(grid128, km128, m))[0]
            for m in (0.0, 5.0, 10.0, 15.0)
        ]
        assert all(a > b for a, b in zip(eigs, eigs[1:]))

    def test_asymmetric_kernel_rejected(self, grid128):
        values = np.zeros((128, 128))
        values[0, 1] = 1.0
        km = assemble(KernelSpec.tabulated(values, np.zeros((129, 128))), grid128)
        with pytest.raises(UnsupportedKernelError):
            principal_eigenpair(assemble_linearized(grid128, km, 1.0))


def _qr_reference(lop):
    """Principal eigenpair by QR deflation of the constant and a full eigh."""
    n = lop.grid.n
    s = 0.5 * (lop.matrix + lop.matrix.T)
    q, _ = np.linalg.qr(np.eye(n)[:, 1:] - 1.0 / n)
    reduced = q.T @ s @ q
    eigvals, eigvecs = np.linalg.eigh(0.5 * (reduced + reduced.T))
    vec = q @ eigvecs[:, 0]
    return eigvals[0], vec / (math.sqrt(lop.grid.h) * np.linalg.norm(vec))


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
        for mass in (0.0, 5.0, 12.0):
            lop = assemble_linearized(grid, km, mass)
            eig, mode = principal_eigenpair(lop)
            ref_eig, ref_mode = _qr_reference(lop)
            assert abs(eig - ref_eig) <= 1e-13 * np.linalg.norm(lop.matrix, np.inf)
            sign = math.copysign(1.0, float(mode.values @ ref_mode))
            assert np.abs(mode.values - sign * ref_mode).max() <= 1e-8


class TestGreenSymbols:
    """The Green symbols against the dense sample and its projection."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("scale", [1.0, 2.5, -1.0])
    @pytest.mark.parametrize("a", [1.0, 4.0])
    def test_match_dense_projection(self, a, scale, n):
        grid = Grid1D(n)
        km = assemble(KernelSpec.green_series(a, scale=scale), grid)
        family = assemble_linearized(grid, km, 0.0).family
        basis = family.basis
        for projected, symbol in (
            (grid.h * basis.project(km.k_centers), km.symbols[0]),
            (basis.project(family.drift), family.drift_symbol),
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
            report = stability_verdict(green, Grid1D(65536), 12.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == VERDICT_UNSTABLE
        assert peak < 50e6


def test_import_leaves_scipy_fft_unloaded():
    # the package never imports scipy.fft, which would load scipy.special
    src = str(Path(aggrestab.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import aggrestab; "
        "sys.exit('scipy.fft' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestInteractionCoefficient:
    def test_green_closed_form_value(self, km256, basis256):
        # for the Green kernel of -d^2/dx^2 + a the coefficient is 1/(a + pi^2)
        a_coef = compute_interaction_coefficient(km256, basis256)
        assert a_coef == pytest.approx(1.0 / (1.0 + math.pi**2), abs=1e-5)

    def test_alias_is_same_function(self):
        assert compute_A is compute_interaction_coefficient

    def test_grid_mismatch(self, km256):
        with pytest.raises(GridMismatchError):
            compute_interaction_coefficient(km256, SpectralBasis(Grid1D(64)))


class TestStabilityVerdict:
    def test_verdicts_across_masses(self, green, grid128):
        critical = 1.0 + math.pi**2
        below = stability_verdict(green, grid128, 5.0)
        above = stability_verdict(green, grid128, 2.0 * critical)
        assert below.verdict == VERDICT_STABLE
        assert below.principal_eigenvalue > 0
        assert above.verdict == VERDICT_UNSTABLE
        assert above.principal_eigenvalue < 0
        assert below.thresholds_consistent and above.thresholds_consistent

    def test_thresholds_agree_for_green(self, green, grid256):
        # both the sharp instability level 1/A and the sufficient bound
        # sqrt(lambda1)/||grad K|| equal a + lambda1 for this kernel
        report = stability_verdict(green, grid256, 1.0)
        expected = 1.0 + math.pi**2
        assert report.critical_mass_instability == pytest.approx(expected, rel=1e-3)
        assert report.stability_bound_mass == pytest.approx(expected, rel=1e-3)

    def test_between_bounds_is_not_misreported(self, grid128):
        # gaussian kernel: the two thresholds differ, the gap is inconclusive
        spec = KernelSpec.gaussian(0.2)
        report = stability_verdict(spec, grid128, 1.0)
        gap_mass = 0.5 * (report.stability_bound_mass + report.critical_mass_instability)
        mid = stability_verdict(spec, grid128, gap_mass)
        assert mid.verdict in (VERDICT_INCONCLUSIVE, VERDICT_STABLE, VERDICT_UNSTABLE)

    def test_csv_row_shape(self, green, grid128):
        report = stability_verdict(green, grid128, 3.0)
        header = report.csv_header().split(",")
        row = report.csv_row().split(",")
        assert len(header) == len(row)
        assert row[-1] == VERDICT_STABLE

    def test_lambda1_constant(self):
        assert LAMBDA_1 == pytest.approx(math.pi**2)

    def test_dense_path_peak_is_counted(self):
        # the refusal below counts _DENSE_ARRAYS n x n arrays; one spare covers O(n) work
        n = 512
        tracemalloc.start()
        try:
            stability_verdict(KernelSpec.gaussian(0.1), Grid1D(n), 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (spectral._DENSE_ARRAYS + 1) * 8 * n**2

    def test_oversized_dense_path_refused_before_allocating(self):
        # one 6000 x 6000 sample is below the limit, the dense path's seven arrays are not
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match="the limit is 1e\\+08"):
                stability_verdict(KernelSpec.gaussian(0.1), Grid1D(6000), 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
