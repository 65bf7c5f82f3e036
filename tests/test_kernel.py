import math
import tracemalloc

import numpy as np
import pytest

from aggrestab import kernel
from aggrestab import (
    Field,
    Grid1D,
    KernelSpec,
    SpectralBasis,
    apply,
    apply_grad,
    assemble,
    classify,
    compute_A,
    constant_field,
    eval_grad_x,
    eval_kernel,
    hilbert_schmidt_grad_norm,
    l2_operator_norm,
    load_tabulated_csv,
    norm_inf_qprime,
    save_tabulated_csv,
    validate_assumptions,
)
from aggrestab.errors import (
    GridMismatchError,
    InvalidParameterError,
    KernelLoadError,
    SingularityError,
)


class TestKernelSpec:
    def test_invalid_variant(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec("pyramid")

    def test_power_law_needs_regularization_for_large_alpha(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec.power_law(1.5, delta=0.0)
        KernelSpec.power_law(1.5, delta=0.01)  # regularized is fine

    def test_series_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec.green_series(a=-1.0)

    def test_tabulated_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec.tabulated(np.zeros((8, 8)), np.zeros((8, 8)))
        with pytest.raises(InvalidParameterError):
            KernelSpec.tabulated(np.full((8, 8), np.nan), np.zeros((9, 8)))


class TestGreenKernel:
    """The closed form solves -K'' + K = delta_y with zero-flux boundaries."""

    def test_symmetry(self, green):
        x = np.linspace(0.05, 0.95, 7)
        np.testing.assert_allclose(
            eval_kernel(green, x[:, None], x[None, :]),
            eval_kernel(green, x[None, :], x[:, None]).T,
            rtol=1e-13,
        )

    def test_matches_series(self):
        # G = 1/a + sum_k 2 cos(k pi x) cos(k pi y) / (a + k^2 pi^2), truncated at 20000 terms
        grid = Grid1D(32)
        k = np.arange(1, 20001) * np.pi
        cy = np.cos(np.outer(grid.centers, k))
        for a in (1.0, 4.0):
            denom = a + k**2
            values = 1.0 / a + (cy * (2.0 / denom)) @ cy.T
            grad = -(np.sin(np.outer(grid.faces, k)) * (2.0 * k / denom)) @ cy.T
            closed = assemble(KernelSpec.green_series(a), grid)
            # coefficient decay 1/k^2 bounds the truncation error near the diagonal
            np.testing.assert_allclose(values, closed.k_centers, atol=2e-5)
            np.testing.assert_allclose(grad, closed.gradk_faces, atol=1e-5)
        # green_closed_form is the a = 1 member of the family
        same = assemble(KernelSpec.green_closed_form(), grid).k_centers
        np.testing.assert_array_equal(same, assemble(KernelSpec.green_series(1.0), grid).k_centers)

    @pytest.mark.parametrize("evaluate", [eval_kernel, eval_grad_x], ids=["value", "grad"])
    def test_broadcasts_elementwise(self, evaluate):
        spec = KernelSpec.green_series(4.0)
        x, y = np.array([0.1, 0.2]), np.array([0.3, 0.4])
        pair = evaluate(spec, x, y)
        assert pair.shape == (2,)
        np.testing.assert_array_equal(pair, [evaluate(spec, 0.1, 0.3), evaluate(spec, 0.2, 0.4)])
        xm, ym = np.meshgrid(x, y)
        grid = evaluate(spec, xm, ym)
        assert grid.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                assert grid[i, j] == evaluate(spec, xm[i, j], ym[i, j])

    @pytest.mark.parametrize("a", [1e6, 1e-6])
    def test_extreme_a_is_finite(self, a):
        spec = KernelSpec.green_series(a)
        x = np.linspace(0.0, 1.0, 11)
        assert np.isfinite(eval_kernel(spec, x[:, None], x[None, :])).all()
        assert np.isfinite(eval_grad_x(spec, x[:, None], x[None, :])).all()
        km = assemble(spec, Grid1D(64))
        assert all(np.isfinite(symbol).all() for symbol in km.symbols)
        assert np.isfinite(l2_operator_norm(km))

    @pytest.mark.parametrize("a", [1.0, 4.0, 1e-6, 1e-14, 1e-20, 1e-300])
    def test_gradient_keeps_its_digits(self, a):
        # sinh(s x) cosh(s (1 - y)) / sinh s for x < y, the mirror with a minus sign
        # for x > y, and their average sinh(s (2x - 1)) / (2 sinh s) at x = y: all
        # free of cancellation for a <= 4
        s = math.sqrt(a)
        x = np.arange(1, 16, 2) / 16.0  # 1 - x and 2x - 1 exact, and 2x - 1 != 0
        xx, yy = x[:, None], x[None, :]
        below = np.sinh(s * xx) * np.cosh(s * (1 - yy)) / np.sinh(s)
        above = -np.sinh(s * (1 - xx)) * np.cosh(s * yy) / np.sinh(s)
        on = 0.5 * np.sinh(s * (2 * xx - 1)) / np.sinh(s)
        expected = np.where(xx < yy, below, np.where(xx > yy, above, on))
        grad = eval_grad_x(KernelSpec.green_series(a), xx, yy)
        np.testing.assert_allclose(grad, expected, rtol=1e-14, atol=0)

    def test_subnormal_a_has_finite_symbols(self):
        # K itself overflows as 1/a, but its modes k >= 1 tend to those of -d^2/dx^2
        km = assemble(KernelSpec.green_series(1e-320), Grid1D(64))
        assert l2_operator_norm(km) == pytest.approx(1.0 / math.pi, rel=1e-3)
        assert compute_A(km, SpectralBasis(km.grid)) == pytest.approx(1.0 / math.pi**2, rel=1e-3)

    def test_ode_residual_off_diagonal(self, green):
        # -K_xx + K = 0 away from x = y
        y = 0.3
        x = np.linspace(0.5, 0.9, 41)
        h = x[1] - x[0]
        k = eval_kernel(green, x, y)
        kxx = (k[2:] - 2 * k[1:-1] + k[:-2]) / h**2
        np.testing.assert_allclose(-kxx + k[1:-1], 0.0, atol=1e-3)

    def test_zero_boundary_flux(self, km128):
        assert np.abs(km128.gradk_faces[[0, -1], :]).max() < 1e-12

    def test_constant_in_constant_out(self, green, km128, grid128):
        # h-weighted row sums of K equal 1/a, so K maps constants to constants
        out = apply(km128, constant_field(grid128, 3.0))
        np.testing.assert_allclose(out.values, 3.0, rtol=1e-3)
        # ... and the drift of a constant vanishes identically
        v = apply_grad(km128, constant_field(grid128, 3.0))
        assert np.abs(v).max() < 1e-13


class TestOperators:
    def test_grid_mismatch_rejected(self, km128):
        with pytest.raises(GridMismatchError):
            apply(km128, constant_field(Grid1D(64), 1.0))

    def test_mode_map_eigenvalues(self, green, km256, basis256):
        # K w_k = w_k / (a + (k pi)^2)
        for k in (1, 2, 5):
            w = basis256.mode(k)
            out = apply(km256, w)
            np.testing.assert_allclose(
                out.values, w.values / (1.0 + (k * math.pi) ** 2), atol=1e-4
            )

    def test_operator_norm_matches_dense_svd(self, green):
        grid = Grid1D(64)
        km = assemble(green, grid)
        dense = float(np.linalg.svd(grid.h * km.gradk_faces, compute_uv=False)[0])
        assert l2_operator_norm(km) == pytest.approx(dense, abs=1e-6)

    def test_dense_sample_refused_above_limit(self):
        km = assemble(KernelSpec.gaussian(0.1), Grid1D(200000))
        with pytest.raises(InvalidParameterError, match="limit"):
            km.k_centers
        with pytest.raises(InvalidParameterError, match="limit"):
            km.gradk_faces

    def test_operator_norm_zero_kernel(self):
        km = assemble(KernelSpec.zero(16), Grid1D(16))
        assert l2_operator_norm(km) == 0.0
        assert hilbert_schmidt_grad_norm(km) == 0.0

    def test_hs_norm_dominates_operator_norm(self, km128):
        assert l2_operator_norm(km128) <= hilbert_schmidt_grad_norm(km128) + 1e-12


class TestSingularity:
    def test_power_law_diagonal_raises(self):
        spec = KernelSpec.power_law(0.5)
        with pytest.raises(SingularityError):
            eval_grad_x(spec, 0.25, 0.25)

    def test_regularized_diagonal_is_finite(self):
        spec = KernelSpec.power_law(0.5, delta=0.01)
        assert np.isfinite(eval_grad_x(spec, 0.25, 0.25))


class TestNormEstimates:
    def test_invalid_exponent(self, green):
        with pytest.raises(InvalidParameterError):
            norm_inf_qprime(green, 0.5)
        with pytest.raises(InvalidParameterError):
            norm_inf_qprime(green, math.nan)

    def test_green_sup_norm_finite(self, green):
        est = norm_inf_qprime(green, np.inf, levels=(64, 128, 256))
        assert est.verdict == "finite"
        # |d/dx K| is bounded by its jump size ~ 1 on each side
        assert 1.5 < est.value < 2.5

    def test_power_law_divergence_pattern(self):
        spec = KernelSpec.power_law(0.5)
        levels = (64, 128, 256, 512, 1024, 2048)
        assert norm_inf_qprime(spec, 4.0, levels).verdict == "divergent"
        assert norm_inf_qprime(spec, 1.5, levels).verdict == "finite"

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(KernelSpec.power_law(0.5), id="power_law-0.5"),
            pytest.param(KernelSpec.power_law(0.9), id="power_law-0.9"),
            pytest.param(KernelSpec.power_law(1.5, delta=0.01), id="power_law-1.5-delta"),
            pytest.param(KernelSpec.gaussian(0.1), id="gaussian-0.1"),
            pytest.param(KernelSpec.gaussian(0.01), id="gaussian-0.01"),
            *(
                pytest.param(KernelSpec.green_series(a, scale), id=f"green-{a:g}-scale{scale:g}")
                for a in (1.0, 4.0, 1e6, 1e-6)
                for scale in (1.0, -2.5)
            ),
        ],
    )
    def test_structured_levels_match_dense(self, spec):
        # window sums near the power-law singularity and the Green scans against
        # the sum over the dense (n+1) x n sample
        q_primes = (*kernel.CLASSIFY_QPRIMES, 3.0)
        for n in (64, 128, 256, 512, 1024, 2048):
            gk = np.abs(kernel._gradk_matrix(spec, Grid1D(n)))
            dense = [kernel._norm_value(gk, 1.0 / n, q) for q in q_primes]
            np.testing.assert_allclose(kernel._level_norms(spec, n, q_primes), dense, rtol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        # alpha = 0.6 keeps the critical q' = 1/alpha off the probe exponents; at
        # alpha = 0.5, q' = 2 diverges like log n and its verdict moves with the finest level
        [KernelSpec.green_closed_form(), KernelSpec.power_law(0.6), KernelSpec.gaussian(0.1)],
        ids=["green", "power_law", "gaussian"],
    )
    def test_fine_ladder_stays_small(self, spec):
        # one dense level at n = 65536 would hold 34 GB
        tracemalloc.start()
        try:
            fine = kernel._norm_ladder(spec, kernel.CLASSIFY_QPRIMES, [2**k for k in range(6, 17)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        default = kernel._norm_ladder(spec, kernel.CLASSIFY_QPRIMES)
        assert [fine[q].verdict for q in kernel.CLASSIFY_QPRIMES] == [
            default[q].verdict for q in kernel.CLASSIFY_QPRIMES
        ]

    def test_classification_green(self, green):
        cls = classify(green, levels=(64, 128, 256, 512))
        assert cls.category == "mildly_singular"
        assert cls.critical_q_prime == np.inf

    def test_classification_gaussian(self):
        cls = classify(KernelSpec.gaussian(0.2), levels=(64, 128, 256))
        assert cls.category == "mildly_singular"


class TestValidation:
    def test_green_passes(self, green, grid128):
        report = validate_assumptions(green, grid128, tol=1e-6)
        assert report.passed
        assert report.neumann_residual < 1e-12
        assert report.mean_gradient_residual < 1e-12
        assert report.symmetry_residual < 1e-12

    def test_gaussian_fails_boundary_assumption(self, grid128):
        report = validate_assumptions(KernelSpec.gaussian(0.1), grid128, tol=1e-6)
        assert not report.neumann_ok
        assert not report.passed

    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.green_closed_form(), KernelSpec.power_law(0.5), KernelSpec.gaussian(0.1)],
        ids=["green", "power_law", "gaussian"],
    )
    def test_one_ladder_matches_separate_estimates(self, spec):
        # 3.0 is not a classification exponent, so the shared ladder covers the union
        q_primes = (np.inf, 3.0, 2.0, 1.0)
        report = validate_assumptions(spec, Grid1D(64), tol=1e-6, q_primes=q_primes)
        assert list(report.norm_estimates) == list(q_primes)
        for q in q_primes:
            assert report.norm_estimates[q] == norm_inf_qprime(spec, q)
        assert report.classification == classify(spec)

    def test_samples_each_level_once(self, green, monkeypatch):
        sampled = []
        original = kernel._gradk_matrix

        def counting(spec, grid):
            sampled.append(grid.n)
            return original(spec, grid)

        monkeypatch.setattr(kernel, "_gradk_matrix", counting)
        q_primes = (np.inf, 2.0, 1.0)
        for spec in (green, KernelSpec.power_law(0.5), KernelSpec.gaussian(0.1)):
            sampled.clear()
            validate_assumptions(spec, Grid1D(64), tol=1e-6, q_primes=q_primes)
            # the assemble on the grid alone: no ladder level needs a dense sample
            assert sampled == [64]
        km = assemble(green, Grid1D(16))
        table = KernelSpec.tabulated(km.k_centers, km.gradk_faces)
        sampled.clear()
        validate_assumptions(table, Grid1D(16), tol=1e-6, q_primes=q_primes)
        # the assemble, then the table as the ladder's only level
        assert sampled == [16, 16]


class TestTabulatedRoundTrip:
    def test_save_load_round_trip(self, green, tmp_path):
        grid = Grid1D(16)
        km = assemble(green, grid)
        path = tmp_path / "kernel.csv"
        save_tabulated_csv(path, grid, km)
        spec = load_tabulated_csv(path, grid)
        back = assemble(spec, grid)
        np.testing.assert_allclose(back.k_centers, km.k_centers, rtol=1e-15)
        np.testing.assert_allclose(back.gradk_faces, km.gradk_faces, rtol=1e-15)

    def test_load_rejects_wrong_grid(self, green, tmp_path):
        grid = Grid1D(16)
        path = tmp_path / "kernel.csv"
        save_tabulated_csv(path, grid, assemble(green, grid))
        with pytest.raises(KernelLoadError):
            load_tabulated_csv(path, Grid1D(32))

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(KernelLoadError):
            load_tabulated_csv(path, Grid1D(16))

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(KernelLoadError):
            load_tabulated_csv(tmp_path / "nope.csv", Grid1D(16))
