import copy
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from aggrestab import kernel
from aggrestab import (
    Grid1D,
    KernelSpec,
    apply,
    apply_grad,
    apply_grad_adjoint,
    assemble,
    classify,
    compute_interaction_coefficient,
    eval_grad_x,
    eval_kernel,
    hilbert_schmidt_grad_norm,
    l2_operator_norm,
    load_tabulated_csv,
    lp_norm,
    norm_inf_qprime,
    save_tabulated_csv,
    validate_assumptions,
)
from aggrestab.cli import EXIT_BAD_KERNEL, EXIT_VALIDATION, main
from aggrestab.errors import (
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
        # K is about |scale| / a as a -> 0, refused once that overflows a double
        with pytest.raises(InvalidParameterError, match="beyond the largest double"):
            KernelSpec.green_series(1e-300, scale=1e10)
        KernelSpec.green_series(1e-300, scale=1e5)
        # green_closed_form is the a = 1 kernel: another a would go under its name
        with pytest.raises(InvalidParameterError, match="green_closed_form has a = 1, got a = 5"):
            KernelSpec("green_closed_form", a=5.0)
        assert KernelSpec("green_closed_form", a=1).a == 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda bad: KernelSpec.gaussian(bad),
            lambda bad: KernelSpec.power_law(bad, delta=0.01),
            lambda bad: KernelSpec.power_law(0.5, delta=bad),
            lambda bad: KernelSpec.green_closed_form(scale=bad),
        ],
        ids=["sigma", "alpha", "delta", "scale"],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, make, bad):
        with pytest.raises(InvalidParameterError):
            make(bad)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: KernelSpec.gaussian(1e160),  # sigma^2 overflows
            lambda: KernelSpec.gaussian(1e-160),  # (x - y) / sigma^2 overflows: inf * 0 in grad K
            lambda: KernelSpec.gaussian(1e-150, scale=1e10),
            lambda: KernelSpec.power_law(1e300, delta=0.5),  # delta^-alpha overflows
            lambda: KernelSpec.power_law(1e3, delta=0.1),
            lambda: KernelSpec.power_law(1.0, delta=1e-320),  # log((r + delta) / delta)
            lambda: KernelSpec.power_law(0.5, delta=1e-300, scale=1e160),
            lambda: KernelSpec.tabulated(np.full((8, 8), 1e300), np.zeros((9, 8)), scale=1e10),
            lambda: KernelSpec.power_law(0.5, scale=1e308),  # (2n)^alpha on the finest grid
            lambda: KernelSpec.green_closed_form(scale=1e308),  # the mixed norms reach 2
            lambda: KernelSpec.tabulated(np.zeros((8, 8)), np.ones((9, 8)), scale=1e308),
            lambda: KernelSpec.tabulated(np.zeros((8, 8)), np.full((9, 8), 1e308)),
            # K peaks at coth(s) / s = 1000.33 and h K 1 at 1000.005, both above 1 / a
            lambda: KernelSpec.green_series(1e-3, scale=1.7976931330646318e305),
        ],
        ids=["sigma-large", "sigma-small", "sigma-scaled", "alpha-huge", "alpha-large",
             "log-delta", "delta-scaled", "table-scaled", "peak-scaled", "norm-scaled",
             "table-norm-scaled", "table-norm", "green-values-scaled"],
    )
    def test_samples_beyond_a_double_are_refused(self, make):
        with pytest.raises(InvalidParameterError, match="beyond the largest double"):
            make()

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec.gaussian(1e-100),
            KernelSpec.gaussian(1e100),
            KernelSpec.gaussian(0.1, scale=1e300),
            KernelSpec.power_law(0.5, scale=-1e300),
            KernelSpec.power_law(1e3, delta=2.0),
            KernelSpec.power_law(3.0, delta=1e-100),
        ],
        ids=["sigma-small", "sigma-large", "scaled", "power-law-scaled", "wide", "steep"],
    )
    def test_samples_near_the_largest_double_are_kept(self, spec):
        grid = Grid1D(16)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            samples = (kernel._values_matrix(spec, grid), kernel._gradk_matrix(spec, grid))
        assert all(np.isfinite(s).all() for s in samples)

    def test_tabulated_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec.tabulated(np.zeros((8, 8)), np.zeros((8, 8)))
        with pytest.raises(InvalidParameterError):
            KernelSpec.tabulated(np.full((8, 8), np.nan), np.zeros((9, 8)))
        with pytest.raises(InvalidParameterError, match="needs value and gradient tables"):
            KernelSpec("tabulated")

    @pytest.mark.parametrize("evaluate", [eval_kernel, eval_grad_x])
    def test_a_table_has_no_off_grid_evaluation(self, evaluate):
        with pytest.raises(InvalidParameterError, match="no off-grid evaluation"):
            evaluate(KernelSpec.zero(8), 0.25, 0.5)


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
        # K is about 1/a, just below the largest double, and its modes k >= 1 tend to
        # those of -d^2/dx^2
        km = assemble(KernelSpec.green_series(6e-309), Grid1D(64))
        assert l2_operator_norm(km) == pytest.approx(1.0 / math.pi, rel=1e-3)
        assert compute_interaction_coefficient(km) == pytest.approx(1.0 / math.pi**2, rel=1e-3)

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
        out = apply(km128, np.full(grid128.n, 3.0))
        np.testing.assert_allclose(out, 3.0, rtol=1e-3)
        # ... and the drift of a constant vanishes identically
        v = apply_grad(km128, np.full(grid128.n, 3.0))
        assert np.abs(v).max() < 1e-13


class TestOperators:
    @pytest.mark.parametrize(
        "spec, structure",
        [
            (KernelSpec.green_closed_form(), kernel._Symbols),
            (KernelSpec.green_series(4.0), kernel._Symbols),
            (KernelSpec.gaussian(0.1), kernel._Convolution),
            (KernelSpec.power_law(0.5, delta=0.01), kernel._Convolution),
            (KernelSpec.zero(16), kernel._Table),
        ],
        ids=lambda value: getattr(value, "variant", None),
    )
    def test_builds_one_structure_per_variant(self, spec, structure):
        # the one structure of each variant, which computes nothing until it is read:
        # no symbols, FFT spectrum, offsets or table
        km = assemble(spec, Grid1D(16))
        assert type(km) is structure and isinstance(km, kernel.KernelMatrices)
        assert vars(km).keys() == {"spec", "grid"}

    @pytest.mark.parametrize("kind", ["green", "gaussian", "table"])
    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda km: pickle.loads(pickle.dumps(km))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_the_structure(self, kind, duplicate):
        # a copy or an unpickled kernel is built without arguments: it keeps its class,
        # before and after its action has built what it reads
        grid = Grid1D(16)
        spec = KernelSpec.green_series(4.0) if kind == "green" else KernelSpec.gaussian(0.1)
        if kind == "table":
            sample = assemble(spec, grid)
            spec = KernelSpec.tabulated(sample.k_centers, sample.gradk_faces)
        km = assemble(spec, grid)
        u = np.random.default_rng(0).standard_normal(grid.n)
        fresh = duplicate(km)
        expected = apply_grad(km, u).tobytes()
        for back in (fresh, duplicate(km)):
            assert type(back) is type(km)
            assert apply_grad(back, u).tobytes() == expected

    def test_grid_mismatch_rejected(self, km128):
        with pytest.raises(InvalidParameterError):
            apply(km128, np.ones(64))

    def test_mode_map_eigenvalues(self, green, km256, basis256):
        # K w_k = w_k / (a + (k pi)^2)
        for k in (1, 2, 5):
            w = basis256.mode(k)
            out = apply(km256, w)
            np.testing.assert_allclose(out, w / (1.0 + (k * math.pi) ** 2), atol=1e-4)

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
        for n in (16, 64):
            km = assemble(KernelSpec.zero(n), Grid1D(n))
            # +0.0: a grad_norm of -0 would be written to stability_report.csv as "-0"
            assert math.copysign(1.0, l2_operator_norm(km)) == 1.0
            assert l2_operator_norm(km) == 0.0
            assert hilbert_schmidt_grad_norm(km) == 0.0

    def test_hs_norm_dominates_operator_norm(self, km128):
        assert l2_operator_norm(km128) <= hilbert_schmidt_grad_norm(km128) + 1e-12

    @pytest.mark.parametrize(
        "spec", [KernelSpec.gaussian(0.1), KernelSpec.power_law(0.5, delta=0.01)],
        ids=["gaussian", "power_law"],
    )
    def test_operator_norm_of_a_large_scale_is_finite(self, spec):
        # the entries of A^T A at scale 1e160 overflow; A is scaled by a power of two first
        grid = Grid1D(16)
        unit = l2_operator_norm(assemble(spec, grid))
        for scale in (1e160, -1e300):
            large = l2_operator_norm(assemble(replace(spec, scale=scale), grid))
            assert large == pytest.approx(abs(scale) * unit, rel=1e-12)

    def test_hs_norm_of_a_large_scale_is_finite(self):
        # the squares of the 1e160 sample overflow, its norm does not
        grid = Grid1D(64)
        large = hilbert_schmidt_grad_norm(assemble(KernelSpec.green_closed_form(1e160), grid))
        unit = hilbert_schmidt_grad_norm(assemble(KernelSpec.green_closed_form(), grid))
        assert large == pytest.approx(1e160 * unit, rel=1e-14)


DRIFT_SPECS = [
    KernelSpec.green_closed_form(),
    KernelSpec.green_series(40.0, scale=-2.0),
    KernelSpec.gaussian(0.1),
    KernelSpec.power_law(0.5),
    KernelSpec.power_law(1.5, delta=0.01),
]


class TestDrift:
    """D = div(grad K(.)) by the kernel's actions against its dense form `drift`: the
    largest gap measured over five random draws is 1.5e-13 of the dense result's largest
    entry."""

    @pytest.mark.parametrize("twin", [False, True], ids=["structured", "table-twin"])
    @pytest.mark.parametrize(
        "spec",
        DRIFT_SPECS,
        ids=["green", "green40-scale-2", "gaussian", "power_law0.5", "power_law1.5"],
    )
    @pytest.mark.parametrize("n", [16, 33, 128])
    def test_actions_match_the_dense_form(self, spec, twin, n, rng):
        grid = Grid1D(n)
        km = assemble(spec, grid)
        if twin:
            km = assemble(KernelSpec.tabulated(km.k_centers, km.gradk_faces), grid)
        drift = km.drift
        projected = grid.basis.project(drift)[1:, 1:]
        pairs = [
            (km.symmetric_drift(v), 0.5 * (drift + drift.T) @ v)
            for v in (rng.standard_normal(n), rng.standard_normal((n, 3)))
        ]
        coef = rng.standard_normal((n - 1, 3))
        pairs.append((km.reduced_drift(coef), 0.5 * (projected + projected.T) @ coef))
        for got, expected in pairs:
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class TestGreenScan:
    """The Green gradient action from its separable factors, without the sample."""

    @pytest.mark.parametrize("n", [4, 5, 63, 512])
    @pytest.mark.parametrize("a", [1e-300, 1e-6, 1.0, 4.0, 1e4, 4e6, 1e8])
    def test_matches_dense_sample(self, a, n, rng):
        grid = Grid1D(n)
        inputs = [
            np.full(n, 3.0),
            rng.standard_normal(n),  # changes sign
            rng.random((n, 3)) - 0.25,
            rng.standard_normal((n, 2)) * [1e-200, 1e200],
        ]
        for scale in (1.0, -2.5):
            km = assemble(KernelSpec.green_series(a, scale), grid)
            actions = [apply_grad(km, u) for u in inputs]
            zeros = apply_grad(km, np.zeros((n, 2)))
            assert "gradk_faces" not in vars(km)
            assert zeros.shape == (n + 1, 2) and not zeros.any()
            gk = grid.h * km.gradk_faces
            for u, got in zip(inputs, actions):
                assert got.shape == (n + 1,) + u.shape[1:]
                assert (got[[0, -1]] == 0).all()
                # roundoff is measured against the sum of the terms' magnitudes
                bound = (np.abs(gk) @ np.abs(u)).max(axis=0)
                assert (np.abs(got - gk @ u).max(axis=0) <= 1e-13 * bound).all()

    @pytest.mark.parametrize("n", [4, 5, 257, 1024])
    @pytest.mark.parametrize("a", [1e-6, 1.0, 1e4])
    def test_apply_by_symbols_matches_dense_sample(self, a, n, rng):
        grid = Grid1D(n)
        km = assemble(KernelSpec.green_series(a, scale=-2.5), grid)
        inputs = [np.full(n, 3.0), rng.standard_normal(n), rng.standard_normal((n, 3))]
        actions = [apply(km, u) for u in inputs]
        assert "k_centers" not in vars(km)
        k = grid.h * km.k_centers
        for u, got in zip(inputs, actions):
            bound = (np.abs(k) @ np.abs(u)).max(axis=0)
            assert (np.abs(got - k @ u).max(axis=0) <= 1e-13 * bound).all()

    @pytest.mark.parametrize("n", [4, 5, 63, 512])
    @pytest.mark.parametrize("a", [1e-300, 1e-6, 1.0, 3.0, 1e4, 1e8])
    def test_adjoint_by_symbols_matches_dense_sample(self, a, n, rng):
        grid = Grid1D(n)
        faces = [rng.standard_normal(n + 1), rng.standard_normal((n + 1, 2)) * [1e-200, 1e200]]
        for scale in (1.0, -2.5):
            km = assemble(KernelSpec.green_series(a, scale), grid)
            actions = [apply_grad_adjoint(km, v) for v in faces]
            assert "gradk_faces" not in vars(km)
            gkt = grid.h * km.gradk_faces.T
            for v, got in zip(faces, actions):
                assert got.shape == (n,) + v.shape[1:]
                bound = (np.abs(gkt) @ np.abs(v)).max(axis=0)
                assert (np.abs(got - gkt @ v).max(axis=0) <= 1e-13 * bound).all()

    def test_adjoint_costs_no_sample_at_large_n(self):
        # the dense sample at n = 16384 (2.7e8 values) is over the storage limit
        km = assemble(KernelSpec.green_series(3.0, scale=-2.0), Grid1D(16384))
        out = apply_grad_adjoint(km, np.ones(16385))
        assert "gradk_faces" not in vars(km)
        assert out.shape == (16384,) and np.isfinite(out).all()

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("c", [0.0, 0.05, 5.0, 60.0, 1e3])
    def test_scan_matches_direct_sum(self, c, n, rng):
        # one block, several with a partial last one, one row per block, and
        # blocks whose weights underflow; the scan alone, and the scan and its
        # mirror image (the scan of v reversed, read backwards) from `both`
        pre, post, v = rng.random(n) + 0.5, rng.random(n) + 0.5, rng.standard_normal((n, 2))
        scan = kernel._DecayScan(c, n, pre=pre, post=post)
        r, k = np.arange(n)[:, None], np.arange(n)[None, :]
        weights = np.where(k <= r, np.exp(-c * np.abs(r - k)), 0.0)
        expected = post[:, None] * (weights @ (pre[:, None] * v))
        bound = 1e-13 * post[:, None] * (weights @ np.abs(pre[:, None] * v))
        for x, e, b in ((v, expected, bound), (v[:, 0], expected[:, 0], bound[:, 0])):
            for got in (scan(x), scan.both(x)[0], scan.both(x[::-1])[1][::-1]):
                assert (np.abs(got - e) <= b).all()

    @pytest.mark.parametrize("a, n, block", [(1.0, 64, 64), (1e5, 256, 51)], ids=["one", "blocked"])
    def test_both_scans_serve_vectors_batches_and_out(self, a, n, block, rng):
        # at a = 1e5, n = 256 the scan runs in blocks of 51 rows; a batch in C order, in F
        # order or reversed gives each column the lone vector's bytes
        km = assemble(KernelSpec.green_series(a), Grid1D(n))
        assert km.scan.block == block
        batch = rng.standard_normal((n, 3))
        gk = km.grid.h * km.gradk_faces
        for u in (batch, np.asfortranarray(batch), batch[::-1]):
            got = apply_grad(km, u)
            for col, vector in zip(got.T, u.T):
                assert col.tobytes() == apply_grad(km, vector.copy()).tobytes()
            twin = gk @ u
            assert np.abs(got - twin).max() <= 1e-12 * np.abs(twin).max()
        out = np.full((n + 1, 3), np.nan)
        assert apply_grad(km, batch, out=out) is out
        assert out.tobytes() == apply_grad(km, batch).tobytes()
        vector, face = batch[:, 0].copy(), np.full(n + 1, np.nan)
        assert apply_grad(km, vector, out=face) is face
        assert face.tobytes() == apply_grad(km, vector).tobytes()

    def test_action_costs_no_sample_at_large_n(self):
        # the dense gradient sample at n = 2^20 would hold 8.8 TB; the action
        # holds its output and two more arrays of n values (8.4 MB each)
        grid = Grid1D(2**20)
        km = assemble(KernelSpec.green_closed_form(), grid)
        u = np.ones(grid.n)
        apply_grad(km, u)  # builds the O(n) weights
        tracemalloc.start()
        try:
            v = apply_grad(km, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * grid.n
        assert km.scan.block == grid.n
        assert np.abs(v).max() < 1e-12


TOEPLITZ_SPECS = [
    KernelSpec.gaussian(0.1),
    KernelSpec.gaussian(0.01, scale=-2.5),
    KernelSpec.power_law(0.5),
    KernelSpec.power_law(1.5, delta=0.01),
]
TOEPLITZ_IDS = ["gaussian0.1", "gaussian0.01-scale-2.5", "power_law0.5", "power_law1.5-0.01"]


class TestToeplitz:
    """Gaussian and power-law actions by FFT, against their dense samples."""

    @pytest.mark.parametrize("n", [4, 5, 63, 512])
    @pytest.mark.parametrize("spec", TOEPLITZ_SPECS, ids=TOEPLITZ_IDS)
    def test_actions_match_dense_samples(self, spec, n, rng):
        grid = Grid1D(n)
        km = assemble(spec, grid)
        cells = [
            np.full(n, 3.0),
            rng.standard_normal(n),
            rng.random((n, 3)) - 0.25,
            rng.standard_normal((n, 2)) * [1e-200, 1e200],
        ]
        faces = [rng.standard_normal(n + 1), rng.standard_normal((n + 1, 2)) * [1e-200, 1e200]]
        cases = [(apply_grad, cells), (apply, cells), (apply_grad_adjoint, faces)]
        results = [[action(km, u) for u in inputs] for action, inputs in cases]
        assert "gradk_faces" not in vars(km) and "k_centers" not in vars(km)
        gk, k = grid.h * km.gradk_faces, grid.h * km.k_centers
        for matrix, (_, inputs), got in zip((gk, k, gk.T), cases, results):
            for u, out in zip(inputs, got):
                assert out.shape == (matrix.shape[0],) + u.shape[1:]
                # roundoff is measured against the sum of the terms' magnitudes
                bound = (np.abs(matrix) @ np.abs(u)).max(axis=0)
                assert (np.abs(out - matrix @ u).max(axis=0) <= 1e-13 * bound).all()

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.gaussian(0.1), KernelSpec.power_law(0.5), KernelSpec.power_law(1.5, delta=0.01)],
        ids=["gaussian0.1", "power_law0.5", "power_law1.5-0.01"],
    )
    def test_operator_norm_matches_svd(self, spec, n):
        km = assemble(spec, Grid1D(n))
        norm = l2_operator_norm(km)
        dense = float(np.linalg.svd(km.grid.h * km.gradk_faces, compute_uv=False)[0])
        assert norm == pytest.approx(dense, rel=1e-10)

    def test_table_operator_norm_matches_svd(self):
        grid = Grid1D(48)
        km = assemble(KernelSpec.power_law(1.5, delta=0.01), grid)
        table = assemble(KernelSpec.tabulated(km.k_centers, km.gradk_faces, scale=-3.0), grid)
        dense = float(np.linalg.svd(grid.h * table.gradk_faces, compute_uv=False)[0])
        assert l2_operator_norm(table) == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.green_closed_form(), KernelSpec.green_series(4.0, scale=-2.5), *TOEPLITZ_SPECS],
        ids=["green", "green_series-scale-2.5", *TOEPLITZ_IDS],
    )
    def test_validation_matches_the_table(self, spec):
        # the table's report reads the dense sample entry by entry
        grid = Grid1D(100)
        km = assemble(spec, grid)
        report = validate_assumptions(assemble(spec, grid), tol=1e-6)
        table = KernelSpec.tabulated(km.k_centers, km.gradk_faces)
        dense = validate_assumptions(assemble(table, grid), tol=1e-6)
        for name in ("neumann_residual", "mean_gradient_residual", "hilbert_schmidt_norm"):
            got, expected = getattr(report, name), getattr(dense, name)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-14), name
        assert (report.neumann_ok, report.mean_gradient_ok) == (dense.neumann_ok, dense.mean_gradient_ok)


class TestSingularity:
    def test_power_law_diagonal_raises(self):
        spec = KernelSpec.power_law(0.5)
        with pytest.raises(SingularityError):
            eval_grad_x(spec, 0.25, 0.25)

    def test_regularized_diagonal_is_finite(self):
        spec = KernelSpec.power_law(0.5, delta=0.01)
        assert np.isfinite(eval_grad_x(spec, 0.25, 0.25))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_regularized_power_law_closed_forms(self, alpha):
        # K = -int_0^r (s + delta)^(-alpha) ds, a logarithm at alpha = 1
        delta, x, y = 0.01, np.array([0.1, 0.5, 0.9, 0.3]), np.array([0.3, 0.5, 0.2, 0.3])
        spec = KernelSpec.power_law(alpha, delta=delta)
        r = np.abs(x - y)
        if alpha == 1.0:
            expected = -np.log((r + delta) / delta)
        else:
            expected = -((r + delta) ** (1 - alpha) - delta ** (1 - alpha)) / (1 - alpha)
        np.testing.assert_allclose(eval_kernel(spec, x, y), expected, rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            eval_grad_x(spec, x, y), -np.sign(x - y) * (r + delta) ** -alpha, rtol=1e-14, atol=0
        )


class TestNormEstimates:
    def test_invalid_exponent(self, green):
        with pytest.raises(InvalidParameterError):
            norm_inf_qprime(green, 0.5)
        with pytest.raises(InvalidParameterError):
            norm_inf_qprime(green, math.nan)

    @pytest.mark.parametrize("levels", [(), (128, 64), (64, 64)], ids=["none", "down", "repeat"])
    def test_levels_must_increase(self, green, levels):
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            norm_inf_qprime(green, 2.0, levels)

    def test_a_level_whose_samples_all_underflow_reads_zero(self):
        # (r + 1)^-1e6 is 0 at every offset of n = 64, so the level's peak is 0
        spec = KernelSpec.power_law(1e6, delta=1.0)
        assert kernel._level_norms(spec, 64, (1.0, 2.0, math.inf)) == [0.0, 0.0, 0.0]

    def test_a_non_finite_level_is_divergent(self):
        estimate = kernel._estimate(2.0, ((64, 1.0), (128, math.inf)))
        assert (estimate.value, estimate.verdict) == (math.inf, "divergent")

    def test_green_sup_norm_finite(self, green):
        est = norm_inf_qprime(green, np.inf, levels=(64, 128, 256))
        assert est.verdict == "finite"
        # |d/dx K| is bounded by its jump size ~ 1 on each side
        assert 1.5 < est.value < 2.5

    def test_gaussian_ladder_at_large_exponents(self):
        # |grad K|^q' (peak about 6) overflows past q' of about 400, so q' = 1000 read inf,
        # "divergent"; with each level's peak divided out the norm grows with q' to the sup norm
        q_primes = (300.0, 1000.0, 1e308, math.inf)
        estimates = kernel._norm_ladder(KernelSpec.gaussian(0.1), q_primes)
        assert [estimates[q].verdict for q in q_primes] == ["finite"] * 4
        values = [estimates[q].value for q in q_primes]
        assert values == sorted(values)
        assert values[1] == pytest.approx(12.0763, rel=1e-5)

    @pytest.mark.parametrize(
        "a, q_prime", [(100.0, 1e6), (1.0, 1e308), (1e6, 1e308)], ids=["a100", "a1", "a1e6"]
    )
    def test_green_levels_at_large_exponents(self, a, q_prime):
        # p^q' fell below the doubles, so these levels read 0 ("finite"), or NaN once
        # q' s h overflows (a = 1e6); each lies between q' = 1000's and the sup norm
        spec = KernelSpec.green_series(a)
        for n in (64, 512):
            q1000, large, sup = kernel._level_norms(spec, n, (1e3, q_prime, math.inf))
            assert 0 < q1000 <= large <= sup

    def test_table_level_at_a_large_exponent(self, tmp_path):
        # a table's level is lp_norm over its rows and its columns, which divides a peak out
        # where the powers leave the doubles, as the Gaussian's window sums do
        grid, spec = Grid1D(64), KernelSpec.gaussian(0.1)
        save_tabulated_csv(tmp_path / "k.csv", assemble(spec, grid))
        table = load_tabulated_csv(tmp_path / "k.csv", grid)
        for q in (1000.0, 1e308):
            dense, windows = (kernel._level_norms(s, 64, (q,))[0] for s in (table, spec))
            assert dense == pytest.approx(windows, rel=1e-12)

    def test_validate_kernel_at_a_large_exponent(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "kernel.variant = gaussian\nkernel.sigma = 0.1\ngrid.n = 64\nvalidate.q_prime = 1000\n"
        )
        # a Gaussian fails the Neumann check
        code = main(["validate-kernel", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "norm_inf_q1000.0_verdict=finite" in (tmp_path / "kernel_report.txt").read_text()
        assert capsys.readouterr().err == ""

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
            grid = Grid1D(n)
            gk = kernel._gradk_matrix(spec, grid)
            dense = [max(lp_norm(gk.T, q, grid)) + max(lp_norm(gk, q, grid)) for q in q_primes]
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

    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.gaussian(0.1), KernelSpec.power_law(0.5), KernelSpec.green_series(4.0)],
        ids=["gaussian", "power_law", "green"],
    )
    def test_norms_scale_with_the_kernel(self, spec):
        # the q' powers of a 1e200 gradient overflow; |scale| multiplies the norms after them
        q_primes = (*kernel.CLASSIFY_QPRIMES, 3.0)
        unit = kernel._norm_ladder(spec, q_primes)
        for scale in (1e200, -1e300):
            large = kernel._norm_ladder(replace(spec, scale=scale), q_primes)
            for q in q_primes:
                assert large[q].verdict == unit[q].verdict
                assert large[q].value == pytest.approx(abs(scale) * unit[q].value, rel=1e-12)

    def test_classification_green(self, green):
        cls = classify(green, levels=(64, 128, 256, 512))
        assert cls.category == "mildly_singular"
        assert cls.critical_q_prime == np.inf

    def test_classification_gaussian(self):
        cls = classify(KernelSpec.gaussian(0.2), levels=(64, 128, 256))
        assert cls.category == "mildly_singular"

    def test_finite_only_at_one_is_strongly_singular(self):
        estimates = {
            q: kernel.KernelNormEstimate(q, 1.0, (), "finite")
            if q == 1.0
            else kernel.KernelNormEstimate(q, math.inf, (), "divergent")
            for q in kernel.CLASSIFY_QPRIMES
        }
        cls = kernel._classify_estimates(estimates)
        assert (cls.category, cls.critical_q_prime) == ("strongly_singular", 1.0)

    @pytest.mark.xfail(strict=True, reason="the finest-pair slope reads q' = 1 and 1.1 as ambiguous")
    def test_power_law_past_its_critical_exponent_is_strongly_singular(self):
        # alpha = 0.95: q' = 1 is finite, and q' = 1.1 diverges, as alpha q' > 1
        cls = classify(KernelSpec.power_law(0.95))
        assert (cls.category, cls.critical_q_prime) == ("strongly_singular", 1.0)

    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.green_series(1e6), KernelSpec.power_law(1.5, delta=0.01)],
        ids=["green-1e6", "power_law-1.5-delta"],
    )
    def test_narrow_kernels_are_resolved(self, spec):
        # the ladder is extended by doubling until n l >= 32, where l is the peak's width
        cls = classify(spec)
        assert cls.category == "mildly_singular"
        assert cls.critical_q_prime == np.inf
        assert all(e.verdict == "finite" for e in cls.estimates.values())
        finest = cls.estimates[1.0].refinement_trend[-1][0]
        assert finest * kernel._length_scale(spec) >= 32
        # a given ladder is extended too
        est = norm_inf_qprime(spec, np.inf, levels=(64, 128))
        assert est.refinement_trend[-1][0] == finest

    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.green_closed_form(), KernelSpec.gaussian(0.1), KernelSpec.power_law(0.5)],
        ids=["green", "gaussian", "power_law"],
    )
    def test_resolved_ladders_are_not_extended(self, spec):
        assert classify(spec).estimates[1.0].refinement_trend[-1][0] == 2048
        est = norm_inf_qprime(spec, np.inf, levels=(64, 128, 256, 512))
        assert est.refinement_trend[-1][0] == 512

    def test_near_critical_power_law_is_undetermined(self):
        # |grad K| = r^-0.9 is L^q' for q' < 1/0.9; the ladder cannot settle q' = 1 or 1.1
        cls = classify(KernelSpec.power_law(0.9))
        assert cls.category == "undetermined"
        assert cls.critical_q_prime is None
        assert cls.estimates[1.0].verdict == cls.estimates[1.1].verdict == "ambiguous"


class TestValidation:
    def test_green_passes(self, green, grid128):
        report = validate_assumptions(assemble(green, grid128), tol=1e-6)
        assert report.passed
        assert report.neumann_residual < 1e-12
        assert report.mean_gradient_residual < 1e-12
        assert report.symmetry_residual < 1e-12

    def test_gaussian_fails_boundary_assumption(self, grid128):
        report = validate_assumptions(assemble(KernelSpec.gaussian(0.1), grid128), tol=1e-6)
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
        report = validate_assumptions(assemble(spec, Grid1D(64)), tol=1e-6, q_primes=q_primes)
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
            validate_assumptions(assemble(spec, Grid1D(64)), tol=1e-6, q_primes=q_primes)
            # neither the residuals on the grid nor a ladder level need a dense sample
            assert sampled == []
        km = assemble(green, Grid1D(16))
        table = KernelSpec.tabulated(km.k_centers, km.gradk_faces)
        sampled.clear()
        validate_assumptions(assemble(table, Grid1D(16)), tol=1e-6, q_primes=q_primes)
        # the assemble, then the table as the ladder's only level
        assert sampled == [16, 16]

    def test_symmetry_residual_samples_only_a_table(self, green, monkeypatch):
        sampled = []
        original = kernel._values_matrix
        monkeypatch.setattr(kernel, "_values_matrix", lambda *a: sampled.append(a) or original(*a))
        for spec in (green, KernelSpec.gaussian(0.1), KernelSpec.power_law(0.5)):
            report = validate_assumptions(assemble(spec, Grid1D(64)), tol=1e-6)
            assert report.symmetry_residual == 0.0
        assert sampled == []
        values = np.zeros((16, 16))
        values[0, 1] = 1.0
        table = KernelSpec.tabulated(values, np.zeros((17, 16)), scale=2.0)
        # the residual of the scaled table
        assert validate_assumptions(assemble(table, Grid1D(16)), tol=1e-6).symmetry_residual == 2.0
        assert len(sampled) == 1


class TestTabulatedRoundTrip:
    def test_save_load_round_trip(self, green, tmp_path):
        grid = Grid1D(16)
        km = assemble(green, grid)
        path = tmp_path / "kernel.csv"
        save_tabulated_csv(path, km)
        spec = load_tabulated_csv(path, grid)
        back = assemble(spec, grid)
        np.testing.assert_allclose(back.k_centers, km.k_centers, rtol=1e-15)
        np.testing.assert_allclose(back.gradk_faces, km.gradk_faces, rtol=1e-15)

    @pytest.mark.parametrize("build", [assemble, kernel.KernelMatrices], ids=["assemble", "init"])
    def test_table_on_another_grid_refused(self, green, build):
        km = assemble(green, Grid1D(64))
        table = KernelSpec.tabulated(km.k_centers, km.gradk_faces)
        message = "a table of n = 64 does not match grid n = 32"
        with pytest.raises(InvalidParameterError, match=message):
            build(table, Grid1D(32))

    def test_load_rejects_wrong_grid(self, green, tmp_path):
        grid = Grid1D(16)
        path = tmp_path / "kernel.csv"
        save_tabulated_csv(path, assemble(green, grid))
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

    # each edit of a saved 16-cell table's rows (rows[0] the header, rows[1] the k of
    # (x_0, y_0), rows[-1] the gradk of (x = 1, y_15)), and the error it reads as
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: rows + ["0.03125,0.03125,1"], "malformed row"),
            (lambda rows: rows + ["0.03125,0.03125,1,,"], "malformed row"),
            (lambda rows: rows[:1] + ["0.03125,0.03125,abc,"] + rows[2:], "could not convert"),
            (lambda rows: rows + ["0.0,0.03125,1,"], "x=0.0 is not a cell center of n=16"),
            (lambda rows: rows + ["0.03125,0.03125,,1"], "x=0.03125 is not a face of n=16"),
            (lambda rows: rows + ["0.03125,0.03125,,"], "neither k nor gradk"),
            (lambda rows: rows + ["0.03125,0.03125,1.0,999"], "both k and gradk"),
            (lambda rows: rows[:-1], "incomplete kernel table for n=16"),
            (lambda rows: rows + ["0.03125,0.03125,123,"], "repeated entry"),
            (lambda rows: rows + [rows[-1]], "repeated entry"),
        ],
        ids=[
            "3-fields",
            "5-fields",
            "non-numeric",
            "x-off-centres",
            "x-off-faces",
            "neither",
            "both",
            "incomplete",
            "repeated-k",
            "repeated-gradk",
        ],
    )
    def test_load_rejects_malformed_table(self, green, tmp_path, capsys, edit, message):
        path = tmp_path / "kernel.csv"
        save_tabulated_csv(path, assemble(green, Grid1D(16)))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(KernelLoadError, match=message):
            load_tabulated_csv(path, Grid1D(16))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"kernel.variant = tabulated\nkernel.csv = {path}\ngrid.n = 16\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_BAD_KERNEL
        assert message in capsys.readouterr().err
