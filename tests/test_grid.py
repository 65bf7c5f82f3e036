import math

import numpy as np
import pytest

from aggrestab import Grid1D, SpectralBasis, divergence, gradient, lp_norm
from aggrestab.errors import InvalidParameterError
from aggrestab.grid import check_real, check_size


class TestGrid1D:
    def test_geometry(self):
        grid = Grid1D(8)
        assert grid.h == 0.125
        np.testing.assert_allclose(grid.centers, (np.arange(8) + 0.5) / 8)
        np.testing.assert_allclose(grid.faces, np.arange(9) / 8)

    def test_rejects_tiny_grids(self):
        with pytest.raises(InvalidParameterError):
            Grid1D(3)

    @pytest.mark.parametrize("n", [64.5, 64.0, "64", None])
    def test_rejects_non_integer_count(self, n):
        with pytest.raises(InvalidParameterError):
            Grid1D(n)

    @pytest.mark.parametrize("n", [10**8 + 1, 10**12])
    def test_rejects_grids_no_array_may_hold(self, n):
        # refused before any array of n values is allocated
        with pytest.raises(InvalidParameterError, match="the limit is 1e\\+08"):
            Grid1D(n)

    def test_accepts_numpy_integer_count(self):
        grid = Grid1D(np.int64(64))
        assert type(grid.n) is int and grid == Grid1D(64)
        assert grid.centers.shape == (64,) and grid.faces.shape == (65,)


class TestCheckSize:
    @pytest.mark.parametrize(
        "count, shown",
        [(10**8, None), (0, None), (10**8 + 1, "1e+08"), (6.4e8, "6.4e+08"), (math.nan, "nan")],
    )
    def test_boundaries(self, count, shown):
        if shown is None:
            assert check_size(count, "an array") is count
        else:
            with pytest.raises(InvalidParameterError) as info:
                check_size(count, "an array")
            assert str(info.value) == f"an array holds {shown} values; the limit is 1e+08"


class TestCheckReal:
    @pytest.mark.parametrize(
        "value, low, strict, finite, accepted",
        [
            (0.0, 0, False, True, True),  # low itself, not strict
            (0.0, 0, True, True, False),  # low itself, strict
            (-0.0, 0, False, True, True),  # -0.0 == 0
            (-0.0, 0, True, True, False),
            (1.0, 1, False, False, True),
            (1.0, 1, True, False, False),
            (5e-324, 0, True, True, True),
            (-5e-324, 0, False, True, False),
            (math.nan, 0, False, True, False),
            (math.nan, 0, False, False, False),
            (math.nan, -math.inf, True, False, False),
            (math.inf, 0, False, True, False),
            (math.inf, 0, True, False, True),
            (math.inf, 1, False, False, True),
            (-math.inf, 0, False, False, False),
            (-math.inf, -math.inf, True, False, False),
            (-math.inf, -math.inf, False, True, True),
            # what is not a real number is refused; bool is an integer, as to check_count
            ("1", 0, False, True, False),
            (None, 0, False, True, False),
            (1j, 0, False, False, False),
            (True, 0, True, True, True),
            (np.float32(0.5), 0, True, True, True),
        ],
    )
    def test_boundaries(self, value, low, strict, finite, accepted):
        if accepted:
            assert check_real(value, "x", low, strict, finite) is value
        else:
            with pytest.raises(InvalidParameterError, match="x must be"):
                check_real(value, "x", low, strict, finite)

    @pytest.mark.parametrize(
        "low, strict, finite, span",
        [
            (0, True, True, "positive and finite"),
            (0, False, True, "nonnegative and finite"),
            (0, True, False, "positive"),
            (1, False, False, r"in \[1, inf\]"),
            (-math.inf, True, True, r"in \(-inf, inf\)"),
        ],
    )
    def test_message_names_the_range(self, low, strict, finite, span):
        with pytest.raises(InvalidParameterError, match=f"^x must be {span}, got nan$"):
            check_real(math.nan, "x", low, strict, finite)


class TestNorms:
    def test_constant_lp_norms(self):
        grid = Grid1D(64)
        f = np.full(64, 2.0)
        # face vector equal to 2 on n of the n+1 faces: total weight n h = 1
        g = np.full(65, 2.0)
        g[0] = 0.0
        for p in (1, 2, 4, np.inf):
            assert lp_norm(f, p, grid) == pytest.approx(2.0, rel=1e-14)
            assert lp_norm(g, p, grid) == pytest.approx(2.0, rel=1e-14)

    def test_holder_monotone_on_probability_density(self, rng):
        grid = Grid1D(128)
        v = rng.random(128) + 0.1
        f = v / (grid.h * v.sum())
        norms = [lp_norm(f, p, grid) for p in (1, 2, 4, np.inf)]
        assert norms == sorted(norms)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidParameterError):
            lp_norm(np.ones(8), 0.5, Grid1D(8))

    @pytest.mark.parametrize("p", [1, 2, 3, np.inf])
    @pytest.mark.parametrize("rows", [200, 201], ids=["cells", "faces"])
    def test_columns_match_lone_vectors(self, rng, p, rows):
        # C-ordered, so each column is strided; each norm equals the lone column's exactly,
        # as the one-vector formula gives it: a pairwise sum and a scalar power (an array
        # power, or sqrt at p = 2, moves the last digit of 0.1-5% of these norms)
        grid = Grid1D(200)
        v = rng.standard_normal((rows, 2000))
        norms = lp_norm(v, p, grid)
        assert norms.shape == (2000,)
        assert norms.tolist() == [lp_norm(column, p, grid) for column in v.T]
        if np.isinf(p):
            lone = [np.abs(column).max() for column in v.T]
        else:
            lone = [(grid.h * np.sum(np.abs(column) ** p)) ** (1.0 / p) for column in v.T]
        assert norms.tolist() == lone
        assert isinstance(lp_norm(v[:, 0], p, grid), float)

    @pytest.mark.parametrize(
        "value, p", [(3.0, 700), (0.01, 200), (3.0, 1e308), (0.01, 1e308), (1e308, 1)]
    )
    def test_large_exponents_keep_the_value(self, value, p):
        # 3^700 overflows and 0.01^200 falls below the doubles, and so does the sum of 64
        # values of 1e308; with the peak divided out, the norm of a constant is that constant
        assert lp_norm(np.full(64, value), p, Grid1D(64)) == pytest.approx(value, rel=1e-12)

    def test_large_exponents_rescale_only_their_columns(self):
        grid = Grid1D(64)
        ordinary = np.linspace(0.5, 1.5, 64)
        v = np.column_stack([np.full(64, 3.0), np.full(64, 0.01), ordinary, np.zeros(64)])
        norms = lp_norm(v, 700, grid)
        assert norms[:2].tolist() == pytest.approx([3.0, 0.01], rel=1e-12)
        # a sum that stays a normal double is taken as before, digit for digit
        lone = (grid.h * np.sum(ordinary**700)) ** (1 / 700)
        assert norms[2] == lp_norm(ordinary, 700, grid) == lone
        assert norms[3] == 0.0
        # at p = 1 only a sum that overflowed is redone
        v[:, 0] = 1e308
        norms = lp_norm(v, 1, grid)
        assert norms[0] == pytest.approx(1e308, rel=1e-12)
        assert norms[1:].tolist() == [grid.h * np.sum(column) for column in v[:, 1:].T]


class TestCalculus:
    def test_gradient_zero_flux_boundaries(self, rng):
        grid = Grid1D(64)
        g = gradient(rng.standard_normal(64), grid)
        assert g.shape == (65,)
        assert g[0] == 0.0 and g[-1] == 0.0

    def test_divergence_of_gradient_conserves_mass(self, rng):
        grid = Grid1D(64)
        f = rng.standard_normal(64)
        lap = divergence(gradient(f, grid), grid)
        assert abs(grid.h * float(lap.sum())) < 1e-12

    def test_summation_by_parts(self, rng):
        # <div g, f> = -<g, grad f> for zero-flux face vectors
        grid = Grid1D(64)
        f = rng.standard_normal(64)
        g = np.zeros(65)
        g[1:-1] = rng.standard_normal(63)
        lhs = grid.h * float(divergence(g, grid) @ f)
        rhs = -grid.h * float(g @ gradient(f, grid))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        # the same identity column by column for matrices acting along axis 0
        fm = rng.standard_normal((64, 64))
        gm = np.zeros((65, 64))
        gm[1:-1] = rng.standard_normal((63, 64))
        lhs = grid.h * np.sum(divergence(gm, grid) * fm, axis=0)
        rhs = -grid.h * np.sum(gm * gradient(fm, grid), axis=0)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_summation_by_parts_reads_boundary_faces_as_zero_flux(self, rng):
        # -divergence is the adjoint of gradient for every face array: the Neumann
        # condition ignores whatever the two boundary faces hold
        grid = Grid1D(64)
        fm = rng.standard_normal((64, 3))
        gm = rng.standard_normal((65, 3))
        assert np.all(gm[[0, -1]] != 0.0)
        lhs = grid.h * np.sum(divergence(gm, grid) * fm, axis=0)
        rhs = -grid.h * np.sum(gm * gradient(fm, grid), axis=0)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(divergence(gm[:, 0], grid), divergence(gm, grid)[:, 0])


class TestSpectralBasis:
    def test_discrete_orthonormality(self):
        basis = SpectralBasis(Grid1D(32))
        modes = np.column_stack([basis.mode(k) for k in range(32)])
        gram = basis.grid.h * modes.T @ modes
        np.testing.assert_allclose(gram, np.eye(32), atol=1e-12)

    def test_round_trip(self, rng):
        grid = Grid1D(64)
        basis = SpectralBasis(grid)
        f = rng.standard_normal(64)
        back = basis.from_spectral(basis.to_spectral(f))
        np.testing.assert_allclose(back, f, atol=1e-12)

    def test_eigenvalues(self):
        grid = Grid1D(256)
        basis = SpectralBasis(grid)
        # discrete eigenvalues approach the continuum ones (k pi)^2 from below
        assert basis.eigenvalues_discrete[1] < math.pi**2
        assert basis.eigenvalues_discrete[1] == pytest.approx(math.pi**2, rel=1e-4)

    def test_modes_diagonalize_discrete_laplacian(self):
        grid = Grid1D(32)
        basis = SpectralBasis(grid)
        for k in (1, 3, 7):
            w = basis.mode(k)
            lap = divergence(gradient(w, grid), grid)
            np.testing.assert_allclose(
                lap,
                -basis.eigenvalues_discrete[k] * w,
                atol=1e-9 * basis.eigenvalues_discrete[k],
            )

    def test_mode_index_bounds(self):
        basis = SpectralBasis(Grid1D(8))
        with pytest.raises(InvalidParameterError):
            basis.mode(8)


def _dense_modes(grid):
    """modes[:, k] = w_k at cell centers, built as one n x n cosine matrix."""
    k = np.arange(grid.n)
    modes = np.cos(np.outer(grid.centers, k * np.pi))
    modes[:, 1:] *= np.sqrt(2.0)
    return modes


def _laid_out(a, layout):
    """The values of a in C order, in F order (the transpose of a C copy of a.T), or in a
    view with negative strides."""
    if layout == "F":
        laid = a.T.copy().T
        assert laid.flags.f_contiguous and not laid.flags.c_contiguous
        return laid
    if layout == "reversed":
        laid = a[::-1].copy()[::-1]
        assert laid.strides[0] < 0
        return laid
    return a


class TestCosineTransform:
    @pytest.mark.parametrize("n", [4, 37, 100, 256])
    def test_modes_equal_dense_columns(self, n):
        grid = Grid1D(n)
        basis, modes = SpectralBasis(grid), _dense_modes(grid)
        for k in range(n):
            assert np.array_equal(basis.mode(k), modes[:, k])

    # picard_mild_solve hands from_spectral the F-ordered transpose of a time-major array
    @pytest.mark.parametrize("n", [5, 37, 64, 255])
    @pytest.mark.parametrize(
        "columns, layout",
        [((), "C"), ((5,), "C"), ((5,), "F"), ((), "reversed"), ((5,), "reversed")],
        ids=["1d", "2d", "2d-F", "1d-reversed", "2d-reversed"],
    )
    def test_transforms_match_dense_cosine_sums(self, n, columns, layout, rng):
        grid = Grid1D(n)
        basis, modes = SpectralBasis(grid), _dense_modes(grid)
        u = _laid_out(rng.standard_normal((n, *columns)), layout)
        c = basis.to_spectral(u)
        assert c.shape == u.shape
        np.testing.assert_allclose(c, grid.h * modes.T @ u, rtol=0, atol=1e-13)
        c = _laid_out(c, layout)
        np.testing.assert_allclose(basis.from_spectral(c), modes @ c, rtol=0, atol=1e-12)
        np.testing.assert_allclose(basis.from_spectral(c), u, rtol=0, atol=1e-12)
        # a batch gives each column the digits of the lone vector's transform, whose samples
        # are gathered where a batch's are copied by halves
        for transform, batch in ((basis.to_spectral, u), (basis.from_spectral, c)):
            columns = transform(batch).reshape(n, -1).T
            lone = [transform(np.ascontiguousarray(column)) for column in batch.reshape(n, -1).T]
            assert [column.tobytes() for column in columns] == [v.tobytes() for v in lone]

    # evolve builds its states from the F-ordered transpose of the first k rows of a block of
    # 2^14 coefficient values, then checks their row sums and minima: each must carry the
    # digits of the lone state's transform and reductions
    @pytest.mark.parametrize("n", [4, 5, 64, 255, 256, 512])
    def test_a_block_of_rows_reads_as_its_lone_rows(self, n, rng):
        basis = SpectralBasis(Grid1D(n))
        block = rng.standard_normal((2**14 // n, n))
        for k in sorted({1, 2, len(block) // 2 + 1, len(block)}):
            cells = basis.from_spectral(block[:k].T).T
            lone = np.array([basis.from_spectral(row) for row in block[:k]])
            assert cells.tobytes() == lone.tobytes()
            assert cells.sum(axis=1).tobytes() == np.array([v.sum() for v in lone]).tobytes()
            assert cells.min(axis=1).tobytes() == np.array([v.min() for v in lone]).tobytes()

    @pytest.mark.parametrize("n", [33, 48])
    def test_projection_matches_dense_cosine_sums(self, n, rng):
        grid = Grid1D(n)
        basis, modes = SpectralBasis(grid), _dense_modes(grid)
        a = rng.standard_normal((n, n))
        np.testing.assert_allclose(
            basis.project(a), grid.h * modes.T @ a @ modes, rtol=0, atol=1e-12
        )

    def test_transform_diagonalizes_discrete_laplacian(self):
        grid = Grid1D(256)
        basis = SpectralBasis(grid)
        laplacian = -divergence(gradient(np.eye(grid.n), grid), grid)
        lam = basis.eigenvalues_discrete
        np.testing.assert_allclose(
            basis.project(laplacian)[1:, 1:], np.diag(lam[1:]), rtol=0, atol=1e-12 * lam.max()
        )

    def test_shape_mismatch_rejected(self):
        basis = SpectralBasis(Grid1D(16))
        with pytest.raises(InvalidParameterError):
            basis.to_spectral(np.zeros(15))
        with pytest.raises(InvalidParameterError):
            basis.from_spectral(np.zeros((17, 2)))
        with pytest.raises(InvalidParameterError):
            basis.project(np.zeros((15, 16)))
        with pytest.raises(InvalidParameterError):
            basis.project(np.zeros((16, 15)))
