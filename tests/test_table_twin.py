"""Each structured kernel path against its dense table twin.

The twin of a kernel on a grid is `KernelSpec.tabulated(km.k_centers, km.gradk_faces)`:
its own samples, acted on by dense products. The Green symbols and scans and the
Gaussian and power-law Toeplitz FFTs must agree with it to 1e-12 of the twin's
largest magnitude: of its output for an action, of its value for a norm or A, and
of h sum |apply_grad u| |v| for the adjoint identity.
"""

import numpy as np
import pytest

from aggrestab import (
    Grid1D,
    KernelSpec,
    apply,
    apply_grad,
    apply_grad_adjoint,
    assemble,
    assemble_linearized,
    compute_interaction_coefficient,
    hilbert_schmidt_grad_norm,
    l2_operator_norm,
    principal_eigenpair,
)
from aggrestab.errors import ConvergenceError

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402 (after the skip)
from hypothesis import strategies as st  # noqa: E402

TOLERANCE = 1e-12

GREEN = st.builds(
    lambda exponent, scale: KernelSpec.green_series(10.0**exponent, scale=scale),
    st.floats(-3.0, 6.0),
    st.sampled_from([1.0, -2.0]),
)
GAUSSIAN = st.builds(KernelSpec.gaussian, st.floats(0.01, 0.3), scale=st.sampled_from([1.0, -1.0]))
POWER_LAW = st.builds(
    KernelSpec.power_law,
    st.floats(0.0, 0.95, exclude_min=True),
    delta=st.sampled_from([0.0, 0.01]),
)


def _twin(km):
    return assemble(KernelSpec.tabulated(km.k_centers, km.gradk_faces), km.grid)


def _close(got, twin, scale=None):
    scale = np.abs(twin).max() if scale is None else scale
    assert np.abs(got - twin).max() <= TOLERANCE * scale


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(spec=st.one_of(GREEN, GAUSSIAN, POWER_LAW), n=st.integers(8, 256))
# the largest gaps measured: A of the widest Green kernel, the narrowest Gaussian's actions
@example(spec=KernelSpec.green_series(1e-3), n=9)
@example(spec=KernelSpec.gaussian(0.01), n=9)
def test_structured_paths_match_the_table_twin(spec, n):
    km = assemble(spec, Grid1D(n))
    twin = _twin(km)
    rng = np.random.default_rng(n)
    cells, faces = rng.standard_normal((n, 2)), rng.standard_normal((n + 1, 2))
    for action, inputs in ((apply, cells), (apply_grad, cells), (apply_grad_adjoint, faces)):
        _close(action(km, inputs), action(twin, inputs))
    u, v, h = cells[:, 0], faces[:, 0], km.grid.h
    terms = h * (np.abs(apply_grad(twin, u)) @ np.abs(v))
    _close(h * (apply_grad(km, u) @ v), h * (u @ apply_grad_adjoint(km, v)), terms)
    _close(h * (apply_grad(km, u) @ v), h * (apply_grad(twin, u) @ v), terms)
    for quantity in (compute_interaction_coefficient, hilbert_schmidt_grad_norm, l2_operator_norm):
        _close(quantity(km), quantity(twin))


@pytest.mark.xfail(raises=ConvergenceError, strict=True, reason="the block eigensolver stalls")
def test_repulsive_gaussian_at_a_huge_mass_matches_its_twin():
    # a repulsive truncated Gaussian at M = 1e6: the table's eigh reads about -8.3458e6
    km = assemble(KernelSpec.gaussian(0.1, scale=-1.0), Grid1D(128))
    mass = 1e6
    expected = principal_eigenpair(assemble_linearized(_twin(km)), mass)[0]
    got = principal_eigenpair(assemble_linearized(km), mass)[0]
    assert got == pytest.approx(expected, rel=1e-9)
