"""Numerical laboratory for aggregation-diffusion dynamics on [0,1].

Validates aggregation kernels, computes stability/instability thresholds for
constant states, evolves the nonlinear, perturbed and linearized dynamics with
a mass-conservative, second-order Strang-split scheme, and cross-checks
against a Duhamel-Picard mild solver.
"""

from .analysis import BasinProbe, RateFit, basin_probe, cross_validate, fit_rate, threshold_bisect
from .grid import Grid1D, SpectralBasis, divergence, gradient, lp_norm
from .kernel import (
    KernelMatrices,
    KernelNormEstimate,
    KernelSpec,
    apply,
    apply_grad,
    apply_grad_adjoint,
    assemble,
    classify,
    eval_grad_x,
    eval_kernel,
    hilbert_schmidt_grad_norm,
    l2_operator_norm,
    load_tabulated_csv,
    norm_inf_qprime,
    save_tabulated_csv,
    validate_assumptions,
)
from .solver import (
    MildSolveDiagnostics,
    Trajectory,
    auto_dt,
    evolve,
    existence_time,
    heat_semigroup,
    initial_field,
    picard_mild_solve,
    semigroup_probe,
    step_imex,
)
from .spectral import (
    LAMBDA_1,
    StabilityReport,
    assemble_linearized,
    bilinear_form,
    compute_interaction_coefficient,
    principal_eigenpair,
    stability_verdict,
)

__version__ = "0.1.0"
