"""The benchmark's span tracer against the package: every name it traces exists.

`perfbench/tracing.py` looks each traced function up by name, so a renamed or
removed function breaks the traced benchmark. It is read here from its file,
unchanged. A call that reached a kernel action other than through the traced
module functions would drop out of the benchmark's per-layer counts.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from aggrestab import Grid1D, KernelSpec, analysis, kernel, spectral

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in every aggrestab module, with the object it names."""
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "aggrestab"
        for key, value in vars(module).items()
    }


def test_traced_names_resolve(tracing):
    for mod, attr in tracing.FUNCTIONS.values():
        assert callable(getattr(importlib.import_module(f"aggrestab.{mod}"), attr))
    for mod, cls, attr in tracing.METHODS.values():
        assert attr in vars(getattr(importlib.import_module(f"aggrestab.{mod}"), cls))


def test_tracer_wraps_and_restores(tracing):
    classes = [
        (getattr(importlib.import_module(f"aggrestab.{mod}"), name), attr)
        for mod, name, attr in tracing.METHODS.values()
    ]
    methods = [(cls, attr, vars(cls)[attr]) for cls, attr in classes]
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert spectral.stability_verdict is not before[("aggrestab.spectral", "stability_verdict")]
        km = kernel.assemble(KernelSpec.green_closed_form(), Grid1D(64))
        report = spectral.stability_verdict(km, 3.0)
    assert report.verdict == spectral.VERDICT_STABLE
    spans = {span[0]: span for span in tracer.spans}
    assert set(spans) == {
        "spectral.stability_verdict",
        "kernel.assemble",
        "spectral.assemble_linearized",
        "kernel.l2_operator_norm",
        "spectral.principal_eigenpair",
        "kernel.apply_grad",
        "grid.SpectralBasis",
    }
    # every span found its grid, through the kernel for assemble_linearized
    assert all(span[4] == 64 for span in tracer.spans)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert all(vars(cls)[attr] is raw for cls, attr, raw in methods)


@pytest.mark.parametrize("kind", ["gaussian", "table-twin", "green"])
def test_tracer_counts_each_span(tracing, kind):
    # a Gaussian's block solve and Gram norm, its table twin's dense solve, and a Green
    # eigenpair's D on its mode reach the kernel actions through the traced module
    # functions, as many times as they always did
    spec = KernelSpec.green_closed_form() if kind == "green" else KernelSpec.gaussian(0.1)
    if kind == "table-twin":
        sample = kernel.assemble(spec, Grid1D(64))
        spec = KernelSpec.tabulated(sample.k_centers, sample.gradk_faces)
    verdict = {
        "spectral.stability_verdict": 1,
        "kernel.assemble": 1,
        "spectral.assemble_linearized": 1,
        "spectral.principal_eigenpair": 1,
        "kernel.l2_operator_norm": 1,
        "grid.SpectralBasis": 1,
        "kernel.apply_grad": {"gaussian": 9, "table-twin": 4, "green": 1}[kind],
    }
    validate = {"kernel.assemble": 1, "kernel.validate_assumptions": 1, "kernel.apply_grad": 1}
    runs = [
        (lambda km: spectral.stability_verdict(km, 3.0), verdict),
        (lambda km: kernel.validate_assumptions(km, 1e-6), validate),
    ]
    if kind == "green":  # one family, and one action per eigenpair
        bisect = {
            "analysis.threshold_bisect": 1,
            "kernel.assemble": 1,
            "spectral.assemble_linearized": 1,
            "grid.SpectralBasis": 1,
            "spectral.principal_eigenpair": 13,
            "kernel.apply_grad": 13,
        }
        runs.append((lambda km: analysis.threshold_bisect(km, 5.0, 20.0, 0.01), bisect))
    for run, expected in runs:
        tracer = tracing.Tracer()
        with tracer.installed():
            run(kernel.assemble(spec, Grid1D(64)))
        assert Counter(span[0] for span in tracer.spans) == expected
