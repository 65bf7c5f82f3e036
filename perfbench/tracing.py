"""Span tracing around calls into aggrestab's public functions.

`Tracer.installed()` replaces each traced function in every aggrestab module
namespace that binds it (modules import by name, so `solver.apply_grad` and
`spectral.assemble` are separate bindings of `kernel.apply_grad` and
`kernel.assemble`), and restores the originals on exit. Nothing under `src/`
changes. Spans are kept in memory as
(name, start, end, parent index, grid size n, extra) and written out by the
caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, function); the span named "cli" is cli.main
FUNCTIONS = {
    "kernel.apply_grad": ("kernel", "apply_grad"),
    "kernel.assemble": ("kernel", "assemble"),
    "kernel.l2_operator_norm": ("kernel", "l2_operator_norm"),
    "kernel.norm_inf_qprime": ("kernel", "norm_inf_qprime"),
    "kernel.classify": ("kernel", "classify"),
    "kernel.validate_assumptions": ("kernel", "validate_assumptions"),
    "solver.step_imex": ("solver", "step_imex"),
    "solver.evolve": ("solver", "evolve"),
    "solver.picard_mild_solve": ("solver", "picard_mild_solve"),
    "spectral.principal_eigenpair": ("spectral", "principal_eigenpair"),
    "spectral.assemble_linearized": ("spectral", "assemble_linearized"),
    "spectral.stability_verdict": ("spectral", "stability_verdict"),
    "analysis.threshold_bisect": ("analysis", "threshold_bisect"),
    "cli": ("cli", "main"),
}
# span name -> (module, class, method); classes are traced through one method
METHODS = {
    "grid.SpectralBasis": ("grid", "SpectralBasis", "__init__"),
    "solver.Trajectory": ("solver", "Trajectory", "from_states"),
}


def _grid_n(args, kwargs):
    """Grid size from the first argument that is, or carries, a grid."""
    for arg in (*args, *kwargs.values()):
        for obj in (arg, getattr(arg, "grid", None)):
            n = getattr(obj, "n", None)
            if isinstance(n, int):
                return n
    return None


def _extra(name, result):
    if name == "solver.picard_mild_solve":
        return len(result.picard_distances)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, _grid_n(args, kwargs), None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _extra(name, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace every binding of the traced functions while the block runs."""
        owners = {mod: importlib.import_module(f"aggrestab.{mod}")
                  for mod, *_ in (*FUNCTIONS.values(), *METHODS.values())}
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "aggrestab"]
        restore = []
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(owners[mod], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(owners[mod], cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapper = self._wrap(name, raw)
            restore.append((cls, attr, raw))
            setattr(cls, attr, wrapper)
        try:
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)


def layer_stats(spans, first: int = 0) -> dict:
    """Per-layer counts and self times of spans[first:] as `<span>.<stat>` keys.

    A span's self time is its duration minus that of its direct children;
    calls are single-threaded, so children never overlap.
    """
    child = defaultdict(float)
    for name, start, end, parent, _n, _extra_value in spans[first:]:
        if parent is not None:
            child[parent] += end - start
    stats = defaultdict(float)
    for index in range(first, len(spans)):
        name, start, end, parent, n, extra = spans[index]
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += end - start - child[index]
        if name == "kernel.apply_grad":
            stats["kernel.apply_grad.flops_computed"] += 2 * n * (n + 1)
        elif name == "kernel.assemble":
            stats["kernel.assemble.bytes_computed"] += 8 * (n * n + n * (n + 1))
        elif name == "solver.picard_mild_solve":
            stats["solver.picard_mild_solve.sweeps"] += extra
        elif name == "spectral.principal_eigenpair":
            while parent is not None and spans[parent][0] != "analysis.threshold_bisect":
                parent = spans[parent][3]
            if parent is not None:
                stats["analysis.threshold_bisect.evals"] += 1
    return dict(stats)
