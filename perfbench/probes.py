"""Speed probes: fixed NumPy/SciPy computations that track the machine's speed.

On a shared VM the effective CPU speed drifts by up to 1.8x, within seconds
and across minutes, with no CPU steal to show for it. Interpreter-bound code
drifts more than memory-bound code. Each workload therefore has a probe that
mimics its dominant work without calling aggrestab, so a change to the
program never changes the probe. The worker runs the probe before and after
each task, and reports task times scaled by REFERENCE_S / probe time: seconds
at the probe's reference speed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solveh_banded

# probe time at the reference speed: the median probe time measured on a
# 2-vCPU Intel Xeon VM, so that scaled times read close to raw ones there
REFERENCE_S = {"dynamics": 0.027, "stability": 0.034, "kernel_survey": 0.037}


def _imex_steps():
    """150 explicit-upwind, implicit-diffusion steps with a dense 513 x 512 matvec."""
    rng = np.random.default_rng(0)
    n = 512
    grad = rng.standard_normal((n + 1, n)) / n
    u0 = 1.0 + 0.1 * rng.standard_normal(n)
    banded = np.zeros((2, n))
    banded[0, 1:] = -0.5
    banded[1, :] = 2.0

    def probe():
        u = u0
        for _ in range(150):
            v = grad @ u
            v[0] = v[-1] = 0.0
            upwind = np.zeros(n + 1)
            upwind[1:-1] = np.where(v[1:-1] > 0, u[:-1], u[1:])
            u = solveh_banded(banded, u - 1e-3 * np.diff(v * upwind))
            u += u0.mean() - u.mean()

    return probe


def _dense_eigen():
    """QR deflation and a symmetric eigensolve at n = 384."""
    a = np.random.default_rng(0).standard_normal((384, 384))
    s = a + a.T

    def probe():
        q, _ = np.linalg.qr(s)
        np.linalg.eigh(q.T @ s @ q)

    return probe


def _kernel_sampling():
    """Elementwise kernel sampling and mixed norms on a 1025 x 1024 face-center grid."""
    x = np.linspace(0.0, 1.0, 1025)
    y = np.linspace(0.0, 1.0, 1024)

    def probe():
        xx, yy = np.meshgrid(x, y, indexing="ij")
        g = np.abs(-0.5 * np.sign(xx - yy) * np.exp(-np.abs(xx - yy)) + np.exp(xx + yy) / 10.0)
        float(g.max()) + float(np.sum(g**1.5))

    return probe


PROBES = {"dynamics": _imex_steps, "stability": _dense_eigen, "kernel_survey": _kernel_sampling}
