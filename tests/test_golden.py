"""Every golden case of tests/golden, rerun through `cli.main`, against its stored outputs.

Where the environment matches `tests/golden/environment.json` the outputs must be
byte-identical. Elsewhere NumPy's version, its BLAS and its SIMD loops can move
last digits, so the text must match exactly and each numeric cell within its
allowance (see `difference` in tests/golden/regenerate.py). Rewrite the goldens
with `python tests/golden/regenerate.py` only for a change that means to move an output.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).parent / "golden" / "regenerate.py"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

SAME_ENVIRONMENT = golden.same_environment()


def test_every_case_is_stored():
    stored = {p.name for p in golden.HERE.iterdir() if p.is_dir() and p.name != "__pycache__"}
    assert stored == set(golden.CASES)


def _check(name, out, exact):
    """Rerun case name into out and compare its exit code, stderr and files with the golden:
    bytes if exact, else each cell within its allowance. Whether any file's bytes moved."""
    case, code, stderr = golden.rerun(name, out)
    assert (code, stderr) == (case["exit"], case["stderr"])
    expected, got = golden.outputs(golden.HERE / name), golden.outputs(out)
    assert sorted(got) == sorted(expected)
    for file, data in expected.items():
        if exact:
            assert got[file] == data, f"{file} is not byte-identical"
        else:
            gap = golden.difference(data, got[file])
            assert gap <= 1, f"{file}: a cell moved {gap:.3g} times its allowance"
    return got != expected


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_golden_outputs(name, tmp_path):
    _check(name, tmp_path, exact=SAME_ENVIRONMENT)


# the cases of a roundoff-sized column: a zero-mean run's mass, Picard ratios of distances
# near roundoff, the Green kernel's mean gradient residual
ROUNDOFF_CASES = ("simulate-linearized-M5", "simulate-perturbed-M8", "mild-solve", "validate-green")


def _move_last_digits(monkeypatch):
    """Round np.exp and NumPy's FFTs differently: each exp value but an exact 1 moves by an
    ulp, and each FFT value by an ulp of the transform's largest magnitude, as another NumPy
    version's pocketfft or SIMD loops may."""
    rng = np.random.default_rng(0)
    exp, rfft, irfft = np.exp, np.fft.rfft, np.fft.irfft

    def signs(shape):
        return rng.integers(0, 2, shape) * 2.0 - 1.0

    def moved_exp(*args, **kwargs):
        out = exp(*args, **kwargs)
        nudge = np.where(out == 1, 1.0, 1.0 + 2.0**-52 * signs(np.shape(out)))
        if isinstance(out, np.ndarray):
            out *= nudge  # in place, so that an out= argument moves too
            return out
        return out * nudge[()]

    def moved(transform):
        def call(*args, **kwargs):
            out = transform(*args, **kwargs)
            return out + 2.0**-52 * np.abs(out).max(initial=0.0) * signs(out.shape)
        return call

    monkeypatch.setattr(np, "exp", moved_exp)
    monkeypatch.setattr(np.fft, "rfft", moved(rfft))
    monkeypatch.setattr(np.fft, "irfft", moved(irfft))


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_moved_last_digits_stay_within_allowance(name, tmp_path, monkeypatch):
    """The off-environment comparison, run here: last digits moved as another NumPy's
    may move them keep the text, the exit code and the stderr, and every cell within its
    allowance."""
    _move_last_digits(monkeypatch)
    moved = _check(name, tmp_path, exact=False)
    # the cases whose roundoff-sized columns the allowances are for must really move
    assert moved or name not in ROUNDOFF_CASES


def test_difference_reads_columns():
    old = b"t,mass\n0,1.0\n1,2.0\nT=3.0\n"
    assert golden.difference(old, old) == 0.0
    moved = b"t,mass\n0,1.0\n1,2.00000000002\nT=3.0\n"
    assert golden.difference(old, moved) == pytest.approx(1.0, rel=1e-4)
    assert golden.difference(old, b"t,mass\n0,1.0\n1,2.0\nT=inf\n") == float("inf")
    assert golden.difference(old, b"t,mass\n0,1.0\n1,2.0\nS=3.0\n") == float("inf")
    assert golden.difference(old, b"t,mass\n0,1.0\n") == float("inf")
    assert golden.difference(old, b"t,mass,l1\n0,1.0\n1,2.0\nT=3.0\n") == float("inf")


def test_a_roundoff_column_reads_the_scale_of_its_bound():
    # a zero-mean run's mass is roundoff of the l1 scale, not of its own
    old = b"t,mass,l1\n0,1e-18,0.01\n1,-2e-18,0.005\n"
    moved = b"t,mass,l1\n0,3e-18,0.01\n1,-2e-18,0.005\n"
    assert golden.difference(old, moved) == pytest.approx(2e-18 / (golden.TOLERANCE * 0.01))
    assert golden.difference(old, b"t,mass,l1\n0,2e-13,0.01\n1,-2e-18,0.005\n") > 1
    # a quotient of two distances near roundoff is known only as well as they are
    old = b"iteration,distance_XT,ratio\n1,0.01,\n2,1e-4,0.01\n3,1e-12,1e-8\nT=1\n"
    e = golden.TOLERANCE * 0.01  # the distances' allowance
    for line, ratio, a, b in ((2, 0.01, 1e-4, 0.01), (3, 1e-8, 1e-12, 1e-4)):
        allowance = max(golden.TOLERANCE * 0.01, e * ratio * (1 / a + 1 / b))
        rows = old.decode().splitlines()
        rows[line] = rows[line].rsplit(",", 1)[0] + f",{ratio + 0.5 * allowance!r}"
        moved = ("\n".join(rows) + "\n").encode()
        assert golden.difference(old, moved) == pytest.approx(0.5, rel=1e-4)
