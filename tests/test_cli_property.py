"""A property test of the command line: every config ends in a documented exit code.

Configs are drawn from the keys of `cli._KEYS`, for every subcommand and kernel
variant, on grids of at most 32 cells and short runs. Each key draws from a
pool of sensible values and of 0, negative numbers, nan, inf, empty strings
and non-numbers; kernel parameters stay in moderate ranges (|scale| <= 10).
Every run is made with each warning raised as an error, and every line it
writes to stderr must be an `aggrestab:` message. A second property: the one
"%.17g" template a row of numbers takes writes each double as `_fmt` does.
"""

import contextlib
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from aggrestab import Grid1D, KernelSpec, assemble, save_tabulated_csv
from aggrestab.cli import _COMMANDS, _KEYS, _VARIANT_KEYS, _fmt, _write, main

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402 (after the skip)
from hypothesis import strategies as st  # noqa: E402

# the exit codes the CLI documents
EXIT_CODES = {0, 2, 3, 4, 5, 64, 74}
# the outputs that the README documents as possibly infinite: no existence time, no
# critical q', a divergent q' norm, no instability threshold (A <= 0) and no
# stability bound (a zero gradient)
INFINITE = re.compile(r"T_existence|critical_q_prime|norm_inf_q.*|M_crit_instab|M_bound_stab")
# values that every key may draw, one key a config
BAD = ["0", "-1", "nan", "inf", "-inf", "", "abc"]
# stands for a 16-cell table, written once for the module by the `table` fixture
TABLE = "<table>"
POOLS = {
    "kernel.variant": [*_VARIANT_KEYS, "bogus", ""],
    "kernel.a": ["1", "4", "0.01", "100"],
    "kernel.sigma": ["0.05", "0.1", "0.3", "1"],
    "kernel.alpha": ["0.3", "0.5", "0.9", "1", "1.5", "3"],
    "kernel.delta": ["0.01", "0.1", "1"],
    # a simulate run's step count grows with |scale| (the CFL bound): 1e6 takes minutes
    "kernel.scale": ["1", "2", "0.5", "-1", "-3", "1e-3", "10"],
    "kernel.csv": [TABLE, "missing.csv"],
    "grid.n": ["4", "8", "16", "32", "3", "1.5"],
    "sim.mode": ["nonlinear", "perturbed", "linearized", "bogus"],
    "sim.M": ["1", "5", "12"],
    "sim.t_end": ["0.01", "0.05", "0.1"],
    "sim.dt": ["auto", "1e-3", "0.01"],
    "sim.initial": [
        "constant:1.0",
        "constant:-1",
        "constant:nan",
        "constant_plus_mode:1,0.5,1",
        "constant_plus_mode:0,0.1,2",
        "constant_plus_mode:1,0.1,99",
        "random_zero_mean:0.1,3",
        "random_zero_mean:x,3",
        "csv:missing.csv",
        "bogus:1",
    ],
    "sim.output_stride": ["1", "2", "1.5"],
    "sim.snapshots": ["true", "false", "maybe"],
    "analysis.M": ["1", "3", "12", "30", "1e308"],
    "analysis.M_lo": ["1", "5", "20"],
    "analysis.M_hi": ["10", "30", "40", "1e308"],
    "analysis.tol_M": ["0.01", "0.5", "1e-6"],
    "validate.tol": ["1e-6", "1"],
    "validate.q_prime": ["inf", "2", "1", "inf,2,1", "1.5,4", "0.5", "1,x"],
    "mild.T": ["0.001", "0.01", "0.1", "1"],
    "mild.T_factor": ["0.5", "1", "4"],
    "mild.n_time": ["2", "4", "16", "1"],
    "mild.max_iter": ["1", "5", "30"],
    "mild.tol": ["1e-10", "1e-3"],
    "mild.q_prime": ["inf", "2", "1", "1.5", "0.5"],
    "mild.C_emp": ["1", "0.1", "10"],
    "seed": ["1", "7"],
}
# every config holds grid.n and sim.t_end, and draws a few of these
OPTIONAL = [k for k in POOLS if not k.startswith("kernel.") and k not in ("grid.n", "sim.t_end")]


@st.composite
def configs(draw):
    """A variant with its kernel keys, a grid size, a short run and a few other keys, each
    from its pool; then, half the time, one key, or a kernel key most variants do not
    read, from BAD."""
    variant = draw(st.sampled_from(POOLS["kernel.variant"]))
    kernel_keys = [f"kernel.{name}" for name in ("scale", *_VARIANT_KEYS.get(variant, ()))]
    keys = ["grid.n", "sim.t_end", *kernel_keys]
    keys += draw(st.lists(st.sampled_from(OPTIONAL), unique=True, max_size=6))
    pairs = {"kernel.variant": variant, **{key: draw(st.sampled_from(POOLS[key])) for key in keys}}
    if draw(st.booleans()):
        pairs[draw(st.sampled_from(["kernel.variant", "kernel.sigma", *keys]))] = draw(
            st.sampled_from(BAD)
        )
    return pairs


def cells(text):
    """(name, value) of each value in an output file: a key=value line's under its key,
    a CSV row's under its column's header."""
    header = None
    for line in text.splitlines():
        if "," not in line and "=" in line:
            yield tuple(line.split("=", 1))
        elif header is None:
            header = line.split(",")
        else:
            yield from zip(header, line.split(","))


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "kernel.csv"
    save_tabulated_csv(path, assemble(KernelSpec.gaussian(0.1), Grid1D(16)))
    return str(path)


def test_every_key_has_a_pool():
    assert set(POOLS) == set(_KEYS)


GAUSSIAN = {"kernel.variant": "gaussian", "grid.n": "16"}
POWER_LAW = {"kernel.variant": "power_law_gradient", "grid.n": "16"}
GAUSSIAN_32 = {**GAUSSIAN, "grid.n": "32"}
GREEN_32 = {"kernel.variant": "green_closed_form", "grid.n": "32"}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(sorted(_COMMANDS)), pairs=configs())
# kernel parameters whose samples overflow a double are refused, exit 64
@example(command="analyze", pairs={**GAUSSIAN, "kernel.sigma": "1e160"})
@example(command="validate-kernel", pairs={**GAUSSIAN, "kernel.sigma": "1e-160"})
@example(command="analyze", pairs={**POWER_LAW, "kernel.alpha": "1e300", "kernel.delta": "0.5"})
@example(command="validate-kernel", pairs={**POWER_LAW, "kernel.alpha": "1e3", "kernel.delta": "0.1"})
# a delta = 0 power law peaks at (2n)^alpha, in the finest cell: its norms leave the doubles
@example(
    command="validate-kernel",
    pairs={**POWER_LAW, "kernel.alpha": "0.5", "kernel.delta": "0", "kernel.scale": "1e308"},
)
# norms of large but finite gradients: |scale| multiplies them after the q' powers
@example(
    command="validate-kernel",
    pairs={**GAUSSIAN, "kernel.sigma": "0.1", "kernel.scale": "1e200", "validate.q_prime": "inf,2,1.5"},
)
@example(command="analyze", pairs={**GAUSSIAN, "kernel.sigma": "0.1", "kernel.scale": "1e160"})
# the horizon warning is one aggrestab: line, not a Python warning
@example(command="mild-solve", pairs={**GREEN_32, "mild.T_factor": "4"})
# a principal eigenvalue or eigen-residual beyond the largest double is refused, exit 64
@example(command="analyze", pairs={**GREEN_32, "kernel.scale": "10", "analysis.M": "1e308"})
@example(command="analyze", pairs={**GAUSSIAN_32, "kernel.sigma": "0.1", "analysis.M": "1e307"})
@example(command="threshold", pairs={**GAUSSIAN, "kernel.sigma": "0.1", "analysis.M_hi": "1e308"})
def test_every_config_ends_in_a_documented_exit(table, command, pairs):
    with tempfile.TemporaryDirectory() as tmp:
        text = "".join(f"{key} = {table if raw == TABLE else raw}\n" for key, raw in pairs.items())
        config = Path(tmp) / "run.cfg"
        config.write_text(text)
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([command, "--config", str(config), "--out", str(out)])
        assert code in EXIT_CODES
        for line in stderr.getvalue().splitlines():
            assert line.startswith("aggrestab: "), line
        for path in out.glob("*"):
            for name, value in cells(path.read_text()):
                try:
                    number = float(value)
                except ValueError:
                    continue
                finite = math.isfinite(number) or number == math.inf and INFINITE.fullmatch(name)
                assert finite, (path.name, name, value)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=6))
# -0, the infinities, NaN, the least subnormal, the least normal and the largest double
@example(values=[0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308])
@example(values=[-1.7976931348623157e308, 0.1, 1e16, 123456789012345678.0])
def test_a_row_of_numbers_reads_as_each_cell_by_fmt(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        _write(path, None, np.array([values, values[::-1]]))
        expected = [",".join(map(_fmt, row)) for row in (values, values[::-1])]
        assert path.read_text().splitlines() == expected
