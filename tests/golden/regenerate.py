"""Golden CLI outputs: rewrite them, or report how far a run of the checkout moves from them.

Each case below is one `aggrestab` run: its subcommand and its flat config. The
twelve benchmark tasks at seed 1 are copied here as literal configs, so the
tests import nothing from the benchmark; four more cover what those miss. A
case's directory holds `config.cfg`, `case.json` (the command, the exit code
and the stderr lines) and the files the run wrote. `environment.json` records
what can move the last digits of an output: the NumPy version, its BLAS, the
machine and the CPU features NumPy's float64 loops dispatch on.

    python tests/golden/regenerate.py            # rewrite every case from the checkout
    python tests/golden/regenerate.py --check    # report each file whose bytes differ

`--check` always exits 0; `tests/test_golden.py` is the gate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from aggrestab import cli  # noqa: E402

# off environment a numeric cell may move by this share of its column's scale (see
# `difference`). Moving every exp value by an ulp and every FFT value by an ulp of its
# transform's largest magnitude, as tests/test_golden.py does, moves a Picard distance by
# up to 1.2e-12 of its column: a distance differences states whose size sets its roundoff
TOLERANCE = 1e-11
# columns that are roundoff by construction, each with the column whose size sets that
# roundoff: a zero-mean run's mass, |mass| <= l1, and the mean gradient residual
# max |grad K(1)|, which vanishes in exact arithmetic for a Green kernel
SCALE_OF = {"mass": "l1", "mean_gradient_residual": "hilbert_schmidt_norm"}
# a Picard ratio is the quotient of two consecutive distances, known only as well as they are
QUOTIENT_OF = {"ratio": "distance_XT"}

GREEN = "kernel.variant = green_closed_form"
# each case's subcommand and config lines
CASES = {
    # the dynamics workload, seed 1
    "simulate-nonlinear-M5": ("simulate", GREEN, "grid.n = 512", "sim.mode = nonlinear",
                              "sim.M = 5", "sim.t_end = 0.25",
                              "sim.initial = constant_plus_mode:5,0.05,1", "sim.output_stride = 1"),
    "simulate-nonlinear-M12": ("simulate", GREEN, "grid.n = 256", "sim.mode = nonlinear",
                               "sim.M = 12", "sim.t_end = 1",
                               "sim.initial = constant_plus_mode:12,0.12,1"),
    "simulate-linearized-M5": ("simulate", GREEN, "grid.n = 256", "sim.mode = linearized",
                               "sim.M = 5", "sim.t_end = 1",
                               "sim.initial = constant_plus_mode:0,0.01,1"),
    "simulate-perturbed-M8": ("simulate", GREEN, "grid.n = 512", "sim.mode = perturbed",
                              "sim.M = 8", "sim.t_end = 0.1",
                              "sim.initial = random_zero_mean:0.5,288545019"),
    "mild-solve": ("mild-solve", GREEN, "grid.n = 512", "mild.n_time = 512",
                   "mild.T_factor = 0.5", "sim.initial = constant_plus_mode:1,0.5,1"),
    # the stability workload, seed 1
    "threshold-green": ("threshold", GREEN, "grid.n = 512", "analysis.M_lo = 4.268728488224802",
                        "analysis.M_hi = 21.38973494774893", "analysis.tol_M = 0.0001"),
    "analyze-green-M12": ("analyze", GREEN, "grid.n = 1024", "analysis.M = 12"),
    "analyze-gaussian-M3": ("analyze", "kernel.variant = gaussian", "kernel.sigma = 0.1",
                            "grid.n = 1024", "analysis.M = 3"),
    "analyze-green-series-M8": ("analyze", "kernel.variant = green_series", "kernel.a = 4.0",
                                "grid.n = 512", "analysis.M = 8"),
    # the kernel_survey workload, seed 1
    "validate-green": ("validate-kernel", GREEN, "grid.n = 512", "validate.q_prime = inf,2,1"),
    "validate-power-law": ("validate-kernel", "kernel.variant = power_law_gradient",
                           "kernel.alpha = 0.5", "grid.n = 512", "validate.q_prime = inf,1.5"),
    "validate-gaussian": ("validate-kernel", "kernel.variant = gaussian", "kernel.sigma = 0.1",
                          "grid.n = 512"),
    # beyond the benchmark: the snapshots file, a Picard horizon past the existence
    # time that converges (exit 0) and one that does not (exit 4), infinite q' norms
    "simulate-snapshots": ("simulate", GREEN, "grid.n = 16", "sim.M = 5", "sim.t_end = 0.1",
                           "sim.initial = constant_plus_mode:5,0.5,1", "sim.output_stride = 2",
                           "sim.snapshots = true"),
    "mild-solve-past-horizon": ("mild-solve", GREEN, "grid.n = 32", "mild.T_factor = 4",
                                "sim.initial = constant_plus_mode:1,0.5,1"),
    "mild-solve-no-contraction": ("mild-solve", GREEN, "grid.n = 32", "mild.T = 0.05",
                                  "mild.n_time = 32", "sim.initial = constant_plus_mode:50,25,1"),
    "validate-power-law-infinite": ("validate-kernel", "kernel.variant = power_law_gradient",
                                    "kernel.alpha = 0.75", "grid.n = 64",
                                    "validate.q_prime = inf,2"),
}

_CASE_FILES = ("config.cfg", "case.json")


def environment() -> dict:
    """What can move the last digits of an output: NumPy, its BLAS, the machine, and the
    CPU features that pick NumPy's float64 loops: AVX512F and AVX512_SKX its AVX-512 exp,
    log and power, AVX2 and FMA3 the others. Its float16 and sort targets are left out."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as features
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy 1.24 has no mode="dicts"
        blas = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "cpu_features": [f for f in ("AVX2", "FMA3", "AVX512F", "AVX512_SKX") if features.get(f)],
    }


def run(command: str, config: Path, out: Path) -> tuple:
    """The exit code and stderr lines of one CLI run, its files written to out."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--config", str(config), "--out", str(out)])
    return code, stderr.getvalue().splitlines()


def outputs(directory: Path) -> dict:
    """The output files of a case directory, or of a run's output directory, by name."""
    files = sorted(p for p in directory.iterdir() if p.name not in _CASE_FILES)
    return {p.name: p.read_bytes() for p in files}


def _cells(text: str):
    """((line, index), key, text) of every cell: key and text split a key=value cell; any
    other cell has no key. The header is the first line of several cells."""
    for i, line in enumerate(text.splitlines()):
        for j, cell in enumerate(line.split(",")):
            key, sep, value = cell.rpartition("=")
            yield (i, j), (key if sep else None), value


def _columns(cells: list) -> list:
    """The column of each cell: a key=value cell's key, else the header cell above it. The
    header's own cells without '=', and cells with no header above them, have none."""
    top = min((i for (i, j), _, _ in cells if j > 0), default=None)
    names = {}
    for (i, j), key, text in cells:
        if i == top:
            names[j] = text if key is None else f"{key}={text}"
    below = [top is not None and i > top for (i, _), _, _ in cells]
    return [key if key is not None else (names.get(j) if low else None)
            for ((_, j), key, _), low in zip(cells, below)]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def difference(golden: bytes, new: bytes) -> float:
    """The largest change of a numeric cell over its allowance, so 1 is the limit; inf where
    the two differ in their text, their cells or a cell that is not a finite number.

    A cell's allowance is TOLERANCE times its column's scale: the largest magnitude in the
    column, or in the column `SCALE_OF` names if that is larger. A cell of a `QUOTIENT_OF`
    column, the quotient of two consecutive cells of another column, may also move as far
    as their own allowances let it.
    """
    old, moved = list(_cells(golden.decode())), list(_cells(new.decode()))
    if [c[:2] for c in old] != [c[:2] for c in moved]:
        return math.inf
    columns = {}  # column: {line: (golden value, new value)} of its finite numeric cells
    for column, ((line, _), _, a), (_, _, b) in zip(_columns(old), old, moved):
        x, y = _number(a), _number(b)
        if x is not None and y is not None and math.isfinite(x) and math.isfinite(y):
            columns.setdefault(column, {})[line] = (x, y)
        elif a != b:
            return math.inf
    scale = {c: max(abs(x) for x, _ in cells.values()) for c, cells in columns.items()}
    for column, reference in SCALE_OF.items():
        if column in scale:
            scale[column] = max(scale[column], scale.get(reference, 0.0))
    worst = 0.0
    for column, cells in columns.items():
        terms = columns.get(QUOTIENT_OF.get(column), {})
        before = dict(zip(list(terms)[1:], terms))  # each line's line before
        for line, (x, y) in cells.items():
            allowance = TOLERANCE * scale[column]
            if line in before:  # x = a / b, with a and b each known to within e
                a, b = terms[line][0], terms[before[line]][0]
                e = TOLERANCE * scale[QUOTIENT_OF[column]]
                quotient = e * abs(x) * (1 / abs(a) + 1 / abs(b)) if a and b else math.inf
                allowance = max(allowance, quotient)
            if x != y:
                worst = max(worst, abs(x - y) / allowance if allowance else math.inf)
    return worst


def same_environment() -> bool:
    """Whether this process runs in the environment that wrote the goldens."""
    return json.loads((HERE / "environment.json").read_text()) == environment()


def rerun(name: str, out: Path) -> tuple:
    """The stored record of case name, and the exit code and stderr lines of its run into out."""
    case = json.loads((HERE / name / "case.json").read_text())
    return case, *run(case["command"], HERE / name / "config.cfg", out)


def regenerate() -> None:
    for name, (command, *lines) in CASES.items():
        case = HERE / name
        shutil.rmtree(case, ignore_errors=True)
        case.mkdir()
        (case / "config.cfg").write_text("".join(f"{line}\n" for line in lines))
        code, stderr = run(command, case / "config.cfg", case)
        record = {"command": command, "exit": code, "stderr": stderr}
        (case / "case.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"{name}: exit {code}, {len(outputs(case))} files")
    (HERE / "environment.json").write_text(json.dumps(environment(), indent=1) + "\n")


def check() -> None:
    """Report, never fail: each case whose exit code or stderr differs, and each file whose
    bytes differ with its largest change over its allowance (see `difference`)."""
    same = "matches" if same_environment() else "differs from"
    print(f"environment {same} tests/golden/environment.json")
    differing = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in CASES:
            out = Path(scratch) / name
            case, code, stderr = rerun(name, out)
            if (code, stderr) != (case["exit"], case["stderr"]):
                differing += 1
                golden_run = f"golden {case['exit']}, {case['stderr']}"
                print(f"{name}: exit {code}, stderr {stderr}; {golden_run}")
            golden, new = outputs(HERE / name), outputs(out)
            for file in sorted(set(golden) | set(new)):
                if golden.get(file) != new.get(file):
                    differing += 1
                    both = file in golden and file in new
                    gap = difference(golden[file], new[file]) if both else math.inf
                    print(f"{name}/{file}: bytes differ, by up to {gap:.3g} of the allowance")
    print(f"{differing} differences in {len(CASES)} cases")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="report differences; rewrite nothing")
    if parser.parse_args().check:
        check()
    else:
        regenerate()
