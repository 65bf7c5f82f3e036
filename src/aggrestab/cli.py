"""Command-line front end: flat key=value configs, deterministic CSV outputs.

Subcommands: validate-kernel, analyze, simulate, mild-solve, threshold.
A run reads the keys of `_KEYS` and the flags --config and --out (default: the
working directory), and nothing else.
Every output file is written by `_write`, and every message is one stderr line
starting `aggrestab: `; a failure takes its exit code and label from `_FAILURES`.
Exit codes: 0 ok, 2 validation failure / invalid bracket, 3 scheme failure
or rejected step, 4 non-contraction, 5 unusable kernel (incl. unreadable,
non-finite or asymmetric tables), 64 usage or config error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import threshold_bisect
from .errors import (
    AggrestabError,
    ConfigError,
    InvalidBracketError,
    KernelLoadError,
    NoExistenceTimeError,
    NonContractionError,
    SchemeFailureError,
    UnsupportedKernelError,
)
from .grid import Grid1D
from .kernel import (
    VARIANT_PARAMETERS,
    KernelMatrices,
    KernelSpec,
    assemble,
    load_tabulated_csv,
    norm_inf_qprime,
    validate_assumptions,
)
from .solver import evolve, existence_time, initial_field, picard_mild_solve
from .spectral import stability_verdict

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SCHEME = 3
EXIT_NO_CONTRACTION = 4
EXIT_BAD_KERNEL = 5
EXIT_USAGE = 64
EXIT_IO = 74

# each error type's exit code and message label; an error takes the first entry it matches
_FAILURES = {
    ConfigError: (EXIT_USAGE, "config error: "),
    SchemeFailureError: (EXIT_SCHEME, "scheme failure: "),
    NoExistenceTimeError: (EXIT_BAD_KERNEL, "unusable kernel: "),
    KernelLoadError: (EXIT_BAD_KERNEL, "unusable kernel: "),
    UnsupportedKernelError: (EXIT_BAD_KERNEL, "unusable kernel: "),
    InvalidBracketError: (EXIT_VALIDATION, ""),
    OSError: (EXIT_IO, "i/o error: "),
    AggrestabError: (EXIT_USAGE, ""),
}

# the flag spellings a config may use, in any case
_FLAGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _number(key, raw) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw!r}") from exc


def _real(key, raw) -> float:
    if not math.isfinite(value := _number(key, raw)):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def _integer(key, raw) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {raw!r}") from exc


def _numbers(key, raw) -> tuple:
    return tuple(_number(key, q) for q in raw.split(","))


def _flag(key, raw) -> bool:
    if (flag := _FLAGS.get(raw.lower())) is None:
        raise ConfigError(f"{key}: not a flag (true/false, 1/0 or yes/no): {raw!r}")
    return flag


def _step(key, raw):
    return None if raw == "auto" else _real(key, raw)


_REQUIRED = object()
_POSITIVE = "positive"
# every key a config may hold: (parser, default, bound); str keeps the text, and any
# other key is refused. A default is the text a config would give, _REQUIRED, or None
# where absence means something: analysis.M the level sim.M, mild.T the horizon
# T_factor times the existence time. A bound is a least value or _POSITIVE; q' takes inf.
_KEYS = {
    "kernel.variant": (str, _REQUIRED, None),
    "kernel.a": (_real, _REQUIRED, _POSITIVE),
    "kernel.sigma": (_real, _REQUIRED, _POSITIVE),
    "kernel.alpha": (_real, _REQUIRED, _POSITIVE),
    "kernel.delta": (_real, "0", 0.0),
    "kernel.scale": (_real, "1", None),
    "kernel.csv": (str, _REQUIRED, None),
    "grid.n": (_integer, _REQUIRED, 4),
    "sim.mode": (str, "nonlinear", None),
    "sim.M": (_real, "0", 0.0),
    "sim.t_end": (_real, "1", _POSITIVE),
    "sim.dt": (_step, "auto", _POSITIVE),
    "sim.initial": (str, "constant:1.0", None),
    "sim.output_stride": (_integer, "1", 1),
    "sim.snapshots": (_flag, "false", None),
    "analysis.M": (_real, None, 0.0),
    "analysis.M_lo": (_real, "0", 0.0),
    "analysis.M_hi": (_real, "30", _POSITIVE),
    "analysis.tol_M": (_real, "0.01", _POSITIVE),
    "validate.tol": (_real, "1e-6", _POSITIVE),
    "validate.q_prime": (_numbers, "inf", None),
    "mild.T": (_real, None, _POSITIVE),
    "mild.T_factor": (_real, "1", _POSITIVE),
    "mild.n_time": (_integer, "128", 2),
    "mild.max_iter": (_integer, "30", 1),
    "mild.tol": (_real, "1e-10", _POSITIVE),
    "mild.q_prime": (_number, "inf", None),
    "mild.C_emp": (_real, "1", _POSITIVE),
    "seed": (_integer, "0", 0),
}
# the kernel.* keys each variant reads besides kernel.variant and kernel.scale, a
# built-in variant's by KernelSpec field; any other kernel.* key is refused
_VARIANT_KEYS = {**VARIANT_PARAMETERS, "tabulated": ("csv",)}


def _fmt(x) -> str:
    """Text as is; a number locale-independent, to 17 significant digits."""
    return x if isinstance(x, str) else format(float(x), ".17g")


def _write(path: Path, header=None, rows=(), /, **trailer) -> None:
    """Write the header, one comma-joined line per row, then key=value lines; each by `_fmt`,
    or a 2-D array's rows of numbers by one "%.17g" template a row, which reads as `_fmt`."""
    lines = [] if header is None else [header]
    if isinstance(rows, np.ndarray):
        template = ",".join(["%.17g"] * rows.shape[1])
        lines += [template % tuple(row.tolist()) for row in rows]
    else:
        lines += [",".join(map(_fmt, row)) for row in rows]
    lines += [f"{key}={_fmt(value)}" for key, value in trailer.items()]
    path.write_text("\n".join(lines) + "\n")


class RunConfig:
    """A flat key=value configuration; `config[key]` parses and bounds a key as `_KEYS` says."""

    def __init__(self, pairs: dict):
        if unknown := set(pairs) - set(_KEYS):
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        self.pairs = dict(pairs)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        pairs = {}
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key}")
            pairs[key] = value
        return cls(pairs)

    def __getitem__(self, key):
        parse, default, bound = _KEYS[key]
        if (raw := self.pairs.get(key, default)) is _REQUIRED:
            raise ConfigError(f"missing required key {key}")
        value = raw if raw is None or parse is str else parse(key, raw)
        if value is None or bound is None:
            return value
        if bound == _POSITIVE and value <= 0:
            raise ConfigError(f"{key}: must be positive, got {value}")
        if bound != _POSITIVE and value < bound:
            raise ConfigError(f"{key}: must be >= {bound}, got {value}")
        return value

    def kernel(self) -> KernelMatrices:
        """The kernel of the kernel.* keys, assembled on the grid of grid.n."""
        variant, scale = self["kernel.variant"], self["kernel.scale"]
        if variant not in _VARIANT_KEYS:
            raise ConfigError(f"unknown kernel.variant {variant!r}")
        reads = {f"kernel.{name}" for name in ("variant", "scale", *_VARIANT_KEYS[variant])}
        if unread := {key for key in self.pairs if key.startswith("kernel.")} - reads:
            raise ConfigError(f"kernel.variant = {variant} reads no {', '.join(sorted(unread))}")
        grid = Grid1D(self["grid.n"])
        if variant == "tabulated":
            spec = replace(load_tabulated_csv(self["kernel.csv"], grid), scale=scale)
        else:
            params = {name: self[f"kernel.{name}"] for name in _VARIANT_KEYS[variant]}
            spec = KernelSpec(variant, scale=scale, **params)
        return assemble(spec, grid)


def cmd_validate_kernel(config: RunConfig, out_dir: Path) -> int:
    km = config.kernel()
    tol = config["validate.tol"]
    report = validate_assumptions(km, tol, q_primes=config["validate.q_prime"])
    entries = {
        "variant": km.spec.variant,
        "tol": tol,
        "neumann_residual": report.neumann_residual,
        "neumann_ok": str(report.neumann_ok),
        "mean_gradient_residual": report.mean_gradient_residual,
        "mean_gradient_ok": str(report.mean_gradient_ok),
        "symmetry_residual": report.symmetry_residual,
        "hilbert_schmidt_norm": report.hilbert_schmidt_norm,
        "classification": report.classification.category,
        "critical_q_prime": str(report.classification.critical_q_prime),
    }
    for q, est in sorted(report.norm_estimates.items()):
        entries[f"norm_inf_q{q}"] = est.value
        entries[f"norm_inf_q{q}_verdict"] = est.verdict
    _write(out_dir / "kernel_report.txt", **entries)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_analyze(config: RunConfig, out_dir: Path) -> int:
    km = config.kernel()
    mass = config["analysis.M"]
    report = stability_verdict(km, config["sim.M"] if mass is None else mass)
    values = (
        report.mass_level,
        report.lambda1,
        report.grad_norm,
        report.interaction_coefficient,
        report.critical_mass_instability,
        report.stability_bound_mass,
        report.principal_eigenvalue,
    )
    header = "M,lambda1,grad_norm,A,M_crit_instab,M_bound_stab,principal_eig,verdict"
    _write(out_dir / "stability_report.csv", header, [(*values, report.verdict)])
    return EXIT_OK


def cmd_simulate(config: RunConfig, out_dir: Path) -> int:
    km = config.kernel()
    grid = km.grid
    u0 = initial_field(config["sim.initial"], grid, config["seed"])
    traj = evolve(
        u0,
        km,
        config["sim.mode"],
        mass_level=config["sim.M"],
        t_end=config["sim.t_end"],
        dt=config["sim.dt"],
        output_stride=config["sim.output_stride"],
    )
    rows = np.column_stack((traj.times, traj.mass, traj.l1, traj.l2, traj.linf, traj.min_value))
    _write(out_dir / "trajectory.csv", "t,mass,l1,l2,linf,min_u", rows)
    if config["sim.snapshots"]:
        header = "x," + ",".join(f"t={_fmt(t)}" for t in traj.times)
        _write(out_dir / "snapshots.csv", header, np.column_stack((grid.centers, traj.snapshots.T)))
    return EXIT_OK


def cmd_mild_solve(config: RunConfig, out_dir: Path) -> int:
    km = config.kernel()
    grid = km.grid
    u0 = initial_field(config["sim.initial"], grid, config["seed"])
    q_prime, c_emp = config["mild.q_prime"], config["mild.C_emp"]
    estimate = norm_inf_qprime(km.spec, q_prime, levels=(64, 128, 256, 512))
    t_exist = existence_time(u0, grid, estimate.value, q_prime, c_emp)
    horizon = config["mild.T"]
    if horizon is None:
        factor = config["mild.T_factor"]
        horizon = factor * t_exist
        if not math.isfinite(horizon):
            horizon = factor  # free horizon: T_existence is infinite, or its multiple overflows
    code = EXIT_OK
    try:
        distances = picard_mild_solve(
            u0,
            km,
            horizon,
            n_time=config["mild.n_time"],
            max_iter=config["mild.max_iter"],
            tol=config["mild.tol"],
            q_prime=q_prime,
        ).picard_distances
    except NonContractionError as exc:
        distances, code = exc.distances, EXIT_NO_CONTRACTION
    if horizon > t_exist:
        warning = f"T={horizon:g} exceeds the contraction estimate {t_exist:g}"
        print(f"aggrestab: warning: {warning}; the iteration may not contract", file=sys.stderr)
    # a zero distance ends the iteration, so no ratio divides by zero
    ratios = ["", *(d / prev for prev, d in zip(distances, distances[1:]))]
    rows = zip(range(1, len(distances) + 1), distances, ratios)
    _write(out_dir / "picard.csv", "iteration,distance_XT,ratio", rows, T_existence=t_exist)
    return code


def cmd_threshold(config: RunConfig, out_dir: Path) -> int:
    history = []
    critical = threshold_bisect(
        config.kernel(),
        config["analysis.M_lo"],
        config["analysis.M_hi"],
        config["analysis.tol_M"],
        history=history,
    )
    rows = ((i, *step) for i, step in enumerate(history, 1))
    _write(out_dir / "threshold.csv", "iteration,M_lo,M_hi,M_mid,eig_mid", rows, M_critical=critical)
    return EXIT_OK


_COMMANDS = {
    "validate-kernel": cmd_validate_kernel,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "mild-solve": cmd_mild_solve,
    "threshold": cmd_threshold,
}


_PARSER = argparse.ArgumentParser(
    prog="aggrestab",
    description="Aggregation-diffusion stability laboratory on [0,1]",
)
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True)
_PARSER.add_argument("--out", default=".")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = RunConfig.from_file(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out_dir)
    except (AggrestabError, OSError) as exc:
        code, label = next(entry for kind, entry in _FAILURES.items() if isinstance(exc, kind))
        print(f"aggrestab: {label}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
