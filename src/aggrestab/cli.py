"""Command-line front end: flat key=value configs, deterministic CSV outputs.

Subcommands: validate-kernel, analyze, simulate, mild-solve, threshold.
Exit codes: 0 ok, 2 validation failure / invalid bracket, 3 scheme failure
or rejected step, 4 non-contraction, 5 unusable kernel (incl. unreadable,
non-finite or asymmetric tables), 64 usage or config error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

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

_KNOWN_KEYS = {
    "kernel.variant",
    "kernel.a",
    "kernel.sigma",
    "kernel.alpha",
    "kernel.delta",
    "kernel.scale",
    "kernel.csv",
    "grid.n",
    "sim.mode",
    "sim.M",
    "sim.t_end",
    "sim.dt",
    "sim.initial",
    "sim.output_stride",
    "sim.snapshots",
    "analysis.M",
    "analysis.M_lo",
    "analysis.M_hi",
    "analysis.tol_M",
    "validate.tol",
    "validate.q_prime",
    "mild.T",
    "mild.T_factor",
    "mild.n_time",
    "mild.max_iter",
    "mild.tol",
    "mild.q_prime",
    "mild.C_emp",
    "output.dir",
    "seed",
}
# keys that earlier versions read, refused with the reason they went
_REMOVED_KEYS = {
    "kernel.m": "kernel.m was removed: the Green kernel is exact for every a, with no series "
    "to truncate",
    "kernel.normalization": "kernel.normalization was removed: kernel.scale multiplies every "
    "kernel, the Gaussian too",
}


def _number(key, raw) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw!r}") from exc


def _fmt(x) -> str:
    """Locale-independent numeric formatting, 17 significant digits."""
    return format(float(x), ".17g")


class RunConfig:
    """Parsed flat key=value configuration with range validation."""

    def __init__(self, pairs: dict):
        for key in sorted(set(pairs) & set(_REMOVED_KEYS)):
            raise ConfigError(_REMOVED_KEYS[key])
        unknown = set(pairs) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        self.pairs = dict(pairs)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        pairs = {}
        try:
            text = Path(path).read_text()
        except OSError as exc:
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

    def get(self, key, default=None):
        return self.pairs.get(key, default)

    def get_float(self, key, default=None, minimum=None, positive=False):
        raw = self.pairs.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key {key}")
            return default
        value = _number(key, raw)
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {raw!r}")
        if positive and value <= 0:
            raise ConfigError(f"{key}: must be positive, got {value}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
        return value

    def get_int(self, key, default=None, minimum=None):
        raw = self.pairs.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key {key}")
            return default
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: not an integer: {raw!r}") from exc
        if minimum is not None and value < minimum:
            raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
        return value

    @property
    def seed(self) -> int:
        env = os.environ.get("AGGRESTAB_SEED")
        if env is not None:
            try:
                return int(env)
            except ValueError as exc:
                raise ConfigError(f"AGGRESTAB_SEED: not an integer: {env!r}") from exc
        return self.get_int("seed", default=0, minimum=0)

    def grid(self) -> Grid1D:
        return Grid1D(self.get_int("grid.n", minimum=4))

    def kernel(self) -> KernelMatrices:
        """The kernel of the kernel.* keys, assembled on the grid of grid.n."""
        variant = self.get("kernel.variant")
        if variant is None:
            raise ConfigError("missing required key kernel.variant")
        scale = self.get_float("kernel.scale", default=1.0)
        if variant == "green_closed_form":
            spec = KernelSpec.green_closed_form(scale=scale)
        elif variant == "green_series":
            spec = KernelSpec.green_series(self.get_float("kernel.a", positive=True), scale=scale)
        elif variant == "gaussian":
            spec = KernelSpec.gaussian(self.get_float("kernel.sigma", positive=True), scale=scale)
        elif variant == "power_law_gradient":
            spec = KernelSpec.power_law(
                self.get_float("kernel.alpha", positive=True),
                delta=self.get_float("kernel.delta", default=0.0, minimum=0.0),
                scale=scale,
            )
        elif variant == "tabulated":
            path = self.get("kernel.csv")
            if path is None:
                raise ConfigError("tabulated kernel needs kernel.csv")
            spec = load_tabulated_csv(path, self.grid())
        else:
            raise ConfigError(f"unknown kernel.variant {variant!r}")
        return assemble(spec, self.grid())


def _out_dir(config: RunConfig, override) -> Path:
    path = Path(override) if override else Path(config.get("output.dir", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_validate_kernel(config: RunConfig, out_dir: Path) -> int:
    km = config.kernel()
    tol = config.get_float("validate.tol", default=1e-6, positive=True)
    raw_q = config.get("validate.q_prime", "inf").split(",")
    q_primes = tuple(_number("validate.q_prime", q) for q in raw_q)
    report = validate_assumptions(km, tol, q_primes=q_primes)
    lines = [
        f"variant={km.spec.variant}",
        f"tol={_fmt(tol)}",
        f"neumann_residual={_fmt(report.neumann_residual)}",
        f"neumann_ok={report.neumann_ok}",
        f"mean_gradient_residual={_fmt(report.mean_gradient_residual)}",
        f"mean_gradient_ok={report.mean_gradient_ok}",
        f"symmetry_residual={_fmt(report.symmetry_residual)}",
        f"hilbert_schmidt_norm={_fmt(report.hilbert_schmidt_norm)}",
        f"classification={report.classification.category}",
        f"critical_q_prime={report.classification.critical_q_prime}",
    ]
    for q, est in sorted(report.norm_estimates.items()):
        lines.append(f"norm_inf_q{q}={_fmt(est.value) if math.isfinite(est.value) else 'inf'}")
        lines.append(f"norm_inf_q{q}_verdict={est.verdict}")
    (out_dir / "kernel_report.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_analyze(config: RunConfig, out_dir: Path) -> int:
    km = config.kernel()
    key = "analysis.M" if config.get("analysis.M") is not None else "sim.M"
    report = stability_verdict(km, config.get_float(key, default=0.0))
    values = (
        report.mass_level,
        report.lambda1,
        report.grad_norm,
        report.interaction_coefficient,
        report.critical_mass_instability,
        report.stability_bound_mass,
        report.principal_eigenvalue,
    )
    rows = [
        "M,lambda1,grad_norm,A,M_crit_instab,M_bound_stab,principal_eig,verdict",
        ",".join([*map(_fmt, values), report.verdict]),
    ]
    (out_dir / "stability_report.csv").write_text("\n".join(rows) + "\n")
    return EXIT_OK


def cmd_simulate(config: RunConfig, out_dir: Path) -> int:
    km = config.kernel()
    grid = km.grid
    dt_raw = config.get("sim.dt", "auto")
    dt = None if dt_raw == "auto" else config.get_float("sim.dt", positive=True)
    u0 = initial_field(config.get("sim.initial", "constant:1.0"), grid, config.seed)
    traj = evolve(
        u0,
        km,
        config.get("sim.mode", "nonlinear"),
        mass_level=config.get_float("sim.M", default=0.0, minimum=0.0),
        t_end=config.get_float("sim.t_end", default=1.0, positive=True),
        dt=dt,
        output_stride=config.get_int("sim.output_stride", default=1, minimum=1),
    )
    rows = ["t,mass,l1,l2,linf,min_u"]
    for i, t in enumerate(traj.times):
        rows.append(
            ",".join(
                _fmt(v)
                for v in (t, traj.mass[i], traj.l1[i], traj.l2[i], traj.linf[i], traj.min_value[i])
            )
        )
    (out_dir / "trajectory.csv").write_text("\n".join(rows) + "\n")
    if config.get("sim.snapshots", "false").lower() in ("true", "1", "yes"):
        header = "x," + ",".join(f"t={_fmt(t)}" for t in traj.times)
        lines = [header]
        for x, column in zip(grid.centers, traj.snapshots.T):
            lines.append(",".join(_fmt(v) for v in (x, *column)))
        (out_dir / "snapshots.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_mild_solve(config: RunConfig, out_dir: Path) -> int:
    km = config.kernel()
    grid = km.grid
    u0 = initial_field(config.get("sim.initial", "constant:1.0"), grid, config.seed)
    # q' = inf is the default, so it is parsed apart from get_float's finite numbers
    q_prime = _number("mild.q_prime", config.get("mild.q_prime", "inf"))
    c_emp = config.get_float("mild.C_emp", default=1.0, positive=True)
    estimate = norm_inf_qprime(km.spec, q_prime, levels=(64, 128, 256, 512))
    t_exist = existence_time(u0, grid, estimate.value, q_prime, c_emp)
    horizon = config.get_float("mild.T", default=0.0)
    if horizon <= 0:
        factor = config.get_float("mild.T_factor", default=1.0, positive=True)
        horizon = factor * t_exist
        if not math.isfinite(horizon):
            horizon = factor  # free horizon: T_existence is infinite, or its multiple overflows
    distances, ratios, code = [], [], EXIT_OK
    try:
        diag = picard_mild_solve(
            u0,
            km,
            horizon,
            n_time=config.get_int("mild.n_time", default=128, minimum=2),
            max_iter=config.get_int("mild.max_iter", default=30, minimum=1),
            tol=config.get_float("mild.tol", default=1e-10, positive=True),
            q_prime=q_prime,
            existence_estimate=t_exist,
        )
        distances = diag.picard_distances
    except NonContractionError as exc:
        distances = exc.distances
        code = EXIT_NO_CONTRACTION
    rows = ["iteration,distance_XT,ratio"]
    prev = None
    for i, d in enumerate(distances, 1):
        ratio = "" if prev in (None, 0.0) else _fmt(d / prev)
        rows.append(f"{i},{_fmt(d)},{ratio}")
        prev = d
    rows.append(f"T_existence={_fmt(t_exist) if math.isfinite(t_exist) else 'inf'}")
    (out_dir / "picard.csv").write_text("\n".join(rows) + "\n")
    return code


def cmd_threshold(config: RunConfig, out_dir: Path) -> int:
    history = []
    critical = threshold_bisect(
        config.kernel(),
        config.get_float("analysis.M_lo", default=0.0, minimum=0.0),
        config.get_float("analysis.M_hi", default=30.0, positive=True),
        config.get_float("analysis.tol_M", default=0.01, positive=True),
        history=history,
    )
    rows = ["iteration,M_lo,M_hi,M_mid,eig_mid"]
    for i, (lo, hi, mid, eig) in enumerate(history, 1):
        rows.append(f"{i},{_fmt(lo)},{_fmt(hi)},{_fmt(mid)},{_fmt(eig)}")
    rows.append(f"M_critical={_fmt(critical)}")
    (out_dir / "threshold.csv").write_text("\n".join(rows) + "\n")
    return EXIT_OK


_COMMANDS = {
    "validate-kernel": cmd_validate_kernel,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "mild-solve": cmd_mild_solve,
    "threshold": cmd_threshold,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aggrestab",
        description="Aggregation-diffusion stability laboratory on [0,1]",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = RunConfig.from_file(args.config)
        out_dir = _out_dir(config, args.out)
        return _COMMANDS[args.command](config, out_dir)
    except ConfigError as exc:
        print(f"aggrestab: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemeFailureError as exc:
        print(f"aggrestab: scheme failure: {exc}", file=sys.stderr)
        return EXIT_SCHEME
    except (NoExistenceTimeError, KernelLoadError, UnsupportedKernelError) as exc:
        print(f"aggrestab: unusable kernel: {exc}", file=sys.stderr)
        return EXIT_BAD_KERNEL
    except InvalidBracketError as exc:
        print(f"aggrestab: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"aggrestab: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AggrestabError as exc:
        print(f"aggrestab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
