"""Config-driven command line front end.

Reads a line-oriented ``key = value`` config, runs the requested driver
and writes deterministic artifacts into the output directory:

* ``results.csv``  one row per cell solve (scaled and raw values,
  iteration counts, convergence flags),
* ``summary.csv``  one row per estimate (extrapolated value, tail gap,
  ensemble statistics),
* ``verify.report``  one line per property check (verify command),
* ``manifest``  key=value record of the config hash, seeds and versions.

Exit status: 0 when all scheduled checks pass and all solves converged,
2 when a check fails, a solve is unconverged (both with artifacts) or a
linear solve broke down (:class:`cellhom.solvers.SolverBreakdown`), 1 on
operational errors.  The output directory is created only once every
solve has returned, so no exit-1 error and no ``SolverBreakdown``
creates it.  Identical (config, seeds) produce byte-identical CSV
artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .homogenise import (
    HomEstimate,
    Schedule,
    estimate_f_hom,
    estimate_f_inf_hom,
    estimate_g_hom,
    mc_expectation,
    subadditive_process_eval,
)
from .geometry import rotation_for_normal
from .integrand import InputDomainError, RandomIntegrandModel, resolve
from .solvers import SolverBreakdown
from .verify import run_suite

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

REPORT_FORMAT_VERSION = 1

ROUTES = ("hom_of_recession", "recession_of_hom")

# command -> (keys it requires, further keys it reads); mc has one entry
# per mc_quantity, and every command also reads command, out and
# format_version.  Setting any other key is a config error.
_COMMAND_KEYS = {
    "fhom": (("xi", "r"), ("integrand", "nu", "h", "k", "center")),
    "finfhom": (("xi", "r"), ("integrand", "nu", "h", "k", "center", "t_schedule", "route")),
    "ghom": (("zeta", "nu", "r"), ("integrand", "h", "center")),
    "mc f_hom": (("xi", "r", "seeds"), ("integrand", "h", "k", "mc_quantity")),
    "mc g_hom": (("zeta", "nu", "r", "seeds"), ("integrand", "h", "mc_quantity")),
    "mu": (("zeta", "nu", "a_prime"), ("integrand", "h")),
    "verify": ((), ()),
    "sweep": (("xi", "zeta", "nu", "r"), ("integrand", "h", "center")),
}
COMMANDS = tuple(dict.fromkeys(entry.split()[0] for entry in _COMMAND_KEYS))

class ConfigError(ValueError):
    """Raised on malformed or incomplete run configs."""


@dataclass
class RunConfig:
    command: str
    integrand: str = "euclid"
    xi: list = field(default_factory=list)  # list of (N, n) arrays
    zeta: list = field(default_factory=list)  # list of (N,) arrays
    nu: tuple = ()
    r_values: tuple = ()
    h: float = 0.25
    k: int = 1
    center: tuple = ()
    seeds: tuple = ()
    t_schedule: tuple = (8.0, 32.0, 128.0)
    route: str = "both"
    a_prime: tuple = ()  # ((lo, hi), ...)
    mc_quantity: str = "f_hom"
    out: str = "runs"
    format_version: int = REPORT_FORMAT_VERSION
    raw_text: str = ""


def _parse_matrix(text):
    rows = [r for r in text.strip().split(";") if r.strip()]
    return np.array([[float(v) for v in r.split(",")] for r in rows])


def _parse_floats(text):
    # an empty entry ('0,,1', '4,8,') does not convert, so it is a parse error
    return tuple(float(v) for v in text.split(","))


def _parse_ints(text):
    return tuple(int(v) for v in text.split(","))


def _parse_intervals(text):
    out = []
    for part in text.split(","):
        lo, hi = part.split(":")
        out.append((float(lo), float(hi)))
    return tuple(out)


# config key -> (RunConfig field, parser); a key whose field is a list
# may repeat, and every occurrence is appended
_CONFIG_KEYS = {
    "command": ("command", str),
    "integrand": ("integrand", str),
    "xi": ("xi", _parse_matrix),
    "zeta": ("zeta", lambda text: np.array(_parse_floats(text))),
    "nu": ("nu", _parse_floats),
    "r": ("r_values", _parse_floats),
    "h": ("h", float),
    "k": ("k", int),
    "center": ("center", _parse_floats),
    "seeds": ("seeds", _parse_ints),
    "t_schedule": ("t_schedule", _parse_floats),
    "route": ("route", str),
    "a_prime": ("a_prime", _parse_intervals),
    "mc_quantity": ("mc_quantity", str),
    "out": ("out", str),
    "format_version": ("format_version", int),
}


def _require_finite(key, values, positive=False):
    flat = [float(x) for v in values for x in np.ravel(v)]
    if bad := [x for x in flat if not (np.isfinite(x) and (x > 0 or not positive))]:
        raise ConfigError(f"{key!r} must be finite{' and positive' if positive else ''}, got {bad[0]!r}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a key=value config.

    Unknown keys, a key the command requires but the text does not set,
    and a key the text sets but the command does not read are rejected.
    """
    cfg = RunConfig(command=None, raw_text=text)
    keys = []  # the keys the text sets, in line order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name, parse = _CONFIG_KEYS[key]
        try:
            value = parse(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse {key!r}: {exc}") from exc
        if isinstance(getattr(cfg, name), list):
            getattr(cfg, name).append(value)
        else:
            setattr(cfg, name, value)
        keys.append(key)

    command = cfg.command
    if command is None:
        raise ConfigError("missing required key 'command'")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    entry = f"mc {cfg.mc_quantity}" if command == "mc" else command
    if entry not in _COMMAND_KEYS:
        raise ConfigError(f"unknown mc quantity {cfg.mc_quantity!r}")
    required, reads = _COMMAND_KEYS[entry]
    if missing := [key for key in required if key not in keys]:
        raise ConfigError(f"command {command!r} requires {missing[0]!r}")
    read = ("command", "out", "format_version", *required, *reads)
    if unread := [key for key in keys if key not in read]:
        raise ConfigError(f"command {command!r} does not read {unread[0]!r}")
    if cfg.format_version != REPORT_FORMAT_VERSION:
        raise ConfigError(f"unsupported report format version {cfg.format_version}")
    # spacings, sizes and recession scales no run can use, and non-finite
    # gradients, jumps, blow-up points and intervals
    for key, values in (("h", (cfg.h,)), ("r", cfg.r_values), ("t_schedule", cfg.t_schedule)):
        _require_finite(key, values, positive=True)
    for key in ("xi", "zeta", "center", "a_prime"):
        _require_finite(key, getattr(cfg, key))
    if cfg.nu:
        try:
            rotation_for_normal(cfg.nu)
        except InputDomainError as exc:
            raise ConfigError(f"'nu': {exc}") from exc
    if cfg.route != "both" and cfg.route not in ROUTES:
        raise ConfigError(f"unknown route {cfg.route!r}; expected 'both' or one of {ROUTES}")
    return cfg


# ----------------------------------------------------------------------
# formatting helpers
# ----------------------------------------------------------------------


def _arg_str(argument):
    parts = []
    for a in argument:
        arr = np.asarray(a)
        parts.append("[" + " ".join(repr(float(v)) for v in arr.reshape(-1)) + "]")
    return ";".join(parts)


RESULTS_HEADER = "quantity,argument,r,seed,scaled_value,raw_value,iterations,converged,trace_len"
SUMMARY_HEADER = (
    "quantity,argument,route,r_values,extrapolated,cauchy_gap,ensemble_mean,"
    "ensemble_std,ensemble_halfwidth95,warnings"
)
DIAGNOSTICS_HEADER = "quantity,argument,r,seed,step,accepted_energy"


def _solves(est: HomEstimate):
    """(r, seed, scaled value, result) of every cell solve of an estimate."""
    if est.ensemble:
        # one solve per seed at the fixed cell size
        r = est.r_values[0]
        for seed, scaled, res in zip(est.ensemble["seeds"], est.ensemble["values"], est.per_r_results, strict=True):
            yield r, seed, scaled, res
    else:
        for r, scaled, res in zip(est.r_values, est.scaled_values, est.per_r_results, strict=True):
            yield r, "", scaled, res


def _summary_row(est: HomEstimate):
    ens = est.ensemble or {}
    return ",".join(
        [
            est.quantity,
            _arg_str(est.argument),
            est.route or "",
            "[" + " ".join(repr(float(r)) for r in est.r_values) + "]",
            repr(float(est.extrapolated)),
            repr(float(est.cauchy_gap)),
            repr(float(ens["mean"])) if ens else "",
            repr(float(ens["std"])) if ens else "",
            repr(float(ens["halfwidth95"])) if ens else "",
            "|".join(est.warnings),
        ]
    )


# ----------------------------------------------------------------------
# command execution
# ----------------------------------------------------------------------


def run(config: RunConfig, out_dir=None) -> int:
    """Execute a parsed config and write artifacts; returns the exit code."""
    out = Path(out_dir if out_dir is not None else config.out)
    estimates: list[HomEstimate] = []
    checks = []
    try:
        integrand_or_model = resolve(config.integrand)
        model = integrand_or_model if isinstance(integrand_or_model, RandomIntegrandModel) else None
        if config.command in ("mc", "mu") and model is None:
            raise ConfigError(f"command {config.command!r} requires a random integrand (checkerboard id)")
        g = integrand_or_model if model is None else model.realise()
        # mu and verify read no r and build no schedule; every other command requires r
        sched = None
        if config.r_values:
            sched = Schedule(config.r_values, config.h, config.k, config.center or None, config.nu or None)

        if config.command in ("fhom", "sweep"):
            estimates += [estimate_f_hom(g, xi, sched) for xi in config.xi]
        if config.command == "finfhom":
            routes = ROUTES if config.route == "both" else (config.route,)
            for route in routes:
                estimates += [estimate_f_inf_hom(g, xi, route, sched, config.t_schedule) for xi in config.xi]
        if config.command in ("ghom", "sweep"):
            estimates += [estimate_g_hom(g, z, config.nu, sched) for z in config.zeta]
        if config.command == "mc":
            arguments = config.xi if config.mc_quantity == "f_hom" else [(z, config.nu) for z in config.zeta]
            estimates += [
                mc_expectation(model, config.mc_quantity, argument, config.seeds, r, config.h, config.k)
                for argument in arguments
                for r in config.r_values
            ]
        if config.command == "mu":
            estimates += [
                subadditive_process_eval(model, zeta, config.nu, config.a_prime, config.h) for zeta in config.zeta
            ]
        if config.command == "verify":
            checks = run_suite()
        out.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:
        # config, domain, precondition and resolution errors all derive
        # from ValueError; report and exit as an operational failure
        print(f"cellhom: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cellhom: I/O failure: {exc}", file=sys.stderr)
        return 1
    except SolverBreakdown as exc:
        print(f"cellhom: {exc}", file=sys.stderr)
        return 2

    # artifacts
    results_lines = [RESULTS_HEADER]
    summary_lines = [SUMMARY_HEADER]
    diag_lines = [DIAGNOSTICS_HEADER]
    for est in estimates:
        arg = _arg_str(est.argument)
        for r, seed, scaled, res in _solves(est):
            head = f"{est.quantity},{arg},{float(r)!r},{seed}"
            results_lines.append(
                f"{head},{float(scaled)!r},{float(res.value)!r},"
                f"{res.iterations},{res.converged},{len(res.energy_trace)}"
            )
            diag_lines.extend(f"{head},{step},{float(e)!r}" for step, e in enumerate(res.energy_trace))
        summary_lines.append(_summary_row(est))
    (out / "results.csv").write_text("\n".join(results_lines) + "\n")
    (out / "summary.csv").write_text("\n".join(summary_lines) + "\n")
    (out / "diagnostics.csv").write_text("\n".join(diag_lines) + "\n")

    if config.command == "verify":
        lines = []
        for c in checks:
            lines.append(
                f"CHECK {c.name} passed={c.passed} margin={c.margin!r} "
                f"tolerance={c.tolerance!r} provenance={c.provenance}"
            )
        (out / "verify.report").write_text("\n".join(lines) + "\n")
        width = max((len(c.name) for c in checks), default=4)
        print(f"{'check':<{width}}  result  margin")
        for c in checks:
            print(f"{c.name:<{width}}  {'PASS' if c.passed else 'FAIL':6s}  {c.margin:+.4g}")

    digest = hashlib.sha256(config.raw_text.encode()).hexdigest()
    manifest = [
        f"config_hash={digest}",
        f"command={config.command}",
        f"format_version={config.format_version}",
        f"cellhom_version={__version__}",
        f"seeds={','.join(str(s) for s in config.seeds)}",
    ]
    (out / "manifest").write_text("\n".join(manifest) + "\n")

    failed_checks = [c for c in checks if not c.passed]
    unconverged = any(not res.converged for est in estimates for res in est.per_r_results)
    unconverged = unconverged or any(not c.converged for c in checks)
    if failed_checks or unconverged:
        for c in failed_checks:
            print(f"cellhom: check failed: {c.name} margin={c.margin:.4g}", file=sys.stderr)
        if unconverged:
            print("cellhom: one or more solves unconverged", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cellhom",
        description="Effective bulk and cohesive surface densities of linear-growth phase-field energies.",
    )
    parser.add_argument("--config", required=True, help="path to a key=value run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cellhom: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"cellhom: config error: {exc}", file=sys.stderr)
        return 1
    return run(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
