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
2 when a check fails, a solve is unconverged or a linear solve broke
down (no artifacts are written then), 1 on operational errors.
Identical (config, seeds) produce byte-identical CSV artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor
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
from .integrand import InputDomainError, RandomIntegrandModel, resolve
from .solvers import SolverBreakdown, SolverOptions
from .verify import run_suite

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

REPORT_FORMAT_VERSION = 1

COMMANDS = ("fhom", "finfhom", "ghom", "mc", "mu", "verify", "sweep")

_KNOWN_KEYS = {
    "command",
    "integrand",
    "xi",
    "zeta",
    "nu",
    "r",
    "h",
    "k",
    "center",
    "seeds",
    "t_schedule",
    "route",
    "a_prime",
    "mc_quantity",
    "delta_schedule",
    "am_rel_tol",
    "am_max_iters",
    "inner_tol",
    "u_max_iters",
    "v_floor",
    "tol_scale",
    "include_routes",
    "include_process",
    "out",
    "format_version",
    "jobs",
}


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
    solver: SolverOptions = field(default_factory=SolverOptions)
    tol_scale: float = 1.0
    include_routes: bool = False
    include_process: bool = False
    out: str = "runs"
    format_version: int = REPORT_FORMAT_VERSION
    jobs: int = 1
    raw_text: str = ""


def _parse_matrix(text):
    rows = [r for r in text.strip().split(";") if r.strip()]
    return np.array([[float(v) for v in r.split(",")] for r in rows])


def _parse_floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_intervals(text):
    out = []
    for part in text.split(","):
        lo, hi = part.split(":")
        out.append((float(lo), float(hi)))
    return tuple(out)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a key=value config; unknown keys are rejected."""
    values = {}
    xi_list, zeta_list = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key == "xi":
                xi_list.append(_parse_matrix(val))
            elif key == "zeta":
                zeta_list.append(np.array([float(v) for v in val.split(",")]))
            else:
                values[key] = val
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"line {lineno}: cannot parse {key!r}: {exc}") from exc

    if "command" not in values:
        raise ConfigError("missing required key 'command'")
    command = values.pop("command")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")

    cfg = RunConfig(command=command, xi=xi_list, zeta=zeta_list, raw_text=text)
    solver_kwargs = {}
    try:
        for key, val in values.items():
            if key == "integrand":
                cfg.integrand = val
            elif key == "nu":
                cfg.nu = _parse_floats(val)
            elif key == "r":
                cfg.r_values = _parse_floats(val)
            elif key == "h":
                cfg.h = float(val)
            elif key == "k":
                cfg.k = int(val)
            elif key == "center":
                cfg.center = _parse_floats(val)
            elif key == "seeds":
                cfg.seeds = tuple(int(v) for v in val.split(","))
            elif key == "t_schedule":
                cfg.t_schedule = _parse_floats(val)
            elif key == "route":
                cfg.route = val
            elif key == "a_prime":
                cfg.a_prime = _parse_intervals(val)
            elif key == "mc_quantity":
                cfg.mc_quantity = val
            elif key == "delta_schedule":
                solver_kwargs["delta_schedule"] = _parse_floats(val)
            elif key == "am_rel_tol":
                solver_kwargs["am_rel_tol"] = float(val)
            elif key == "am_max_iters":
                solver_kwargs["am_max_iters"] = int(val)
            elif key == "inner_tol":
                solver_kwargs["inner_tol"] = float(val)
            elif key == "u_max_iters":
                solver_kwargs["u_max_iters"] = int(val)
            elif key == "v_floor":
                solver_kwargs["v_floor"] = float(val)
            elif key == "tol_scale":
                cfg.tol_scale = float(val)
            elif key == "include_routes":
                cfg.include_routes = val.lower() in ("1", "true", "yes")
            elif key == "include_process":
                cfg.include_process = val.lower() in ("1", "true", "yes")
            elif key == "out":
                cfg.out = val
            elif key == "format_version":
                cfg.format_version = int(val)
            elif key == "jobs":
                cfg.jobs = int(val)
    except (ValueError, InputDomainError) as exc:
        raise ConfigError(f"invalid value for {key!r}: {exc}") from exc
    if solver_kwargs:
        cfg.solver = SolverOptions(**solver_kwargs)

    if cfg.format_version != REPORT_FORMAT_VERSION:
        raise ConfigError(f"unsupported report format version {cfg.format_version}")
    if command in ("fhom", "finfhom", "sweep") and not cfg.xi:
        raise ConfigError(f"command {command!r} requires at least one 'xi'")
    if command in ("ghom", "mu") and not cfg.zeta:
        raise ConfigError(f"command {command!r} requires at least one 'zeta'")
    if command == "mc":
        if not cfg.seeds:
            raise ConfigError("command 'mc': seeds required")
        if cfg.mc_quantity == "f_hom" and not cfg.xi:
            raise ConfigError("command 'mc' with f_hom requires 'xi'")
        if cfg.mc_quantity == "g_hom" and (not cfg.zeta or not cfg.nu):
            raise ConfigError("command 'mc' with g_hom requires 'zeta' and 'nu'")
        if cfg.mc_quantity not in ("f_hom", "g_hom"):
            raise ConfigError(f"unknown mc quantity {cfg.mc_quantity!r}")
    if command == "sweep" and not cfg.zeta:
        raise ConfigError("command 'sweep' requires at least one 'zeta'")
    if command in ("fhom", "finfhom", "ghom", "mc", "sweep") and not cfg.r_values:
        raise ConfigError(f"command {command!r} requires a non-empty 'r' schedule")
    if command == "mu" and not cfg.a_prime:
        raise ConfigError("command 'mu' requires 'a_prime'")
    return cfg


# ----------------------------------------------------------------------
# formatting helpers
# ----------------------------------------------------------------------


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (np.floating,)):
        return repr(float(x))
    return str(x)


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


def _one_row(est, r, seed, scaled, res):
    return ",".join(
        [
            est.quantity,
            _arg_str(est.argument),
            _fmt(float(r)),
            str(seed),
            _fmt(float(scaled)),
            _fmt(float(res.value)),
            str(res.iterations),
            str(res.converged),
            str(len(res.energy_trace)),
        ]
    )


def _results_rows(est: HomEstimate):
    rows = []
    if est.ensemble:
        # one row per seed at the fixed cell size
        r = est.r_values[0]
        for seed, val, res in zip(est.ensemble["seeds"], est.ensemble["values"], est.per_r_results):
            rows.append(_one_row(est, r, seed, val, res))
        return rows
    scaled = est.scaled_values
    for i, res in enumerate(est.per_r_results):
        r = est.r_values[i] if i < len(est.r_values) else est.r_values[-1]
        sc = scaled[i] if i < len(scaled) else float("nan")
        rows.append(_one_row(est, r, "", sc, res))
    return rows


def _diagnostic_rows(est: HomEstimate):
    """One row per accepted energy along each solve's trace."""
    rows = []
    seeds = est.ensemble["seeds"] if est.ensemble else [""] * len(est.per_r_results)
    for i, res in enumerate(est.per_r_results):
        r = est.r_values[min(i, len(est.r_values) - 1)]
        seed = seeds[i] if i < len(seeds) else ""
        for step, energy in enumerate(res.energy_trace):
            rows.append(
                ",".join(
                    [est.quantity, _arg_str(est.argument), _fmt(float(r)), str(seed), str(step), _fmt(float(energy))]
                )
            )
    return rows


def _summary_row(est: HomEstimate):
    ens = est.ensemble or {}
    return ",".join(
        [
            est.quantity,
            _arg_str(est.argument),
            est.route or "",
            "[" + " ".join(_fmt(float(r)) for r in est.r_values) + "]",
            _fmt(float(est.extrapolated)),
            _fmt(float(est.cauchy_gap)),
            _fmt(float(ens["mean"])) if ens else "",
            _fmt(float(ens["std"])) if ens else "",
            _fmt(float(ens["halfwidth95"])) if ens else "",
            "|".join(est.warnings),
        ]
    )


# ----------------------------------------------------------------------
# command execution
# ----------------------------------------------------------------------


def _parallel_map(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def run(config: RunConfig, out_dir=None, jobs=None, tol_scale=None) -> int:
    """Execute a parsed config and write artifacts; returns the exit code."""
    jobs = config.jobs if jobs is None else jobs
    tol_scale = config.tol_scale if tol_scale is None else tol_scale
    out = Path(out_dir if out_dir is not None else config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cellhom: cannot create output directory: {exc}", file=sys.stderr)
        return 1

    estimates: list[HomEstimate] = []
    mu_rows: list[str] = []
    checks = []
    opts = config.solver
    try:
        integrand_or_model = resolve(config.integrand)
        if isinstance(integrand_or_model, RandomIntegrandModel):
            model = integrand_or_model
            g = model.realise()
        else:
            model = None
            g = integrand_or_model
        nu = config.nu or None
        sched = Schedule(config.r_values or (4.0, 8.0), config.h, config.k, config.center or None, nu)

        if config.command in ("fhom", "sweep"):
            estimates += _parallel_map(lambda xi: estimate_f_hom(g, xi, sched, opts), config.xi, jobs)
        if config.command == "finfhom":
            routes = ("hom_of_recession", "recession_of_hom") if config.route == "both" else (config.route,)
            for route in routes:
                estimates += _parallel_map(
                    lambda xi, rt=route: estimate_f_inf_hom(g, xi, rt, sched, opts, config.t_schedule),
                    config.xi,
                    jobs,
                )
        if config.command in ("ghom", "sweep"):
            ginf = g.recession_integrand()
            if not config.nu:
                raise ConfigError(f"command {config.command!r} requires 'nu'")
            estimates += _parallel_map(
                lambda z: estimate_g_hom(ginf, z, config.nu, sched, opts), config.zeta, jobs
            )
        if config.command == "mc":
            if model is None:
                raise ConfigError("command 'mc' requires a random integrand (checkerboard id)")
            argument = config.xi[0] if config.mc_quantity == "f_hom" else (config.zeta[0], config.nu)
            for r in config.r_values:
                est = mc_expectation(
                    model, config.mc_quantity, argument, config.seeds, r, config.h, opts, config.k
                )
                estimates.append(est)
        if config.command == "mu":
            if model is None:
                raise ConfigError("command 'mu' requires a random integrand (checkerboard id)")
            if not config.nu:
                raise ConfigError("command 'mu' requires 'nu'")
            for zeta in config.zeta:
                val = subadditive_process_eval(model, zeta, config.nu, config.a_prime, opts, config.h)
                mu_rows.append(
                    ",".join(
                        [
                            "mu",
                            _arg_str((zeta, np.asarray(config.nu))),
                            _fmt(float(0.0)),
                            "",
                            _fmt(float(val)),
                            _fmt(float(val)),
                            "0",
                            "True",
                            "0",
                        ]
                    )
                )
        if config.command == "verify":
            checks = run_suite(
                tol_scale=tol_scale,
                opts=opts,
                include_routes=config.include_routes,
                include_process=config.include_process,
            )
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
        results_lines.extend(_results_rows(est))
        summary_lines.append(_summary_row(est))
        diag_lines.extend(_diagnostic_rows(est))
    results_lines.extend(mu_rows)
    (out / "results.csv").write_text("\n".join(results_lines) + "\n")
    (out / "summary.csv").write_text("\n".join(summary_lines) + "\n")
    (out / "diagnostics.csv").write_text("\n".join(diag_lines) + "\n")

    if config.command == "verify":
        lines = []
        for c in checks:
            lines.append(
                f"CHECK {c.name} passed={c.passed} margin={_fmt(c.margin)} "
                f"tolerance={_fmt(c.tolerance)} provenance={c.provenance}"
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
        f"jobs={jobs}",
        f"tol_scale={_fmt(tol_scale)}",
    ]
    (out / "manifest").write_text("\n".join(manifest) + "\n")

    failed_checks = [c for c in checks if not c.passed]
    unconverged = any(not res.converged for est in estimates for res in est.per_r_results)
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
    parser.add_argument("--jobs", type=int, default=None, help="worker pool size")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed-override", type=int, default=None, help="replace the seed list")
    parser.add_argument("--tol-scale", type=float, default=None, help="scale verification tolerances")
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
    if args.seed_override is not None:
        # rebase the seed list, preserving the ensemble size
        width = max(len(config.seeds), 1)
        config.seeds = tuple(args.seed_override + i for i in range(width))
        config.raw_text += f"\n# seed-override={args.seed_override}\n"
    return run(config, out_dir=args.out, jobs=args.jobs, tol_scale=args.tol_scale)


if __name__ == "__main__":
    sys.exit(main())
