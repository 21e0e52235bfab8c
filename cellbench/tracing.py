"""Spans and counters recorded from outside the program.

The benchmark wraps public functions of ``cellhom`` (and the sparse
solve as ``cellhom.solvers`` calls it) in the module namespaces through
which the program calls them.  Each wrapped call records a span: its
kind, start, end, parent span and cell id (the index of the enclosing
cell solve, -1 outside one).  Spans stay in compact arrays in memory
and are written out when the run ends; a span's self time is its
duration minus the time its child spans cover.

``CellTimer`` is the untraced counterpart: it wraps only the cell
solvers and records one wall time per cell.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter

import cellhom
import cellhom.cli
import cellhom.fields
import cellhom.geometry
import cellhom.homogenise
import cellhom.integrand
import cellhom.solvers
import cellhom.verify

MODULES = (
    cellhom,
    cellhom.cli,
    cellhom.fields,
    cellhom.geometry,
    cellhom.homogenise,
    cellhom.integrand,
    cellhom.solvers,
    cellhom.verify,
)

KINDS = (
    "cli.main",
    "cli.parse",
    "cli.run",
    "homogenise.driver",
    "geometry.build",
    "solvers.cell",
    "solvers.u_step",
    "solvers.v_step",
    "solvers.linear",
    "fields.energy",
    "fields.stencil",
    "integrand.eval",
    "integrand.coeff",
)
K = {name: i for i, name in enumerate(KINDS)}

CELL_SOLVERS = ("solve_bulk_cell", "solve_surface_cell")
DRIVERS = (
    "estimate_f_hom",
    "estimate_f_inf_hom",
    "estimate_g_hom",
    "mc_expectation",
    "subadditive_process_eval",
)


def rebind(original, name, wrapper, modules=MODULES):
    """Replace ``original`` by ``wrapper`` wherever a module binds it to ``name``."""
    for mod in modules:
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)


class CellTimer:
    """Wall time of every cell solve, with no other instrumentation."""

    def __init__(self):
        self.times = []

    def install(self):
        for name in CELL_SOLVERS:
            fn = getattr(cellhom.solvers, name)
            rebind(fn, name, self._wrap(fn))
        return self

    def _wrap(self, fn):
        times = self.times

        def timed(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            times.append(perf_counter() - t0)
            return result

        return timed


class Tracer:
    """Span recorder for the traced run."""

    def __init__(self):
        self.kind = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self.stack = []
        self.cell_id = -1
        self.cells_started = 0
        self.counters = dict.fromkeys(
            (
                "artifact_bytes",
                "u_inner_iters",
                "am_accepted",
                "linear_unknowns",
                "repeat_factorisations",
                "coeff_points",
                "nodes",
            ),
            0,
        )
        self._last_matrix = None

    # -- recording -----------------------------------------------------

    def wrap(self, fn, kind, after=None):
        k = K[kind]
        is_cell = kind == "solvers.cell"

        def traced(*args, **kwargs):
            idx = len(self.start)
            outer_cell = self.cell_id
            if is_cell:
                self.cell_id = self.cells_started
                self.cells_started += 1
            self.kind.append(k)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.cell.append(self.cell_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.cell_id = outer_cell
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters taken at the boundaries ---------------------------------

    def _after_run(self, args, kwargs, code):
        out = kwargs.get("out_dir")
        if out is None:
            out = args[1] if len(args) > 1 and args[1] is not None else args[0].out
        for entry in os.scandir(out):
            if entry.is_file():
                self.counters["artifact_bytes"] += entry.stat().st_size

    def _after_u_step(self, args, kwargs, result):
        stats = kwargs.get("stats")
        if stats is None and len(args) > 7:
            stats = args[7]
        if stats:
            self.counters["u_inner_iters"] += stats.get("iterations", 0)

    def _after_cell(self, args, kwargs, result):
        self.counters["am_accepted"] += len(result.energy_trace) - 1

    def _after_build(self, args, kwargs, cell):
        self.counters["nodes"] += cell.num_nodes

    def _linear(self, fn):
        def solve(A, b, *rest, **kwargs):
            self.counters["linear_unknowns"] += A.shape[0]
            if A is self._last_matrix:
                self.counters["repeat_factorisations"] += 1
            self._last_matrix = A
            return fn(A, b, *rest, **kwargs)

        return self.wrap(solve, "solvers.linear")

    def _coeff_field(self, fn):
        def coeff_field(model, points):
            self.counters["coeff_points"] += len(points)
            return fn(model, points)

        return self.wrap(coeff_field, "integrand.coeff")

    # -- installation ---------------------------------------------------

    def install(self):
        cli, hom, sol = cellhom.cli, cellhom.homogenise, cellhom.solvers
        rebind(cli.main, "main", self.wrap(cli.main, "cli.main"))
        rebind(cli.parse_config, "parse_config", self.wrap(cli.parse_config, "cli.parse"))
        rebind(cli.run, "run", self.wrap(cli.run, "cli.run", self._after_run), (cli,))
        for name in DRIVERS:
            fn = getattr(hom, name)
            rebind(fn, name, self.wrap(fn, "homogenise.driver"))
        for name in ("make_cell", "make_box_cell"):
            fn = getattr(cellhom.geometry, name)
            rebind(fn, name, self.wrap(fn, "geometry.build", self._after_build))
        for name in CELL_SOLVERS:
            fn = getattr(sol, name)
            rebind(fn, name, self.wrap(fn, "solvers.cell", self._after_cell))
        # steps, energies, stencils and the sparse solve only as the solvers call them
        steps = (
            ("minimize_u_given_v", "solvers.u_step", self._after_u_step),
            ("minimize_v_given_u", "solvers.v_step", None),
            ("bulk_energy", "fields.energy", None),
            ("surface_energy", "fields.energy", None),
            ("cell_gradient", "fields.stencil", None),
            ("cell_average", "fields.stencil", None),
        )
        for name, kind, after in steps:
            setattr(sol, name, self.wrap(getattr(sol, name), kind, after))
        sol.spsolve = self._linear(sol.spsolve)
        ig = cellhom.integrand
        for name in ("eval_cells", "coeff_cells"):
            setattr(ig.Integrand, name, self.wrap(getattr(ig.Integrand, name), "integrand.eval"))
        ig.RandomIntegrandModel.coeff_field = self._coeff_field(ig.RandomIntegrandModel.coeff_field)
        return self

    # -- output -----------------------------------------------------------

    def self_times(self):
        """Per-span durations and self times (duration minus child spans)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [dur[i] - child[i] for i in range(n)]

    def layer_metrics(self, rounds):
        """The per-layer metrics, per round of the workload."""
        dur, own = self.self_times()
        count = [0] * len(KINDS)
        incl = [0.0] * len(KINDS)
        excl = [0.0] * len(KINDS)
        for i, k in enumerate(self.kind):
            count[k] += 1
            incl[k] += dur[i]
            excl[k] += own[i]

        def c(kind):
            return count[K[kind]]

        def t(kind):
            return incl[K[kind]]

        def s(kind):
            return excl[K[kind]]

        ctr = self.counters
        u_in_cells = sum(1 for i, k in enumerate(self.kind) if k == K["solvers.u_step"] and self.cell[i] >= 0)
        per_round = {
            "cli.parse_s": (t("cli.parse"), "s"),
            "cli.self_s": (s("cli.run") + s("cli.main"), "s"),
            "cli.artifact_bytes": (ctr["artifact_bytes"], "B"),
            "homogenise.estimates": (c("homogenise.driver"), "count"),
            "homogenise.self_s": (s("homogenise.driver"), "s"),
            "solvers.cell_solves": (c("solvers.cell"), "count"),
            "solvers.cell_s": (t("solvers.cell"), "s"),
            "solvers.cell_self_s": (s("solvers.cell"), "s"),
            "solvers.u_steps": (c("solvers.u_step"), "count"),
            "solvers.u_step_s": (t("solvers.u_step"), "s"),
            "solvers.u_step_self_s": (s("solvers.u_step"), "s"),
            "solvers.u_inner_iters": (ctr["u_inner_iters"], "count"),
            "solvers.v_steps": (c("solvers.v_step"), "count"),
            "solvers.v_step_s": (t("solvers.v_step"), "s"),
            "solvers.v_step_self_s": (s("solvers.v_step"), "s"),
            "solvers.am_sweeps": (u_in_cells, "count"),
            "solvers.linear_solves": (c("solvers.linear"), "count"),
            "solvers.linear_solve_s": (t("solvers.linear"), "s"),
            "solvers.repeat_factorisations": (ctr["repeat_factorisations"], "count"),
            "fields.energy_calls": (c("fields.energy"), "count"),
            "fields.energy_s": (s("fields.energy"), "s"),
            "fields.stencil_calls": (c("fields.stencil"), "count"),
            "fields.stencil_s": (s("fields.stencil"), "s"),
            "integrand.eval_calls": (c("integrand.eval"), "count"),
            "integrand.eval_s": (s("integrand.eval"), "s"),
            "integrand.coeff_points": (ctr["coeff_points"], "count"),
            "integrand.coeff_s": (s("integrand.coeff"), "s"),
            "geometry.cells_built": (c("geometry.build"), "count"),
            "geometry.nodes": (ctr["nodes"], "count"),
            "geometry.build_s": (t("geometry.build"), "s"),
        }
        out = {name: {"value": v / rounds, "unit": unit} for name, (v, unit) in per_round.items()}
        # ratios are not per-round quantities
        out["solvers.am_accept_ratio"] = {"value": ctr["am_accepted"] / u_in_cells if u_in_cells else 0.0, "unit": "1"}
        n_lin = c("solvers.linear")
        out["solvers.linear_unknowns_mean"] = {
            "value": ctr["linear_unknowns"] / n_lin if n_lin else 0.0,
            "unit": "count",
        }
        return out

    def write_spans(self, path):
        """One CSV row per span: kind, start, end, parent, cell (times relative to the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span,kind,start_s,end_s,parent,cell\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{KINDS[self.kind[i]]},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                    f"{self.parent[i]},{self.cell[i]}\n"
                )
