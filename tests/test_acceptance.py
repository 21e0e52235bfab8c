"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Every cell solve executed by criteria 1-7 is collected so criterion 8 can
audit the solver invariants (monotone accepted-energy traces, upper-bound
soundness) across the entire run at zero extra solve cost.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

from cellhom.fields import affine_datum, bulk_energy
from cellhom.geometry import make_cell
from cellhom.homogenise import (
    Schedule,
    estimate_f_inf_hom,
    estimate_g_hom,
    lattice_period,
    mc_expectation,
    subadditive_process_eval,
)
from cellhom.integrand import area, euclid, laminate, make_checkerboard, shift
from cellhom.solvers import solve_bulk_cell, solve_surface_cell
from cellhom.verify import check_subadditive_process, run_suite
from cellhom.cli import main as cli_main

E2 = (0.0, 1.0)

COLLECTED = []  # CellResult instances from criteria 1-7


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _collect(results):
    COLLECTED.extend(results)


class TestCriterion1:
    def test_1d_cohesive_law(self):
        t0 = time.time()
        worst = 0.0
        for s in (0.5, 1.0, 2.0, 4.0, 8.0):
            cell = make_cell((0.0,), 16.0, (1.0,), 1, 0.05)
            res = solve_surface_cell(cell, euclid(), [s])
            _collect([res])
            target = 2.0 * s / (s + 2.0)
            worst = max(worst, abs(res.value - target) / target)
        elapsed = time.time() - t0
        ok = worst <= 0.02 and elapsed <= 10.0
        _report(1, ok, f"1D cohesive law: worst rel err {worst:.4%} (tol 2%), {elapsed:.1f}s (limit 10s)")


class TestCriterion2:
    def test_2d_isotropic_surface(self):
        t0 = time.time()
        scaled = []
        for r in (8.0, 16.0):
            cell = make_cell((0.0, 0.0), r, E2, 1, 0.25)
            res = solve_surface_cell(cell, euclid(), [1.0])
            _collect([res])
            scaled.append(res.value / cell.cross_section)
        elapsed = time.time() - t0
        target = 2.0 / 3.0
        within = all(abs(v - target) / target <= 0.15 for v in scaled)
        monotone = scaled[1] <= scaled[0] * 1.02
        ok = within and monotone and elapsed <= 300.0
        _report(
            2,
            ok,
            f"2D isotropic surface: scaled {scaled[0]:.4f}, {scaled[1]:.4f} vs 2/3 "
            f"(tol 15%), non-increasing within 2%: {monotone}, {elapsed:.1f}s (limit 300s)",
        )


class TestCriterion3:
    def test_bulk_exactness(self):
        t0 = time.time()
        worst = 0.0
        xi = np.array([[1.0, 0.0]])
        targets = {"euclid": 1.0, "area": np.sqrt(2.0)}
        for g in (euclid(), area()):
            for r in (4.0, 8.0, 16.0):
                cell = make_cell((0.0, 0.0), r, E2, 1, 0.25)
                res = solve_bulk_cell(cell, g, xi)
                _collect([res])
                worst = max(worst, abs(res.value / cell.volume - targets[g.id]))
        elapsed = time.time() - t0
        ok = worst <= 1e-3 and elapsed <= 30.0
        _report(3, ok, f"bulk exactness: worst abs dev {worst:.2e} (tol 1e-3), {elapsed:.1f}s (limit 30s)")


class TestCriterion4:
    def test_1d_laminate_lp_oracle(self):
        t0 = time.time()
        r, h = 8.0, 0.05
        cell = make_cell((0.0,), r, (1.0,), 1, h)
        g = laminate(1.0, 2.0)
        coeffs = g.coeff_cells(cell.cell_centers_global)
        m = len(coeffs)
        lp = linprog(
            np.concatenate([coeffs * h, coeffs * h]),
            A_eq=np.concatenate([np.full(m, h), np.full(m, -h)])[None, :],
            b_eq=[1.0 * r],
            bounds=[(0, None)] * (2 * m),
            method="highs",
        )
        assert lp.success
        oracle = lp.fun / r
        res = solve_bulk_cell(cell, g, [[1.0]])
        _collect([res])
        est = res.value / cell.volume
        elapsed = time.time() - t0
        ok = abs(est - oracle) / oracle <= 0.10 and elapsed <= 10.0
        _report(4, ok, f"1D laminate: estimate {est:.4f} vs LP oracle {oracle:.4f} (tol 10%), {elapsed:.1f}s (limit 10s)")


class TestCriterion5:
    def test_recession_route_agreement(self):
        t0 = time.time()
        details = []
        ok = True
        sched2d = Schedule((4.0, 8.0), 0.25)
        for g in (euclid(), area()):
            e1 = estimate_f_inf_hom(g, [[1.0, 0.0]], "hom_of_recession", sched2d)
            e2 = estimate_f_inf_hom(g, [[1.0, 0.0]], "recession_of_hom", sched2d)
            _collect(e1.per_r_results + e2.per_r_results)
            rel = abs(e1.extrapolated - e2.extrapolated) / max(abs(e1.extrapolated), 1e-12)
            details.append(f"{g.id}: {rel:.3%}")
            ok = ok and rel <= 0.02
        sched1d = Schedule((8.0, 16.0), 0.05)
        lam = laminate(1.0, 2.0)
        e1 = estimate_f_inf_hom(lam, [[1.0]], "hom_of_recession", sched1d)
        e2 = estimate_f_inf_hom(lam, [[1.0]], "recession_of_hom", sched1d)
        _collect(e1.per_r_results + e2.per_r_results)
        rel = abs(e1.extrapolated - e2.extrapolated) / max(abs(e1.extrapolated), 1e-12)
        details.append(f"laminate: {rel:.3%}")
        ok = ok and rel <= 0.05
        elapsed = time.time() - t0
        ok = ok and elapsed <= 120.0
        _report(5, ok, f"recession routes agree: {', '.join(details)}, {elapsed:.1f}s (limit 120s)")


class TestCriterion6:
    def test_property_suite(self):
        t0 = time.time()
        checks = run_suite()
        failures = [c.name for c in checks if not c.passed]
        elapsed = time.time() - t0
        names = [c.name for c in checks]
        routes, process = names.count("recession-route-agreement"), names.count("interval-process")
        ok = not failures and elapsed <= 600.0 and routes == 3 and process == 1
        _report(
            6,
            ok,
            f"property suite: {len(checks)} checks ({routes} recession-route, {process} interval-process), "
            f"failures: {failures or 'none'}, {elapsed:.1f}s (limit 600s)",
        )


class TestCriterion7:
    def test_stochastic_layer(self):
        t0 = time.time()
        model = make_checkerboard(0, 1.0, 2.0)
        seeds = list(range(1, 9))
        xi = np.array([[1.0, 0.0]])
        stds = {}
        ok = True
        lines = []
        for r in (8.0, 16.0):
            est = mc_expectation(model, "f_hom", xi, seeds, r, h=0.25)
            _collect(est.per_r_results)
            vals = est.ensemble["values"]
            inside = np.all(vals >= 1.0 - 0.03) and np.all(vals <= 2.0 + 0.03)
            ok = ok and inside
            stds[r] = est.ensemble["std"]
            lines.append(f"r={r:g}: values in [{vals.min():.3f},{vals.max():.3f}] std={stds[r]:.4f}")
        spread_shrinks = stds[16.0] <= stds[8.0]
        lines.append(f"std shrink soft gate: {'yes' if spread_shrinks else 'NO (reported, not gated)'}")

        splits = [([(0.0, 2.0)], [[(0.0, 1.0)], [(1.0, 2.0)]])]
        check_e2 = check_subadditive_process(model, [1.0], E2, splits, h=0.25, shifts=[(1,)])
        check_e1 = check_subadditive_process(model, [1.0], (1.0, 0.0), [], h=0.25, shifts=[(1,)])
        ok = ok and check_e2.passed and check_e1.passed
        lines.append(f"interval process margins: {check_e2.margin:.2e}, {check_e1.margin:.2e}")
        elapsed = time.time() - t0
        ok = ok and elapsed <= 900.0
        _report(7, ok, "stochastic layer: " + "; ".join(lines) + f", {elapsed:.1f}s (limit 900s)")


class TestCriterion8:
    def test_solver_invariants_on_collected_runs(self):
        assert COLLECTED, "criteria 1-7 must run before the invariant audit"
        bad_trace = 0
        bad_bound = 0
        for res in COLLECTED:
            tr = res.energy_trace
            if any(b > a + 1e-9 * (1.0 + abs(a)) for a, b in zip(tr, tr[1:])):
                bad_trace += 1
            if res.value > tr[0] + 1e-9 * (1.0 + abs(tr[0])):
                bad_bound += 1
        ok = bad_trace == 0 and bad_bound == 0
        _report(
            8,
            ok,
            f"solver invariants on {len(COLLECTED)} collected solves: "
            f"{bad_trace} non-monotone traces, {bad_bound} upper-bound violations",
        )


class TestCriterion9:
    def test_byte_identical_artifacts(self, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(
            "command = sweep\n"
            "integrand = checkerboard:7,1,2\n"
            "xi = 1,0\n"
            "xi = 0.5,0.5\n"
            "zeta = 1\n"
            "nu = 0,1\n"
            "r = 4,8\n"
            "h = 0.25\n"
        )
        code_a = cli_main(["--config", str(cfg), "--out", str(tmp_path / "a")])
        code_b = cli_main(["--config", str(cfg), "--out", str(tmp_path / "b")])
        same = (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "b" / "results.csv").read_bytes()
        ok = same and code_a == code_b
        _report(9, ok, f"determinism: results.csv byte-identical across runs: {same} (exit {code_a}/{code_b})")
