import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cellhom.solvers
from cellhom.cli import _CONFIG_KEYS, ConfigError, main, parse_config, run

MINIMAL_FHOM = """
command = fhom
integrand = euclid
xi = 1,0
r = 4,8
"""

CHECKERBOARD = "integrand = checkerboard:3,1,2\n"

MINIMAL_MU = """
command = mu
integrand = checkerboard:3,1,2
zeta = 1
nu = 0,1
a_prime = 0:1
h = 0.25
"""


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL_FHOM)
        assert cfg.command == "fhom"
        assert cfg.h == 0.25 and cfg.k == 1
        assert len(cfg.xi) == 1
        np.testing.assert_allclose(cfg.xi[0], [[1.0, 0.0]])
        assert cfg.r_values == (4.0, 8.0)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="foo"):
            parse_config("command = fhom\nfoo = 1\n")

    def test_unknown_key_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("command = fhom\nxi = 1,0\nbar = 2\n")

    def test_mc_without_seeds(self):
        with pytest.raises(ConfigError, match="command 'mc' requires 'seeds'"):
            parse_config("command = mc\nintegrand = checkerboard:1,1,2\nxi = 1,0\nr = 4\n")

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config("command = homogenize\n")

    def test_matrix_rows(self):
        cfg = parse_config("command = fhom\nxi = 1,0;0,1\nr = 4\n")
        assert cfg.xi[0].shape == (2, 2)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\ncommand = fhom\nxi = 1,0  # trailing\nr = 4\n")
        assert cfg.command == "fhom"

    # include_routes and include_process are gone (run_suite always runs the
    # route and process checks), so any value, well formed or not, is an unknown key
    @pytest.mark.parametrize("value", ["ture", "2", "on", ""])
    def test_bad_flag_value(self, value):
        with pytest.raises(ConfigError, match="line 6: unknown key 'include_routes'"):
            parse_config(MINIMAL_FHOM + f"include_routes = {value}\n")

    # the ids name the value each spelling parsed to before the key was deleted
    @pytest.mark.parametrize(
        "value",
        ["YES", "True", "1", "No", "FALSE", "0"],
        ids=["YES-True", "True-True", "1-True", "No-False", "FALSE-False", "0-False"],
    )
    def test_flag_values(self, value):
        with pytest.raises(ConfigError, match="line 6: unknown key 'include_process'"):
            parse_config(MINIMAL_FHOM + f"include_process = {value}\n")

    def test_format_version_check(self):
        with pytest.raises(ConfigError, match="format version"):
            parse_config(MINIMAL_FHOM + "format_version = 99\n")

    def test_every_key_off_default(self):
        # each key is set under a command that reads it
        cfg = parse_config(
            """
command = finfhom
integrand = area
xi = 1,0
xi = 0,2
nu = 0.6,0.8
r = 2,4
h = 0.5
k = 3
center = 0.5,0.25
t_schedule = 4,16
route = hom_of_recession
out = runs/x
format_version = 1
"""
        )
        assert cfg.command == "finfhom" and cfg.integrand == "area"
        assert [x.tolist() for x in cfg.xi] == [[[1.0, 0.0]], [[0.0, 2.0]]]
        assert cfg.nu == (0.6, 0.8) and cfg.r_values == (2.0, 4.0) and cfg.h == 0.5 and cfg.k == 3
        assert cfg.center == (0.5, 0.25) and cfg.t_schedule == (4.0, 16.0)
        assert cfg.route == "hom_of_recession"
        assert cfg.out == "runs/x" and cfg.format_version == 1
        mu = parse_config(CHECKERBOARD + "command = mu\nzeta = 1,2\nzeta = 3,4\nnu = 0,0.6,0.8\na_prime = 0:1,2:3\n")
        assert [z.tolist() for z in mu.zeta] == [[1.0, 2.0], [3.0, 4.0]]
        assert mu.a_prime == ((0.0, 1.0), (2.0, 3.0))
        mc = parse_config(CHECKERBOARD + "command = mc\nmc_quantity = g_hom\nzeta = 1\nnu = 0,1\nr = 4\nseeds = 7,8\n")
        assert mc.mc_quantity == "g_hom" and mc.seeds == (7, 8)

    def test_readme_config_examples_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        for block in blocks:
            parse_config(block)
        # together the examples show every key
        assert {key for block in blocks for key in re.findall(r"^(\w+) =", block, flags=re.M)} == set(_CONFIG_KEYS)


class TestRun:
    def test_factorisation_breakdown_exit_two(self, tmp_path, monkeypatch, capsys):
        def fail(ab, b, **kwargs):
            return ab, b, 2  # LAPACK's info: the 2nd leading minor is not positive definite

        monkeypatch.setattr(cellhom.solvers, "dpbsv", fail)
        code = run(parse_config(MINIMAL_FHOM), out_dir=tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err.startswith("cellhom: banded factorisation failed")

    def test_fhom_artifacts(self, tmp_path):
        cfg = parse_config(MINIMAL_FHOM)
        code = run(cfg, out_dir=tmp_path / "out")
        assert code == 0
        results = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert results[0].startswith("quantity,argument,r,seed")
        assert len(results) == 3
        manifest = (tmp_path / "out" / "manifest").read_text()
        assert "config_hash=" in manifest and "format_version=1" in manifest

    def test_ghom_zero_jump_row(self, tmp_path):
        cfg = parse_config("command = ghom\nintegrand = euclid\nzeta = 0\nnu = 0,1\nr = 4\n")
        code = run(cfg, out_dir=tmp_path / "out")
        assert code == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert len(summary) == 2
        assert float(summary[1].split(",")[4]) == pytest.approx(0.0, abs=1e-8)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config(MINIMAL_FHOM)
        run(cfg, out_dir=tmp_path / "a")
        run(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "b" / "results.csv").read_bytes()
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (tmp_path / "b" / "summary.csv").read_bytes()

    def test_mu_command(self, tmp_path):
        code = run(parse_config(MINIMAL_MU), out_dir=tmp_path / "out")
        assert code == 0
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert rows[1].startswith("mu,")
        assert int(rows[1].split(",")[6]) > 0

    def test_unconverged_mu_exits_two(self, tmp_path, monkeypatch):
        # one sweep per smoothing level cannot meet the level's decrease test
        monkeypatch.setattr(cellhom.solvers, "AM_MAX_ITERS", 1)
        code = run(parse_config(MINIMAL_MU), out_dir=tmp_path / "out")
        assert code == 2
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert fields[7] == "False"
        diagnostics = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
        assert int(fields[8]) == len(diagnostics) > 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[1].startswith("mu,") and "unconverged" in summary[1]

    def test_mc_ghom_rows(self, tmp_path):
        cfg = parse_config(
            "command = mc\nintegrand = checkerboard:3,1,2\nmc_quantity = g_hom\n"
            "zeta = 1\nnu = 0,1\nr = 2\nh = 0.5\nseeds = 1,2\n"
        )
        code = run(cfg, out_dir=tmp_path / "out")
        assert code in (0, 2)  # 2 allowed: tiny cells may flag unconverged
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [
            ["g_hom", "[1.0];[0.0 1.0]", "2.0", "1"],
            ["g_hom", "[1.0];[0.0 1.0]", "2.0", "2"],
        ]
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[1].startswith("g_hom,[1.0];[0.0 1.0],,[2.0],")

    def test_mc_every_argument(self, tmp_path):
        cfg = parse_config(
            "command = mc\nintegrand = checkerboard:0,1,2\nmc_quantity = f_hom\n"
            "xi = 1,0\nxi = 0,1\nr = 2\nh = 0.5\nseeds = 1,2\n"
        )
        code = run(cfg, out_dir=tmp_path / "out")
        assert code in (0, 2)  # 2 allowed: tiny cells may flag unconverged
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [
            ["f_hom", "[1.0 0.0]", "2.0", "1"],
            ["f_hom", "[1.0 0.0]", "2.0", "2"],
            ["f_hom", "[0.0 1.0]", "2.0", "1"],
            ["f_hom", "[0.0 1.0]", "2.0", "2"],
        ]
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:2] for line in summary] == [["f_hom", "[1.0 0.0]"], ["f_hom", "[0.0 1.0]"]]

    def test_sweep_combines_quantities(self, tmp_path):
        cfg = parse_config(
            "command = sweep\nintegrand = euclid\nxi = 1,0\nzeta = 1\nnu = 0,1\nr = 4\nh = 0.5\n"
        )
        code = run(cfg, out_dir=tmp_path / "out")
        assert code == 0
        quantities = {line.split(",")[0] for line in (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]}
        assert quantities == {"f_hom", "g_hom"}


class TestVerifyCommand:
    def _fake_checks(self, all_pass):
        from cellhom.verify import PropertyCheck

        return [
            PropertyCheck.of("alpha", -0.1, 0.0, "prov-a"),
            PropertyCheck.of("beta", -0.2 if all_pass else 0.3, 0.0, "prov-b"),
        ]

    def test_report_written_and_exit_zero(self, tmp_path, monkeypatch):
        import cellhom.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_suite", lambda: self._fake_checks(True))
        cfg = parse_config("command = verify\n")
        assert run(cfg, out_dir=tmp_path / "out") == 0
        report = (tmp_path / "out" / "verify.report").read_text().splitlines()
        assert len(report) == 2
        assert report[0].startswith("CHECK alpha passed=True")

    def test_failed_check_exit_two(self, tmp_path, monkeypatch):
        import cellhom.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_suite", lambda: self._fake_checks(False))
        cfg = parse_config("command = verify\n")
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert "passed=False" in (tmp_path / "out" / "verify.report").read_text()

    def test_unconverged_check_exit_two(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        import cellhom.cli as cli_mod

        def fake():
            alpha, beta = self._fake_checks(True)
            return [alpha, dataclasses.replace(beta, converged=False)]

        monkeypatch.setattr(cli_mod, "run_suite", fake)
        cfg = parse_config("command = verify\n")
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert "one or more solves unconverged" in capsys.readouterr().err
        report = (tmp_path / "out" / "verify.report").read_text().splitlines()
        assert report[1].startswith("CHECK beta passed=True")

    def test_tol_scale_forwarded(self, tmp_path, monkeypatch, capsys):
        # the suite's tolerances are fixed: --tol-scale is a usage error and the suite never runs
        import cellhom.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "run_suite", lambda: calls.append(1) or [])
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("command = verify\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "--tol-scale", "2.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol-scale 2.5" in capsys.readouterr().err
        assert not calls and not (tmp_path / "out").exists()


class TestMain:
    def test_missing_config_file(self):
        assert main(["--config", "/nonexistent/path.cfg"]) == 1

    def test_end_to_end(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL_FHOM)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_config_error_exit(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("command = fhom\nfoo = 1\n")
        assert main(["--config", str(cfg_path)]) == 1

    # the solver settings are constants of cellhom.solvers, and the verify
    # suite's tolerances and checks are fixed; none is a config key
    @pytest.mark.parametrize(
        "line",
        [
            "delta_schedule = 0.01,0.1",
            "am_max_iters = 7",
            "am_rel_tol = 1e-5",
            "inner_tol = 1e-4",
            "u_max_iters = 9",
            "v_floor = 1.5",
            "tol_scale = 2",
            "include_routes = yes",
            "include_process = 1",
        ],
    )
    def test_bad_solver_value_is_config_error(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL_FHOM + line + "\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == f"cellhom: config error: line 6: unknown key {key!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, integrand, error",
        [
            ("mc", "euclid", "command 'mc' requires a random integrand (checkerboard id)"),
            ("fhom", "nosuch", "unknown integrand id 'nosuch'"),
        ],
        ids=["mc-deterministic", "unknown-integrand"],
    )
    def test_unusable_integrand_leaves_no_output(self, tmp_path, capsys, command, integrand, error):
        cfg_path = tmp_path / "run.cfg"
        seeds = "seeds = 1,2\n" if command == "mc" else ""
        cfg_path.write_text(f"command = {command}\nintegrand = {integrand}\nxi = 1,0\nr = 4\n{seeds}")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"cellhom: {error}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_route_leaves_no_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("command = finfhom\nintegrand = euclid\nxi = 1,0\nr = 4\nroute = foo\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("cellhom: config error: unknown route 'foo'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ghom", "sweep", "mu"])
    def test_missing_nu_is_config_error(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"command = {command}\nintegrand = checkerboard:3,1,2\nxi = 1,0\nzeta = 1\nr = 4\na_prime = 0:1\n"
        )
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"cellhom: config error: command {command!r} requires 'nu'\n"
        assert not (tmp_path / "out").exists()

    # surface cells are k = 1 cubes, mc and mu centre every cell at 0, and only mc reads seeds
    @pytest.mark.parametrize(
        "config, error",
        [
            (CHECKERBOARD + "command = ghom\nzeta = 1\nnu = 0,1\nr = 4\nk = 3\n", "command 'ghom' does not read 'k'"),
            (
                CHECKERBOARD + "command = sweep\nxi = 1,0\nzeta = 1\nnu = 0,1\nr = 4\nk = 2\n",
                "command 'sweep' does not read 'k'",
            ),
            (CHECKERBOARD + "command = mu\nzeta = 1\nnu = 0,1\na_prime = 0:1\nk = 2\n", "command 'mu' does not read 'k'"),
            (
                CHECKERBOARD + "command = mc\nmc_quantity = g_hom\nzeta = 1\nnu = 0,1\nr = 4\nseeds = 1,2\nk = 2\n",
                "command 'mc' does not read 'k'",
            ),
            (
                CHECKERBOARD + "command = mc\nxi = 1,0\nr = 4\nseeds = 1,2\ncenter = 0.37,0.21\n",
                "command 'mc' does not read 'center'",
            ),
            (
                CHECKERBOARD + "command = mu\nzeta = 1\nnu = 0,1\na_prime = 0:1\ncenter = 0.5,0\n",
                "command 'mu' does not read 'center'",
            ),
            (CHECKERBOARD + "command = fhom\nxi = 1,0\nr = 4\nseeds = 7,8\n", "command 'fhom' does not read 'seeds'"),
            ("command = verify\nseeds = 7,8\n", "command 'verify' does not read 'seeds'"),
        ],
        ids=["ghom-k", "sweep-k", "mu-k", "mc-ghom-k", "mc-center", "mu-center", "fhom-seeds", "verify-seeds"],
    )
    def test_ignored_geometry_key_is_config_error(self, tmp_path, capsys, config, error):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"cellhom: config error: {error}\n"
        assert not (tmp_path / "out").exists()

    # keys the command does not read, whatever their value
    @pytest.mark.parametrize(
        "config, error",
        [
            ("command = ghom\nzeta = 1\nnu = 0,1\nr = 4\nt_schedule = 4,16\n", "command 'ghom' does not read 't_schedule'"),
            ("command = ghom\nzeta = 1\nnu = 0,1\nr = 4\nroute = recession_of_hom\n", "command 'ghom' does not read 'route'"),
            ("command = ghom\nzeta = 1\nnu = 0,1\nr = 4\na_prime = 0:1\n", "command 'ghom' does not read 'a_prime'"),
            ("command = ghom\nzeta = 1\nnu = 0,1\nr = 4\nmc_quantity = g_hom\n", "command 'ghom' does not read 'mc_quantity'"),
            (
                CHECKERBOARD + "command = mc\nmc_quantity = f_hom\nxi = 1,0\nr = 4\nseeds = 1,2\nnu = 0.6,0.8\n",
                "command 'mc' does not read 'nu'",
            ),
            ("command = verify\nintegrand = euclid\n", "command 'verify' does not read 'integrand'"),
        ],
        ids=["ghom-t_schedule", "ghom-route", "ghom-a_prime", "ghom-mc_quantity", "mc-fhom-nu", "verify-integrand"],
    )
    def test_unread_key_leaves_no_output(self, tmp_path, capsys, config, error):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"cellhom: config error: {error}\n"
        assert not (tmp_path / "out").exists()

    # each would fail inside a solve, after the output directory exists
    @pytest.mark.parametrize(
        "config, error",
        [
            ("command = fhom\nxi = 1,0\nr = 4\nh = 0\n", "'h' must be finite and positive, got 0.0"),
            ("command = fhom\nxi = 1,0\nr = 4\nh = -0.25\n", "'h' must be finite and positive, got -0.25"),
            ("command = fhom\nxi = 1,0\nr = 4\nh = nan\n", "'h' must be finite and positive, got nan"),
            ("command = fhom\nxi = 1,0\nr = 4,0\n", "'r' must be finite and positive, got 0.0"),
            (
                "command = finfhom\nxi = 1,0\nr = 4\nroute = recession_of_hom\nt_schedule = 0,8\n",
                "'t_schedule' must be finite and positive, got 0.0",
            ),
            ("command = ghom\nzeta = 1\nnu = 0,2\nr = 4\n", "'nu': normal must be a unit vector, |nu| = 2"),
            ("command = ghom\nzeta = 1\nnu = nan,1\nr = 4\n", "'nu': normal must be a unit vector, |nu| = nan"),
            (
                "command = ghom\nzeta = 1\nnu = 0,,1\nr = 4\n",
                "line 3: cannot parse 'nu': could not convert string to float: ''",
            ),
            ("command = fhom\nxi = 1,0\nr = 4,8,\n", "line 3: cannot parse 'r': could not convert string to float: ''"),
        ],
        ids=["h-zero", "h-negative", "h-nan", "r-zero", "t-zero", "nu-not-unit", "nu-nan", "nu-empty-entry", "r-trailing-comma"],
    )
    def test_unusable_size_leaves_no_output(self, tmp_path, capsys, config, error):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"cellhom: config error: {error}\n"
        assert not (tmp_path / "out").exists()

    # each passed the parser and failed in the library, after the output directory existed
    @pytest.mark.parametrize(
        "config, error",
        [
            ("command = fhom\nxi = 1,nan\nr = 4\n", "'xi' must be finite, got nan"),
            ("command = ghom\nzeta = inf\nnu = 0,1\nr = 4\n", "'zeta' must be finite, got inf"),
            ("command = fhom\nxi = 1,0\nr = 4\ncenter = nan,0\n", "'center' must be finite, got nan"),
            (
                "command = mu\nintegrand = checkerboard:3,1,2\nzeta = 1\nnu = 0,1\na_prime = 0:inf\n",
                "'a_prime' must be finite, got inf",
            ),
        ],
        ids=["xi", "zeta", "center", "a_prime"],
    )
    def test_non_finite_value_leaves_no_output(self, tmp_path, capsys, config, error):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"cellhom: config error: {error}\n"
        assert not (tmp_path / "out").exists()

    # each fails in the library; the output directory is made only after the solves return
    @pytest.mark.parametrize(
        "config, error",
        [
            ("command = fhom\nxi = 1,0\nr = 4\nk = 0\n", "elongation k must be a positive integer"),
            (CHECKERBOARD + "command = mc\nxi = 1,0\nr = 4\nseeds = 1\n", "Monte Carlo needs at least 2 seeds"),
            (
                CHECKERBOARD + "command = mc\nxi = 1,0\nr = 2\nh = 0.5\nseeds = 5,5\n",
                "Monte Carlo seeds must be distinct, got [5, 5]",
            ),
            ("command = fhom\nxi = 1,0\nr = 8,4\n", "r_values must be increasing and non-empty"),
            ("command = fhom\nxi = 1,0,0\nnu = 0,1\nr = 4\n", "gradient dimension 3 does not match normal dimension 2"),
            (
                CHECKERBOARD + "command = mu\nzeta = 1\nnu = 0,1\na_prime = 1:0\n",
                "a_prime must be n-1 nonempty half-open intervals",
            ),
            (
                CHECKERBOARD + "command = mu\nzeta = 1\nnu = 0,1\na_prime = 0:1,0:1\n",
                "a_prime must be n-1 nonempty half-open intervals",
            ),
            (
                CHECKERBOARD + "command = mu\nzeta = 1\nnu = 0.7071067811865476,0.7071067811865476\na_prime = 0:1\n",
                "no integer multiple of the rotation for nu=[0.70710678 0.70710678] within cap 64",
            ),
        ],
        ids=[
            "k-zero", "one-seed", "repeated-seed", "r-decreasing", "xi-nu-dims", "a_prime-empty", "a_prime-two",
            "mu-irrational",
        ],
    )
    def test_library_error_leaves_no_output(self, tmp_path, capsys, config, error):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"cellhom: {error}\n"
        assert not (tmp_path / "out").exists()

    def test_mc_bulk_reads_k(self):
        cfg = parse_config("command = mc\nintegrand = checkerboard:3,1,2\nxi = 1,0\nr = 4\nseeds = 1,2\nk = 2\n")
        assert cfg.k == 2

    def test_seed_override_rebases_list(self, tmp_path, capsys):
        # --seed-override is gone; the config's seeds list is the only way to rebase the seeds
        cfg_path = tmp_path / "run.cfg"
        cfg_text = "command = mc\nintegrand = checkerboard:3,1,2\nmc_quantity = f_hom\nxi = 1,0\nr = 4\nh = 0.5\n"
        cfg_path.write_text(cfg_text + "seeds = 1,2\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "--seed-override", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed-override 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        cfg_path.write_text(cfg_text + "seeds = 5,6\n")
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code in (0, 2)  # 2 allowed: tiny cells may flag unconverged
        manifest = (tmp_path / "out" / "manifest").read_text()
        assert "seeds=5,6" in manifest
        results = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in results] == ["5", "6"]
        diagnostics = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
        assert diagnostics and {row.split(",")[3] for row in diagnostics} == {"5", "6"}

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    @pytest.mark.parametrize("via", ["key", "flag"])
    def test_unusable_tol_scale_leaves_no_output(self, tmp_path, capsys, value, via):
        # tol_scale is no longer settable, so no value (a NaN loses every comparison) reaches a check
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("command = verify\n" + (f"tol_scale = {value}\n" if via == "key" else ""))
        argv = ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
        if via == "key":
            assert main(argv) == 1
            assert capsys.readouterr().err == "cellhom: config error: line 2: unknown key 'tol_scale'\n"
        else:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--tol-scale=" + value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: --tol-scale={value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config", [MINIMAL_FHOM, MINIMAL_MU, "command = verify\n"], ids=["fhom", "mu", "verify"])
    def test_seed_override_needs_mc(self, tmp_path, capsys, config):
        # the flag is deleted for every command, mc included (test_deleted_flag_is_usage_error)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config + "seeds = 7,8,9\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "--seed-override", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed-override 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [["--tol-scale", "2"], ["--seed-override", "5"]], ids=["tol-scale", "seed-override"])
    def test_deleted_flag_is_usage_error(self, tmp_path, capsys, flag):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("command = mc\nintegrand = checkerboard:3,1,2\nxi = 1,0\nr = 4\nseeds = 1,2\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_import_pins_blas_threads_unless_set():
    # a fresh interpreter, since numpy reads these variables when it loads
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    script = "import os, cellhom; print(' '.join(os.environ[k] for k in %r))" % (names,)
    env = {k: v for k, v in os.environ.items() if k not in names}
    src = str(Path(cellhom.solvers.__file__).parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for preset, seen in (({}, "1"), (dict.fromkeys(names, "2"), "2")):
        proc = subprocess.run([sys.executable, "-c", script], env={**env, **preset}, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.split() == [seen] * 3
