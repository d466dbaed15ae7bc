from dataclasses import replace

import numpy as np
import pytest

import curvecrack.fields as fields
import curvecrack.postprocess as post
import curvecrack.solver as solver
from curvecrack import (face_field_profile, fit_tip_coefficients,
                        opening_profile, solve_problem)
from curvecrack.cli import ConfigError, RunConfig, main, parse_config, run
from curvecrack.quadrature import midpoint_grid

BASE = """
shape = semicircle
mu = 60
kappa = 2.5
sigma1_inf = 1.0
sigma2_inf = 0.0
gamma1 = 1.0
"""


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(BASE)
        assert cfg.N == 20
        assert cfg.run_mode == "solve"
        assert cfg.alpha == 0.0
        assert cfg.mode == "plane_strain"
        assert cfg.row_scaling is True
        assert cfg.out_dir == "out"

    def test_reference_parameters(self):
        cfg = parse_config(BASE)
        assert cfg.mu == 60.0 and cfg.kappa == 2.5 and cfg.gamma1 == 1.0

    def test_nu_conversion_plane_strain(self):
        cfg = parse_config(BASE.replace("kappa = 2.5", "nu = 0.125"))
        assert cfg.kappa == pytest.approx(2.5)

    def test_comma_separated_pairs(self):
        cfg = parse_config("shape=semicircle, mu=60\n"
                           "nu=0.125, mode=plane_strain\n"
                           "sigma1_inf=1, sigma2_inf=0, gamma1=1\n")
        assert cfg.kappa == pytest.approx(2.5)
        assert cfg.mode == "plane_strain"

    def test_nu_conversion_plane_stress(self):
        text = BASE.replace("kappa = 2.5", "nu = 0.3") + "mode = plane_stress\n"
        cfg = parse_config(text)
        assert cfg.kappa == pytest.approx((3.0 - 0.3) / 1.3)

    def test_empty_text_lists_missing_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        msg = str(err.value)
        for key in ("shape", "mu", "sigma1_inf", "sigma2_inf", "gamma1",
                    "nu|kappa"):
            assert key in msg

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config(BASE + "banana = 3\n")
        assert "banana" in str(err.value) and "line" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(BASE + "mu = 3\n")
        assert "duplicate" in str(err.value)

    def test_both_nu_and_kappa(self):
        with pytest.raises(ConfigError):
            parse_config(BASE + "nu = 0.2\n")

    @pytest.mark.parametrize("line,frag", [
        ("shape = triangle", "shape"),
        ("gamma1 = -1", "gamma1"),
        ("N = 2", "N"),
        ("run_mode = dance", "run_mode"),
        ("row_scaling = maybe", "row_scaling"),
        ("kernel_diag_eps = -0.1", "kernel_diag_eps"),
        ("alpha = spin", "alpha"),
        ("gamma1 = nan", "gamma1"),
        ("mu = nan", "mu"),
        ("sigma1_inf = inf", "sigma1_inf"),
        ("alpha = nan", "alpha"),
        ("run_mode = sweep-gamma, grid = 0.5 inf", "grid"),
    ])
    def test_bad_values(self, line, frag):
        text = BASE.replace("shape = semicircle", "shape = semicircle"
                            if not line.startswith("shape") else line)
        if not line.startswith("shape"):
            text = text + line + "\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert frag in str(err.value)

    def test_arc_requires_curvature(self):
        with pytest.raises(ConfigError):
            parse_config(BASE.replace("shape = semicircle", "shape = arc"))
        cfg = parse_config(BASE.replace("shape = semicircle",
                                        "shape = arc\ncurvature = 0.5"))
        assert cfg.curvature == 0.5
        with pytest.raises(ConfigError):
            parse_config(BASE.replace("shape = semicircle",
                                      "shape = arc\ncurvature = 1.5"))

    def test_straight_requires_length(self):
        with pytest.raises(ConfigError):
            parse_config(BASE.replace("shape = semicircle", "shape = straight"))
        cfg = parse_config(BASE.replace("shape = semicircle",
                                        "shape = straight\nlength = 2.0"))
        assert cfg.length == 2.0

    def test_curvature_only_for_arc(self):
        with pytest.raises(ConfigError):
            parse_config(BASE + "curvature = 0.5\n")

    def test_sweep_requires_grid(self):
        with pytest.raises(ConfigError):
            parse_config(BASE + "run_mode = sweep-gamma\n")
        cfg = parse_config(BASE + "run_mode = sweep-gamma\n"
                           "grid = 0.5 1.0 2.0\n")
        assert cfg.grid == (0.5, 1.0, 2.0)

    def test_convergence_grid_ascending_ints(self):
        cfg = parse_config(BASE + "run_mode = convergence\ngrid = 16; 20; 30\n")
        assert cfg.grid == (16, 20, 30)
        with pytest.raises(ConfigError):
            parse_config(BASE + "run_mode = convergence\ngrid = 20 16\n")

    def test_sweep_curvature_grid_domain(self):
        with pytest.raises(ConfigError):
            parse_config(BASE + "run_mode = sweep-curvature\ngrid = 0.5 1.5\n")

    @pytest.mark.parametrize("mode,grid", [
        ("sweep-gamma", "0.5 1.0"), ("sweep-curvature", "0.5 1.0"),
        ("convergence", "8 10"),
    ])
    def test_row_scaling_off_only_in_solve_mode(self, mode, grid):
        # only solve mode passes row_scaling to the assembly
        assert parse_config(BASE + "row_scaling = off\n").row_scaling is False
        with pytest.raises(ConfigError) as err:
            parse_config(BASE + f"run_mode = {mode}\ngrid = {grid}\n"
                         "row_scaling = off\n")
        assert "row_scaling" in str(err.value) and "line" in str(err.value)

    def test_comments_ignored(self):
        cfg = parse_config("# a comment\n" + BASE + "   \n# trailing\n")
        assert cfg.shape == "semicircle"


class TestRun:
    def _cfg(self, out, extra=""):
        return parse_config(BASE + f"N = 8\nout_dir = {out}\n" + extra)

    def test_solve_mode_artifacts(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path / "run")
        assert run(cfg) == 0
        out = tmp_path / "run"
        for name in ("config_echo.txt", "g_prime.csv", "face_fields.csv",
                     "opening.csv"):
            assert (out / name).exists()
        captured = capsys.readouterr().out
        assert "condition_estimate" in captured
        assert "single_valued_residual" in captured

    @pytest.mark.parametrize("gamma1, count", [(0.0, 0), (1.0, 4)])
    def test_summary_prints_one_residual_per_tip_row(self, tmp_path, capsys,
                                                     gamma1, count):
        # the solve imposes no tip rows at gamma1 = 0, four on a curved crack
        cfg = parse_config(BASE.replace("gamma1 = 1.0", f"gamma1 = {gamma1}")
                           + f"N = 8\nout_dir = {tmp_path / 'run'}\n")
        assert run(cfg) == 0
        line, = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("tip_condition_residuals =")]
        assert len(line.split("=")[1].split()) == count

    def test_determinism_byte_identical(self, tmp_path):
        cfg_a = self._cfg(tmp_path / "a")
        cfg_b = self._cfg(tmp_path / "b")
        assert run(cfg_a, quiet=True) == 0
        assert run(cfg_b, quiet=True) == 0
        for name in ("g_prime.csv", "face_fields.csv", "opening.csv"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_convergence_mode(self, tmp_path):
        cfg = self._cfg(tmp_path / "conv",
                        "run_mode = convergence\ngrid = 8 10 12\n")
        assert run(cfg, quiet=True) == 0
        lines = (tmp_path / "conv" / "convergence.csv").read_text().splitlines()
        assert len(lines) == 4
        gp_header = (tmp_path / "conv" / "g_prime.csv").read_text() \
            .splitlines()[0]
        assert "re_gprime_N8" in gp_header and "im_gprime_N12" in gp_header

    def test_sweep_gamma_mode(self, tmp_path):
        cfg = self._cfg(tmp_path / "sg",
                        "run_mode = sweep-gamma\ngrid = 0.5 1.0\n")
        assert run(cfg, quiet=True) == 0
        lines = (tmp_path / "sg" / "sweep_gamma.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_sweep_curvature_mode(self, tmp_path):
        cfg = self._cfg(tmp_path / "sc",
                        "run_mode = sweep-curvature\ngrid = 0.5 1.0\n")
        assert run(cfg, quiet=True) == 0
        lines = (tmp_path / "sc" / "sweep_curvature.csv").read_text() \
            .splitlines()
        assert len(lines) == 3

    def test_mode_override(self, tmp_path):
        cfg = self._cfg(tmp_path / "ov", "grid = 8 10\n")
        assert run(cfg, mode_override="convergence", quiet=True) == 0
        assert (tmp_path / "ov" / "convergence.csv").exists()

    def test_mode_override_missing_grid(self, tmp_path):
        cfg = self._cfg(tmp_path / "ov2")
        assert run(cfg, mode_override="sweep-gamma", quiet=True) == 2

    def test_mode_override_rejects_row_scaling_off(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path / "ov3", "grid = 8 10\nrow_scaling = off\n")
        assert run(cfg, mode_override="convergence") == 2
        assert "row_scaling" in capsys.readouterr().err
        assert not (tmp_path / "ov3" / "convergence.csv").exists()
        # a config built in code gets the same check
        assert run(replace(cfg, run_mode="sweep-gamma"), quiet=True) == 2

    def test_dump_system(self, tmp_path):
        cfg = self._cfg(tmp_path / "dump")
        assert run(cfg, dump_system=True, quiet=True) == 0
        text = (tmp_path / "dump" / "system_dump.txt").read_text()
        assert text.startswith("n_rows")

    def test_solve_error_leaves_no_partial_artifacts(self, tmp_path,
                                                     monkeypatch):
        import curvecrack.cli as cli_mod
        from curvecrack.solver import SolveError

        def boom(*args, **kwargs):
            raise SolveError("forced failure")

        monkeypatch.setattr(cli_mod, "solve", boom)
        cfg = self._cfg(tmp_path / "err")
        assert run(cfg, quiet=True) == 4
        out = tmp_path / "err"
        names = sorted(p.name for p in out.iterdir())
        assert names == ["config_echo.txt", "error.log"]
        assert "forced failure" in (out / "error.log").read_text()


SOLVE_CASES = {
    "readme": BASE + "N = 20\n",
    "straight": BASE.replace("shape = semicircle",
                             "shape = straight\nlength = 2.0")
    + "alpha = 0.5\nN = 24\n",
    "arc_unscaled": BASE.replace("shape = semicircle",
                                 "shape = arc\ncurvature = 0.5")
    + "N = 20\nrow_scaling = off\n",
}


def _csv_columns(path):
    """{header: column of cell strings} of a CSV written by the CLI."""
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(r.split(",") for r in rows))))


def _assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", SOLVE_CASES)
def test_solve_mode_matches_public_functions(case, tmp_path, capsys):
    config = parse_config(SOLVE_CASES[case] + f"out_dir = {tmp_path}\n")
    assert run(config) == 0
    printed = dict((key.strip(), value) for key, value in
                   (line.split(" = ") for line in
                    capsys.readouterr().out.splitlines()))
    config, curve, material, load, _ = config.build()
    coeffs = solve_problem(curve, material, load, config.gamma1, config.N,
                           config.row_scaling)

    face = _csv_columns(tmp_path / "face_fields.csv")
    samples = face_field_profile(curve, material, load, coeffs,
                                 midpoint_grid(curve.length, 100))
    assert list(face["side"]) == [f.side for f in samples]
    for name in ("s", "sigma_n", "tau_n", "du1_ds", "du2_ds"):
        _assert_close(face[name], [getattr(f, name) for f in samples])

    opening = _csv_columns(tmp_path / "opening.csv")
    profile = opening_profile(coeffs, curve, material)
    for name, want in (("s", profile.s), ("du1_jump", profile.jump.real),
                       ("du2_jump", profile.jump.imag),
                       ("delta", profile.delta)):
        _assert_close(opening[name], want)

    fits = fit_tip_coefficients(curve, material, load, coeffs)
    for key, name in (("A1 (du1/ds)", "du1_ds"), ("A2 (tau_n)", "tau_n")):
        assert float(printed[key]) == pytest.approx(fits[name].A, rel=1e-13)


def test_solve_mode_tabulates_once(tmp_path, monkeypatch):
    """One face operator for the system, one for every face field and tip
    fit, and one jump table for the constraint row and the opening."""
    operators, jump_tables = [], []
    init = fields._FaceOperator.__init__
    jump_table = solver._jump_table

    def counted_init(self, *args, **kwargs):
        operators.append(1)
        init(self, *args, **kwargs)

    def counted_jump_table(*args, **kwargs):
        jump_tables.append(1)
        return jump_table(*args, **kwargs)

    monkeypatch.setattr(fields._FaceOperator, "__init__", counted_init)
    for module in (solver, post):
        monkeypatch.setattr(module, "_jump_table", counted_jump_table)
    config = parse_config(SOLVE_CASES["readme"] + f"out_dir = {tmp_path}\n")
    assert run(config, dump_system=True, quiet=True) == 0
    assert (len(operators), len(jump_tables)) == (2, 1)


class TestMain:
    def test_full_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(BASE + "N = 8\n")
        code = main(["--config", str(cfg_path), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert (tmp_path / "out" / "opening.csv").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,mode", [
        ("run_mode = convergence\ngrid = 2 3\n", None),
        ("run_mode = sweep-gamma\ngrid = 2 3\n", "convergence"),
    ])
    def test_convergence_grid_below_4_exit_code(self, tmp_path, capsys,
                                                extra, mode):
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text(BASE + extra)
        argv = ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert main(argv + (["--mode", mode] if mode else [])) == 2
        assert "grid" in capsys.readouterr().err
        assert not (tmp_path / "out" / "convergence.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("shape = triangle\n")
        assert main(["--config", str(cfg_path)]) == 2
