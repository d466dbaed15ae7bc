import csv
import dataclasses
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_postprocess import _csv_text

import curvecrack.cli as cli
import curvecrack.fields as fields
import curvecrack.postprocess as post
import curvecrack.solver as solver
from curvecrack import (DensityCoefficients, Material, face_field_profile,
                        make_circular_arc, make_semicircle, make_straight,
                        opening_profile, solve_problem, tip_log_coefficients)
from curvecrack.cli import ConfigError, RunConfig, main, parse_config, run
from curvecrack.quadrature import midpoint_grid

ROOT = Path(__file__).resolve().parent.parent

BASE = """
shape = semicircle
mu = 60
kappa = 2.5
sigma1_inf = 1.0
sigma2_inf = 0.0
gamma1 = 1.0
"""

# configs whose echo must read back; together they give every key
ECHO_CASES = {
    "solve": BASE,
    "nu": BASE.replace("kappa = 2.5", "nu = 0.2\nmode = plane_stress"),
    "arc": BASE.replace("shape = semicircle", "shape = arc\ncurvature = 0.5")
    + "alpha = 0.3\nN = 16\nrow_scaling = off\n",
    "straight": BASE.replace("shape = semicircle",
                             "shape = straight\nlength = 2.0"),
    "sweep-gamma": BASE + "run_mode = sweep-gamma\ngrid = 0.5 1.0 2.0\n",
    "sweep-curvature": BASE.replace("shape = semicircle\n", "")
    + "run_mode = sweep-curvature\ngrid = 0.25; 0.5 1.0\n",
    "convergence": BASE
    + "run_mode = convergence\ngrid = 8 10.0 12\nout_dir = o\n",
}


def _keys(text):
    """The keys that key = value text sets, one pair per line."""
    return {line.partition("=")[0].strip() for line in text.splitlines()
            if "=" in line}



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

    @pytest.mark.parametrize("text", ECHO_CASES.values(), ids=ECHO_CASES)
    def test_echo_reads_back(self, text):
        # config_echo.txt holds the grid space-separated, every key the
        # config gave and only the material key the config was given
        config = parse_config(text)
        echo = config.echo_text()
        assert parse_config(echo) == config
        assert ("nu" in echo.split()) != ("kappa" in echo.split())
        assert _keys(text) <= _keys(echo)

    def test_echo_cases_give_every_key(self):
        # so every RunConfig key is parsed and echoed by one case above
        assert set().union(*map(_keys, ECHO_CASES.values())) \
            == {field.name for field in dataclasses.fields(RunConfig)}

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


def _dump_per_entry(system):
    """system_dump.txt by the per-entry rule: repr of each entry as a
    double, one numpy scalar at a time."""
    def floats(values):
        return " ".join(repr(float(v)) for v in values)
    lines = [f"n_rows {system.matrix.shape[0]}",
             f"n_cols {system.matrix.shape[1]}",
             f"n_constraints {system.n_constraints}",
             "row_scale " + floats(system.row_scale),
             *(f"row {i} " + floats(row)
               for i, row in enumerate(system.matrix)),
             "rhs " + floats(system.rhs),
             f"condition_estimate {system.condition_estimate!r}"]
    return ("\n".join(lines) + "\n").encode()


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

    def test_dump_system(self, tmp_path, monkeypatch):
        dumped = []
        dump_text = solver.LinearSystem.dump_text
        monkeypatch.setattr(solver.LinearSystem, "dump_text",
                            lambda system: dumped.append(system)
                            or dump_text(system))
        cfg = self._cfg(tmp_path / "dump")
        assert run(cfg, dump_system=True, quiet=True) == 0
        data = (tmp_path / "dump" / "system_dump.txt").read_bytes()
        assert data.startswith(b"n_rows")
        assert data == _dump_per_entry(*dumped)

    @pytest.mark.parametrize("mode,grid", [("sweep-gamma", "0.5 1.0"),
                                           ("sweep-curvature", "0.5 1.0"),
                                           ("convergence", "8 10")])
    def test_dump_system_only_in_solve_mode(self, tmp_path, capsys, mode,
                                            grid):
        # no other mode assembles one system to dump: the config runs
        # without the flag, and with it exits 2 before any output is written
        cfg = self._cfg(tmp_path / "ok", f"grid = {grid}\n")
        assert run(cfg, mode_override=mode, quiet=True) == 0
        cfg = replace(cfg, out_dir=str(tmp_path / "dump"))
        assert run(cfg, mode_override=mode, dump_system=True) == 2
        err = capsys.readouterr().err
        assert "--dump-system" in err and mode in err
        assert not (tmp_path / "dump").exists()

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


    def test_no_free_unknown_exits_4_and_fails_sweep_rows(self, tmp_path):
        # a straight crack at gamma1 > 0 and N = 4: 10 constraint rows for
        # 10 unknowns
        text = BASE.replace("shape = semicircle",
                            "shape = straight\nlength = 2.0")
        cfg = parse_config(text + f"N = 4\nout_dir = {tmp_path / 'solve'}\n")
        assert run(cfg, quiet=True) == 4
        assert "no free unknown" in (tmp_path / "solve" / "error.log") \
            .read_text()
        cfg = parse_config(text + "N = 4\nrun_mode = sweep-gamma\n"
                           "grid = 0.5 1.0\n"
                           f"out_dir = {tmp_path / 'sweep'}\n")
        assert run(cfg, quiet=True) == 0
        lines = (tmp_path / "sweep" / "sweep_gamma.csv").read_text() \
            .splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            assert line.split(",")[1] == "nan"
            assert "no free unknown" in line.split(",")[-1]

    @pytest.mark.parametrize("mode", ["solve", "convergence"])
    def test_failed_svd_exits_4(self, tmp_path, monkeypatch, cold_tables,
                                mode):
        # numpy's LinAlgError escaped run() with no error.log; cold tables,
        # so no kept factorization is read
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        out = tmp_path / mode
        assert run(self._cfg(out, "grid = 8 10\n"), mode_override=mode,
                   quiet=True) == 4
        assert (out / "error.log").read_text() \
            == "SolveError: SVD did not converge\n"

    def test_huge_gamma1_exits_3_without_a_warning(self, tmp_path):
        # the rows of gamma1 = 1e300 overflow to inf; the assembly's finite
        # check refuses them, and no overflow warning escapes before it
        text = BASE.replace("gamma1 = 1.0", "gamma1 = 1e300")
        cfg = parse_config(text + f"N = 8\nout_dir = {tmp_path / 'huge'}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cfg, quiet=True) == 3
        out = tmp_path / "huge"
        assert sorted(p.name for p in out.iterdir()) \
            == ["config_echo.txt", "error.log"]
        assert "non-finite entries in the collocation system" \
            in (out / "error.log").read_text()


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
    # the s column is the text of every second point of the g' grid
    assert [float(v) for v in opening["s"]] == profile.s.tolist()
    g_prime = _csv_columns(tmp_path / "g_prime.csv")
    assert list(opening["s"]) == list(g_prime["s"][::2])

    # the closed form; where it is zero to rounding (A1 on the semicircle,
    # A2 on the straight crack) to 1e-12 sup|g'|
    closed = tip_log_coefficients(curve, material, coeffs)
    zero = 1e-12 * solver._sup_gprime(coeffs, curve)
    for key, name in (("A1 (du1/ds)", "du1_ds"), ("A2 (tau_n)", "tau_n")):
        assert float(printed[key]) == pytest.approx(closed[name], rel=1e-13,
                                                    abs=zero)


@pytest.mark.parametrize("case", ["readme", "arc"])
def test_solve_summary_reports_as_a_one_point_sweep(case, tmp_path, capsys):
    # solve mode and the sweeps reduce through one path: the summary's tip
    # coefficients and openings are the one-point sweep_gamma row of the
    # config, and its max_traction is the sup over face_fields.csv's points
    text = SOLVE_CASES["readme"]
    if case == "arc":
        text = text.replace("shape = semicircle",
                            "shape = arc\ncurvature = 0.5")
    config = parse_config(text + f"out_dir = {tmp_path}\n")
    assert run(config) == 0
    printed = dict((key.strip(), float(value)) for key, value in
                   (line.split(" = ") for line in
                    capsys.readouterr().out.splitlines()[3:]))
    config, curve, material, load, _ = config.build()
    row, = post.sweep_gamma(curve, material, load, [config.gamma1],
                            N=config.N)
    assert not row.error
    labels = {"A1 (du1/ds)": "A1", "A2 (tau_n)": "A2",
              "max_opening": "max_opening", "min_opening": "min_opening",
              "max_traction": "max_traction"}
    assert list(printed) == list(labels)
    for label, name in list(labels.items())[:4]:
        assert printed[label] == pytest.approx(getattr(row, name), rel=1e-12)
    face = _csv_columns(tmp_path / "face_fields.csv")
    traction = np.abs(np.array(face["sigma_n"], dtype=float)
                      + 1j * np.array(face["tau_n"], dtype=float))
    assert printed["max_traction"] == np.max(traction)


@pytest.mark.parametrize("curve", [
    make_semicircle(), *(make_circular_arc(k0) for k0 in (0.3, 0.6, 0.9)),
    make_straight(2.0)], ids=["semicircle", "arc0.3", "arc0.6", "arc0.9",
                              "straight"])
def test_opening_grid_is_every_second_g_prime_point(curve):
    # solve mode writes opening.csv's s column as every second cell of
    # g_prime.csv's, which holds only if the 201-point grid is the even
    # points of the 401-point one, bit for bit
    zero = np.zeros(4)
    profile = opening_profile(
        DensityCoefficients(zero, zero, curve.length, 1.0), curve,
        Material(mu=60.0, kappa=2.5))
    fine = np.linspace(0.0, curve.length, 401)
    assert profile.s.size == 201
    assert profile.s.tobytes() == fine[::2].tobytes()


# the configs of one run per mode, and one sweep whose rows fail with an
# error message; the types of the CSV columns that do not hold floats
CSV_RUNS = {
    "solve": BASE + "N = 12\n",
    "sweep-gamma": BASE + "N = 12\nrun_mode = sweep-gamma\n"
                          "grid = 0.5 1.0 2.0\n",
    "sweep-curvature": BASE + "N = 12\nrun_mode = sweep-curvature\n"
                              "grid = 0.5 1.0\n",
    "convergence": BASE + "run_mode = convergence\ngrid = 8 10 12\n",
    "sweep-errors": BASE.replace("shape = semicircle",
                                 "shape = straight\nlength = 2.0")
    + "N = 4\nrun_mode = sweep-gamma\ngrid = 0.5 1.0\n",
}
_CELL_TYPES = {"side": str, "error": str, "N": int}


@pytest.mark.parametrize("case", CSV_RUNS)
def test_csv_bytes_keep_the_cell_rule(case, tmp_path):
    # every CSV of a run is the per-cell rule applied to its values read
    # back, and the config echo reads back as the run's config
    config = parse_config(CSV_RUNS[case] + f"out_dir = {tmp_path}\n")
    assert run(config, quiet=True) == 0
    paths = sorted(tmp_path.glob("*.csv"))
    assert paths
    for path in paths:
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        kinds = [_CELL_TYPES.get(name, float) for name in header]
        values = [[kind(cell) for kind, cell in zip(kinds, row, strict=True)]
                  for row in rows]
        assert path.read_bytes() == _csv_text(header, values).encode()
    echo = (tmp_path / "config_echo.txt").read_text()
    assert parse_config(echo) == config


# run mode: (config lines, node sides, face operators, jump tables, tip
# blocks) of one run in a process whose table caches are empty.  Solve
# mode and each point of a sweep build one node side, one operator for the
# system and one for the face fields and tip fits, and the jump table of
# the opening once per curve; a convergence run builds one node side at its
# largest N, one operator per N and no jump table.  The tip blocks come once
# per node side: solve mode reads its tip residuals from the collocation
# tables.
TABULATIONS = {
    "solve": ("N = 20\n", 1, 2, 1, 1),
    "sweep-gamma": ("N = 12\nrun_mode = sweep-gamma\ngrid = 0.5 1.0 2.0\n",
                    1, 2, 1, 1),
    "sweep-curvature": ("N = 12\nrun_mode = sweep-curvature\n"
                        "grid = 0.5 0.75 1.0\n", 3, 2 * 3, 3, 3),
    "convergence": ("run_mode = convergence\ngrid = 8 10 12\n", 1, 3, 0, 1),
}

# the changes of a config that keep its tables: another load and gamma1
# (a gamma1 sweep's grid)
SAME_TABLES = (("sigma1_inf = 1.0", "sigma1_inf = 0.7\nalpha = 0.4"),
               ("sigma2_inf = 0.0", "sigma2_inf = 0.3"),
               ("gamma1 = 1.0", "gamma1 = 0.5"),
               ("grid = 0.5 1.0 2.0", "grid = 0.7 3.0"))
_OTHER_MATERIAL = ("mu = 60", "mu = 30")
_OTHER_CURVE = ("shape = semicircle", "shape = arc\ncurvature = 0.5")
# per run mode, the changes that give it other tables: another material,
# curve (a curvature sweep's grid) and N (a convergence run's largest)
OTHER_TABLES = {
    "solve": (_OTHER_MATERIAL, _OTHER_CURVE, ("N = 20", "N = 16")),
    "sweep-gamma": (_OTHER_MATERIAL, _OTHER_CURVE, ("N = 12", "N = 10")),
    "sweep-curvature": (_OTHER_MATERIAL,
                        ("grid = 0.5 0.75 1.0", "grid = 0.4 0.6 0.8"),
                        ("N = 12", "N = 10")),
    "convergence": (_OTHER_MATERIAL, _OTHER_CURVE,
                    ("grid = 8 10 12", "grid = 8 10 14")),
}


def _replaced(text, changes):
    for old, new in changes:
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize("mode", TABULATIONS)
def test_tabulations_per_run_mode(mode, tmp_path, monkeypatch, cold_tables):
    # the first run builds its tables; a run on the same curve, material
    # and N under another load and gamma1 builds none, and a run on
    # another curve, material or N builds all of its own
    lines, *want = TABULATIONS[mode]
    calls = {name: [] for name in ("nodes", "operators", "jump", "tips")}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(1)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fields._NodeSide, "__init__",
                        counted("nodes", fields._NodeSide.__init__))
    monkeypatch.setattr(fields._NodeSide, "rows",
                        counted("operators", fields._NodeSide.rows))
    monkeypatch.setattr(post, "_jump_table",
                        counted("jump", post._jump_table))
    for module in (fields, solver):
        monkeypatch.setattr(module, "_tip_blocks",
                            counted("tips", solver._tip_blocks))

    def builds(text):
        for c in calls.values():
            c.clear()
        config = parse_config(text + f"out_dir = {tmp_path}\n")
        assert run(config, dump_system=mode == "solve", quiet=True) == 0
        return [len(c) for c in calls.values()]

    text = BASE + lines
    assert builds(text) == want
    other_load = _replaced(text, SAME_TABLES)
    assert other_load != text
    assert builds(other_load) == [0, 0, 0, 0]
    for old, new in OTHER_TABLES[mode]:
        assert old in text
        assert builds(text.replace(old, new)) == want, new


# run mode: the floats `_cells` formats in the first run of its TABULATIONS
# config, and in the run under another load and gamma1 (SAME_TABLES) on
# the tables it left.  A solve run writes g' (2 x 401), the face fields
# (4 x 200) and the opening (3 x 201); the run that builds its tables
# formats the 401 points of the g' grid and the 100 face points too.  A
# convergence run writes its 3 sup_diff values and g' of its 3 N, and
# formats its grid's 401 points on the cold run alone.  A sweep writes the
# numbers of its rows (the other gamma1 sweep has 2) and no grid.
FORMATTED = {
    "solve": (2205 + 401 + 100, 2205),
    "sweep-gamma": (3 * 6, 2 * 6),
    "sweep-curvature": (3 * 6, 3 * 6),
    "convergence": (3 + 3 * 2 * 401 + 401, 3 + 3 * 2 * 401),
}


@pytest.mark.parametrize("mode", TABULATIONS)
def test_formatted_floats_per_run_mode(mode, tmp_path, monkeypatch,
                                       cold_tables):
    # the text of an output grid is kept with the tables: a run on another
    # curve, material or N formats it again, one under another load and
    # gamma1 does not
    counts = []
    cells = post._cells

    def counted(column):
        text = cells(column)
        if np.asarray(column).dtype.kind == "f":
            counts.append(len(text))
        return text

    monkeypatch.setattr(post, "_cells", counted)

    def formatted(text):
        counts.clear()
        config = parse_config(text + f"out_dir = {tmp_path}\n")
        assert run(config, quiet=True) == 0
        return sum(counts)

    text = BASE + TABULATIONS[mode][0]
    cold, warm = FORMATTED[mode]
    assert formatted(text) == cold
    assert formatted(_replaced(text, SAME_TABLES)) == warm
    for old, new in OTHER_TABLES[mode]:
        assert formatted(text.replace(old, new)) == cold, new


def test_convergence_writes_the_points_it_sampled(tmp_path):
    # g_prime.csv's s column is the text of the study's own grid, where
    # each N's g' was sampled
    config = parse_config((ROOT / "configs" / "convergence_semicircle.cfg")
                          .read_text(encoding="utf-8"))
    assert run(config, out_dir=str(tmp_path), quiet=True) == 0
    config, curve, material, load, _ = config.build()
    rows = post.convergence_study(curve, material, load, config.gamma1,
                                  config.grid)
    grid = rows[0].grid
    assert all(r.grid is grid for r in rows)
    columns = _csv_columns(tmp_path / "g_prime.csv")
    assert list(columns["s"]) == [repr(s) for s in grid.s.tolist()]
    for r in rows:
        assert list(columns[f"re_gprime_N{r.N}"]) == list(map(
            repr, r.gprime.real.tolist()))
        want = r.coeffs.gprime(grid.s)
        assert np.max(np.abs(r.gprime - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("mode", TABULATIONS)
def test_warm_runs_write_the_cold_files(mode, tmp_path, monkeypatch,
                                        cold_tables):
    # a run on tables that an earlier run of the process built writes the
    # bytes of a run that built them: the first config again after a run
    # under another load and gamma1, and that run itself
    def files(text, name):
        # the relative out_dir makes the config echoes alike
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert run(parse_config(text), out_dir="out",
                   dump_system=mode == "solve", quiet=True) == 0
        return {p.name: p.read_bytes()
                for p in (tmp_path / name / "out").iterdir()}

    text = BASE + TABULATIONS[mode][0]
    other_text = _replaced(text, SAME_TABLES)
    cold = files(text, "cold")
    other = files(other_text, "other")
    warm = files(text, "warm")
    cold_tables()
    other_cold = files(other_text, "other_cold")
    assert cold.keys() == other.keys() and len(cold) > 1
    assert all(other[name] != cold[name] for name in cold
               if name.endswith(".csv"))
    assert warm == cold
    assert other == other_cold


@pytest.mark.parametrize("mode", ["solve", "sweep-gamma", "convergence"])
def test_runs_solve_on_the_halves_alone(mode, tmp_path, monkeypatch):
    # every system a run solves is read through its halves; none lays out
    # its whole matrix, which only dump_text reads
    solved = []

    def recorded(solutions):
        def wrapper(system):
            solved.append(system)
            return solutions(system)
        return wrapper

    for module in (solver, post):
        monkeypatch.setattr(module, "_solutions",
                            recorded(module._solutions))
    config = parse_config(ECHO_CASES[mode].replace("out_dir = o\n", "")
                          + f"out_dir = {tmp_path}\n")
    assert run(config, quiet=True) == 0
    assert solved
    for system in solved:
        assert "halves" in vars(system) and "matrix" not in vars(system)


def test_cached_tables_are_read_only(cold_tables):
    # every array that a solve-mode run keeps for the runs after it raises
    # on an in-place write
    config = parse_config(BASE + "N = 12\nout_dir = unused\n")
    _, curve, material, load, disc = config.build()
    res = cli._solve_outputs(config, curve, material, load, disc, False)
    tables = res["tables"]
    assert tables is post._sweep_tables(curve, material, 12,
                                        post._FACE_POINTS, 4)
    # all four face fields at the face points
    assert tables.face_rows.shape == (4, 2, post._FACE_POINTS)
    collocation, grid = tables.collocation, tables.grid
    side = collocation.node_side
    assert side is fields._node_side(curve, material, 12, side.basis)
    assert collocation is side.derived(solver._CollocationTables, 12)
    assert grid is side.derived(post._OutputGrid, 401)
    # the text it keeps is written str cells
    for text in (grid.text, *tables.face_text):
        assert type(text) is post._Written
        assert all(type(c) is str for c in text)
    arrays = [tables.jump, tables.face_s, *tables.tip_log_rows,
              grid.s, grid.table,
              tables.face_rows.rows, tables.face_rows.far,
              *collocation.blocks, collocation.parity, collocation.sign,
              collocation.weight, collocation.first, collocation.mirrored,
              collocation.forcing,
              *collocation.tip_rows,
              collocation.single_valued, collocation.single_valued_rows,
              *side._kernel, *side.rows_maps.values(), *side.tip_rows,
              side.single_valued]
    for array in arrays:
        index = (0,) * array.ndim
        with pytest.raises(ValueError, match="read-only"):
            array[index] = array[index]
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
