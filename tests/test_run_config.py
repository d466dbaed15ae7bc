"""One set of rules for every run config: parsed, overridden or built in code."""

import csv
import shutil
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecrack.cli import ConfigError, RunConfig, main, parse_config, run

GOOD = {"shape": "semicircle", "mu": "60", "kappa": "2.5",
        "sigma1_inf": "1.0", "sigma2_inf": "0.0", "gamma1": "1.0", "N": "8"}

# (key, config text, value set on a good RunConfig built in code)
BAD_VALUES = [
    ("N", "2", 2),
    ("N", "2.5", 2.5),
    ("shape", "triangle", "triangle"),
    ("shape", "arc", "arc"),  # an arc with no curvature
    ("gamma1", "-1", -1.0),
    ("gamma1", "nan", float("nan")),
    ("mu", "-1", -1.0),
    ("kappa", "5", 5.0),
    ("run_mode", "bogus", "bogus"),
    ("run_mode", "sweep-gamma", "sweep-gamma"),  # a sweep with no grid
]


def _text(pairs):
    return "\n".join(f"{k} = {v}" for k, v in pairs.items()) + "\n"


@pytest.mark.parametrize("key,text,value", BAD_VALUES)
def test_parse_config_rejects(key, text, value):
    with pytest.raises(ConfigError):
        parse_config(_text(dict(GOOD, **{key: text})))


@pytest.mark.parametrize("key,text,value", BAD_VALUES)
def test_run_rejects_before_writing(tmp_path, capsys, key, text, value):
    good = parse_config(_text(dict(GOOD, out_dir=tmp_path / "out")))
    assert run(replace(good, **{key: value}), quiet=True) == 2
    if key == "run_mode":  # the same string given as --mode
        assert run(good, mode_override=value, quiet=True) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))
CSV_OF_MODE = {"solve": "g_prime.csv", "sweep-gamma": "sweep_gamma.csv",
               "sweep-curvature": "sweep_curvature.csv",
               "convergence": "convergence.csv"}


def test_configs_exist():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs(tmp_path, path):
    cfg = parse_config(path.read_text(encoding="utf-8"))
    assert run(cfg, out_dir=str(tmp_path), quiet=True) == 0
    assert (tmp_path / CSV_OF_MODE[cfg.run_mode]).stat().st_size > 0


@pytest.mark.parametrize("load", ["horizontal", "vertical"])
def test_gamma_sweep_configs_solve_every_point(tmp_path, capsys, load):
    # the 16-point gamma1 study, with the extremum-coincidence report last
    # in the run summary
    path = CONFIGS[0].parent / f"gamma_sweep_{load}.cfg"
    cfg = parse_config(path.read_text(encoding="utf-8"))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    summary = capsys.readouterr().out.splitlines()
    assert summary[-1].startswith("extremum indices {'A1': ")
    with open(tmp_path / "sweep_gamma.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    assert all(row.pop("error") == "" for row in rows)
    assert np.all(np.isfinite([[float(v) for v in row.values()]
                               for row in rows]))


# Each run mode requires and checks only the keys it reads: a curvature
# sweep builds its own arcs and reads no shape, a gamma1 sweep and a
# convergence run read their gamma1 and N values from the grid.
SWEEP_CURVATURE = {"mu": "60", "kappa": "2.5", "sigma1_inf": "1.0",
                   "sigma2_inf": "1.0", "gamma1": "0.5", "N": "8",
                   "run_mode": "sweep-curvature", "grid": "0.5 1.0"}


def test_sweep_curvature_needs_no_shape(tmp_path):
    written = []
    for name, shape in (("with", {"shape": "semicircle"}), ("without", {})):
        cfg = parse_config(_text(dict(SWEEP_CURVATURE, **shape)))
        assert run(cfg, out_dir=str(tmp_path / name), quiet=True) == 0
        written.append((tmp_path / name / "sweep_curvature.csv").read_bytes())
    assert written[0] == written[1]


def test_sweep_gamma_needs_no_gamma1(tmp_path):
    pairs = dict(GOOD, run_mode="sweep-gamma", grid="0.5 1.0")
    written = []
    for name, drop in (("with", ()), ("without", ("gamma1",))):
        cfg = parse_config(_text({k: v for k, v in pairs.items()
                                  if k not in drop}))
        assert run(cfg, out_dir=str(tmp_path / name), quiet=True) == 0
        written.append((tmp_path / name / "sweep_gamma.csv").read_bytes())
    assert written[0] == written[1]


def test_convergence_does_not_check_n(tmp_path):
    text = _text(dict(GOOD, N="2", run_mode="convergence", grid="8 10"))
    assert run(parse_config(text), out_dir=str(tmp_path), quiet=True) == 0
    assert (tmp_path / "convergence.csv").stat().st_size > 0


def test_solve_without_shape_exits_2(tmp_path, capsys):
    pairs = {k: v for k, v in GOOD.items() if k != "shape"}
    path = tmp_path / "solve.cfg"
    path.write_text(_text(pairs))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "shape" in capsys.readouterr().err
    # a curvature sweep without shape, run as a solve
    cfg = parse_config(_text(SWEEP_CURVATURE))
    assert run(cfg, out_dir=str(tmp_path / "out"), mode_override="solve",
               quiet=True) == 2
    assert "shape" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_whose_potential_constants_overflow_exits_2(tmp_path, capsys):
    # finite remote stresses whose phi_inf = (sigma1 + sigma2)/4 overflows
    # are refused by name, before any arithmetic on the infinite constant
    # can warn
    path = tmp_path / "huge.cfg"
    path.write_text(_text(dict(GOOD, sigma1_inf="1.5e308",
                               sigma2_inf="1.5e308")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "overflow" in err and "inconsistent" not in err
    assert not (tmp_path / "out").exists()

# a config built in code meets the missing-key rule of a parsed one: each
# key the run mode reads set to None, or neither nu nor kappa given
MISSING = {"shape": {"shape": None}, "mu": {"mu": None},
           "sigma1_inf": {"sigma1_inf": None},
           "sigma2_inf": {"sigma2_inf": None}, "gamma1": {"gamma1": None},
           "nu|kappa": {"nu": None, "kappa": None}}


@pytest.mark.parametrize("name", MISSING)
def test_code_built_config_missing_a_key_exits_2(tmp_path, capsys, name):
    config = replace(parse_config(_text(GOOD)), **MISSING[name])
    with pytest.raises(ConfigError, match="missing mandatory keys"):
        config.build()
    assert run(config, out_dir=str(tmp_path / "out"), quiet=True) == 2
    assert capsys.readouterr().err \
        == f"error: missing mandatory keys: {name}\n"
    assert list(tmp_path.iterdir()) == []


def test_code_built_config_with_nu_runs_as_parsed(tmp_path):
    # kappa follows from nu in build, for a parsed and a code-built config
    pairs = {k: v for k, v in GOOD.items() if k != "kappa"}
    out = str(tmp_path / "out")
    parsed = parse_config(_text(dict(pairs, nu="0.125", out_dir=out)))
    built = RunConfig(shape="semicircle", mu=60.0, nu=0.125, sigma1_inf=1.0,
                      sigma2_inf=0.0, gamma1=1.0, N=8, out_dir=out)
    assert built.build().config == parsed
    written = []
    for config in (parsed, built):
        assert run(config, quiet=True) == 0
        written.append({p.name: p.read_bytes()
                        for p in (tmp_path / "out").iterdir()})
        shutil.rmtree(tmp_path / "out")
    assert written[0] == written[1]
    assert len(written[0]) == 4


@pytest.mark.parametrize("spelling", ["config", "--out"])
def test_empty_out_dir_exits_2(tmp_path, monkeypatch, capsys, spelling):
    # an empty out_dir names the current directory: rejected, with nothing
    # written there
    monkeypatch.chdir(tmp_path)
    extra = "out_dir =\n" if spelling == "config" else ""
    Path("run.cfg").write_text(_text(GOOD) + extra)
    argv = ["--config", "run.cfg", "--quiet"]
    if spelling == "--out":
        argv += ["--out", ""]
    assert main(argv) == 2
    assert "out_dir" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("where", ["file", "under-file", "nul"])
def test_out_dir_that_cannot_be_created_exits_2(tmp_path, capsys, where):
    # --out naming a regular file, a path under one, or a path the
    # system rejects: an error naming the directory, the file untouched
    path = tmp_path / "run.cfg"
    path.write_text(_text(GOOD))
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = {"file": str(taken), "under-file": str(taken / "out"),
           "nul": str(tmp_path / "o\0ut")}[where]
    assert main(["--config", str(path), "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(out) in err
    assert taken.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]


# out_dir values parse_config would read back from config_echo.txt as
# something else: pairs split at ',', comments at '#', lines at any line
# break, and values are stripped
UNREADABLE_OUT_DIRS = ["{}/a,b", "{}/#x", "{}/a\nb", "{}/a\r\nb", "{}/a\x1cb",
                       "{}/a\u2028b", " {}/a", "{}/a\t"]


@pytest.mark.parametrize("template", UNREADABLE_OUT_DIRS)
def test_out_dir_the_echo_cannot_read_back_exits_2(tmp_path, capsys,
                                                   template):
    out = template.format(tmp_path)
    good = parse_config(_text(GOOD))
    with pytest.raises(ConfigError, match="out_dir"):
        replace(good, out_dir=out).build()
    assert run(good, out_dir=out, quiet=True) == 2
    assert "out_dir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# a code-built config whose key holds a value of a type its parser never
# gives: a ConfigError naming the key, exit 2 and nothing written
WRONG_TYPES = [("alpha", None), ("mu", "60"), ("alpha", "0.5"),
               ("gamma1", "1"), ("row_scaling", None), ("row_scaling", 1),
               ("N", 8.0), ("N", True), ("sigma1_inf", True), ("shape", 1),
               ("mode", None), ("run_mode", None), ("out_dir", None),
               ("grid", None), ("grid", ("0.5",))]


@pytest.mark.parametrize("key,value", WRONG_TYPES)
def test_code_built_value_of_the_wrong_type_exits_2(tmp_path, capsys, key,
                                                    value):
    config = replace(parse_config(_text(dict(GOOD, out_dir=tmp_path / "o"))),
                     **{key: value})
    with pytest.raises(ConfigError, match=f"key '{key}' needs"):
        config.build()
    assert run(config, quiet=True) == 2
    assert f"key '{key}' needs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_code_built_numbers_of_any_real_type_run_as_parsed(tmp_path):
    # ints for the float keys, numpy scalars and a grid list are values
    # of the parsers' types
    out = str(tmp_path / "out")
    parsed = parse_config(_text(dict(GOOD, out_dir=out, alpha="0.0")))
    built = replace(parsed, mu=60, alpha=np.float64(0.0), N=np.int64(8))
    assert built.build().config == parsed
    sweep = replace(parsed, run_mode="sweep-gamma", grid=[1, 2.0])
    assert sweep.build().config.grid == (1.0, 2.0)
    assert run(built, quiet=True) == 0


@settings(max_examples=300, deadline=None)
@given(out_dir=st.text(alphabet=st.one_of(
    st.sampled_from(",#= \t\n\r\x0b\x0c\x1c\x85\u2028"), st.characters())))
def test_out_dir_is_rejected_or_read_back(out_dir):
    config = replace(parse_config(_text(GOOD)), out_dir=out_dir)
    try:
        config.build()
    except ConfigError:
        return
    assert parse_config(config.echo_text()) == config
