"""One set of rules for every run config: parsed, overridden or built in code."""

from dataclasses import replace
from pathlib import Path

import pytest

from curvecrack.cli import ConfigError, parse_config, run

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
