"""Command-line front end: config parsing, run orchestration, CSV persistence.

Configs are UTF-8 key=value text; blank lines and '#' comments are ignored,
and several pairs may share a line separated by commas.  Exit codes:
0 success, 2 configuration/geometry error, 3 assembly error, 4 solve error.

Solve mode tabulates once, as the sweeps do: one `postprocess._SweepTables`
gives the constrained system, the face fields on both faces and the tip-fit
samples (one field evaluator at all those points), and the opening (the
jump table the system was built with).  Every mode writes its CSVs through
`postprocess.write_csv`, from whole columns.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import postprocess as post
from .fields import FarFieldLoad, Material, SurfaceParams
from .geometry import (CrackCurve, make_circular_arc, make_semicircle,
                       make_straight)
from .solver import (AssemblyError, Discretization, SolveError, solve,
                     tip_condition_residuals)

RUN_MODES = ("solve", "sweep-gamma", "sweep-curvature", "convergence")

_MANDATORY = ("shape", "mu", "sigma1_inf", "sigma2_inf", "gamma1")
_KNOWN_KEYS = {
    "shape", "curvature", "length", "mu", "nu", "kappa", "mode",
    "sigma1_inf", "sigma2_inf", "alpha", "gamma1", "N", "run_mode",
    "grid", "out_dir", "row_scaling",
}


class ConfigError(ValueError):
    """Malformed or out-of-range run configuration."""


class BuiltRun(NamedTuple):
    """A checked config (grid coerced to its run mode) and its objects."""

    config: "RunConfig"
    curve: CrackCurve
    material: Material
    load: FarFieldLoad
    disc: Discretization


@dataclass
class RunConfig:
    shape: str
    mu: float
    kappa: float
    sigma1_inf: float
    sigma2_inf: float
    gamma1: float
    curvature: float | None = None
    length: float | None = None
    nu: float | None = None
    mode: str = "plane_strain"
    alpha: float = 0.0
    N: int = 20
    run_mode: str = "solve"
    grid: tuple = ()
    out_dir: str = "out"
    row_scaling: bool = True

    def build(self, lines: dict | None = None) -> BuiltRun:
        """Check the config and construct the library objects it describes.

        The CLI's own rules come first: the shape and the key it needs, the
        run mode and its grid, and row_scaling = off only in solve mode.
        Every range is then left to the constructors (curve, Material,
        FarFieldLoad, SurfaceParams, Discretization); a ValueError from any
        of them becomes a ConfigError.  lines maps a key to the line of the
        config text that set it, for the error messages.
        """
        lines = lines or {}

        def at(key):
            return f"line {lines[key]}: " if key in lines else ""

        def make(key, ctor, *args, **kwargs):
            try:
                return ctor(*args, **kwargs)
            except ValueError as exc:
                where = f"{at(key)}key '{key}': " if key else ""
                raise ConfigError(f"{where}{exc}") from None

        if self.shape not in ("semicircle", "arc", "straight"):
            raise ConfigError(f"{at('shape')}key 'shape' must be semicircle, "
                              f"arc or straight, got {self.shape!r}")
        for key, shape in (("curvature", "arc"), ("length", "straight")):
            given = getattr(self, key) is not None
            if given and self.shape != shape:
                raise ConfigError(f"{at(key)}key '{key}' only applies to "
                                  f"shape={shape}")
            if not given and self.shape == shape:
                raise ConfigError(f"{at('shape')}shape={shape} requires key "
                                  f"'{key}'")
        if self.shape == "arc":
            curve = make("curvature", make_circular_arc, self.curvature)
        elif self.shape == "straight":
            curve = make("length", make_straight, self.length)
        else:
            curve = make_semicircle()

        if self.run_mode not in RUN_MODES:
            raise ConfigError(f"{at('run_mode')}key 'run_mode' must be one of "
                              f"{', '.join(RUN_MODES)}, got {self.run_mode!r}")
        if not self.row_scaling and self.run_mode != "solve":
            raise ConfigError(f"{at('row_scaling')}key 'row_scaling' = off "
                              "only applies to run_mode=solve; "
                              f"{self.run_mode} always scales its rows")
        grid = self.grid
        if self.run_mode != "solve":
            if not grid:
                raise ConfigError(f"{at('grid')}run_mode={self.run_mode} "
                                  "requires a non-empty key 'grid'")
            if self.run_mode == "convergence":
                if not all(float(g).is_integer() for g in grid):
                    raise ConfigError(f"{at('grid')}convergence grid needs "
                                      f"integers, got {grid}")
                grid = tuple(int(g) for g in grid)
                if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
                    raise ConfigError(f"{at('grid')}key 'grid' must be an "
                                      "ascending list of at least two N values")
                for n in grid:
                    make("grid", Discretization, n, curve.length)
            else:
                grid = tuple(float(g) for g in grid)
                gammas = self.run_mode == "sweep-gamma"
                for value in grid:
                    make("grid", SurfaceParams if gammas else make_circular_arc,
                         value)
                if gammas and 0.0 in grid:
                    raise ConfigError(f"{at('grid')}sweep-gamma grid values "
                                      "must be positive")

        material = make(None, Material, mu=self.mu, kappa=self.kappa,
                        mode=self.mode, nu=self.nu)
        load = make(None, FarFieldLoad, sigma1=self.sigma1_inf,
                    sigma2=self.sigma2_inf, alpha=self.alpha)
        make("gamma1", SurfaceParams, self.gamma1)
        disc = make("N", Discretization, self.N, curve.length)
        return BuiltRun(replace(self, grid=grid), curve, material, load, disc)

    def echo_text(self) -> str:
        pairs = {
            "shape": self.shape, "curvature": self.curvature,
            "length": self.length, "mu": self.mu, "nu": self.nu,
            "kappa": self.kappa, "mode": self.mode,
            "sigma1_inf": self.sigma1_inf, "sigma2_inf": self.sigma2_inf,
            "alpha": self.alpha, "gamma1": self.gamma1, "N": self.N,
            "run_mode": self.run_mode,
            "grid": ",".join(repr(g) for g in self.grid) if self.grid else None,
            "out_dir": self.out_dir,
            "row_scaling": "on" if self.row_scaling else "off",
        }
        lines = [f"{k} = {v}" for k, v in pairs.items() if v is not None]
        return "\n".join(lines) + "\n"


def _parse_float(raw, key, line_no):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: key '{key}' needs a number, "
                          f"got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line_no}: key '{key}' needs a finite "
                          f"number, got {raw!r}")
    return value


def _parse_int(raw, key, line_no):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: key '{key}' needs an integer, "
                          f"got {raw!r}") from None


def _parse_grid(raw, key, line_no):
    # grid values are space- or semicolon-separated (commas split pairs)
    return tuple(_parse_float(p, key, line_no)
                 for p in raw.replace(";", " ").split())


def _parse_switch(raw, key, line_no):
    if raw not in ("on", "off"):
        raise ConfigError(f"line {line_no}: key '{key}' must be on or off, "
                          f"got {raw!r}")
    return raw == "on"


def parse_config(text: str) -> RunConfig:
    """Parse key=value config text, then check it with RunConfig.build."""
    seen: dict[str, tuple] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        for piece in stripped.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ConfigError(f"line {line_no}: expected key=value, "
                                  f"got {piece!r}")
            key, _, raw = piece.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"line {line_no}: unknown key '{key}'")
            if key in seen:
                raise ConfigError(f"line {line_no}: duplicate key '{key}'")
            seen[key] = (raw, line_no)

    missing = [k for k in _MANDATORY if k not in seen]
    if "nu" not in seen and "kappa" not in seen:
        missing.append("nu|kappa")
    if missing:
        raise ConfigError("missing mandatory keys: " + ", ".join(missing))
    if "nu" in seen and "kappa" in seen:
        raise ConfigError(f"line {seen['nu'][1]}: give either 'nu' or "
                          "'kappa', not both")

    def take(key, parse=None, default=None):
        if key not in seen:
            return default
        raw, line_no = seen[key]
        return parse(raw, key, line_no) if parse else raw

    mu = take("mu", _parse_float)
    mode = take("mode", default="plane_strain")
    nu = take("nu", _parse_float)
    kappa = take("kappa", _parse_float)
    if nu is not None:
        try:
            kappa = Material.from_poisson(mu, nu, mode).kappa
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    config = RunConfig(
        shape=take("shape"), curvature=take("curvature", _parse_float),
        length=take("length", _parse_float), mu=mu, kappa=kappa, nu=nu,
        mode=mode, sigma1_inf=take("sigma1_inf", _parse_float),
        sigma2_inf=take("sigma2_inf", _parse_float),
        alpha=take("alpha", _parse_float, 0.0),
        gamma1=take("gamma1", _parse_float), N=take("N", _parse_int, 20),
        run_mode=take("run_mode", default="solve"),
        grid=take("grid", _parse_grid, ()),
        out_dir=take("out_dir", default="out"),
        row_scaling=take("row_scaling", _parse_switch, True))
    lines = {key: line_no for key, (_, line_no) in seen.items()}
    return config.build(lines).config


def _solve_outputs(config, curve, material, load, disc, dump_system):
    """Compute everything solve mode writes, before touching the filesystem.

    One table set (`postprocess._SweepTables`) serves the whole run: its
    collocation tables give the system and the opening, and its one field
    evaluator gives both faces on the 100-point face_fields.csv grid and
    the tip-window samples of the four tip fits.
    """
    tables = post._SweepTables(curve, material, load, disc.N, n_face=100)
    system = tables.collocation.system(load, config.gamma1,
                                       config.row_scaling)
    coeffs = solve(system, curve)

    s_grid = np.linspace(0.0, curve.length, 401)
    gp = coeffs.gprime(s_grid)
    g_cols = {"re_gprime": np.real(gp), "im_gprime": np.imag(gp)}

    traction, du, tip_values = tables.face_values(coeffs)
    fits = post._log_fits(tables.tip_dist, tip_values, post.FIELD_NAMES)
    residuals = tip_condition_residuals(coeffs, curve, material, config.gamma1)
    dump = system.dump_text() if dump_system else None
    return {
        "coeffs": coeffs, "s_grid": s_grid, "g_cols": g_cols,
        "face": (tables.face_s, traction, du),
        "profile": tables.opening(coeffs), "fits": fits,
        "residuals": residuals, "dump": dump,
    }


def run(config: RunConfig, out_dir: str | None = None,
        mode_override: str | None = None, dump_system: bool = False,
        quiet: bool = False) -> int:
    """Execute the configured pipeline; returns the process exit code.

    The config is checked before anything is written: a ConfigError exits
    2 and leaves no output directory.
    """
    if mode_override is not None:
        config = replace(config, run_mode=mode_override)
    if out_dir is not None:
        config = replace(config, out_dir=out_dir)
    try:
        config, curve, material, load, disc = config.build()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.txt").write_text(config.echo_text())

    def fail(exc, code):
        (out / "error.log").write_text(f"{type(exc).__name__}: {exc}\n")
        if not quiet:
            print(f"error: {exc}", file=sys.stderr)
        return code

    say = (lambda *a: None) if quiet else print

    try:
        if config.run_mode == "solve":
            res = _solve_outputs(config, curve, material, load, disc,
                                 dump_system)
            post.write_g_prime_csv(out / "g_prime.csv", res["s_grid"],
                                   res["g_cols"])
            post.write_face_fields_csv(out / "face_fields.csv", *res["face"])
            post.write_opening_csv(out / "opening.csv", res["profile"])
            if res["dump"] is not None:
                (out / "system_dump.txt").write_text(res["dump"])
            coeffs = res["coeffs"]
            fits = res["fits"]
            say(f"condition_estimate = {coeffs.condition_estimate:.6e}")
            say("tip_condition_residuals ="
                + "".join(f" {v:.3e}" for v in res["residuals"]))
            say(f"single_valued_residual = {coeffs.single_valued_residual:.3e}")
            say(f"A1 (du1/ds) = {fits['du1_ds'].A!r}")
            say(f"A2 (tau_n)  = {fits['tau_n'].A!r}")
            say(f"max_opening = {res['profile'].max_opening!r}")
            say(f"min_opening = {res['profile'].min_opening!r}")
        elif config.run_mode == "sweep-gamma":
            rows = post.sweep_gamma(curve, material, load, config.grid,
                                    N=config.N)
            post.write_sweep_gamma_csv(out / "sweep_gamma.csv", rows)
            for r in rows:
                say(f"gamma1={r.gamma1!r} A1={r.A1!r} A2={r.A2!r} "
                    f"{('ERROR: ' + r.error) if r.error else ''}".rstrip())
        elif config.run_mode == "sweep-curvature":
            rows = post.sweep_curvature(material, load, config.gamma1,
                                        config.grid, N=config.N)
            post.write_sweep_curvature_csv(out / "sweep_curvature.csv", rows)
            for r in rows:
                say(f"kappa0={r.kappa0!r} A1={r.A1!r} A2={r.A2!r} "
                    f"{('ERROR: ' + r.error) if r.error else ''}".rstrip())
        else:
            rows = post.convergence_study(curve, material, load,
                                          config.gamma1, config.grid)
            post.write_convergence_csv(out / "convergence.csv", rows)
            s_grid = np.linspace(0.0, curve.length, 401)
            cols = {}
            for r in rows:
                gp = r.coeffs.gprime(s_grid)
                cols[f"re_gprime_N{r.N}"] = np.real(gp)
                cols[f"im_gprime_N{r.N}"] = np.imag(gp)
            post.write_g_prime_csv(out / "g_prime.csv", s_grid, cols)
            for r in rows:
                say(f"N={r.N} sup_diff={r.sup_diff!r}")
    except AssemblyError as exc:
        return fail(exc, 3)
    except SolveError as exc:
        return fail(exc, 4)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="curvecrack",
        description="Plane-strain curvilinear crack with curvature-dependent "
                    "surface tension: collocation solver and sweeps.")
    parser.add_argument("--config", required=True,
                        help="path to a key=value config file")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides config out_dir)")
    parser.add_argument("--mode", default=None, choices=RUN_MODES,
                        help="run mode (overrides config run_mode)")
    parser.add_argument("--dump-system", action="store_true",
                        help="write the assembled matrix and rhs as text "
                             "(solve mode)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the run summary")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config, out_dir=args.out, mode_override=args.mode,
               dump_system=args.dump_system, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
