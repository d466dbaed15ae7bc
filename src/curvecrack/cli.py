"""Command-line front end: config parsing, run orchestration, CSV persistence.

Configs are UTF-8 key=value text; blank lines and '#' comments are ignored,
and several pairs may share a line separated by commas.  Exit codes:
0 success, 2 configuration/geometry error, 3 assembly error, 4 solve error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import postprocess as post
from .fields import FarFieldLoad, Material, face_field_profile
from .geometry import (CrackCurve, GeometryError, make_circular_arc,
                       make_semicircle, make_straight)
from .solver import (AssemblyError, Discretization, SolveError, assemble,
                     solve, tip_condition_residuals)

RUN_MODES = ("solve", "sweep-gamma", "sweep-curvature", "convergence")
MATERIAL_MODES = ("plane_strain", "plane_stress")

_MANDATORY = ("shape", "mu", "sigma1_inf", "sigma2_inf", "gamma1")
_KNOWN_KEYS = {
    "shape", "curvature", "length", "mu", "nu", "kappa", "mode",
    "sigma1_inf", "sigma2_inf", "alpha", "gamma1", "N", "run_mode",
    "grid", "out_dir", "row_scaling",
}


class ConfigError(ValueError):
    """Malformed or out-of-range run configuration."""


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

    def build_curve(self) -> CrackCurve:
        if self.shape == "semicircle":
            return make_semicircle()
        if self.shape == "arc":
            return make_circular_arc(self.curvature)
        return make_straight(self.length)

    def build_material(self) -> Material:
        return Material(mu=self.mu, kappa=self.kappa, mode=self.mode,
                        nu=self.nu)

    def build_load(self) -> FarFieldLoad:
        return FarFieldLoad(sigma1=self.sigma1_inf, sigma2=self.sigma2_inf,
                            alpha=self.alpha)

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


def parse_config(text: str) -> RunConfig:
    """Parse and validate key=value config text; defaults applied."""
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

    def take(key, default=None):
        return seen.pop(key, (default, 0))

    shape, ln = take("shape")
    if shape not in ("semicircle", "arc", "straight"):
        raise ConfigError(f"line {ln}: key 'shape' must be semicircle, arc "
                          f"or straight, got {shape!r}")

    curvature = length = None
    if "curvature" in seen:
        raw, ln = take("curvature")
        curvature = _parse_float(raw, "curvature", ln)
        if shape != "arc":
            raise ConfigError(f"line {ln}: key 'curvature' only applies to "
                              "shape=arc")
        if not 0.0 < curvature <= 1.0:
            raise ConfigError(f"line {ln}: key 'curvature' must lie in "
                              f"(0, 1], got {curvature}")
    elif shape == "arc":
        raise ConfigError("shape=arc requires key 'curvature'")

    if "length" in seen:
        raw, ln = take("length")
        length = _parse_float(raw, "length", ln)
        if shape != "straight":
            raise ConfigError(f"line {ln}: key 'length' only applies to "
                              "shape=straight")
        if length <= 0:
            raise ConfigError(f"line {ln}: key 'length' must be positive, "
                              f"got {length}")
    elif shape == "straight":
        raise ConfigError("shape=straight requires key 'length'")

    raw, ln = take("mu")
    mu = _parse_float(raw, "mu", ln)
    if mu <= 0:
        raise ConfigError(f"line {ln}: key 'mu' must be positive, got {mu}")

    raw, ln = take("mode", "plane_strain")
    mode = raw
    if mode not in MATERIAL_MODES:
        raise ConfigError(f"line {ln}: key 'mode' must be plane_strain or "
                          f"plane_stress, got {mode!r}")

    nu = kappa = None
    if "nu" in seen and "kappa" in seen:
        _, ln = take("nu")
        raise ConfigError(f"line {ln}: give either 'nu' or 'kappa', not both")
    if "nu" in seen:
        raw, ln = take("nu")
        nu = _parse_float(raw, "nu", ln)
        if not 0.0 < nu < 0.5:
            raise ConfigError(f"line {ln}: key 'nu' must lie in (0, 0.5), "
                              f"got {nu}")
        kappa = 3.0 - 4.0 * nu if mode == "plane_strain" \
            else (3.0 - nu) / (1.0 + nu)
    else:
        raw, ln = take("kappa")
        kappa = _parse_float(raw, "kappa", ln)
        if not 1.0 < kappa < 3.0:
            raise ConfigError(f"line {ln}: key 'kappa' must lie in (1, 3), "
                              f"got {kappa}")

    raw, ln = take("sigma1_inf")
    sigma1 = _parse_float(raw, "sigma1_inf", ln)
    raw, ln = take("sigma2_inf")
    sigma2 = _parse_float(raw, "sigma2_inf", ln)
    raw, ln = take("alpha", "0.0")
    alpha = _parse_float(raw, "alpha", ln)

    raw, ln = take("gamma1")
    gamma1 = _parse_float(raw, "gamma1", ln)
    if gamma1 < 0:
        raise ConfigError(f"line {ln}: key 'gamma1' must be nonnegative, "
                          f"got {gamma1}")

    raw, ln = take("N", "20")
    n_value = _parse_int(raw, "N", ln)
    if n_value < 4:
        raise ConfigError(f"line {ln}: key 'N' must be at least 4, "
                          f"got {n_value}")

    raw, ln = take("run_mode", "solve")
    run_mode = raw
    if run_mode not in RUN_MODES:
        raise ConfigError(f"line {ln}: key 'run_mode' must be one of "
                          f"{', '.join(RUN_MODES)}, got {run_mode!r}")

    grid: tuple = ()
    if "grid" in seen:
        # grid values are space- or semicolon-separated (commas split pairs)
        raw, ln = take("grid")
        parse = _parse_int if run_mode == "convergence" else _parse_float
        grid = _check_grid(tuple(parse(p, "grid", ln)
                                 for p in raw.replace(";", " ").split()),
                           run_mode, f"line {ln}: ")
    elif run_mode != "solve":
        raise ConfigError(f"run_mode={run_mode} requires key 'grid'")

    raw, ln = take("out_dir", "out")
    out_dir = raw

    raw, ln = take("row_scaling", "on")
    if raw not in ("on", "off"):
        raise ConfigError(f"line {ln}: key 'row_scaling' must be on or off, "
                          f"got {raw!r}")
    row_scaling = raw == "on"
    _check_row_scaling(row_scaling, run_mode, f"line {ln}: ")

    return RunConfig(shape=shape, curvature=curvature, length=length, mu=mu,
                     kappa=kappa, nu=nu, mode=mode, sigma1_inf=sigma1,
                     sigma2_inf=sigma2, alpha=alpha, gamma1=gamma1,
                     N=n_value, run_mode=run_mode, grid=grid, out_dir=out_dir,
                     row_scaling=row_scaling)


def _check_row_scaling(row_scaling, run_mode, where=""):
    """Only solve mode passes row_scaling on; the other modes always scale."""
    if not row_scaling and run_mode != "solve":
        raise ConfigError(f"{where}key 'row_scaling' = off only applies to "
                          f"run_mode=solve; {run_mode} always scales its rows")


def _check_grid(grid, run_mode, where=""):
    """Validate a grid for run_mode; a convergence grid comes back as ints."""
    if not grid:
        raise ConfigError(f"{where}key 'grid' is empty")
    if run_mode == "convergence":
        if any(float(g) != int(g) for g in grid):
            raise ConfigError(f"{where}convergence grid needs integers, "
                              f"got {grid}")
        grid = tuple(int(g) for g in grid)
        if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"{where}key 'grid' must be an ascending list "
                              "of at least two N values")
        if grid[0] < 4:
            raise ConfigError(f"{where}convergence grid values must be at "
                              f"least 4, got {grid[0]}")
        return grid
    grid = tuple(float(g) for g in grid)
    if run_mode == "sweep-gamma" and any(g <= 0 for g in grid):
        raise ConfigError(f"{where}sweep-gamma grid values must be positive")
    if run_mode == "sweep-curvature" and any(not 0.0 < g <= 1.0 for g in grid):
        raise ConfigError(f"{where}sweep-curvature grid values must lie in "
                          "(0, 1]")
    return grid


def _solve_outputs(config, curve, material, load, dump_system):
    """Compute everything solve mode writes, before touching the filesystem."""
    disc = Discretization(config.N, curve.length)
    system = assemble(curve, material, load, config.gamma1, disc,
                      config.row_scaling)
    coeffs = solve(system, curve)

    s_grid = np.linspace(0.0, curve.length, 401)
    gp = coeffs.gprime(s_grid)
    g_cols = {"re_gprime": np.real(gp), "im_gprime": np.imag(gp)}

    k_pts = 100
    j = np.arange(1, k_pts + 1)
    field_grid = (2 * j - 1) * curve.length / (2 * k_pts)
    samples = face_field_profile(curve, material, load, coeffs, field_grid)
    profile = post.opening_profile(coeffs, curve, material)
    fits = post.fit_tip_coefficients(curve, material, load, coeffs)
    residuals = tip_condition_residuals(coeffs, curve, material, config.gamma1)
    dump = system.dump_text() if dump_system else None
    return {
        "coeffs": coeffs, "s_grid": s_grid, "g_cols": g_cols,
        "samples": samples, "profile": profile, "fits": fits,
        "residuals": residuals, "dump": dump,
    }


def run(config: RunConfig, out_dir: str | None = None,
        mode_override: str | None = None, dump_system: bool = False,
        quiet: bool = False) -> int:
    """Execute the configured pipeline; returns the process exit code."""
    if mode_override is not None:
        if mode_override not in RUN_MODES:
            print(f"error: unknown mode {mode_override!r}", file=sys.stderr)
            return 2
        config = replace(config, run_mode=mode_override)
    try:
        if config.run_mode != "solve":
            if not config.grid:
                raise ConfigError(f"run_mode={config.run_mode} requires key "
                                  "'grid'")
            config = replace(config, grid=_check_grid(config.grid,
                                                      config.run_mode))
        _check_row_scaling(config.row_scaling, config.run_mode)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if out_dir is not None:
        config = replace(config, out_dir=out_dir)

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.txt").write_text(config.echo_text())

    def fail(exc, code):
        (out / "error.log").write_text(f"{type(exc).__name__}: {exc}\n")
        if not quiet:
            print(f"error: {exc}", file=sys.stderr)
        return code

    try:
        curve = config.build_curve()
        material = config.build_material()
        load = config.build_load()
    except (GeometryError, ValueError) as exc:
        return fail(exc, 2)

    say = (lambda *a: None) if quiet else print

    try:
        if config.run_mode == "solve":
            res = _solve_outputs(config, curve, material, load, dump_system)
            post.write_g_prime_csv(out / "g_prime.csv", res["s_grid"],
                                   res["g_cols"])
            post.write_face_fields_csv(out / "face_fields.csv", res["samples"])
            post.write_opening_csv(out / "opening.csv", res["profile"])
            if res["dump"] is not None:
                (out / "system_dump.txt").write_text(res["dump"])
            coeffs = res["coeffs"]
            fits = res["fits"]
            say(f"condition_estimate = {coeffs.condition_estimate:.6e}")
            say("tip_condition_residuals = "
                + " ".join(f"{v:.3e}" for v in res["residuals"]))
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
    except GeometryError as exc:
        return fail(exc, 2)
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
