"""Command-line front end: config parsing, run orchestration, CSV persistence.

Configs are UTF-8 key=value text; blank lines and '#' comments are ignored,
and several pairs may share a line separated by commas.  Exit codes:
0 success, 2 configuration/geometry error, 3 assembly error, 4 solve error.

`RunConfig`'s fields are the keys, in echo order, with their defaults and
`_PARSERS` their parsers; `parse_config` checks the syntax alone and
`RunConfig.build` every other rule, for parsed and code-built configs.

Solve mode reads and reports through the sweeps' path: one
`postprocess._SweepTables`, of all four face fields at its face points
where a sweep's keep the tractions alone, kept by the cached node side
of the curve, material and N (`postprocess._sweep_tables`), gives the
system, its `values` the face fields, tip coefficients and opening of the
solution, and its `report`, only for a printed summary, the numbers of
`postprocess.SolveReport`.  A
convergence run writes g_prime.csv from the samples the study compared,
on the study's grid.  Every mode writes its CSVs through
`postprocess.write_csv`, from whole columns.  The cli builds and formats
no grid of its own: the s columns of solve mode (g_prime.csv,
opening.csv every second cell, face_fields.csv with its side column) and
of a convergence run are the text the node side keeps with the grids
(`postprocess._OutputGrid`, `_SweepTables.face_text`), formatted once per
process.
"""

from __future__ import annotations

import argparse
import math
import numbers
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import postprocess as post
from .fields import FarFieldLoad, Material, SurfaceParams
from .geometry import (CrackCurve, make_circular_arc, make_semicircle,
                       make_straight)
from .solver import (AssemblyError, Discretization, SolveError,
                     _tip_residuals, solve)

RUN_MODES = ("solve", "sweep-gamma", "sweep-curvature", "convergence")

_MANDATORY = ("shape", "mu", "sigma1_inf", "sigma2_inf", "gamma1")
# the modes that read a key, where not all do: a curvature sweep builds one
# arc per grid value, and a gamma1 sweep and a convergence run take their
# gamma1 and N values from the grid.  A mode requires and checks only the
# keys it reads.
_READ_BY = {"shape": ("solve", "sweep-gamma", "convergence"),
            "gamma1": ("solve", "sweep-curvature", "convergence"),
            "N": ("solve", "sweep-gamma", "sweep-curvature")}


class ConfigError(ValueError):
    """Malformed or out-of-range run configuration."""


class BuiltRun(NamedTuple):
    """A checked config (grid coerced to its run mode) and its objects."""

    config: "RunConfig"
    curve: CrackCurve | None
    material: Material
    load: FarFieldLoad
    disc: Discretization | None


@dataclass
class RunConfig:
    """The keys of a run config, in echo order; None is a key not given."""

    shape: str | None = None
    curvature: float | None = None
    length: float | None = None
    mu: float | None = None
    nu: float | None = None
    kappa: float | None = None
    mode: str = "plane_strain"
    sigma1_inf: float | None = None
    sigma2_inf: float | None = None
    alpha: float = 0.0
    gamma1: float | None = None
    N: int = 20
    run_mode: str = "solve"
    grid: tuple = ()
    out_dir: str = "out"
    row_scaling: bool = True

    def build(self, lines: dict | None = None) -> BuiltRun:
        """Check the config and construct the library objects it describes.

        The CLI's own rules come first: each key holds what its parser gives
        (`_VALUE_KINDS`) or its default None, a non-empty out_dir that the
        config echo reads back unchanged, the run mode, the keys it
        requires, its grid, the shape and the key it needs, and
        row_scaling = off only in solve mode.  Only the keys the run mode
        reads are required and checked (`_READ_BY`): sweep-curvature reads
        no shape (nor curvature or length), sweep-gamma no gamma1 and
        convergence no N.  curve and disc are None where the mode reads no
        shape or no N.  Every range is then left to the constructors (curve,
        Material, FarFieldLoad, SurfaceParams, Discretization); a ValueError
        from any of them becomes a ConfigError.  Where nu is given, the
        checked config holds the kappa that follows from it.  lines maps a
        key to the line of the config text that set it, for the error
        messages.
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

        def reads(key):
            return self.run_mode in _READ_BY.get(key, RUN_MODES)

        # each key holds what its parser gives, in code-built configs too
        for f in fields(self):
            value = getattr(self, f.name)
            what, fits = _VALUE_KINDS[_PARSERS[f.name]]
            if not (fits(value) or value is None and f.default is None):
                raise ConfigError(f"{at(f.name)}key '{f.name}' needs {what}, "
                                  f"got {value!r}")
        # parse_config splits lines, pairs at ',' and comments at '#', and
        # strips each value, so out_dir must hold none of these to be read
        # back from the echo; an empty one is the current directory
        if (not self.out_dir or any(c in self.out_dir for c in ",#")
                or self.out_dir != self.out_dir.strip()
                or len(self.out_dir.splitlines()) > 1):
            raise ConfigError(f"{at('out_dir')}key 'out_dir' must be "
                              "non-empty and hold no ',', '#', line break or "
                              "leading or trailing whitespace, got "
                              f"{self.out_dir!r}")
        if self.run_mode not in RUN_MODES:
            raise ConfigError(f"{at('run_mode')}key 'run_mode' must be one of "
                              f"{', '.join(RUN_MODES)}, got {self.run_mode!r}")
        missing = [k for k in _MANDATORY
                   if reads(k) and getattr(self, k) is None]
        if self.nu is None and self.kappa is None:
            missing.append("nu|kappa")
        if missing:
            raise ConfigError("missing mandatory keys: " + ", ".join(missing))
        curve = self._curve(at, make) if reads("shape") else None
        if not self.row_scaling and self.run_mode != "solve":
            raise ConfigError(f"{at('row_scaling')}key 'row_scaling' = off "
                              "only applies to run_mode=solve; "
                              f"{self.run_mode} always scales its rows")
        grid, arcs = tuple(self.grid), []
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
            elif self.run_mode == "sweep-gamma":
                grid = tuple(float(g) for g in grid)
                for value in grid:
                    make("grid", SurfaceParams, value)
                if 0.0 in grid:
                    raise ConfigError(f"{at('grid')}sweep-gamma grid values "
                                      "must be positive")
            else:
                grid = tuple(float(g) for g in grid)
                arcs = [make("grid", make_circular_arc, value)
                        for value in grid]

        if self.nu is None:
            material = make(None, Material, mu=self.mu, kappa=self.kappa,
                            mode=self.mode)
        else:
            material = make(None, Material.from_poisson, self.mu, self.nu,
                            self.mode)
        load = make(None, FarFieldLoad, sigma1=self.sigma1_inf,
                    sigma2=self.sigma2_inf, alpha=self.alpha)
        if reads("gamma1"):
            make("gamma1", SurfaceParams, self.gamma1)
        disc = None
        if reads("N"):
            # a curvature sweep checks N on its first arc; all are alike
            length = curve.length if curve is not None else arcs[0].length
            disc = make("N", Discretization, self.N, length)
        return BuiltRun(replace(self, grid=grid, kappa=material.kappa), curve,
                        material, load, disc)

    def _curve(self, at, make):
        """The curve of the shape key and the key that shape needs."""
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
            return make("curvature", make_circular_arc, self.curvature)
        if self.shape == "straight":
            return make("length", make_straight, self.length)
        return make_semicircle()

    def echo_text(self) -> str:
        """The config as key = value text that parse_config reads back.

        The material key is the one the config was given: nu, from which
        kappa follows, or else kappa.  Grid values are space-separated.
        """
        lines = []
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "kappa" and self.nu is not None:
                value = None
            elif field.name == "grid":
                value = " ".join(map(repr, value)) or None
            elif field.name == "row_scaling":
                value = "on" if value else "off"
            if value is not None:
                lines.append(f"{field.name} = {value}")
        return "\n".join(lines) + "\n"


def _parse_text(raw, key, line_no):
    return raw


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


# the parser of each RunConfig field's key
_PARSERS = {
    "shape": _parse_text, "curvature": _parse_float, "length": _parse_float,
    "mu": _parse_float, "nu": _parse_float, "kappa": _parse_float,
    "mode": _parse_text, "sigma1_inf": _parse_float,
    "sigma2_inf": _parse_float, "alpha": _parse_float,
    "gamma1": _parse_float, "N": _parse_int, "run_mode": _parse_text,
    "grid": _parse_grid, "out_dir": _parse_text, "row_scaling": _parse_switch,
}


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# the value each parser gives, which a key of a config built in code must
# hold too: what it is, and the test of a value
_VALUE_KINDS = {
    _parse_text: ("a string", lambda v: isinstance(v, str)),
    _parse_float: ("a real number", _is_real),
    _parse_int: ("an integer",
                 lambda v: _is_real(v) and isinstance(v, numbers.Integral)),
    _parse_grid: ("a tuple of real numbers",
                  lambda v: isinstance(v, (tuple, list))
                  and all(map(_is_real, v))),
    _parse_switch: ("a bool (on or off)", lambda v: isinstance(v, bool)),
}


def parse_config(text: str) -> RunConfig:
    """Parse key=value config text (the syntax and each key's `_PARSERS`
    parser), then check every other rule with RunConfig.build."""
    parsed, lines = {}, {}
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
            if key not in _PARSERS:
                raise ConfigError(f"line {line_no}: unknown key '{key}'")
            if key in parsed:
                raise ConfigError(f"line {line_no}: duplicate key '{key}'")
            parsed[key] = _PARSERS[key](raw.strip(), key, line_no)
            lines[key] = line_no
    if "nu" in parsed and "kappa" in parsed:
        raise ConfigError(f"line {lines['nu']}: give either 'nu' or "
                          "'kappa', not both")
    return RunConfig(**parsed).build(lines).config


def _solve_outputs(config, curve, material, load, disc, dump_system):
    """Compute everything solve mode writes, before touching the filesystem.

    One table set (`postprocess._SweepTables` of all four face fields,
    the one the cached node side of the curve, material and N keeps)
    serves the whole run: its collocation tables give the system, the
    basis table of its g' grid g' there (the product `coeffs.gprime`
    forms), and its rows on the unknowns, applied to a stack of one, the
    face fields, the opening and what the report reads (`values`).  The
    report and the tip residuals are left to `_solve_summary`, which only
    a printed summary reads.
    """
    tables = post._sweep_tables(curve, material, disc.N, post._FACE_POINTS,
                                4)
    system = tables.collocation.system(load, config.gamma1,
                                       config.row_scaling)
    coeffs = solve(system)

    gp = tables.grid.table @ (coeffs.g1 + 1j * coeffs.g2)
    g_cols = {"re_gprime": np.real(gp), "im_gprime": np.imag(gp)}

    x = np.concatenate([coeffs.g1, coeffs.g2])[None]
    traction, du, jump, report = tables.values(x, np.array([coeffs.gamma1]),
                                               load)
    dump = system.dump_text() if dump_system else None
    return {
        "coeffs": coeffs, "g_cols": g_cols,
        "face": (tables.face_text, traction[..., 0], du[..., 0]),
        "opening": (jump[:, 0], report[-1][:, 0]), "tables": tables,
        "report": report, "dump": dump,
    }


def _solve_summary(res, curve):
    """The lines of solve mode's run summary, from `_solve_outputs`: the
    report (by label where a number has one), the tip residuals and the
    single-valuedness residual are computed here, for the summary alone."""
    coeffs, tables = res["coeffs"], res["tables"]
    report = tables.report(*res["report"])[0].tolist()
    residuals = _tip_residuals(coeffs, curve, tables.collocation.tip_rows)
    return [f"condition_estimate = {coeffs.condition_estimate:.6e}",
            "tip_condition_residuals ="
            + "".join(f" {v:.3e}" for v in residuals),
            f"single_valued_residual = {coeffs.single_valued_residual:.3e}",
            *(f"{f.metadata.get('label', f.name):<11} = {value!r}"
              for f, value in zip(post._NUMBERS, report, strict=True))]


def run(config: RunConfig, out_dir: str | None = None,
        mode_override: str | None = None, dump_system: bool = False,
        quiet: bool = False) -> int:
    """Execute the configured pipeline; returns the process exit code.

    The config is checked before anything is written: a ConfigError, or
    dump_system outside solve mode, exits 2 and leaves no output
    directory.  An output directory that cannot be created, or its config
    echo written, exits 2 as well.
    """
    if mode_override is not None:
        config = replace(config, run_mode=mode_override)
    if out_dir is not None:
        config = replace(config, out_dir=out_dir)
    try:
        config, curve, material, load, disc = config.build()
        if dump_system and config.run_mode != "solve":
            raise ConfigError("--dump-system only applies to run_mode=solve; "
                              f"{config.run_mode} assembles no single system")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config_echo.txt").write_text(config.echo_text())
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        print(f"error: cannot write output directory {str(out)!r}: {exc}",
              file=sys.stderr)
        return 2

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
            # the opening's 201-point grid is every second point of the
            # 401-point g' grid, bit for bit, so its s column is that text
            s_text = res["tables"].grid.text
            post.write_g_prime_csv(out / "g_prime.csv", s_text,
                                   res["g_cols"])
            post._write_face_fields_csv(out / "face_fields.csv",
                                        *res["face"])
            post._write_opening_csv(out / "opening.csv", s_text[::2],
                                    *res["opening"])
            if res["dump"] is not None:
                (out / "system_dump.txt").write_text(res["dump"])
            if not quiet:
                print("\n".join(_solve_summary(res, curve)))
        elif config.run_mode == "convergence":
            rows = post.convergence_study(curve, material, load,
                                          config.gamma1, config.grid)
            post.write_convergence_csv(out / "convergence.csv", rows)
            cols = {}
            for r in rows:
                cols[f"re_gprime_N{r.N}"] = np.real(r.gprime)
                cols[f"im_gprime_N{r.N}"] = np.imag(r.gprime)
            post.write_g_prime_csv(out / "g_prime.csv", rows[0].grid.text,
                                   cols)
            for r in rows:
                say(f"N={r.N} sup_diff={r.sup_diff!r}")
        else:
            if config.run_mode == "sweep-gamma":
                rows = post.sweep_gamma(curve, material, load, config.grid,
                                        N=config.N)
                post.write_sweep_gamma_csv(out / "sweep_gamma.csv", rows)
            else:
                rows = post.sweep_curvature(material, load, config.gamma1,
                                            config.grid, N=config.N)
                post.write_sweep_curvature_csv(out / "sweep_curvature.csv",
                                               rows)
            key = post._sweep_header(type(rows[0]))[0]
            for r in rows:
                say(f"{key}={getattr(r, key)!r} A1={r.A1!r} A2={r.A2!r} "
                    f"{('ERROR: ' + r.error) if r.error else ''}".rstrip())
            if config.run_mode == "sweep-gamma":
                idx, within = post.extremum_coincidence_report(rows)
                say(f"extremum indices {idx}; within one grid step: {within}")
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
