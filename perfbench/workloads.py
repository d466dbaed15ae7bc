"""Seeded inputs and output checks for the three benchmark workloads.

Every workload is a sequence of ``curvecrack.cli.run`` calls on configs
generated here from the benchmark seed; the program sees only the config.
This module uses the standard library alone, so the set-up probe can build
its config before ``curvecrack`` (and numpy) are imported.
"""

from __future__ import annotations

import csv
import io
import math
import random

MATERIAL = {"mu": 60.0, "kappa": 2.5}      # README reference material
SOLVE_CONFIGS = 4                            # solve-report configs per run
SWEEP_POINTS = 8
CONVERGENCE_GRID = (16, 20, 30, 40, 60)

# Why each generated range is what it is; printed with the inputs.
RANGES = {
    "gamma1": "[0.5, 2] log-uniform (sweep: [0.5, 4]); gamma1 >= 0.5 keeps "
              "clear of the near-resonance at gamma1 ~ 0.25, where the max "
              "traction is not converged in N",
    "gamma1_strata": "solve-report draws one gamma1 from each quarter of "
                     "[0.5, 2] in log scale, so every run covers the whole "
                     "range and the worst-case field error is comparable",
    "sigma1_inf": "[0.5, 1.5]; the problem is linear in the load, so the "
                  "scale only checks that outputs follow it",
    "sigma2_ratio": "sigma2/sigma1 in [-0.5, 1] (solve, sweep) or [0.2, 1] "
                    "(biaxial arc-convergence load)",
    "alpha": "[0, pi): every principal-axis orientation",
    "curvature": "[0.3, 0.9]: curved enough for the kernels to matter, and "
                 "below 1 so arc-convergence never runs the semicircle "
                 "geometry the other workloads use",
    "sweep_range": "8 gamma1 values log-spaced over [a, 4a], a in [0.5, 1], "
                   "a sub-range of [0.5, 4]",
}

WORKLOADS = ("solve-report", "gamma-sweep", "arc-convergence")


def _log_uniform(rng, lo, hi):
    return lo * (hi / lo) ** rng.random()


def _load(rng, ratio_lo, ratio_hi):
    sigma1 = rng.uniform(0.5, 1.5)
    return {"sigma1_inf": sigma1,
            "sigma2_inf": sigma1 * rng.uniform(ratio_lo, ratio_hi),
            "alpha": rng.uniform(0.0, math.pi)}


def generate(workload: str, seed: int) -> list:
    """The configs (as parameter dicts) one run of the workload cycles through."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve-report":
        configs = []
        for k in range(SOLVE_CONFIGS):
            stratum = (k + rng.random()) / SOLVE_CONFIGS
            configs.append({"shape": "semicircle", **MATERIAL,
                            **_load(rng, -0.5, 1.0),
                            "gamma1": 0.5 * 4.0 ** stratum, "N": 20,
                            "run_mode": "solve"})
        return configs
    if workload == "gamma-sweep":
        lo = _log_uniform(rng, 0.5, 1.0)
        grid = tuple(lo * 4.0 ** (i / (SWEEP_POINTS - 1))
                     for i in range(SWEEP_POINTS))
        return [{"shape": "semicircle", **MATERIAL, **_load(rng, -0.5, 1.0),
                 "gamma1": grid[0], "N": 20, "run_mode": "sweep-gamma",
                 "grid": grid}]
    return [{"shape": "arc", "curvature": rng.uniform(0.3, 0.9), **MATERIAL,
             **_load(rng, 0.2, 1.0), "gamma1": _log_uniform(rng, 0.5, 2.0),
             "run_mode": "convergence", "grid": CONVERGENCE_GRID}]


def config_text(params: dict) -> str:
    """key = value config text for one parameter dict."""
    lines = []
    for key, value in params.items():
        if key == "grid":
            value = " ".join(repr(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Output checks (standard library only)

class OutputCheck:
    """Problems found in one run's output files, and how many points failed."""

    def __init__(self, points: int):
        self.points = points
        self.failed = set()      # indices of failed points
        self.problems = []

    def fail(self, message, point=None):
        self.problems.append(message)
        if point is None:
            self.failed.update(range(self.points))
        else:
            self.failed.add(point)

    @property
    def n_failed(self) -> int:
        return len(self.failed)


def read_table(files, name, header, rows, check):
    """Parse a CSV, checking its header and row count; None when unusable."""
    if name not in files:
        check.fail(f"{name} missing")
        return None
    reader = csv.reader(io.StringIO(files[name].decode("utf-8")))
    got_header = next(reader, [])
    if got_header != header:
        check.fail(f"{name} header {got_header} != {header}")
        return None
    table = list(reader)
    if len(table) != rows:
        check.fail(f"{name} has {len(table)} rows, expected {rows}")
        return None
    if any(len(r) != len(header) for r in table):
        check.fail(f"{name} has ragged rows")
        return None
    return table


def numeric_columns(table, header, name, check, skip=()):
    """{column: [float]} for every column not in skip; flags non-finite."""
    cols = {}
    for j, key in enumerate(header):
        if key in skip:
            continue
        try:
            cols[key] = [float(r[j]) for r in table]
        except ValueError:
            check.fail(f"{name}: non-numeric entry in column {key}")
            return None
        if not all(math.isfinite(v) for v in cols[key]):
            check.fail(f"{name}: non-finite entry in column {key}")
            return None
    return cols


def check_solve(params, files, check):
    g = read_table(files, "g_prime.csv", ["s", "re_gprime", "im_gprime"],
                   401, check)
    face_header = ["s", "side", "sigma_n", "tau_n", "du1_ds", "du2_ds"]
    face = read_table(files, "face_fields.csv", face_header, 200, check)
    opening = read_table(files, "opening.csv",
                         ["s", "du1_jump", "du2_jump", "delta"], 201, check)
    if g is None or face is None or opening is None:
        return None
    g_cols = numeric_columns(g, ["s", "re_gprime", "im_gprime"],
                             "g_prime.csv", check)
    face_cols = numeric_columns(face, face_header, "face_fields.csv", check,
                                skip=("side",))
    open_cols = numeric_columns(opening, ["s", "du1_jump", "du2_jump", "delta"],
                                "opening.csv", check)
    if g_cols is None or face_cols is None or open_cols is None:
        return None
    sides = [r[1] for r in face]
    if sides != ["plus"] * 100 + ["minus"] * 100:
        check.fail("face_fields.csv: expected 100 plus then 100 minus rows")
    if open_cols["du1_jump"][0] != 0.0 or open_cols["du2_jump"][0] != 0.0:
        check.fail("opening.csv: the jump must vanish at s = 0")
    rows = [{"s": face_cols["s"][i], "side": sides[i],
             "sigma_n": face_cols["sigma_n"][i], "tau_n": face_cols["tau_n"][i]}
            for i in range(len(face))]
    return {"g_prime": g_cols, "face": rows}


def check_sweep(params, files, check):
    header = ["gamma1", "A1", "A2", "max_opening", "min_opening",
              "max_traction", "error"]
    table = read_table(files, "sweep_gamma.csv", header, len(params["grid"]),
                       check)
    if table is None:
        return None
    max_traction = []
    for i, row in enumerate(table):
        if row[-1]:
            check.fail(f"sweep point {i}: {row[-1]}", point=i)
            continue
        try:
            vals = [float(v) for v in row[:-1]]
        except ValueError:
            check.fail(f"sweep point {i}: non-numeric entry", point=i)
            continue
        if not all(math.isfinite(v) for v in vals):
            check.fail(f"sweep point {i}: non-finite entry", point=i)
        elif vals[0] != params["grid"][i]:
            check.fail(f"sweep point {i}: gamma1 {vals[0]} is not the "
                       f"configured {params['grid'][i]}", point=i)
        elif not (vals[3] >= vals[4] and vals[5] > 0.0):
            check.fail(f"sweep point {i}: inconsistent extremes", point=i)
        else:
            max_traction.append((vals[0], vals[5]))
    return {"max_traction": max_traction}


def check_convergence(params, files, check):
    grid = params["grid"]
    table = read_table(files, "convergence.csv", ["N", "sup_diff_vs_largest"],
                       len(grid), check)
    header = ["s"] + [f"{part}_gprime_N{n}" for n in grid
                      for part in ("re", "im")]
    g = read_table(files, "g_prime.csv", header, 401, check)
    if table is None or g is None:
        return None
    cols = numeric_columns(g, header, "g_prime.csv", check)
    if cols is None:
        return None
    gp = {n: [complex(re, im) for re, im in zip(cols[f"re_gprime_N{n}"],
                                                cols[f"im_gprime_N{n}"])]
          for n in grid}
    finest = gp[grid[-1]]
    for i, (n, row) in enumerate(zip(grid, table)):
        try:
            n_csv, sup = int(row[0]), float(row[1])
        except ValueError:
            check.fail(f"convergence row {i}: non-numeric entry", point=i)
            continue
        own = max(abs(a - b) for a, b in zip(gp[n], finest))
        if n_csv != n or not math.isfinite(sup):
            check.fail(f"convergence row {i}: bad N or sup_diff", point=i)
        elif abs(sup - own) > 1e-12 * max(own, 1.0):
            check.fail(f"convergence row {i}: sup_diff {sup!r} disagrees "
                       f"with g_prime.csv ({own!r})", point=i)
    sup_finest = max(abs(v) for v in finest)
    return {"density_selfconv": max(abs(a - b) for a, b in zip(gp[20], finest))
            / sup_finest, "g_prime": cols}


def points(params) -> int:
    """Parameter points one run of this config solves."""
    return 1 if params["run_mode"] == "solve" else len(params["grid"])


_CHECKERS = {"solve": check_solve, "sweep-gamma": check_sweep,
             "convergence": check_convergence}


def check_outputs(params, code, files):
    """Check one run's exit code and files; returns (OutputCheck, extracted)."""
    check = OutputCheck(points(params))
    if code != 0:
        check.fail(f"exit code {code}")
        return check, None
    if "error.log" in files:
        check.fail("error.log written: " + files["error.log"].decode().strip())
    if "config_echo.txt" not in files:
        check.fail("config_echo.txt missing")
    return check, _CHECKERS[params["run_mode"]](params, files, check)
