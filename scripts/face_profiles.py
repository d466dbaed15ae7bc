#!/usr/bin/env python3
"""Face stresses and displacement derivatives along the semicircular crack.

One CSV per loading (horizontal, vertical, biaxial stretching) and per
gamma1 in {0.5, 1.0, 2.0}, both faces, on a uniform interior grid.  The
collocation tables depend on neither the load nor gamma1, so they are built
once and applied to each of the nine solves, as `solve_problem` would.  One
face operator (`fields._NodeSide`) of the curve at N serves the tables and
the field evaluators of all three loads.
"""

from pathlib import Path

from curvecrack import FarFieldLoad, Material, make_semicircle, solve
from curvecrack.fields import _FieldEvaluator, _NodeSide
from curvecrack.postprocess import write_face_fields_csv
from curvecrack.quadrature import Discretization, midpoint_grid
from curvecrack.solver import _CollocationTables

OUT = Path(__file__).resolve().parent.parent / "results" / "face_profiles"

LOADS = {
    "horizontal": FarFieldLoad(sigma1=1.0, sigma2=0.0),
    "vertical": FarFieldLoad(sigma1=0.0, sigma2=1.0),
    "biaxial": FarFieldLoad(sigma1=1.0, sigma2=1.0),
}
GAMMAS = (0.5, 1.0, 2.0)
N = 20


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    curve = make_semicircle()
    material = Material(mu=60.0, kappa=2.5)
    grid = midpoint_grid(curve.length, 150)
    node_side = _NodeSide(curve, material, N)
    tables = _CollocationTables(curve, material,
                                Discretization(N, curve.length), node_side)
    for load_name, load in LOADS.items():
        # one field evaluator per load serves the solves of every gamma1
        fields = _FieldEvaluator(curve, material, load, grid, N, node_side)
        for gamma1 in GAMMAS:
            coeffs = solve(tables.system(load, gamma1), curve)
            path = OUT / f"face_fields_{load_name}_g{gamma1}.csv"
            write_face_fields_csv(path, grid, *fields.face_values(coeffs))
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
