#!/usr/bin/env python3
"""Face stresses and displacement derivatives along the semicircular crack.

One CSV per loading (horizontal, vertical, biaxial stretching) and per
gamma1 in {0.5, 1.0, 2.0}, both faces, on a uniform interior grid.
"""

from pathlib import Path

from curvecrack import FarFieldLoad, Material, make_semicircle, solve_problem
from curvecrack.fields import _FieldEvaluator
from curvecrack.postprocess import write_face_fields_csv
from curvecrack.quadrature import midpoint_grid

OUT = Path(__file__).resolve().parent.parent / "results" / "face_profiles"

LOADS = {
    "horizontal": FarFieldLoad(sigma1=1.0, sigma2=0.0),
    "vertical": FarFieldLoad(sigma1=0.0, sigma2=1.0),
    "biaxial": FarFieldLoad(sigma1=1.0, sigma2=1.0),
}


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    curve = make_semicircle()
    material = Material(mu=60.0, kappa=2.5)
    grid = midpoint_grid(curve.length, 150)
    for load_name, load in LOADS.items():
        # one field evaluator per load serves the solves of every gamma1
        fields = _FieldEvaluator(curve, material, load, grid, 20)
        for gamma1 in (0.5, 1.0, 2.0):
            coeffs = solve_problem(curve, material, load, gamma1, N=20)
            path = OUT / f"face_fields_{load_name}_g{gamma1}.csv"
            write_face_fields_csv(path, grid, *fields.face_values(coeffs))
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
