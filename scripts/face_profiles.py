#!/usr/bin/env python3
"""Face stresses and displacement derivatives along the semicircular crack.

    python scripts/face_profiles.py [OUT]

One CSV per loading (horizontal, vertical, biaxial stretching) and per
gamma1 in {0.5, 1.0, 2.0}, both faces, on a uniform interior grid, written
into OUT (default results/face_profiles).  The collocation tables depend on
neither the load nor gamma1, so the first `solve_problem` builds them and
the other eight read them from the process's cache.  Each file holds the
face fields of its solve at the grid points (`fields._face_values`, the
public functions' path), read from the cached face operator
(`fields._node_side`) of the curve, material and N.
"""

import sys
from pathlib import Path

from curvecrack import FarFieldLoad, Material, make_semicircle, solve_problem
from curvecrack.fields import _face_values
from curvecrack.postprocess import write_face_fields_csv
from curvecrack.quadrature import midpoint_grid

OUT = Path(__file__).resolve().parent.parent / "results" / "face_profiles"

LOADS = {
    "horizontal": FarFieldLoad(sigma1=1.0, sigma2=0.0),
    "vertical": FarFieldLoad(sigma1=0.0, sigma2=1.0),
    "biaxial": FarFieldLoad(sigma1=1.0, sigma2=1.0),
}
GAMMAS = (0.5, 1.0, 2.0)
N = 20


def main(argv=()):
    if len(argv) > 1:
        print("usage: face_profiles.py [OUT]", file=sys.stderr)
        return 2
    out = Path(argv[0]) if argv else OUT
    out.mkdir(parents=True, exist_ok=True)
    curve = make_semicircle()
    material = Material(mu=60.0, kappa=2.5)
    grid = midpoint_grid(curve.length, 150)
    for load_name, load in LOADS.items():
        for gamma1 in GAMMAS:
            coeffs = solve_problem(curve, material, load, gamma1, N=N)
            path = out / f"face_fields_{load_name}_g{gamma1}.csv"
            write_face_fields_csv(path, grid, *_face_values(
                curve, material, load, coeffs, grid))
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
