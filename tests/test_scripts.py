"""Every script under scripts/ imports against the current API.

Importing a script only defines things: each creates its output directory
inside main(), so the import has no side effects.
"""

import importlib.util
from pathlib import Path

import pytest

from curvecrack import Material, make_semicircle, solve_problem
from curvecrack.fields import _FieldEvaluator
from curvecrack.postprocess import write_face_fields_csv
from curvecrack.quadrature import midpoint_grid

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts")
                 .glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_and_defines_main(path):
    assert callable(_load(path).main)


def test_face_profiles_match_solve_problem(tmp_path, monkeypatch):
    # the script tabulates once; each file must be what a full
    # solve_problem per load and gamma1 would write
    module = _load(next(p for p in SCRIPTS if p.name == "face_profiles.py"))
    monkeypatch.setattr(module, "OUT", tmp_path / "out")
    module.main()
    curve = make_semicircle()
    material = Material(mu=60.0, kappa=2.5)
    grid = midpoint_grid(curve.length, 150)
    want = tmp_path / "want.csv"
    names = set()
    for load_name, load in module.LOADS.items():
        fields = _FieldEvaluator(curve, material, load, grid, module.N)
        for gamma1 in module.GAMMAS:
            coeffs = solve_problem(curve, material, load, gamma1, N=module.N)
            write_face_fields_csv(want, grid, *fields.face_values(coeffs))
            name = f"face_fields_{load_name}_g{gamma1}.csv"
            names.add(name)
            assert (tmp_path / "out" / name).read_bytes() == want.read_bytes()
    assert {p.name for p in (tmp_path / "out").iterdir()} == names
    assert len(names) == 9
