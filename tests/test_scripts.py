"""Every script under scripts/ imports against the current API and runs.

Importing a script only defines things: each creates its output directory
inside main(), so the import has no side effects.
"""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from curvecrack import Material, make_semicircle, solve_problem, solver
from curvecrack.cli import parse_config, run
from curvecrack.fields import _face_values, _NodeSide
from curvecrack.postprocess import write_face_fields_csv
from curvecrack.quadrature import midpoint_grid

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


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


def test_face_profiles_match_solve_problem(tmp_path):
    # the script tabulates once; each file must be what a full
    # solve_problem per load and gamma1 would write, in the directory given
    module = _load(next(p for p in SCRIPTS if p.name == "face_profiles.py"))
    assert module.main([str(tmp_path / "out")]) == 0
    curve = make_semicircle()
    material = Material(mu=60.0, kappa=2.5)
    grid = midpoint_grid(curve.length, 150)
    want = tmp_path / "want.csv"
    names = set()
    for load_name, load in module.LOADS.items():
        for gamma1 in module.GAMMAS:
            coeffs = solve_problem(curve, material, load, gamma1, N=module.N)
            write_face_fields_csv(want, grid, *_face_values(
                curve, material, load, coeffs, grid))
            name = f"face_fields_{load_name}_g{gamma1}.csv"
            names.add(name)
            assert (tmp_path / "out" / name).read_bytes() == want.read_bytes()
    assert {p.name for p in (tmp_path / "out").iterdir()} == names
    assert len(names) == 9


def test_face_profiles_build_one_node_side(tmp_path, monkeypatch, capsys,
                                           cold_tables):
    # one face operator of the curve at N serves the collocation tables and
    # the face-field rows of all nine solves
    module = _load(next(p for p in SCRIPTS if p.name == "face_profiles.py"))
    monkeypatch.setattr(module, "OUT", tmp_path / "out")
    built, init = [], _NodeSide.__init__
    monkeypatch.setattr(_NodeSide, "__init__", lambda self, *args, **kwargs:
                        built.append(args) or init(self, *args, **kwargs))
    assert module.main() == 0
    assert len(built) == 1
    # without a directory the script writes into OUT
    assert len(list((tmp_path / "out").glob("face_fields_*.csv"))) == 9
    assert module.main(["a", "b"]) == 2
    assert not (Path.cwd() / "a").exists()


def test_operators_are_factored_once_per_gamma1(tmp_path, monkeypatch,
                                                cold_tables):
    # the loads share each operator: face_profiles' three loads at three
    # gamma1 form and factor three operators, a repeated sweep none, and
    # the vertical shipped gamma1 sweep none after the horizontal one; the
    # table cache's cache_clear() empties the kept systems too
    points, formed = [], []
    svd = np.linalg.svd
    operators = solver._CollocationTables._operators

    def counted(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == solver.__name__:
            points.append(a.size // (a.shape[-1] * a.shape[-2]) // 2)
        return svd(a, *args, **kwargs)

    def forming(tables, gamma1, tip_rows):
        formed.append(gamma1.size)
        return operators(tables, gamma1, tip_rows)

    def factored():
        # the points whose collocation rows were formed, and those
        # factored: two SVDs per factorization, over both halves of each
        counts = sum(formed), sum(points) / 2
        points.clear()
        formed.clear()
        return counts

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(solver._CollocationTables, "_operators", forming)
    profiles = _load(next(p for p in SCRIPTS if p.name == "face_profiles.py"))
    assert profiles.main([str(tmp_path / "profiles")]) == 0
    assert len(profiles.LOADS) * len(profiles.GAMMAS) == 9
    assert factored() == (3, 3) and len(profiles.GAMMAS) == 3
    configs = ROOT / "configs"
    horizontal, vertical = (
        parse_config((configs / f"gamma_sweep_{name}.cfg").read_text())
        for name in ("horizontal", "vertical"))
    assert len(horizontal.grid) == 16 and vertical.grid == horizontal.grid

    def sweep(config):
        assert run(config, out_dir=str(tmp_path / "sweep"), quiet=True) == 0
        return factored()

    assert [sweep(horizontal), sweep(horizontal), sweep(vertical)] \
        == [(16, 16), (0, 0), (0, 0)]
    cold_tables()
    assert sweep(vertical) == (16, 16)


def test_ab_timing_compares_a_tree_with_itself(capsys, monkeypatch):
    # both roots the same tree: two imports of one curvecrack side by side,
    # warm runs in turn, a median per checkout and their ratio
    module = _load(next(p for p in SCRIPTS if p.name == "ab_timing.py"))
    monkeypatch.setattr(module, "ITERATIONS", 4)
    root = str(Path(__file__).resolve().parent.parent)
    assert module.main([root, root, "--workload", "gamma-sweep",
                        "--seeds", "3"]) == 0
    seed, median = capsys.readouterr().out.splitlines()
    match = re.fullmatch(r"seed 3: A ([\d.]+) ms  B ([\d.]+) ms  "
                         r"B/A ([\d.]+)", seed)
    assert match and all(float(v) > 0.0 for v in match.groups())
    assert median == f"median B/A {match.group(3)} over 1 seeds"
    cli_a, cli_b = (sys.modules[f"curvecrack_ab_{k}.cli"] for k in "ab")
    assert cli_a is not cli_b
    assert cli_a.__file__ == cli_b.__file__


def test_snapshot_outputs_compare_between_directories(tmp_path, capsys):
    # each run writes under OUT/<name> through the relative out_dir <name>,
    # and the face profiles under OUT/face_profiles, so two snapshots in
    # different places are byte for byte alike
    module = _load(next(p for p in SCRIPTS
                        if p.name == "snapshot_outputs.py"))
    names = [name for name, _, _ in module.runs()]
    configs = sorted((module.ROOT / "configs").glob("*.cfg"))
    assert names == [p.stem for p in configs] \
        + ["reference_N20", "reference_N40"]
    cwd = Path.cwd()
    snapshots = [tmp_path / "a", tmp_path / "b" / "c"]
    for out in snapshots:
        assert module.main([str(out)]) == 0
    assert Path.cwd() == cwd
    files = [{p.relative_to(out): p.read_bytes() for p in out.rglob("*")
              if p.is_file()} for out in snapshots]
    assert files[0] == files[1]
    assert sorted(p.name for p in snapshots[0].iterdir()) \
        == sorted(names + ["face_profiles"])
    profiles = _load(next(p for p in SCRIPTS if p.name == "face_profiles.py"))
    assert profiles.main([str(tmp_path / "profiles")]) == 0
    want = {p.name: p.read_bytes() for p in (tmp_path / "profiles").iterdir()}
    assert len(want) == 9
    assert {p.name: p.read_bytes()
            for p in (snapshots[0] / "face_profiles").iterdir()} == want
    for name in names:
        echo = (snapshots[0] / name / "config_echo.txt").read_text()
        assert f"\nout_dir = {name}\n" in echo
    for name in ("reference_N20", "reference_N40"):
        assert (snapshots[0] / name / "system_dump.txt").stat().st_size > 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith("== ")] \
        == [f"== {name}" for name in names + ["face_profiles"]] * 2
    assert module.main([]) == 2


def test_snapshot_outputs_refuse_a_warm_run_that_differs(tmp_path,
                                                          monkeypatch, capsys):
    # each run is made cold, then warm in a scratch directory; a warm run
    # whose files differ from the cold run's by a byte fails the snapshot
    module = _load(next(p for p in SCRIPTS
                        if p.name == "snapshot_outputs.py"))
    calls = []

    def run(config, out_dir, dump_system):
        calls.append(out_dir)
        Path(out_dir).mkdir()
        (Path(out_dir) / "out.txt").write_text(str(len(calls)))
        return 0

    monkeypatch.setattr(module, "run", run)
    assert module.main([str(tmp_path / "out")]) == 1
    first = next(module.runs())[0]
    assert calls == [first, first]
    assert (tmp_path / "out" / first / "out.txt").read_text() == "1"
    assert f"{first}: the warm run differs from the cold run" \
        in capsys.readouterr().err


def test_snapshot_outputs_refuse_a_reverse_run_that_differs(
        tmp_path, monkeypatch, capsys):
    # after every run is made cold and warm, each is made once more in
    # reverse order on the cache the others left; one that differs from
    # its cold run by a byte, here the first, fails the snapshot
    module = _load(next(p for p in SCRIPTS
                        if p.name == "snapshot_outputs.py"))
    names = [name for name, _, _ in module.runs()] + ["face_profiles"]
    calls = []

    def run(config, out_dir, dump_system=False):
        calls.append(out_dir)
        Path(out_dir).mkdir()
        late = out_dir == names[0] and calls.count(out_dir) > 2
        (Path(out_dir) / "out.txt").write_text("late" if late else "early")
        return 0

    monkeypatch.setattr(module, "run", run)
    monkeypatch.setattr(module.face_profiles, "main",
                        lambda argv: run(None, argv[0]))
    assert module.main([str(tmp_path / "out")]) == 1
    assert calls == [name for name in names for _ in range(2)] + names[::-1]
    assert (tmp_path / "out" / names[0] / "out.txt").read_text() == "early"
    assert f"{names[0]}: the warm run in reverse order differs from the " \
        "cold run" in capsys.readouterr().err


def _tree(root, files):
    """Write the files {relative path: text} under root; return root."""
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_compare_snapshots_reports_moves_dumps_and_missing_files(tmp_path,
                                                                 capsys):
    # per CSV the largest move of each numeric column over its largest
    # magnitude, the first token of each dump line that differs, and the
    # files on one side only; a file on one side only fails
    module = _load(next(p for p in SCRIPTS
                        if p.name == "compare_snapshots.py"))
    csv_a = "s,side,v,error\n0.0,plus,2.0,\n1.0,minus,-4.0,\n"
    csv_b = "s,side,v,error\n0.0,plus,2.0,\n1.0,minus,-4.000004,\n"
    dump_a = "n_rows 2\nrow_scale 1.0 2.0\nrhs 0.5 0.25\n"
    dump_b = "n_rows 2\nrow_scale 1.0 2.0\nrhs 0.5 0.2500001\n"
    a = _tree(tmp_path / "a", {"run/out.csv": csv_a,
                               "run/system_dump.txt": dump_a,
                               "run/only_a.txt": "x\n"})
    b = _tree(tmp_path / "b", {"run/out.csv": csv_b,
                               "run/system_dump.txt": dump_b})
    assert module.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["only in A: run/only_a.txt",
                     "run/out.csv s: 0.0e+00 of 1",
                     "run/out.csv v: 1.0e-06 of 4",
                     "run/system_dump.txt: lines differ: rhs"]
    (a / "run" / "only_a.txt").unlink()
    assert module.main([str(a), str(b)]) == 0
    assert module.main([str(a), str(b), "--bound", "1e-5"]) == 0
    assert module.main([str(a), str(b), "--bound", "1e-7"]) == 1
    capsys.readouterr()
    # a text cell that differs moves by inf; a header, row count or line
    # count that differs fails with no bound
    for name, text in (("run/out.csv", csv_a.replace("minus", "plus")),
                       ("run/out.csv", csv_a.replace(",v,", ",w,")),
                       ("run/out.csv", csv_a + "2.0,plus,1.0,\n"),
                       ("run/system_dump.txt", dump_a + "rhs 1.0\n")):
        c = _tree(tmp_path / "c", {"run/out.csv": csv_a,
                                   "run/system_dump.txt": dump_a, name: text})
        code = module.main([str(a), str(c), "--bound", "1"])
        assert code == 1, (name, text)
    assert "run/out.csv side: inf of nan" in capsys.readouterr().out
    assert module.main([str(a), str(a)]) == 0
