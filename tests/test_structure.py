"""The density basis reaches the program as a value only, and the program
keeps one table cache.

`densities` alone names the primitives of the centered monomials; every
other module of the package takes them from a `densities.Basis` value (a
density's `basis` or a node side's).  And no test rebinds an attribute of
`densities`: a second basis is passed in as a value, never patched into
the module.  The one table cache is `fields._node_side`, whose node sides
keep every table built from them; the only other functools caches hold
constants keyed by an int.  And `cli` builds no grid of points of its
own: it writes the grids the node side keeps.  The tables of the sweeps
and solve mode report the closed-form tip log coefficients and name no
part of the tip window fit.  The face fields have one path: the node
side's rows without s0-derivatives are read by `fields._face_rows` alone,
which alone builds the rows on the unknowns (`fields._FieldRows`), and
those with them by the collocation tables alone.  `solver` names the
load forcing formula only to build the collocation tables' forcing
table, and the load side of the boundary condition is one formula: no
module evaluates the expanded surface-tension coefficients, and only the
flat-rule oracle reads the curvature as a function of s.  Every system,
kept, stacked, alone or built by hand, is factored on one path:
`solver._factor` is called only by the cached part of
`LinearSystem.reduction`, and only `_factor` calls an SVD.  All are read
from the source, so a use that no test runs is found too.
"""

import ast
from dataclasses import fields
from pathlib import Path

from curvecrack import densities

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "curvecrack"


def _primitive_names():
    """Every name in `densities` bound to a primitive of MONOMIALS."""
    primitives = [getattr(densities.MONOMIALS, f.name)
                  for f in fields(densities.Basis)]
    return {name for name, value in vars(densities).items()
            if any(value is p for p in primitives)}


def _densities_aliases(tree):
    """The names a module binds to the `densities` module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("curvecrack", None):
                names.update(a.asname or a.name for a in node.names
                             if a.name == "densities")
        elif isinstance(node, ast.Import):
            names.update(a.asname for a in node.names
                         if a.name == "curvecrack.densities" and a.asname)
    return names


def _name_uses(tree, names, module=""):
    """(line, text) of each use of one of the names, and of each import of
    one from a module whose name ends in module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
                module):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
    return found


# the functions that build a grid of points
_GRID_BUILDERS = ("linspace", "geomspace", "arange", "midpoint_grid")


# the tables that report A1 and A2, and the names of the tip window fit
_REPORT_TABLES = ("_SweepTables",)
_TIP_FIT = ("_tip_points", "_TIP_POINTS", "_fit_lines", "polyfit")


def _tip_fit_uses(tree):
    """(line, text) of each use of a name of the tip window fit inside a
    class of _REPORT_TABLES."""
    return [use for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and node.name in _REPORT_TABLES
            for use in _name_uses(node, _TIP_FIT)]


def _callers(tree, match, scope=""):
    """The qualified name (Class.method, a function's, or the class or ""
    at the top level) of the function around each call that match
    accepts, once per call; a nested function counts as its outer one."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            found += _callers(node, match, f"{scope}{node.name}.")
            continue
        name = scope.rstrip(".")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = scope + node.name
        found += [name for call in ast.walk(node)
                  if isinstance(call, ast.Call) and match(call)]
    return found


def _reads_rows(derivatives):
    """A match of _callers: a call of a method rows() with s0-derivatives
    (a third argument or a derivatives keyword, not a literal False), or
    without."""
    def match(call):
        if not (isinstance(call.func, ast.Attribute)
                and call.func.attr == "rows"):
            return False
        given = call.args[2:] + [k.value for k in call.keywords
                                 if k.arg == "derivatives"]
        return derivatives == any(not (isinstance(v, ast.Constant)
                                       and v.value is False) for v in given)
    return match


def _builds_field_rows(call):
    """A match of _callers: a call of _FieldRows, by name or attribute."""
    func = call.func
    return (isinstance(func, ast.Name) and func.id == "_FieldRows"
            or isinstance(func, ast.Attribute) and func.attr == "_FieldRows")


def _calls(names):
    """A match of _callers: a call of one of the names, by name or
    attribute."""
    return lambda call: ast.unparse(call.func).split(".")[-1] in names


# the names of the load forcing formula in `fields`
_FORCING = ("boundary_forcing", "_forcing", "_forcing_table")


# the expanded surface-tension coefficients, a reference, and the
# curvature functions of `CrackCurve`, constant on every curve
_EXPANSION = ("surface_tension_coefficients",)
_CURVATURE = ("kappa0", "kappa0_prime")


# the factorization of a system, and the SVD that only it calls
_FACTOR = ("_factor",)
_SVD = ("svd",)


def _package_callers(match):
    """(module, qualified name) of each call in the package that match
    accepts (`_callers`)."""
    return sorted((path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
                  for name in _callers(ast.parse(path.read_text()), match))


# the dict methods that write
_WRITES = ("update", "setdefault", "pop", "popitem", "clear", "__setitem__",
           "__delitem__")


def _rebinds(tree, aliases):
    """(line, text) of each statement that rebinds an attribute of the
    densities module: an assignment or deletion of densities.x, a
    setattr or delattr on it (monkeypatch's too, by object or by dotted
    path) and a write to vars(densities) or densities.__dict__."""
    def is_module(node):
        return isinstance(node, ast.Name) and node.id in aliases

    def is_namespace(node):
        return (isinstance(node, ast.Call) and ast.unparse(node.func) == "vars"
                and len(node.args) == 1 and is_module(node.args[0])
                or isinstance(node, ast.Attribute) and node.attr == "__dict__"
                and is_module(node.value))

    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Attribute) and is_module(t.value)
               or isinstance(t, ast.Subscript) and is_namespace(t.value)
               for t in targets):
            found.append((node.lineno, ast.unparse(node)))
        if not isinstance(node, ast.Call):
            continue
        func, first = node.func, node.args[0] if node.args else None
        if ast.unparse(func).split(".")[-1] in ("setattr", "delattr") \
                and first is not None and (
                    is_module(first) or isinstance(first, ast.Constant)
                    and str(first.value).startswith("curvecrack.densities.")):
            found.append((node.lineno, ast.unparse(node)))
        if isinstance(func, ast.Attribute) and func.attr in _WRITES \
                and is_namespace(func.value):
            found.append((node.lineno, ast.unparse(node)))
    return found


# (module, function) of every functools cache of the package: the one
# table cache, and two keyed by an int that hold constants
_CACHED = {("fields", "_node_side"), ("kernels", "_separable"),
           ("quadrature", "_unit_rule")}
_CACHES = ("lru_cache", "cache", "functools.lru_cache", "functools.cache")


def _is_cache(node):
    """Whether node, a decorator, is a functools cache, called with its
    options or not."""
    if isinstance(node, ast.Call):
        node = node.func
    return ast.unparse(node) in _CACHES


def _cached_functions(tree):
    """The name of each function a functools cache decorates, and the text
    of each other call of a cache (lru_cache(maxsize=8)(f), say)."""
    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            caches = [d for d in node.decorator_list if _is_cache(d)]
            found += [node.name] * len(caches)
            decorators.update(map(id, caches))
    found += [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and id(node) not in decorators
              and ast.unparse(node.func) in _CACHES]
    return found


def test_only_densities_names_the_basis_primitives():
    primitives = _primitive_names()
    assert len(primitives) == len(fields(densities.Basis))
    uses = {path.name: _name_uses(ast.parse(path.read_text()), primitives,
                                  "densities")
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "densities.py"}
    assert uses and not any(uses.values()), uses


def test_no_test_rebinds_an_attribute_of_densities():
    found = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = _densities_aliases(tree) | {"densities"}
        found[path.name] = _rebinds(tree, aliases)
    assert found and not any(found.values()), found


def test_one_table_cache():
    found = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in _cached_functions(ast.parse(path.read_text()))}
    assert found == _CACHED


def test_cli_builds_no_grid():
    source = (PACKAGE / "cli.py").read_text()
    assert _name_uses(ast.parse(source), _GRID_BUILDERS) == []


def test_report_tables_fit_no_tip_window():
    tree = ast.parse((PACKAGE / "postprocess.py").read_text())
    classes = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    assert set(_REPORT_TABLES) <= classes
    assert _tip_fit_uses(tree) == []


def test_one_face_field_path():
    assert _package_callers(_reads_rows(False)) == [("fields", "_face_rows")]
    assert _package_callers(_reads_rows(True)) == [
        ("solver", "_CollocationTables.__init__")]
    assert _package_callers(_builds_field_rows) == [("fields", "_face_rows")]


def test_solver_reads_the_forcing_from_its_table():
    # solver names the forcing formula only to build the kept table, once
    # per node side and N; a system reads the table
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    assert _callers(tree, _calls(_FORCING)) == ["_CollocationTables.__init__"]
    assert {text for _, text in _name_uses(tree, _FORCING)} \
        == {"_forcing_table"}


def test_the_load_side_is_one_formula():
    # no module evaluates the expanded form of the forcing, and only the
    # flat-rule oracle reads kappa0 as a function: every curve is of
    # constant curvature, kappa0' = 0
    assert _package_callers(_calls(_EXPANSION)) == []
    assert _package_callers(_calls(_CURVATURE)) == [
        ("kernels", "fredholm_operator")] * 2


def test_one_factorization_path():
    # `reduction` reads the factorization, or its SolveError, from
    # `_reduced`, which a system under another load shares
    assert _package_callers(_calls(_FACTOR)) == [
        ("solver", "LinearSystem._reduced")]
    assert _package_callers(_calls(_SVD)) == [("solver", "_factor")] * 2


def test_the_checks_see_what_they_forbid():
    # each kind of use the checks refuse, in a made-up module
    primitives = _primitive_names()
    for source in ("from .densities import pv_monomials",
                   "from curvecrack.densities import _tangent_integrals",
                   "x = densities._derivative_matrix(1.0, 3)",
                   "y = _monomials(s, 1.0, 3)"):
        assert _name_uses(ast.parse(source), primitives, "densities"), source
    for source in ("s = np.linspace(0.0, curve.length, 401)",
                   "from numpy import linspace as grid",
                   "s = numpy.arange(5) / 4",
                   "s = midpoint_grid(curve.length, 100)"):
        assert _name_uses(ast.parse(source), _GRID_BUILDERS), source
    for source in ("densities.MONOMIALS = None",
                   "monkeypatch.setattr(densities, 'MONOMIALS', None)",
                   "monkeypatch.setattr('curvecrack.densities.x', None)",
                   "setattr(dens, 'x', 1)",
                   "vars(densities).update(x=1)",
                   "densities.__dict__['x'] = 1",
                   "del densities.x"):
        tree = ast.parse("from curvecrack import densities as dens\n"
                         + source)
        assert _rebinds(tree, _densities_aliases(tree) | {"densities"}), \
            source
    for source in ("dist, s = _tip_points(curve, 0.0, None, _TIP_POINTS)",
                   "a = np.polyfit(np.log(dist), values, 1)[0]",
                   "a = postprocess._fit_lines(dist, values)[0]"):
        for table in _REPORT_TABLES:
            tree = ast.parse(f"class {table}:\n    def report(self):\n"
                             f"        {source}\n")
            assert _tip_fit_uses(tree), (table, source)
    for source, want in (
            ("@lru_cache(maxsize=8)\ndef f(x): pass", ["f"]),
            ("@functools.cache\ndef g(x): pass", ["g"]),
            ("@cache\n@property\ndef h(self): pass", ["h"]),
            ("t = functools.lru_cache(maxsize=None)(len)",
             ["functools.lru_cache(maxsize=None)"])):
        assert _cached_functions(ast.parse(source)) == want, source
    tree = ast.parse(
        "class T:\n"
        "    def __init__(self, side, s):\n"
        "        self.a = side.rows(s, 4)\n"
        "        self.b = side.rows(s, 4, derivatives=True)\n"
        "        self.c = side.rows(s, 4, True)\n"
        "        self.d = side.rows(s, 4, derivatives=False)\n"
        "def f(side, s):\n"
        "    def g():\n"
        "        return fields._FieldRows(side.rows(s, 2), None)\n"
        "    return _FieldRows(g(), None)\n")
    assert _callers(tree, _reads_rows(False)) == ["T.__init__", "T.__init__",
                                                  "f"]
    assert _callers(tree, _reads_rows(True)) == ["T.__init__", "T.__init__"]
    assert _callers(tree, _builds_field_rows) == ["f", "f"]
    tree = ast.parse(
        "from .fields import boundary_forcing\n"
        "class T:\n"
        "    def __init__(self, curve, material, s):\n"
        "        self.forcing = _forcing_table(curve, material, s)\n"
        "    def systems(self, load, gamma1):\n"
        "        return fields._forcing(*self.args, gamma1, self.s)\n"
        "def f(curve, material, load):\n"
        "    return boundary_forcing(curve, material, load, 1.0, 0.5)\n")
    assert _callers(tree, _calls(_FORCING)) == ["T.__init__", "T.systems", "f"]
    assert {text for _, text in _name_uses(tree, _FORCING)} == {
        "boundary_forcing", "_forcing_table", "fields._forcing"}
    tree = ast.parse(
        "def f(curve, s):\n"
        "    return fields.surface_tension_coefficients(curve, 1.0, s)\n"
        "class T:\n"
        "    def g(self, s):\n"
        "        return self.curve.kappa0(s) + kappa0_prime(s)\n"
        "    def h(self):\n"
        "        return self.curve.constant_curvature\n")
    assert _callers(tree, _calls(_EXPANSION)) == ["f"]
    assert _callers(tree, _calls(_CURVATURE)) == ["T.g", "T.g"]
    tree = ast.parse(
        "class S:\n"
        "    def _reduced(self):\n"
        "        return _factor(*self.halves[:2])\n"
        "def _reduce(tables, rows, constraints):\n"
        "    return solver._factor(rows, constraints)\n"
        "def _factor(A, C):\n"
        "    return np.linalg.svd(C), linalg.svd(A), svd(A)\n")
    assert _callers(tree, _calls(_FACTOR)) == ["S._reduced", "_reduce"]
    assert _callers(tree, _calls(_SVD)) == ["_factor"] * 3
