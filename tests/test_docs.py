"""The README names only things that exist.

Every backticked dotted name in README.md whose head is a module of
curvecrack, curvecrack itself, or a class of the package must resolve
attribute by attribute.  A head shaped like a class name that is none of
these fails too: it names a class that is gone.  Other dotted names
(file names such as `opening.csv`, `np.vander`) are not the package's.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import curvecrack

README = Path(__file__).resolve().parent.parent / "README.md"
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
CLASS_NAME = re.compile(r"_?[A-Z]\w*")


def _heads():
    """The objects a reference may start from, by name."""
    modules = {info.name: importlib.import_module(f"curvecrack.{info.name}")
               for info in pkgutil.iter_modules(curvecrack.__path__)}
    heads = {name: cls for module in modules.values()
             for name, cls in inspect.getmembers(module, inspect.isclass)
             if cls.__module__.startswith("curvecrack.")}
    heads.update(modules, curvecrack=curvecrack)
    return heads


def _references(text):
    """The backticked spans outside fenced blocks that are dotted names."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    return sorted({span for span in re.findall(r"`([^`]+)`", prose)
                   if DOTTED.fullmatch(span)})


def _resolves(heads, reference):
    head, *rest = reference.split(".")
    obj = heads[head]
    for name in rest:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_references_resolve():
    heads = _heads()
    refs = [r for r in _references(README.read_text(encoding="utf-8"))
            if r.split(".")[0] in heads
            or CLASS_NAME.fullmatch(r.split(".")[0])]
    assert refs
    stale = [r for r in refs
             if r.split(".")[0] not in heads or not _resolves(heads, r)]
    assert not stale, f"README.md names what does not exist: {stale}"
