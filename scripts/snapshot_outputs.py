#!/usr/bin/env python3
"""Write the outputs of every shipped config and of the README reference
solve under one directory, so that two checkouts compare with `diff -r`.

    python scripts/snapshot_outputs.py OUT

Each run writes into OUT/<name> through the relative out_dir <name>, so
its config_echo.txt reads the same wherever OUT is.  The runs are every
configs/*.cfg, named by its stem, and the README reference crack solved at
N = 20 and N = 40 with --dump-system (reference_N20, reference_N40).  Last,
scripts/face_profiles.py writes its nine CSVs into OUT/face_profiles.  The
run summaries go to stdout, each after a "== <name>" line, and the face
profiles' list of files after "== face_profiles".  The runs use the source
of the checkout that holds this script, not an installed curvecrack.

Every run is made three times in this one process.  First cold, with the
table cache of the program (the node sides of `fields._node_side` and
every table they keep, the kept factorizations too) emptied first, into
OUT, then at once warm, reading the tables the cold run left cached, into
a temporary directory.  Last, once every run has been made so, every run
again in reverse order, into another temporary directory, with the cache
not emptied, so each run reads what the runs after it left.  The script
exits with status 1, naming the run, when a warm run's files or summary
differ from the cold run's by a byte, so the comparison of two checkouts
covers the cached path as well.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import face_profiles  # noqa: E402
from curvecrack.cli import parse_config, run  # noqa: E402
from curvecrack.fields import _node_side  # noqa: E402

# the README reference crack, solve mode
REFERENCE = """shape = semicircle
mu = 60, kappa = 2.5
sigma1_inf = 1.0, sigma2_inf = 0.0
alpha = 0.0
gamma1 = 1.0
"""


def runs():
    """(name, config text, dump_system) of every run, in order."""
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        yield path.stem, path.read_text(encoding="utf-8"), False
    for n in (20, 40):
        yield f"reference_N{n}", REFERENCE + f"N = {n}\n", True


def _files(directory):
    """The bytes of every file under the directory, by relative path."""
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _call_in(where, name, write):
    """(exit code, stdout, files under where/name) of write(name) with
    where as the working directory."""
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = write(name)
    finally:
        os.chdir(cwd)
    return code, text.getvalue(), _files(where / name)


def _cold_then_warm(name, write, warm_root):
    """write(name) in the working directory with the table cache empty,
    then again in warm_root; prints the cold call's stdout and returns its
    exit code, or 1 when the warm call differs from it, and the cold
    call's result."""
    _node_side.cache_clear()
    cold = _call_in(Path.cwd(), name, write)
    print(cold[1], end="", flush=True)
    if cold[0] != 0:
        print(f"{name}: exit code {cold[0]}", file=sys.stderr)
        return cold[0], cold
    if _call_in(warm_root, name, write) != cold:
        print(f"{name}: the warm run differs from the cold run",
              file=sys.stderr)
        return 1, cold
    return 0, cold


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: snapshot_outputs.py OUT", file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    configs = [(name, parse_config(text), dump) for name, text, dump in runs()]
    writers = [(name, lambda name, config=config, dump=dump:
                run(config, out_dir=name, dump_system=dump))
               for name, config, dump in configs]
    writers.append(("face_profiles", lambda name: face_profiles.main([name])))
    cwd = os.getcwd()
    os.chdir(out)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            warm, last = Path(scratch) / "warm", Path(scratch) / "reverse"
            warm.mkdir()
            last.mkdir()
            cold = {}
            for name, write in writers:
                print(f"== {name}", flush=True)
                code, cold[name] = _cold_then_warm(name, write, warm)
                if code != 0:
                    return code
            for name, write in reversed(writers):
                if _call_in(last, name, write) != cold[name]:
                    print(f"{name}: the warm run in reverse order differs "
                          "from the cold run", file=sys.stderr)
                    return 1
        return 0
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    sys.exit(main())
