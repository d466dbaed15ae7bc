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
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import face_profiles  # noqa: E402
from curvecrack.cli import parse_config, run  # noqa: E402

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


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: snapshot_outputs.py OUT", file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    configs = [(name, parse_config(text), dump) for name, text, dump in runs()]
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, config, dump in configs:
            print(f"== {name}", flush=True)
            code = run(config, out_dir=name, dump_system=dump)
            if code != 0:
                print(f"{name}: exit code {code}", file=sys.stderr)
                return code
        print("== face_profiles", flush=True)
        return face_profiles.main(["face_profiles"])
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    sys.exit(main())
