#!/usr/bin/env python3
"""Time two checkouts of curvecrack against each other in one process.

    python scripts/ab_timing.py ROOT_A ROOT_B --workload W --seeds a-b

Each root is a source checkout; its src/curvecrack is imported under a name
of its own, so both live side by side in this process.  The configs are
those of the benchmark workload W for each seed, from
ROOT_A/perfbench/workloads.py, read and not changed.  Per seed, each
checkout first runs every config once (cold, building its tables), then
the two take turns, A then B, then B then A, each turn one warm
`cli.run(cli.parse_config(text))` call on the next config of the cycle,
the call the benchmark times, quiet and into a scratch directory,
ITERATIONS turns each.  The script prints per seed the median warm run
of each checkout and their ratio B/A, and last the median of the ratios.

Both checkouts share the host, the interpreter, the numpy build and the
moment, so the ratio separates a change of a few percent from the drift of
a shared host and from the layout of one process against another.  Run as
a script, the process pins itself to one CPU and numpy to one BLAS
thread, as the benchmark does; main() called from Python changes
neither.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

# warm turns of each checkout per seed
ITERATIONS = 200


def _load(root, name):
    """The package src/curvecrack of the checkout at root, imported as name."""
    package = Path(root).resolve() / "src" / "curvecrack"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


def _workloads(root):
    """perfbench/workloads.py of the checkout at root, as a module."""
    path = Path(root).resolve() / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("ab_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _seeds(text):
    """The seeds of "a-b" (a through b) or of "a"."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _timed(cli, text, out_dir):
    """Seconds of one quiet cli.run of the config text, parsed in the
    turn, into out_dir."""
    start = time.perf_counter()
    code = cli.run(cli.parse_config(text), out_dir=out_dir, quiet=True)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"cli.run exited with {code}")
    return elapsed


def compare(clis, texts, iterations, scratch):
    """Median warm seconds of each checkout over alternating turns."""
    dirs = [os.path.join(scratch, name) for name in ("a", "b")]
    for cli, out in zip(clis, dirs):
        for text in texts:
            _timed(cli, text, out)
    times = [[], []]
    for i in range(iterations):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for k in order:
            times[k].append(_timed(clis[k], texts[i % len(texts)], dirs[k]))
    return [statistics.median(t) for t in times]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a")
    parser.add_argument("root_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds)
    args = parser.parse_args(argv)
    workloads = _workloads(args.root_a)
    clis = [_load(args.root_a, "curvecrack_ab_a"),
            _load(args.root_b, "curvecrack_ab_b")]
    ratios = []
    with tempfile.TemporaryDirectory() as scratch:
        for seed in args.seeds:
            texts = [workloads.config_text(params) for params in
                     workloads.generate(args.workload, seed)]
            a, b = compare(clis, texts, ITERATIONS, scratch)
            ratios.append(b / a)
            print(f"seed {seed}: A {a * 1e3:.3f} ms  B {b * 1e3:.3f} ms  "
                  f"B/A {b / a:.3f}", flush=True)
    print(f"median B/A {statistics.median(ratios):.3f} over "
          f"{len(ratios)} seeds")
    return 0


if __name__ == "__main__":
    # before numpy is imported, as the benchmark does
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.exit(main())
