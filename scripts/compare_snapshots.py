#!/usr/bin/env python3
"""Compare two trees written by scripts/snapshot_outputs.py.

    python scripts/compare_snapshots.py A B [--bound X]

For each CSV in both trees it prints one line per numeric column: the
largest move max|b - a| of the column over its largest magnitude
max(|a|, |b|), then that magnitude.  A text column that differs prints
a move of inf.  For every other file in both trees that differs it names
the lines that differ by their first token (the rhs line of a
system_dump.txt, say), and it lists the files present on one side only.

Exits 1 when a file is present on one side only, when a CSV's header or
row count or another file's line count differs, or, with --bound, when
a move exceeds X; else 0.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np


def _files(root):
    """The relative paths of the files under root, sorted."""
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def _floats(cells):
    """The cells as floats, or None when one is not a number."""
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return None


def column_move(a, b):
    """(move, largest magnitude) of two columns of cells of equal length:
    max|b - a| over max(|a|, |b|), 0 where they are equal cell for cell,
    and inf where a text cell or a non-finite value differs."""
    x, y = _floats(a), _floats(b)
    if x is None or y is None:
        return (0.0 if a == b else np.inf), np.nan
    equal = (x == y) | (np.isnan(x) & np.isnan(y))
    if equal.all():
        return 0.0, float(np.max(np.abs(x), initial=0.0))
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite[~equal].all():
        return np.inf, np.nan
    scale = float(max(np.max(np.abs(x[finite])), np.max(np.abs(y[finite]))))
    return float(np.max(np.abs(y - x)[~equal])) / scale, scale


def compare(a_root, b_root, bound=None):
    """(report lines, failed) of the trees a_root and b_root."""
    a_files, b_files = _files(a_root), _files(b_root)
    lines = [f"only in {side}: {path}"
             for side, mine, other in (("A", a_files, b_files),
                                       ("B", b_files, a_files))
             for path in mine if path not in other]
    failed = bool(lines)
    for path in (p for p in a_files if p in b_files):
        a_text, b_text = ((root / path).read_text(encoding="utf-8")
                          for root in (a_root, b_root))
        if path.suffix == ".csv":
            a_rows, b_rows = (list(csv.reader(t.splitlines()))
                              for t in (a_text, b_text))
            if a_rows[:1] != b_rows[:1] or len(a_rows) != len(b_rows):
                lines.append(f"{path}: header or row count differs")
                failed = True
                continue
            for name, a_col, b_col in zip(a_rows[0], zip(*a_rows[1:]),
                                          zip(*b_rows[1:])):
                move, scale = column_move(list(a_col), list(b_col))
                if np.isnan(scale) and move == 0.0:
                    continue
                lines.append(f"{path} {name}: {move:.1e} of {scale:.3g}")
                failed |= bound is not None and not move <= bound
        elif a_text != b_text:
            a_lines, b_lines = a_text.splitlines(), b_text.splitlines()
            if len(a_lines) != len(b_lines):
                lines.append(f"{path}: line count differs")
                failed = True
                continue
            tokens = dict.fromkeys((x.split() or [""])[0] for x, y
                                   in zip(a_lines, b_lines) if x != y)
            lines.append(f"{path}: lines differ: {' '.join(tokens)}")
    return lines, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--bound", type=float, default=None)
    args = parser.parse_args(argv)
    lines, failed = compare(args.a, args.b, args.bound)
    print("\n".join(lines))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
