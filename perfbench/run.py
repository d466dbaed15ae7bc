#!/usr/bin/env python3
"""curvecrack benchmark: times full CLI runs and checks every output.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve-report --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``solve-report``,
``gamma-sweep`` and ``arc-convergence``.  Each iteration is one
``curvecrack.cli.run`` call on a config generated from ``--seed``, writing
into a scratch directory under ``.perfbench_tmp/`` in the checkout.  The
loop is closed: one caller, the next run starts when the previous one and
its output checks are done.

Every timed interval is scaled to a reference host speed with a fixed
calibration kernel timed before and after it (``hostspeed.py``), because the
shared host's speed drifts by up to a factor of two between minutes; the wall
times are in the ``report`` line.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` runs half the time untraced and half traced, and reports the
per-layer metrics (medians over the traced iterations), the tracing
overhead and the coverage of the self times; the spans are written to
``.perfbench_out/``.  Earlier stdout lines hold a metric table and a
``report`` JSON line (inputs, environment, checks, accuracy columns); the
last line is the result object.  Exit status is 0 when a result was
printed, 2 when the checkout holds no curvecrack sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed
import tracing
import workloads

# field_err (largest traction error relative to the largest traction) above
# this makes a run incorrect; the seed code reads 0.0013-0.0015 on the
# semicircle workloads and at most 0.0008 on the arcs.
FIELD_GATE = 2e-3
PROBES = 3                   # fresh-process set-up samples; setup_s is their median
REFERENCE_CONFIG = {"shape": "semicircle", **workloads.MATERIAL,
                    "sigma1_inf": 1.0, "sigma2_inf": 0.0, "alpha": 0.0,
                    "gamma1": 1.0}


class CheckoutError(RuntimeError):
    """The working directory is not a curvecrack source checkout."""


def pin_blas_threads():
    """One BLAS thread, so repeated runs give bit-identical outputs."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"


def pin_cpu():
    """Run this process, and the processes it starts, on one CPU.

    The gamma-sweep's eight threads contend for the interpreter lock; spread
    over two cores their hand-offs made one sweep take anywhere from 4 to 9
    seconds, on one core 2.7 to 4.2 seconds.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_program(root: Path):
    """Import curvecrack.cli from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "curvecrack" / "cli.py").is_file():
        raise CheckoutError(f"no curvecrack sources under {src}")
    sys.path.insert(0, str(src))
    import curvecrack.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise CheckoutError(f"curvecrack imported from {cli.__file__}, "
                            f"not from {src}")
    return cli


def read_outputs(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def run_once(cli, text: str, out: Path):
    """One timed CLI run: (exit code or crash text, seconds, files)."""
    if out.exists():
        shutil.rmtree(out)
    start = time.perf_counter()
    try:
        code = cli.run(cli.parse_config(text), out_dir=str(out), quiet=True)
    except Exception:   # a crash is a failed iteration, not a dead benchmark
        code = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    return code, elapsed, read_outputs(out)


def tail(times):
    """(value, percentile) of the highest rank with 10 samples beyond it,
    never below the (upper) median; n < 22 leaves only the median."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - 11, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n


def environment(seed):
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"seed": seed, "nproc": os.cpu_count(),
            "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "pinned_cpus": sorted(os.sched_getaffinity(0))}


def accuracy_columns():
    """Headline results of the README reference crack at N = 20 and 40."""
    from curvecrack import (FarFieldLoad, Material, fit_tip_coefficients,
                            make_semicircle, max_face_traction,
                            opening_profile, solve_problem)
    p = REFERENCE_CONFIG
    curve = make_semicircle()
    material = Material(mu=p["mu"], kappa=p["kappa"])
    load = FarFieldLoad(sigma1=p["sigma1_inf"], sigma2=p["sigma2_inf"],
                        alpha=p["alpha"])
    out = {}
    for n in (20, 40):
        coeffs = solve_problem(curve, material, load, p["gamma1"], N=n)
        fits = fit_tip_coefficients(curve, material, load, coeffs)
        prof = opening_profile(coeffs, curve, material)
        out[f"N{n}"] = {
            "A1": fits["du1_ds"].A, "A2": fits["tau_n"].A,
            "max_traction": max_face_traction(curve, material, load, coeffs),
            "max_opening": prof.max_opening, "min_opening": prof.min_opening,
            "condition_estimate": coeffs.condition_estimate}
    return out


class Session:
    """One benchmark process: the configs, their first outputs and checks."""

    def __init__(self, cli, configs, scratch: Path):
        self.cli = cli
        self.configs = configs
        self.texts = [workloads.config_text(c) for c in configs]
        self.out = scratch / "run"
        self.first = [None] * len(configs)     # files of each first run
        self.first_failed = [0] * len(configs)
        self.problems = []
        self.extracted = [None] * len(configs)
        self.wall_times = []                   # every timed iteration
        self.speed_samples = []                # hostspeed samples between them
        self.attempted = 0
        self.failed = 0
        self.points_ok = 0

    def first_run(self, k):
        """Untimed first run of config k; its outputs get the full checks."""
        code, _, files = run_once(self.cli, self.texts[k], self.out)
        check, extracted = workloads.check_outputs(self.configs[k], code, files)
        self.first[k] = files
        self.first_failed[k] = check.n_failed
        self.extracted[k] = extracted
        self.problems += [f"config {k}: {p}" for p in check.problems]

    def loop(self, seconds, tracer=None):
        """Closed loop over the configs for the given wall time.

        Returns the iterations' (wall times, times scaled to reference host
        speed); a host-speed sample is taken before and after each one.
        """
        times, scaled = [], []
        speed = hostspeed.sample()
        self.speed_samples.append(speed)
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            k = len(self.wall_times) % len(self.configs)
            if tracer is not None:
                tracer.iteration = len(times)
            code, elapsed, files = run_once(self.cli, self.texts[k], self.out)
            points = workloads.points(self.configs[k])
            if code != 0:
                failed = points
                self.problems.append(f"iteration {len(self.wall_times)}: "
                                     f"exit {code!r}")
            elif files != self.first[k]:
                failed = points
                self.problems.append(f"iteration {len(self.wall_times)}: "
                                     "outputs differ from the first run")
            else:
                failed = self.first_failed[k]
            self.attempted += points
            self.failed += failed
            self.points_ok += points - failed
            after = hostspeed.sample()
            self.speed_samples.append(after)
            self.wall_times.append(elapsed)
            times.append(elapsed)
            scaled.append(hostspeed.scale(elapsed, speed, after))
            speed = after
        return times, scaled


def field_accuracy(session, workload):
    """Per-config traction accuracy against the converged reference.

    Returns (field_err, details); field_err is 1.0 (and a problem is
    recorded) when the outputs cannot be checked.
    """
    import numpy as np
    import reference
    details = []
    try:
        for params, extracted in zip(session.configs, session.extracted):
            if extracted is None:
                raise reference.ReferenceError("outputs unusable")
            if workload == "gamma-sweep":
                details.append(reference.sweep_field_error(
                    params, extracted["max_traction"]))
                continue
            g_table = {k: np.array(v) for k, v in extracted["g_prime"].items()}
            if workload == "solve-report":
                details.append(reference.solve_field_error(
                    params, g_table, extracted["face"]))
            else:
                details.append(reference.arc_field_error(params, g_table))
    except reference.ReferenceError as exc:
        session.problems.append(f"field_err: {exc}")
        return 1.0, details
    worst = max(d["field_err"] for d in details)
    if not worst <= FIELD_GATE:
        session.problems.append(f"field_err {worst:.3e} exceeds the gate "
                                f"{FIELD_GATE:.0e}")
    return worst, details


def probe_setup(args, root):
    """Fresh-process set-up sample: import curvecrack plus the first run."""
    configs = workloads.generate(args.workload, args.seed)
    scratch = Path(tempfile.mkdtemp(prefix="probe-", dir=scratch_root(root)))
    try:
        start = time.perf_counter()
        cli = import_program(root)
        code, _, _ = run_once(cli, workloads.config_text(configs[0]),
                              scratch / "run")
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(scratch)
    print(json.dumps({"wall_s": elapsed, "code": code}))
    return 0


def setup_probes(args, root):
    """Set-up samples from fresh processes, each scaled by host-speed samples
    this process takes right before and after it."""
    samples, walls, problems = [], [], []
    speed = hostspeed.sample()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    for _ in range(PROBES):
        before = speed
        try:
            proc = subprocess.run(cmd, cwd=root, capture_output=True,
                                  text=True, timeout=150, check=False)
        except subprocess.TimeoutExpired:
            proc = None
        speed = hostspeed.sample()
        if proc is None:
            problems.append("set-up probe timed out")
            continue
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            problems.append(f"set-up probe failed: {proc.stderr[-300:]}")
            continue
        if result["code"] != 0:
            problems.append(f"set-up probe exit {result['code']!r}")
        samples.append(hostspeed.scale(result["wall_s"], before, speed))
        walls.append(result["wall_s"])
    return samples, walls, problems


def scratch_root(root):
    path = root / ".perfbench_tmp"
    path.mkdir(exist_ok=True)
    return path


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_benchmark(args, root):
    configs = workloads.generate(args.workload, args.seed)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=scratch_root(root)))
    try:
        start = time.perf_counter()
        cli = import_program(root)
        session = Session(cli, configs, scratch)
        session.first_run(0)
        own_setup = time.perf_counter() - start
        for k in range(1, len(configs)):
            session.first_run(k)
        report = {"workload": args.workload, "trace": args.trace,
                  "inputs": configs, "ranges": workloads.RANGES,
                  "environment": environment(args.seed)}
        if args.trace:
            metrics = traced_metrics(args, session, report, root)
        else:
            metrics = end_to_end_metrics(args, root, session, report,
                                         own_setup)
    finally:
        shutil.rmtree(scratch)
    report["attempted"] = session.attempted
    report["failed"] = session.failed
    report["error_rate"] = session.failed / max(session.attempted, 1)
    report["problems"] = session.problems
    correct = not session.problems and session.failed == 0
    print_table(metrics, report)
    print("report " + json.dumps(report, default=float))
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


def print_table(metrics, report):
    """Every metric by name and unit, then the checks outside BENCHMARK.json."""
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']!r:>24} {m['unit']}")
    extra = {"error_rate": (report["error_rate"], "1", "correct requires 0"),
             "field_err": (report.get("field_err"), "1",
                           f"correct requires <= {FIELD_GATE}"),
             "density_selfconv": (report.get("density_selfconv"), "1",
                                  "reported only"),
             "wall_iter_p50_s": (report.get("wall_iter_p50_s"), "s",
                                 "unscaled wall time, reported only"),
             "wall_setup_s": (report.get("wall_setup_s"), "s",
                              "unscaled wall time, reported only")}
    for name, (value, unit, note) in extra.items():
        if value is not None:
            print(f"{name:34s} {value!r:>24} {unit}  ({note})")
    if "iter_tail_percentile" in report:
        print(f"iter_tail_s is p{report['iter_tail_percentile']:.0f} of "
              f"{report['iterations']} iterations; failed {report['failed']} "
              f"of {report['attempted']} points")


def end_to_end_metrics(args, root, session, report, own_setup):
    field_err, report["field_accuracy"] = field_accuracy(session,
                                                         args.workload)
    report["field_err_gate"] = FIELD_GATE
    if args.workload == "solve-report":
        report["accuracy"] = accuracy_columns()
    samples, walls, problems = setup_probes(args, root)
    session.problems += problems
    wall, times = session.loop(args.seconds)
    tail_s, tail_pct = tail(times)
    report["iterations"] = len(times)
    report["iteration_times_s"] = times
    report["iteration_wall_s"] = wall
    report["hostspeed_samples_s"] = session.speed_samples
    report["hostspeed_reference_s"] = hostspeed.REFERENCE_S
    report["wall_iter_p50_s"] = statistics.median(wall)
    report["iter_tail_percentile"] = tail_pct
    report["setup_samples_s"] = samples
    report["setup_wall_samples_s"] = walls
    report["own_setup_wall_s"] = own_setup
    report["wall_setup_s"] = statistics.median(walls or [own_setup])
    metrics = {
        "iter_p50_s": metric(statistics.median(times), "s"),
        "iter_tail_s": metric(tail_s, "s"),
        "points_per_s": metric(session.points_ok / sum(times), "1/s"),
        "setup_s": metric(statistics.median(samples or [own_setup]), "s"),
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    report["field_err"] = field_err
    if args.workload == "arc-convergence" and session.extracted[0]:
        report["density_selfconv"] = session.extracted[0]["density_selfconv"]
    return metrics


def traced_metrics(args, session, report, root):
    _, untraced = session.loop(args.seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall, traced = session.loop(args.seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    per_iteration = []
    for i, spans in sorted(tracing.spans_by_iteration(tracer.spans).items()):
        m = tracing.iteration_metrics(spans)
        m["trace.self_cover"] = m.pop("_self_total") / traced_wall[i]
        per_iteration.append(m)
    metrics = {}
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        metrics[name] = metric(statistics.median(m[name] for m in per_iteration),
                               unit)
    metrics["trace.self_cover"] = metric(statistics.median(
        m["trace.self_cover"] for m in per_iteration), "ratio")
    metrics["trace.iter_p50_s"] = metric(statistics.median(traced), "s")
    metrics["trace.overhead_s"] = metric(
        statistics.median(traced) - statistics.median(untraced), "s")
    report["absent"] = tracer.absent
    report["iterations"] = {"untraced": len(untraced), "traced": len(traced)}
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent",
                                           "thread", "iteration"],
                                "spans": tracing.dump_rows(tracer.spans)}))
    report["spans_file"] = str(path.relative_to(root))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_blas_threads()
    pin_cpu()
    root = Path.cwd()
    try:
        if args.probe_setup:
            return probe_setup(args, root)
        return run_benchmark(args, root)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        tmp = root / ".perfbench_tmp"
        if tmp.is_dir() and not any(tmp.iterdir()):
            tmp.rmdir()


if __name__ == "__main__":
    sys.exit(main())
