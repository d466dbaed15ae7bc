"""Span tracing around curvecrack's layer boundaries, and its arithmetic.

``Tracer.install`` replaces each target function wherever its callers look
it up (module globals of every ``curvecrack`` module that holds the same
object, or the class attribute for methods) with a wrapper that records a
span: name, start, end, parent, thread and iteration id, plus an optional
payload such as a point count.  Spans stay in memory until the run writes
them out.  A target that no longer exists is reported absent.

Self time: a span's duration minus the time its children cover.  When
threads run at once (sweep workers), each instant is shared equally among
the open spans that have no open child, so the self times of an iteration
add up to its wall time however many threads it used.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import threading
import time

# Span record fields (a list per span, written by the thread that owns it).
NAME, START, END, PARENT, THREAD, ITERATION, PAYLOAD = range(7)


def _block_payload(args, kwargs, result):
    """(points, points inside the series band) of one KernelSet.block call."""
    import numpy as np
    kset = args[0]
    s = args[1] if len(args) > 1 else kwargs["s"]
    s0 = args[2] if len(args) > 2 else kwargs["s0"]
    dist = np.abs(np.asarray(s, dtype=float) - s0)
    return dist.size, int(np.count_nonzero(dist < kset.eps_d))


def _file_bytes(args, kwargs, result):
    return (os.path.getsize(args[0] if args else kwargs["path"]),)


# Payload marker: record the thread CPU time the span used, so that time a
# sweep point spent waiting (for the interpreter lock or a core) shows.
THREAD_CPU = "thread_cpu"


# (span name, module, attribute path, payload) for every traced boundary.
TARGETS = (
    ("cli.run", "curvecrack.cli", "run", None),
    ("cli.csv_write", "curvecrack.postprocess", "write_csv", _file_bytes),
    ("solver.solve_problem", "curvecrack.solver", "solve_problem", None),
    ("solver.assemble", "curvecrack.solver", "assemble", None),
    ("solver.collocation_row", "curvecrack.solver", "_Assembler.rows", None),
    ("solver.solve", "curvecrack.solver", "solve", None),
    ("kernels.block", "curvecrack.kernels", "KernelSet.block", _block_payload),
    ("quadrature.gauss_legendre", "curvecrack.quadrature", "gauss_legendre",
     None),
    ("quadrature.pv_polynomial", "curvecrack.quadrature", "pv_polynomial",
     None),
    ("densities.traction_jump", "curvecrack.densities", "traction_jump", None),
    ("geometry.derivatives", "curvecrack.geometry", "CrackCurve.derivatives",
     None),
    ("fields.profile", "curvecrack.fields", "face_field_profile", None),
    ("fields.evaluator", "curvecrack.fields", "_FieldEvaluator.__init__", None),
    ("fields.traction", "curvecrack.fields", "_FieldEvaluator.traction", None),
    ("postprocess.fit_tip", "curvecrack.postprocess", "fit_tip_coefficients",
     None),
    ("postprocess.max_traction", "curvecrack.postprocess", "max_face_traction",
     None),
    ("postprocess.opening", "curvecrack.postprocess", "opening_profile", None),
    ("postprocess.sweep", "curvecrack.postprocess", "sweep_gamma", None),
    ("postprocess.point", "curvecrack.postprocess", "_solve_and_report",
     THREAD_CPU),
    ("postprocess.convergence", "curvecrack.postprocess", "convergence_study",
     None),
)

MODULES = ("cli", "solver", "kernels", "quadrature", "densities", "geometry",
           "fields", "postprocess")

# Per-layer metrics: name -> (unit, how it is derived from one iteration).
# "incl:<span>" is the time inside that span including its children,
# "self:<span>" the span's own self time, "calls:<span>" its call count and
# "payload:<span>:<i>" a summed payload field; "wait:<span>" sums wall minus
# thread CPU time, the time the spans were runnable but not running.
LAYER_METRICS = {
    "cli.run_self_s": ("s", "self:cli.run"),
    "cli.csv_write_s": ("s", "incl:cli.csv_write"),
    "cli.csv_bytes": ("bytes", "payload:cli.csv_write:0"),
    "solver.assemble_s": ("s", "incl:solver.assemble"),
    "solver.assemble_calls": ("count", "calls:solver.assemble"),
    "solver.collocation_rows": ("count", "calls:solver.collocation_row"),
    "solver.solve_s": ("s", "incl:solver.solve"),
    "solver.solve_calls": ("count", "calls:solver.solve"),
    "kernels.block_s": ("s", "incl:kernels.block"),
    "kernels.block_calls": ("count", "calls:kernels.block"),
    "kernels.points": ("count", "payload:kernels.block:0"),
    "kernels.near_points": ("count", "payload:kernels.block:1"),
    "quadrature.gauss_legendre_calls": ("count",
                                        "calls:quadrature.gauss_legendre"),
    "quadrature.gauss_legendre_s": ("s", "incl:quadrature.gauss_legendre"),
    "quadrature.pv_polynomial_calls": ("count",
                                       "calls:quadrature.pv_polynomial"),
    "quadrature.pv_polynomial_s": ("s", "incl:quadrature.pv_polynomial"),
    "densities.traction_jump_calls": ("count",
                                      "calls:densities.traction_jump"),
    "densities.traction_jump_s": ("s", "incl:densities.traction_jump"),
    "geometry.derivatives_calls": ("count", "calls:geometry.derivatives"),
    "geometry.derivatives_s": ("s", "incl:geometry.derivatives"),
    "fields.profile_s": ("s", "incl:fields.profile"),
    "fields.evaluators": ("count", "calls:fields.evaluator"),
    "fields.samples": ("count", "calls:fields.traction"),
    "postprocess.fit_tip_s": ("s", "incl:postprocess.fit_tip"),
    "postprocess.max_traction_s": ("s", "incl:postprocess.max_traction"),
    "postprocess.opening_s": ("s", "incl:postprocess.opening"),
    "postprocess.sweep_s": ("s", "incl:postprocess.sweep"),
    "postprocess.sweep_threads": ("count", "threads:postprocess.point"),
    "postprocess.point_p50_s": ("s", "p50:postprocess.point"),
    "postprocess.point_wait_s": ("s", "wait:postprocess.point"),
    "postprocess.convergence_s": ("s", "incl:postprocess.convergence"),
}
LAYER_METRICS.update({f"self.{m}_s": ("s", f"module:{m}") for m in MODULES})


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []
        self.iteration = 0
        self.absent = []
        self._local = threading.local()
        self._main_stack = []
        self._undo = []

    def install(self, targets=TARGETS):
        """Wrap every target; the calling thread becomes the main thread."""
        self._local.stack = self._main_stack
        for name, module_name, path, payload in targets:
            try:
                module = importlib.import_module(module_name)
                owner, attr = module, path
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name, payload)
            if owner is module:
                self._replace_everywhere(original, wrapper)
            else:
                self._set(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Rebind the function in each curvecrack module that imported it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "curvecrack"
                                      or mod_name.startswith("curvecrack.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _wrap(self, fn, name, payload):
        spans = self.spans
        local = self._local
        main_stack = self._main_stack
        clock = time.perf_counter
        get_ident = threading.get_ident
        thread_time = time.thread_time
        tracer = self
        cpu = payload == THREAD_CPU

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # a worker thread's outermost span hangs under the main thread's
            # innermost open span (the sweep that submitted it)
            parent = stack[-1] if stack else (main_stack[-1] if main_stack
                                              else None)
            rec = [name, clock(), 0.0, parent, get_ident(), tracer.iteration,
                   None]
            spans.append(rec)
            stack.append(rec)
            cpu_start = thread_time() if cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                if cpu:
                    rec[PAYLOAD] = (thread_time() - cpu_start,)
                stack.pop()
            if payload is not None and not cpu:
                rec[PAYLOAD] = payload(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper


def self_times(spans):
    """Self time of each span (list aligned with spans).

    Sweeps over start/end events; between two events the elapsed time is
    split equally among the open spans with no open child.
    """
    index = {id(rec): i for i, rec in enumerate(spans)}
    parent = [index.get(id(rec[PARENT])) if rec[PARENT] is not None else None
              for rec in spans]
    # at equal times, opens come first (parents before children), then
    # closes (children before parents)
    events = []
    for i, rec in enumerate(spans):
        events.append((rec[START], 0, i))
        events.append((rec[END], 1, -i))
    events.sort()
    own = [0.0] * len(spans)
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves = set()
    last = events[0][0] if events else 0.0
    for t, closing, i in events:
        i = abs(i)
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        p = parent[i]
        if not closing:
            is_open[i] = True
            leaves.add(i)
            if p is not None and is_open[p]:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p is not None and is_open[p]:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return own


def iteration_metrics(spans):
    """Per-layer metrics of one iteration's spans (see LAYER_METRICS)."""
    own = self_times(spans)
    index = {id(rec): i for i, rec in enumerate(spans)}
    total = list(own)
    for i in range(len(spans) - 1, -1, -1):     # children follow parents
        p = spans[i][PARENT]
        if p is not None and id(p) in index:
            total[index[id(p)]] += total[i]

    def outermost(i):
        name = spans[i][NAME]
        p = spans[i][PARENT]
        while p is not None:
            if p[NAME] == name:
                return False
            p = p[PARENT]
        return True

    by_name = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[NAME], []).append(i)

    def derive(rule):
        kind, _, rest = rule.partition(":")
        if kind == "module":
            return sum(o for o, rec in zip(own, spans)
                       if rec[NAME].startswith(rest + "."))
        name, _, field = rest.partition(":")
        idx = by_name.get(name, [])
        if kind == "incl":
            return sum(total[i] for i in idx if outermost(i))
        if kind == "self":
            return sum(own[i] for i in idx)
        if kind == "calls":
            return len(idx)
        if kind == "payload":
            return sum(spans[i][PAYLOAD][int(field)] for i in idx)
        if kind == "wait":
            return sum(spans[i][END] - spans[i][START] - spans[i][PAYLOAD][0]
                       for i in idx)
        if kind == "threads":
            return len({spans[i][THREAD] for i in idx})
        if kind == "p50":
            return statistics.median(spans[i][END] - spans[i][START]
                                     for i in idx) if idx else 0.0
        raise ValueError(f"unknown metric rule {rule!r}")

    metrics = {name: derive(rule) for name, (_, rule) in LAYER_METRICS.items()}
    metrics["_self_total"] = sum(own)
    return metrics


def spans_by_iteration(spans):
    out = {}
    for rec in spans:
        out.setdefault(rec[ITERATION], []).append(rec)
    return out


def dump_rows(spans):
    """Spans as JSON-ready rows: name, start, end, parent index, thread, iteration."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    t0 = spans[0][START] if spans else 0.0
    return [[rec[NAME], rec[START] - t0, rec[END] - t0,
             index.get(id(rec[PARENT])) if rec[PARENT] is not None else None,
             rec[THREAD], rec[ITERATION]] for rec in spans]
