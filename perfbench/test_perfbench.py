"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import tracing
import workloads
from run import tail

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent=None, thread=1):
    return [name, start, end, parent, thread, 0, None]


def test_self_times_nested_spans_subtract_children():
    root = span("cli.run", 0.0, 10.0)
    a = span("solver.assemble", 1.0, 4.0, root)
    a1 = span("kernels.block", 2.0, 3.0, a)
    b = span("postprocess.opening", 5.0, 9.0, root)
    assert tracing.self_times([root, a, a1, b]) == pytest.approx(
        [10.0 - 3.0 - 4.0, 2.0, 1.0, 4.0])


def test_self_times_share_time_between_threads():
    sweep = span("postprocess.sweep", 0.0, 10.0)
    p1 = span("postprocess.point", 0.0, 10.0, sweep, thread=2)
    p2 = span("postprocess.point", 0.0, 6.0, sweep, thread=3)
    inner = span("kernels.block", 1.0, 3.0, p2, thread=3)
    own = tracing.self_times([sweep, p1, p2, inner])
    # [0, 6): p1 and whichever of p2/inner is innermost share each instant
    assert own == pytest.approx([0.0, 3.0 + 4.0, 2.0, 1.0])
    assert sum(own) == pytest.approx(10.0)


def test_iteration_metrics_inclusive_times_and_counts():
    root = span("cli.run", 0.0, 10.0)
    asm = span("solver.assemble", 1.0, 4.0, root)
    blk = span("kernels.block", 2.0, 3.0, asm)
    blk[tracing.PAYLOAD] = (192, 2)
    m = tracing.iteration_metrics([root, asm, blk])
    assert m["solver.assemble_s"] == pytest.approx(3.0)
    assert m["self.solver_s"] == pytest.approx(2.0)
    assert m["cli.run_self_s"] == pytest.approx(7.0)
    assert (m["kernels.points"], m["kernels.near_points"]) == (192, 2)
    assert m["solver.assemble_calls"] == 1 and m["fields.samples"] == 0


def test_missing_target_is_reported_absent_and_others_still_wrap():
    pytest.importorskip("numpy")
    sys.path.insert(0, str(ROOT / "src"))
    import curvecrack.quadrature as quadrature
    import curvecrack.solver as solver
    original = quadrature.gauss_legendre
    tracer = tracing.Tracer()
    tracer.install([
        ("solver.gone", "curvecrack.solver", "no_such_function", None),
        ("solver.gone_method", "curvecrack.solver", "_Assembler.gone", None),
        ("nowhere.module", "curvecrack.no_such_module", "run", None),
        ("quadrature.gauss_legendre", "curvecrack.quadrature",
         "gauss_legendre", None),
    ])
    try:
        assert tracer.absent == ["solver.gone", "solver.gone_method",
                                 "nowhere.module"]
        assert solver.gauss_legendre is not original   # rebound by name
        solver.gauss_legendre(4, 0.0, 1.0)
    finally:
        tracer.uninstall()
    assert quadrature.gauss_legendre is original
    assert solver.gauss_legendre is original
    assert [rec[tracing.NAME] for rec in tracer.spans] == [
        "quadrature.gauss_legendre"]


def test_tail_rank_has_ten_samples_beyond_it():
    assert tail(list(range(100))) == (89, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 200.0 / 3.0)


def test_hostspeed_scales_by_the_flanking_kernel_times():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(2.0, ref, ref) == pytest.approx(2.0)
    # a host running at half speed doubles the kernel's time around it
    assert hostspeed.scale(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert hostspeed.scale(3.0, ref, 2 * ref) == pytest.approx(2.0)


def test_hostspeed_sample_is_a_positive_time():
    pytest.importorskip("numpy")
    assert 0.0 < hostspeed.sample() < 10.0


def test_generated_inputs_are_seeded_and_in_range():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8)
    solve = workloads.generate("solve-report", 3)
    assert all(0.5 <= c["gamma1"] <= 2.0 for c in solve)
    assert sorted(c["gamma1"] for c in solve) == [c["gamma1"] for c in solve]
    sweep = workloads.generate("gamma-sweep", 3)[0]["grid"]
    assert len(sweep) == 8 and 0.5 <= sweep[0] and sweep[-1] <= 4.0
    arc = workloads.generate("arc-convergence", 3)[0]
    assert 0.3 <= arc["curvature"] <= 0.9


def test_sweep_check_counts_failed_points():
    params = {"run_mode": "sweep-gamma", "grid": (0.5, 1.0)}
    csv = ("gamma1,A1,A2,max_opening,min_opening,max_traction,error\n"
           "0.5,1.0,2.0,0.1,-0.1,3.0,\n"
           "1.0,nan,nan,nan,nan,nan,SolveError: condition\n")
    files = {"config_echo.txt": b"", "sweep_gamma.csv": csv.encode()}
    check, extracted = workloads.check_outputs(params, 0, files)
    assert check.n_failed == 1 and check.failed == {1}
    assert extracted["max_traction"] == [(0.5, 3.0)]
    check, _ = workloads.check_outputs(params, 4, files)
    assert check.n_failed == 2


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_iteration_smoke_run(workload):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1",
                     "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.points(
        workloads.generate(workload, 1)[0])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_smoke_run_reports_every_layer_metric():
    proc = run_bench(ROOT, "--workload", "arc-convergence", "--seed", "1",
                     "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.self_cover"]["value"] == pytest.approx(
        1.0, abs=0.1)
    assert result["metrics"]["solver.assemble_calls"]["value"] == 5


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "solve-report", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
