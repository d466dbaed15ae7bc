"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 7 derives its parity split from the mirror symmetry next to its
assertions.  Criterion 8 is implemented as stated and fails; the cause is
measured, not a property of the model:

* criterion 8 asserts that the maximal face traction decays strictly along
  gamma1 = 0.5, 0.25, 0.1, 0.05.  At N = 20 the solver reports 58.49,
  296.92, 13.66 and 6.28, and these numbers are artifacts of the
  discretization:
  - they are not converged in N: at gamma1 = 0.25 the maximum is 25.7,
    296.9, 108.3 and 69.4 for N = 16, 20, 24 and 30;
  - they are not set by the Tikhonov floor: at N = 20 no direction is
    damped, and a relative weight of 1e-12 moves 296.92 only to 296.97;
  - they sit next to a discrete resonance: at N = 20 the semicircle's
    maximum grows 25-50-fold in a narrow band around gamma1* ~ 0.27
    (0.268-0.276), where the tip boundary layer sqrt(gamma1 (kappa - 1)
    / 4 mu) is about a quarter of the collocation spacing l / N (beta ~
    0.26).  gamma1* moves like N^-2 (0.45, 0.27, 0.18 and 0.115 for N =
    16, 20, 24 and 30), so the gamma1 = 0.25 maximum follows its
    distance to gamma1*.  The reduced condition number hardly moves
    across the band (3.6e6 to 7.8e6), so it does not show the resonance;
  - the density does not solve the boundary equation between collocation
    points: at N = 20 the residual at the nodes l k / N is 0.34
    (gamma1 = 1) and 2.9 (gamma1 = 0.25) of the largest forcing, against
    1e-4 and 9e-3 at the collocation midpoints.
  The constrained system (2N collocation rows and 6 constraint rows for
  2N + 2 unknowns) has no exact solution, and no polynomial density
  satisfies the boundary equation up to the tips.  The maximum sits at the
  grid point nearest a tip, inside the boundary layer of width
  sqrt(gamma1 (kappa - 1) / 4 mu), where the polynomial solution is least
  accurate.
"""

import numpy as np
import pytest

from curvecrack import (DensityCoefficients, Discretization, FarFieldLoad,
                        KernelSet, fit_tip_coefficients, make_circular_arc,
                        make_semicircle, make_straight, max_face_traction,
                        opening_profile, parity_residuals, pv_cauchy_sum,
                        solve_problem, tip_condition_residuals, traction_jump,
                        traction_jump_parts)
from curvecrack.cli import parse_config, run
from curvecrack.fields import face_field_profile, face_fields


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_straight_kernel_annihilation():
    kset = KernelSet(make_straight(1.0), 2.5)
    worst = 0.0
    for s0 in np.linspace(0.01, 0.99, 20):
        blk = kset.block(np.linspace(0.0, 1.0, 20), s0)
        worst = max(worst, max(np.max(np.abs(v)) for v in blk.values()))
    report(1, "straight-kernel-annihilation", worst <= 1e-13,
           f"max |k|, |k'|, |k''| = {worst:.2e}")


def test_criterion_02_kernel_derivative_oracle():
    worst = 0.0
    for curve in (make_semicircle(), make_circular_arc(0.5)):
        kset = KernelSet(curve, 2.5)
        l = curve.length
        h = 1e-5 * l
        ss = np.linspace(0.05 * l, 0.95 * l, 20)
        for s0 in np.linspace(0.07 * l, 0.93 * l, 20):
            s_use = ss[np.abs(ss - s0) > l / 20.0]
            for j in (1, 2, 3, 4):
                d1, d2 = kset.kernel_derivatives(j, s_use, s0)
                fd1 = (kset.kernel(j, s_use, s0 + h)
                       - kset.kernel(j, s_use, s0 - h)) / (2 * h)
                kp, _ = kset.kernel_derivatives(j, s_use, s0 + h)
                km, _ = kset.kernel_derivatives(j, s_use, s0 - h)
                fd2 = (kp - km) / (2 * h)
                # relative 1e-5 with an absolute guard for derivatives that
                # vanish identically (the second kernel is constant on arcs)
                r1 = np.max(np.abs(d1 - fd1) / (np.abs(fd1) + 1.0))
                r2 = np.max(np.abs(d2 - fd2) / (np.abs(fd2) + 1.0))
                worst = max(worst, r1, r2)
    report(2, "kernel-derivative-oracle", worst <= 1e-5,
           f"worst guarded relative error = {worst:.2e}")


def test_criterion_03_quadrature_oracle():
    errors = {}
    for n in (8, 16, 30):
        d = Discretization(n, 1.0)
        val = pv_cauchy_sum(d.nodes, d.nodes, d.weight, 0.5, on_node="drop")
        errors[n] = abs(val - 1.0)
    ok = errors[30] <= 0.05 and errors[8] > errors[16] > errors[30]
    report(3, "pv-quadrature-oracle", ok,
           f"errors N=8,16,30: {errors[8]:.4f}, {errors[16]:.4f}, "
           f"{errors[30]:.4f}")


def test_criterion_04_closure_identity(material, semicircle):
    gamma1 = 1.0
    rng = np.random.default_rng(42)
    l = semicircle.length
    s = np.linspace(0.1, l - 0.1, 11)
    worst = 0.0
    for _ in range(50):
        g1 = rng.normal(size=8)
        g2 = rng.normal(size=8)
        coeffs = DensityCoefficients(g1, g2, l, gamma1)
        q_plus, iq_minus = traction_jump_parts(semicircle, material, gamma1,
                                               coeffs, s)
        # literal evaluation of the closure identities from the boundary
        # condition jump: q+conj q and the s-derivative form
        x = s - l / 2
        gp = sum((g1[k] + 1j * g2[k]) * x**k for k in range(8))
        gpp = sum(k * (g1[k] + 1j * g2[k]) * x**(k - 1) for k in range(1, 8))
        gppp = sum(k * (k - 1) * (g1[k] + 1j * g2[k]) * x**(k - 2)
                   for k in range(2, 8))
        k0 = semicircle.kappa0(s)
        k0p = semicircle.kappa0_prime(s)
        # the identities give q + conj q and q - conj q themselves
        bracket = k0 * (gp - np.conj(gp)) + 1j * (gpp + np.conj(gpp))
        direct_plus = np.real(-1j * gamma1 / (4 * material.mu) * k0 * bracket)
        dbracket = (k0p * (gp - np.conj(gp)) + k0 * (gpp - np.conj(gpp))
                    + 1j * (gppp + np.conj(gppp)))
        q_minus = gamma1 / (4 * material.mu) * dbracket
        direct_iq_minus = np.real(1j * q_minus)
        worst = max(worst,
                    float(np.max(np.abs(q_plus - direct_plus))),
                    float(np.max(np.abs(iq_minus - direct_iq_minus))))
    report(4, "traction-jump-closure-identity", worst <= 1e-10,
           f"worst deviation over 50 random vectors = {worst:.2e}")


def test_criterion_05_uniform_field_consistency(material):
    curve = make_straight(1.0)
    load = FarFieldLoad(sigma1=0.0, sigma2=1.0)
    zero = DensityCoefficients(np.zeros(6), np.zeros(6), curve.length, 1.0)
    worst = 0.0
    for side in ("plus", "minus"):
        for s0 in (0.21, 0.5, 0.83):
            smp = face_fields(curve, material, load, zero, side, s0)
            worst = max(worst, abs(smp.sigma_n - 1.0), abs(smp.tau_n))
    report(5, "uniform-field-consistency", worst <= 1e-12,
           f"max traction deviation = {worst:.2e}")


def test_criterion_06_convergence(solved_semicircle_by_n, semicircle):
    grid = np.linspace(0.0, semicircle.length, 401)
    ref = solved_semicircle_by_n[30].gprime(grid)
    d16 = float(np.max(np.abs(solved_semicircle_by_n[16].gprime(grid) - ref)))
    d20 = float(np.max(np.abs(solved_semicircle_by_n[20].gprime(grid) - ref)))
    sup = float(np.max(np.abs(ref)))
    ok = d20 < d16 and d20 / sup < 0.1
    report(6, "density-convergence", ok,
           f"d(16,30)={d16:.3f} d(20,30)={d20:.3f} d(20,30)/max={d20/sup:.4f}")


FIELDS = ("sigma_n", "tau_n", "du1_ds", "du2_ds")


def _field_arrays(curve, material, load, coeffs, n_points=24):
    j = np.arange(1, n_points + 1)
    grid = (2 * j - 1) * curve.length / (2 * n_points)
    prof = face_field_profile(curve, material, load, coeffs, grid,
                              sides=("plus",))
    return {n: np.array([getattr(p, n) for p in prof]) for n in FIELDS}


def test_criterion_07_symmetry(material, semicircle):
    # The semicircle t(s) = exp(is) is symmetric under the mirror
    # x1 -> -x1, which maps t(s) to t(l - s) and keeps the "+" face on the
    # left of increasing s; both loads are symmetric under it too.  So the
    # solution obeys u1(l - s) = -u1(s) and u2(l - s) = u2(s), and
    # differentiating along the arc gives du1/ds even and du2/ds odd about
    # the center.  The mirror keeps the normal i t' and reverses the
    # tangent, so the normal traction is even and the shear traction odd.
    # Split: sigma_n, du1/ds even; tau_n, du2/ds odd.
    results = {}
    ok = True
    for load in (FarFieldLoad(sigma1=1.0, sigma2=0.0),
                 FarFieldLoad(sigma1=0.0, sigma2=1.0)):
        coeffs = solve_problem(semicircle, material, load, 1.0, N=20)
        vals = _field_arrays(semicircle, material, load, coeffs)
        for name, idx in (("sigma_n", 0), ("du1_ds", 0),
                          ("tau_n", 1), ("du2_ds", 1)):
            res = parity_residuals(vals[name])[idx]
            key = f"{name}:{'even' if idx == 0 else 'odd'}"
            results[key] = max(results.get(key, 0.0), res)
            ok = ok and res <= 1e-3
    detail = " ".join(f"{k}={v:.1e}" for k, v in results.items())
    report(7, "field-symmetry-split", ok, detail)


def test_criterion_08_traction_free_limit(material, semicircle):
    load = FarFieldLoad(sigma1=1.0, sigma2=0.0)
    values = []
    for gamma1 in (0.5, 0.25, 0.1, 0.05):
        coeffs = solve_problem(semicircle, material, load, gamma1, N=20)
        values.append(max_face_traction(semicircle, material, load, coeffs))
    ok = all(a > b for a, b in zip(values, values[1:]))
    report(8, "traction-free-limit", ok,
           "max|sigma_n+i tau_n| along gamma1=0.5,0.25,0.1,0.05: "
           + ", ".join(f"{v:.3f}" for v in values))


def test_criterion_09_boundedness_split(solved_semicircle, semicircle,
                                        material, load_h):
    fits = fit_tip_coefficients(semicircle, material, load_h,
                                solved_semicircle)
    # single fit-residual floor for the fitting procedure on this solve
    floor = 3.0 * max(f.rms for f in fits.values())
    msgs = []
    ok = True
    for small, large in (("sigma_n", "tau_n"), ("du2_ds", "du1_ds")):
        a_small, a_large = abs(fits[small].A), abs(fits[large].A)
        if max(a_small, a_large) > floor:
            ok = ok and a_small <= 0.1 * a_large
            msgs.append(f"|A({small})|={a_small:.3f} vs 0.1|A({large})|="
                        f"{0.1 * a_large:.3f}")
        else:
            msgs.append(f"{small}/{large} below floor {floor:.3f}")
    report(9, "log-singularity-split", ok, "; ".join(msgs))


def test_criterion_10_straight_crack_boundedness(solved_straight, straight2,
                                                 material, load_v):
    fits = fit_tip_coefficients(straight2, material, load_v, solved_straight)
    floor = 3.0 * max(f.rms for f in fits.values())
    fit_ok = all(abs(f.A) < floor for f in fits.values())
    res = tip_condition_residuals(solved_straight, straight2, material, 1.0)
    res_ok = max(abs(v) for v in res) < 1e-2
    detail = ("A=" + ",".join(f"{fits[n].A:+.3f}" for n in FIELDS)
              + f" floor={floor:.3f} tip-residuals<1e-2: {res_ok}")
    report(10, "straight-crack-boundedness", fit_ok and res_ok, detail)


def test_criterion_11_single_valuedness(material, semicircle, straight2,
                                        load_h, load_v):
    worst = 0.0
    for curve, load in ((semicircle, load_h), (straight2, load_v),
                        (make_circular_arc(0.5),
                         FarFieldLoad(sigma1=1.0, sigma2=1.0))):
        co = solve_problem(curve, material, load, 1.0, N=16)
        worst = max(worst, co.single_valued_residual)
    report(11, "single-valuedness", worst <= 1e-8,
           f"worst relative residual = {worst:.2e}")


def test_criterion_12_zero_load_null_solution(material, semicircle, straight2):
    zero_load = FarFieldLoad(sigma1=0.0, sigma2=0.0)
    worst_coeff = 0.0
    worst_open = 0.0
    for curve in (semicircle, straight2):
        co = solve_problem(curve, material, zero_load, 1.0, N=12)
        worst_coeff = max(worst_coeff, float(np.max(np.abs(co.g1))),
                          float(np.max(np.abs(co.g2))))
        prof = opening_profile(co, curve, material)
        worst_open = max(worst_open, float(np.max(np.abs(prof.delta))))
    ok = worst_coeff <= 1e-10 and worst_open == 0.0
    report(12, "zero-load-null-solution", ok,
           f"max coefficient = {worst_coeff:.2e}, max opening = {worst_open:.2e}")


def test_criterion_13_determinism_and_scaling(material, semicircle, tmp_path):
    la = FarFieldLoad(sigma1=1.0, sigma2=0.5)
    lb = FarFieldLoad(sigma1=2.0, sigma2=1.0)
    a = solve_problem(semicircle, material, la, 1.0, N=12)
    b = solve_problem(semicircle, material, lb, 1.0, N=12)
    coeff_scale = max(
        float(np.max(np.abs(2.0 * a.g1 - b.g1))),
        float(np.max(np.abs(2.0 * a.g2 - b.g2))))
    pa = opening_profile(a, semicircle, material, n_samples=51)
    pb = opening_profile(b, semicircle, material, n_samples=51)
    open_scale = float(np.max(np.abs(2.0 * pa.delta - pb.delta)))
    sa = face_fields(semicircle, material, la, a, "plus", 1.3)
    sb = face_fields(semicircle, material, lb, b, "plus", 1.3)
    field_scale = abs(2.0 * (sa.sigma_n + 1j * sa.tau_n)
                      - (sb.sigma_n + 1j * sb.tau_n))

    cfg_text = ("shape = semicircle\nmu = 60\nkappa = 2.5\n"
                "sigma1_inf = 1.0\nsigma2_inf = 0.0\ngamma1 = 1.0\nN = 8\n")
    cfg_a = parse_config(cfg_text + f"out_dir = {tmp_path / 'a'}\n")
    cfg_b = parse_config(cfg_text + f"out_dir = {tmp_path / 'b'}\n")
    assert run(cfg_a, quiet=True) == 0
    assert run(cfg_b, quiet=True) == 0
    bytes_equal = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in ("g_prime.csv", "face_fields.csv", "opening.csv"))

    scale_ref = float(np.max(np.abs(b.g1))) + float(np.max(np.abs(b.g2)))
    ok = (coeff_scale <= 1e-9 * scale_ref and open_scale <= 1e-9
          and field_scale <= 1e-9 and bytes_equal)
    report(13, "determinism-and-linear-scaling", ok,
           f"coeff={coeff_scale:.2e} opening={open_scale:.2e} "
           f"field={field_scale:.2e} bytes_equal={bytes_equal}")
