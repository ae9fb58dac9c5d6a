"""End-to-end acceptance gates.

Nine numbered checks, one verdict line each, covering the package's core
guarantees: closed-form residuals, blowup forecasting, conservation,
constraint preservation, spectral accuracy, transport bounds, the commutator
inequality, Lagrangian/Eulerian consistency, and Gronwall-envelope stability.
Tolerances are pinned here and double as the reference values quoted in the
README.
"""

import math
import time

import numpy as np
import pytest

import vspc
from vspc import diagnostics as dg
from vspc import flowmap as fm
from vspc.fields import GridSpec, ScalarField
from vspc.solver import SolverConfig, simulate, state_sup_distance

TAU = 2.0 * math.pi


def _verdict(capsys, index, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{index}/9] {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{name}: {detail}"


def test_c1_exact_solution_residuals(capsys):
    rng = np.random.default_rng(97)
    worst = 0.0
    worst_det = 0.0
    for _ in range(100):
        while True:
            a, b = rng.uniform(-3.0, 3.0, size=2)
            if abs(a + b) > 0.2 and abs(a - b) > 0.2:
                break
        f0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        p = vspc.ZghParams(a, b, f0)
        horizon = 0.8 * p.t_star if p.blows_up else 1.0
        t = float(rng.uniform(0.0, horizon))
        x = rng.uniform(-math.pi, math.pi, size=(5, 2))
        worst = max(worst, vspc.exact.zgh_scaled_residual(p, t, x)[1])
        F = vspc.zgh_fields(p, t).F
        worst_det = max(worst_det, abs(float(np.linalg.det(F)) - 1.0))
    ok = worst <= 1e-12 and worst_det <= 1e-12
    _verdict(capsys, 1, "exact-solution residuals",
             ok, f"max scaled residual {worst:.2e} <= 1e-12, "
                 f"max |det F - 1| {worst_det:.2e} <= 1e-12")


def test_c2_blowup_forecast(capsys):
    p = vspc.ZghParams(2.0, 1.0, 1.0)
    times = np.arange(0.0, 0.3 + 5e-4, 1e-3)
    recs = vspc.zgh_synthetic_history(p, times)
    closed = math.log(10.0) / 3.0
    integral_err = abs(recs[-1].bkm - closed)
    rep = dg.bkm_report(recs)
    t_star_err = abs(rep.t_star_estimate - 1.0 / 3.0) if rep.t_star_estimate else math.inf
    ok = integral_err <= 1e-3 and t_star_err <= 1e-2
    _verdict(capsys, 2, "blowup forecast",
             ok, f"integral error {integral_err:.2e} <= 1e-3, "
                 f"t* error {t_star_err:.2e} <= 1e-2")


def test_c3_energy_identity(capsys, run64_inviscid, run64_viscous):
    inviscid = max(abs(r.energy_residual) for r in run64_inviscid.records)
    viscous = max(abs(r.energy_residual) for r in run64_viscous.records)
    ok = inviscid <= 1e-6 and viscous <= 1e-5
    _verdict(capsys, 3, "energy identity",
             ok, f"inviscid residual {inviscid:.2e} <= 1e-6, "
                 f"viscous residual {viscous:.2e} <= 1e-5")


def test_c4_divergence_constraints(capsys, run64_inviscid, run64_viscous,
                                   run128_viscous):
    worst = 0.0
    for run in (run64_inviscid, run64_viscous, run128_viscous):
        worst = max(worst, run.max_div_drift_u, run.max_div_drift_F)
    ok = worst <= 1e-8
    _verdict(capsys, 4, "divergence constraints",
             ok, f"max sup-norm drift {worst:.2e} <= 1e-8 across three runs")


def test_c5_spectral_accuracy(capsys):
    started = time.perf_counter()
    nu, t_end, dt = 0.02, 0.5, 2e-3
    errors = {}
    for n in (32, 64):
        grid = GridSpec(n)
        prob = vspc.manufactured(grid, nu, "broadband")
        cfg = SolverConfig(grid, nu=nu, t_end=t_end, cfl=0.9, dt_max=dt,
                           forcing=prob.forcing, diagnostics_interval=10 ** 9)
        res = simulate(cfg, prob.initial)
        errors[n] = state_sup_distance(res.final_state, prob.analytic(t_end))
    elapsed = time.perf_counter() - started
    ratio = errors[32] / errors[64]
    ok = ratio >= 1e2 and errors[64] <= 1e-6 and elapsed < 120.0
    _verdict(capsys, 5, "spectral accuracy",
             ok, f"error drop 32->64 = {ratio:.1e} >= 1e2, "
                 f"e64 = {errors[64]:.2e} <= 1e-6, {elapsed:.0f}s < 120s")


def test_c6_transport_bounds(capsys, run64_inviscid, run64_viscous,
                             run128_viscous):
    min_margin = math.inf
    for run in (run64_inviscid, run64_viscous, run128_viscous):
        for p in (4, math.inf):
            rep = dg.lp_growth_certificate(run.records, p)
            min_margin = min(min_margin, rep.margin)
    # the closed-form family saturates the bound: margin ~ trapezoid error only
    zgh = vspc.ZghParams(2.0, 1.0, 1.0)
    times = np.arange(0.0, 0.3 + 5e-4, 1e-3)
    recs = vspc.zgh_synthetic_history(zgh, times)
    sat = max(abs(dg.lp_growth_certificate(recs, p).margin) for p in (4, math.inf))
    ok = min_margin >= -1e-7 and sat <= 1e-3
    _verdict(capsys, 6, "transport growth bounds",
             ok, f"min margin {min_margin:.2e} >= -1e-7 at p in {{4, inf}}, "
                 f"saturation gap {sat:.2e} <= 1e-3")


def _random_band_limited(grid, band, rng, decay=2.0):
    samples = rng.standard_normal((grid.n, grid.n))
    coeffs = np.fft.fft2(samples) / grid.n ** 2
    weight = (1.0 + np.sqrt(grid.k_sq)) ** (-decay)
    weight[np.maximum(np.abs(grid.k1), np.abs(grid.k2)) > band] = 0.0
    return ScalarField.from_spectrum(grid, coeffs * weight)


def test_c7_commutator_inequality(capsys):
    started = time.perf_counter()
    worst_variation = 0.0
    all_finite = True
    for s in (1.5, 2.0, 3.0):
        c_fit = {}
        for n in (64, 128):
            grid = GridSpec(n)
            rng = np.random.default_rng(33550336)
            ratios = []
            for _ in range(100):
                f = _random_band_limited(grid, n // 4, rng)
                h = _random_band_limited(grid, n // 4, rng)
                rep = vspc.commutator_check(s, f, h)
                ratios.append(rep.ratio)
            all_finite &= bool(np.all(np.isfinite(ratios)) and np.all(np.array(ratios) > 0))
            c_fit[n] = max(ratios)
        worst_variation = max(worst_variation,
                              dg.relative_difference(c_fit[64], c_fit[128]))
    elapsed = time.perf_counter() - started
    ok = all_finite and worst_variation <= 0.2 and elapsed < 30.0
    _verdict(capsys, 7, "commutator inequality",
             ok, f"600 pairs finite, C_fit grid variation {worst_variation:.1%}"
                 f" <= 20%, {elapsed:.0f}s < 30s")


def test_c8_flowmap_consistency(capsys):
    grid = GridSpec(128)
    st = vspc.taylor_green_state(grid)
    sampler = fm.SnapshotSampler(grid, method="spectral")
    mid = {}

    def observer(state):
        sampler.add(state.t, state.u)
        if abs(state.t - 0.5) < 1e-12:
            mid["F"] = state.F

    cfg = SolverConfig(grid, nu=0.05, t_end=1.0, dt_max=5e-3,
                       snapshot_interval=1, diagnostics_interval=10 ** 9)
    simulate(cfg, st, observer=observer)

    traj = fm.ParticleSet.on_lattice(16)   # 256 particles
    for _ in range(100):
        traj = fm.evolve_jacobian(traj, sampler, 5e-3)
    discrepancy = fm.compare_with_eulerian(traj, mid["F"], fm.identity_tensor_at,
                                           t=0.5)
    det_drift = float(np.max(np.abs(traj.determinants() - 1.0)))
    for _ in range(100):
        traj = fm.evolve_jacobian(traj, sampler, 5e-3)
    det_drift = max(det_drift, float(np.max(np.abs(traj.determinants() - 1.0))))
    ok = discrepancy <= 1e-4 and det_drift <= 1e-6
    _verdict(capsys, 8, "flow-map consistency",
             ok, f"max Frobenius gap {discrepancy:.2e} <= 1e-4 at t = 0.5, "
                 f"|det J - 1| {det_drift:.2e} <= 1e-6 through t = 1")


def test_c9_gronwall_envelope_stability(capsys, run64_viscous, run128_viscous):
    a = dg.h1_growth_certificate(run64_viscous.records)
    b = dg.h1_growth_certificate(run128_viscous.records)
    variation = dg.relative_difference(a.fitted_constant, b.fitted_constant)
    ok = (a.satisfied and b.satisfied and a.fitted_constant >= 0.0
          and variation <= 0.2)
    _verdict(capsys, 9, "Gronwall envelope stability",
             ok, f"C_obs = {a.fitted_constant:.4f} (n=64) vs "
                 f"{b.fitted_constant:.4f} (n=128), variation {variation:.1%} <= 20%")
