"""Time stepper, CFL control, conservation, and run-control behavior."""

import copy
import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vspc
from conftest import minor_faults, overflowing_forcing, traced_peak, traced_spans
from vspc import solver
from vspc.fields import (
    GridSpec, HalfSpectrum, ScalarField, VectorField, TensorField, dealias, ensure_physical,
    ensure_spectral, to_spectral,
)
from vspc.operators import convective_term, leray_project
from vspc.diagnostics import read_records_csv, write_records_csv
from vspc.solver import (
    BlowupError, ForcingSpec, SolverConfig, State,
    adaptive_dt, divergence_drift, rhs, simulate, state_from_arrays,
    state_sup_distance, step,
    taylor_green_state, steady_identity_state, perturbed_identity_state,
)


def test_state_requires_matching_grids():
    u = vspc.taylor_green_state(GridSpec(16)).u
    F = TensorField.identity(GridSpec(32))
    with pytest.raises(ValueError):
        State(0.0, u, F)


def test_state_channels_are_the_packed_and_snapshot_order():
    st = perturbed_identity_state(GridSpec(16))
    u, F = st.u, st.F
    want = (u.components[0], u.components[1],
            F.entry(0, 0), F.entry(1, 0), F.entry(0, 1), F.entry(1, 1))
    assert len(st.channels) == 6
    assert all(a is b for a, b in zip(st.channels, want))
    half = st.grid.half
    for row, f in zip(solver._pack(st), want):
        assert np.array_equal(row, ensure_spectral(f)[:, :half.band] * half.mask[:, :half.band])


def test_divergence_drift_matches_the_divergence_operator():
    g = GridSpec(32)
    x1, x2 = g.mesh()
    col = VectorField.from_samples(g, np.sin(x1), 0.5 * np.cos(x2))   # ∇·col = cos x₁ − ½ sin x₂
    st = State(0.0, taylor_green_state(g).u, TensorField.from_columns(col, col))
    du, dF = divergence_drift(st)
    assert du <= 1e-14
    assert math.isclose(dF, vspc.max_abs(vspc.divergence(col)), rel_tol=1e-13)


def test_initial_states_satisfy_constraints():
    g = GridSpec(64)
    for st in (taylor_green_state(g), steady_identity_state(g),
               perturbed_identity_state(g, 0.1), perturbed_identity_state(g, 0.5)):
        du, dF = divergence_drift(st)
        assert du < 1e-12
        assert dF < 1e-12


def test_perturbed_identity_scales_with_amplitude():
    # velocity is fixed (Taylor–Green); the deformation deviation is linear in
    # the amplitude knob
    g = GridSpec(32)

    def dev(amp):
        st = perturbed_identity_state(g, amp)
        worst = 0.0
        eye = np.eye(2)
        for i in range(2):
            for k in range(2):
                vals = ensure_physical(st.F.entry(i, k)) - eye[i, k]
                worst = max(worst, float(np.max(np.abs(vals))))
        return worst

    assert math.isclose(dev(0.1), 10 * dev(0.01), rel_tol=1e-10)
    st = perturbed_identity_state(g, 0.1)
    assert state_sup_distance(st, taylor_green_state(g)) > 0.05


def test_adaptive_dt_oracle():
    # TG velocity has sup |u| = 1 and F = I has Frobenius sup √2:
    # dt = 0.4·(2π/64)/(1+√2)
    g = GridSpec(64)
    cfg = SolverConfig(g, nu=0.0, t_end=1.0, cfl=0.4, dt_max=1.0)
    dt = adaptive_dt(taylor_green_state(g), cfg)
    assert math.isclose(dt, 0.016266128556433397, rel_tol=1e-12)
    capped = SolverConfig(g, nu=0.0, t_end=1.0, cfl=0.4, dt_max=1e-3)
    assert adaptive_dt(taylor_green_state(g), capped) == 1e-3


def test_step_rejects_bad_dt():
    g = GridSpec(16)
    st = taylor_green_state(g)
    cfg = SolverConfig(g, nu=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        step(st, 0.0, cfg)
    with pytest.raises(ValueError):
        step(st, -1e-3, cfg)


def test_steady_identity_is_a_fixed_point():
    g = GridSpec(32)
    st = steady_identity_state(g)
    cfg = SolverConfig(g, nu=0.1, t_end=1.0)
    cur = st
    for _ in range(20):
        cur = step(cur, 5e-3, cfg)
    assert state_sup_distance(cur, State(cur.t, st.u, st.F)) < 1e-13


def test_config_validation():
    g = GridSpec(16)
    with pytest.raises(ValueError):
        SolverConfig(g, nu=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(g, nu=0.0, t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(g, nu=0.0, t_end=1.0, cfl=0.0)
    with pytest.raises(ValueError):
        SolverConfig(g, nu=0.0, t_end=1.0, dt_max=0.0)
    SolverConfig(g, nu=0.0, t_end=0.0)  # zero-length runs are fine


@pytest.mark.parametrize("name, value", [
    ("t_end", math.nan), ("t_end", math.inf),
    ("dt_max", math.nan), ("dt_max", math.inf), ("dt_max", -1e-3),
    ("gradu_ceiling", math.nan), ("gradu_ceiling", math.inf), ("gradu_ceiling", 0.0),
    ("energy_tolerance", -1.0), ("energy_tolerance", math.nan),
    ("lp_tolerance", -1e-9), ("lp_tolerance", math.inf),
    ("divergence_tolerance", -1e-9), ("divergence_tolerance", math.nan),
    ("nu", math.nan), ("cfl", math.nan),
])
def test_config_rejects_non_finite_or_out_of_range(name, value):
    g = GridSpec(16)
    with pytest.raises(ValueError, match=name):
        SolverConfig(g, **{"nu": 0.0, "t_end": 1.0, name: value})


@pytest.mark.parametrize("name, value", [
    ("diagnostics_interval", math.nan), ("diagnostics_interval", 2.5),
    ("diagnostics_interval", 2.0), ("diagnostics_interval", True), ("diagnostics_interval", "3"),
    ("snapshot_interval", math.inf), ("snapshot_interval", 1.5), ("snapshot_interval", False),
    ("diagnostics_interval", 0), ("snapshot_interval", -1),
])
def test_config_rejects_intervals_that_are_not_counts(name, value):
    # a float interval would run: nan records the end points only, 2.5 every
    # fifth step, an infinite snapshot interval observes the ends only
    with pytest.raises(ValueError, match=name):
        SolverConfig(GridSpec(16), nu=0.0, t_end=1.0, **{name: value})


def test_config_accepts_numpy_integer_intervals():
    cfg = SolverConfig(GridSpec(16), nu=0.0, t_end=1.0, diagnostics_interval=np.int64(3),
                       snapshot_interval=np.int32(0))
    assert cfg.diagnostics_interval == 3


def test_config_accepts_zero_tolerances():
    SolverConfig(GridSpec(16), nu=0.0, t_end=1.0, energy_tolerance=0.0, lp_tolerance=0.0,
                 divergence_tolerance=0.0)


def test_simulate_rejects_divergent_initial_data():
    g = GridSpec(32)
    x1, _ = g.mesh()
    u = VectorField.from_samples(g, np.sin(x1), np.zeros_like(x1))
    bad = State(0.0, u, TensorField.identity(g))
    cfg = SolverConfig(g, nu=0.0, t_end=0.1)
    with pytest.raises(ValueError, match="divergence"):
        simulate(cfg, bad)


def test_simulate_rejects_non_real_spectral_initial_state():
    # F₁₁ gains a k = (1, 12) mode without its mirror; at n = 16 that column
    # lies outside the k₂ <= n/2 half the solver packs, so only the checked
    # inverse transform can see it
    g = GridSpec(16)
    tg = taylor_green_state(g)
    spec = lambda f: to_spectral(f).data.copy()
    F11 = spec(tg.F.entry(0, 0))
    F11[1, 12] += 0.3
    u = VectorField.from_spectra(g, *(spec(c) for c in tg.u.components))
    cols = [VectorField.from_spectra(g, F11, spec(tg.F.entry(1, 0))),
            VectorField.from_spectra(g, spec(tg.F.entry(0, 1)), spec(tg.F.entry(1, 1)))]
    bad = State(0.0, u, TensorField.from_columns(*cols))
    with pytest.raises(ValueError, match="conjugate symmetry"):
        simulate(SolverConfig(g, nu=0.01, t_end=0.01), bad)


@pytest.mark.parametrize("channel", range(6))
def test_simulate_rejects_a_band_backed_initial_state_with_a_non_finite_row(channel):
    # rows vspc built are not probed on their own: a NaN in any of the six
    # channels reaches every sample of its field's divergence
    g = GridSpec(16)
    Z = solver._pack(perturbed_identity_state(g, 0.1))
    Z[channel, 2, 1] = np.nan
    with pytest.raises(ValueError, match="initial state contains non-finite values"):
        simulate(SolverConfig(g, nu=0.01, t_end=0.01), solver._unpack(g, 0.0, Z))


def test_simulate_rejects_a_physical_initial_state_with_a_non_finite_sample():
    st = perturbed_identity_state(GridSpec(16), 0.1)
    F22 = st.F.entry(1, 1).data.copy()
    F22[4, 5] = np.inf
    bad = State(0.0, st.u, TensorField.from_columns(
        st.F.columns[0], VectorField.from_samples(st.grid, st.F.entry(0, 1).data, F22)))
    with pytest.raises(ValueError, match="initial state contains non-finite values"):
        simulate(SolverConfig(st.grid, nu=0.01, t_end=0.01), bad)


def test_simulate_rejects_initial_state_on_another_grid():
    cfg = SolverConfig(GridSpec(32), nu=0.0, t_end=0.1)
    with pytest.raises(ValueError, match="n=16.*n=32"):
        simulate(cfg, taylor_green_state(GridSpec(16)))


def test_gradient_forcing_of_F_shows_as_divergence_drift():
    # g_F is taken as given.  From rest with F = I, a column-1 forcing
    # (cos x₁, 0) leaves u = 0 (∇·FFᵀ is a gradient) and gives F₁₁ = 1 + t cos x₁,
    # so the sup of div F₁ = −t sin x₁ is t: the monitors must report it
    g = GridSpec(16)
    x1, _ = g.mesh()
    zero = np.zeros_like(x1)
    gF = TensorField.from_columns(VectorField.from_samples(g, np.cos(x1), zero),
                                  VectorField.from_samples(g, zero, zero))
    cfg = SolverConfig(g, nu=0.0, t_end=0.05, dt_max=5e-3,
                       forcing=ForcingSpec(g_u=None, g_F=lambda t: gF))
    res = simulate(cfg, steady_identity_state(g))
    assert res.termination == "completed"
    assert math.isclose(res.max_div_drift_F, 0.05, rel_tol=1e-12)
    assert res.max_div_drift_u < 1e-14
    assert res.max_div_drift_F == max(r.div_drift_F for r in res.records)
    assert res.max_div_drift_u == max(r.div_drift_u for r in res.records)
    bundle = vspc.diagnostics.certificate_bundle(res.records, forced=True)
    div = [c for c in bundle["certificates"] if c["name"] == "divergence-constraint"]
    assert not div[0]["satisfied"]


def test_simulate_zero_horizon():
    g = GridSpec(16)
    cfg = SolverConfig(g, nu=0.0, t_end=0.0)
    res = simulate(cfg, taylor_green_state(g))
    assert res.termination == "completed"
    assert res.steps == 0
    assert len(res.records) == 1


def test_simulate_transforms_a_physical_initial_state_once(monkeypatch):
    # the divergence check and the packed band share one read of the six half
    # spectra: a zero-horizon run forward-transforms six planes, not twelve,
    # and the band is the bits of `_pack` for every kind of field
    g = GridSpec(16)
    state = perturbed_identity_state(g, 0.1)
    cfg = SolverConfig(g, nu=0.0, t_end=0.0)
    banded = simulate(SolverConfig(g, nu=0.01, t_end=0.05), state).final_state
    spectral = State(0.0, VectorField.from_spectra(g, *(g.to_coeffs(c.data) for c in state.u.components)),
                     state.F)
    for st in (state, banded, spectral):
        band = solver._validate_initial(st, cfg, solver._Workspace(g))
        assert np.array_equal(band, solver._pack(st))
    to_coeffs, planes = HalfSpectrum.to_coeffs, []
    monkeypatch.setattr(HalfSpectrum, "to_coeffs", lambda self, s, **kw: planes.append(
        int(np.prod(s.shape[:-2]))) or to_coeffs(self, s, **kw))
    assert simulate(cfg, state).termination == "completed"
    assert sum(planes) == 6, planes


def test_short_inviscid_energy_conservation():
    g = GridSpec(32)
    cfg = SolverConfig(g, nu=0.0, t_end=0.1, dt_max=5e-3, diagnostics_interval=4)
    res = simulate(cfg, perturbed_identity_state(g, 0.1))
    assert res.termination == "completed"
    assert abs(res.records[-1].energy_residual) < 1e-10


def test_gradu_ceiling_triggers_blowup_path():
    g = GridSpec(16)
    cfg = SolverConfig(g, nu=0.0, t_end=0.5, gradu_ceiling=0.5)
    res = simulate(cfg, taylor_green_state(g))
    assert res.termination == "blowup-detected"
    assert res.blowup_time is not None
    assert res.blowup_time <= 0.5
    assert np.all(np.isfinite([res.final_state.t]))


@pytest.mark.parametrize("interval", [1, 10 ** 9])
def test_the_first_record_meets_the_ceiling(interval):
    # Taylor–Green has ‖∇u‖_∞ = 1 at t = 0: past a ceiling of 0.5 before any
    # step, whatever the record cadence
    g = GridSpec(16)
    cfg = SolverConfig(g, nu=0.0, t_end=0.1, gradu_ceiling=0.5, diagnostics_interval=interval)
    res = simulate(cfg, taylor_green_state(g))
    assert res.termination == "blowup-detected"
    assert res.steps == 0 and res.blowup_time == 0.0
    assert len(res.records) == 1 and res.records[0].linf_gradu > 0.5
    assert res.final_state.t == 0.0


def _bounded_stepper(monkeypatch):
    """Make the 51st step of a run fail, turning a run that never ends into a
    failure; returns the list of steps taken."""
    calls = []
    stepper = solver._step_packed

    def bounded(*args, **kwargs):
        calls.append(1)
        if len(calls) > 50:
            raise AssertionError("the clock does not advance")
        return stepper(*args, **kwargs)

    monkeypatch.setattr(solver, "_step_packed", bounded)
    return calls


@pytest.mark.parametrize("t0, duration, steps", [(1e4, 0.02, 4), (-1e4, 0.02, 4), (1e8, 0.02, 4),
                                                 (1e4, 1.0, 200), (1e8, 0.2, 40)])
def test_a_run_from_a_large_time_takes_no_sliver_step(t0, duration, steps):
    # t0 + 4·0.005 rounds to a few ulps short of t_end; the run ends when its
    # steps sum to the duration, not after one more step that few ulps long
    g = GridSpec(16)
    base = perturbed_identity_state(g, 0.1)
    res = simulate(SolverConfig(g, nu=0.01, t_end=duration, dt_max=5e-3), State(t0, base.u, base.F))
    assert res.termination == "completed" and res.steps == steps
    assert np.min(np.diff([r.t for r in res.records])) > 0.99 * 5e-3
    assert abs(res.final_state.t - (t0 + duration)) <= steps * abs(np.spacing(t0 + duration))


@pytest.mark.parametrize("t0", [math.nan, math.inf, 1e15])
def test_an_initial_time_the_clock_cannot_leave_is_rejected(monkeypatch, t0):
    # at t = 1e15 a step of dt_max = 0.005 leaves t unchanged
    calls = _bounded_stepper(monkeypatch)
    g = GridSpec(16)
    base = perturbed_identity_state(g, 0.1)
    with pytest.raises(ValueError, match="initial time"):
        simulate(SolverConfig(g, nu=0.0, t_end=1.0), State(t0, base.u, base.F))
    assert not calls


@pytest.mark.parametrize("interval", [1, 10 ** 9])
def test_a_cfl_step_the_clock_cannot_take_is_rejected(monkeypatch, interval):
    # at t = 1e10 a step of dt_max = 0.005 advances t, but the CFL step of
    # 1.5e-7 is below half its float spacing: the run stops before it
    calls = _bounded_stepper(monkeypatch)
    g = GridSpec(16)
    base = perturbed_identity_state(g, 0.1)
    cfg = SolverConfig(g, nu=0.0, t_end=1.0, cfl=1e-6, diagnostics_interval=interval)
    with pytest.raises(ValueError, match=r"clock stalls at t = 10000000000: a step of dt = 1\.53e-07"):
        simulate(cfg, State(1e10, base.u, base.F))
    assert not calls


def test_strict_mode_halts_on_certificate():
    g = GridSpec(16)
    cfg = SolverConfig(g, nu=0.1, t_end=0.5, strict=True, energy_tolerance=1e-18,
                       diagnostics_interval=2)
    res = simulate(cfg, perturbed_identity_state(g, 0.1))
    assert res.termination == "certificate-violation-halt"
    assert res.violated_certificate == "energy-identity"


def _forced_rest_state_case():
    # F = I at rest, pushed by g_u = (sin x₂, 0): ‖∇u‖₂ + ‖∇F‖₂ grows from 0,
    # so the H¹ Gronwall envelope has no finite constant
    g = GridSpec(32)
    _, x2 = g.mesh()
    push = VectorField.from_samples(g, np.sin(x2), np.zeros_like(x2))
    cfg = SolverConfig(g, nu=0.0, t_end=0.2, strict=True,
                       forcing=ForcingSpec(lambda t: push, None))
    return cfg, steady_identity_state(g)


def test_strict_mode_halts_on_h1_gronwall_at_the_first_record():
    cfg, initial = _forced_rest_state_case()
    res = simulate(cfg, initial)
    assert res.termination == "certificate-violation-halt"
    assert res.violated_certificate == "h1-gronwall"
    assert res.steps == 1 and len(res.records) == 2


def _strict_case(halts_on):
    """A strict run that halts on the named certificate, or completes (None)."""
    if halts_on == "h1-gronwall":
        return _forced_rest_state_case()
    g = GridSpec(16)
    tight = {"energy_tolerance": 1e-18} if halts_on == "energy-identity" else {}
    return (SolverConfig(g, nu=0.1, t_end=0.1, strict=True, diagnostics_interval=2, **tight),
            perturbed_identity_state(g, 0.1))


@pytest.mark.parametrize("halts_on", ["h1-gronwall", "energy-identity", None])
def test_strict_run_completes_iff_its_bundle_is_satisfied(halts_on):
    cfg, initial = _strict_case(halts_on)
    res = simulate(cfg, initial)
    tolerances = dict(energy_tolerance=cfg.energy_tolerance, lp_tolerance=cfg.lp_tolerance,
                      divergence_tolerance=cfg.divergence_tolerance)

    def failed(records):
        bundle = vspc.certificate_bundle(records, cfg.forcing is not None, **tolerances)
        return [c["name"] for c in bundle["certificates"] if not c["satisfied"]]

    assert res.violated_certificate == halts_on
    assert (res.termination == "completed") == (not failed(res.records))
    if halts_on is not None:
        # the halt is at the first record where the whole-history bundle fails
        assert not failed(res.records[:-1])
        assert halts_on == failed(res.records)[0]


def test_engine_frees_the_observed_states():
    # records only at the ends: the step-0 State, and the band it keeps, must
    # not outlive the steps after it
    g = GridSpec(16)
    refs, bands = [], []

    def observer(state):
        refs.append(weakref.ref(state))
        bands.append(weakref.ref(state.channels[0].row.base))
        if len(refs) == 3:
            gc.collect()
            assert refs[0]() is None and bands[0]() is None

    cfg = SolverConfig(g, nu=0.01, t_end=0.02, dt_max=5e-3, snapshot_interval=1,
                       diagnostics_interval=10 ** 9)
    res = simulate(cfg, perturbed_identity_state(g, 0.1), observer=observer)
    assert len(refs) == 5 and len(res.records) == 2


def test_observer_cadence():
    g = GridSpec(16)
    seen = []
    cfg = SolverConfig(g, nu=0.0, t_end=0.1, dt_max=5e-3, snapshot_interval=10)
    simulate(cfg, taylor_green_state(g), observer=lambda s: seen.append(s.t))
    # 20 steps: t = 0, t = 0.05, and the final state
    assert len(seen) == 3
    assert seen[0] == 0.0
    assert math.isclose(seen[-1], 0.1, abs_tol=1e-12)


def _channel_data(state):
    return [c.data for v in (state.u, *state.F.columns) for c in v.components]


def test_observed_states_are_read_only_and_persist():
    # handed-out states share one spectral block per state, uncopied: it must
    # be read-only and no later step may write into an earlier state
    g = GridSpec(16)
    seen = []
    cfg = SolverConfig(g, nu=0.01, t_end=0.05, dt_max=5e-3, snapshot_interval=1)
    res = simulate(cfg, perturbed_identity_state(g, 0.1),
                   observer=lambda s: seen.append((s, [a.copy() for a in _channel_data(s)])))
    assert len(seen) > 2
    for state, at_call in seen:
        for a, b in zip(_channel_data(state), at_call):
            assert np.array_equal(a, b)
    arrays = [a for s in (seen[0][0], res.final_state) for a in _channel_data(s)]
    arrays += [c.data for c in rhs(seen[0][0], cfg).du.components]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def test_records_cadence_includes_endpoints():
    g = GridSpec(16)
    cfg = SolverConfig(g, nu=0.0, t_end=0.1, dt_max=5e-3, diagnostics_interval=7)
    res = simulate(cfg, taylor_green_state(g))
    times = [r.t for r in res.records]
    assert times[0] == 0.0
    assert math.isclose(times[-1], 0.1, abs_tol=1e-12)
    assert all(b > a for a, b in zip(times, times[1:]))


def test_forcing_spec_drives_velocity():
    # constant mean acceleration: g_u = (1, 0) should produce u ≈ (t, 0);
    # the deformation stays at identity because ∇u = 0
    g = GridSpec(16)
    one = np.ones((g.n, g.n))

    def g_u(t):
        return VectorField.from_samples(g, one, np.zeros_like(one))

    cfg = SolverConfig(g, nu=0.0, t_end=0.1, dt_max=5e-3,
                       forcing=ForcingSpec(g_u=g_u, g_F=None))
    res = simulate(cfg, steady_identity_state(g))
    u1 = ensure_physical(res.final_state.u.components[0])
    np.testing.assert_allclose(u1, 0.1, atol=1e-12)
    assert state_sup_distance(
        res.final_state,
        State(res.final_state.t, res.final_state.u, TensorField.identity(g))) < 1e-12


def test_manufactured_taylor_green_is_exact():
    # band-2 fields: no truncation tail, so the discrete trajectory tracks the
    # closed form to roundoff
    g = GridSpec(32)
    prob = vspc.manufactured(g, 0.05, "taylor-green")
    cfg = SolverConfig(g, nu=0.05, t_end=0.1, dt_max=2e-3, forcing=prob.forcing,
                       diagnostics_interval=10 ** 9)
    res = simulate(cfg, prob.initial)
    assert state_sup_distance(res.final_state, prob.analytic(0.1)) < 1e-12


def test_state_round_trip_through_arrays():
    g = GridSpec(16)
    st = perturbed_identity_state(g, 0.2)
    arrays = [ensure_physical(st.u.components[0]), ensure_physical(st.u.components[1]),
              ensure_physical(st.F.entry(0, 0)), ensure_physical(st.F.entry(1, 0)),
              ensure_physical(st.F.entry(0, 1)), ensure_physical(st.F.entry(1, 1))]
    back = state_from_arrays(g, 0.0, *arrays)
    assert state_sup_distance(st, back) < 1e-14


def test_rhs_is_divergence_free():
    g = GridSpec(32)
    st = perturbed_identity_state(g, 0.1)
    cfg = SolverConfig(g, nu=0.01, t_end=1.0)
    d = rhs(st, cfg)
    du = vspc.operators.divergence(d.du)
    assert float(np.max(np.abs(ensure_physical(du)))) < 1e-12
    for col in d.dF.columns:
        dc = vspc.operators.divergence(col)
        assert float(np.max(np.abs(ensure_physical(dc)))) < 1e-12


@pytest.mark.parametrize("n, amplitude, t_end, expected_steps", [
    (32, 0.3, 1.0, 44), (64, 0.5, 0.5, 49)])
def test_simulate_steps_are_adaptive_dt(n, amplitude, t_end, expected_steps):
    # dt_max = 1 leaves the CFL limit binding.  simulate takes its step from
    # the first RK4 stage's samples; each must be what adaptive_dt gives for
    # the state it starts from, and the step count is the one the advective
    # full-spectrum solver took on the same configuration
    g = GridSpec(n)
    initial = perturbed_identity_state(g, amplitude)
    cfg = SolverConfig(g, nu=0.01, t_end=t_end, dt_max=1.0, snapshot_interval=1,
                       diagnostics_interval=10 ** 9)
    seen = []
    res = simulate(cfg, initial, observer=seen.append)
    assert res.steps == expected_steps
    assert adaptive_dt(initial, cfg) < cfg.dt_max
    assert seen[1].t - seen[0].t == adaptive_dt(initial, cfg)
    for before, after in zip(seen[:-2], seen[1:-1]):
        assert math.isclose(after.t - before.t, adaptive_dt(before, cfg), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the divergence-form, half-spectrum RHS against the advective form built
# from the public operators

def _random_div_free(g, rng, scale, mean):
    """scale·(∂₂ψ, −∂₁ψ) + mean for a random dealiased stream function ψ."""
    psi = ensure_spectral(dealias(to_spectral(
        ScalarField.from_samples(g, rng.standard_normal((g.n, g.n))))))
    c1 = scale * g.ik2 * psi
    c2 = -scale * g.ik1 * psi
    c1[0, 0] += mean[0]
    c2[0, 0] += mean[1]
    return VectorField.from_spectra(g, c1, c2)


def _random_state(g, rng):
    u = _random_div_free(g, rng, 1.0, rng.normal(size=2))
    cols = [_random_div_free(g, rng, 0.5, e + 0.2 * rng.normal(size=2)) for e in np.eye(2)]
    return State(float(rng.uniform(0.0, 1.0)), u, TensorField.from_columns(*cols))


def _random_forcing(g, rng):
    """Fixed random fields scaled by 1 + t; g_u carries a gradient part."""
    gu = [rng.standard_normal((g.n, g.n)) for _ in range(2)]
    gF = [rng.standard_normal((g.n, g.n)) for _ in range(4)]

    def g_u(t):
        return VectorField.from_samples(g, *((1.0 + t) * a for a in gu))

    def g_F(t):
        return TensorField.from_columns(VectorField.from_samples(g, *((1.0 + t) * a for a in gF[:2])),
                                        VectorField.from_samples(g, *((1.0 + t) * a for a in gF[2:])))

    return ForcingSpec(g_u, g_F)


def _spectra(v):
    return [ensure_spectral(c) for c in v.components]


def _reference_rhs(state, cfg):
    """Six full spectra: P(Σₖ Fₖ·∇Fₖ − u·∇u) − ν|k|²u and Fₖ·∇u − u·∇Fₖ, plus forcing."""
    g = state.grid
    u, cols = state.u, state.F.columns
    parts = [_spectra(convective_term(c, c)) for c in cols] + [_spectra(convective_term(u, u))]
    du = _spectra(leray_project(VectorField.from_spectra(
        g, *(parts[0][i] + parts[1][i] - parts[2][i] for i in range(2)))))
    du = [d - cfg.nu * g.k_sq * c for d, c in zip(du, _spectra(u))]
    dF = [[a - b for a, b in zip(_spectra(convective_term(c, u)), _spectra(convective_term(u, c)))]
          for c in cols]
    if cfg.forcing is not None:
        gu = cfg.forcing.g_u(state.t)
        gu = _spectra(leray_project(VectorField.from_spectra(
            g, *(c * g.dealias_mask for c in _spectra(gu)))))
        du = [d + f for d, f in zip(du, gu)]
        gF = cfg.forcing.g_F(state.t)
        dF = [[d + f * g.dealias_mask for d, f in zip(dF[k], _spectra(gF.columns[k]))]
              for k in range(2)]
    return du + dF[0] + dF[1]


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([16, 32]), forced=st.booleans(),
       nu=st.sampled_from([0.0, 0.05]))
def test_rhs_matches_advective_reference(seed, n, forced, nu):
    g = GridSpec(n)
    rng = np.random.default_rng(seed)
    state = _random_state(g, rng)
    cfg = SolverConfig(g, nu=nu, t_end=1.0, forcing=_random_forcing(g, rng) if forced else None)
    got = rhs(state, cfg)
    got = _spectra(got.du) + _spectra(got.dF.columns[0]) + _spectra(got.dF.columns[1])
    want = _reference_rhs(state, cfg)
    scale = max(float(np.max(np.abs(w))) for w in want)
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(got, want))
    assert worst <= 1e-12 * scale


@settings(max_examples=15)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([16, 32]), forced=st.booleans())
def test_step_keeps_divergence_free_states_divergence_free(seed, n, forced):
    # the u increments are Leray projected (a forcing g_u's gradient part too)
    # and the F increments are curls, so steps keep the constraints without
    # any re-projection
    g = GridSpec(n)
    rng = np.random.default_rng(seed)
    state = _random_state(g, rng)
    forcing = ForcingSpec(_random_forcing(g, rng).g_u, None) if forced else None
    cfg = SolverConfig(g, nu=0.01, t_end=1.0, forcing=forcing)
    for _ in range(3):
        state = step(state, adaptive_dt(state, cfg), cfg)
    # Σ|k||ĉ| bounds the sup of each channel's gradient
    channels = _spectra(state.u) + [c for col in state.F.columns for c in _spectra(col)]
    scale = max(float(np.sum(np.sqrt(g.k_sq) * np.abs(c))) for c in channels)
    assert max(divergence_drift(state)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# the per-run workspace: non-finite exits, step-size changes, the precomposed
# multipliers and the allocation budget of one step

@pytest.mark.parametrize("stage", ["second", "last"])
def test_non_finite_forcing_ends_the_run_with_the_last_good_state(stage):
    # g_F turns NaN after t₁, first seen by the second stage of the step from
    # t₁ (its non-finite samples raise) or only by the last (the new state's
    # check raises).  Either way the run ends at the state it had at t₁, which
    # it must hand back unchanged: no stage may write into its input.  Powers
    # of two keep the step times exact
    _check_non_finite_forcing_ends_the_run(stage, VectorField.from_samples, np.float64)


@pytest.mark.parametrize("stage", ["second", "last"])
def test_non_finite_spectral_forcing_ends_the_run_as_non_finite_samples_do(stage):
    # the check of a user's spectrum rejects a NaN coefficient; in a forcing
    # that ends the run at the stage that reads it, with the same outcome
    _check_non_finite_forcing_ends_the_run(stage, VectorField.from_spectra, np.complex128)


def _check_non_finite_forcing_ends_the_run(stage, vector, dtype):
    g = GridSpec(16)
    dt, t1 = 2.0 ** -7, 2.0 ** -5
    onset = t1 + (0.5 * dt if stage == "second" else dt)
    values = np.zeros((2, 16, 16), dtype=dtype)
    zero = TensorField.from_columns(*(vector(g, *values) for _ in range(2)))
    values[1, 2, 3] = np.nan
    nan = TensorField.from_columns(vector(g, *values), vector(g, *np.zeros_like(values)))
    forcing = ForcingSpec(g_u=None, g_F=lambda t: nan if t >= onset else zero)

    def run(t_end):
        cfg = SolverConfig(g, nu=0.01, t_end=t_end, dt_max=dt, forcing=forcing)
        return simulate(cfg, perturbed_identity_state(g, 0.1))

    short, long = run(t1), run(0.25)
    assert short.termination == "completed"
    assert long.termination == "blowup-detected"
    assert long.blowup_time == onset
    assert long.final_state.t == short.final_state.t == t1
    for a, b in zip(_channel_data(long.final_state), _channel_data(short.final_state)):
        assert np.array_equal(a, b)


def test_forcing_is_evaluated_once_per_distinct_stage_time():
    # RK4 asks at t, t + h, t + h and t + dt, and t + dt starts the next step
    g = GridSpec(16)
    prob = vspc.exact.manufactured(g, 0.02, "broadband")
    seen = {"g_u": [], "g_F": []}

    def counted(name, fn):
        return lambda t: seen[name].append(t) or fn(t)

    forcing = ForcingSpec(counted("g_u", prob.forcing.g_u), counted("g_F", prob.forcing.g_F))
    cfg = SolverConfig(g, nu=0.02, t_end=0.0123, dt_max=2e-3, forcing=forcing)
    res = simulate(cfg, prob.initial)
    assert res.steps == 7
    for times in seen.values():
        assert len(times) == len(set(times)) == 2 * res.steps + 1


def test_manufactured_band_is_evaluated_once_per_distinct_stage_time():
    # the test above rewraps the callables, so it sees the generic path; this
    # one counts the calls of the band the solver takes from the forcing
    g = GridSpec(16)
    prob = vspc.exact.manufactured(g, 0.02, "broadband")
    band, seen = prob.forcing._polarized, []
    object.__setattr__(prob.forcing, "_polarized", lambda t, out: seen.append(t) or band(t, out))
    cfg = SolverConfig(g, nu=0.02, t_end=0.0123, dt_max=2e-3, forcing=prob.forcing)
    res = simulate(cfg, prob.initial)
    assert res.steps == 7
    assert len(seen) == len(set(seen)) == 2 * res.steps + 1


def test_manufactured_forced_step_builds_no_full_spectrum_and_projects_nothing(monkeypatch):
    g, nu, dt = GridSpec(32), 0.02, 2e-3
    prob = vspc.exact.manufactured(g, nu, "broadband")
    Z = solver._pack(prob.initial)
    want = solver._step_packed(solver._Workspace(g, nu), Z, 0.0, dt, prob.forcing)
    work, generic = solver._Workspace(g, nu), solver._Workspace(g, nu)

    def refuse(*args, **kwargs):
        raise AssertionError("a full spectrum or a projection on the band path")

    monkeypatch.setattr(HalfSpectrum, "full", refuse)
    monkeypatch.setattr(GridSpec, "project", refuse)
    assert np.array_equal(solver._step_packed(work, Z, 0.0, dt, prob.forcing), want)
    rewrapped = ForcingSpec(prob.forcing.g_u, prob.forcing.g_F)
    with pytest.raises(AssertionError, match="band path"):     # the generic path needs both
        solver._step_packed(generic, Z, 0.0, dt, rewrapped)


@pytest.mark.parametrize("part", ["band", "g_u", "g_F"])
def test_forcing_on_another_grid_is_rejected(part):
    f = vspc.exact.manufactured(GridSpec(32), 0.02, "broadband").forcing
    forcing = {"band": f, "g_u": ForcingSpec(f.g_u, None), "g_F": ForcingSpec(None, f.g_F)}[part]
    g = GridSpec(64)
    cfg = SolverConfig(g, nu=0.02, t_end=0.01, forcing=forcing)
    with pytest.raises(ValueError, match="grid n=32, the run on n=64"):
        simulate(cfg, perturbed_identity_state(g, 0.1))
    with pytest.raises(ValueError, match="grid n=32, the run on n=64"):
        rhs(perturbed_identity_state(g, 0.1), cfg)


def test_forced_runs_do_not_share_forcing_values():
    # run b starts at the time run a ends on: a forcing value kept past the
    # end of a run would be handed to the next one at that time
    g, dt, t1 = GridSpec(16), 2.0 ** -7, 2.0 ** -5
    a = vspc.exact.manufactured(g, 0.02, "broadband")
    b = vspc.exact.manufactured(g, 0.02, "taylor-green")

    def run_a():
        cfg = SolverConfig(g, nu=0.02, t_end=t1, dt_max=dt, forcing=a.forcing)
        return simulate(cfg, a.initial)

    def run_b():
        cfg = SolverConfig(g, nu=0.02, t_end=2 * dt, dt_max=dt, forcing=b.forcing)
        return simulate(cfg, b.analytic(t1))

    alone_b = run_b()
    alone_a = run_a()
    back_to_back = (run_a(), run_b())
    assert back_to_back[0].final_state.t == t1
    for res, ref in zip(back_to_back, (alone_a, alone_b)):
        for x, y in zip(_channel_data(res.final_state), _channel_data(ref.final_state)):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("dt_max, t_end", [(5e-3, 0.0123), (1.0, 0.15)])
def test_simulate_equals_a_chain_of_steps(dt_max, t_end):
    # the first case truncates its last step, the second is CFL-limited on
    # every step: each change of dt must reach the integrating factor
    g = GridSpec(32)
    initial = perturbed_identity_state(g, 0.3)
    cfg = SolverConfig(g, nu=0.05, t_end=t_end, dt_max=dt_max, snapshot_interval=1,
                       diagnostics_interval=10 ** 9)
    seen = []
    res = simulate(cfg, initial, observer=seen.append)
    dts = [b.t - a.t for a, b in zip(seen, seen[1:])]
    assert len(set(dts)) > 1
    chained = initial
    for dt in dts:
        chained = step(chained, dt, cfg)
    scale = max(float(np.max(np.abs(ensure_physical(c)))) for c in chained.channels)
    assert state_sup_distance(res.final_state, chained) <= 1e-14 * scale


_ALONE = """
import sys
import numpy as np
import vspc
g = vspc.GridSpec(16)
cfg = vspc.SolverConfig(g, nu=float(sys.argv[1]), t_end=0.05, dt_max=5e-3)
res = vspc.simulate(cfg, vspc.perturbed_identity_state(g, 0.3))
np.save(sys.argv[2], np.stack([c.data for v in (res.final_state.u, *res.final_state.F.columns)
                               for c in v.components]))
"""


def test_back_to_back_runs_match_runs_made_alone(tmp_path):
    # each run owns its buffers and integrating factors: a run after one with
    # another ν, in the same process, is bit-identical to the run on its own
    g = GridSpec(16)
    env = dict(os.environ, PYTHONPATH=str(Path(vspc.__file__).resolve().parents[1]))
    for nu in (0.0, 0.1):
        cfg = SolverConfig(g, nu=nu, t_end=0.05, dt_max=5e-3)
        res = simulate(cfg, perturbed_identity_state(g, 0.3))
        out = tmp_path / f"alone-{nu}.npy"
        subprocess.run([sys.executable, "-c", _ALONE, str(nu), str(out)], env=env, check=True,
                       timeout=120)
        assert np.array_equal(np.stack(_channel_data(res.final_state)), np.load(out))


@settings(max_examples=15)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([16, 32, 64]))
def test_precomposed_multipliers_match_projected_divergence_and_curl(seed, n):
    g = GridSpec(n)
    half = g.half
    c = half.band
    mask = half.mask[:, :c]
    rng = np.random.default_rng(seed)
    Z = (rng.standard_normal((6, n, c)) + 1j * rng.standard_normal((6, n, c))) * mask
    P = half.to_samples(Z)
    u1, u2, F11, F21, F12, F22 = P
    S = half.to_coeffs(np.stack([F11 * F11 + F12 * F12 - u1 * u1, F11 * F21 + F12 * F22 - u1 * u2,
                                 F21 * F21 + F22 * F22 - u2 * u2, u1 * F21 - u2 * F11,
                                 u1 * F22 - u2 * F12]))[..., :c] * mask
    ik1, ik2 = half.ik1, half.ik2[:, :c]
    want = np.stack([*g.project(ik1 * S[0] + ik2 * S[1], ik1 * S[1] + ik2 * S[2]),
                     ik2 * S[3], -ik1 * S[3], ik2 * S[4], -ik1 * S[4]])
    work = solver._Workspace(g)
    got = solver._nonlinearity(work, P)
    assert got.shape == (6, n, c)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    # without an out buffer the result is fresh: a later call leaves it alone
    kept = got.copy()
    solver._nonlinearity(work, half.to_samples(2.0 * Z))
    assert np.array_equal(got, kept)


def test_nonlinearity_transforms_four_product_planes(monkeypatch):
    # the normal-stress difference is formed pointwise, before the transform
    g = GridSpec(32)
    work = solver._Workspace(g)
    P = g.half.to_samples(solver._pack(perturbed_identity_state(g, 0.1)))
    to_coeffs, shapes = HalfSpectrum.to_coeffs, []
    monkeypatch.setattr(HalfSpectrum, "to_coeffs",
                        lambda self, s, **kw: shapes.append(s.shape) or to_coeffs(self, s, **kw))
    solver._nonlinearity(work, P)
    assert shapes == [(4, 32, 32)]
    assert work.Q.shape == (4, 32, 32) and work.R.shape == (4, 32, 17)


def test_one_step_allocates_little_beyond_its_workspace():
    # transient numpy allocation of one warm step, the returned state
    # included, in units of the packed band's bytes: the slopes, the stages
    # and the transforms run in the workspace
    g = GridSpec(32)
    cfg = SolverConfig(g, nu=0.01, t_end=1.0)
    work = solver._Workspace(g, cfg.nu)
    Z = solver._pack(perturbed_identity_state(g, 0.1))
    solver._step_packed(work, Z, 0.0, 1e-3, None)
    peak = traced_peak(lambda: solver._step_packed(work, Z, 0.0, 1e-3, None))
    assert Z.shape == (6, 32, 32 // 3 + 1)
    assert peak <= 1.1 * Z.nbytes


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_every_workspace_array_starts_on_a_cache_line(n):
    # the heap placed the smaller buffers at 16-byte offsets that moved with
    # code a run never executes, and solve-256's step time moved 4-5% with them
    work = solver._Workspace(GridSpec(n), 0.01)
    arrays = [a for a in vars(work).values() if isinstance(a, np.ndarray)] + [*work.curl]
    assert len(arrays) == 15
    assert {a.ctypes.data % 64 for a in arrays} == {0}, [a.ctypes.data % 64 for a in arrays]


def _counted(monkeypatch, owner, name):
    """Count the calls of owner.name from now on; returns the list of their arguments."""
    calls, original = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("interval", [1, 3])
def test_a_run_samples_each_state_once_and_unpacks_only_its_result(monkeypatch, interval):
    # a record reads the band and the samples the next step reuses: no State
    # is built for it, and no state is transformed twice
    g = GridSpec(16)
    unpacked = _counted(monkeypatch, solver, "_unpack")
    sampled = _counted(monkeypatch, solver._Workspace, "samples")
    recorded = _counted(monkeypatch, vspc.diagnostics, "record")
    cfg = SolverConfig(g, nu=0.01, t_end=0.05, dt_max=5e-3, diagnostics_interval=interval)
    res = simulate(cfg, perturbed_identity_state(g, 0.1))
    assert res.steps == 10 and len(res.records) == 1 + math.ceil(10 / interval)
    assert len(unpacked) == 1                   # the result
    states = [Z for work, Z in sampled if Z is not work.Y]
    assert len(states) == res.steps + 1         # t₀ … t₁₀, each once
    assert len(sampled) == len(states) + 3 * res.steps      # and RK4 stages 2-4
    assert len(recorded) == len(res.records)    # module attribute: a tracer counts every record


def test_an_observed_run_builds_no_full_spectrum(monkeypatch):
    # every observed State keeps rows of the band; an observer that reads
    # only the clock makes no full spectrum, and neither does the run
    g = GridSpec(16)
    initial = perturbed_identity_state(g, 0.1)
    built = _counted(monkeypatch, HalfSpectrum, "full")
    seen = []
    cfg = SolverConfig(g, nu=0.01, t_end=0.05, dt_max=5e-3, snapshot_interval=1)
    res = simulate(cfg, initial, observer=lambda s: seen.append(s.t))
    assert len(seen) == res.steps + 1 == 11
    assert not built
    assert res.final_state.u.components[0].data.shape == (16, 16) and len(built) == 1


def test_an_observed_run_unpacks_once_per_observation(monkeypatch):
    g = GridSpec(16)
    unpacked = _counted(monkeypatch, solver, "_unpack")
    seen = []
    cfg = SolverConfig(g, nu=0.01, t_end=0.05, dt_max=5e-3, snapshot_interval=4)
    res = simulate(cfg, perturbed_identity_state(g, 0.1), observer=seen.append)
    assert [round(s.t / 5e-3) for s in seen] == [0, 4, 8, 10]
    assert len(unpacked) == len(seen) and res.final_state is seen[-1]


def test_records_leave_the_trajectory_bit_identical():
    g = GridSpec(32)
    runs = [simulate(SolverConfig(g, nu=0.01, t_end=0.05, dt_max=5e-3, diagnostics_interval=k),
                     perturbed_identity_state(g, 0.2)) for k in (1, 10 ** 9)]
    assert [len(r.records) for r in runs] == [11, 2]
    assert np.array_equal(solver._pack(runs[0].final_state), solver._pack(runs[1].final_state))
    assert runs[0].records[-1].linf_gradu == runs[1].records[-1].linf_gradu


def _pass_costs(monkeypatch, cfg, initial, observer=None):
    """(traced peaks, minor faults) of each whole pass of a run with a record on
    every pass: sample, record, observe and step, from one record to the next.
    A peak is above the bytes traced when its pass began; the faults are
    counted in a second, untraced run of the same config."""
    meter, marks = [], []
    observe = vspc.diagnostics.DiagnosticsEngine.observe
    monkeypatch.setattr(vspc.diagnostics.DiagnosticsEngine, "observe",
                        lambda self, view: marks.append(meter[0]()) or observe(self, view))
    with traced_spans() as span:
        meter[:] = [span]
        simulate(cfg, initial, observer=observer)
    peaks = marks[1:]                   # the first span is the run's set-up
    marks.clear()
    meter[:] = [minor_faults]
    simulate(cfg, initial, observer=observer)
    return peaks, np.diff(marks).tolist()


@pytest.mark.parametrize("n", [64, 256])
def test_an_unobserved_pass_allocates_almost_nothing(monkeypatch, n):
    # a pass no observer sees writes its step into a band the run keeps and
    # takes the record's scratch from the workspace: the first step makes
    # that band, and from the third pass on a pass allocates next to nothing
    g = GridSpec(n)
    band = 6 * n * g.half.band * 16
    cfg = SolverConfig(g, nu=0.01, t_end=6 * 2.5e-3, dt_max=2.5e-3, diagnostics_interval=1)
    peaks, _ = _pass_costs(monkeypatch, cfg, perturbed_identity_state(g, 0.1))
    assert len(peaks) == 6
    assert max(peaks[2:]) <= 0.1 * band, [p / band for p in peaks]


def test_an_observed_pass_allocates_the_band_its_state_keeps(monkeypatch):
    g = GridSpec(64)
    band = 6 * 64 * g.half.band * 16
    cfg = SolverConfig(g, nu=0.01, t_end=6 * 2.5e-3, dt_max=2.5e-3, diagnostics_interval=1,
                       snapshot_interval=1)
    peaks, _ = _pass_costs(monkeypatch, cfg, perturbed_identity_state(g, 0.1), lambda s: None)
    assert max(peaks[2:]) <= 1.1 * band, [p / band for p in peaks]
    # observed every third pass, a State keeps the band of passes 3 and 6, so
    # the step of the pass after each (4, 7) writes a new one; every other
    # pass, the observed ones too, steps into the run's spare band
    monkeypatch.undo()
    cfg = dataclasses.replace(cfg, t_end=9 * 2.5e-3, snapshot_interval=3)
    peaks, _ = _pass_costs(monkeypatch, cfg, perturbed_identity_state(g, 0.1), lambda s: None)
    assert len(peaks) == 9 and max(peaks[2:]) <= 1.1 * band, [p / band for p in peaks]
    fresh = [j for j in range(2, 9) if peaks[j] > 0.5 * band]
    assert fresh == [4, 7], [p / band for p in peaks]
    assert max(peaks[j] for j in range(2, 9) if j not in fresh) <= 0.1 * band


def test_a_warm_unobserved_run_takes_under_a_minor_fault_per_step(monkeypatch):
    # nothing a pass allocates is freed and taken back from the system on the next
    g = GridSpec(128)
    cfg = SolverConfig(g, nu=0.01, t_end=40 * 2.5e-3, dt_max=2.5e-3, diagnostics_interval=1)
    initial = perturbed_identity_state(g, 0.1)
    simulate(cfg, initial)
    _, faults = _pass_costs(monkeypatch, cfg, initial)
    assert len(faults) == 40
    assert sum(faults[2:]) < len(faults[2:]), faults


def _workspaces(monkeypatch):
    """Every _Workspace made from now on, in the list returned."""
    made = []

    class Recorded(solver._Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(solver, "_Workspace", Recorded)
    return made


def _shares_a_buffer(arrays, work):
    buffers = [b for b in vars(work).values() if isinstance(b, np.ndarray)]
    buffers += [*work.curl, *work.forced.values()]
    return any(np.shares_memory(a, b) for a in arrays for b in buffers)


def test_results_share_no_bytes_with_the_workspace(monkeypatch):
    # the workspace's transform and stage buffers are rewritten every stage:
    # nothing handed out may live in them
    made = _workspaces(monkeypatch)
    g = GridSpec(16)
    prob = vspc.exact.manufactured(g, 0.02, "broadband")
    cfg = SolverConfig(g, nu=0.02, t_end=0.02, dt_max=2e-3, forcing=prob.forcing,
                       snapshot_interval=1)
    seen = []
    res = simulate(cfg, prob.initial,
                   observer=lambda s: seen.append((s, [a.copy() for a in _channel_data(s)])))
    run = made[-1]
    assert len(seen) == res.steps + 1 == 11
    for state, at_call in seen:
        assert not _shares_a_buffer(_channel_data(state), run)
        assert all(np.array_equal(a, b) for a, b in zip(_channel_data(state), at_call))
    assert not _shares_a_buffer(_channel_data(res.final_state), run)
    derivative = rhs(seen[0][0], cfg)
    results = [c.data for v in (derivative.du, *derivative.dF.columns) for c in v.components]
    assert not _shares_a_buffer(results, made[-1])
    stepped = step(seen[0][0], 2e-3, cfg)
    assert not _shares_a_buffer(_channel_data(stepped), made[-1])
    results += _channel_data(stepped)
    kept = [a.copy() for a in results]
    step(stepped, 2e-3, cfg)
    rhs(stepped, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(results, kept))


def _full_half_reference_step(g, nu, Z, t, dt, forcing):
    """Integrating-factor RK4, unfused, on full (6, n, n//2+1) half spectra
    through the 2D real transforms; forcing as the generic ForcingSpec._band has it."""
    half, n = g.half, g.n
    ik1, ik2, mask = half.ik1, half.ik2, half.mask

    def slope(Z, t):
        u1, u2, F11, F21, F12, F22 = np.fft.irfft2(Z, s=(n, n), norm="forward")
        S = np.fft.rfft2(np.stack([F11 * F11 + F12 * F12 - u1 * u1, F11 * F21 + F12 * F22 - u1 * u2,
                                   F21 * F21 + F22 * F22 - u2 * u2, u1 * F21 - u2 * F11,
                                   u1 * F22 - u2 * F12]), norm="forward")
        N = np.stack([*g.project(ik1 * S[0] + ik2 * S[1], ik1 * S[1] + ik2 * S[2]),
                      ik2 * S[3], -ik1 * S[3], ik2 * S[4], -ik1 * S[4]]) * mask
        if forcing is not None:
            gu = [ensure_spectral(f)[:, :half.m] * mask for f in forcing.g_u(t).components]
            gF = [ensure_spectral(f)[:, :half.m] * mask for col in forcing.g_F(t).columns
                  for f in col.components]
            N += np.stack([*g.project(*gu), *gF])
        return N

    h = 0.5 * dt
    E = np.ones((6, n, half.m))
    E[:2] = np.exp(-nu * half.k_sq * h)
    k1 = slope(Z, t)
    k2 = slope(E * (Z + h * k1), t + h)
    k3 = slope(E * Z + h * k2, t + h)
    k4 = slope(E * (E * Z + dt * k3), t + dt)
    return E * (E * (Z + dt / 6.0 * k1) + dt / 3.0 * k2 + dt / 3.0 * k3) + dt / 6.0 * k4


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("n", [64, 128])
def test_band_steps_match_steps_on_full_half_spectra(n, forced):
    # 25 steps on the (6, n, n//3+1) band against an unfused step on the
    # full half spectrum: the dropped columns stay zero there
    g, nu, dt = GridSpec(n), 0.02, 2e-3
    if forced:
        prob = vspc.exact.manufactured(g, nu, "broadband")
        initial, forcing = prob.initial, prob.forcing
    else:
        initial, forcing = perturbed_identity_state(g, 0.2), None
    work = solver._Workspace(g, nu)
    Z = solver._pack(initial)
    ref = np.stack([ensure_spectral(f)[:, :g.half.m] for f in initial.channels])
    ref *= g.half.mask
    t = 0.0
    for _ in range(25):
        Z = solver._step_packed(work, Z, t, dt, forcing)
        ref = _full_half_reference_step(g, nu, ref, t, dt, forcing)
        t += dt
    assert Z.shape == (6, n, n // 3 + 1)
    assert not np.any(ref[..., Z.shape[-1]:])
    got = np.fft.irfft2(Z, s=(n, n), norm="forward")
    want = np.fft.irfft2(ref, s=(n, n), norm="forward")
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def _random_divergence_free_state(g, seed, amplitude):
    """u and F − I the perpendicular gradients of three random stream functions
    on |k| ≤ 4, scaled to sup-norm `amplitude`: real and divergence-free."""
    c = g.to_coeffs(np.random.default_rng(seed).standard_normal((3, g.n, g.n)))
    c *= g.k_sq <= 16.0
    V = g.to_samples(np.stack([g.ik2 * c, -g.ik1 * c]))      # V[:, j] = ∇⊥ψⱼ
    V *= amplitude / np.max(np.abs(V), axis=(0, 2, 3), keepdims=True)
    return state_from_arrays(g, 0.0, V[0, 0], V[1, 0], 1.0 + V[0, 1], V[1, 1],
                             V[0, 2], 1.0 + V[1, 2])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [32, 64])
def test_solver_rows_stay_real_on_their_self_mirror_column(n, seed):
    # the fields the solver hands out are never checked: of the columns a band
    # keeps, only k₂ = 0 is its own mirror image, and after 100 steps its rows
    # still satisfy ĉ(−k₁, 0) = conj ĉ(k₁, 0) to roundoff
    g = GridSpec(n)
    dt = 2.0 ** -8
    cfg = SolverConfig(g, nu=0.01, t_end=100 * dt, dt_max=dt)
    res = simulate(cfg, _random_divergence_free_state(g, seed, 0.3))
    assert res.termination == "completed" and res.steps == 100
    mirror = -np.arange(n) % n
    for f in res.final_state.channels:
        row = f.row
        assert row.shape == (n, g.half.band)
        residual = np.max(np.abs(row[:, 0] - np.conj(row[mirror, 0])))
        assert residual <= 1e-14 * np.max(np.abs(row))


# ---------------------------------------------------------------------------
# the right-hand side, the step and the run loop as they were, with their
# temporaries: references for the allocation-free code, bit for bit

def _ref_nonlinearity(work, P, t, forcing):
    if not np.all(np.isfinite(P)):
        raise BlowupError(t, "non-finite field values")
    u1, u2, F11, F21, F12, F22 = P
    N = np.empty_like(work.K)
    Q = np.stack([F11 * F11 + F12 * F12 - u1 * u1 - (F21 * F21 + F22 * F22 - u2 * u2),
                  F11 * F21 + F12 * F22 - u1 * u2, u1 * F21 - u2 * F11, u1 * F22 - u2 * F12])
    S = work.half.to_coeffs(Q)[..., :work.half.band]
    for r, M in enumerate(work.M):
        N[r] = M[0] * S[0] + M[1] * S[1]
    for (ci, cj), a in zip(((2, 3), (4, 5)), S[2:]):
        N[ci], N[cj] = work.curl[0] * a, work.curl[1] * a
    if forcing is not None:
        N += forcing._band(work.grid, t)
    return N


def _ref_step_packed(work, Z, t, dt, forcing):
    half, h = work.half, 0.5 * dt
    E = np.exp(-work.nu * half.k_sq[:, :half.band] * (0.5 * dt))
    slope = lambda X, s: _ref_nonlinearity(work, half.to_samples(X), s, forcing)
    K = slope(Z, t)
    Znew = K * (dt / 6.0) + Z
    Y = Z + K * h
    Y[:2] *= E
    K = slope(Y, t + h)
    Znew[:2] *= E
    Znew += K * (dt / 3.0)
    Y = K * h
    Y[:2] += Z[:2] * E
    Y[2:] += Z[2:]
    K = slope(Y, t + h)
    Znew += K * (dt / 3.0)
    Y = K * dt
    Y[:2] += Z[:2] * E
    Y[2:] += Z[2:]
    Y[:2] *= E
    K = slope(Y, t + dt)
    Znew[:2] *= E
    Znew += K * (dt / 6.0)
    if not np.all(np.isfinite(Znew)):
        raise BlowupError(t + dt, "non-finite field values after step")
    return Znew


def _ref_cfl_dt(grid, P, cfg):
    u_sup = float(np.max(np.hypot(P[0], P[1])))
    f_sup = float(np.max(np.sqrt(P[2] ** 2 + P[3] ** 2 + P[4] ** 2 + P[5] ** 2)))
    return float(min(cfg.dt_max, cfg.cfl * grid.spacing / (u_sup + f_sup + 1e-10)))


def _ref_run(cfg, initial, observing):
    """simulate's loop on the references: (records, observed (t, band) pairs,
    final t and band, blowup time).  Records are the public record of the band
    and its samples, each with a scratch of its own."""
    g = cfg.grid
    work, Z = solver._Workspace(g, cfg.nu), solver._pack(initial)
    t = float(initial.t)
    t_end, elapsed, steps = t + cfg.t_end, 0.0, 0
    engine, records, seen = vspc.diagnostics.DiagnosticsEngine(cfg.nu), [], []
    while True:
        P = g.half.to_samples(Z)
        at_end = t >= t_end - 1e-12 or elapsed >= cfg.t_end - 1e-12
        if steps % cfg.diagnostics_interval == 0 or at_end:
            scratch = vspc.diagnostics._Scratch(g, Z.shape[-1])
            records.append(engine.observe(vspc.diagnostics._Packed(g, t, Z, P, scratch)))
        if observing and (steps % cfg.snapshot_interval == 0 or at_end):
            seen.append((t, Z))
        if at_end:
            return records, seen, t, Z, None
        dt = min(_ref_cfl_dt(g, P, cfg), t_end - t)
        try:
            Z = _ref_step_packed(work, Z, t, dt, cfg.forcing)
        except BlowupError as exc:
            return records, seen, t, Z, exc.t
        t += dt
        elapsed += dt
        steps += 1


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _problem(g, nu, forced):
    if forced:
        prob = vspc.exact.manufactured(g, nu or 0.02, "broadband")
        return prob.initial, prob.forcing
    return perturbed_identity_state(g, 0.3), None


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("nu", [0.0, 0.05])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_step_and_rhs_match_the_references_bit_for_bit(n, nu, forced):
    g = GridSpec(n)
    initial, forcing = _problem(g, nu, forced)
    work, ref_work = solver._Workspace(g, nu), solver._Workspace(g, nu)
    Z = ref = solver._pack(initial)
    out = np.empty_like(Z)
    for k, dt in enumerate((1e-2, 1e-2, 7e-3, 3e-3)):     # a new dt reaches the factor
        Z = solver._step_packed(work, Z, 0.01 * k, dt, forcing, out=None if k % 2 else out)
        ref = _ref_step_packed(ref_work, ref, 0.01 * k, dt, forcing)
        assert _bits(Z) == _bits(ref)
    Z = solver._pack(initial)
    d = rhs(initial, SolverConfig(g, nu=nu, t_end=1.0, forcing=forcing))
    want = _ref_nonlinearity(ref_work, g.half.to_samples(Z), 0.0, forcing)
    want[:2] -= nu * g.half.k_sq[:, :g.half.band] * Z[:2]
    assert _bits(np.stack([f.row for v in (d.du, *d.dF.columns) for f in v.components])) == _bits(want)


def _assert_run_matches_the_reference(cfg, initial):
    seen = []
    def observer(state):
        seen.append((state.t, np.stack([f.row for f in state.channels])))

    res = simulate(cfg, initial, observer=observer)
    records, ref_seen, t, Z, blowup_time = _ref_run(cfg, initial, cfg.snapshot_interval > 0)
    assert res.blowup_time == blowup_time
    assert res.records == records       # float fields: == is bit for bit but for ±0 and NaN
    assert [dataclasses.astuple(r) for r in res.records] == [
        dataclasses.astuple(r) for r in records]
    assert all(math.copysign(1, a) == math.copysign(1, b) for x, y in zip(res.records, records)
               for a, b in zip(dataclasses.astuple(x), dataclasses.astuple(y)))
    assert [(s, _bits(z)) for s, z in seen] == [(s, _bits(z)) for s, z in ref_seen]
    assert res.final_state.t == t
    assert _bits(np.stack([f.row for f in res.final_state.channels])) == _bits(Z)
    return res


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("nu", [0.0, 0.05])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_runs_match_the_reference_loop_bit_for_bit(n, nu, forced):
    # records, observed bands and the final band, unobserved (steps into the
    # run's spare bands), observed on every pass and every third, with a
    # CFL-limited step that changes on every pass
    g = GridSpec(n)
    initial, forcing = _problem(g, nu, forced)
    for snap, interval in ((0, 1), (1, 10 ** 9), (3, 2)):
        cfg = SolverConfig(g, nu=nu, t_end=0.1, cfl=0.1, dt_max=1.0, forcing=forcing,
                           snapshot_interval=snap, diagnostics_interval=interval)
        res = _assert_run_matches_the_reference(cfg, initial)
        assert res.termination == "completed" and res.steps >= 3
    # from t₀ = 1e4 four steps of dt_max sum to the duration while t ends a
    # few ulps short of t_end: the run ends there, with no sliver step
    cfg = SolverConfig(g, nu=nu, t_end=0.02, dt_max=5e-3, forcing=forcing, snapshot_interval=1)
    res = _assert_run_matches_the_reference(cfg, State(1e4, initial.u, initial.F))
    assert res.termination == "completed" and res.steps == 4
    assert res.final_state.t < 1e4 + 0.02


@pytest.mark.parametrize("observed", [False, True])
@pytest.mark.parametrize("stage", ["second", "last"])
def test_a_run_ended_by_non_finite_forcing_matches_the_reference(stage, observed):
    g = GridSpec(16)
    dt, t1 = 2.0 ** -7, 2.0 ** -5
    onset = t1 + (0.5 * dt if stage == "second" else dt)
    values = np.zeros((2, 16, 16))
    zero = TensorField.from_columns(*(VectorField.from_samples(g, *values) for _ in range(2)))
    values[1, 2, 3] = np.nan
    nan = TensorField.from_columns(VectorField.from_samples(g, *values), zero.columns[1])
    forcing = ForcingSpec(g_u=None, g_F=lambda t: nan if t >= onset else zero)
    cfg = SolverConfig(g, nu=0.01, t_end=0.25, dt_max=dt, forcing=forcing,
                       snapshot_interval=int(observed))
    res = _assert_run_matches_the_reference(cfg, perturbed_identity_state(g, 0.1))
    assert res.termination == "blowup-detected" and res.blowup_time == onset


@pytest.mark.parametrize("interval", [1, 10 ** 9])
def test_a_state_whose_squares_overflow_ends_the_run_as_a_blowup(tmp_path, interval):
    # the forcing makes F about 1e157 at t₁ + dt: finite, but the squares the
    # CFL step (and a record) take of it overflow.  That is a blowup at that
    # t, with the state there; a record that overflows is not kept, so the
    # records read back from a CSV
    g = GridSpec(16)
    dt, t1 = 2.0 ** -7, 2.0 ** -5
    cfg = SolverConfig(g, nu=0.01, t_end=0.25, dt_max=dt, diagnostics_interval=interval,
                       forcing=overflowing_forcing(g, t1 + dt))
    with np.errstate(over="ignore"):
        res = simulate(cfg, perturbed_identity_state(g, 0.1))
    assert res.termination == "blowup-detected"
    assert res.blowup_time == res.final_state.t == t1 + dt
    assert float(np.max(np.abs(ensure_physical(res.final_state.F.entry(0, 0))))) > 1e150
    assert [r.t for r in res.records] == ([k * dt for k in range(5)] if interval == 1 else [0.0])
    write_records_csv(tmp_path / "d.csv", res.records)
    assert read_records_csv(tmp_path / "d.csv") == res.records


@pytest.mark.parametrize("case", ["unobserved", "sparse", "forced", "strict", "ceiling", "overflow"])
def test_every_step_a_run_takes_is_sized_by_adaptive_dt(monkeypatch, case):
    # the run's CFL step is the public adaptive_dt, looked up when it is called:
    # a wrapper set on the module, as a tracer sets one, sees one call a step.
    # A run that the CFL step itself ends (speeds that overflow) makes one more
    cases = _split_cases()
    g = GridSpec(16)
    cfg, initial, termination = {
        "unobserved": (dataclasses.replace(cases["sparse"][0], snapshot_interval=0),
                       *cases["sparse"][1:]),
        "overflow": (SolverConfig(g, nu=0.01, t_end=0.25, dt_max=2.0 ** -7,
                                  diagnostics_interval=10 ** 9,
                                  forcing=overflowing_forcing(g, 2.0 ** -5 + 2.0 ** -7)),
                     perturbed_identity_state(g, 0.1), "blowup-detected"),
    }.get(case) or cases[case]
    sized = []
    adaptive = solver.adaptive_dt
    monkeypatch.setattr(solver, "adaptive_dt",
                        lambda state, cfg: sized.append(state.t) or adaptive(state, cfg))
    with np.errstate(over="ignore"):
        res = simulate(cfg, initial, observer=lambda state: None)
    assert res.termination == termination and res.steps >= 4
    assert len(sized) == res.steps + (case == "overflow")
    assert sized == sorted(set(sized))      # once a step, at the t it starts from
    if case == "overflow":      # sized at the state that ends the run, and never taken
        assert sized[-1] == res.blowup_time == res.final_state.t


def _split_cases():
    """(config, initial state, termination) of each run the split test takes apart."""
    g = GridSpec(16)
    base, prob = perturbed_identity_state(g, 0.3), vspc.exact.manufactured(g, 0.02, "broadband")
    return {
        "sparse": (SolverConfig(g, nu=0.01, t_end=0.1, cfl=0.1, dt_max=1.0, diagnostics_interval=3,
                                snapshot_interval=4), base, "completed"),
        "forced": (SolverConfig(g, nu=0.02, t_end=0.03, dt_max=5e-3, forcing=prob.forcing,
                                snapshot_interval=2), prob.initial, "completed"),
        "strict": (SolverConfig(g, nu=0.1, t_end=0.05, dt_max=5e-3, strict=True,
                                energy_tolerance=1e-8), perturbed_identity_state(g, 0.1),
                   "certificate-violation-halt"),
        "ceiling": (SolverConfig(g, nu=0.0, t_end=0.1, cfl=0.1, dt_max=1.0, gradu_ceiling=1.3,
                                 diagnostics_interval=2), perturbed_identity_state(g, 0.5),
                    "blowup-detected"),
        "late": (SolverConfig(g, nu=0.01, t_end=0.02, dt_max=5e-3), State(1e4, base.u, base.F),
                 "completed"),
    }


class _Split(Exception):
    """Carries a _Run stopped at the start of a pass."""


def _run_split(monkeypatch, cfg, initial, observer, k):
    """simulate's run stopped before its pass k, then rebuilt from a copy of its state
    with a fresh workspace and no spare band, and finished: its RunResult."""
    Run = solver._Run

    class Stopping(Run):
        def advance(self, *args):
            if self.steps == k:
                raise _Split(self)
            return super().advance(*args)

    monkeypatch.setattr(solver, "_Run", Stopping)
    with pytest.raises(_Split) as split:
        simulate(cfg, initial, observer=observer)
    monkeypatch.setattr(solver, "_Run", Run)
    run = split.value.args[0]
    state = {f.name: copy.deepcopy(getattr(run, f.name)) for f in dataclasses.fields(Run)
             if f.name not in ("work", "spare")}
    rebuilt = Run(**state, work=solver._Workspace(cfg.grid, cfg.nu), spare=None)
    observer = observer if cfg.snapshot_interval > 0 else None
    while (res := rebuilt.advance(cfg, observer)) is None:
        pass
    return res


@pytest.mark.parametrize("case", ["sparse", "forced", "strict", "ceiling", "late"])
def test_a_run_rebuilt_from_its_state_after_any_pass_ends_bit_for_bit(monkeypatch, case):
    # a _Run's fields but its scratch are the whole state of a run: split it
    # before any pass, rebuild it from copies of them, and it ends as the
    # uninterrupted run does, bit for bit
    cfg, initial, termination = _split_cases()[case]
    seen = []
    observer = lambda state: seen.append((state.t, _bits(np.stack([f.row for f in state.channels]))))

    def outcome(res):
        return (res.steps, res.termination, res.blowup_time, res.violated_certificate,
                [dataclasses.astuple(r) for r in res.records],
                [math.copysign(1.0, v) for r in res.records for v in dataclasses.astuple(r)],
                res.final_state.t, _bits(np.stack([f.row for f in res.final_state.channels])),
                list(seen))

    whole = outcome(simulate(cfg, initial, observer=observer))
    assert whole[1] == termination and whole[0] >= 4
    for k in range(whole[0] + 1):       # a run of s steps takes s + 1 passes
        seen.clear()
        assert outcome(_run_split(monkeypatch, cfg, initial, observer, k)) == whole, k


def test_an_initial_state_whose_record_overflows_is_rejected():
    # F = 1e160·I: finite and divergence-free, but its Lᵖ norms overflow
    g = GridSpec(16)
    zero, big = np.zeros((16, 16)), np.full((16, 16), 1e160)
    state = state_from_arrays(g, 0.0, zero, zero, big, zero, zero, big)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflow"):
        simulate(SolverConfig(g, nu=0.01, t_end=0.1), state)
