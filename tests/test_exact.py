"""Closed-form blowup family, its ODE reduction, and manufactured problems."""

import math

import numpy as np
import pytest

import vspc
from vspc.exact import (
    LinearProfileState, PoleError, ZghParams,
    manufactured, ode_reduce_step, zgh_amplitude, zgh_bkm_integral,
    zgh_fields, zgh_residual, zgh_synthetic_history,
)
from vspc import exact, solver
from vspc.fields import GridSpec, HalfSpectrum, ensure_spectral
from vspc.solver import SolverConfig, simulate, state_sup_distance

LN10_OVER_3 = math.log(10.0) / 3.0   # ∫₀^0.3 dt/(1−3t)


def test_params_derived_quantities():
    p = ZghParams(2.0, 1.0, 1.0)
    assert p.c == 3.0
    assert p.blows_up
    assert math.isclose(p.t_star, 1.0 / 3.0, rel_tol=1e-15)
    q = ZghParams(2.0, 1.0, -1.0)   # c·f0 < 0: amplitude decays, no pole
    assert not q.blows_up
    assert q.t_star == math.inf


def test_params_rejects_degenerate_pairs():
    with pytest.raises(ValueError):
        ZghParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ZghParams(-2.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        ZghParams(float("nan"), 1.0, 1.0)


@pytest.mark.parametrize("f0", [5e-324, -5e-324, 1e-310, 1e308, -1e308])
def test_params_reject_an_amplitude_whose_pole_is_out_of_range(f0):
    # c·f0 = ±inf, or 1/(c·f0) = ±inf: t* = inf while blows_up was True
    with pytest.raises(ValueError, match="out of range"):
        ZghParams(2.0, 1.0, f0)


@pytest.mark.parametrize("f0", [1e-300, 1e-17, 1e-12, -1e-300, -1e-17, -1e-12])
def test_tiny_amplitudes_keep_their_pole_and_integral(f0):
    # ∫₀ᵀ|a| = −sign(f0)/c·log(1 − c f0 T), and log(1 − x) rounds to 0 at |x| < 1e-16
    p = ZghParams(2.0, 1.0, f0)
    assert math.isfinite(p.t_star) == p.blows_up == (f0 > 0)
    assert math.isclose(zgh_bkm_integral(p, 1.0), abs(f0), rel_tol=1e-11)
    if p.blows_up:      # at 0.9 t*, 1 − c f0 T = 0.1
        assert math.isclose(zgh_bkm_integral(p, 0.9 * p.t_star), math.log(10.0) / p.c,
                            rel_tol=1e-12)


def test_amplitude_and_pole():
    p = ZghParams(2.0, 1.0, 1.0)
    a = zgh_amplitude(p)
    assert a(0.0) == 1.0
    assert math.isclose(a(0.3), 10.0, rel_tol=1e-12)
    with pytest.raises(PoleError):
        a(p.t_star)
    with pytest.raises(PoleError):
        a(0.4)


def test_corrected_residual_vanishes():
    p = ZghParams(2.0, 1.0, 1.0)
    pts = [[1.0, -0.5], [0.3, 2.2], [-3.0, 0.01]]
    for t in (0.0, 0.1, 0.2, 0.3):
        res = zgh_residual(p, t, pts)
        assert np.max(np.abs(res.momentum)) < 1e-12
        assert np.max(np.abs(res.deformation)) < 1e-12
        assert abs(res.div_u) < 1e-12


def test_printed_variant_defects():
    # the as-printed display: div u = 2a(t) and the F22 transport breaks
    p = ZghParams(2.0, 1.0, 1.0)
    t = 0.2
    a = zgh_amplitude(p)(t)
    res = zgh_residual(p, t, [[1.0, -0.5]], fidelity="printed")
    assert math.isclose(res.div_u, 2.0 * a, rel_tol=1e-12)
    assert abs(res.deformation[1, 1]) > 1e-3
    # the F11 column happens to transport correctly in both variants
    assert abs(res.deformation[0, 0]) < 1e-12


def test_fields_variants_and_volume():
    p = ZghParams(2.0, 1.0, 1.0)
    good = zgh_fields(p, 0.25)
    assert math.isclose(float(np.linalg.det(good.F)), 1.0, rel_tol=1e-13)
    shown = zgh_fields(p, 0.25, fidelity="printed")
    assert abs(float(np.linalg.det(shown.F)) - 1.0) > 1e-3
    with pytest.raises(ValueError):
        zgh_fields(p, 0.25, fidelity="folklore")


def test_bkm_integral_closed_form():
    p = ZghParams(2.0, 1.0, 1.0)
    assert math.isclose(zgh_bkm_integral(p, 0.3), LN10_OVER_3, rel_tol=1e-14)
    assert zgh_bkm_integral(p, p.t_star) == math.inf
    assert zgh_bkm_integral(p, 1.0) == math.inf
    assert zgh_bkm_integral(p, 0.0) == 0.0
    with pytest.raises(ValueError):
        zgh_bkm_integral(p, -0.1)
    # decaying branch stays finite forever
    q = ZghParams(2.0, 1.0, -1.0)
    assert math.isclose(zgh_bkm_integral(q, 1.0), math.log(4.0) / 3.0, rel_tol=1e-14)


_QUADRATURE_CASES = [(2.0, 1.0, f0) for f0 in (1.0, -1.0, 1e-3, 4.0, 1e100, -1e30, -1e-12, 1e-307)]
_QUADRATURE_CASES.append((1.0, 1.0001, 1.0))


def _quadrature_horizon(p):
    """verify-exact's horizon: 0.9 of 0.85 t*, or of 1 without a pole."""
    return 0.9 * (0.85 * p.t_star if p.blows_up else 1.0)


@pytest.mark.parametrize("alpha, beta, f0", _QUADRATURE_CASES)
def test_bkm_quadrature_matches_the_closed_form_and_adaptive_quadrature(alpha, beta, f0):
    # the Gauss–Legendre rule on its log-graded mesh (1 to 141 pieces here)
    # against the closed form, and against scipy's adaptive quad wherever quad
    # itself meets 1e-14; at (1, 1.0001) quad is off by 4.1e-12, the rule is not
    from scipy.integrate import quad

    p = ZghParams(alpha, beta, f0)
    T = _quadrature_horizon(p)
    closed = zgh_bkm_integral(p, T)
    rule = exact._bkm_quadrature(p, T)
    assert abs(rule - closed) <= 1e-14 * abs(closed)
    amp = zgh_amplitude(p)
    reference = quad(lambda s: abs(amp(s)), 0.0, T, limit=200)[0]
    if abs(reference - closed) <= 1e-14 * abs(closed):
        assert abs(rule - reference) <= 1e-14 * abs(reference)
    else:
        assert abs(rule - closed) < abs(reference - closed)


def test_bkm_quadrature_does_not_read_the_closed_form(monkeypatch):
    p = ZghParams(2.0, 1.0, 1.0)
    expected = exact._bkm_quadrature(p, _quadrature_horizon(p))
    monkeypatch.setattr(exact, "zgh_bkm_integral", lambda *args: math.nan)
    monkeypatch.setattr(exact, "zgh_amplitude", lambda *args: math.nan)
    assert exact._bkm_quadrature(p, _quadrature_horizon(p)) == expected


def test_ode_reduction_matches_family():
    p = ZghParams(2.0, 1.0, 1.0)
    amp = zgh_amplitude(p)
    state = LinearProfileState(np.diag([1.0, -1.0]), np.eye(2), 0.0)
    dt = 1e-4
    for _ in range(2500):
        state = ode_reduce_step(state, amp, dt)
    F_exact = zgh_fields(p, 0.25).F
    assert np.max(np.abs(state.F - F_exact)) < 1e-9
    assert math.isclose(state.t, 0.25, abs_tol=1e-12)


def test_ode_reduce_step_is_fourth_order():
    target = np.diag([math.e, 1.0 / math.e])
    errs = []
    for dt in (1e-2, 5e-3):
        st = LinearProfileState(np.diag([1.0, -1.0]), np.eye(2), 0.0)
        for _ in range(round(1.0 / dt)):
            st = ode_reduce_step(st, lambda t: 1.0, dt)
        errs.append(np.max(np.abs(st.F - target)))
    order = math.log2(errs[0] / errs[1])
    assert 3.7 <= order <= 4.1


def test_linear_profile_validation():
    with pytest.raises(ValueError):
        LinearProfileState(np.eye(2), np.eye(2), 0.0)        # trace 2, not 0
    with pytest.raises(ValueError):
        LinearProfileState(np.zeros((3, 3)), np.eye(2), 0.0)


def test_synthetic_history_columns():
    p = ZghParams(2.0, 1.0, 1.0)
    recs = zgh_synthetic_history(p, [0.0, 0.15, 0.3])
    last = recs[-1]
    # g(0.3) = 0.1: columns are |g|^{∓1/3} times the measure factor (2π)^{2/p}
    assert math.isclose(last.lpinf_F_c1, 0.1 ** (-1.0 / 3.0), rel_tol=1e-12)
    assert math.isclose(last.lpinf_F_c2, 0.1 ** (1.0 / 3.0), rel_tol=1e-12)
    assert math.isclose(last.lpinf_F_c1, 2.154434690031884, rel_tol=1e-12)
    assert math.isclose(last.lpinf_F_c2, 0.4641588833612779, rel_tol=1e-12)
    assert math.isclose(last.lp4_F_c1, math.sqrt(2 * math.pi) * 0.1 ** (-1.0 / 3.0),
                        rel_tol=1e-12)
    assert math.isclose(last.linf_gradu, 10.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        zgh_synthetic_history(p, [0.0, 0.2, 0.1])
    with pytest.raises(PoleError):
        zgh_synthetic_history(p, [0.0, 0.35])   # beyond the pole


def test_manufactured_validation():
    g = GridSpec(32)
    with pytest.raises(ValueError):
        manufactured(g, 0.02, "no-such-case")


def test_manufactured_initial_is_band_limited():
    g = GridSpec(32)
    prob = manufactured(g, 0.02, "broadband")
    for comp in prob.initial.u.components:
        c = ensure_spectral(comp)
        assert float(np.max(np.abs(c * ~g.dealias_mask))) < 1e-15
    du, dF = vspc.divergence_drift(prob.initial)
    assert du < 1e-12
    assert dF < 1e-12


def test_manufactured_truncation_tail():
    # the analytic broadband state carries modes up to band 24: invisible at
    # n = 128 (band ≤ 42 kept) but a genuine tail at n = 32 (band 10 kept)
    coarse = manufactured(GridSpec(32), 0.02, "broadband")
    d32 = state_sup_distance(coarse.initial, coarse.analytic(0.0))
    assert 1e-8 < d32 < 1e-4
    fine = manufactured(GridSpec(128), 0.02, "broadband")
    d128 = state_sup_distance(fine.initial, fine.analytic(0.0))
    assert d128 < 1e-13


def test_manufactured_taylor_green_forcing_only_on_deformation():
    # momentum forcing is a pure gradient (projected to zero); all the work is
    # in g_F cancelling the identity-column stretching
    g = GridSpec(32)
    prob = manufactured(g, 0.05, "taylor-green")
    gu, gF = prob.forcing.g_u(0.0), prob.forcing.g_F(0.0)
    sup_gu = max(float(np.max(np.abs(vspc.ensure_physical(c)))) for c in gu.components)
    from vspc.operators import leray_project
    proj = leray_project(gu)
    sup_proj = max(float(np.max(np.abs(vspc.ensure_physical(c)))) for c in proj.components)
    assert sup_proj < 1e-12
    sup_gF = max(float(np.max(np.abs(vspc.ensure_physical(gF.entry(i, k)))))
                 for i in range(2) for k in range(2))
    assert sup_gF > 0.1


def test_manufactured_forcing_keeps_its_cached_values():
    # the forcing's fields adopt a block of spectra computed per call, uncopied:
    # evaluating another time must leave an earlier value as it was
    g = GridSpec(32)
    forcing = manufactured(g, 0.02, "broadband").forcing

    def spectra(t):
        return [ensure_spectral(c).copy() for c in
                (*forcing.g_u(t).components, *(forcing.g_F(t).entry(i, k)
                                               for k in range(2) for i in range(2)))]

    first = spectra(0.1)
    other = spectra(0.2)
    assert not np.array_equal(first[0], other[0])
    for a, b in zip(first, spectra(0.1)):
        assert np.array_equal(a, b)


# the modulations of manufactured(): (λ_u, λ_u', λ_F, λ_F') at t for viscosity nu
_MODULATION = {
    "taylor-green": lambda t, nu: (math.exp(-2.0 * nu * t), -2.0 * nu * math.exp(-2.0 * nu * t),
                                   0.0, 0.0),
    "broadband": lambda t, nu: (1.0 + 0.5 * math.sin(1.1 * t), 0.55 * math.cos(1.1 * t),
                                1.0 + 0.4 * math.sin(0.7 * t + 0.4),
                                0.28 * math.cos(0.7 * t + 0.4)),
}


@pytest.mark.parametrize("case", ["broadband", "taylor-green"])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_polarized_forcing_matches_the_nonlinearity_of_the_analytic_state(case, n):
    # reference: g = λ'·shape − N(Z(t)) + ν|k|²λ_u·U on the u rows, with the
    # solver's nonlinearity N run on the samples of Z(t) = λ_u·U + I + λ_F·G,
    # all on the (n, n//3+1) band the solver packs
    g, nu = GridSpec(n), 0.02
    half = g.half
    c = half.band
    forcing = manufactured(g, nu, case).forcing
    shapes = {"taylor-green": exact._taylor_green_shapes, "broadband": exact._broadband_shapes}
    U, G = (exact._project_block(g, shape * g.dealias_mask)[..., :c]
            for shape in shapes[case](g))
    ident = np.zeros_like(G)
    ident[0, 0, 0] = ident[3, 0, 0] = 1.0
    work = solver._Workspace(g)
    for t in (0.0, 0.05, 1.3, 4.7, 8.9):
        lam_u, dlam_u, lam_F, dlam_F = _MODULATION[case](t, nu)
        Z = np.concatenate([lam_u * U, ident + lam_F * G])
        N = solver._nonlinearity(work, half.to_samples(Z))
        ref = np.concatenate([dlam_u * U - N[:2] + nu * half.k_sq[:, :c] * lam_u * U,
                              dlam_F * G - N[2:]])
        gu, gF = forcing.g_u(t), forcing.g_F(t)
        got = np.stack([ensure_spectral(f)[:, :half.m] for f in
                        (*gu.components, *(gF.entry(i, k) for k in range(2) for i in range(2)))])
        assert not np.any(got[..., c:])
        assert np.max(np.abs(got[..., :c] - ref)) <= 1e-12 * np.max(np.abs(ref))


def _ref_manufactured_band(g, nu, case):
    """manufactured's band(t) as it was, one concatenation of temporaries: the
    reference for the band formed term by term in kept buffers, bit for bit."""
    half = g.half
    shapes = {"taylor-green": exact._taylor_green_shapes, "broadband": exact._broadband_shapes}
    ushape, Gshape = (x[..., :half.m] for x in shapes[case](g))
    u_d, G_d = (exact._project_block(g, x * half.mask) for x in (ushape, Gshape))
    ident = np.zeros((4, g.n, half.m), dtype=np.complex128)
    ident[0, 0, 0] = ident[3, 0, 0] = 1.0
    work = solver._Workspace(g)
    A, G, I = np.zeros((3,) + work.K.shape, dtype=np.complex128)
    A[:2], G[2:], I[2:] = (x[..., :half.band] for x in (u_d, G_d, ident))
    N_AI, N_GI, N_AG = (solver._nonlinearity(work, work.samples(Z)) for Z in (A + I, G + I, A + G))
    U, N_A, k_sq = A[:2].copy(), N_AI[:2].copy(), half.k_sq[:, :half.band]
    N_G = N_AG[:2] - N_A
    C_GI = N_GI[:2] - N_G
    G, C_AG, C_AI = (B[2:].copy() for B in (G, N_AG, N_AI))

    def band(t):
        lu, dlu, lF, dlF = _MODULATION[case](t, nu)
        return np.concatenate([(dlu + lu * nu * k_sq) * U - lu * lu * N_A - lF * lF * N_G - lF * C_GI,
                               dlF * G - lu * lF * C_AG - lu * C_AI])

    return band


@pytest.mark.parametrize("case", ["broadband", "taylor-green"])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_manufactured_band_matches_the_old_expression_bit_for_bit(case, n):
    # into a fresh array, into a buffer of the solver's (which held other
    # values), and as the public g_u/g_F, which get fresh arrays of their own
    g, nu = GridSpec(n), 0.02
    forcing = manufactured(g, nu, case).forcing
    ref = _ref_manufactured_band(g, nu, case)
    kept = np.full((6, n, g.half.band), np.nan, dtype=np.complex128)
    bits = lambda a: (a.shape, a.tobytes())
    for t in (0.0, 0.05, 1.3, 4.7, 8.9):
        want = bits(ref(t))
        assert bits(forcing._band(g, t)) == want
        assert forcing._band(g, t, kept) is kept and bits(kept) == want
        u, F = forcing.g_u(t), forcing.g_F(t)
        rows = np.stack([f.row for f in (*u.components, *F.columns[0].components,
                                         *F.columns[1].components)])
        assert bits(rows) == want
        later = forcing.g_u(t + 1.0).components[0].row
        assert not any(np.shares_memory(later, f.row) for f in u.components)
        assert bits(np.stack([f.row for f in u.components])) == bits(rows[:2])


def test_manufactured_forcing_needs_no_transform(monkeypatch):
    g = GridSpec(32)
    forcing = manufactured(g, 0.02, "broadband").forcing

    def refuse(self, data):
        raise AssertionError("the forcing ran a transform")

    monkeypatch.setattr(HalfSpectrum, "to_samples", refuse)
    monkeypatch.setattr(HalfSpectrum, "to_coeffs", refuse)
    for t in (0.0, 0.3, 7.25):
        assert np.all(np.isfinite(ensure_spectral(forcing.g_u(t).components[0])))
        assert np.all(np.isfinite(ensure_spectral(forcing.g_F(t).entry(1, 0))))


@pytest.mark.parametrize("case", ["broadband", "taylor-green"])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_manufactured_band_is_the_generic_band_of_its_fields(case, n):
    # the solver takes the manufactured band as it is; the same forcing's
    # public g_u/g_F, rewrapped, go the generic way: fields → band, mask, Leray
    g = GridSpec(n)
    forcing = manufactured(g, 0.02, case).forcing
    rewrapped = solver.ForcingSpec(forcing.g_u, forcing.g_F)
    for t in (0.0, 0.05, 1.3, 4.7, 8.9):
        got, want = forcing._band(g, t), rewrapped._band(g, t)
        assert got.shape == want.shape == (6, n, n // 3 + 1)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_manufactured_run_matches_the_run_with_rewrapped_callables():
    # a ForcingSpec rebuilt from the public callables takes the generic path
    g, nu = GridSpec(32), 0.02
    prob = manufactured(g, nu, "broadband")
    runs = [simulate(SolverConfig(g, nu=nu, t_end=0.04, dt_max=2e-3, forcing=forcing,
                                  diagnostics_interval=10 ** 9), prob.initial)
            for forcing in (prob.forcing, solver.ForcingSpec(prob.forcing.g_u, prob.forcing.g_F))]
    assert runs[0].steps == runs[1].steps == 20
    scale = max(float(np.max(np.abs(f.data))) for f in runs[1].final_state.channels)
    assert state_sup_distance(runs[0].final_state, runs[1].final_state) <= 1e-13 * scale


def test_manufactured_broadband_is_consistent_in_evolution():
    g = GridSpec(64)
    prob = manufactured(g, 0.02, "broadband")
    cfg = SolverConfig(g, nu=0.02, t_end=0.05, dt_max=1e-3, forcing=prob.forcing,
                       diagnostics_interval=10 ** 9)
    res = simulate(cfg, prob.initial)
    assert state_sup_distance(res.final_state, prob.analytic(0.05)) < 1e-10
