"""Differential operators, projection, Sobolev norms, and the commutator check."""

import math

import numpy as np
import pytest

import vspc
from vspc.fields import GridSpec, ScalarField, VectorField, TensorField, ensure_physical
from vspc.operators import (
    ConstraintWarning, SobolevOrder,
    gradient, divergence, curl, laplacian, leray_project, convective_term,
    pressure_gradient, lambda_s, sobolev_norm, commutator_check,
)

TAU = 2.0 * math.pi


def _scalar(g, samples):
    return ScalarField.from_samples(g, samples)


def _sup(component):
    return float(np.max(np.abs(ensure_physical(component))))


def test_gradient_axis_convention():
    g = GridSpec(32)
    x1, x2 = g.mesh()
    grad = gradient(_scalar(g, np.sin(x1)))
    np.testing.assert_allclose(ensure_physical(grad.components[0]), np.cos(x1), atol=1e-12)
    np.testing.assert_allclose(ensure_physical(grad.components[1]), 0.0, atol=1e-12)
    grad2 = gradient(_scalar(g, np.sin(2 * x2)))
    np.testing.assert_allclose(ensure_physical(grad2.components[1]), 2 * np.cos(2 * x2),
                               atol=1e-12)


def test_gradient_representation_follows_input():
    g = GridSpec(16)
    x1, _ = g.mesh()
    phys = gradient(_scalar(g, np.sin(x1)))
    assert phys.components[0].is_physical
    spec = gradient(vspc.to_spectral(_scalar(g, np.sin(x1))))
    assert spec.components[0].is_spectral


def test_divergence_and_curl():
    g = GridSpec(32)
    x1, x2 = g.mesh()
    v = VectorField.from_samples(g, np.sin(x1), np.sin(x2))
    np.testing.assert_allclose(ensure_physical(divergence(v)),
                               np.cos(x1) + np.cos(x2), atol=1e-12)
    w = VectorField.from_samples(g, np.zeros_like(x1), np.sin(x1))
    np.testing.assert_allclose(ensure_physical(curl(w)), np.cos(x1), atol=1e-12)


def test_laplacian():
    g = GridSpec(32)
    x1, x2 = g.mesh()
    f = _scalar(g, np.cos(x1) + np.sin(2 * x2))
    np.testing.assert_allclose(ensure_physical(laplacian(f)),
                               -np.cos(x1) - 4 * np.sin(2 * x2), atol=1e-11)


def test_leray_annihilates_gradients():
    g = GridSpec(32)
    x1, x2 = g.mesh()
    grad_phi = VectorField.from_samples(g, np.cos(x1 + 2 * x2), 2 * np.cos(x1 + 2 * x2))
    proj = leray_project(grad_phi)
    assert max(_sup(proj.components[0]), _sup(proj.components[1])) < 1e-12


def test_leray_preserves_divergence_free():
    g = GridSpec(32)
    u = vspc.taylor_green_state(g).u
    proj = leray_project(u)
    for i in range(2):
        np.testing.assert_allclose(ensure_physical(proj.components[i]),
                                   ensure_physical(u.components[i]), atol=1e-13)


def test_leray_idempotent_and_mean_preserving():
    g = GridSpec(32)
    rng = np.random.default_rng(55)
    v = VectorField.from_samples(g, rng.standard_normal((32, 32)) + 2.0,
                                 rng.standard_normal((32, 32)) - 1.0)
    once = leray_project(v)
    twice = leray_project(once)
    for i in range(2):
        np.testing.assert_allclose(ensure_physical(once.components[i]),
                                   ensure_physical(twice.components[i]), atol=1e-12)
    # the k = 0 mode passes through untouched
    for i in range(2):
        assert abs(np.mean(ensure_physical(once.components[i])) -
                   np.mean(ensure_physical(v.components[i]))) < 1e-12
    assert _sup(divergence(once)) < 1e-11


def test_convective_term_constant_advection():
    g = GridSpec(32)
    x1, _ = g.mesh()
    ones = np.ones_like(x1)
    v = VectorField.from_samples(g, ones, np.zeros_like(x1))
    w = VectorField.from_samples(g, np.sin(x1), np.cos(x1))
    res = convective_term(v, w)
    np.testing.assert_allclose(ensure_physical(res.components[0]), np.cos(x1), atol=1e-12)
    np.testing.assert_allclose(ensure_physical(res.components[1]), -np.sin(x1), atol=1e-12)


def test_pressure_gradient_taylor_green():
    # with F = I the elastic term vanishes and u·∇u is a pure gradient, so
    # ∇p = −u·∇u = −(sin 2x1, sin 2x2)/2
    g = GridSpec(64)
    st = vspc.taylor_green_state(g)
    gp = pressure_gradient(st.u, st.F)
    x1, x2 = g.mesh()
    np.testing.assert_allclose(ensure_physical(gp.components[0]),
                               -0.5 * np.sin(2 * x1), atol=1e-12)
    np.testing.assert_allclose(ensure_physical(gp.components[1]),
                               -0.5 * np.sin(2 * x2), atol=1e-12)


def test_pressure_gradient_warns_on_divergent_velocity():
    g = GridSpec(32)
    x1, _ = g.mesh()
    bad = VectorField.from_samples(g, np.sin(x1), np.zeros_like(x1))
    with pytest.warns(ConstraintWarning):
        pressure_gradient(bad, TensorField.identity(g))


def test_pressure_gradient_warns_on_a_divergent_deformation_column():
    g = GridSpec(32)
    x1, _ = g.mesh()
    zero = np.zeros_like(x1)
    F = TensorField.from_columns(VectorField.from_samples(g, 1.0 + zero, zero),
                                 VectorField.from_samples(g, np.sin(x1), 1.0 + zero))
    with pytest.warns(ConstraintWarning, match="F column 2 has divergence sup-norm 1.000e"):
        pressure_gradient(vspc.taylor_green_state(g).u, F)


def test_pressure_gradient_rejects_spectra_of_non_real_fields():
    g = GridSpec(32)
    c1, c2 = np.zeros((2, 32, 32), dtype=complex)
    c1[1, 2], c2[1, 2] = 2.0, -1.0      # k·ĉ = 0, and no mirror partner at (−1, −2)
    u = VectorField.from_spectra(g, c1, c2)
    with pytest.raises(vspc.ConjugateSymmetryError):
        pressure_gradient(u, TensorField.identity(g))


def test_sobolev_order_validation():
    SobolevOrder(0.0)
    SobolevOrder(2.5)
    with pytest.raises(ValueError):
        SobolevOrder(-1.0)
    with pytest.raises(ValueError):
        SobolevOrder(float("nan"))


def test_sobolev_norm_oracles():
    g = GridSpec(32)
    x1, _ = g.mesh()
    f = _scalar(g, np.cos(x1))
    # Σ (1+|k|²)^s |c_k|² with coefficients 1/2 at k = ±e1
    assert math.isclose(sobolev_norm(f, 1.0), TAU, rel_tol=1e-13)
    assert math.isclose(sobolev_norm(f, 0.0), math.pi * math.sqrt(2), rel_tol=1e-13)
    expected_s2 = TAU * math.sqrt(2 * (2.0 ** 2) * 0.25)
    assert math.isclose(sobolev_norm(f, SobolevOrder(2.0)), expected_s2, rel_tol=1e-13)


def test_lambda_s_homogeneous_seminorm():
    g = GridSpec(32)
    x1, _ = g.mesh()
    f = vspc.to_spectral(_scalar(g, np.cos(x1)))
    out = lambda_s(f, 1.0)
    # Λ¹ kills the mean and multiplies the |k| = 1 modes by 1
    assert out.data[0, 0] == 0.0
    assert math.isclose(vspc.l2_norm(out), math.pi * math.sqrt(2), rel_tol=1e-13)
    # constant fields are annihilated entirely
    const = lambda_s(_scalar(g, np.full((32, 32), 5.0)), 2.0)
    assert vspc.l2_norm(const) < 1e-13


def test_commutator_hand_oracle():
    # f = g = cos x1, s = 2: the commutator field is (3/2)cos 2x1 − 1/2
    g = GridSpec(64)
    x1, _ = g.mesh()
    f = _scalar(g, np.cos(x1))
    rep = commutator_check(2.0, f, f)
    assert math.isclose(rep.lhs, TAU * math.sqrt(11.0 / 8.0), rel_tol=1e-12)
    assert math.isclose(rep.rhs, TAU * math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(rep.ratio, rep.lhs / rep.rhs, rel_tol=1e-15)


def _reference_commutator(s, f, g):
    """(lhs, rhs) of the commutator check on full complex transforms of the
    fftshift-padded 2n grid, the formulation the half-spectrum one replaced."""
    n = f.grid.n
    m = 2 * n
    big = GridSpec(m)

    def pad(c):
        out = np.zeros((m, m), dtype=complex)
        out[n // 2:n // 2 + n, n // 2:n // 2 + n] = np.fft.fftshift(c)
        return np.fft.ifftshift(out)

    def lam(c, order):
        mult = np.zeros_like(big.k_sq)
        nz = big.k_sq > 0
        mult[nz] = big.k_sq[nz] ** (order / 2.0)
        return mult * c

    samples = lambda c: np.fft.ifft2(c).real * m * m
    coeffs = lambda x: np.fft.fft2(x) / (m * m)
    norm = lambda c: TAU * np.sqrt(np.sum(np.abs(c) ** 2))
    pf, pg = pad(f.data), pad(g.data)
    fs, gs = samples(pf), samples(pg)
    lhs = norm(lam(coeffs(fs * gs), s) - coeffs(fs * samples(lam(pg, s))))
    grad_f = np.hypot(samples(big.ik1 * pf), samples(big.ik2 * pf))
    rhs = np.max(grad_f) * norm(lam(pg, s - 1.0)) + norm(lam(pf, s)) * np.max(np.abs(gs))
    return lhs, rhs


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
def test_commutator_matches_full_transform_reference(n, s):
    g = GridSpec(n)
    rng = np.random.default_rng(n)
    fields = []
    for _ in range(2):
        c = g.to_coeffs(rng.standard_normal((n, n))) * g.dealias_mask
        fields.append(ScalarField.from_spectrum(g, c / (1.0 + g.k_sq)))
    rep = commutator_check(s, *fields)
    lhs, rhs = _reference_commutator(s, *fields)
    assert math.isclose(rep.lhs, lhs, rel_tol=1e-12)
    assert math.isclose(rep.rhs, rhs, rel_tol=1e-12)
    assert math.isclose(rep.ratio, lhs / rhs, rel_tol=1e-12)


def test_commutator_requires_band_limited_inputs():
    g = GridSpec(32)
    rng = np.random.default_rng(3)
    noisy = _scalar(g, rng.standard_normal((32, 32)))  # full-spectrum content
    with pytest.raises(ValueError, match="band"):
        commutator_check(2.0, noisy, noisy)


def test_commutator_rejects_spectra_of_non_real_fields():
    g = GridSpec(32)
    c = np.zeros((32, 32), dtype=complex)
    c[1, 2] = 1.0            # in band, with no mirror partner at (−1, −2)
    f = ScalarField.from_spectrum(g, c)
    with pytest.raises(vspc.ConjugateSymmetryError):
        commutator_check(2.0, f, f)


def test_commutator_zero_rhs_is_not_a_violation():
    # constant f commutes exactly: lhs and rhs both vanish
    g = GridSpec(32)
    x1, _ = g.mesh()
    one = _scalar(g, np.ones((32, 32)))
    h = _scalar(g, np.cos(x1))
    rep = commutator_check(2.0, one, h)
    assert rep.rhs == 0.0
    assert rep.lhs < 1e-10
    assert rep.ratio == 0.0


def test_commutator_rejects_bad_order():
    g = GridSpec(32)
    x1, _ = g.mesh()
    f = _scalar(g, np.cos(x1))
    with pytest.raises(ValueError):
        commutator_check(0.0, f, f)
    with pytest.raises(ValueError):
        commutator_check(-1.5, f, f)


def test_velocity_jacobian_entries():
    g = GridSpec(16)
    u = vspc.taylor_green_state(g).u
    J = gradient(u)
    assert isinstance(J, TensorField)
    x1, x2 = g.mesh()
    np.testing.assert_allclose(ensure_physical(J.entry(0, 0)),
                               np.cos(x1) * np.cos(x2), atol=1e-12)
    np.testing.assert_allclose(ensure_physical(J.entry(1, 0)),
                               np.sin(x1) * np.sin(x2), atol=1e-12)
