"""Differential operators, projection, Sobolev norms, and the commutator check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


# ---------------------------------------------------------------------------
# the operators read half spectra: against the full-lattice formulas they
# replaced, bit for bit, for every kind of input field

def _full_lattice_reference(name, grid, c):
    """Full spectra of each scalar component of an operator's result, from the
    full spectra c of (u₁, u₂, w₁, w₂, F₁₁, F₂₁, F₁₂, F₂₂), by the formulas on
    the (n, n) lattice that the operators used before they read half spectra."""
    ik1, ik2, k_sq, mask = grid.ik1, grid.ik2, grid.k_sq, grid.dealias_mask

    def convection(v, w):
        vs, ws = v * mask, w * mask
        P = grid.to_samples(np.concatenate([vs, ik1 * ws, ik2 * ws]))
        return grid.to_coeffs(P[0] * P[2:4] + P[1] * P[4:6]) * mask

    u, w, col1, col2 = c[0:2], c[2:4], c[4:6], c[6:8]
    if name == "gradient":
        return [ik1 * u[0], ik2 * u[0]]
    if name == "jacobian":
        return [ik1 * u[0], ik1 * u[1], ik2 * u[0], ik2 * u[1]]
    if name == "divergence":
        return [ik1 * u[0] + ik2 * u[1]]
    if name == "curl":
        return [ik1 * u[1] - ik2 * u[0]]
    if name == "laplacian":
        return [-k_sq * u[0]]
    if name == "leray_project":
        return list(grid.project(u[0], u[1]))
    if name == "lambda_s":
        return [np.power(k_sq, 0.75, out=np.zeros_like(k_sq), where=k_sq > 0) * u[0]]
    if name == "lambda_s_inhomogeneous":
        return [(1.0 + k_sq) ** 1.25 * u[0]]
    if name == "convective_term":
        return list(convection(u, w))
    assert name == "pressure_gradient"
    n1 = np.zeros((grid.n, grid.n), dtype=np.complex128)
    n2 = np.zeros_like(n1)
    for col in (col1, col2):
        el = convection(col, col)
        n1 += el[0]
        n2 += el[1]
    adv = convection(u, u)
    n1 -= adv[0]
    n2 -= adv[1]
    p1, p2 = grid.project(n1, n2)
    return [n1 - p1, n2 - p2]


_OPERATORS = {
    "gradient": lambda u, w, F: gradient(u.components[0]),
    "jacobian": lambda u, w, F: gradient(u),
    "divergence": lambda u, w, F: divergence(u),
    "curl": lambda u, w, F: curl(u),
    "laplacian": lambda u, w, F: laplacian(u.components[0]),
    "leray_project": lambda u, w, F: leray_project(u),
    "lambda_s": lambda u, w, F: lambda_s(u.components[0], 1.5),
    "lambda_s_inhomogeneous": lambda u, w, F: lambda_s(u.components[0], SobolevOrder(2.5, True)),
    "convective_term": lambda u, w, F: convective_term(u, w),
    "pressure_gradient": lambda u, w, F: pressure_gradient(u, F),
}


def _inputs(g, samples, kind):
    """Scalar fields of real samples (k, n, n): as samples, as the band-backed
    rows (band or half wide) the solver hands out, or as a user's exactly
    conjugate-symmetric full spectra."""
    half = g.half
    if kind == "physical":
        return [ScalarField.from_samples(g, x) for x in samples]
    if kind == "user":
        return [ScalarField.from_spectrum(g, c) for c in g.to_coeffs(samples)]
    rows = half.to_coeffs(samples)
    rows = rows[..., :half.band] * half.mask[:, :half.band] if kind == "band" else rows
    return [f for v in vspc.solver._vectors(g, rows) for f in v.components]


def _parent_commutator(s, f, g):
    """(lhs, rhs) of commutator_check as it read full spectra."""
    grid = f.grid
    both = np.stack([f.data if f.is_spectral else grid.to_coeffs(f.data) for f in (f, g)])
    grid.to_samples(both)
    big, lam, lam_b, lam_low = vspc.operators._padded_layer(grid.n, s)
    b = grid.dealias_limit
    rows = np.r_[0:b + 1, -b:0]
    pad = np.zeros((2, big.n, b + 1), dtype=np.complex128)
    pad[:, rows] = both[:, rows, :b + 1]
    pf, pg = pad
    fs, gs, lam_gs, d1f, d2f = big.to_samples(
        np.stack([pf, pg, lam_b * pg, big.ik1 * pf, big.ik2[:, :b + 1] * pf]))
    prod = big.to_coeffs(np.stack([fs * gs, fs * lam_gs]))
    l2 = vspc.fields._l2
    lhs = l2(big, lam * prod[0] - prod[1])
    rhs = (float(np.max(np.hypot(d1f, d2f))) * l2(big, lam_low * pg)
           + l2(big, lam_b * pf) * float(np.max(np.abs(gs))))
    return lhs, rhs


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 16, 32, 64, 128]),
       kind=st.sampled_from(["physical", "band", "half", "user"]))
def test_operators_match_the_full_lattice_formulas(seed, n, kind):
    g = GridSpec(n)
    samples = np.random.default_rng(seed).standard_normal((8, n, n))
    fields = _inputs(g, samples, kind)
    u, w = VectorField(tuple(fields[0:2])), VectorField(tuple(fields[2:4]))
    F = TensorField.from_columns(VectorField(tuple(fields[4:6])), VectorField(tuple(fields[6:8])))
    full = [f.data if f.is_spectral else g.to_coeffs(f.data) for f in fields]
    for name, op in _OPERATORS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstraintWarning)
            got = vspc.fields._scalar_parts(op(u, w, F))
        want = _full_lattice_reference(name, g, np.stack(full))
        assert len(got) == len(want), name
        for part, coeffs in zip(got, want):
            samples_of = g.to_samples(coeffs)
            if part.is_spectral:
                assert np.array_equal(part.data, coeffs), name
            assert part.is_physical == (kind == "physical" and name != "convective_term"), name
            assert np.array_equal(ensure_physical(part), samples_of), name
    f = fields[0]
    for s in (0.0, 1.0, 2.5):
        want = TAU * np.sqrt(np.sum((1.0 + g.k_sq) ** s * np.abs(full[0]) ** 2))
        assert math.isclose(sobolev_norm(f, s), want, rel_tol=1e-14)
    # the commutator check takes band-limited fields
    banded = _inputs(g, g.to_samples(g.to_coeffs(samples[:2]) * g.dealias_mask), kind)
    rep = commutator_check(2.0, *banded)
    assert (rep.lhs, rep.rhs) == _parent_commutator(2.0, *banded)


def test_band_backed_fields_build_no_full_spectrum(tmp_path, monkeypatch):
    # operators, transforms and snapshots read the rows a band-backed field keeps
    g = GridSpec(32)
    x = np.random.default_rng(9).standard_normal((8, 32, 32))
    fields = _inputs(g, g.to_samples(g.to_coeffs(x) * g.dealias_mask), "band")
    u, w = VectorField(tuple(fields[0:2])), VectorField(tuple(fields[2:4]))
    F = TensorField.from_columns(VectorField(tuple(fields[4:6])), VectorField(tuple(fields[6:8])))
    built = []
    full = vspc.fields.HalfSpectrum.full
    monkeypatch.setattr(vspc.fields.HalfSpectrum, "full",
                        lambda self, c: built.append(1) or full(self, c))
    readers = [*(lambda op=op: op(u, w, F) for op in _OPERATORS.values()),
               lambda: sobolev_norm(u.components[0], 1.0),
               lambda: commutator_check(2.0, fields[0], fields[1]),
               lambda: vspc.to_physical(fields[0]),
               lambda: ensure_physical(fields[0]),
               lambda: vspc.dealias(fields[0]),
               lambda: vspc.write_snapshot(tmp_path / "s.vspc", 0.0, fields)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstraintWarning)
        for read in readers:
            read()
    assert not built


def _real_pair(g):
    """Spectra of two real fields, the first in band, both exactly conjugate symmetric."""
    x1, x2 = g.mesh()
    return g.to_coeffs(np.stack([np.sin(x1) * np.cos(2.0 * x2), np.cos(x1 - x2)]))


_READERS = {
    "gradient": lambda f, ok, path: gradient(f),
    "divergence": lambda f, ok, path: divergence(VectorField((ok, f))),
    "curl": lambda f, ok, path: curl(VectorField((ok, f))),
    "laplacian": lambda f, ok, path: laplacian(f),
    "leray_project": lambda f, ok, path: leray_project(VectorField((f, ok))),
    "lambda_s": lambda f, ok, path: lambda_s(f, 1.5),
    "convective_term": lambda f, ok, path: convective_term(VectorField((ok, ok)),
                                                           VectorField((ok, f))),
    "pressure_gradient": lambda f, ok, path: pressure_gradient(
        VectorField((f, ok)), TensorField.identity(f.grid)),
    "sobolev_norm": lambda f, ok, path: sobolev_norm(f, 1.0),
    "commutator_check": lambda f, ok, path: commutator_check(2.0, ok, f),
    "to_physical": lambda f, ok, path: vspc.to_physical(f),
    "ensure_physical": lambda f, ok, path: ensure_physical(f),
    "dealias": lambda f, ok, path: vspc.dealias(f),
    "l2_norm": lambda f, ok, path: vspc.l2_norm(f),
    "write_snapshot": lambda f, ok, path: vspc.write_snapshot(path / "s.vspc", 0.0, [ok, f]),
    "simulate_initial": lambda f, ok, path: vspc.simulate(
        vspc.SolverConfig(f.grid, nu=0.01, t_end=0.01),
        vspc.State(0.0, VectorField((f, ok)), TensorField.identity(f.grid))),
    "simulate_forcing": lambda f, ok, path: vspc.simulate(
        vspc.SolverConfig(f.grid, nu=0.01, t_end=0.01, forcing=vspc.ForcingSpec(
            g_u=lambda t: VectorField((f, ok)), g_F=None)),
        vspc.perturbed_identity_state(f.grid, 0.1)),
}


@pytest.mark.parametrize("mode", [(1, 2), (1, -4)])
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_every_reader_rejects_a_non_real_user_spectrum(tmp_path, reader, mode):
    # one mode moved off its mirror by 5, in a column of the half spectrum or
    # in one only the full spectrum has; the field is built unchecked, and its
    # first read by vspc raises
    g = GridSpec(16)
    c, ok = _real_pair(g)
    c[mode] += 5.0
    f = ScalarField.from_spectrum(g, c)
    ok = ScalarField.from_spectrum(g, ok)
    if reader == "simulate_initial":
        with pytest.raises(ValueError, match="not a real field: conjugate symmetry"):
            _READERS[reader](f, ok, tmp_path)
    else:
        with pytest.raises(vspc.ConjugateSymmetryError, match="conjugate symmetry"):
            _READERS[reader](f, ok, tmp_path)
    assert not list(tmp_path.iterdir())
