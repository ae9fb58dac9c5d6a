"""Particle advection, Jacobian evolution, and velocity samplers."""

import ast
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import vspc
from vspc.fields import GridSpec, ScalarField, VectorField, TensorField, _half_columns
from vspc.flowmap import (
    AnalyticFlow, MissingDataError, ParticleSet, SnapshotSampler,
    advect, compare_with_eulerian, evolve_jacobian, identity_tensor_at,
    tensor_sampler, write_trajectories_csv,
)

TAU = 2.0 * math.pi


def _rotation_flow():
    """Rigid rotation about (π, π): u = (−(x2−π), x1−π), ∇u constant."""
    def vel(t, pts):
        pts = np.atleast_2d(pts)
        return np.column_stack([-(pts[:, 1] - math.pi), pts[:, 0] - math.pi])

    def grad(t, pts):
        pts = np.atleast_2d(pts)
        J = np.zeros((len(pts), 2, 2))
        J[:, 0, 1] = -1.0
        J[:, 1, 0] = 1.0
        return J

    return AnalyticFlow(vel, grad)


def test_particle_lattice():
    ps = ParticleSet.on_lattice(4)
    assert len(ps.labels) == 16
    assert np.all(ps.positions >= 0.0) and np.all(ps.positions < TAU)
    np.testing.assert_array_equal(ps.labels, ps.positions)
    np.testing.assert_allclose(ps.determinants(), 1.0)
    assert ps.t == 0.0


def test_particles_validate_shapes():
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((4, 2)), np.zeros((3, 2)), np.zeros((4, 2, 2)), 0.0)


def test_advection_in_rotation_flow():
    flow = _rotation_flow()
    start = np.array([[math.pi + 1.0, math.pi]])
    ps = ParticleSet.at(start, 0.0)
    steps, T = 400, math.pi / 2.0   # quarter turn
    for _ in range(steps):
        ps = advect(ps, flow, T / steps)
    np.testing.assert_allclose(ps.positions, [[math.pi, math.pi + 1.0]], atol=1e-9)
    # labels never move
    np.testing.assert_array_equal(ps.labels, start)


def test_jacobian_in_rotation_flow_is_rotation_matrix():
    flow = _rotation_flow()
    ps = ParticleSet.on_lattice(3)
    T = 0.7
    steps = 200
    for _ in range(steps):
        ps = evolve_jacobian(ps, flow, T / steps)
    R = np.array([[math.cos(T), -math.sin(T)], [math.sin(T), math.cos(T)]])
    for J in ps.jacobians:
        np.testing.assert_allclose(J, R, atol=1e-10)
    np.testing.assert_allclose(ps.determinants(), 1.0, atol=1e-12)


def test_advect_and_evolve_agree_on_positions():
    flow = _rotation_flow()
    a = ParticleSet.on_lattice(3)
    b = ParticleSet.on_lattice(3)
    for _ in range(50):
        a = advect(a, flow, 0.01)
        b = evolve_jacobian(b, flow, 0.01)
    np.testing.assert_allclose(a.positions, b.positions, atol=1e-14)


def test_step_validation():
    flow = _rotation_flow()
    ps = ParticleSet.on_lattice(2)
    with pytest.raises(ValueError):
        advect(ps, flow, 0.0)
    with pytest.raises(ValueError):
        evolve_jacobian(ps, flow, -0.1)


def test_spectral_sampler_matches_closed_form():
    g = GridSpec(64)
    u = vspc.taylor_green_state(g).u
    sam = SnapshotSampler(g, method="spectral")
    sam.add(0.0, u)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, TAU, size=(100, 2))
    vel, grad = sam.sample(0.0, pts, with_gradient=True)
    np.testing.assert_allclose(vel[:, 0], np.sin(pts[:, 0]) * np.cos(pts[:, 1]),
                               atol=1e-12)
    np.testing.assert_allclose(vel[:, 1], -np.cos(pts[:, 0]) * np.sin(pts[:, 1]),
                               atol=1e-12)
    np.testing.assert_allclose(grad[:, 0, 0], np.cos(pts[:, 0]) * np.cos(pts[:, 1]),
                               atol=1e-12)
    np.testing.assert_allclose(grad[:, 1, 0], np.sin(pts[:, 0]) * np.sin(pts[:, 1]),
                               atol=1e-12)


def test_bicubic_sampler_accuracy():
    g = GridSpec(64)
    u = vspc.taylor_green_state(g).u
    sam = SnapshotSampler(g, method="bicubic")
    sam.add(0.0, u)
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.0, TAU, size=(100, 2))
    vel, grad = sam.sample(0.0, pts, with_gradient=True)
    assert np.max(np.abs(vel[:, 0] - np.sin(pts[:, 0]) * np.cos(pts[:, 1]))) < 1e-5
    assert np.max(np.abs(grad[:, 0, 0] - np.cos(pts[:, 0]) * np.cos(pts[:, 1]))) < 1e-5


@pytest.mark.parametrize("n", [16, 32, 64])
def test_spline_prefilter_matches_ndimage(n):
    # the Fourier-space prefilter against scipy's periodic spline filter, on
    # random samples with content in every mode, the Nyquist ones included
    g = GridSpec(n)
    samples = np.random.default_rng(n).standard_normal((3, n, n))
    got = vspc.flowmap._spline_planes(g, g.half.to_coeffs(samples))
    want = np.stack([ndimage.spline_filter(s, order=3, mode="grid-wrap") for s in samples])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_sampler_time_blending_is_linear():
    g = GridSpec(32)
    x1, x2 = g.mesh()
    zero = np.zeros_like(x1)
    uA = VectorField.from_samples(g, np.sin(x1), zero)
    uB = VectorField.from_samples(g, 3.0 * np.sin(x1), zero)
    sam = SnapshotSampler(g)
    sam.add(0.0, uA)
    sam.add(1.0, uB)
    pts = np.array([[0.3, 4.0], [2.0, 0.1]])
    mid, _ = sam.sample(0.5, pts)
    np.testing.assert_allclose(mid[:, 0], 2.0 * np.sin(pts[:, 0]), atol=1e-13)
    at_node, _ = sam.sample(1.0, pts)
    np.testing.assert_allclose(at_node[:, 0], 3.0 * np.sin(pts[:, 0]), atol=1e-13)


def test_sampler_guards():
    g = GridSpec(32)
    u = vspc.taylor_green_state(g).u
    sam = SnapshotSampler(g)
    with pytest.raises(MissingDataError):
        sam.sample(0.0, [[0.0, 0.0]])
    sam.add(0.0, u)
    sam.add(0.5, u)
    with pytest.raises(ValueError):
        sam.add(0.5, u)         # not strictly increasing
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            sam.add(bad, u)
        with pytest.raises(MissingDataError):
            sam.sample(bad, [[0.0, 0.0]])
    assert sam.times == [0.0, 0.5]
    with pytest.raises(MissingDataError):
        sam.sample(0.6, [[0.0, 0.0]])
    with pytest.raises(MissingDataError):
        sam.sample(-0.1, [[0.0, 0.0]])
    other = vspc.taylor_green_state(GridSpec(16)).u
    with pytest.raises(ValueError):
        sam.add(1.0, other)
    with pytest.raises(ValueError):
        SnapshotSampler(g, method="nearest")


def test_tensor_sampler_identity():
    g = GridSpec(32)
    F = TensorField.identity(g)
    at = tensor_sampler(F)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, TAU, size=(7, 2))
    vals = at(pts)
    assert vals.shape == (7, 2, 2)
    np.testing.assert_allclose(vals, np.broadcast_to(np.eye(2), (7, 2, 2)), atol=1e-12)
    np.testing.assert_allclose(identity_tensor_at(pts), vals, atol=1e-12)


def test_compare_with_eulerian_requires_matching_time():
    g = GridSpec(32)
    ps = ParticleSet.on_lattice(2, t=0.4)
    F = TensorField.identity(g)
    with pytest.raises(ValueError):
        compare_with_eulerian(ps, F, identity_tensor_at, t=0.3)
    # at the right time, identity data gives zero discrepancy
    assert compare_with_eulerian(ps, F, identity_tensor_at, t=0.4) < 1e-12


def test_trajectory_csv(tmp_path):
    flow = _rotation_flow()
    ps = ParticleSet.on_lattice(2)
    history = [ps]
    for _ in range(5):
        ps = evolve_jacobian(ps, flow, 0.05)
        history.append(ps)
    path = tmp_path / "traj.csv"
    write_trajectories_csv(path, history)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "label_x1", "label_x2", "x1", "x2",
                       "J11", "J12", "J21", "J22", "detJ"]
    assert len(rows) == 1 + 6 * 4
    assert math.isclose(float(rows[-1][-1]), 1.0, abs_tol=1e-8)


# ---------------------------------------------------------------------------
# spectral point evaluation against a direct sum over every dealiased mode

def _band_limited(g, rng, count):
    """count random real fields' full spectra (count, n, n), dealiased."""
    return g.to_coeffs(rng.standard_normal((count, g.n, g.n))) * g.dealias_mask


def _direct_sum(g, coeffs, pts):
    """Values (N, R) and gradients (N, R, 2): np.exp over every dealiased mode."""
    i1, i2 = np.nonzero(g.dealias_mask)
    k1, k2 = g.k[i1].astype(float), g.k[i2].astype(float)
    phase = np.exp(1j * (pts[:, :1] * k1 + pts[:, 1:] * k2))       # (N, modes)
    c = coeffs[:, i1, i2]                                          # (R, modes)
    vals = (phase @ c.T).real
    grad = np.stack([(phase @ (1j * k * c).T).real for k in (k1, k2)], axis=-1)
    scale = np.sum(np.abs(c), axis=1)
    return vals, grad, scale, np.sum(np.hypot(k1, k2) * np.abs(c), axis=1)


def _points(draw_xs):
    edge = [[0.0, 0.0], [TAU - 1e-12, 0.0], [0.0, TAU - 1e-12], [TAU - 1e-12, TAU - 1e-12]]
    return np.array(edge + [list(p) for p in draw_xs])


_coord = st.floats(-TAU, 2 * TAU, allow_nan=False)


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([16, 32, 64]),
       theta=st.floats(0.0, 1.0), xs=st.lists(st.tuples(_coord, _coord), max_size=40))
def test_spectral_sampler_matches_direct_sum(seed, n, theta, xs):
    g = GridSpec(n)
    rng = np.random.default_rng(seed)
    pts = _points(xs)
    snaps = [_band_limited(g, rng, 2) for _ in range(2)]
    sam = SnapshotSampler(g, method="spectral")
    sam.add(0.2, VectorField.from_spectra(g, *snaps[0]))
    sam.add(0.7, VectorField.from_spectra(g, *snaps[1]))
    vel, grad = sam.sample(0.2 + 0.5 * theta, pts, with_gradient=True)
    ref = [_direct_sum(g, c, pts) for c in snaps]
    want_vel = (1 - theta) * ref[0][0] + theta * ref[1][0]
    want_grad = (1 - theta) * ref[0][1] + theta * ref[1][1]
    scale = max(np.max(r[2]) for r in ref)
    grad_scale = max(np.max(r[3]) for r in ref)
    assert np.max(np.abs(vel - want_vel)) <= 1e-13 * scale
    assert np.max(np.abs(grad - want_grad)) <= 1e-13 * grad_scale
    alone, none = sam.sample(0.2 + 0.5 * theta, pts)
    assert none is None
    assert np.max(np.abs(alone - want_vel)) <= 1e-13 * scale


@settings(max_examples=15)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([16, 32, 64]),
       xs=st.lists(st.tuples(_coord, _coord), max_size=40))
def test_tensor_sampler_matches_direct_sum(seed, n, xs):
    g = GridSpec(n)
    pts = _points(xs)
    c = _band_limited(g, np.random.default_rng(seed), 4)        # F11, F12, F21, F22
    F = TensorField.from_columns(VectorField.from_spectra(g, c[0], c[2]),
                                 VectorField.from_spectra(g, c[1], c[3]))
    want, _, scale, _ = _direct_sum(g, c, pts)
    got = tensor_sampler(F)(pts)
    assert got.shape == (len(pts), 2, 2)
    assert np.max(np.abs(got.reshape(-1, 4) - want)) <= 1e-13 * np.max(scale)


@pytest.mark.parametrize("method", ["spectral", "bicubic"])
def test_compare_with_eulerian_non_identity(method):
    # F is band-limited and not the identity; J is built so J·F0 = F(x) at
    # every particle but one, which is off by a known matrix D
    g = GridSpec(32)
    rng = np.random.default_rng(21)
    low = (np.abs(g.k1) <= 2) & (np.abs(g.k2) <= 2)
    c = g.to_coeffs(rng.standard_normal((4, 32, 32))) * low
    c[[0, 3], 0, 0] += 2.0
    F = TensorField.from_columns(VectorField.from_spectra(g, c[0], c[2]),
                                 VectorField.from_spectra(g, c[1], c[3]))
    labels = rng.uniform(0.0, TAU, size=(12, 2))
    pts = rng.uniform(0.0, TAU, size=(12, 2))
    F_at = _direct_sum(g, c, pts)[0].reshape(-1, 2, 2)
    F0 = np.eye(2) + 0.2 * rng.standard_normal((12, 2, 2))
    J = F_at @ np.linalg.inv(F0)
    D = np.array([[3e-2, 0.0], [-4e-2, 0.0]])
    J[5] -= D @ np.linalg.inv(F0[5])
    ps = ParticleSet(labels, pts, J, 0.3)
    gap = compare_with_eulerian(ps, F, lambda X: F0, t=0.3, method=method)
    tol = 1e-12 if method == "spectral" else 1e-3
    assert abs(gap - 0.05) <= tol


@pytest.mark.parametrize("method", ["spectral", "bicubic"])
def test_sampler_output_shapes(method):
    g = GridSpec(16)
    sam = SnapshotSampler(g, method=method)
    sam.add(0.0, vspc.taylor_green_state(g).u)
    F = vspc.perturbed_identity_state(g, 0.1).F
    for pts in ([1.0, 2.0], [[1.0, 2.0]], np.full((5, 2), 0.5)):
        count = len(np.atleast_2d(pts))
        vel, none = sam.sample(0.0, pts)
        assert vel.shape == (count, 2) and none is None
        vel, grad = sam.sample(0.0, pts, with_gradient=True)
        assert vel.shape == (count, 2) and grad.shape == (count, 2, 2)
        assert tensor_sampler(F, method)(pts).shape == (count, 2, 2)


# the bicubic SnapshotSampler (add, then sample with gradient) and tensor_sampler
_BICUBIC_CALLS = """
import numpy as np
import vspc
g = vspc.GridSpec(32)
sam = vspc.SnapshotSampler(g, method="bicubic")
sam.add(0.0, vspc.taylor_green_state(g).u)
sam.add(1.0, vspc.perturbed_identity_state(g, 0.3).u)
pts = np.random.default_rng(31).uniform(0.0, 2.0 * np.pi, size=(64, 2))
vel, grad = sam.sample(0.4, pts, with_gradient=True)
F = vspc.tensor_sampler(vspc.perturbed_identity_state(g, 0.3).F, "bicubic")(pts)
"""

# the flowmap calls of a run: snapshots from simulate's observer into both
# samplers, Jacobians along paths, and the Eulerian comparison by both methods
_FLOWMAP_CALLS = """
g = vspc.GridSpec(16)
cfg = vspc.SolverConfig(g, nu=0.05, t_end=0.02, dt_max=5e-3, snapshot_interval=1)
fm = vspc.flowmap
samplers = [fm.SnapshotSampler(g, m) for m in ("spectral", "bicubic")]
end = {}

def observe(state):
    end["F"] = state.F
    for s in samplers:
        s.add(state.t, state.u)

result = vspc.simulate(cfg, vspc.perturbed_identity_state(g, 0.1), observe)
for s in samplers:
    ps = fm.ParticleSet.on_lattice(4)
    for _ in range(4):
        ps = fm.evolve_jacobian(ps, s, 5e-3)
    for m in ("spectral", "bicubic"):
        fm.compare_with_eulerian(ps, end["F"], fm.identity_tensor_at, method=m)
"""


def test_bicubic_samplers_load_no_scipy(tmp_path):
    # a fresh process that has used both bicubic samplers and run the flowmap
    # calls holds no scipy module; the samplers give the same bits there as
    # here, where the tests have loaded scipy
    out = tmp_path / "bicubic.npz"
    script = ("import sys\nimport vspc\n" + _BICUBIC_CALLS + _FLOWMAP_CALLS
              + "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
              + "np.savez(sys.argv[1], vel=vel, grad=grad, F=F)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(vspc.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True, timeout=120)
    here = {}
    exec(_BICUBIC_CALLS, here)
    fresh = np.load(out)
    for name in ("vel", "grad", "F"):
        assert np.array_equal(fresh[name], here[name]), name


# ---------------------------------------------------------------------------
# point checks

_BAD_POINTS = {
    "nan": [[math.nan, 1.0]], "inf": [[math.inf, 0.0]], "-inf": [[0.5, -math.inf]],
    "empty list": [], "three columns": np.zeros((1, 3)), "three axes": np.zeros((2, 2, 2)),
    "three coordinates": [1.0, 2.0, 3.0],
}


@pytest.mark.parametrize("method", ["spectral", "bicubic"])
@pytest.mark.parametrize("bad", list(_BAD_POINTS))
def test_samplers_reject_points_that_are_not_a_finite_n_by_2_array(method, bad):
    # the bicubic sampler read 0 at a non-finite point, the spectral one NaN
    g = GridSpec(16)
    sam = SnapshotSampler(g, method=method)
    sam.add(0.0, vspc.taylor_green_state(g).u)
    at = tensor_sampler(vspc.perturbed_identity_state(g, 0.1).F, method)
    for call in (lambda p: sam.sample(0.0, p), lambda p: sam.sample(0.0, p, with_gradient=True),
                 at, lambda p: ParticleSet.at(p)):
        with pytest.raises(ValueError, match="finite"):
            call(_BAD_POINTS[bad])


@pytest.mark.parametrize("method", ["spectral", "bicubic"])
def test_samplers_take_no_points(method):
    g = GridSpec(16)
    sam = SnapshotSampler(g, method=method)
    sam.add(0.0, vspc.taylor_green_state(g).u)
    sam.add(1.0, vspc.taylor_green_state(g).u)
    none = np.empty((0, 2))
    vel, grad = sam.sample(0.0, none, with_gradient=True)
    assert vel.shape == (0, 2) and grad.shape == (0, 2, 2)
    assert tensor_sampler(TensorField.identity(g), method)(none).shape == (0, 2, 2)
    ps = evolve_jacobian(ParticleSet.at(none), sam, 0.1)
    assert ps.positions.shape == (0, 2) and ps.jacobians.shape == (0, 2, 2)


@pytest.mark.parametrize("method", ["spectral", "bicubic"])
def test_gradients_need_an_evaluator_made_for_them(method):
    # the bicubic evaluator returned gradients of shape (0, R, 2), and the
    # spectral one, whose fold then holds no ∂₁ columns, failed to broadcast
    g = GridSpec(16)
    evaluator = vspc.flowmap._Evaluator(g, method)
    data = evaluator.prepare(vspc.taylor_green_state(g).u.components)
    with pytest.raises(ValueError, match="gradient=True"):
        evaluator.evaluate([(data, 1.0)], np.zeros((3, 2)), with_gradient=True)
    assert evaluator.evaluate([(data, 1.0)], np.zeros((3, 2)))[0].shape == (3, 2)


@pytest.mark.parametrize("count", [0, -1, 2.5, 3.0, True, "3"])
def test_lattice_needs_a_particle(count):
    # and an integer count: 2.5 particles per axis spaced 2π/2.5 do not tile
    # the torus, and True would be 1
    with pytest.raises(ValueError, match="at least 1"):
        ParticleSet.on_lattice(count)


# ---------------------------------------------------------------------------
# the samplers and RK4 steps as they were before one evaluator and one RK4
# step served them all, kept as references: no bicubic result may move by a
# bit, and the spectral ones, summed in real arithmetic since, only by rounding

def _ref_half_band(grid, coeffs):
    n, b = grid.n, grid.dealias_limit
    rows = np.r_[0:b + 1, n - b:n]
    return coeffs[..., rows, :b + 1] * grid.half.weight[:, :b + 1]


def _ref_synthesize(block, pts, with_gradient=False):
    R, A, B = block.shape
    b = B - 1
    if with_gradient:
        k1 = np.r_[0:B, -b:0]
        block = np.concatenate([block, (1j * k1[:, None]) * block])
    M = np.ascontiguousarray(block.transpose(1, 0, 2)).reshape(A, -1)
    ik2 = 1j * np.arange(B)
    vals = np.empty((len(pts), R))
    grad = np.empty((len(pts), R, 2)) if with_gradient else None
    powers = np.empty((min(len(pts), 256), 2, B), dtype=np.complex128)
    Ex = np.empty((len(powers), A), dtype=np.complex128)
    for s in range(0, len(pts), 256):
        x = pts[s:s + 256]
        c = len(x)
        P, E = powers[:c], Ex[:c]
        P[:, :, 0] = 1.0
        P[:, :, 1:] = np.exp(1j * x)[:, :, None]
        np.cumprod(P, axis=2, out=P)
        E[:, :B] = P[:, 0]
        np.conjugate(P[:, 0, b:0:-1], out=E[:, B:])
        Ey = P[:, 1]
        S = (E @ M).reshape(c, -1, B)
        out = np.einsum("nrk,nk->nr", S, Ey).real
        vals[s:s + c] = out[:, :R]
        if with_gradient:
            grad[s:s + c, :, 0] = out[:, R:]
            grad[s:s + c, :, 1] = np.einsum("nrk,nk->nr", S[:, :R], Ey * ik2).real
    return vals, grad


def _ref_interpolate(grid, planes, pts):
    coords = (pts / grid.spacing).T
    return np.stack([
        ndimage.map_coordinates(p, coords, order=3, mode="grid-wrap", prefilter=False)
        for p in planes], axis=1)


def _ref_wrap(points):
    return np.mod(np.atleast_2d(np.asarray(points, dtype=np.float64)), TAU)


class _RefSampler(SnapshotSampler):
    """The per-method add and sample of old; the choice of snapshots and θ is
    shared, the blend of their data is its own."""

    def add(self, t, u):
        half = self.grid.half
        if self.method == "spectral":
            self._data.append(_ref_half_band(self.grid, _half_columns(u.components, half.band)))
        else:
            c = _half_columns(u.components, half.m) * half.mask
            self._data.append(vspc.flowmap._spline_planes(self.grid, np.stack(
                [*c, *(d * ci for ci in c for d in (half.ik1, half.ik2))])))
        self.times.append(float(t))

    def sample(self, t, points, with_gradient=False):
        pts = _ref_wrap(points)
        blend = self._blend(float(t))
        if len(blend) == 1:
            D = self._data[blend[0][0]]
        else:
            (lo, w_lo), (hi, theta) = blend
            assert hi == lo + 1 and w_lo == 1.0 - theta
            D = (1.0 - theta) * self._data[lo] + theta * self._data[hi]
        if self.method == "spectral":
            return _ref_synthesize(D, pts, with_gradient)
        vals = _ref_interpolate(self.grid, D[:6 if with_gradient else 2], pts)
        return vals[:, :2], vals[:, 2:].reshape(-1, 2, 2) if with_gradient else None


def _ref_tensor_sampler(F, method):
    grid = F.grid
    coeffs = _half_columns([F.entry(i, k) for i in range(2) for k in range(2)], grid.half.m)
    if method == "spectral":
        block = _ref_half_band(grid, coeffs)
        evaluate = lambda pts: _ref_synthesize(block, pts)[0]
    else:
        planes = vspc.flowmap._spline_planes(grid, coeffs * grid.half.mask)
        evaluate = lambda pts: _ref_interpolate(grid, planes, pts)
    return lambda pts: evaluate(_ref_wrap(pts)).reshape(-1, 2, 2)


def _ref_advect(particles, sampler, dt):
    x, t = particles.positions, particles.t
    k1 = sampler.sample(t, x)[0]
    k2 = sampler.sample(t + 0.5 * dt, x + 0.5 * dt * k1)[0]
    k3 = sampler.sample(t + 0.5 * dt, x + 0.5 * dt * k2)[0]
    k4 = sampler.sample(t + dt, x + dt * k3)[0]
    x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return ParticleSet(particles.labels, x_new, particles.jacobians.copy(), t + dt)


def _ref_evolve_jacobian(particles, sampler, dt):
    x, J, t = particles.positions, particles.jacobians, particles.t

    def stage(ti, xi, Ji):
        vel, grad = sampler.sample(ti, xi, with_gradient=True)
        return vel, grad @ Ji

    kx1, kJ1 = stage(t, x, J)
    kx2, kJ2 = stage(t + 0.5 * dt, x + 0.5 * dt * kx1, J + 0.5 * dt * kJ1)
    kx3, kJ3 = stage(t + 0.5 * dt, x + 0.5 * dt * kx2, J + 0.5 * dt * kJ2)
    kx4, kJ4 = stage(t + dt, x + dt * kx3, J + dt * kJ3)
    x_new = x + (dt / 6.0) * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4)
    J_new = J + (dt / 6.0) * (kJ1 + 2.0 * kJ2 + 2.0 * kJ3 + kJ4)
    return ParticleSet(particles.labels, x_new, J_new, t + dt)


def _ref_ode_reduce_step(state, a_of_t, dt, deviation=False):
    def gen(s):
        a = a_of_t(s)
        return np.diag([a, -a])

    slope = (lambda s, D: gen(s) @ (np.eye(2) + D)) if deviation else (lambda s, F: gen(s) @ F)
    t, F = state.t, state.F
    k1 = slope(t, F)
    k2 = slope(t + 0.5 * dt, F + 0.5 * dt * k1)
    k3 = slope(t + 0.5 * dt, F + 0.5 * dt * k2)
    k4 = slope(t + dt, F + dt * k3)
    F_new = F + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return vspc.exact.LinearProfileState(gen(t + dt), F_new, t + dt)


def _same(a, b):
    assert (a is None) == (b is None)
    assert a is None or (a.shape == b.shape and np.array_equal(a, b))


def _near(a, b, bound):
    assert (a is None) == (b is None)
    assert a is None or (a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= bound)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("method", ["spectral", "bicubic"])
def test_samplers_and_particle_steps_match_the_old_code_bit_for_bit(n, method):
    # bicubic: bit for bit.  Spectral: the real synthesis rounds differently
    # from the old complex one, so its samples lie within 1e-13·Σ|ĉ| of the old
    # ones (the direct-sum tests' scale) and its particles within 1e-12
    # relative sup-distance after 10 steps
    g = GridSpec(n)
    rng = np.random.default_rng(n)
    state = vspc.perturbed_identity_state(g, 0.3)
    snapshots = [vspc.taylor_green_state(g).u, state.u,
                 VectorField.from_spectra(g, *_band_limited(g, rng, 2)),
                 vspc.step(state, 0.01, vspc.SolverConfig(g, nu=0.01, t_end=1.0)).u]
    new, old = SnapshotSampler(g, method), _RefSampler(g, method)
    for t, u in zip((0.0, 0.3, 0.5, 1.0), snapshots):
        new.add(t, u)
        old.add(t, u)
    # Σ|ĉ| of fields: a weighted half band counts each conjugate pair twice
    coeff_sum = lambda fields: np.max(np.sum(np.abs(_ref_half_band(g, _half_columns(
        fields, g.half.band))), axis=(1, 2)))
    close = lambda got, want, bound: (_same(got, want) if method == "bicubic"
                                      else _near(got, want, bound))
    bound = 1e-13 * max(coeff_sum(u.components) for u in snapshots)
    pts = rng.uniform(-TAU, 2 * TAU, size=(600, 2))     # several whole chunks and a part
    for t in (0.0, 0.2, 0.3, 0.77, 1.0):                # at and between snapshots
        for with_gradient in (False, True):
            for got, want in zip(new.sample(t, pts, with_gradient),
                                 old.sample(t, pts, with_gradient)):
                close(got, want, bound)
        close(new.sample(t, pts[0])[0], old.sample(t, pts[0])[0], bound)
    entries = lambda F: [F.entry(i, k) for i in range(2) for k in range(2)]
    for F in (state.F, TensorField.identity(g)):
        close(tensor_sampler(F, method)(pts), _ref_tensor_sampler(F, method)(pts),
              1e-13 * coeff_sum(entries(F)))
    a = b = c = d = ParticleSet.on_lattice(5)
    for _ in range(10):
        a, b = evolve_jacobian(a, new, 0.1), _ref_evolve_jacobian(b, old, 0.1)
        c, d = advect(c, new, 0.1), _ref_advect(d, old, 0.1)
    for got, want in ((a, b), (c, d)):
        if method == "bicubic":
            _same(got.positions, want.positions)
        else:                                           # a position may wrap across 2π
            moved = np.mod(got.positions - want.positions + np.pi, TAU) - np.pi
            assert np.max(np.abs(moved)) <= 1e-12 * np.max(np.abs(want.positions))
        close(got.jacobians, want.jacobians, 1e-12 * np.max(np.abs(want.jacobians)))
        assert got.t == want.t
    F_at = _ref_tensor_sampler(state.F, method)(b.positions)
    want = float(np.max(np.sqrt(np.sum((F_at - b.jacobians) ** 2, axis=(1, 2)))))
    gap = compare_with_eulerian(a, state.F, identity_tensor_at, method=method)
    close(np.array(gap), np.array(want),
          1e-12 * (np.max(np.abs(b.jacobians)) + coeff_sum(entries(state.F))))


def test_bicubic_samplers_match_map_coordinates_at_edge_points():
    # wrapped coordinates equal to 2π (np.mod(-1e-17, 2π) is 2π), every lattice
    # node, and no points at all give the bits of the old ndimage path
    assert np.mod(-1e-17, TAU) == TAU
    g = GridSpec(32)
    state = vspc.perturbed_identity_state(g, 0.3)
    new, old = SnapshotSampler(g, "bicubic"), _RefSampler(g, "bicubic")
    for t, u in ((0.0, vspc.taylor_green_state(g).u), (1.0, state.u)):
        new.add(t, u)
        old.add(t, u)
    nodes = np.stack(np.meshgrid(g.x, g.x, indexing="ij"), axis=-1).reshape(-1, 2)
    edges = np.array([[-1e-17, 1.0], [2.0, -1e-17], [-1e-17, -1e-17], [TAU, TAU]])
    for pts in (edges, nodes, np.empty((0, 2))):
        for t in (0.0, 0.4, 1.0):
            for with_gradient in (False, True):
                for got, want in zip(new.sample(t, pts, with_gradient),
                                     old.sample(t, pts, with_gradient)):
                    _same(got, want)
        _same(tensor_sampler(state.F, "bicubic")(pts), _ref_tensor_sampler(state.F, "bicubic")(pts))


_WRAPPED = {"node": lambda g, rng, size: g.spacing * rng.integers(0, g.n, size=size),
            "edge": lambda g, rng, size: rng.choice([np.nextafter(TAU, 0.0), TAU - 1e-12, TAU],
                                                    size=size),
            "uniform": lambda g, rng, size: rng.uniform(0.0, TAU, size=size)}


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([16, 32, 64]),
       rows=st.sampled_from([2, 4, 6]), count=st.sampled_from([0, 1, 2, 3, 17, 1025]),
       kinds=st.sets(st.sampled_from(sorted(_WRAPPED)), min_size=1))
def test_the_stencil_gives_the_bytes_of_map_coordinates(seed, n, rows, count, kinds):
    # wrapped points (np.mod gives 2π for a tiny negative coordinate) on lattice
    # nodes, just below and at 2π, and anywhere, mixed coordinate by coordinate
    g = GridSpec(n)
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((rows, n * n))
    pools = np.stack([_WRAPPED[kind](g, rng, (count, 2)) for kind in sorted(kinds)])
    pts = np.take_along_axis(pools, rng.integers(0, len(pools), size=(1, count, 2)), axis=0)[0]
    got = vspc.flowmap._interpolate(g, planes, pts)
    want = _ref_interpolate(g, planes.reshape(rows, n, n), pts)
    assert got.shape == want.shape == (count, rows)
    assert got.tobytes() == want.tobytes()          # signs of zero included


def test_the_stencil_gathers_once_per_call(monkeypatch):
    # one np.take reads all 16 nodes, whatever the point count and the blend
    g = GridSpec(32)
    sam = SnapshotSampler(g, "bicubic")
    for t, u in ((0.0, vspc.taylor_green_state(g).u), (1.0, vspc.perturbed_identity_state(g, 0.3).u)):
        sam.add(t, u)
    at = tensor_sampler(vspc.perturbed_identity_state(g, 0.3).F, "bicubic")
    pts = np.random.default_rng(7).uniform(0.0, TAU, size=(1025, 2))
    sam.sample(0.5, pts, with_gradient=True)        # the spline planes, built before counting
    at(pts)
    taken, take = [], np.take
    monkeypatch.setattr(np, "take", lambda *a, **k: taken.append(1) or take(*a, **k))
    for count in (0, 1, 17, 1025):
        for call in (lambda: sam.sample(0.0, pts[:count]),
                     lambda: sam.sample(0.5, pts[:count], with_gradient=True),
                     lambda: at(pts[:count])):
            taken.clear()
            call()
            assert len(taken) == 1, (count, len(taken))


def test_bicubic_sampler_holds_the_planes_of_two_snapshots(monkeypatch):
    # each snapshot keeps its half band; a forward walk builds each snapshot's
    # spline planes once and holds those of the two bracketing snapshots only
    built = []
    spline = vspc.flowmap._spline_planes
    monkeypatch.setattr(vspc.flowmap, "_spline_planes", lambda *a: built.append(1) or spline(*a))
    g = GridSpec(64)
    u = vspc.taylor_green_state(g).u
    pts = np.random.default_rng(3).uniform(0.0, TAU, size=(64, 2))
    warm = SnapshotSampler(g, "bicubic")        # the grid's cached multipliers, untraced
    warm.add(0.0, u)
    warm.sample(0.0, pts, with_gradient=True)
    tracemalloc.start()
    try:
        sam = SnapshotSampler(g, "bicubic")
        for k in range(100):
            sam.add(0.01 * k, u)
        for k in range(198):                    # ends between the last two snapshots
            sam.sample(0.005 * k + 0.001, pts, with_gradient=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    b = g.dealias_limit
    bands = 100 * 2 * (2 * b + 1) * (b + 1) * 16     # every snapshot's half band of u
    planes = 6 * g.n ** 2 * 8                       # one snapshot's value and gradient planes
    assert len(built) == 1 + 100                    # the warm-up's snapshot, then each once
    assert held - bands <= 2.5 * planes, (held - bands) / planes     # 0.5: array headers


def test_ode_reduction_matches_the_old_step_bit_for_bit():
    amplitude = vspc.zgh_amplitude(vspc.ZghParams(2.0, 1.0, 1.0))
    new = old = vspc.exact.LinearProfileState(np.diag([1.0, -1.0]), np.eye(2) + 0.1, 0.0)
    for dt in [1e-3] * 50 + [4e-3] * 50:
        new = vspc.ode_reduce_step(new, amplitude, dt)
        old = _ref_ode_reduce_step(old, amplitude, dt)
        _same(new.A, old.A)
        _same(new.F, old.F)
        assert new.t == old.t


def test_ode_reduction_of_the_deviation_matches_the_old_step_bit_for_bit():
    # the cross-check's form, dD/dt = A(t)(I + D), toward a pole (t* = 333) at
    # the cross-check's amplitude, from a D with every entry set
    amplitude = vspc.zgh_amplitude(vspc.ZghParams(2.0, 1.0, 1e-3))
    D0 = np.array([[0.1, -0.2], [0.3, 0.05]])
    new = old = vspc.exact.LinearProfileState(np.diag([1e-3, -1e-3]), D0, 0.0)
    for dt in [1e-2] * 1000 + [0.3] * 1000:
        new = vspc.ode_reduce_step(new, amplitude, dt, deviation=True)
        old = _ref_ode_reduce_step(old, amplitude, dt, deviation=True)
        _same(new.A, old.A)
        _same(new.F, old.F)
        assert new.t == old.t
    assert abs(new.F[0, 0]) > 1.0                           # it grew toward the pole


# ---------------------------------------------------------------------------
# one integrator and one branch on the sampling method

def _enclosing(tree):
    """(node, enclosing class, enclosing function) for every node of a module."""
    found = []

    def visit(node, cls, func):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        found.append((node, cls, func))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    visit(tree, None, None)
    return found


def _rk4_sites(source):
    """Where `dt / 6.0` is taken, step checks raised, and the method compared."""
    is_dt6 = lambda node: (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                           and getattr(node.left, "id", None) == "dt"
                           and getattr(node.right, "value", None) == 6.0)
    named = lambda node, name: name in (getattr(node, "id", None), getattr(node, "attr", None))
    sites = {"dt6": [], "check": [], "method": []}
    for node, cls, func in _enclosing(ast.parse(source)):
        if is_dt6(node):
            sites["dt6"].append(func)
        if isinstance(node, ast.Raise) and "step size must be positive and finite" in ast.unparse(node):
            sites["check"].append(func)
        if isinstance(node, ast.Compare):
            parts = [node.left, *node.comparators]
            constants = {sub.value for part in parts for sub in ast.walk(part)
                         if isinstance(sub, ast.Constant)}
            if any(named(p, "method") for p in parts) and constants & {"spectral", "bicubic"}:
                sites["method"].append((cls, func))
    return sites


def _special_cases(node):
    """Names toward and theta, and calls of np.diag and np.eye, under an AST node."""
    names = {getattr(sub, "id", None) or getattr(sub, "arg", None) for sub in ast.walk(node)}
    calls = {ast.unparse(sub.func) for sub in ast.walk(node) if isinstance(sub, ast.Call)}
    return (names & {"toward", "theta"}) | (calls & {"np.diag", "np.eye"})


def test_one_rk4_step_and_one_branch_on_the_sampling_method():
    src = Path(vspc.__file__).parent
    sites = {path.name: _rk4_sites(path.read_text()) for path in src.glob("*.py")}
    dt6 = {(name, func) for name, s in sites.items() for func in s["dt6"]}
    assert dt6 == {("flowmap.py", "_rk4"), ("solver.py", "_step_packed")}, dt6
    checks = sites["flowmap.py"]["check"] + sites["exact.py"]["check"]
    assert checks == ["_rk4"], checks
    branches = {site for s in sites.values() for site in s["method"]}
    assert branches <= {("_Evaluator", f) for f in ("__init__", "prepare", "evaluate")}, branches
    assert {f for _, f in branches} >= {"prepare", "evaluate"}
    # one blend of weighted data, and one slope that scales rows: no two-snapshot
    # special case in evaluate, no generator matrix built at an ODE stage
    function = lambda path, name: next(
        node for node in ast.walk(ast.parse((src / path).read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == name)
    step = function("exact.py", "ode_reduce_step")
    slopes = [node for node in ast.walk(step) if isinstance(node, ast.Lambda)]
    assert len(slopes) == 1, ast.unparse(step)
    assert [node for node in ast.walk(step) if isinstance(node, ast.FunctionDef)] == [step]
    for node in (function("flowmap.py", "evaluate"), *slopes):
        assert not _special_cases(node), _special_cases(node)
    assert _special_cases(ast.parse("lambda s, y: (np.diag([theta, -theta]) @ y,)")) == {
        "theta", "np.diag"}
    assert _special_cases(ast.parse("def f(data, toward=None):\n    return np.eye(2)")) == {
        "toward", "np.eye"}
    # the finder sees each form it looks for
    fake = ("def f(dt):\n    if dt <= 0:\n        raise ValueError(f'step size must be positive"
            " and finite, got {dt}')\n    return y + (dt / 6.0) * k\n"
            "class S:\n    def g(self, method):\n        return self.method == 'bicubic' or "
            "method in ('spectral',)\n")
    assert _rk4_sites(fake) == {"dt6": ["f"], "check": ["f"],
                                "method": [("S", "g"), ("S", "g")]}


# ---------------------------------------------------------------------------
# kept synthesis buffers

_FAULTS = """
import json
import numpy as np
import vspc
g = vspc.GridSpec(64)
pts = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=(1024, 2))
samplers = {m: vspc.SnapshotSampler(g, m) for m in ("spectral", "bicubic")}
for t, u in ((0.0, vspc.taylor_green_state(g).u), (1.0, vspc.perturbed_identity_state(g, 0.3).u)):
    for sam in samplers.values():
        sam.add(t, u)
at = vspc.tensor_sampler(vspc.perturbed_identity_state(g, 0.3).F)

from conftest import minor_faults

def faults(call, calls):
    before = minor_faults()
    for _ in range(calls):
        call()
    return (minor_faults() - before) / calls

spectral = lambda t, with_gradient: lambda: samplers["spectral"].sample(t, pts, with_gradient)
faults(spectral(0.3, True), 50)
faults(lambda: samplers["bicubic"].sample(0.3, pts, with_gradient=True), 20)
# the bicubic sampler built its spline planes after the samplers' data
print(json.dumps({"blended, gradient": faults(spectral(0.3, True), 100),
                  "snapshot, gradient": faults(spectral(1.0, True), 100),
                  "blended, values": faults(spectral(0.7, False), 100),
                  "tensor_sampler": faults(lambda: at(pts), 100)}))
"""


def _faults_per_call(script):
    """The JSON a script prints, run in a fresh process that can import vspc and conftest."""
    pytest.importorskip("resource")
    paths = (Path(vspc.__file__).resolve().parents[1], Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))     # vspc, conftest
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120,
                         capture_output=True, text=True)
    return json.loads(out.stdout)


def test_spectral_sampling_reuses_its_buffers_after_bicubic_sampling():
    # the synthesis allocated its phases and products on every call; in one heap
    # layout (scipy loaded after the samplers' data, as the bicubic sampler did)
    # the heap handed them back each time, about 200 minor page faults per
    # 1024-point call at n = 64.  Each spectral path reuses its buffers: with
    # and without gradients, at and between snapshots, and tensor_sampler's
    per_call = _faults_per_call(_FAULTS)
    assert len(per_call) == 4 and max(per_call.values()) <= 5.0, per_call


def test_spectral_sampler_holds_no_more_than_the_old_synthesis_buffer(monkeypatch):
    # the kept buffer and the folds of the two bracketing snapshots hold at most
    # the old complex synthesis buffer, 256 points' phases, phase rows and
    # products: 256·(2·22 + 43 + 88)·16 bytes = 0.7 MB at n = 64.  A forward
    # walk folds each snapshot once
    folded = []
    fold = vspc.flowmap._Evaluator._fold
    monkeypatch.setattr(vspc.flowmap._Evaluator, "_fold",
                        lambda self, block: folded.append(1) or fold(self, block))
    g = GridSpec(64)
    u = vspc.taylor_green_state(g).u
    pts = np.random.default_rng(3).uniform(0.0, TAU, size=(1024, 2))
    warm = SnapshotSampler(g)                   # the grid's cached multipliers, untraced
    warm.add(0.0, u)
    warm.sample(0.0, pts, with_gradient=True)
    tracemalloc.start()
    try:
        sam = SnapshotSampler(g)
        for k in range(100):
            sam.add(0.01 * k, u)
        for k in range(198):                    # ends between the last two snapshots
            sam.sample(0.005 * k + 0.001, pts, with_gradient=k % 3 > 0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    b = g.dealias_limit
    bands = 100 * 2 * (2 * b + 1) * (b + 1) * 16     # every snapshot's half band of u
    assert len(folded) == 1 + 100                   # the warm-up's snapshot, then each once
    assert held - bands <= 256 * (2 * 22 + 43 + 88) * 16, held - bands


def test_blended_bicubic_sampling_faults_no_pages():
    # a blended 1024-point call with gradients at n = 64 took 112 minor page
    # faults when the stencil made 16 gathers and products, in this process's
    # heap layout (no pytest or hypothesis loaded); its one gather takes under one
    script = """
import resource
import numpy as np
import vspc
g = vspc.GridSpec(64)
pts = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=(1024, 2))
sam = vspc.SnapshotSampler(g, "bicubic")
for t, u in ((0.0, vspc.taylor_green_state(g).u), (1.0, vspc.perturbed_identity_state(g, 0.3).u)):
    sam.add(t, u)
faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    sam.sample(0.3, pts, with_gradient=True)
before = faults()
for _ in range(100):
    sam.sample(0.3, pts, with_gradient=True)
print((faults() - before) / 100)
"""
    assert _faults_per_call(script) <= 5.0
