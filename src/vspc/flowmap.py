"""Lagrangian flow-map validation.

Particles follow dx/dt = u(t, x) with their deformation Jacobians coupled in,
dJ/dt = (∇u)(t, x(t)) J, so that J is the fundamental matrix of the flow
linearized along each trajectory.  Because the Eulerian deformation tensor is
transported by the same generator, the identity

    F(t, x(t, X)) = J(t, X) · F₀(X)

holds exactly for the continuous dynamics; comparing both sides after
independent numerical evolutions is an end-to-end consistency check of the
solver, the interpolation, and the particle integrator at once.  Volume
conservation det J = 1 (incompressible flow) is monitored alongside.

Velocity samplers evaluate stored spectral snapshots at arbitrary points —
either by Fourier synthesis on the dealiased band (spectrally exact) or by
prefiltered bicubic interpolation — blending in time a list of (snapshot, weight)
pairs: one at a snapshot time, else the two bracketing ones weighted 1 − θ and θ.
`_Evaluator`'s prepare/evaluate pair holds all per-method code.
Both methods keep a snapshot's half band and build its spline planes or its
fold on first use, keeping those of the two snapshots last read.  The synthesis
reads only the k₂ ≥ 0 half of the band: a real field is Re Σ over that half
with the k₂ > 0 columns doubled.  As e^{−ik₁x₁} = conj e^{ik₁x₁}, the fold turns
rows ±k₁ into real cos k₁x₁ and sin k₁x₁ coefficients: values and ∂₁ of every
field come from one real matrix product per chunk of points (half the
multiply-adds of a complex one), then values, ∂₁ and ∂₂ from one batched
product with the x₂ phases, powers of one e^{ix} per point formed by doubling.
Particles move by one RK4 step, `_rk4`, which `exact.ode_reduce_step` shares.

The bicubic values come from a numpy 4×4 B-spline stencil with the bits of
scipy.ndimage.map_coordinates, so no scipy is loaded: one gather of every point's 16
nodes from plane-major spline planes (R′, n²), an (R′, 16, N) block (0.8 MB at R′ = 6, N = 1024).
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diagnostics import _require_count
from .fields import TAU, GridSpec, TensorField, VectorField, _half_columns

__all__ = [
    "ParticleSet", "AnalyticFlow", "SnapshotSampler", "MissingDataError",
    "advect", "evolve_jacobian", "compare_with_eulerian", "tensor_sampler",
    "identity_tensor_at", "write_trajectories_csv",
]

_TIME_EPS = 1e-9
# Points per synthesis pass: a chunk's buffer (0.31 MB at n = 64) stays in cache;
# 256-point chunks were no faster and hold twice that, whole-batch ones slower.
_CHUNK = 128


class MissingDataError(LookupError):
    """A sampler was asked for a time outside its stored snapshot range."""


def _positions(points):
    """Wrapped positions (N, 2) of finite points (N, 2), or of one point (2,)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
        raise ValueError("points must be a finite (N, 2) array or one (2,) point")
    return np.mod(pts, TAU)


@dataclass(eq=False)
class ParticleSet:
    """Labels X, current positions x(t; X), Jacobians ∂x/∂X, and the clock t."""

    labels: np.ndarray
    positions: np.ndarray
    jacobians: np.ndarray
    t: float

    def __post_init__(self):
        self.labels = np.atleast_2d(np.asarray(self.labels, dtype=np.float64))
        self.positions = _positions(self.positions)
        self.jacobians = np.asarray(self.jacobians, dtype=np.float64)
        n = len(self.labels)
        if self.positions.shape != (n, 2) or self.jacobians.shape != (n, 2, 2):
            raise ValueError("particle arrays have inconsistent shapes")

    @classmethod
    def at(cls, positions, t: float = 0.0):
        """Fresh particles at the given labels with identity Jacobians."""
        pts = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        eye = np.broadcast_to(np.eye(2), (len(pts), 2, 2)).copy()
        return cls(pts.copy(), pts.copy(), eye, float(t))

    @classmethod
    def on_lattice(cls, count_per_axis: int, t: float = 0.0):
        """count² particles on a uniform lattice offset by half a cell."""
        _require_count("particle count per axis", count_per_axis, 1)
        h = TAU / count_per_axis
        coords = h * (np.arange(count_per_axis) + 0.5)
        X1, X2 = np.meshgrid(coords, coords, indexing="ij")
        return cls.at(np.column_stack([X1.ravel(), X2.ravel()]), t)

    def determinants(self):
        J = self.jacobians
        return J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]


class AnalyticFlow:
    """Sampler wrapping closed-form u(t, x) and ∇u(t, x) callables."""

    def __init__(self, velocity: Callable, velocity_gradient: Callable):
        self._velocity = velocity
        self._gradient = velocity_gradient

    def sample(self, t, points, with_gradient=False):
        vel = np.asarray(self._velocity(t, points), dtype=np.float64)
        if not with_gradient:
            return vel, None
        return vel, np.asarray(self._gradient(t, points), dtype=np.float64)


# ---------------------------------------------------------------------------
# point evaluation of spectral fields

def _spline_planes(grid: GridSpec, coeffs):
    """Cubic-spline coefficients (…, n, n) of the samples of half spectra or a band.

    On the periodic lattice the cubic B-spline prefilter is diagonal in
    Fourier space: it divides by the symbol b(k₁)b(k₂), b = (2 + cos(2πk/n))/3.
    """
    b = (2.0 + np.cos(grid.spacing * grid.k)) / 3.0
    return grid.half.to_samples(coeffs / (b[:, None] * b[None, :coeffs.shape[-1]]))


def _interpolate(grid: GridSpec, planes, pts):
    """Bicubic values (N, R′) of plane-major spline planes (R′, n²) at wrapped points: the
    periodic cubic B-spline's 4×4 stencil at nodes ⌊c⌋ − 1 … ⌊c⌋ + 2 (mod n), weights and
    sum with the bits of map_coordinates(order=3, mode="grid-wrap", prefilter=False)."""
    n, c = grid.n, pts.T / grid.spacing
    node = np.floor(c)
    y, z = c - node, 1.0 - (c - node)
    w0 = z * z * z / 6.0
    w1, w2 = ((v * v * (v - 2.0) * 3.0 + 4.0) / 6.0 for v in (y, z))
    wx, wy = np.stack((w0, w1, w2, 1.0 - w0 - w1 - w2), axis=1)    # (4, N) each
    i, j = (node.astype(np.intp)[:, None] + np.arange(-1, 3)[:, None]) % n
    terms = np.take(planes, (i[:, None] * n + j).reshape(16, -1), axis=1)   # node (i, j): 4i + j
    terms *= np.repeat(wx, 4, axis=0)           # (c·wxᵢ)·wyⱼ, i outer, as the stencil sums
    terms *= np.tile(wy, (4, 1))
    out = np.zeros(terms.shape[::2])
    for k in range(16):
        out += terms[:, k]
    return out.T


class _Evaluator:
    """Point values of real fields by one method: `prepare` turns fields into
    the method's data, `evaluate` reads a weighted sum of such data at wrapped
    points.  It keeps its synthesis buffer and its last folds or spline planes,
    so one evaluator must not be used from two threads at once.
    """

    def __init__(self, grid: GridSpec, method: str, gradient: bool = False):
        if method not in ("spectral", "bicubic"):
            raise ValueError(f"unknown sampling method {method!r}")
        self.grid, self.method, self.gradient = grid, method, gradient
        n, b = grid.n, grid.dealias_limit
        self._rows = np.r_[0:b + 1, n - b:n]
        self._buffer = np.empty(0)
        self._kept: dict[int, tuple] = {}      # id(data) -> (data, its fold or spline planes)

    def prepare(self, fields):
        """(R, 2b+1, b+1) half-band blocks, b = n//3: rows k₁ = 0…b, −b…−1 and
        columns k₂ = 0…b.  Spectral: the k₂ > 0 columns doubled
        (`HalfSpectrum.weight`) for their conjugate mirrors, so a field's value
        is Re Σ block · e^{ik·x}; `evaluate` folds them on first use.  Bicubic:
        as they are; `evaluate` builds their spline planes on first use."""
        half = self.grid.half
        block = _half_columns(fields, half.band)[:, self._rows]
        return block * half.weight[:, :half.band] if self.method == "spectral" else block

    def evaluate(self, blend, pts, with_gradient=False):
        """Values (N, R) and, if asked (of an evaluator made with `gradient`),
        gradients (N, R, 2), ordered ∂₁, ∂₂, of Σ wᵢ·dataᵢ for a list of (prepared data,
        weight) pairs: forms are linear, so it sums theirs, in list order; one is read as is."""
        if with_gradient and not self.gradient:
            raise ValueError("gradients need an evaluator made with gradient=True")
        R, spectral = len(blend[0][0]), self.method == "spectral"
        cut = (np.s_[:, :R * 2 * blend[0][0].shape[2] * (1 + with_gradient)] if spectral
               else np.s_[:R * (1 + 2 * with_gradient)])     # a fold's columns, planes' rows
        forms = self._forms([data for data, _ in blend], self._fold if spectral else self._planes)
        (D, w), *rest = [(f[cut], w) for f, (_, w) in zip(forms, blend)]
        D = sum((v * f for f, v in rest), w * D) if rest else D
        if spectral:
            return self._fourier_sum(D, pts, R, with_gradient)
        vals = _interpolate(self.grid, D, pts)
        return vals[:, :R], vals[:, R:].reshape(-1, R, 2) if with_gradient else None

    def _forms(self, blocks, build):
        """build(block) of each block, made on first use.  Only the last call's
        blocks keep theirs, the others dropped before any is built, so a forward
        walk through snapshots builds each snapshot's form once and holds two."""
        self._kept = {id(d): self._kept[id(d)] for d in blocks if id(d) in self._kept}
        for d in blocks:
            if id(d) not in self._kept:
                self._kept[id(d)] = (d, build(d))
        return [self._kept[id(d)][1] for d in blocks]

    def _planes(self, block):
        """Plane-major spline planes (R, then (∂₁, ∂₂) of each field if
        `gradient` is set; n²) of a bicubic block."""
        half = self.grid.half
        c = np.zeros((len(block), half.n, half.band), dtype=np.complex128)
        c[:, self._rows] = block
        if self.gradient:
            c = np.stack([*c, *(k * ci for ci in c for k in (half.ik1, half.ik2[:, :half.band]))])
        return _spline_planes(self.grid, c).reshape(len(c), -1)

    def _fold(self, block):
        """Real (2b+1, 2·R′·(b+1)) matrix of a spectral block D: rows ±k₁ fold into
        the coefficients of cos k₁x₁ (rows 0…b), D[k₁] + D[−k₁], and sin k₁x₁ (rows
        b+1…2b, k₁ ≥ 1), i(D[k₁] − D[−k₁]); columns: float pairs of each field's
        k₂ = 0…b, then of its ∂₁ (cos ← k₁·sin, sin ← −k₁·cos) if `gradient`."""
        A, B = block.shape[1:]
        k1, pos = np.arange(B)[:, None], block[:, :B]
        neg = np.concatenate([np.zeros_like(pos[:, :1]), block[:, :B - 1:-1]], axis=1)
        cos, sin = pos + neg, 1j * (pos - neg)                  # sin's row k₁ = 0 is unused
        parts = [(cos, sin)] + ([(k1 * sin, -k1 * cos)] if self.gradient else [])
        F = np.concatenate([np.concatenate([c, s[:, 1:]], axis=1) for c, s in parts])
        return np.ascontiguousarray(F.transpose(1, 0, 2)).view(np.float64).reshape(A, -1)

    def _fourier_sum(self, fold, pts, R, with_gradient):
        """`evaluate` of a fold in the kept buffer: per chunk, powers e^{ikxⱼ} by
        doubling, one real GEMM of [cos k₁x₁ | sin k₁x₁] by the fold, one batched
        matmul by float pairs of conj e^{ik₂x₂} (values, ∂₁) and its −ik₂ multiple (∂₂)."""
        (A, W), c0 = fold.shape, min(len(pts), _CHUNK)
        B = (A + 1) // 2
        need = c0 * (4 * B + max(W, 4 * B) + A)     # x₂ pairs, product (powers till then), cos/sin
        if len(self._buffer) < need:
            self._buffer = np.empty(need)
        pairs, product, trig = np.split(self._buffer[:need], [c0 * 4 * B, need - c0 * A])
        vals = np.empty((len(pts), R))
        grad = np.empty((len(pts), R, 2)) if with_gradient else None
        for s in range(0, len(pts), _CHUNK):
            c = min(_CHUNK, len(pts) - s)
            P = product[:4 * B * c].view(np.complex128).reshape(B, 2 * c)    # x₁ then x₂
            P[0] = 1.0
            np.exp(1j * pts[s:s + c].T, out=P[1].reshape(2, c))
            k = 1
            while k < B - 1:                             # e^{i(k+j)x} = e^{ijx}·e^{ikx}
                w = min(k, B - 1 - k)
                np.multiply(P[1:1 + w], P[k], out=P[k + 1:k + 1 + w])
                k += w
            E = trig[:A * c].reshape(A, c)
            E[:B], E[B:] = P[:, :c].real, P[1:, :c].imag
            Q = pairs[:4 * B * c].view(np.complex128).reshape(c, 2, B)
            np.conjugate(P[:, c:].T, out=Q[:, 0])
            np.multiply(Q[:, 0], -1j * np.arange(B), out=Q[:, 1])
            S = np.matmul(E.T, fold, out=product[:c * W].reshape(c, W))
            out = np.matmul(S.reshape(c, -1, 2 * B), Q.view(np.float64).transpose(0, 2, 1))
            vals[s:s + c] = out[:, :R, 0]
            if with_gradient:
                grad[s:s + c, :, 0] = out[:, R:, 0]
                grad[s:s + c, :, 1] = out[:, :R, 1]
        return vals, grad


class SnapshotSampler:
    """Evaluates stored velocity snapshots at arbitrary points and times.

    Snapshots must be added with finite, strictly increasing times;
    evaluation interpolates linearly between the two bracketing snapshots and
    raises MissingDataError outside the stored range.  method="spectral"
    synthesizes the dealiased Fourier modes directly (exact for band-limited
    fields); method="bicubic" uses prefiltered cubic-spline interpolation of
    the velocity and its gradient on the sample lattice.  Points must be
    finite.  A sampler keeps buffers: do not sample one from two threads at once.
    """

    def __init__(self, grid: GridSpec, method: str = "spectral"):
        self._evaluator = _Evaluator(grid, method, gradient=True)
        self.grid = grid
        self.method = method
        self.times: list[float] = []
        self._data: list[np.ndarray] = []       # per snapshot, `_Evaluator.prepare` of u

    def add(self, t, u: VectorField):
        """Store one snapshot; accepts either representation."""
        if u.grid != self.grid:
            raise ValueError("snapshot grid does not match the sampler grid")
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"snapshot time must be finite, got {t}")
        if self.times and t <= self.times[-1] + _TIME_EPS:
            raise ValueError("snapshots must be added with strictly increasing times")
        self._data.append(self._evaluator.prepare(u.components))
        self.times.append(t)

    def _blend(self, t):
        times = self.times
        if not times:
            raise MissingDataError("sampler holds no snapshots")
        if not (times[0] - _TIME_EPS <= t <= times[-1] + _TIME_EPS):
            raise MissingDataError(
                f"t = {t:.6g} outside stored range [{times[0]:.6g}, {times[-1]:.6g}]")
        t = min(max(t, times[0]), times[-1])
        j = bisect_left(times, t)
        if j == 0 or abs(times[j] - t) <= _TIME_EPS:
            return [(j, 1.0)]
        theta = (t - times[j - 1]) / (times[j] - times[j - 1])
        return [(j - 1, 1.0 - theta), (j, theta)]

    def sample(self, t, points, with_gradient=False):
        """Velocity (N, 2) and, if asked, its gradient (N, 2, 2), [i, j] = ∂ⱼuᵢ."""
        pts = _positions(points)
        blend = [(self._data[j], w) for j, w in self._blend(float(t))]
        return self._evaluator.evaluate(blend, pts, with_gradient)


def _rk4(f, t, y, dt):
    """One classical RK4 step of dy/dt = f(t, y); y and f's slopes are tuples of arrays."""
    if dt <= 0 or not math.isfinite(dt):
        raise ValueError(f"step size must be positive and finite, got {dt}")
    shift = lambda k, h: tuple(yi + h * ki for yi, ki in zip(y, k))
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, shift(k1, 0.5 * dt))
    k3 = f(t + 0.5 * dt, shift(k2, 0.5 * dt))
    k4 = f(t + dt, shift(k3, dt))
    return tuple(yi + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def advect(particles: ParticleSet, sampler, dt: float) -> ParticleSet:
    """RK4 update of positions only."""
    (x,) = _rk4(lambda t, y: (sampler.sample(t, y[0])[0],), particles.t,
                (particles.positions,), dt)
    return ParticleSet(particles.labels, x, particles.jacobians.copy(), particles.t + dt)


def evolve_jacobian(particles: ParticleSet, sampler, dt: float) -> ParticleSet:
    """Coupled RK4 update of positions and Jacobians (dJ/dt = ∇u J along paths)."""
    def slopes(t, y):
        vel, grad = sampler.sample(t, y[0], with_gradient=True)
        return vel, grad @ y[1]

    x, J = _rk4(slopes, particles.t, (particles.positions, particles.jacobians), dt)
    return ParticleSet(particles.labels, x, J, particles.t + dt)


def tensor_sampler(F: TensorField, method: str = "spectral"):
    """Point-evaluator for a tensor field: pts (N,2) → (N,2,2); it keeps
    buffers, so do not call one from two threads at once."""
    evaluator = _Evaluator(F.grid, method)
    blend = [(evaluator.prepare([F.entry(i, k) for i in range(2) for k in range(2)]), 1.0)]
    return lambda pts: evaluator.evaluate(blend, _positions(pts))[0].reshape(-1, 2, 2)


def identity_tensor_at(labels):
    """F₀ ≡ I evaluated at labels (the default initial deformation)."""
    pts = np.atleast_2d(np.asarray(labels, dtype=np.float64))
    return np.broadcast_to(np.eye(2), (len(pts), 2, 2)).copy()


def compare_with_eulerian(particles: ParticleSet, F: TensorField, F0_at,
                          t=None, method: str = "spectral") -> float:
    """Max Frobenius discrepancy max_X ‖F(t, x(t,X)) − J(t,X) F₀(X)‖_F.

    F must be the Eulerian deformation at the particles' own time; pass t to
    assert that (a mismatch raises ValueError).
    """
    if t is not None and abs(float(t) - particles.t) > _TIME_EPS:
        raise ValueError(
            f"field time {t:.6g} does not match particle time {particles.t:.6g}")
    F_interp = tensor_sampler(F, method)(particles.positions)
    diff = F_interp - particles.jacobians @ F0_at(particles.labels)
    return float(np.max(np.sqrt(np.sum(diff ** 2, axis=(1, 2)))))


def write_trajectories_csv(path, history: Sequence[ParticleSet]):
    """One row per (snapshot, particle): t, label, position, Jacobian, det J."""
    header = ["t", "label_x1", "label_x2", "x1", "x2",
              "J11", "J12", "J21", "J22", "detJ"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for snap in history:
            dets = snap.determinants()
            for i in range(len(snap.labels)):
                J = snap.jacobians[i]
                writer.writerow([repr(float(v)) for v in (
                    snap.t, snap.labels[i, 0], snap.labels[i, 1],
                    snap.positions[i, 0], snap.positions[i, 1],
                    J[0, 0], J[0, 1], J[1, 0], J[1, 1], dets[i])])
