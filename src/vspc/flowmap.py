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
prefiltered bicubic interpolation — with linear interpolation in time between
snapshots.  The synthesis (`_synthesize`, shared with `tensor_sampler`) reads
only the k₂ ≥ 0 half of the band: a real field is Re Σ over that half with
the k₂ > 0 columns doubled.  It factors e^{ik·x} into per-axis phases, taken
as powers of one e^{ix} per point and axis (negative k₁ by conjugation), so
the values and ∂₁ of every field come from one matrix product per chunk of
points and ∂₂ from weighting the x₂ phases by ik₂.

scipy is imported by `_interpolate` on the first bicubic evaluation, not with
the module, so `import vspc` loads numpy and the standard library only.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import TAU, GridSpec, TensorField, VectorField, _half_columns

__all__ = [
    "ParticleSet", "AnalyticFlow", "SnapshotSampler", "MissingDataError",
    "advect", "evolve_jacobian", "compare_with_eulerian", "tensor_sampler",
    "identity_tensor_at", "write_trajectories_csv",
]

_TIME_EPS = 1e-9
# Points per synthesis pass: whole-batch phase and partial-sum temporaries
# (about 1.4 MB for 1024 points at n = 64) page-fault on every call, while a
# chunk's stay in cache.
_CHUNK = 256


class MissingDataError(LookupError):
    """A sampler was asked for a time outside its stored snapshot range."""


def _wrap(positions):
    return np.mod(positions, TAU)


@dataclass(eq=False)
class ParticleSet:
    """Labels X, current positions x(t; X), Jacobians ∂x/∂X, and the clock t."""

    labels: np.ndarray
    positions: np.ndarray
    jacobians: np.ndarray
    t: float

    def __post_init__(self):
        self.labels = np.atleast_2d(np.asarray(self.labels, dtype=np.float64))
        self.positions = _wrap(np.atleast_2d(np.asarray(self.positions, dtype=np.float64)))
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

def _half_band(grid: GridSpec, coeffs):
    """Half-band blocks (…, 2b+1, b+1), b = n//3, of spectra (…, n, ≥ b+1).

    Rows hold k₁ = 0…b, −b…−1 and columns k₂ = 0…b: the k₂ ≥ 0 half of the
    dealiased band.  Columns with k₂ > 0 are doubled to stand in for their
    conjugate mirror images (the HalfSpectrum.weight convention), so a real
    field's value at x is Re Σ block · e^{ik·x}.
    """
    n, b = grid.n, grid.dealias_limit
    rows = np.r_[0:b + 1, n - b:n]
    return coeffs[..., rows, :b + 1] * grid.half.weight[:, :b + 1]


def _synthesize(block, pts, with_gradient=False):
    """Values (N, R) and, if asked, gradients (N, R, 2) of R real fields at points.

    block is the (R, 2b+1, b+1) half-band block of the fields (`_half_band`)
    and pts are N wrapped positions (N, 2); gradients are ordered ∂₁, ∂₂.
    """
    R, A, B = block.shape
    b = B - 1
    if with_gradient:
        k1 = np.r_[0:B, -b:0]
        block = np.concatenate([block, (1j * k1[:, None]) * block])
    # one GEMM per chunk: phases in k₁ (c, A) against every row's k₁-by-k₂ block
    M = np.ascontiguousarray(block.transpose(1, 0, 2)).reshape(A, -1)
    ik2 = 1j * np.arange(B)
    vals = np.empty((len(pts), R))
    grad = np.empty((len(pts), R, 2)) if with_gradient else None
    powers = np.empty((min(len(pts), _CHUNK), 2, B), dtype=np.complex128)
    Ex = np.empty((len(powers), A), dtype=np.complex128)
    for s in range(0, len(pts), _CHUNK):
        x = pts[s:s + _CHUNK]
        c = len(x)
        P, E = powers[:c], Ex[:c]
        P[:, :, 0] = 1.0
        P[:, :, 1:] = np.exp(1j * x)[:, :, None]
        np.cumprod(P, axis=2, out=P)                       # e^{i k xⱼ}, k = 0…b
        E[:, :B] = P[:, 0]
        np.conjugate(P[:, 0, b:0:-1], out=E[:, B:])        # k₁ = −b…−1
        Ey = P[:, 1]
        S = (E @ M).reshape(c, -1, B)
        out = np.einsum("nrk,nk->nr", S, Ey).real
        vals[s:s + c] = out[:, :R]
        if with_gradient:
            grad[s:s + c, :, 0] = out[:, R:]
            grad[s:s + c, :, 1] = np.einsum("nrk,nk->nr", S[:, :R], Ey * ik2).real
    return vals, grad


def _spline_planes(grid: GridSpec, coeffs):
    """Cubic-spline coefficients (…, n, n) of the samples of half spectra.

    On the periodic lattice the cubic B-spline prefilter is diagonal in
    Fourier space: it divides by the symbol b(k₁)b(k₂), b = (2 + cos(2πk/n))/3.
    """
    b = (2.0 + np.cos(grid.spacing * grid.k)) / 3.0
    return grid.half.to_samples(coeffs / (b[:, None] * b[None, :grid.half.m]))


def _interpolate(grid: GridSpec, planes, pts):
    """Bicubic values (N, R) of R spline-coefficient planes at wrapped points."""
    from scipy import ndimage

    coords = (pts / grid.spacing).T
    return np.stack([
        ndimage.map_coordinates(p, coords, order=3, mode="grid-wrap", prefilter=False)
        for p in planes], axis=1)


class SnapshotSampler:
    """Evaluates stored velocity snapshots at arbitrary points and times.

    Snapshots must be added with finite, strictly increasing times;
    evaluation interpolates linearly between the two bracketing snapshots and
    raises MissingDataError outside the stored range.  method="spectral"
    synthesizes the dealiased Fourier modes directly (exact for band-limited
    fields); method="bicubic" uses prefiltered cubic-spline interpolation of
    the velocity and its gradient on the sample lattice.
    """

    def __init__(self, grid: GridSpec, method: str = "spectral"):
        if method not in ("spectral", "bicubic"):
            raise ValueError(f"unknown sampling method {method!r}")
        self.grid = grid
        self.method = method
        self.times: list[float] = []
        # per snapshot: spectral (2, 2b+1, b+1) half-band blocks of u, or
        # bicubic (6, n, n) spline planes of u and ∇u
        self._data: list[np.ndarray] = []

    def add(self, t, u: VectorField):
        """Store one snapshot; accepts either representation."""
        if u.grid != self.grid:
            raise ValueError("snapshot grid does not match the sampler grid")
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"snapshot time must be finite, got {t}")
        if self.times and t <= self.times[-1] + _TIME_EPS:
            raise ValueError("snapshots must be added with strictly increasing times")
        half = self.grid.half
        if self.method == "spectral":
            self._data.append(_half_band(self.grid, _half_columns(u.components, half.band)))
        else:
            c = _half_columns(u.components, half.m) * half.mask
            self._data.append(_spline_planes(self.grid, np.stack(
                [*c, *(d * ci for ci in c for d in (half.ik1, half.ik2))])))
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
            return j, j, 0.0
        lo = j - 1
        theta = (t - times[lo]) / (times[j] - times[lo])
        return lo, j, theta

    def sample(self, t, points, with_gradient=False):
        """Velocity (N, 2) and, if asked, its gradient (N, 2, 2), [i, j] = ∂ⱼuᵢ."""
        pts = _wrap(np.atleast_2d(np.asarray(points, dtype=np.float64)))
        lo, hi, theta = self._blend(float(t))
        D = self._data[lo] if lo == hi else (
            (1.0 - theta) * self._data[lo] + theta * self._data[hi])
        if self.method == "spectral":
            return _synthesize(D, pts, with_gradient)
        vals = _interpolate(self.grid, D[:6 if with_gradient else 2], pts)
        return vals[:, :2], vals[:, 2:].reshape(-1, 2, 2) if with_gradient else None


def advect(particles: ParticleSet, sampler, dt: float) -> ParticleSet:
    """RK4 update of positions only."""
    if dt <= 0 or not np.isfinite(dt):
        raise ValueError(f"step size must be positive and finite, got {dt}")
    x, t = particles.positions, particles.t
    k1 = sampler.sample(t, x)[0]
    k2 = sampler.sample(t + 0.5 * dt, x + 0.5 * dt * k1)[0]
    k3 = sampler.sample(t + 0.5 * dt, x + 0.5 * dt * k2)[0]
    k4 = sampler.sample(t + dt, x + dt * k3)[0]
    x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return ParticleSet(particles.labels, x_new, particles.jacobians.copy(), t + dt)


def evolve_jacobian(particles: ParticleSet, sampler, dt: float) -> ParticleSet:
    """Coupled RK4 update of positions and Jacobians (dJ/dt = ∇u J along paths)."""
    if dt <= 0 or not np.isfinite(dt):
        raise ValueError(f"step size must be positive and finite, got {dt}")
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


def tensor_sampler(F: TensorField, method: str = "spectral"):
    """Point-evaluator for a tensor field: pts (N,2) → (N,2,2)."""
    grid = F.grid
    coeffs = _half_columns([F.entry(i, k) for i in range(2) for k in range(2)], grid.half.m)
    if method == "spectral":
        block = _half_band(grid, coeffs)
        evaluate = lambda pts: _synthesize(block, pts)[0]
    elif method == "bicubic":
        planes = _spline_planes(grid, coeffs * grid.half.mask)
        evaluate = lambda pts: _interpolate(grid, planes, pts)
    else:
        raise ValueError(f"unknown sampling method {method!r}")

    def at(pts):
        pts = _wrap(np.atleast_2d(np.asarray(pts, dtype=np.float64)))
        return evaluate(pts).reshape(-1, 2, 2)

    return at


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
