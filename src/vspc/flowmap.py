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
either by direct Fourier synthesis on the dealiased band (spectrally exact) or
by prefiltered bicubic interpolation — with linear interpolation in time
between snapshots.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import ndimage

from .fields import TAU, GridSpec, TensorField, VectorField, ensure_spectral

__all__ = [
    "ParticleSet", "AnalyticFlow", "SnapshotSampler", "MissingDataError",
    "advect", "evolve_jacobian", "compare_with_eulerian", "tensor_sampler",
    "identity_tensor_at", "write_trajectories_csv",
]

_TIME_EPS = 1e-9


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


class SnapshotSampler:
    """Evaluates stored velocity snapshots at arbitrary points and times.

    Snapshots must be added in strictly increasing time order; evaluation
    interpolates linearly between the two bracketing snapshots and raises
    MissingDataError outside the stored range.  method="spectral" synthesizes
    the dealiased Fourier modes directly (exact for band-limited fields);
    method="bicubic" uses prefiltered cubic-spline interpolation of the
    velocity and its gradient on the sample lattice.
    """

    def __init__(self, grid: GridSpec, method: str = "spectral"):
        if method not in ("spectral", "bicubic"):
            raise ValueError(f"unknown sampling method {method!r}")
        self.grid = grid
        self.method = method
        self.times: list[float] = []
        self._coeffs: list[np.ndarray] = []     # (2, A, A) cropped spectral blocks
        self._splines: list[np.ndarray] = []    # (6, n, n) prefiltered samples
        b = grid.dealias_limit
        # FFT-ordered index list covering modes 0..b, −b..−1 on each axis; the
        # synthesis factors into per-axis phase vectors over these modes.
        self._idx = np.r_[0:b + 1, grid.n - b:grid.n]
        self._modes = grid.k[self._idx].astype(np.float64)

    def add(self, t, u: VectorField):
        """Store one snapshot; accepts either representation."""
        if u.grid != self.grid:
            raise ValueError("snapshot grid does not match the sampler grid")
        t = float(t)
        if self.times and t <= self.times[-1] + _TIME_EPS:
            raise ValueError("snapshots must be added with strictly increasing times")
        c1 = ensure_spectral(u.components[0]) * self.grid.dealias_mask
        c2 = ensure_spectral(u.components[1]) * self.grid.dealias_mask
        if self.method == "spectral":
            block = np.ix_(self._idx, self._idx)
            self._coeffs.append(np.stack([c1[block], c2[block]]))
        else:
            ik1, ik2 = self.grid.ik1, self.grid.ik2
            samples = self.grid.to_samples(np.stack(
                [c1, c2, ik1 * c1, ik2 * c1, ik1 * c2, ik2 * c2]))
            self._splines.append(np.stack([
                ndimage.spline_filter(s, order=3, mode="grid-wrap") for s in samples]))
        self.times.append(t)

    def _blend(self, t):
        times = self.times
        if not times:
            raise MissingDataError("sampler holds no snapshots")
        if t < times[0] - _TIME_EPS or t > times[-1] + _TIME_EPS:
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
        pts = _wrap(np.atleast_2d(np.asarray(points, dtype=np.float64)))
        lo, hi, theta = self._blend(float(t))
        if self.method == "spectral":
            return self._sample_spectral(lo, hi, theta, pts, with_gradient)
        return self._sample_bicubic(lo, hi, theta, pts, with_gradient)

    def _sample_spectral(self, lo, hi, theta, pts, with_gradient):
        C = self._coeffs[lo] if lo == hi else (
            (1.0 - theta) * self._coeffs[lo] + theta * self._coeffs[hi])
        rows = [C[0], C[1]]
        if with_gradient:
            im1, im2 = 1j * self._modes[:, None], 1j * self._modes[None, :]
            rows += [im1 * C[0], im2 * C[0], im1 * C[1], im2 * C[1]]
        stack = np.stack(rows)
        # factored synthesis: value = Ex · block · Eyᵀ per particle and row
        Ex = np.exp(1j * pts[:, 0, None] * self._modes[None, :])
        Ey = np.exp(1j * pts[:, 1, None] * self._modes[None, :])
        partial = np.tensordot(Ex, stack, axes=([1], [1]))     # (N, R, A)
        vals = np.einsum("nra,na->nr", partial, Ey).real
        vel = vals[:, :2]
        if not with_gradient:
            return vel, None
        grad = np.empty((len(pts), 2, 2))
        grad[:, 0, 0] = vals[:, 2]
        grad[:, 0, 1] = vals[:, 3]
        grad[:, 1, 0] = vals[:, 4]
        grad[:, 1, 1] = vals[:, 5]
        return vel, grad

    def _sample_bicubic(self, lo, hi, theta, pts, with_gradient):
        S = self._splines[lo] if lo == hi else (
            (1.0 - theta) * self._splines[lo] + theta * self._splines[hi])
        coords = (pts / self.grid.spacing).T
        count = 6 if with_gradient else 2
        vals = np.stack([
            ndimage.map_coordinates(S[i], coords, order=3, mode="grid-wrap", prefilter=False)
            for i in range(count)], axis=1)
        vel = vals[:, :2]
        if not with_gradient:
            return vel, None
        grad = np.empty((len(pts), 2, 2))
        grad[:, 0, 0] = vals[:, 2]
        grad[:, 0, 1] = vals[:, 3]
        grad[:, 1, 0] = vals[:, 4]
        grad[:, 1, 1] = vals[:, 5]
        return vel, grad


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
        return vel, np.einsum("nij,njk->nik", grad, Ji)

    kx1, kJ1 = stage(t, x, J)
    kx2, kJ2 = stage(t + 0.5 * dt, x + 0.5 * dt * kx1, J + 0.5 * dt * kJ1)
    kx3, kJ3 = stage(t + 0.5 * dt, x + 0.5 * dt * kx2, J + 0.5 * dt * kJ2)
    kx4, kJ4 = stage(t + dt, x + dt * kx3, J + dt * kJ3)
    x_new = x + (dt / 6.0) * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4)
    J_new = J + (dt / 6.0) * (kJ1 + 2.0 * kJ2 + 2.0 * kJ3 + kJ4)
    return ParticleSet(particles.labels, x_new, J_new, t + dt)


def _eval_spectra_at(grid, coeff_arrays, pts, method="spectral"):
    """Evaluate several spectral scalar fields at arbitrary points."""
    pts = _wrap(np.atleast_2d(np.asarray(pts, dtype=np.float64)))
    if method == "spectral":
        mask_idx = np.nonzero(grid.dealias_mask)
        k1 = grid.k[mask_idx[0]].astype(np.float64)
        k2 = grid.k[mask_idx[1]].astype(np.float64)
        stack = np.vstack([(c * grid.dealias_mask)[mask_idx] for c in coeff_arrays])
        phases = np.exp(1j * (pts[:, :1] * k1[None, :] + pts[:, 1:] * k2[None, :]))
        return (phases @ stack.T).real
    if method == "bicubic":
        coords = (pts / grid.spacing).T
        samples = grid.to_samples(np.stack(coeff_arrays) * grid.dealias_mask)
        return np.stack([ndimage.map_coordinates(s, coords, order=3, mode="grid-wrap")
                         for s in samples], axis=1)
    raise ValueError(f"unknown sampling method {method!r}")


def tensor_sampler(F: TensorField, method: str = "spectral"):
    """Point-evaluator for a tensor field: pts (N,2) → (N,2,2)."""
    grid = F.grid
    coeffs = [ensure_spectral(F.entry(i, k)) for i in range(2) for k in range(2)]

    def at(pts):
        vals = _eval_spectra_at(grid, coeffs, pts, method)
        out = np.empty((len(vals), 2, 2))
        out[:, 0, 0], out[:, 0, 1] = vals[:, 0], vals[:, 1]
        out[:, 1, 0], out[:, 1, 1] = vals[:, 2], vals[:, 3]
        return out

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
    F_lagr = np.einsum("nij,njk->nik", particles.jacobians, F0_at(particles.labels))
    diff = F_interp - F_lagr
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
