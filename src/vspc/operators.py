"""Spectral differential and singular-integral operators on the torus.

Operators read the half spectra of their inputs and apply GridSpec.half's
multipliers m, with m(−k) = conj m(k) (Nyquist zeroed where needed), so the
result is real and is not checked: samples for a physical input, else a field
over the half spectrum whose full `data` is built when read.

Derivatives are exact Fourier multipliers ik (Nyquist column zeroed).  The
Leray projection P = I − ∇Δ⁻¹∇· acts mode-wise as v̂ − k(k·v̂)/|k|² and leaves
the k = 0 mode untouched, so mean flow passes through.  Λˢ denotes the
fractional Laplacian power |k|ˢ; the inhomogeneous variant J ˢ = (1−Δ)^{s/2}
uses (1+|k|²)^{s/2}.

Quadratic terms (convection, the elastic stress divergence, commutator
products) are always formed in physical space from dealiased inputs and the
result is dealiased again, so retained modes carry no aliasing error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import (
    GridSpec,
    ScalarField,
    TensorField,
    VectorField,
    _BandField,
    _half_columns,
    _l2,
)

__all__ = [
    "SobolevOrder", "CommutatorReport", "ConstraintWarning",
    "InequalityViolationError", "gradient", "divergence", "curl", "laplacian",
    "leray_project", "pressure_gradient", "convective_term", "lambda_s",
    "sobolev_norm", "commutator_check",
]


class ConstraintWarning(UserWarning):
    """A differential constraint (e.g. a divergence-free condition) drifted past tolerance."""


class InequalityViolationError(RuntimeError):
    """An inequality that should hold analytically failed numerically."""


@dataclass(frozen=True)
class SobolevOrder:
    """Order s ≥ 0 of a Sobolev multiplier; inhomogeneous selects (1+|k|²)^{s/2}."""

    s: float
    inhomogeneous: bool = False

    def __post_init__(self):
        if not np.isfinite(self.s) or self.s < 0:
            raise ValueError(f"Sobolev order must be finite and >= 0, got {self.s}")


def _order(s) -> SobolevOrder:
    return s if isinstance(s, SobolevOrder) else SobolevOrder(float(s))


def _halves(*fields) -> np.ndarray:
    """The (n, n//2 + 1) half spectra of scalar fields, stacked."""
    return _half_columns(fields, fields[0].grid.half.m)


def _wrap_like(template: ScalarField, coeffs) -> ScalarField:
    """Return a fresh half spectrum as a field in the same representation as template."""
    grid = template.grid
    if template.is_physical:
        return ScalarField.from_samples(grid, grid.half.to_samples(coeffs))
    return _BandField(grid, coeffs)


def gradient(f):
    """∇f for a scalar, or the Jacobian (entry (i,j) = ∂ⱼfᵢ) for a vector.

    The result matches the input representation.
    """
    if isinstance(f, VectorField):
        rows = [gradient(c) for c in f.components]
        col = lambda j: VectorField((rows[0].components[j], rows[1].components[j]))
        return TensorField.from_columns(col(0), col(1))
    half = f.grid.half
    c = _halves(f)[0]
    return VectorField((_wrap_like(f, half.ik1 * c), _wrap_like(f, half.ik2 * c)))


def divergence(v: VectorField) -> ScalarField:
    """∇·v; the result matches the input representation."""
    half = v.grid.half
    c1, c2 = _halves(*v.components)
    return _wrap_like(v.components[0], half.ik1 * c1 + half.ik2 * c2)


def curl(v: VectorField) -> ScalarField:
    """Scalar curl ∂₁v₂ − ∂₂v₁ of a planar vector field."""
    half = v.grid.half
    c1, c2 = _halves(*v.components)
    return _wrap_like(v.components[0], half.ik1 * c2 - half.ik2 * c1)


def laplacian(f: ScalarField) -> ScalarField:
    """Δf via the −|k|² multiplier."""
    return _wrap_like(f, -f.grid.half.k_sq * _halves(f)[0])


def leray_project(v: VectorField) -> VectorField:
    """P v = v − ∇Δ⁻¹(∇·v); idempotent, self-adjoint, keeps the mean mode."""
    p1, p2 = v.grid.project(*_halves(*v.components))
    return VectorField((_wrap_like(v.components[0], p1), _wrap_like(v.components[1], p2)))


def _convection(half, V, W) -> np.ndarray:
    """Half spectra of (v·∇)w from those of v and w, (2, n, n//2 + 1) each."""
    vs, ws = V * half.mask, W * half.mask
    P = half.to_samples(np.concatenate([vs, half.ik1 * ws, half.ik2 * ws]))
    return half.to_coeffs(P[0] * P[2:4] + P[1] * P[4:6]) * half.mask


def convective_term(v: VectorField, w: VectorField) -> VectorField:
    """(v·∇)w with dealiased physical-space products; returned spectral."""
    if v.grid != w.grid:
        raise ValueError("convective term of fields on different grids")
    grid = v.grid
    out = _convection(grid.half, _halves(*v.components), _halves(*w.components))
    return VectorField((_BandField(grid, out[0]), _BandField(grid, out[1])))


def pressure_gradient(u: VectorField, F) -> VectorField:
    """∇p recovered from the Riesz-transform identity ∇p = (I−P)(F·∇F − u·∇u).

    Warns (without failing) when u or the columns of F are not divergence-free
    to 1e-8; the result is always a mean-zero gradient field.
    """
    grid = u.grid
    C = _halves(*u.components, *F.columns[0].components, *F.columns[1].components)
    for name, drift in zip(("u", "F column 1", "F column 2"), _div_max(grid, C)):
        if drift > 1e-8:
            warnings.warn(f"{name} has divergence sup-norm {drift:.3e} > 1e-8", ConstraintWarning)
    half = grid.half
    N = (_convection(half, C[2:4], C[2:4]) + _convection(half, C[4:6], C[4:6])
         - _convection(half, C[:2], C[:2]))
    p1, p2 = grid.project(*N)
    return VectorField((_wrap_like(u.components[0], N[0] - p1),
                        _wrap_like(u.components[1], N[1] - p2)))


def _div_max(grid, C) -> np.ndarray:
    """Grid sup-norms of ∇·v, one per vector field v, from its half spectra, row
    pairs (0, 1), (2, 3), … of C."""
    half = grid.half
    return np.max(np.abs(half.to_samples(half.ik1 * C[0::2] + half.ik2 * C[1::2])), axis=(1, 2))


def lambda_s(f: ScalarField, s) -> ScalarField:
    """Λˢ f = |k|ˢ f̂ (zero at k = 0), or (1+|k|²)^{s/2} f̂ for the inhomogeneous order."""
    order, k_sq = _order(s), f.grid.half.k_sq
    mult = (1.0 + k_sq) ** (order.s / 2.0) if order.inhomogeneous else _k_power(k_sq, order.s)
    return _wrap_like(f, mult * _halves(f)[0])


def _k_power(k_sq, s):
    """|k|ˢ from |k|², zero at k = 0."""
    return np.power(k_sq, s / 2.0, out=np.zeros_like(k_sq), where=k_sq > 0)


def sobolev_norm(f: ScalarField, s) -> float:
    """Inhomogeneous Sobolev norm ((2π)² Σ_k (1+|k|²)ˢ |f̂(k)|²)^{1/2} = ‖Jˢf‖₂."""
    half = f.grid.half
    return _l2(half, (1.0 + half.k_sq) ** (_order(s).s / 2.0) * _halves(f)[0])


# ---------------------------------------------------------------------------
# Kato–Ponce commutator check
#
# For band-limited f, g the commutator Λˢ(fg) − fΛˢg is evaluated exactly on a
# padded 2n grid (products of n/3-band inputs stay below the padded Nyquist),
# and compared against ‖∇f‖_∞‖Λ^{s−1}g‖₂ + ‖Λˢf‖₂‖g‖_∞.  The bands of the half
# spectra are copied into a band of the 2n half spectrum, so all of it runs on
# real transforms.

@dataclass(frozen=True)
class CommutatorReport:
    """lhs = ‖Λˢ(fg) − fΛˢg‖₂, rhs = the product bound, ratio = lhs/rhs."""

    s: float
    lhs: float
    rhs: float
    ratio: float


def _require_band_limited(half, coeffs, what):
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        return
    out_of_band = float(np.max(np.abs(coeffs * ~half.mask)))
    if out_of_band > 1e-12 * scale:
        raise ValueError(f"{what} carries energy beyond the n/3 dealias band")


@lru_cache(maxsize=8)
def _padded_layer(n, s):
    """The 2n half layer, |k|ˢ on it and on the n/3 band, |k|ˢ⁻¹ on the band; read-only."""
    big = GridSpec(2 * n).half
    lam, lam_low = _k_power(big.k_sq, s), _k_power(big.k_sq[:, :n // 3 + 1], s - 1.0)
    lam.flags.writeable = lam_low.flags.writeable = False
    return big, lam, lam[:, :n // 3 + 1], lam_low


def commutator_check(s, f: ScalarField, g: ScalarField) -> CommutatorReport:
    """Evaluate the Kato–Ponce commutator inequality at (p₁,p₂,p₃,p₄) = (∞,2,2,∞)."""
    order = _order(s)
    if order.s <= 0:
        raise ValueError("commutator check needs s > 0")
    if f.grid != g.grid:
        raise ValueError("commutator operands live on different grids")
    grid = f.grid
    both = _halves(f, g)
    for coeffs, what in zip(both, "fg"):
        _require_band_limited(grid.half, coeffs, what)

    big, lam, lam_b, lam_low = _padded_layer(grid.n, order.s)
    b = grid.dealias_limit
    rows = np.r_[0:b + 1, -b:0]                 # k₁ = 0 … b, −b … −1 on either grid
    pad = np.zeros((2, big.n, b + 1), dtype=np.complex128)
    pad[:, rows] = both[:, rows, :b + 1]
    pf, pg = pad
    fs, gs, lam_gs, d1f, d2f = big.to_samples(
        np.stack([pf, pg, lam_b * pg, big.ik1 * pf, big.ik2[:, :b + 1] * pf]))
    prod = big.to_coeffs(np.stack([fs * gs, fs * lam_gs]))
    lhs = _l2(big, lam * prod[0] - prod[1])
    rhs = (float(np.max(np.hypot(d1f, d2f))) * _l2(big, lam_low * pg)
           + _l2(big, lam_b * pf) * float(np.max(np.abs(gs))))

    if rhs == 0.0:
        if lhs > 1e-10:
            raise InequalityViolationError(
                f"commutator bound degenerate: rhs = 0 with lhs = {lhs:.3e}")
        return CommutatorReport(order.s, lhs, rhs, 0.0)
    return CommutatorReport(order.s, lhs, rhs, lhs / rhs)
