"""Spectral differential and singular-integral operators on the torus.

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
    TAU,
    GridSpec,
    ScalarField,
    TensorField,
    VectorField,
    ensure_spectral,
    _half_columns,
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


def _wrap_like(template: ScalarField, coeffs) -> ScalarField:
    """Return coeffs as a field in the same representation as template."""
    grid = template.grid
    if template.is_physical:
        return ScalarField.from_samples(grid, grid.to_samples(coeffs))
    return ScalarField.from_spectrum(grid, coeffs)


def gradient(f):
    """∇f for a scalar, or the Jacobian (entry (i,j) = ∂ⱼfᵢ) for a vector.

    The result matches the input representation.
    """
    if isinstance(f, VectorField):
        rows = [gradient(c) for c in f.components]
        col = lambda j: VectorField((rows[0].components[j], rows[1].components[j]))
        return TensorField.from_columns(col(0), col(1))
    grid = f.grid
    c = ensure_spectral(f)
    return VectorField((_wrap_like(f, grid.ik1 * c), _wrap_like(f, grid.ik2 * c)))


def divergence(v: VectorField) -> ScalarField:
    """∇·v; the result matches the input representation."""
    grid = v.grid
    c1 = ensure_spectral(v.components[0])
    c2 = ensure_spectral(v.components[1])
    return _wrap_like(v.components[0], grid.ik1 * c1 + grid.ik2 * c2)


def curl(v: VectorField) -> ScalarField:
    """Scalar curl ∂₁v₂ − ∂₂v₁ of a planar vector field."""
    grid = v.grid
    c1 = ensure_spectral(v.components[0])
    c2 = ensure_spectral(v.components[1])
    return _wrap_like(v.components[0], grid.ik1 * c2 - grid.ik2 * c1)


def laplacian(f: ScalarField) -> ScalarField:
    """Δf via the −|k|² multiplier."""
    return _wrap_like(f, -f.grid.k_sq * ensure_spectral(f))


def leray_project(v: VectorField) -> VectorField:
    """P v = v − ∇Δ⁻¹(∇·v); idempotent, self-adjoint, keeps the mean mode."""
    grid = v.grid
    c1 = ensure_spectral(v.components[0])
    c2 = ensure_spectral(v.components[1])
    p1, p2 = grid.project(c1, c2)
    return VectorField((_wrap_like(v.components[0], p1), _wrap_like(v.components[1], p2)))


def convective_term(v: VectorField, w: VectorField) -> VectorField:
    """(v·∇)w with dealiased physical-space products; returned spectral."""
    if v.grid != w.grid:
        raise ValueError("convective term of fields on different grids")
    grid = v.grid
    mask = grid.dealias_mask
    vs = np.stack([ensure_spectral(c) for c in v.components]) * mask
    ws = np.stack([ensure_spectral(c) for c in w.components]) * mask
    P = grid.to_samples(np.concatenate([vs, grid.ik1 * ws, grid.ik2 * ws]))
    out = grid.to_coeffs(P[0] * P[2:4] + P[1] * P[4:6]) * mask
    return VectorField.from_spectra(grid, out[0], out[1])


def pressure_gradient(u: VectorField, F) -> VectorField:
    """∇p recovered from the Riesz-transform identity ∇p = (I−P)(F·∇F − u·∇u).

    Warns (without failing) when u or the columns of F are not divergence-free
    to 1e-8; the result is always a mean-zero gradient field.
    """
    grid = u.grid
    for name, drift in zip(("u", "F column 1", "F column 2"), _div_max([u, *F.columns])):
        if drift > 1e-8:
            warnings.warn(f"{name} has divergence sup-norm {drift:.3e} > 1e-8", ConstraintWarning)
    adv = convective_term(u, u)
    n1 = np.zeros((grid.n, grid.n), dtype=np.complex128)
    n2 = np.zeros_like(n1)
    for col in F.columns:
        el = convective_term(col, col)
        n1 += ensure_spectral(el.components[0])
        n2 += ensure_spectral(el.components[1])
    n1 -= ensure_spectral(adv.components[0])
    n2 -= ensure_spectral(adv.components[1])
    p1, p2 = grid.project(n1, n2)
    return VectorField((_wrap_like(u.components[0], n1 - p1),
                        _wrap_like(u.components[1], n2 - p2)))


def _div_max(vectors) -> np.ndarray:
    """Grid sup-norms of ∇·v, one per vector field v, from half spectra."""
    half = vectors[0].grid.half
    C = _half_columns([c for v in vectors for c in v.components], half.m)
    return np.max(np.abs(half.to_samples(half.ik1 * C[0::2] + half.ik2 * C[1::2])), axis=(1, 2))


def lambda_s(f: ScalarField, s) -> ScalarField:
    """Λˢ f = |k|ˢ f̂ (zero at k = 0), or (1+|k|²)^{s/2} f̂ for the inhomogeneous order."""
    order = _order(s)
    grid = f.grid
    c = ensure_spectral(f)
    if order.inhomogeneous:
        mult = (1.0 + grid.k_sq) ** (order.s / 2.0)
    else:
        mult = _k_power(grid.k_sq, order.s)
    return _wrap_like(f, mult * c)


def _k_power(k_sq, s):
    """|k|ˢ from |k|², zero at k = 0."""
    return np.power(k_sq, s / 2.0, out=np.zeros_like(k_sq), where=k_sq > 0)


def sobolev_norm(f: ScalarField, s) -> float:
    """Inhomogeneous Sobolev norm ((2π)² Σ_k (1+|k|²)ˢ |f̂(k)|²)^{1/2}."""
    order = _order(s)
    c = ensure_spectral(f)
    return float(TAU * np.sqrt(np.sum((1.0 + f.grid.k_sq) ** order.s * np.abs(c) ** 2)))


# ---------------------------------------------------------------------------
# Kato–Ponce commutator check
#
# For band-limited f, g the commutator Λˢ(fg) − fΛˢg is evaluated exactly on a
# padded 2n grid (products of n/3-band inputs stay below the padded Nyquist),
# and compared against ‖∇f‖_∞‖Λ^{s−1}g‖₂ + ‖Λˢf‖₂‖g‖_∞.  The bands are copied
# into a band of the 2n half spectrum, so all of it runs on real transforms.

@dataclass(frozen=True)
class CommutatorReport:
    """lhs = ‖Λˢ(fg) − fΛˢg‖₂, rhs = the product bound, ratio = lhs/rhs."""

    s: float
    lhs: float
    rhs: float
    ratio: float


def _l2(half, coeffs):
    """L² norm on the torus of a half spectrum or band (Parseval, mirror columns counted)."""
    return float(TAU * np.sqrt(np.sum(half.weight[:, :coeffs.shape[-1]] * np.abs(coeffs) ** 2)))


def _require_band_limited(grid, coeffs, what):
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        return
    out_of_band = float(np.max(np.abs(coeffs * ~grid.dealias_mask)))
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
    cf = ensure_spectral(f)
    cg = ensure_spectral(g)
    _require_band_limited(grid, cf, "f")
    _require_band_limited(grid, cg, "g")

    both = np.stack([cf, cg])
    grid.to_samples(both)                       # rejects spectra of non-real fields

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
