"""Runtime diagnostics and regularity certificates.

Every solver step can be condensed into a DiagnosticsRecord: norms of u and F,
the accumulated Beale–Kato–Majda integral ∫₀ᵗ ‖∇u‖_∞ ds, the viscous
dissipation 2ν∫₀ᵗ ‖∇u‖₂² ds, curl monitors, and constraint drifts.  Records
are plain rows of floats, round-trippable through CSV.  The certificate functions
below consume records, the forced flag and the tolerances; a diagnostics file holds
only the records, so offline verdicts need the other two given again.

A record is computed one way, from a spectral block of the six channels and
their samples: a public State is read as its half spectra, unmasked; the
solver hands over its dealiased band and the samples its next step reuses,
so a run builds no State for a record.  The 12 gradient planes are
transformed two and reduced four at a time, in a scratch a run keeps (its
workspace lends the planes), so a run's records allocate no array.

This module owns certificate policy: which certificates exist and in what
order (certificate_reports), their default tolerances (*_TOLERANCE) and their
verdicts.  A strict run halts on the first certificate that fails on [first
record, latest record]; each verdict compares one record with the first, so
strict, post-run and offline (criterion-report) verdicts agree.

Conventions baked into the record fields:

* h1_* are homogeneous seminorms ‖∇·‖₂ and h2_* are ‖Δ·‖₂;
* linf_gradu is the grid sup of the pointwise operator norm (largest singular
  value) of the velocity Jacobian — with that choice the transport bound
  ‖F(·,k)(t)‖_p ≤ ‖F(·,k)(0)‖_p · exp(∫₀ᵗ ‖∇u‖_∞) holds with constant exactly 1
  column-wise for every p ∈ [2, ∞];
* linf_curl_F is the larger of the two column curls (Hu–Hynd style monitor);
* accumulated integrals use the trapezoid rule on the record times;
* l2_ut is a backward difference ‖(u(t) − u(t_prev))/Δt‖₂, zero on the first
  record.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import TAU, GridSpec, _half_columns

__all__ = [
    "DiagnosticsRecord", "DiagnosticsEngine", "CertificateReport", "BkmReport",
    "record", "energy_certificate", "lp_growth_certificate",
    "h1_growth_certificate", "bkm_report", "curl_report", "certificate_reports",
    "certificate_bundle", "relative_difference", "write_records_csv", "read_records_csv",
    "CSV_FIELDS",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    l2_u: float
    l2_F: float
    h1_u: float
    h1_F: float
    h2_u: float
    h2_F: float
    h2s_gradu: float          # ‖∇u‖_{H²} (inhomogeneous), instantaneous
    lp2_F: float
    lp4_F: float
    lp6_F: float
    lpinf_F: float
    lp2_F_c1: float
    lp4_F_c1: float
    lp6_F_c1: float
    lpinf_F_c1: float
    lp2_F_c2: float
    lp4_F_c2: float
    lp6_F_c2: float
    lpinf_F_c2: float
    l6_gradF: float
    linf_gradu: float
    linf_curl_u: float
    linf_curl_F: float
    l2_ut: float
    bkm: float                # ∫₀ᵗ ‖∇u‖_∞ ds
    visc: float               # 2ν ∫₀ᵗ ‖∇u‖₂² ds
    hs2_gradu_int: float      # ∫₀ᵗ ‖∇u‖²_{H²} ds
    e0: float                 # initial ‖u‖₂² + ‖F‖₂²
    energy_residual: float    # |‖u‖₂² + ‖F‖₂² + visc − e0| / e0
    div_drift_u: float
    div_drift_F: float

    def lp_F(self, p) -> float:
        """Look up ‖F‖_p for p ∈ {2, 4, 6, ∞}."""
        return getattr(self, _lp_field(p, None))

    def lp_F_column(self, p, k) -> float:
        """Look up ‖F(·,k)‖_p for column k ∈ {1, 2}."""
        return getattr(self, _lp_field(p, k))


CSV_FIELDS = [f.name for f in dataclasses.fields(DiagnosticsRecord)]

# default certificate tolerances, for a run (SolverConfig) and offline alike
ENERGY_TOLERANCE = 1e-5
LP_TOLERANCE = 1e-7
DIVERGENCE_TOLERANCE = 1e-8


def _lp_field(p, column):
    stem = {2: "lp2_F", 4: "lp4_F", 6: "lp6_F", math.inf: "lpinf_F", "inf": "lpinf_F"}.get(p)
    if stem is None:
        raise ValueError(f"recorded Lᵖ norms cover p in {{2, 4, 6, inf}}, got {p!r}")
    return stem if column is None else f"{stem}_c{column}"


def _require_finite(name, value, positive):
    """Raise ValueError unless value is finite and > 0 (positive) or >= 0."""
    if not np.isfinite(value) or value < 0 or (positive and value == 0):
        raise ValueError(f"{name} must be finite and {'> 0' if positive else '>= 0'}, got {value}")


def _require_count(name, value, least):
    """Raise ValueError unless value is an integer >= least (a bool is not one; a float would run)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _norms(scratch, coeffs, *weights):
    """TAU·√Σ power·w for each weight w (None: 1) on the whole (n, n//2+1) half, power the
    Parseval-weighted power spectrum Σ weight·|ĉ|² of a (…, n, w) stack of half spectra or
    bands, summed over the stack in its order: a band's missing columns are zero there, so
    a norm sums the same terms in the same order for both.  In scratch's planes."""
    (n, m), width = scratch.weight.shape, coeffs.shape[-1]
    buf = scratch.planes.reshape(-1)
    power, tmp = buf[:2 * n * m].reshape(2, n, m)
    acc, sq, im = buf[2 * n * m:n * (2 * m + 3 * width)].reshape(3, n, width)
    acc[...] = 0.0
    for c in coeffs:
        acc += np.add(np.multiply(c.real, c.real, out=sq), np.multiply(c.imag, c.imag, out=im),
                      out=sq)
    power[:, :width] = acc
    power[:, width:] = 0.0
    power *= scratch.weight
    return [TAU * math.sqrt(float(np.sum(power if w is None else np.multiply(power, w, out=tmp))))
            for w in weights]


class _Scratch:
    """What the records of a run overwrite, and the multipliers they take, for spectral
    blocks of width w on one grid: float planes (4, n, n) and T (2, n, n), which the
    solver lends from its workspace, and a complex block D (2, n, w); ik₁ and ik₂ on
    (n, w), and the Parseval weight and the norm weights k², k⁴ and (1 + k²)²k² on the
    half.  The multipliers are contiguous and of the shapes they meet, as a ufunc
    that broadcasts fills numpy's iteration buffers."""

    def __init__(self, grid, width, planes=None, T=None):
        half, n = grid.half, grid.n
        self.planes = np.empty((4, n, n)) if planes is None else planes
        self.T = np.empty((2, n, n)) if T is None else T
        self.D = np.empty((2, n, width), dtype=np.complex128)
        self.ik1, self.ik2, self.weight = (np.ascontiguousarray(a[:, :w]) for a, w in zip(
            np.broadcast_arrays(half.ik1, half.ik2, half.weight), (width, width, half.m)))
        ksq = self.ksq = np.ascontiguousarray(half.k_sq)
        self.k4, self.kh2s = ksq * ksq, (1.0 + ksq) ** 2 * ksq


def _lp_norms(grid, sq, tmp):
    """(‖f‖₂, ‖f‖₄, ‖f‖₆, ‖f‖_∞) of the pointwise magnitude √sq, from sq = |f|²; tmp is overwritten."""
    h2 = (TAU / grid.n) ** 2
    sq2 = np.multiply(sq, sq, out=tmp)
    sum4 = float(np.sum(sq2))
    return (math.sqrt(h2 * float(np.sum(sq))), (h2 * sum4) ** 0.25,
            (h2 * float(np.sum(np.multiply(sq2, sq, out=tmp)))) ** (1.0 / 6.0),
            math.sqrt(float(np.max(sq))))


def _sup(plane) -> float:
    """max |plane|, with no temporary."""
    return max(float(np.max(plane)), -float(np.min(plane)))


def _square_sum(x, y):
    """x² + y², into x; y is overwritten."""
    x *= x
    return np.add(x, np.multiply(y, y, out=y), out=x)


@dataclass(frozen=True, eq=False)
class _Packed:
    """A state as record() reads it: at time t, the spectral block Z (6, n, w) of
    State.channels, the samples P (6, n, n) of the same channels, and the _Scratch
    of its width.  The solver hands over its (6, n, n//3+1) band, the samples its next
    step reuses and the scratch of its run."""

    grid: GridSpec
    t: float
    Z: np.ndarray
    P: np.ndarray
    scratch: _Scratch


def _packed(state) -> _Packed:
    """A State as its (6, n, n//2+1) half spectra, unmasked, and their samples; a _Packed as it is."""
    if isinstance(state, _Packed):
        return state
    half = state.grid.half
    Z = _half_columns(state.channels, half.m)
    return _Packed(state.grid, float(state.t), Z, half.to_samples(Z), _Scratch(state.grid, half.m))


def _gradient_sups(grid, Z, scratch):
    """(linf_gradu, linf_curl_u, div_drift_u, l6_gradF, linf_curl_F, div_drift_F) of a
    spectral block Z (6, n, w), from its 12 gradient planes, reduced four at a time
    in the _Scratch's planes, through its D and T."""
    half, T, D = grid.half, scratch.T, scratch.D

    def gradients(rows):
        """∂₁r, ∂₂r of each of two spectral rows r, in that order, a row at a time: D
        holds its two multiplied copies and then their transform's k₁ pass."""
        for row, planes in zip(rows, (scratch.planes[:2], scratch.planes[2:])):
            np.multiply(scratch.ik1, row, out=D[0])
            np.multiply(scratch.ik2, row, out=D[1])
            half.to_samples(D, out=planes, tmp=D)
        return scratch.planes

    # sup of the Jacobian operator norm.  For [[a, b], [c, d]] = ∇u (∂ⱼuᵢ),
    # σ_max = (|(a+d, c−b)| + |(a−d, b+c)|)/2; unlike the root of
    # (T + √(T² − 4 det²))/2 it stays accurate where both singular values meet
    # (there the inner root turns roundoff of order ε into an error of √ε).
    # |(x, y)| is √(x² + y²), a few times faster than np.hypot and within an
    # ulp or two of it; x² overflows only past 1e154, far beyond gradu_ceiling
    a, b, c, d = gradients(Z[:2])
    div, curl = np.add(a, d, out=T[0]), np.subtract(c, b, out=T[1])
    div_drift_u, linf_curl_u = _sup(div), _sup(curl)
    sigma = np.sqrt(_square_sum(div, curl), out=div)
    sigma += np.sqrt(_square_sum(np.subtract(a, d, out=a), np.add(b, c, out=b)), out=a)
    linf_gradu = 0.5 * float(np.max(sigma))

    # per column k: ∂₁F₁ₖ, ∂₂F₁ₖ, ∂₁F₂ₖ, ∂₂F₂ₖ; |∇F|² summed over both columns
    gradF_sq, curl_F, div_F = T[0], [], []
    gradF_sq[...] = 0.0
    for rows in (Z[2:4], Z[4:6]):
        p, q, r, s = gradients(rows)
        curl_F.append(_sup(np.subtract(r, q, out=T[1])))
        div_F.append(_sup(np.add(p, s, out=T[1])))
        gradF_sq += _square_sum(p, q)       # (∂₁F_ik)² + (∂₂F_ik)², i = 1, 2
        gradF_sq += _square_sum(r, s)
    l6_gradF = _lp_norms(grid, gradF_sq, T[1])[2]
    return linf_gradu, linf_curl_u, div_drift_u, l6_gradF, max(curl_F), max(div_F)


def record(state, prior: Optional[DiagnosticsRecord] = None, dt_since_prior: float = 0.0,
           nu: float = 0.0, prior_state=None, *, prior_u=None) -> DiagnosticsRecord:
    """Condense a solver state into one diagnostics row.

    When prior is given, dt_since_prior must be the (positive) time elapsed
    since it; the accumulated integrals extend the prior's by one trapezoid.
    l2_ut needs the prior velocity: prior_state, or prior_u, the spectra of
    its u as (2, n, n//2+1) half spectra or the solver's (2, n, n//3+1) band.

    A State is read as its half spectra, not masked to the dealiased band, so
    a state that is not dealiased is condensed as it is.
    """
    if prior is not None and dt_since_prior <= 0.0:
        raise ValueError("dt_since_prior must be positive when a prior record is given")
    view = _packed(state)
    grid, Z, scratch = view.grid, view.Z, view.scratch
    half = grid.half
    n, width = half.n, Z.shape[-1]
    hu = Z[:2]

    # Sobolev norms from one power spectrum per block, in the scratch planes
    ksq, k4 = scratch.ksq, scratch.k4
    l2_u, h1_u, h2_u, h2s_gradu = _norms(scratch, hu, None, ksq, k4, scratch.kh2s)
    l2_F, h1_F, h2_F = _norms(scratch, Z[2:], None, ksq, k4)

    # Lᵖ norms of F, whole and by column, from its samples F₁₁, F₂₁, F₁₂, F₂₂
    c1, c2, total, tmp = scratch.planes
    F11, F21, F12, F22 = view.P[2:]
    np.add(np.multiply(F11, F11, out=c1), np.multiply(F21, F21, out=tmp), out=c1)
    np.add(np.multiply(F12, F12, out=c2), np.multiply(F22, F22, out=tmp), out=c2)
    lp = _lp_norms(grid, np.add(c1, c2, out=total), tmp)
    lp_c = [_lp_norms(grid, c, tmp) for c in (c1, c2)]

    (linf_gradu, linf_curl_u, div_drift_u,
     l6_gradF, linf_curl_F, div_drift_F) = _gradient_sups(grid, Z, scratch)

    if prior is None:
        bkm = 0.0
        visc = 0.0
        hs2_int = 0.0
        e0 = l2_u ** 2 + l2_F ** 2
        l2_ut = 0.0
    else:
        dt = dt_since_prior
        bkm = prior.bkm + 0.5 * dt * (prior.linf_gradu + linf_gradu)
        visc = prior.visc + nu * dt * (prior.h1_u ** 2 + h1_u ** 2)
        hs2_int = prior.hs2_gradu_int + 0.5 * dt * (prior.h2s_gradu ** 2 + h2s_gradu ** 2)
        e0 = prior.e0
        if prior_state is not None:
            prior_u = _half_columns(prior_state.u.components, half.m)
        l2_ut = 0.0
        if prior_u is not None:     # u − prior u, in D; a band's missing columns are zero
            cols = max(width, prior_u.shape[-1])        # wider: a band and half spectra
            diff = scratch.D if cols == width else np.empty((2, n, cols), dtype=np.complex128)
            diff[..., :width] = hu
            diff[..., width:] = 0.0
            diff[..., :prior_u.shape[-1]] -= prior_u
            l2_ut = _norms(scratch, diff, None)[0] / dt

    energy_now = l2_u ** 2 + l2_F ** 2
    energy_residual = abs(energy_now + visc - e0) / e0 if e0 > 0 else 0.0

    return DiagnosticsRecord(
        t=view.t, l2_u=l2_u, l2_F=l2_F, h1_u=h1_u, h1_F=h1_F,
        h2_u=h2_u, h2_F=h2_F, h2s_gradu=h2s_gradu,
        lp2_F=lp[0], lp4_F=lp[1], lp6_F=lp[2], lpinf_F=lp[3],
        lp2_F_c1=lp_c[0][0], lp4_F_c1=lp_c[0][1], lp6_F_c1=lp_c[0][2], lpinf_F_c1=lp_c[0][3],
        lp2_F_c2=lp_c[1][0], lp4_F_c2=lp_c[1][1], lp6_F_c2=lp_c[1][2], lpinf_F_c2=lp_c[1][3],
        l6_gradF=l6_gradF, linf_gradu=linf_gradu,
        linf_curl_u=linf_curl_u, linf_curl_F=linf_curl_F, l2_ut=l2_ut,
        bkm=bkm, visc=visc, hs2_gradu_int=hs2_int, e0=e0,
        energy_residual=energy_residual,
        div_drift_u=div_drift_u, div_drift_F=div_drift_F,
    )


class DiagnosticsEngine:
    """Stateful wrapper around record() that threads accumulators through a run.

    It keeps the last record and a copy of its u spectra, not its State: the
    half spectra of an observed State, or the (2, n, n//3+1) band of a
    solver's state, in one buffer that later records overwrite.
    """

    def __init__(self, nu: float):
        self.nu = float(nu)
        self._prior = None
        self._prior_u = None

    def observe(self, state) -> DiagnosticsRecord:
        view = _packed(state)
        dt = 0.0 if self._prior is None else view.t - self._prior.t
        rec = record(view, prior=self._prior, dt_since_prior=dt,
                     nu=self.nu, prior_u=self._prior_u)
        self._prior = rec
        if self._prior_u is None or self._prior_u.shape != view.Z[:2].shape:
            self._prior_u = np.empty_like(view.Z[:2])
        self._prior_u[...] = view.Z[:2]
        return rec


def curl_report(state):
    """(‖∇×u‖_∞, max column ‖∇×F(·,k)‖_∞) for a single state."""
    rec = record(state)
    return rec.linf_curl_u, rec.linf_curl_F


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate: margin is bound minus observed (normalized)."""

    name: str
    satisfied: bool
    margin: float
    worst_t: float
    applicable: bool = True
    fitted_constant: Optional[float] = None


@dataclass(frozen=True)
class BkmReport:
    """Accumulated ∫‖∇u‖_∞ and, when growth is monotone, a blowup-time estimate."""

    integral: float
    t_star_estimate: Optional[float]
    window: int


def energy_certificate(records: Sequence[DiagnosticsRecord], tolerance: float = ENERGY_TOLERANCE,
                       applicable: bool = True) -> CertificateReport:
    """Check |‖u‖₂² + ‖F‖₂² + 2ν∫‖∇u‖₂² − E₀| / E₀ ≤ tolerance at every record.

    Marked not-applicable (and trivially satisfied) for forced runs, where the
    identity does not hold.
    """
    if not records:
        raise ValueError("energy certificate needs at least one record")
    if not applicable:
        return CertificateReport("energy-identity", True, 0.0, records[0].t, applicable=False)
    resid = lambda r: abs(r.l2_u ** 2 + r.l2_F ** 2 + r.visc - r.e0) / r.e0 if r.e0 > 0 else 0.0
    worst = max(records, key=resid)     # the first of the largest
    return CertificateReport("energy-identity", resid(worst) <= tolerance,
                             tolerance - resid(worst), worst.t)


def lp_growth_certificate(records: Sequence[DiagnosticsRecord], p,
                          tolerance: float = LP_TOLERANCE) -> CertificateReport:
    """Column-wise transport bound log‖F(·,k)(t)‖_p − log‖F(·,k)(0)‖_p ≤ ∫₀ᵗ‖∇u‖_∞.

    The margin is the smallest log-slack over both columns and all records
    after the first; satisfied when it stays above −tolerance.
    """
    if not records:
        raise ValueError("Lᵖ growth certificate needs at least one record")
    p_val = math.inf if p in ("inf", math.inf) else p
    name = f"lp-growth-p{'inf' if p_val == math.inf else p_val}"
    margin = math.inf
    worst_t = records[0].t
    first = records[0]
    for rec in records[1:]:
        for k in (1, 2):
            norm0 = first.lp_F_column(p_val, k)
            norm_t = rec.lp_F_column(p_val, k)
            if norm0 <= 0.0:
                if norm_t > 1e-13:
                    return CertificateReport(name, False, -math.inf, rec.t)
                continue
            slack = (math.log(norm0) + rec.bkm) - math.log(norm_t)
            if slack < margin:
                margin = slack
                worst_t = rec.t
    if margin == math.inf:  # degenerate history (single record or zero columns)
        margin = 0.0
    return CertificateReport(name, margin >= -tolerance, margin, worst_t)


def h1_growth_certificate(records: Sequence[DiagnosticsRecord]) -> CertificateReport:
    """Fit the Gronwall envelope ‖∇u‖₂² + ‖∇F‖₂² ≤ H₀² exp(C_obs ∫‖∇u‖_∞).

    C_obs is the smallest constant making the bound hold over the whole record
    history (clamped at 0 for decaying flows); the certificate is satisfied
    when C_obs is finite.  Stability of C_obs under grid refinement is what
    certifies the envelope — compare fitted_constant across runs.
    """
    if not records:
        raise ValueError("H¹ certificate needs at least one record")
    first = records[0]
    h0 = first.h1_u ** 2 + first.h1_F ** 2
    c_obs = 0.0
    worst_t = first.t
    for rec in records[1:]:
        h_now = rec.h1_u ** 2 + rec.h1_F ** 2
        if rec.bkm <= 1e-14:
            continue
        if h0 <= 0.0:
            if h_now > 1e-20:
                c_obs = math.inf
                worst_t = rec.t
                break
            continue
        cand = math.log(h_now / h0) / rec.bkm
        if cand > c_obs:
            c_obs = cand
            worst_t = rec.t
    return CertificateReport("h1-gronwall", math.isfinite(c_obs), c_obs, worst_t,
                             fitted_constant=c_obs)


def bkm_report(records: Sequence[DiagnosticsRecord], window: int = 10) -> BkmReport:
    """Report ∫₀ᵗ‖∇u‖_∞ and extrapolate a blowup time from 1/‖∇u‖_∞ when it shrinks.

    The estimate fits a line to 1/‖∇u‖_∞ over the last `window` records and
    returns its root; it is None unless ‖∇u‖_∞ grew strictly monotonically
    there and the fitted line actually crosses zero ahead of the data.
    A window that is not an integer of at least 2 cannot fit a line and raises ValueError.
    """
    _require_count("blowup-time extrapolation window", window, 2)
    if len(records) < 3:
        raise ValueError("blowup-time extrapolation needs at least 3 records")
    w = min(window, len(records))
    seg = records[-w:]
    vals = np.array([r.linf_gradu for r in seg])
    times = np.array([r.t for r in seg])
    integral = records[-1].bkm
    if np.any(vals <= 0.0) or np.any(np.diff(vals) <= 0.0):
        return BkmReport(integral, None, w)
    slope, intercept = np.polyfit(times, 1.0 / vals, 1)
    if slope >= 0.0:
        return BkmReport(integral, None, w)
    root = -intercept / slope
    if root <= times[-1]:
        return BkmReport(integral, None, w)
    return BkmReport(integral, float(root), w)


def relative_difference(a: float, b: float) -> float:
    """|a − b| / max(|a|, |b|), zero when both vanish."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def certificate_reports(records: Sequence[DiagnosticsRecord], forced: bool = False,
                        energy_tolerance: float = ENERGY_TOLERANCE,
                        lp_tolerance: float = LP_TOLERANCE,
                        divergence_tolerance: float = DIVERGENCE_TOLERANCE) -> list:
    """Every certificate's report, in order: energy, Lᵖ growth for p = 2, 4, 6, ∞,
    H¹ Gronwall, divergence.

    forced marks the energy identity not-applicable.  Each tolerance must be
    finite and >= 0.
    """
    for name, value in (("energy_tolerance", energy_tolerance), ("lp_tolerance", lp_tolerance),
                        ("divergence_tolerance", divergence_tolerance)):
        _require_finite(name, value, positive=False)
    reports = [energy_certificate(records, energy_tolerance, applicable=not forced)]
    for p in (2, 4, 6, math.inf):
        reports.append(lp_growth_certificate(records, p, lp_tolerance))
    reports.append(h1_growth_certificate(records))
    drift = lambda r: max(r.div_drift_u, r.div_drift_F)
    worst = max(records, key=drift)
    reports.append(CertificateReport("divergence-constraint",
                                     drift(worst) <= divergence_tolerance,
                                     divergence_tolerance - drift(worst), worst.t))
    return reports


def certificate_bundle(records: Sequence[DiagnosticsRecord], forced: bool = False,
                       **tolerances) -> dict:
    """certificate_reports(records, forced, **tolerances) plus the BKM report, as one
    JSON-ready dictionary.

    Consumes these inputs only, so it reproduces the in-run verdicts exactly from a
    diagnostics CSV and the run's forced flag and tolerances, which the CSV lacks.
    """
    reports = certificate_reports(records, forced, **tolerances)
    bkm = (bkm_report(records) if len(records) >= 3
           else BkmReport(records[-1].bkm, None, len(records)))
    return {"certificates": [dataclasses.asdict(r) for r in reports],
            "bkm": dataclasses.asdict(bkm)}


# ---------------------------------------------------------------------------
# CSV round trip (full float precision via repr)

def write_records_csv(path, records: Sequence[DiagnosticsRecord]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for rec in records:
            writer.writerow([repr(float(getattr(rec, name))) for name in CSV_FIELDS])


def read_records_csv(path):
    """Records of a diagnostics CSV; every row, the last included, must end in a
    line end, as written, so a file cut inside its last row is rejected."""
    with open(path, newline="") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise ValueError("diagnostics CSV is empty" if not text else
                         "diagnostics CSV is truncated: its last row has no line end")
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise ValueError(f"diagnostics CSV does not parse: {exc}") from None
    if rows[0] != CSV_FIELDS:
        raise ValueError("diagnostics CSV header does not match the record schema")
    records = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_FIELDS):
            raise ValueError(f"diagnostics CSV row has {len(row)} columns, "
                             f"expected {len(CSV_FIELDS)}")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"diagnostics CSV has a non-numeric entry: {exc}") from None
        bad = [name for name, v in zip(CSV_FIELDS, values) if not math.isfinite(v)]
        if bad:     # a run's records are finite, and NaN passes every comparison
            raise ValueError(f"diagnostics CSV has non-finite {', '.join(bad)} on line {line}")
        records.append(DiagnosticsRecord(**dict(zip(CSV_FIELDS, values))))
    return records
