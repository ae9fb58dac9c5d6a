"""Closed-form reference solutions and manufactured-solution generators.

The centerpiece is the Zhao–Guo–Huang family of exact self-similar solutions
with spatially linear velocity and constant-in-space deformation,

    u(t, x) = a(t) (x₁, −x₂),     a(t) = f₀ / (1 − c f₀ t),   c = (α+β)/(α−β),
    F(t)    = diag(|1 − c f₀ t|^{−1/c}, |1 − c f₀ t|^{1/c}),
    p(t, x) = a(t)² (α x₁² − β x₂²) / (β − α),

which blows up at t* = 1/(c f₀) when c f₀ > 0 and makes ∫₀ᵀ ‖∇u‖_∞ dt
integrable in closed form — the ideal oracle for the BKM accumulator and the
blowup-time extrapolator.  The published display of the family carries two
typos (a velocity sign that breaks incompressibility and a reciprocal exponent
on F₂₂); the corrected fields above annihilate the equations to machine
precision, and the printed variant stays available behind fidelity="printed"
so the defect itself can be demonstrated.

The module also provides the spatially-linear ODE reduction
dF/dt = diag(a(t), −a(t)) F stepped with RK4, synthetic diagnostics histories
of the family, the checks of `vspc verify-exact` (zgh_checks), and manufactured
solutions with exact forcing for convergence studies of the full solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .fields import GridSpec, TensorField, TAU
from . import solver as _solver
from .diagnostics import DiagnosticsRecord
from .flowmap import _rk4

__all__ = [
    "ZghParams", "ZghFields", "ZghResidual", "PoleError", "zgh_fields",
    "zgh_residual", "zgh_bkm_integral", "zgh_amplitude", "zgh_synthetic_history",
    "zgh_scaled_residual", "zgh_checks", "LinearProfileState", "ode_reduce_step",
    "Manufactured", "manufactured",
]


class PoleError(ArithmeticError):
    """Evaluation at (or past) the blowup time of the family."""


@dataclass(frozen=True)
class ZghParams:
    """Exponents α ≠ ±β and amplitude f₀ of the self-similar family."""

    alpha: float
    beta: float
    f0: float

    def __post_init__(self):
        scale = max(abs(self.alpha), abs(self.beta), 1.0)
        if abs(self.alpha + self.beta) <= 1e-12 * scale:
            raise ValueError("parameters need alpha + beta != 0")
        if abs(self.alpha - self.beta) <= 1e-12 * scale:
            raise ValueError("parameters need alpha - beta != 0")
        for name, v in (("alpha", self.alpha), ("beta", self.beta), ("f0", self.f0)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
        cf = self.c * self.f0
        if self.f0 != 0.0 and not (math.isfinite(cf) and cf != 0.0 and math.isfinite(1.0 / cf)):
            raise ValueError(f"f0 = {self.f0:g} is out of range: c·f0 = {cf:g} and the pole "
                             f"time 1/(c·f0) must both be finite and non-zero")

    @cached_property            # derived once: `_denominator` reads them at every amplitude call
    def c(self) -> float:
        return (self.alpha + self.beta) / (self.alpha - self.beta)

    @cached_property
    def blows_up(self) -> bool:
        return self.c * self.f0 > 0

    @cached_property
    def t_star(self) -> float:
        """Blowup time 1/(c f₀); +inf when the amplitude never diverges."""
        return 1.0 / (self.c * self.f0) if self.blows_up else math.inf


@dataclass(frozen=True)
class ZghFields:
    """Snapshot of the family: ∇u, F (both 2×2) and the quadratic-pressure coefficients."""

    t: float
    gradu: np.ndarray
    F: np.ndarray
    pressure_coeffs: np.ndarray   # p = coeffs[0] x₁² + coeffs[1] x₂²


@dataclass(frozen=True)
class ZghResidual:
    """Equation residuals at sample points: momentum rows, the (constant) deformation residual, div u."""

    momentum: np.ndarray     # (N, 2)
    deformation: np.ndarray  # (2, 2)
    div_u: float


def _signs_and_exponents(p: ZghParams, fidelity: str):
    c = p.c
    if fidelity == "corrected":
        return (1.0, -1.0), (-1.0 / c, 1.0 / c)
    if fidelity == "printed":
        return (1.0, 1.0), (-1.0 / c, c)
    raise ValueError(f"fidelity must be 'corrected' or 'printed', got {fidelity!r}")


def _denominator(p: ZghParams, t: float) -> float:
    g = 1.0 - p.c * p.f0 * t
    if abs(g) < 1e-14:
        raise PoleError(f"the family has its pole at t* = {p.t_star:.6g}; got t = {t:.6g}")
    if p.blows_up and t >= p.t_star:
        raise PoleError(f"t = {t:.6g} is past the blowup time t* = {p.t_star:.6g}")
    return g


def zgh_amplitude(p: ZghParams) -> Callable[[float], float]:
    """The scalar amplitude a(t) = f₀/(1 − c f₀ t) driving the whole family."""
    return lambda t: p.f0 / _denominator(p, t)


def zgh_fields(p: ZghParams, t: float, fidelity: str = "corrected") -> ZghFields:
    """Evaluate ∇u, F and the pressure coefficients at time t."""
    signs, exps = _signs_and_exponents(p, fidelity)
    g = _denominator(p, t)
    a = p.f0 / g
    gradu = np.diag([signs[0] * a, signs[1] * a])
    F = np.diag([abs(g) ** exps[0], abs(g) ** exps[1]])
    coeffs = a * a * np.array([p.alpha, -p.beta]) / (p.beta - p.alpha)
    return ZghFields(float(t), gradu, F, coeffs)


def zgh_residual(p: ZghParams, t: float, x, fidelity: str = "corrected") -> ZghResidual:
    """Insert the family into the inviscid equations at points x (shape (N, 2)).

    The corrected fields give machine-zero rows; the printed variant exhibits
    div u = 2a(t) and a nonzero F₂₂ transport residual for t > 0.
    """
    signs, exps = map(np.array, _signs_and_exponents(p, fidelity))
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    f = zgh_fields(p, t, fidelity)
    a, F = f.gradu[0, 0], np.diag(f.F)     # a(t): the first sign is +1 in either display
    # momentum ∂ₜu + (u·∇)u + ∇p (ν = 0, F·∇F = 0 for constant F), with ∂ₜa = c·a² and
    # u_i ∂_i u_i = (s_i a)² x_i; the deformation residual dF/dt − (∇u) F is constant
    momentum = signs * pts * (p.c * a * a) + pts * a * a + 2.0 * f.pressure_coeffs * pts
    deformation = np.diag(-exps * p.c * a * F - signs * a * F)
    div_u = (signs[0] + signs[1]) * a
    return ZghResidual(momentum, deformation, float(div_u))


def zgh_bkm_integral(p: ZghParams, T: float) -> float:
    """∫₀ᵀ ‖∇u(t)‖_∞ dt = −sign(f₀)/c · log(1 − c f₀ T), +inf once T ≥ t*."""
    if T < 0:
        raise ValueError("integration horizon must be >= 0")
    if p.f0 == 0.0:
        return 0.0
    if p.blows_up and T >= p.t_star:
        return math.inf
    return -math.copysign(1.0, p.f0) / p.c * math.log1p(-p.c * p.f0 * T)


# ---------------------------------------------------------------------------
# spatially-linear ODE reduction

@dataclass(frozen=True)
class LinearProfileState:
    """State of the reduction u = A(t)x: trace-free A, deformation F, time t."""

    A: np.ndarray
    F: np.ndarray
    t: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        F = np.asarray(self.F, dtype=np.float64)
        if A.shape != (2, 2) or F.shape != (2, 2):
            raise ValueError("A and F must be 2×2 matrices")
        if abs(np.trace(A)) > 1e-12 * (1.0 + np.abs(A).max()):
            raise ValueError(f"A must be trace-free, got trace {np.trace(A):.3e}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "F", F)


_SIGNS, _EYE = np.array([[1.0], [-1.0]]), np.eye(2)     # never written; A(t)·Y = (_SIGNS·a)·Y


def ode_reduce_step(state: LinearProfileState, a_of_t: Callable[[float], float],
                    dt: float, deviation: bool = False) -> LinearProfileState:
    """One RK4 step of dF/dt = A(t) F, A(t) = diag(a(t), −a(t)): the flow map's
    Jacobian equation for u = A(t)x, so it takes the flow map's step.  With
    `deviation`, state.F holds D = F − I and the step is of dD/dt = A(t)(I + D),
    which keeps the digits of an F close to I; A(t) scales rows, so no stage builds a matrix."""
    shift = _EYE if deviation else 0.0
    (F,) = _rk4(lambda s, y: ((_SIGNS * a_of_t(s)) * (shift + y[0]),), state.t, (state.F,), dt)
    a = a_of_t(state.t + dt)
    return LinearProfileState(np.diag([a, -a]), F, state.t + dt)


def zgh_synthetic_history(p: ZghParams, times: Sequence[float]):
    """Diagnostics records of the family sampled at the given times.

    Only the transport-relevant entries are populated (‖∇u‖_∞ = |a|, the
    BKM trapezoid, and the Lᵖ norms of the constant-in-space F); the velocity
    profile a(t)(x₁,−x₂) does not live on the torus, so its norms are zero.
    """
    times = list(times)
    if len(times) < 1 or any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing and non-empty")
    records, bkm, prev = [], 0.0, None          # prev: (t, |a|) of the last record
    e0 = (TAU * float(np.sqrt(np.sum(zgh_fields(p, times[0]).F ** 2)))) ** 2
    lp = lambda v, pexp: TAU ** (2.0 / pexp) * v
    for t in times:
        f = zgh_fields(p, t)
        a_abs = abs(f.gradu[0, 0])
        if prev is not None:
            bkm += 0.5 * (t - prev[0]) * (prev[1] + a_abs)
        cols = [abs(f.F[0, 0]), abs(f.F[1, 1])]
        fro = float(np.sqrt(np.sum(f.F ** 2)))
        records.append(DiagnosticsRecord(
            t=float(t), l2_u=0.0, l2_F=TAU * fro, h1_u=0.0, h1_F=0.0,
            h2_u=0.0, h2_F=0.0, h2s_gradu=0.0,
            lp2_F=lp(fro, 2), lp4_F=lp(fro, 4), lp6_F=lp(fro, 6), lpinf_F=fro,
            lp2_F_c1=lp(cols[0], 2), lp4_F_c1=lp(cols[0], 4),
            lp6_F_c1=lp(cols[0], 6), lpinf_F_c1=cols[0],
            lp2_F_c2=lp(cols[1], 2), lp4_F_c2=lp(cols[1], 4),
            lp6_F_c2=lp(cols[1], 6), lpinf_F_c2=cols[1],
            l6_gradF=0.0, linf_gradu=a_abs, linf_curl_u=0.0, linf_curl_F=0.0,
            l2_ut=0.0, bkm=bkm, visc=0.0, hs2_gradu_int=0.0, e0=e0,
            energy_residual=abs((TAU * fro) ** 2 - e0) / e0,
            div_drift_u=0.0, div_drift_F=0.0,
        ))
        prev = (t, a_abs)
    return records


# ---------------------------------------------------------------------------
# verification of the family (`vspc verify-exact`)

_ODE_STEPS = 10_000      # the most RK4 steps of the ODE cross-check


def zgh_scaled_residual(p: ZghParams, t: float, x) -> tuple[float, float]:
    """The largest corrected residual at (t, x), and the largest relative to the size of
    its cancelling terms: huge |g|^(1/c) factors near the pole, a²·|x| at huge a."""
    res, F, a = zgh_residual(p, t, x), zgh_fields(p, t).F, zgh_amplitude(p)(t)
    mom, dfm, div = np.abs(res.momentum).max(), np.abs(res.deformation).max(), abs(res.div_u)
    scale_mom = 1.0 + (1.0 + abs(p.c)) * a ** 2 * float(np.max(np.abs(x)))
    scale_def = 1.0 + (1.0 + abs(p.c)) * abs(a) * float(np.max(np.abs(F)))
    return max(mom, dfm, div), max(mom / scale_mom, dfm / scale_def, div / (1.0 + abs(a)))


def _log_graded(cf: float, log_g: float, end: float, pieces: int) -> np.ndarray:
    """0 and `pieces` times to `end` (where log|1 − cf·t| = log_g) that lie evenly in
    log|1 − cf·t|, as a(t) changes; expm1 keeps their digits where cf·t is tiny."""
    ends = -np.expm1(log_g * np.linspace(0.0, 1.0, pieces + 1)) / cf
    ends[-1] = end
    return ends


def _bkm_quadrature(p: ZghParams, T: float) -> float:
    """∫₀ᵀ |a(s)| ds by a 20-node Gauss–Legendre rule on pieces at most 0.5 long in
    log|1 − c·f₀·s|, on each of which 1/|1 − c·f₀·s| is smooth; no closed form used."""
    from numpy.polynomial.legendre import leggauss    # here: it would slow `import vspc`

    cf = p.c * p.f0
    log_g = math.log1p(-cf * T)
    ends = _log_graded(cf, log_g, T, max(1, math.ceil(abs(log_g) / 0.5)))
    x, w = leggauss(20)
    half, mid = 0.5 * np.diff(ends)[:, None], 0.5 * (ends[1:] + ends[:-1])[:, None]
    return abs(p.f0) * float(np.sum(half * w / np.abs(1.0 - cf * (mid + half * x))))


def zgh_checks(p: ZghParams) -> list[tuple[str, bool, str]]:
    """The checks of `vspc verify-exact` at p, as (name, passed, detail) rows.

    Raises ValueError for an amplitude they cannot check: f₀ = 0, a value they
    form past 1e300, or a cross-check ODE past what _ODE_STEPS RK4 steps resolve.
    """
    if p.f0 == 0.0:
        raise ValueError("f0 = 0 gives u = 0, F = I: the family has no amplitude to verify")
    # both checks run before the pole: t = 0.2 where it fits, and 0.85 t*, a
    # fixed fraction, so that 1 − t/t* keeps its digits at any amplitude
    t_res = 0.2 if p.t_star > 0.2 else 0.5 * p.t_star
    t_stop = 0.85 * p.t_star if p.blows_up else 1.0
    # the checks form a(t)² and a(t)·F(t) at times up to t_stop (the printed F22
    # only within e^±10), times up to 1 + |c|: log10 of the largest must stay below 300
    c, cf = p.c, p.c * p.f0
    lg = np.log10(np.abs(1.0 - cf * np.array([0.0, t_res, t_stop])))      # log10 |g|
    la = math.log10(abs(p.f0)) - lg                                         # log10 |a|
    largest = float(np.max([2.0 * la, la + np.abs(lg / c)])) + math.log10(1.0 + abs(c))
    if largest > 300.0:
        raise ValueError(f"f0 = {p.f0:g} is out of range for verify-exact: its checks would "
                         f"form a(t)² and a(t)·F(t) near 10^{largest:.1f}, past the limit 10^300")
    log_g = math.log1p(-cf * t_stop)        # F − I at t_stop is expm1(∓log_g / c)
    if abs(log_g) > 80.0:       # RK4's error grows as |log_g|⁵ / steps⁴
        raise ValueError(f"f0 = {p.f0:g} is out of range for verify-exact: log|1 - c·f0·t| "
                         f"reaches {log_g:.4g} by t = {t_stop:.4g}, and its ODE cross-check "
                         f"resolves at most 80 in {_ODE_STEPS} steps")

    rng, checks = np.random.default_rng(20260814), []

    # corrected family annihilates the equations, pointwise, across parameters
    worst = 0.0
    for _ in range(100):
        while True:
            a, b = rng.uniform(-3.0, 3.0, size=2)
            if abs(a + b) > 0.2 and abs(a - b) > 0.2:
                break
        q = ZghParams(a, b, rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        t = rng.uniform(0.0, 0.8 * q.t_star if q.blows_up else 1.0)
        worst = max(worst, zgh_scaled_residual(q, t, rng.uniform(-np.pi, np.pi, size=(5, 2)))[1])
    checks.append(("corrected residual sweep (100 draws, scaled)", worst <= 1e-12,
                   f"max relative residual {worst:.2e}"))

    worst0, relative0 = zgh_scaled_residual(p, t_res, [[1.0, -0.5]])
    checks.append((f"corrected residual at alpha={p.alpha}, beta={p.beta}",
                   relative0 <= 1e-12, f"max residual {worst0:.2e}"))

    # the printed display is *expected* to fail incompressibility: div u = 2a;
    # both defects are judged against the terms they break, so that they show
    # at any amplitude: |div u| = 2|a|, and the F22 residual is -(1 + c²)·a·F22;
    # at t_res, or earlier where its F22 = |g|^c reaches e^±10, not underflowing
    log_gr = math.log1p(-cf * t_res)
    t_def = (t_res if abs(c * log_gr) <= 10.0
             else -math.expm1(math.copysign(10.0 / abs(c), log_gr)) / cf)
    a_amp = zgh_amplitude(p)(t_def)
    res_p = zgh_residual(p, t_def, [[1.0, -0.5]], fidelity="printed")
    F22 = zgh_fields(p, t_def, fidelity="printed").F[1, 1]
    checks.append(("printed fidelity shows div u = 2a (documented defect)",
                   abs(res_p.div_u - 2.0 * a_amp) <= 1e-12 and abs(res_p.div_u) > abs(a_amp),
                   f"div u = {res_p.div_u:.6g}, 2a = {2 * a_amp:.6g}"))
    checks.append(("printed fidelity breaks F22 transport",
                   abs(res_p.deformation[1, 1]) > 0.5 * abs(a_amp * F22),
                   f"residual {res_p.deformation[1, 1]:.6g}"))

    # RK4 on the deviation D = F − I of the ODE reduction, judged relative to
    # |F − I| so that tiny amplitudes count, in as many steps as min(1e-4,
    # 1e-3 tau) takes, tau = 1/|c f0| (t* if there is a pole), at most
    # _ODE_STEPS, graded evenly in log|1 − c f0 t| as a(t) changes; the count is
    # capped before it is rounded, as at f0 = 1e-307 it is inf
    steps = max(1, round(min(t_stop / min(1e-4, 1e-3 * (1.0 / abs(cf))), _ODE_STEPS)))
    state = LinearProfileState(np.diag([p.f0, -p.f0]), np.zeros((2, 2)), 0.0)
    amp = zgh_amplitude(p)
    for end in _log_graded(cf, log_g, t_stop, steps)[1:]:
        state = ode_reduce_step(state, amp, float(end) - state.t, True)
    D_exact = np.diag([math.expm1(-log_g / c), math.expm1(log_g / c)])
    ode_err = float(np.max(np.abs(state.F - D_exact)))
    checks.append(("ODE reduction matches closed-form F",
                   ode_err <= 1e-8 * float(np.max(np.abs(D_exact))),
                   f"sup error {ode_err:.2e} at t = {t_stop:.4g}"))

    T = 0.9 * t_stop
    closed = zgh_bkm_integral(p, T)
    bkm_err = abs(_bkm_quadrature(p, T) - closed) / max(abs(closed), 1e-30)
    checks.append(("closed-form BKM integral vs quadrature", bkm_err <= 1e-8,
                   f"relative error {bkm_err:.2e}"))

    worst_det = max(abs(float(np.linalg.det(zgh_fields(p, float(t)).F)) - 1.0)
                    for t in np.linspace(0.0, 0.8 * t_stop, 20))
    checks.append(("det F = 1 along the family", worst_det <= 1e-12,
                   f"max |det F - 1| = {worst_det:.2e}"))
    return checks


# ---------------------------------------------------------------------------
# manufactured solutions
#
# A manufactured pair (u, F) = (λ_u(t)·U(x), I + λ_F(t)·G(x)) with div-free
# shapes is made an exact solution of the dealiased discrete system by the
# forcing  g_u = λ_u' U − P N_u(Z) + ν|k|² λ_u U,  g_F = λ_F' G − N_F(Z),
# where N_u, N_F are the solver's own dealiased nonlinear terms.  The solver
# then tracks the band-limited trajectory to time-integration accuracy, and
# the discrepancy against the full analytic fields is the spectral-truncation
# tail — the quantity spatial-convergence studies measure.
#
# N is quadratic and Z(t) = λ_u·A + I + λ_F·G (A, G the shapes on their own
# rows), so set-up polarizes it: N(Z) = λ_u²N_A + λ_F²N_G + λ_uλ_F·C_AG +
# λ_u·C_AI + λ_F·C_GI with C_XY = N(X+Y) − N(X) − N(Y), and N(I) = 0 because
# a constant F has no stress divergence.  FFᵀ − u⊗u has no u–F cross term and
# a_k = u₁F₂ₖ − u₂F₁ₖ has only that, so N_A, N_G and C_GI live on the u rows,
# C_AG and C_AI on the F rows (elsewhere they are round-off), and three calls
# give all five: N(A+I) = (N_A, C_AI), N(A+G) = (N_A + N_G, C_AG) and
# N(G+I) = (N_G + C_GI, 0).  band(t) combines them with no transform.

@dataclass(frozen=True)
class Manufactured:
    """A forced problem with known solution: initial state, forcing, analytic(t)."""

    initial: "_solver.State"
    forcing: "_solver.ForcingSpec"
    analytic: Callable[[float], "_solver.State"]


def _taylor_green_shapes(grid):
    x1, x2 = grid.mesh()
    u = grid.to_coeffs(np.stack([np.sin(x1) * np.cos(x2), -np.cos(x1) * np.sin(x2)]))
    G = np.zeros((4, grid.n, grid.n), dtype=np.complex128)
    return u, G


_BAND, _DECAY, _AMP_U, _AMP_F = 24, 0.28, 0.05, 0.03     # of the broadband stream functions


def _broadband_shapes(grid):
    """Fixed random-phase trig polynomials with geometric spectral decay.

    The band intentionally exceeds the dealias limit of coarse grids so the
    truncation tail — hence the measured spatial error — shrinks geometrically
    with resolution.
    """
    rng = np.random.default_rng(774236011)

    def stream_modes(amp):
        ks = np.array([(k1, k2) for k1 in range(-_BAND, _BAND + 1)
                       for k2 in range(-_BAND, _BAND + 1)
                       if (k2 > 0) or (k2 == 0 and k1 > 0)])
        weights = amp * _DECAY ** (np.abs(ks[:, 0]) + np.abs(ks[:, 1]))
        phases = rng.uniform(0.0, TAU, size=len(ks))
        return ks, 0.5 * weights * np.exp(1j * phases)

    def fold_perp_grad(ks, coeffs):
        """Exact grid samples (as spectra) of (∂₂ψ, −∂₁ψ) for the mode list."""
        n = grid.n
        out = np.zeros((2, n, n), dtype=np.complex128)
        for sign in (1, -1):
            kk = sign * ks
            cc = coeffs if sign == 1 else np.conj(coeffs)
            comp1 = 1j * kk[:, 1] * cc
            comp2 = -1j * kk[:, 0] * cc
            np.add.at(out[0], (kk[:, 0] % n, kk[:, 1] % n), comp1)
            np.add.at(out[1], (kk[:, 0] % n, kk[:, 1] % n), comp2)
        return out

    u = fold_perp_grad(*stream_modes(_AMP_U))
    G = np.concatenate([fold_perp_grad(*stream_modes(_AMP_F)),
                        fold_perp_grad(*stream_modes(_AMP_F))])
    return u, G


class _Polarized(_solver.ForcingSpec):
    """A manufactured forcing: the solver takes band(t) as it is; g_u, g_F are its fields."""

    def __init__(self, grid, band):
        super().__init__(lambda t: _solver._vectors(grid, band(t)[:2])[0],
                         lambda t: TensorField.from_columns(*_solver._vectors(grid, band(t)[2:])))
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_polarized", band)

    def _band(self, grid, t, out=None):
        _solver._same_grid(self._grid, grid)
        return self._polarized(t, out)


def _project_block(grid, block):
    out = block.copy()
    for i in range(0, block.shape[0], 2):
        out[i], out[i + 1] = grid.project(block[i], block[i + 1])
    return out


def manufactured(grid: GridSpec, nu: float, case: str = "broadband") -> Manufactured:
    """Build a manufactured problem on the given grid.

    case="taylor-green": u = e^{−2νt}·Taylor–Green, F = I.  The momentum
    forcing vanishes identically (Taylor–Green advection is a pure gradient
    and ∂ₜ balances νΔ), while the deformation forcing cancels the stretching
    of the identity columns.

    case="broadband": fixed band-limited random-phase shapes with smooth time
    modulation, for convergence measurement.
    """
    if case == "taylor-green":
        ushape, Gshape = _taylor_green_shapes(grid)
        lam_u = lambda t: math.exp(-2.0 * nu * t)
        dlam_u = lambda t: -2.0 * nu * math.exp(-2.0 * nu * t)
        lam_F = dlam_F = lambda t: 0.0
    elif case == "broadband":
        ushape, Gshape = _broadband_shapes(grid)
        lam_u = lambda t: 1.0 + 0.5 * math.sin(1.1 * t)
        dlam_u = lambda t: 0.55 * math.cos(1.1 * t)
        lam_F = lambda t: 1.0 + 0.4 * math.sin(0.7 * t + 0.4)
        dlam_F = lambda t: 0.28 * math.cos(0.7 * t + 0.4)
    else:
        raise ValueError(f"unknown manufactured case {case!r}")

    ushape, Gshape = (x[..., :grid.half.m] for x in (ushape, Gshape))    # half spectra
    u_d = _project_block(grid, ushape * grid.half.mask)
    G_d = _project_block(grid, Gshape * grid.half.mask)
    ident = np.zeros((4, grid.n, grid.half.m), dtype=np.complex128)
    ident[0, 0, 0] = 1.0
    ident[3, 0, 0] = 1.0
    work = _solver._Workspace(grid)
    A, G, I = np.zeros((3,) + work.K.shape, dtype=np.complex128)
    A[:2], G[2:], I[2:] = (x[..., :grid.half.band] for x in (u_d, G_d, ident))
    initial = _solver._unpack(grid, 0.0, np.concatenate(
        [lam_u(0.0) * A[:2], I[2:] + lam_F(0.0) * G[2:]]))
    N_AI, N_GI, N_AG = (_solver._nonlinearity(work, work.samples(Z))
                        for Z in (A + I, G + I, A + G))
    U, N_A, k_sq = A[:2].copy(), N_AI[:2].copy(), work.k_sq
    N_G = N_AG[:2] - N_A
    C_GI = N_GI[:2] - N_G
    G, C_AG, C_AI = (B[2:].copy() for B in (G, N_AG, N_AI))

    w, tmp = np.zeros_like(U), np.empty_like(G)    # w: a real factor + 0i, as numpy casts it

    def band(t, out=None):      # term by term into out, a fresh array when None
        lu, lF = lam_u(t), lam_F(t)
        out = np.empty((6,) + U.shape[1:], dtype=np.complex128) if out is None else out
        np.add(dlam_u(t), np.multiply(lu * nu, k_sq, out=w[0].real), out=w[0].real)
        w[1] = w[0]
        np.multiply(w, U, out=out[:2])
        np.multiply(dlam_F(t), G, out=out[2:])
        for rows, scale, term in ((out[:2], lu * lu, N_A), (out[:2], lF * lF, N_G),
                                  (out[:2], lF, C_GI), (out[2:], lu * lF, C_AG), (out[2:], lu, C_AI)):
            rows -= np.multiply(scale, term, out=tmp[:len(rows)])
        return out

    def analytic(t):
        return _solver._unpack(grid, float(t), np.concatenate(
            [lam_u(t) * ushape, ident + lam_F(t) * Gshape]))

    return Manufactured(initial, _Polarized(grid, band), analytic)
