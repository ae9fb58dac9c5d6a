"""Pseudo-spectral solver for 2D incompressible viscoelastic (Oldroyd) flow.

The state is a velocity u and a deformation tensor F on the torus obeying

    ∂ₜu − νΔu + (u·∇)u + ∇p = Σ_k (F(·,k)·∇) F(·,k),      ∇·u = 0,
    ∂ₜF(·,k) + (u·∇) F(·,k) = (F(·,k)·∇) u,               ∇·F(·,k) = 0.

Because u and both columns of F are divergence-free, the nonlinear terms are
advanced in divergence form,

    −(u·∇)u + Σ_k (F(·,k)·∇) F(·,k) = ∇·(FFᵀ − u⊗u),
    ∂ₜF(·,k) = (∂₂a_k, −∂₁a_k),     a_k = u₁F₂ₖ − u₂F₁ₖ,

so one right-hand side needs four pointwise products: the normal-stress
difference and the shear stress of FFᵀ − u⊗u (its trace part is a gradient)
and one a_k per column.  The pressure never appears explicitly: the momentum
term is Leray projected, which subtracts exactly its gradient part ∇p.  The F
increments are curls, divergence-free by construction, so every increment
preserves the constraints and no step re-projects the state.

The solver state is the spectra of the six channels of State.channels, in
that order, packed as one (6, n, n//3+1) array: the k₂ = 0 … n/3 columns
of the rfft2 half spectrum, the only ones the 2/3 rule leaves non-zero.  One
right-hand side is one batched inverse real transform of the six channels
and one batched forward real transform of the four products; their k₁
passes run on the band alone.  Diagnostics records are taken from the band
and the samples the next step reuses.  A State handed out, to an observer
and as the result, keeps rows of the band; a field's full complex spectrum
is built only when its `data` is read.

Time stepping is the classical RK4 scheme with an integrating factor
e^{−ν|k|²t} on the velocity block (the deformation block has no diffusion and
is stepped plainly), so stiff viscous decay never limits the step size.  The
step size itself is CFL-limited by the transport and elastic-wave speeds,
read from the same samples as the step's first stage.

Each run owns one private workspace: the momentum multipliers (mask,
divergence and Leray projection in one map, taking the normal-stress
difference and the shear stress), the masked curl multipliers, the stage
buffers, the buffers the transforms write into, and the integrating factor,
recomputed only when dt changes.  The transforms normalize themselves
(norm="forward"), so no pass rescales, masks or projects, and every product and
RK4 sum is formed in the workspace: a pass no observer sees allocates nothing.

All quadratic terms are formed pointwise in physical space from 2/3-rule
dealiased inputs; retained modes therefore carry no aliasing error, and the
scheme conserves ‖u‖₂² + ‖F‖₂² in the inviscid unforced case up to time
integration error alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fields import (
    ConjugateSymmetryError,
    GridSpec,
    TensorField,
    VectorField,
    ensure_physical,
    _BandField,
    _NonFiniteSpectrum,
    _half_columns,
    _scalar_parts,
)
from . import diagnostics as _diag
from .operators import _div_max

__all__ = [
    "State", "StateDerivative", "ForcingSpec", "SolverConfig", "RunResult",
    "BlowupError", "rhs", "step", "adaptive_dt", "simulate",
    "taylor_green_state", "steady_identity_state", "perturbed_identity_state",
    "state_from_arrays", "divergence_drift",
]

# rows of the packed layout, in State.channels order
_U1, _U2, _F11, _F21, _F12, _F22 = range(6)
_COLS = ((_F11, _F21), (_F12, _F22))


class BlowupError(RuntimeError):
    """Signals loss of regularity: non-finite fields or ‖∇u‖_∞ past the ceiling."""

    def __init__(self, t, message, record=None):
        super().__init__(f"blowup detected at t = {t:.6g}: {message}")
        self.t = t
        self.record = record


@dataclass(frozen=True, eq=False)
class State:
    """Solver state (t, u, F); u and F share one grid and one representation."""

    t: float
    u: VectorField
    F: TensorField

    def __post_init__(self):
        if self.u.grid != self.F.grid:
            raise ValueError("u and F live on different grids")

    @property
    def grid(self):
        return self.u.grid

    @property
    def channels(self):
        """The six scalar fields in packed and snapshot order u₁, u₂, F₁₁, F₂₁, F₁₂, F₂₂."""
        return _scalar_parts(self.u) + _scalar_parts(self.F)


@dataclass(frozen=True, eq=False)
class StateDerivative:
    """Time derivative of a state, spectral representation."""

    du: VectorField
    dF: TensorField


@dataclass(frozen=True)
class ForcingSpec:
    """External body forces: time-functions for the velocity and deformation equations.

    g_u(t) is Leray-projected before use, so any gradient part it carries is
    discarded; g_F columns are taken as given, so a gradient part in them
    shows up as divergence drift.  Either may be None for an unforced block.
    Both must be functions of t alone, on the run's grid.  The solver consumes
    a forcing as its dealiased band (_band), once per distinct RK4 stage time,
    two per step (t + dt is the next step's start).  exact.manufactured's
    forcing hands over its band; one rebuilt from callables takes the generic
    path, fields to band, mask, Leray projection of g_u.
    """

    g_u: Optional[Callable[[float], VectorField]]
    g_F: Optional[Callable[[float], TensorField]]

    def _band(self, grid: GridSpec, t, out=None):
        """The dealiased band forcing (6, n, n//3+1) at t, into out if given; g_u is Leray
        projected."""
        half = grid.half
        mask = half.mask[:, :half.band]
        g = np.empty((6,) + mask.shape, dtype=np.complex128) if out is None else out
        g[...] = 0.0
        for rows, part in ((g[:2], self.g_u), (g[2:], self.g_F)):
            if part is not None:
                field = part(t)
                _same_grid(field.grid, grid)
                try:
                    np.multiply(_half_columns(_scalar_parts(field), half.band), mask, out=rows)
                except _NonFiniteSpectrum:      # ends the run as non-finite samples do
                    raise BlowupError(t, "non-finite forcing values") from None
        g[_U1], g[_U2] = grid.project(g[_U1], g[_U2])
        return g


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    nu: float
    t_end: float
    cfl: float = 0.4
    dt_max: float = 5.0e-3
    forcing: Optional[ForcingSpec] = None
    snapshot_interval: int = 0
    diagnostics_interval: int = 1
    gradu_ceiling: float = 1.0e6
    strict: bool = False
    energy_tolerance: float = _diag.ENERGY_TOLERANCE
    lp_tolerance: float = _diag.LP_TOLERANCE
    divergence_tolerance: float = _diag.DIVERGENCE_TOLERANCE

    def __post_init__(self):
        if not 0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        for name in ("nu", "t_end", "energy_tolerance", "lp_tolerance", "divergence_tolerance"):
            _diag._require_finite(name, getattr(self, name), positive=False)
        for name in ("dt_max", "gradu_ceiling"):
            _diag._require_finite(name, getattr(self, name), positive=True)
        for name, least in (("diagnostics_interval", 1), ("snapshot_interval", 0)):
            _diag._require_count(name, getattr(self, name), least)


@dataclass(eq=False)
class RunResult:
    """Outcome of simulate(): final state, diagnostics history, and bookkeeping."""

    final_state: State
    records: list
    termination: str            # completed | blowup-detected | certificate-violation-halt
    steps: int
    max_div_drift_u: float
    max_div_drift_F: float
    blowup_time: Optional[float] = None
    violated_certificate: Optional[str] = None


# ---------------------------------------------------------------------------
# packing helpers

def _pack(state: State) -> np.ndarray:
    """Dealiased spectra of the six channels as one (6, n, n//3+1) band block."""
    half = state.grid.half
    return _half_columns(state.channels, half.band) * half.mask[:, :half.band]


def _same_grid(found: GridSpec, grid: GridSpec):
    if found != grid:
        raise ValueError(f"the forcing lives on grid n={found.n}, the run on n={grid.n}")


def _vectors(grid: GridSpec, Z):
    """Spectral vector fields of the row pairs (0, 1), (2, 3), … of band or half spectra Z.

    Z is frozen, not copied: the fields keep its rows, so a caller hands over
    a fresh block that it never writes again.
    """
    Z.flags.writeable = False
    return [VectorField((_BandField(grid, Z[i]), _BandField(grid, Z[i + 1])))
            for i in range(0, len(Z), 2)]


def _fields(grid: GridSpec, Z):
    """(u, F) as spectral field objects, from a packed block."""
    u, col1, col2 = _vectors(grid, Z)   # the packed order pairs u and F's columns
    return u, TensorField.from_columns(col1, col2)


def _unpack(grid: GridSpec, t: float, Z) -> State:
    return State(t, *_fields(grid, Z))


def state_from_arrays(grid, t, u1, u2, F11, F21, F12, F22) -> State:
    """Build a physical-representation state from six sample arrays."""
    u = VectorField.from_samples(grid, u1, u2)
    col1 = VectorField.from_samples(grid, F11, F21)
    col2 = VectorField.from_samples(grid, F12, F22)
    return State(float(t), u, TensorField.from_columns(col1, col2))


def state_sup_distance(a: State, b: State) -> float:
    """Largest pointwise difference over all six components of two states."""
    if a.grid != b.grid:
        raise ValueError("states live on different grids")
    dist = 0.0
    for fa, fb in zip(a.channels, b.channels):
        dist = max(dist, float(np.max(np.abs(ensure_physical(fa) - ensure_physical(fb)))))
    return dist


# ---------------------------------------------------------------------------
# right-hand side

def _aligned(shape, dtype=np.float64, fill=0.0):
    """An array of shape and dtype, set to fill, whose data starts at a multiple of 64
    bytes (a cache line) wherever the heap's earlier allocations left off."""
    raw = np.empty(math.prod(shape) * np.dtype(dtype).itemsize + 64, dtype=np.uint8)
    out = raw[-raw.ctypes.data % 64:][:len(raw) - 64].view(dtype).reshape(shape)
    out[...] = fill
    return out


class _Workspace:
    """A run's multipliers and buffers on the (n, n//3+1) band.

    M maps the spectra of σ₁₁ − σ₂₂ and σ₁₂ (σ = FFᵀ − u⊗u) to momentum,
    `curl` a_k to column k, dealiased; K, Y are the RK4 stage buffers.  The
    transforms write into P (samples), R (the products' k₂ pass) and B (the
    inverse's k₁ pass, then the products' band spectra).  Buffers that are
    never live at once share bytes.  Once B holds a stage's k₁ pass, its input
    in Y is spent, and the last slope in K was spent before the stage began: P
    and then R live in the bytes of K and Y, and W, two planes of partial sums,
    past P (K and Y hold at least 8n² floats).  The products Q, the checks'
    verdicts `ok`, E·Z[:2] and a momentum term in B[4] live in B's bytes,
    between its two uses.  Between steps Q and W are a diagnostics record's
    planes (in `record_scratch`, with its own multipliers) and W the CFL
    step's scratch, while P holds the samples the record and the next step
    share.  Before the first step, H holds the initial state's half spectra in
    the bytes of K and Y, so reading them allocates nothing that outlives the
    read.
    """

    def __init__(self, grid: GridSpec, nu: float = 0.0):
        half = self.half = grid.half
        n, c = half.n, half.band
        self.grid, self.nu, self.dt = grid, nu, None
        ik1, ik2, mask = half.ik1, half.ik2[:, :c], half.mask[:, :c]
        self.k_sq = _aligned((n, c), fill=half.k_sq[:, :c])
        self.E = _aligned((2, n, c), np.complex128)     # E + 0i, see _step_packed
        d = np.eye(2)[:, :, None, None]         # d[s, j]: S_s of unit input j
        self.M = _aligned((2, 2, n, c), np.complex128,
                          np.stack(grid.project(ik1 * d[0] + ik2 * d[1], ik1 * d[1])) * mask)
        self.curl = tuple(_aligned((n, c), np.complex128, a) for a in (ik2 * mask, -ik1 * mask))
        self.K, self.Y = KY = _aligned((2, 6, n, c), np.complex128)
        self.P, self.W = np.split(KY.reshape(-1).view(np.float64)[:8 * n * n].reshape(8, n, n), [6])
        self.R = KY.reshape(-1)[:4 * n * half.m].reshape(4, n, half.m)
        self.H = KY.reshape(-1)[:6 * n * half.m].reshape(6, n, half.m)
        BQ = _aligned((max(12 * n * c, 4 * n * n),))
        self.B = BQ[:12 * n * c].view(np.complex128).reshape(6, n, c)
        self.Q = BQ[:4 * n * n].reshape(4, n, n)
        self.ok, self.ok_band = (BQ.view(np.bool_)[:6 * n * w].reshape(6, n, w) for w in (n, c))
        self.record_scratch = _diag._Scratch(grid, c, self.Q, self.W)
        self.forced = {}

    def samples(self, Z):
        """The samples of a packed block, in P."""
        return self.half.to_samples(Z, out=self.P, tmp=self.B)

    def forcing_at(self, forcing: ForcingSpec, t):
        """The band of a run's one forcing at t, written into the buffer of the time it
        drops.  The last two t are kept: RK4 asks at t, t + h, t + h and t + dt,
        which is the next step's t."""
        if t not in self.forced:
            spent = self.forced.pop(next(iter(self.forced))) if len(self.forced) == 2 else None
            self.forced[t] = forcing._band(self.grid, t, spent)
        return self.forced[t]


def _nonlinearity(work: _Workspace, P, t=0.0, forcing=None, out=None):
    """∂ₜZ without the viscous term, from the six channels' samples P (6, n, n) at t.

    Momentum: the Leray projection of ∇·(FFᵀ − u⊗u); deformation column k:
    (∂₂a_k, −∂₁a_k) with a_k = u₁F₂ₖ − u₂F₁ₖ; plus the forcing's band at t
    when there is one.  Writes the dealiased band (6, n, n//3+1) into out, a
    fresh array when out is None.  The four pointwise products, σ₁₁ − σ₂₂ and
    σ₁₂ of σ = FFᵀ − u⊗u (its trace part is a gradient, which Leray drops), a₁
    and a₂, and their spectra pass through the workspace's Q, W, R and B.
    Non-finite samples raise BlowupError at t.
    """
    if not np.isfinite(P, out=work.ok).all():
        raise BlowupError(t, "non-finite field values")
    u1, u2, F11, F21, F12, F22 = P
    N = np.empty_like(work.K) if out is None else out
    Q, (w, v) = work.Q, work.W      # a·b (+ c·d) − e·f, left to right, then Q[0] −= w
    for q, a, b, *cd, e, f in ((w, F21, F21, F22, F22, u2, u2), (Q[0], F11, F11, F12, F12, u1, u1),
                               (Q[1], F11, F21, F12, F22, u1, u2), (Q[2], u1, F21, u2, F11),
                               (Q[3], u1, F22, u2, F12)):
        np.multiply(a, b, out=q)
        if cd:
            q += np.multiply(*cd, out=v)
        q -= np.multiply(e, f, out=v)
    Q[0] -= w
    S = work.half.to_coeffs(Q, out=work.B[:4], tmp=work.R)
    for r, M in zip((_U1, _U2), work.M):
        np.multiply(M[0], S[0], out=N[r])
        N[r] += np.multiply(M[1], S[1], out=work.B[4])
    for (ci, cj), a in zip(_COLS, S[2:]):
        np.multiply(work.curl[0], a, out=N[ci])
        np.multiply(work.curl[1], a, out=N[cj])
    if forcing is not None:
        N += work.forcing_at(forcing, t)
    return N


def rhs(state: State, cfg: SolverConfig) -> StateDerivative:
    """Instantaneous time derivative of a state, including the viscous term."""
    grid = state.grid
    work = _Workspace(grid)
    Z = _pack(state)
    dZ = _nonlinearity(work, work.samples(Z), state.t, cfg.forcing)
    dZ[:2] -= cfg.nu * work.k_sq * Z[:2]
    return StateDerivative(*_fields(grid, dZ))


# ---------------------------------------------------------------------------
# time stepping

def _step_packed(work, Z, t, dt, forcing, P=None, out=None):
    """One integrating-factor RK4 step; returns the new packed state, in out (fresh if None).

    P, the samples of Z, is reused for the first stage when given; Z is only
    read, so it is intact when a check raises.  Stage outputs are dealiased,
    and divergence-free whenever g_F is, so the result needs no re-projection.
    With E = e^{−ν|k|²dt/2} on the u rows (:2), E(E(Z + dt/6·k₁) + dt/3·(k₂ +
    k₃)) + dt/6·k₄ is summed as the slopes arrive in work.K.
    """
    E, K, Y, h = work.E, work.K, work.Y, 0.5 * dt
    if dt != work.dt:       # E is a real factor + 0i on both u rows, as numpy casts one
        work.dt, e = dt, E[0].real
        np.exp(np.multiply(np.multiply(work.k_sq, -work.nu, out=e), h, out=e), out=e)
        E[1] = E[0]
    _nonlinearity(work, work.samples(Z) if P is None else P, t, forcing, K)
    Znew = np.multiply(K, dt / 6.0, out=out)
    Znew += Z
    np.add(Z, np.multiply(K, h, out=Y), out=Y)  # Y = E(Z + h·k₁)
    Y[:2] *= E
    _nonlinearity(work, work.samples(Y), t + h, forcing, K)
    Znew[:2] *= E
    Znew += np.multiply(K, dt / 3.0, out=Y)
    np.multiply(K, h, out=Y)                    # Y = E·Z + h·k₂
    Y[:2] += np.multiply(Z[:2], E, out=work.B[:2])
    Y[2:] += Z[2:]
    _nonlinearity(work, work.samples(Y), t + h, forcing, K)
    Znew += np.multiply(K, dt / 3.0, out=Y)
    np.multiply(K, dt, out=Y)                   # Y = E(E·Z + dt·k₃)
    Y[:2] += np.multiply(Z[:2], E, out=work.B[:2])
    Y[2:] += Z[2:]
    Y[:2] *= E
    _nonlinearity(work, work.samples(Y), t + dt, forcing, K)
    Znew[:2] *= E
    Znew += np.multiply(K, dt / 6.0, out=Y)
    if not np.isfinite(Znew, out=work.ok_band).all():
        raise BlowupError(t + dt, "non-finite field values after step")
    return Znew


def step(state: State, dt: float, cfg: SolverConfig) -> State:
    """Advance one step of size dt; returns the new state (spectral fields)."""
    if dt <= 0 or not np.isfinite(dt):
        raise ValueError(f"step size must be positive and finite, got {dt}")
    grid = state.grid
    Znew = _step_packed(_Workspace(grid, cfg.nu), _pack(state), state.t, dt, cfg.forcing)
    return _unpack(grid, state.t + dt, Znew)


def adaptive_dt(state: State | _diag._Packed, cfg: SolverConfig) -> float:
    """CFL step dt = min(dt_max, cfl·Δx/(‖u‖_∞ + ‖F‖_∞ + ε)); ε guards u = F = 0.

    The sup-norms are those of the dealiased state the solver advances; when
    they overflow, BlowupError is raised at its t.  state is a State, or a run's
    per-pass diagnostics._Packed view, whose samples P it reads, with scratch.T as planes.
    """
    grid = state.grid
    P, W = ((state.P, state.scratch.T) if isinstance(state, _diag._Packed) else
            (grid.half.to_samples(_pack(state)), np.empty((2, grid.n, grid.n))))
    fro = np.square(P[_F11], out=W[0])
    for r in (_F21, _F12, _F22):
        fro += np.square(P[r], out=W[1])
    speed = math.sqrt(float(np.max(fro))) + float(np.max(np.hypot(P[_U1], P[_U2], out=W[0])))
    if not math.isfinite(speed):
        raise BlowupError(state.t, "the transport and elastic-wave speeds overflow")
    return float(min(cfg.dt_max, cfg.cfl * grid.spacing / (speed + 1e-10)))


def divergence_drift(state: State):
    """Sup-norm divergence of u and the worst F column (constraint monitors)."""
    return _drift(state.grid, _half_columns(state.channels, state.grid.half.m))


def _drift(grid, H):
    sup = _div_max(grid, H)
    return float(sup[0]), float(np.max(sup[1:]))     # np.max: a NaN column wins


def _validate_initial(state: State, cfg: SolverConfig, work: _Workspace) -> np.ndarray:
    """Check the initial state; its packed band, from the checks' one read of its
    half spectra into `work.H`."""
    if state.grid != cfg.grid:
        raise ValueError(f"initial state grid n={state.grid.n} does not match "
                         f"config grid n={cfg.grid.n}")
    t = float(state.t)
    if not np.isfinite(t):
        raise ValueError(f"initial time must be finite, got t = {t}")
    if t + cfg.dt_max == t:         # the clock would never advance
        raise ValueError(f"initial time t = {t:.6g} is too large for a step of "
                         f"dt_max = {cfg.dt_max:.3g} to advance it")
    half = state.grid.half
    try:
        with np.errstate(invalid="ignore"):     # an inf sample is reported below
            H = _half_columns(state.channels, half.m, work.H)    # a user's spectra are checked here
            du, dF = _drift(state.grid, H)
    except ConjugateSymmetryError as exc:
        raise ValueError(f"initial state is not a real field: {exc}") from None
    if not np.isfinite(du + dF):    # a non-finite value reaches every divergence sample
        raise ValueError("initial state contains non-finite values")
    tol = cfg.divergence_tolerance
    if du > tol or dF > tol:
        raise ValueError(
            f"initial state violates the divergence constraints: "
            f"|div u| = {du:.3e}, |div F| = {dF:.3e} > {tol:.1e}")
    return H[..., :half.band] * half.mask[:, :half.band]


@dataclass(eq=False)
class _Run:
    """A run between passes: the band Z at t, t_end = t₀ + duration, the `steps` taken and
    their sum `elapsed` (which ends a run from a large t₀), the engine, holding the prior
    record and u band, and the records.  `work` and `spare`, the band a step writes, are scratch."""

    Z: np.ndarray
    t: float
    t_end: float
    elapsed: float
    steps: int
    engine: _diag.DiagnosticsEngine
    records: list
    work: _Workspace
    spare: Optional[np.ndarray]

    def advance(self, cfg: SolverConfig, observer) -> Optional[RunResult]:
        """One pass: sample (t, Z), record and judge it, observe it, each at its cadence,
        and step; returns the RunResult once the run ends."""
        grid, work, Z, t = cfg.grid, self.work, self.Z, self.t
        view = _diag._Packed(grid, t, Z, work.samples(Z), work.record_scratch)  # record, dt, stage 1
        at_end = t >= self.t_end - 1e-12 or self.elapsed >= cfg.t_end - 1e-12
        if self.steps % cfg.diagnostics_interval == 0 or at_end:
            record = self.engine.observe(view)
            overflow = not all(map(math.isfinite, vars(record).values()))
            if overflow and not self.records:
                raise ValueError("the initial state's diagnostics overflow")
            if not overflow:
                self.records.append(record)
            if overflow or record.linf_gradu > cfg.gradu_ceiling:
                return self._result("blowup-detected", blowup_time=t)
            if cfg.strict:
                reports = _diag.certificate_reports(
                    [self.records[0], record], cfg.forcing is not None, cfg.energy_tolerance,
                    cfg.lp_tolerance, cfg.divergence_tolerance)
                violated = next((r.name for r in reports if not r.satisfied), None)
                if violated is not None:
                    return self._result("certificate-violation-halt", violated=violated)
        state = None            # a State only for the observer and the result
        if observer is not None and (self.steps % cfg.snapshot_interval == 0 or at_end):
            state = _unpack(grid, t, Z)
            observer(state)
        if at_end:
            return self._result("completed", state)
        try:
            dt = min(adaptive_dt(view, cfg), self.t_end - t)
            if t + dt == t:
                raise ValueError(f"the clock stalls at t = {t:.17g}: a step of dt = {dt:.3g} "
                                 f"does not advance it")
            Znew = _step_packed(work, Z, t, dt, cfg.forcing, view.P, self.spare)
        except BlowupError as exc:
            return self._result("blowup-detected", blowup_time=exc.t)
        self.spare = Z if state is None else None       # a State keeps the band it was handed
        self.Z, self.t, self.elapsed, self.steps = Znew, t + dt, self.elapsed + dt, self.steps + 1

    def _result(self, termination, state=None, blowup_time=None, violated=None) -> RunResult:
        """The run's end at (t, Z), which `state` holds when an observer has seen it."""
        return RunResult(state or _unpack(self.work.grid, self.t, self.Z), self.records, termination,
                         self.steps, max(r.div_drift_u for r in self.records),
                         max(r.div_drift_F for r in self.records), blowup_time, violated)


def simulate(cfg: SolverConfig, initial: State, observer=None) -> RunResult:
    """March the solution from initial.t for a duration t_end, with CFL-adaptive steps.

    The passes of one _Run take the initial state as step 0.  They record
    diagnostics every diagnostics_interval steps and call observer(state) every
    snapshot_interval steps when that is positive, both also at the end.  A
    step too small to advance t raises ValueError before it is taken.  Every
    record, the first included, is judged: blowup ends the run early, with the
    last good state on non-finite values in a step, and with the state that
    shows it on ‖∇u‖_∞ > gradu_ceiling, on a record that overflows (not kept:
    every record is a finite row; the first raises ValueError) or on speeds
    that overflow.  In strict mode a record that fails a certificate of
    diagnostics.certificate_reports, judged against the first record, halts
    the run and names the certificate.
    """
    work, t = _Workspace(cfg.grid, cfg.nu), float(initial.t)
    run = _Run(_validate_initial(initial, cfg, work), t, t + cfg.t_end, 0.0, 0,   # only the run
               _diag.DiagnosticsEngine(nu=cfg.nu), [], work, None)              # holds the band
    observer = observer if cfg.snapshot_interval > 0 else None
    while (result := run.advance(cfg, observer)) is None:
        pass
    return result


# ---------------------------------------------------------------------------
# ready-made initial data

def taylor_green_state(grid: GridSpec) -> State:
    """Taylor–Green velocity with an identity deformation tensor."""
    x1, x2 = grid.mesh()
    u1 = np.sin(x1) * np.cos(x2)
    u2 = -np.cos(x1) * np.sin(x2)
    return State(0.0, VectorField.from_samples(grid, u1, u2), TensorField.identity(grid))


def steady_identity_state(grid: GridSpec) -> State:
    """The rest state u = 0, F = I (an exact steady solution)."""
    zero = np.zeros((grid.n, grid.n))
    return State(0.0, VectorField.from_samples(grid, zero, zero), TensorField.identity(grid))


def perturbed_identity_state(grid: GridSpec, amplitude: float = 0.1) -> State:
    """Taylor–Green velocity with F = I plus a divergence-free low-mode perturbation.

    Each column gains the perpendicular gradient (∂₂ψ, −∂₁ψ) of a fixed smooth
    stream function scaled by amplitude, so the column constraints hold exactly.
    """
    x1, x2 = grid.mesh()
    psi1 = amplitude * (np.sin(x1) * np.sin(x2) + 0.4 * np.cos(2.0 * x1 + x2))
    psi2 = amplitude * (np.cos(x1 + 2.0 * x2) - 0.6 * np.sin(x1) * np.cos(x2))
    base, half = taylor_green_state(grid), grid.half
    c = half.to_coeffs(np.stack([psi1, psi2]))
    F = half.to_samples(np.stack([half.ik2 * c, -half.ik1 * c]))    # F[i, k] = F_ik − δ_ik
    F[0, 0] += 1.0
    F[1, 1] += 1.0
    cols = [VectorField.from_samples(grid, F[0, k], F[1, k]) for k in range(2)]
    return State(0.0, base.u, TensorField.from_columns(cols[0], cols[1]))
