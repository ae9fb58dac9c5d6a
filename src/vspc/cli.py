"""Command-line front end: run, verify-exact, convergence, criterion-report.

Exit codes: 0 success, 1 usage/configuration error, 2 blowup detected during a
run, 3 certificate violation (strict mode) or a failed verification/convergence
threshold.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .fields import GridSpec, ScalarField, read_snapshot, write_snapshot
from .solver import (
    SolverConfig, State, simulate, state_from_arrays, state_sup_distance,
    taylor_green_state, steady_identity_state, perturbed_identity_state,
)
from .diagnostics import certificate_bundle, read_records_csv, write_records_csv
from . import exact


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# run

_INITIAL_KINDS = ("taylor-green", "steady-identity", "perturbed-identity",
                  "manufactured", "from-snapshot")


@dataclass
class RunConfig:
    solver: SolverConfig
    initial: State
    out_dir: Path
    initial_kind: str
    echo: dict


def _state_from_snapshot(path) -> State:
    t, grid, arrays = read_snapshot(path)
    if len(arrays) != 6:
        raise ValueError(f"run snapshot needs 6 fields (u1, u2, F11, F21, F12, F22), "
                         f"got {len(arrays)}")
    return state_from_arrays(grid, t, *arrays)


def parse_run_config(path) -> RunConfig:
    """Read an INI run configuration; raises UsageError on any defect.

    Values are taken literally: a % in a path is a %, not an interpolation.
    """
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        loaded = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}") from None
    if not loaded:
        raise UsageError(f"cannot read config file {path}")

    def value(section, key, getter="get"):
        try:
            return getattr(cp, getter)(section, key)
        except ValueError as exc:
            raise UsageError(f"bad value for [{section}] {key}: {exc}") from None

    def need(section, key, getter="get"):
        if not cp.has_option(section, key):
            raise UsageError(f"config is missing [{section}] {key}")
        return value(section, key, getter)

    def given(section, getter, *keys):
        """{key: value} of the keys the INI sets, so that unset keys keep their owner's default."""
        return {key: value(section, key, getter) for key in keys if cp.has_option(section, key)}

    try:
        grid = GridSpec(need("grid", "n", "getint"))
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    nu = need("solver", "nu", "getfloat")
    t_end = need("solver", "t_end", "getfloat")

    kind = cp.get("initial", "kind", fallback="taylor-green")
    if kind not in _INITIAL_KINDS:
        raise UsageError(f"unknown initial kind {kind!r}; choose from {_INITIAL_KINDS}")
    forcing = None
    if kind == "taylor-green":
        initial = taylor_green_state(grid)
    elif kind == "steady-identity":
        initial = steady_identity_state(grid)
    elif kind == "perturbed-identity":
        initial = perturbed_identity_state(grid, **given("initial", "getfloat", "amplitude"))
    elif kind == "manufactured":
        try:
            problem = exact.manufactured(grid, nu, **given("initial", "get", "case"))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        initial = problem.initial
        forcing = problem.forcing
    else:
        snap = cp.get("initial", "path", fallback=None)
        if snap is None:
            raise UsageError("initial kind from-snapshot needs [initial] path")
        try:
            initial = _state_from_snapshot(snap)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load snapshot {snap}: {exc}") from None
        if initial.grid != grid:
            raise UsageError(f"snapshot grid n={initial.grid.n} does not match "
                             f"config n={grid.n}")

    try:
        solver_cfg = SolverConfig(
            grid=grid, nu=nu, t_end=t_end, forcing=forcing,
            **given("solver", "getfloat", "cfl", "dt_max"),
            **given("output", "getint", "snapshot_interval", "diagnostics_interval"),
            **given("certificates", "getfloat", "gradu_ceiling", "energy_tolerance",
                    "lp_tolerance", "divergence_tolerance"),
            **given("certificates", "getboolean", "strict"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    out_dir = Path(cp.get("output", "dir", fallback="vspc-run"))
    echo = {section: dict(cp.items(section)) for section in cp.sections()}
    return RunConfig(solver_cfg, initial, out_dir, kind, echo)


def _check_dir(path: Path):
    """Raise UsageError unless path is a directory or mkdir(parents=True) can make it one."""
    found = next(p for p in (path, *path.parents) if p.exists())   # "." and "/" exist
    if not found.is_dir():
        raise UsageError(f"output path {path}: {found} exists and is not a directory")


def cmd_run(args) -> int:
    cfg = parse_run_config(args.config)
    out = cfg.out_dir           # created once simulate has accepted the initial state
    snap_dir = out / "snapshots"
    _check_dir(snap_dir if cfg.solver.snapshot_interval > 0 else out)
    artifacts = csv_path, cert_path, meta_path = [
        out / name for name in ("diagnostics.csv", "certificates.json", "metadata.json")]
    snapshots = snap_dir.glob("state_*.vspc") if cfg.solver.snapshot_interval > 0 else ()
    for path in (*artifacts, *sorted(snapshots)):   # written during and after the run,
        if path.exists() and not path.is_file():    # so checked before it
            raise UsageError(f"output path {path} exists and is not a regular file")
    written, made = [], []      # snapshots, and the directories made for them

    def observer(state):
        if not written:
            made.extend(p for p in (snap_dir, *snap_dir.parents) if not p.exists())
            snap_dir.mkdir(parents=True, exist_ok=True)
        written.append(snap_dir / f"state_{len(written):06d}.vspc")
        write_snapshot(written[-1], state.t, state.channels)

    started = time.perf_counter()
    try:
        result = simulate(cfg.solver, cfg.initial, observer=observer)
    except ValueError as exc:   # a usage error leaves nothing behind
        for path in written:
            path.unlink(missing_ok=True)
        for path in made:       # deepest first
            path.rmdir()
        raise UsageError(str(exc)) from None
    elapsed = time.perf_counter() - started

    out.mkdir(parents=True, exist_ok=True)
    write_records_csv(csv_path, result.records)
    bundle = certificate_bundle(result.records, cfg.solver.forcing is not None,
                                **{name: getattr(cfg.solver, name) for name in _TOLERANCES})
    cert_path.write_text(json.dumps(bundle, indent=2) + "\n")
    metadata = {
        "version": __version__,
        "config": cfg.echo,
        "initial_kind": cfg.initial_kind,
        "result": {
            "termination": result.termination,
            "steps": result.steps,
            "final_time": result.final_state.t,
            "records": len(result.records),
            "snapshots_written": len(written),
            "max_div_drift_u": result.max_div_drift_u,
            "max_div_drift_F": result.max_div_drift_F,
            "blowup_time": result.blowup_time,
            "violated_certificate": result.violated_certificate,
            "runtime_seconds": elapsed,
        },
    }
    meta_path.write_text(json.dumps(metadata, indent=2) + "\n")

    print(f"{result.termination}: {result.steps} steps to t = {result.final_state.t:.6g}, "
          f"{len(result.records)} records -> {out}")
    if result.termination == "blowup-detected":
        print(f"blowup signalled at t = {result.blowup_time:.6g}", file=sys.stderr)
        return 2
    if result.termination == "certificate-violation-halt":
        print(f"strict mode halted on certificate: {result.violated_certificate}",
              file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# verify-exact

def _check_table(checks) -> int:
    width = max(len(name) for name, _, _ in checks)
    ok = True
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        print(f"  {name:<{width}}  {status}  {detail}")
        ok = ok and passed
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 3


_ODE_STEPS = 10_000      # the most RK4 steps of verify-exact's ODE cross-check


def cmd_verify_exact(args) -> int:
    from scipy.integrate import quad

    try:
        params = exact.ZghParams(args.alpha, args.beta, args.f0)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if params.f0 == 0.0:
        raise UsageError("--f0 0 gives u = 0, F = I: the family has no amplitude to verify")

    # both checks run before the pole: t = 0.2 where it fits, and 0.85 t*, a
    # fixed fraction, so that 1 − t/t* keeps its digits at any amplitude
    t_res = 0.2 if params.t_star > 0.2 else 0.5 * params.t_star
    t_stop = 0.85 * params.t_star if params.blows_up else 1.0
    # the checks form a(t)² and a(t)·F(t), F of either display, at times up to
    # t_stop, times up to 1 + |c|: log10 of the largest must stay below 300
    c, cf = params.c, params.c * params.f0
    lg = np.log10(np.abs(1.0 - cf * np.array([0.0, t_res, t_stop])))      # log10 |g|
    la = math.log10(abs(params.f0)) - lg                                    # log10 |a|
    largest = float(np.max([2.0 * la, la + np.abs(lg / c), la + c * lg]))
    largest += math.log10(1.0 + abs(c))
    if largest > 300.0:
        raise UsageError(f"f0 = {params.f0:g} is out of range for verify-exact: its checks would "
                         f"form a(t)² and a(t)·F(t) near 10^{largest:.1f}, past the limit 10^300")
    log_g = math.log1p(-cf * t_stop)        # F − I at t_stop is expm1(∓log_g / c)
    if abs(log_g) > 80.0:       # RK4's error grows as |log_g|⁵ / steps⁴
        raise UsageError(f"f0 = {params.f0:g} is out of range for verify-exact: log|1 - c·f0·t| "
                         f"reaches {log_g:.4g} by t = {t_stop:.4g}, and its ODE cross-check "
                         f"resolves at most 80 in {_ODE_STEPS} steps")

    def residuals(p, t, x):
        """The largest residual at (t, x), and the largest relative to the size of its
        cancelling terms: huge |g|^(1/c) factors near the pole, a²·|x| at huge a."""
        res, F = exact.zgh_residual(p, t, x), exact.zgh_fields(p, t).F
        a = exact.zgh_amplitude(p)(t)
        mom, dfm, div = np.abs(res.momentum).max(), np.abs(res.deformation).max(), abs(res.div_u)
        scale_mom = 1.0 + (1.0 + abs(p.c)) * a ** 2 * float(np.max(np.abs(x)))
        scale_def = 1.0 + (1.0 + abs(p.c)) * abs(a) * float(np.max(np.abs(F)))
        return max(mom, dfm, div), max(mom / scale_mom, dfm / scale_def, div / (1.0 + abs(a)))

    rng = np.random.default_rng(20260814)
    checks = []

    # corrected family annihilates the equations, pointwise, across parameters
    worst = 0.0
    for _ in range(100):
        while True:
            a, b = rng.uniform(-3.0, 3.0, size=2)
            if abs(a + b) > 0.2 and abs(a - b) > 0.2:
                break
        f0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        p = exact.ZghParams(a, b, f0)
        horizon = 0.8 * p.t_star if p.blows_up else 1.0
        t = rng.uniform(0.0, horizon)
        worst = max(worst, residuals(p, t, rng.uniform(-np.pi, np.pi, size=(5, 2)))[1])
    checks.append(("corrected residual sweep (100 draws, scaled)", worst <= 1e-12,
                   f"max relative residual {worst:.2e}"))

    worst0, relative0 = residuals(params, t_res, [[1.0, -0.5]])
    checks.append((f"corrected residual at alpha={args.alpha}, beta={args.beta}",
                   relative0 <= 1e-12, f"max residual {worst0:.2e}"))

    # the printed display is *expected* to fail incompressibility: div u = 2a;
    # both defects are judged against the terms they break, so that they show
    # at any amplitude: |div u| = 2|a|, and the F22 residual is -(1 + c²)·a·F22
    a_amp = exact.zgh_amplitude(params)(t_res)
    res_p = exact.zgh_residual(params, t_res, [[1.0, -0.5]], fidelity="printed")
    F22 = exact.zgh_fields(params, t_res, fidelity="printed").F[1, 1]
    printed_defect = (abs(res_p.div_u - 2.0 * a_amp) <= 1e-12
                      and abs(res_p.div_u) > abs(a_amp))
    checks.append(("printed fidelity shows div u = 2a (documented defect)",
                   printed_defect, f"div u = {res_p.div_u:.6g}, 2a = {2 * a_amp:.6g}"))
    checks.append(("printed fidelity breaks F22 transport",
                   abs(res_p.deformation[1, 1]) > 0.5 * abs(a_amp * F22),
                   f"residual {res_p.deformation[1, 1]:.6g}"))

    # RK4 on the deviation D = F − I of the ODE reduction, judged relative to
    # |F − I| so that tiny amplitudes count, in steps of min(1e-4, 1e-3 tau),
    # tau = 1/|c f0| (t* if there is a pole); past _ODE_STEPS, in _ODE_STEPS that
    # end evenly in log|1 − c f0 t|, as a(t) changes, each on its grid time; the
    # count is capped before it is rounded, as at f0 = 1e-307 it is inf
    tau = 1.0 / abs(cf)
    steps = max(1, round(min(t_stop / min(1e-4, 1e-3 * tau), 2 * _ODE_STEPS)))
    state = exact.LinearProfileState(np.diag([params.f0, -params.f0]), np.zeros((2, 2)), 0.0)
    amp = exact.zgh_amplitude(params)
    if steps <= _ODE_STEPS:
        for _ in range(steps):
            state = exact.ode_reduce_step(state, amp, t_stop / steps, True)
    else:
        ends = -np.expm1(log_g * np.linspace(0.0, 1.0, _ODE_STEPS + 1)[1:]) / cf
        ends[-1] = t_stop
        for end in ends:
            state = exact.ode_reduce_step(state, amp, float(end) - state.t, True)
    D_exact = np.diag([math.expm1(-log_g / c), math.expm1(log_g / c)])
    ode_err = float(np.max(np.abs(state.F - D_exact)))
    checks.append(("ODE reduction matches closed-form F",
                   ode_err <= 1e-8 * float(np.max(np.abs(D_exact))),
                   f"sup error {ode_err:.2e} at t = {t_stop:.4g}"))

    # closed-form BKM integral against adaptive quadrature
    T = 0.9 * t_stop
    closed = exact.zgh_bkm_integral(params, T)
    quad_val, _ = quad(lambda s: abs(amp(s)), 0.0, T, limit=200)
    bkm_err = abs(quad_val - closed) / max(abs(closed), 1e-30)
    checks.append(("closed-form BKM integral vs quadrature", bkm_err <= 1e-8,
                   f"relative error {bkm_err:.2e}"))

    # volume conservation of the family
    worst_det = 0.0
    for t in np.linspace(0.0, 0.8 * t_stop, 20):
        F = exact.zgh_fields(params, float(t)).F
        worst_det = max(worst_det, abs(float(np.linalg.det(F)) - 1.0))
    checks.append(("det F = 1 along the family", worst_det <= 1e-12,
                   f"max |det F - 1| = {worst_det:.2e}"))

    print(f"exact-solution verification (alpha={args.alpha}, beta={args.beta}, "
          f"f0={args.f0}, c={params.c:.4g}, t*={params.t_star:.4g})")
    return _check_table(checks)


# ---------------------------------------------------------------------------
# convergence

def cmd_convergence(args) -> int:
    if args.mode == "temporal":
        return _temporal_convergence()
    return _spatial_convergence()


def _temporal_convergence() -> int:
    """Fourth-order check of the RK4 ODE reduction against diag(e, 1/e) at t = 1."""
    target = np.diag([math.e, 1.0 / math.e])
    errors = []
    dts = [1e-2, 5e-3, 2.5e-3]
    for dt in dts:
        state = exact.LinearProfileState(np.diag([1.0, -1.0]), np.eye(2), 0.0)
        for _ in range(round(1.0 / dt)):
            state = exact.ode_reduce_step(state, lambda t: 1.0, dt)
        errors.append(float(np.max(np.abs(state.F - target))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    print("temporal convergence of dF/dt = diag(1,-1) F to t = 1")
    print(f"  {'dt':>10}  {'sup error':>12}  {'order':>6}")
    for i, dt in enumerate(dts):
        order = f"{orders[i - 1]:.3f}" if i > 0 else "-"
        print(f"  {dt:>10.4g}  {errors[i]:>12.4e}  {order:>6}")
    ok = all(3.7 <= o <= 4.1 for o in orders)
    print("observed order within [3.7, 4.1]" if ok else "observed order OUT OF RANGE")
    return 0 if ok else 3


def _spatial_convergence() -> int:
    """Error against the manufactured solution at t = 0.5 across resolutions."""
    nu, t_end, dt = 0.02, 0.5, 2e-3
    errors = {}
    for n in (32, 64, 128):
        grid = GridSpec(n)
        problem = exact.manufactured(grid, nu, "broadband")
        cfg = SolverConfig(grid, nu=nu, t_end=t_end, cfl=0.9, dt_max=dt,
                           forcing=problem.forcing, diagnostics_interval=10**9)
        result = simulate(cfg, problem.initial)
        errors[n] = state_sup_distance(result.final_state, problem.analytic(t_end))
    print(f"spatial convergence of the manufactured solution "
          f"(nu = {nu}, t = {t_end}, dt = {dt})")
    print(f"  {'n':>5}  {'sup error':>12}  {'ratio':>10}")
    prev = None
    for n in (32, 64, 128):
        ratio = f"{prev / errors[n]:.1f}" if prev else "-"
        print(f"  {n:>5}  {errors[n]:>12.4e}  {ratio:>10}")
        prev = errors[n]
    ok = errors[32] / errors[64] >= 1e2
    print("error drop 32 -> 64 is at least 1e2" if ok
          else "error drop 32 -> 64 is BELOW 1e2")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# criterion-report

_TOLERANCES = ("energy_tolerance", "lp_tolerance", "divergence_tolerance")


def cmd_criterion_report(args) -> int:
    try:
        records = read_records_csv(args.csv)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read diagnostics CSV: {exc}") from None
    if not records:
        raise UsageError("diagnostics CSV holds an empty history")
    tolerances = {name: getattr(args, name) for name in _TOLERANCES
                  if getattr(args, name) is not None}
    try:
        bundle = certificate_bundle(records, args.forced, **tolerances)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    text = json.dumps(bundle, indent=2)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write report {args.out}: {exc}") from None
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vspc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"vspc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured problem")
    p_run.add_argument("config", help="INI run configuration")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify-exact",
                           help="closed-form residual checks and the ODE cross-check")
    p_ver.add_argument("--alpha", type=float, default=2.0)
    p_ver.add_argument("--beta", type=float, default=1.0)
    p_ver.add_argument("--f0", type=float, default=1.0)
    p_ver.set_defaults(func=cmd_verify_exact)

    p_conv = sub.add_parser("convergence", help="spatial or temporal order measurement")
    p_conv.add_argument("--mode", required=True, choices=("spatial", "temporal"))
    p_conv.set_defaults(func=cmd_convergence)

    p_rep = sub.add_parser("criterion-report",
                           help="recompute certificates from a diagnostics CSV")
    p_rep.add_argument("csv", help="diagnostics CSV produced by a run")
    p_rep.add_argument("--forced", action="store_true",
                       help="mark the energy identity not-applicable (forced run)")
    p_rep.add_argument("--out", default=None, help="write JSON here instead of stdout")
    for name in _TOLERANCES:    # unset flags leave certificate_bundle's defaults
        p_rep.add_argument("--" + name.replace("_", "-"), dest=name, type=float)
    p_rep.set_defaults(func=cmd_criterion_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
