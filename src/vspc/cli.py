"""Command-line front end: run, verify-exact, convergence, criterion-report.

Exit codes: 0 success, 1 usage/configuration error, 2 blowup detected during a
run, 3 certificate violation (strict mode) or a failed verification/convergence
threshold.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import inspect
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path
from typing import NamedTuple

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

_MAX_N = 4096       # the largest grid a run takes; README gives its memory
# config holds every key the run used, by section, defaults included
RunConfig = NamedTuple("RunConfig", [("solver", SolverConfig), ("initial", State), ("config", dict)])


def _grid(text) -> GridSpec:      # ConfigParser.getgrid
    if (n := int(text)) > _MAX_N:       # before anything of its size is built
        raise ValueError(f"grid size must be at most {_MAX_N}, got {n}")
    return GridSpec(n)


def _from_snapshot(grid, nu, path=None):
    if path is None:
        raise UsageError("initial kind from-snapshot needs [initial] path")
    try:
        t, snap_grid, arrays = read_snapshot(path)
        if len(arrays) != 6:
            raise ValueError(f"run snapshot needs 6 fields (u1, u2, F11, F21, F12, F22), got {len(arrays)}")
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load snapshot {path}: {exc}") from None
    if snap_grid != grid:
        raise UsageError(f"snapshot grid n={snap_grid.n} does not match config n={grid.n}")
    return state_from_arrays(grid, t, *arrays), None


# Each section's keys with their ConfigParser getters.  [grid] n, [solver] nu and t_end
# are required; any other key left out takes the default of its owner.
_RUN_KEYS = {
    "grid": {"n": "getgrid"},
    "solver": dict.fromkeys(("nu", "t_end", "cfl", "dt_max"), "getfloat"),
    "initial": {"kind": "get"},
    "output": {"dir": "get", "snapshot_interval": "getint", "diagnostics_interval": "getint"},
    "certificates": {"strict": "getboolean", **dict.fromkeys(
        ("energy_tolerance", "lp_tolerance", "divergence_tolerance", "gradu_ceiling"), "getfloat")},
}
_KINDS = {      # kind: (its own keys, the owner of their defaults, build(grid, nu, **keys))
    "taylor-green": ({}, None, lambda grid, nu: (taylor_green_state(grid), None)),
    "steady-identity": ({}, None, lambda grid, nu: (steady_identity_state(grid), None)),
    "perturbed-identity": ({"amplitude": "getfloat"}, perturbed_identity_state,
                           lambda grid, nu, **keys: (perturbed_identity_state(grid, **keys), None)),
    "manufactured": ({"case": "get"}, exact.manufactured, lambda grid, nu, **keys:
                     ((made := exact.manufactured(grid, nu, **keys)).initial, made.forcing)),
    "from-snapshot": ({"path": "get"}, _from_snapshot, _from_snapshot),
}
_HOMES = {key: f"[{section}] {key}" for section, keys in _RUN_KEYS.items() for key in keys} | {
    key: f"[initial] {key} (kind {kind})" for kind, (keys, _, _) in _KINDS.items() for key in keys}


def _near(name, known) -> str:     # known: {name: as a message shows it}
    from difflib import get_close_matches       # on this error path only
    near = get_close_matches(name.lower(), known, n=1)
    return f"; did you mean {known[near[0]]}?" if near else f"; choose from {', '.join(known.values())}"


def parse_run_config(path) -> RunConfig:
    """Read an INI run configuration; raises UsageError on any defect.

    Every section and key must be one that _RUN_KEYS or the kind's row of _KINDS
    declares.  Values are taken literally: a % in a path is a %, not an interpolation.
    """
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"),
                                   default_section="", converters={"grid": _grid})
    try:
        loaded = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}") from None
    if not loaded:
        raise UsageError(f"cannot read config file {path}")

    kind = cp.get("initial", "kind", fallback="taylor-green")
    if kind not in _KINDS:
        raise UsageError(f"unknown initial kind {kind!r}" + _near(kind, {k: k for k in _KINDS}))
    own, owner, build = _KINDS[kind]
    schema = _RUN_KEYS | {"initial": _RUN_KEYS["initial"] | own}      # this run's keys
    read = {}
    for section in cp.sections():
        if section not in schema and section != "DEFAULT":     # [DEFAULT] declares no key
            raise UsageError(f"unknown section [{section}]" + _near(section, {s: f"[{s}]" for s in schema}))
        for key in cp.options(section):
            if key not in schema.get(section, {}):
                where = f" for kind {kind}" if section == "initial" else ""
                raise UsageError(f"unknown key [{section}] {key}{where}" + _near(key, _HOMES))
            try:
                read[key] = getattr(cp, schema[section][key])(section, key)
            except ValueError as exc:
                raise UsageError(f"bad value for [{section}] {key}: {exc}") from None
    for section, key in (("grid", "n"), ("solver", "nu"), ("solver", "t_end")):
        if key not in read:
            raise UsageError(f"config is missing [{section}] {key}")

    used = {"n": read["n"].n, "kind": kind, "dir": str(Path(read.get("dir", "vspc-run"))),
            **{key: read.get(key, inspect.signature(owner).parameters[key].default) for key in own}}
    try:    # the solver's keys are checked before the initial state is built
        solver = SolverConfig(read["n"], **{key: value for key, value in read.items() if key not in used})
        initial, forcing = build(solver.grid, solver.nu, **{key: used[key] for key in own})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    config = {section: {key: used[key] if key in used else getattr(solver, key) for key in keys}
              for section, keys in schema.items()}
    return RunConfig(dataclasses.replace(solver, forcing=forcing), initial, config)


def _check_dir(path: Path):
    """Raise UsageError unless path is a directory or mkdir(parents=True) can make it one."""
    found = next(p for p in (path, *path.parents) if p.exists())   # "." and "/" exist
    if not found.is_dir():
        raise UsageError(f"output path {path}: {found} exists and is not a directory")


def _replace(path: Path, write):
    """write(tmp) to a temp file beside path, then rename it over path, or remove it."""
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cmd_run(args) -> int:
    cfg = parse_run_config(args.config)
    out = Path(cfg.config["output"]["dir"])     # made once simulate has accepted the initial state
    snap_dir = out / "snapshots"
    _check_dir(snap_dir if cfg.solver.snapshot_interval > 0 else out)
    artifacts = csv_path, cert_path, meta_path = [
        out / name for name in ("diagnostics.csv", "certificates.json", "metadata.json")]
    snapshots = sorted(snap_dir.glob("state_*.vspc")) if cfg.solver.snapshot_interval > 0 else []
    for path in (*artifacts, *snapshots):           # written during and after the run,
        if path.exists() and not path.is_file():    # so checked before it
            raise UsageError(f"output path {path} exists and is not a regular file")
    written, made = [], []      # snapshots, and the directories made for them
    held = snap_dir / f".replaced-{os.getpid()}"    # an earlier run's set, while this run lasts

    def observer(state):
        if not written:     # an earlier set moves aside, so each snapshot takes an absent name
            made.extend(p for p in (snap_dir, *snap_dir.parents) if not p.exists())
            (held if snapshots else snap_dir).mkdir(parents=True, exist_ok=True)
            for path in snapshots:
                path.rename(held / path.name)
        written.append(snap_dir / f"state_{len(written):06d}.vspc")
        _replace(written[-1], lambda tmp: write_snapshot(tmp, state.t, state.channels))

    started = time.perf_counter()
    try:
        result = simulate(cfg.solver, cfg.initial, observer=observer)
    except ValueError as exc:   # a usage error leaves out/ as it found it
        for path in written:
            path.unlink(missing_ok=True)
        if written and snapshots:       # the earlier set goes back to its names
            for path in snapshots:
                (held / path.name).rename(path)
            shutil.rmtree(held)
        for path in made:       # deepest first
            path.rmdir()
        raise UsageError(str(exc)) from None
    elapsed = time.perf_counter() - started
    for path in [] if written else snapshots:   # this run's set replaces the earlier one:
        path.unlink()                           # under its names if no snapshot moved it,
    for path in snap_dir.glob(".replaced-*"):   # or held aside, by this run or a killed one
        shutil.rmtree(path)

    out.mkdir(parents=True, exist_ok=True)
    _replace(csv_path, lambda tmp: write_records_csv(tmp, result.records))
    bundle = certificate_bundle(result.records, cfg.solver.forcing is not None,
                                **{name: getattr(cfg.solver, name) for name in _TOLERANCES})
    _replace(cert_path, lambda tmp: tmp.write_text(json.dumps(bundle, indent=2) + "\n"))
    metadata = {
        "version": __version__,
        "config": cfg.config,
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
    _replace(meta_path, lambda tmp: tmp.write_text(json.dumps(metadata, indent=2) + "\n"))

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
    for name, passed, detail in checks:
        print(f"  {name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
    ok = all(passed for _, passed, _ in checks)
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 3


def cmd_verify_exact(args) -> int:
    try:
        params = exact.ZghParams(args.alpha, args.beta, args.f0)
        checks = exact.zgh_checks(params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
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
            _replace(Path(args.out), lambda tmp: tmp.write_text(text + "\n"))
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
