"""Command-line behavior: config parsing, exit codes, and artifact layout."""

import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vspc
import vspc.cli
from conftest import overflowing_forcing
from vspc.cli import main, parse_run_config, UsageError
from vspc.diagnostics import certificate_bundle, read_records_csv, write_records_csv
from vspc.fields import GridSpec, ScalarField, read_snapshot, write_snapshot
from vspc.solver import SolverConfig, perturbed_identity_state


def _write_config(path, **overrides):
    base = {
        "grid": {"n": 16},
        "solver": {"nu": 0.01, "t_end": 0.05, "dt_max": 0.005},
        "initial": {"kind": "perturbed-identity", "amplitude": 0.1},
        "output": {"dir": str(path.parent / "out"), "snapshot_interval": 5,
                   "diagnostics_interval": 2},
        "certificates": {"strict": "false"},
    }
    for section, vals in overrides.items():
        base.setdefault(section, {}).update(vals)
    lines = []
    for section, vals in base.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in vals.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 1


def test_missing_config_file():
    assert main(["run", "/nonexistent/path.ini"]) == 1


def test_config_validation_errors(tmp_path):
    cfg = _write_config(tmp_path / "a.ini", grid={"n": 12})
    with pytest.raises(UsageError, match="power of two"):
        parse_run_config(cfg)
    cfg = _write_config(tmp_path / "b.ini", initial={"kind": "vortex-sheet"})
    with pytest.raises(UsageError, match="unknown initial kind"):
        parse_run_config(cfg)
    cfg = _write_config(tmp_path / "c.ini", solver={"nu": "fast"})
    with pytest.raises(UsageError, match="bad value"):
        parse_run_config(cfg)
    (tmp_path / "d.ini").write_text("[grid]\nn = 16\n")  # no [solver]
    with pytest.raises(UsageError, match="missing"):
        parse_run_config(tmp_path / "d.ini")


def test_non_finite_solver_value_is_a_usage_error(tmp_path, capsys):
    # a NaN step cap must not start a run, which would end in a false blowup
    cfg = _write_config(tmp_path / "nan.ini", solver={"dt_max": "nan"})
    with pytest.raises(UsageError, match="dt_max"):
        parse_run_config(cfg)
    assert main(["run", str(cfg)]) == 1
    assert "dt_max" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_produces_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.ini")
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "diagnostics.csv").exists()
    assert (out / "certificates.json").exists()
    assert (out / "metadata.json").exists()
    snaps = sorted((out / "snapshots").iterdir())
    assert len(snaps) == 3   # t = 0, t = 0.025, final

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["grid"]["n"] == "16"
    assert meta["result"]["termination"] == "completed"
    assert meta["result"]["snapshots_written"] == 3
    assert "max_projection_correction" not in meta["result"]

    certs = json.loads((out / "certificates.json").read_text())
    assert all(c["satisfied"] for c in certs["certificates"])


def test_criterion_report_round_trips_the_run(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.ini")
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["criterion-report", str(out / "diagnostics.csv")]) == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads((out / "certificates.json").read_text())
    assert printed == stored


def test_criterion_report_forced_flag(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.ini")
    main(["run", str(cfg)])
    capsys.readouterr()
    csv_path = str(tmp_path / "out" / "diagnostics.csv")
    assert main(["criterion-report", csv_path, "--forced"]) == 0
    report = json.loads(capsys.readouterr().out)
    energy = report["certificates"][0]
    assert energy["name"] == "energy-identity"
    assert energy["applicable"] is False


@pytest.mark.parametrize("flag, value", [
    ("--divergence-tolerance", "inf"), ("--lp-tolerance", "nan"),
    ("--energy-tolerance", "-1")])
def test_criterion_report_rejects_bad_tolerances(tmp_path, capsys, flag, value):
    cfg = _write_config(tmp_path / "run.ini")
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    csv_path = str(tmp_path / "out" / "diagnostics.csv")
    assert main(["criterion-report", csv_path, flag, value, "--out", str(report)]) == 1
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not report.exists()
    assert main(["criterion-report", csv_path, flag, "0", "--out", str(report)]) == 0


def test_criterion_report_of_a_csv_cut_in_its_last_row_is_a_usage_error(tmp_path, capsys):
    # cut inside the exponent of div_drift_F, `5.27…e-16` read back as 0.527
    # and was reported as a divergence violation
    cfg = _write_config(tmp_path / "run.ini")
    assert main(["run", str(cfg)]) == 0
    csv_path = tmp_path / "out" / "diagnostics.csv"
    raw = csv_path.read_bytes()
    cut = raw.rindex(b"e-", 0, len(raw) - 2)
    csv_path.write_bytes(raw[:cut])
    capsys.readouterr()
    assert main(["criterion-report", str(csv_path)]) == 1
    assert "no line end" in capsys.readouterr().err


def test_required_keys_alone_give_the_solver_defaults(tmp_path):
    ini = tmp_path / "min.ini"
    ini.write_text("[grid]\nn = 16\n[solver]\nnu = 0.01\nt_end = 0.05\n")
    parsed = parse_run_config(ini).solver
    default = SolverConfig(GridSpec(16), 0.01, 0.05)
    for field in dataclasses.fields(SolverConfig):
        assert getattr(parsed, field.name) == getattr(default, field.name), field.name


def test_criterion_report_defaults_are_the_bundle_defaults(tmp_path, capsys):
    # tolerances set in the run's INI must not leak into the offline defaults
    cfg = _write_config(tmp_path / "run.ini", certificates={"energy_tolerance": 1e-3})
    assert main(["run", str(cfg)]) == 0
    csv_path = tmp_path / "out" / "diagnostics.csv"
    capsys.readouterr()
    assert main(["criterion-report", str(csv_path)]) == 0
    bundle = certificate_bundle(read_records_csv(csv_path))
    assert capsys.readouterr().out == json.dumps(bundle, indent=2) + "\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_criterion_report_rejects_non_finite_values(tmp_path, capsys, value):
    # NaN passes every `>` test, so a NaN record would read as seven PASS verdicts
    cfg = _write_config(tmp_path / "run.ini")
    assert main(["run", str(cfg)]) == 0
    csv_path = tmp_path / "out" / "diagnostics.csv"
    records = read_records_csv(csv_path)
    records[1] = dataclasses.replace(records[1], l2_u=float(value), lpinf_F_c1=float(value),
                                     h1_u=float(value), div_drift_u=float(value))
    write_records_csv(csv_path, records)
    capsys.readouterr()
    assert main(["criterion-report", str(csv_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite l2_u, h1_u, lpinf_F_c1, div_drift_u" in err


@pytest.mark.parametrize("snapshot_interval", [0, 1])
@pytest.mark.parametrize("nested", [False, True])
def test_output_dir_that_is_a_file_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                    snapshot_interval, nested):
    blocker = tmp_path / "out"
    blocker.write_text("not a directory\n")
    out = blocker / "run" if nested else blocker
    cfg = _write_config(tmp_path / "run.ini",
                        output={"dir": str(out), "snapshot_interval": snapshot_interval})
    monkeypatch.setattr(vspc.cli, "simulate", None)     # the check precedes the run
    assert main(["run", str(cfg)]) == 1
    assert "is not a directory" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.ini"]


@pytest.mark.parametrize("text", [
    b"n = 16\n[solver]\nnu = 0.01\n",
    b"[grid]\nn = 16\n[grid]\nn = 32\n",
    b"[grid]\nn = 16\nn = 32\n",
    b"\xff\xfe[\x00g\x00]\x00",
], ids=["no-section-header", "repeated-section", "repeated-key", "not-text"])
def test_unparsable_config_is_a_usage_error(tmp_path, capsys, monkeypatch, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(text)
    monkeypatch.setattr(vspc.cli, "simulate", None)
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot parse config file")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]


def test_percent_in_a_config_value_is_taken_literally(tmp_path, capsys):
    # no interpolation: "%y" was an InterpolationSyntaxError traceback
    out = tmp_path / "out%y"
    cfg = _write_config(tmp_path / "run.ini", output={"dir": str(out), "snapshot_interval": 0})
    assert parse_run_config(cfg).out_dir == out
    assert main(["run", str(cfg)]) == 0
    assert (out / "diagnostics.csv").is_file()


@pytest.mark.parametrize("name", ["diagnostics.csv", "certificates.json", "metadata.json"])
def test_artifact_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch, name):
    # the artifacts are written after the run: a blocked one must stop it before
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = _write_config(tmp_path / "run.ini")
    monkeypatch.setattr(vspc.cli, "simulate", None)     # the check precedes the run
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and "not a regular file" in err
    assert [p.name for p in out.iterdir()] == [name]


def test_snapshot_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # snapshots are written during the run: a blocked one stopped it mid-way
    # in an IsADirectoryError traceback, after state_000000.vspc was written
    snaps = tmp_path / "out" / "snapshots"
    (snaps / "state_000001.vspc").mkdir(parents=True)
    cfg = _write_config(tmp_path / "run.ini")      # n = 16, snapshot_interval = 5
    monkeypatch.setattr(vspc.cli, "simulate", None)     # the check precedes the run
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "state_000001.vspc" in err
    assert "not a regular file" in err
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["snapshots"]
    assert [p.name for p in snaps.iterdir()] == ["state_000001.vspc"]


def test_existing_snapshot_files_do_not_block_a_run(tmp_path):
    snaps = tmp_path / "out" / "snapshots"
    snaps.mkdir(parents=True)
    (snaps / "state_000001.vspc").write_bytes(b"stale")
    assert main(["run", str(_write_config(tmp_path / "run.ini"))]) == 0
    assert (snaps / "state_000001.vspc").stat().st_size > 5    # overwritten


def test_a_rerun_leaves_its_own_snapshots_only(tmp_path):
    # a shorter rerun into the same dir wrote state_000000 and state_000001
    # over the first run's and left its state_000002 beside them
    snaps = tmp_path / "out" / "snapshots"
    assert main(["run", str(_write_config(tmp_path / "run.ini"))]) == 0    # steps 0, 5, 10
    assert len(list(snaps.iterdir())) == 3
    (snaps / "state_000007.vspc").write_bytes(b"older still")
    assert main(["run", str(_write_config(tmp_path / "run.ini", solver={"t_end": 0.02}))]) == 0
    assert sorted(p.name for p in snaps.iterdir()) == ["state_000000.vspc", "state_000001.vspc"]
    assert not list(snaps.glob(".replaced-*"))      # the set it held aside is gone
    assert [read_snapshot(p)[0] for p in sorted(snaps.iterdir())] == pytest.approx([0.0, 0.02])
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["result"]["snapshots_written"] == 2


def test_a_usage_error_mid_run_leaves_the_earlier_run_as_it_was(tmp_path, capsys):
    # the clock stalls after the step-0 snapshot, by when the earlier run's set
    # had been removed beside its CSV and JSON artifacts: it was held aside, and
    # goes back under its names, byte for byte, with no hidden directory left
    out = tmp_path / "out"
    assert main(["run", str(_write_config(tmp_path / "run.ini",
                                          output={"snapshot_interval": 1}))]) == 0
    before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert len([p for p in before if p.parent.name == "snapshots"]) == 11
    snap = tmp_path / "late.vspc"
    write_snapshot(snap, 1e10, perturbed_identity_state(GridSpec(16), 0.1).channels)
    cfg = _write_config(tmp_path / "late.ini", solver={"cfl": 1e-6},
                        initial={"kind": "from-snapshot", "path": str(snap)},
                        output={"snapshot_interval": 1})
    assert main(["run", str(cfg)]) == 1
    assert "error: the clock stalls" in capsys.readouterr().err
    assert {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == [    # no empty directory
        f"state_{k:06d}.vspc" for k in range(11)]


def test_a_refused_run_leaves_the_earlier_snapshots_untouched(tmp_path, capsys):
    # refused before it starts: by the output check, or by simulate rejecting
    # the initial state (a snapshot of u = (sin x₁, 0) breaks div u = 0)
    snaps = tmp_path / "out" / "snapshots"
    assert main(["run", str(_write_config(tmp_path / "run.ini"))]) == 0
    before = {p.name: p.read_bytes() for p in snaps.iterdir()}
    g = GridSpec(16)
    x1, _ = g.mesh()
    zero, one = np.zeros_like(x1), np.ones_like(x1)
    bad = tmp_path / "divergent.vspc"
    write_snapshot(bad, 0.0, [ScalarField.from_samples(g, a)
                              for a in (np.sin(x1), zero, one, zero, zero, one)])
    (tmp_path / "out" / "metadata.json").unlink()
    (tmp_path / "out" / "metadata.json").mkdir()
    assert main(["run", str(_write_config(tmp_path / "run.ini"))]) == 1
    (tmp_path / "out" / "metadata.json").rmdir()
    cfg = _write_config(tmp_path / "bad.ini", initial={"kind": "from-snapshot", "path": str(bad)})
    assert main(["run", str(cfg)]) == 1
    assert "divergence" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in snaps.iterdir()} == before


def test_snapshot_dir_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "snapshots").write_text("")
    cfg = _write_config(tmp_path / "run.ini")
    assert main(["run", str(cfg)]) == 1
    assert "snapshots" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["snapshots"]


@pytest.mark.parametrize("target", ["a-directory", "missing/report.json"])
def test_criterion_report_into_an_unwritable_path_is_a_usage_error(tmp_path, capsys, target):
    cfg = _write_config(tmp_path / "run.ini")
    assert main(["run", str(cfg)]) == 0
    (tmp_path / "a-directory").mkdir()
    capsys.readouterr()
    csv_path = str(tmp_path / "out" / "diagnostics.csv")
    assert main(["criterion-report", csv_path, "--out", str(tmp_path / target)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write report")


def _cut_writes(monkeypatch, name):
    """Make the writes of files whose name holds `name` stop halfway on a full disk."""
    def cut(write):
        def writing(path, content, *args, **kwargs):
            if name not in Path(path).name:
                return write(path, content, *args, **kwargs)
            write(path, content[:len(content) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")
        return writing

    monkeypatch.setattr(Path, "write_text", cut(Path.write_text))
    monkeypatch.setattr(vspc.cli, "write_records_csv", cut(vspc.cli.write_records_csv))


@pytest.mark.parametrize("name", ["diagnostics.csv", "certificates.json", "metadata.json",
                                  "report.json"])
def test_an_artifact_whose_write_fails_is_left_as_it_was(tmp_path, monkeypatch, capsys, name):
    # each artifact goes to a temp file and is renamed over its path: a CSV
    # cut at a row end would read back as a shorter history, which
    # criterion-report would certify
    out = tmp_path / "out"
    report = ["criterion-report", str(out / "diagnostics.csv"), "--out", str(tmp_path / "report.json")]
    assert main(["run", str(_write_config(tmp_path / "run.ini"))]) == 0
    assert main(report) == 0
    before = {p: p.read_bytes() for p in (*out.iterdir(), tmp_path / "report.json")
              if p.is_file()}
    _cut_writes(monkeypatch, name)
    if name == "report.json":
        assert main(report + ["--forced"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write report")
    else:
        with pytest.raises(OSError, match="No space left"):
            main(["run", str(_write_config(tmp_path / "run.ini", solver={"t_end": 0.04}))])
    kept = next(p for p in before if p.name == name)
    assert kept.read_bytes() == before[kept]
    assert sorted(tmp_path.rglob("*.tmp")) == []
    assert {p for p in (*out.iterdir(), tmp_path / "report.json") if p.is_file()} == set(before)


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), ValueError("bad")])
def test_a_snapshot_whose_write_fails_leaves_no_part_under_its_name(tmp_path, monkeypatch,
                                                                     capsys, error):
    # the second snapshot stops halfway and raises: it was written in place and
    # left cut under its final name, which read_snapshot then rejects.  A
    # failed write leaves the earlier snapshots whole and no temp file; a
    # usage error (a ValueError in the run) still removes every snapshot
    write = vspc.cli.write_snapshot

    def cut_second(path, t, fields):
        write(path, t, fields)
        if len(calls) == 1:
            Path(path).write_bytes(Path(path).read_bytes()[:100])
            raise error
        calls.append(path)

    calls = []
    monkeypatch.setattr(vspc.cli, "write_snapshot", cut_second)
    cfg = _write_config(tmp_path / "run.ini", output={"snapshot_interval": 1})
    snap_dir = tmp_path / "out" / "snapshots"
    if isinstance(error, ValueError):
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: bad\n"
        assert not (tmp_path / "out").exists()
    else:
        with pytest.raises(OSError, match="No space left"):
            main(["run", str(cfg)])
        assert [p.name for p in snap_dir.iterdir()] == ["state_000000.vspc"]
        assert read_snapshot(snap_dir / "state_000000.vspc")[0] == 0.0
    assert sorted(tmp_path.rglob("*.tmp")) == []


def test_criterion_report_with_the_run_inputs_reproduces_a_forced_run(tmp_path):
    # the CSV holds neither the forced flag nor the tolerances: with them given
    # again, criterion-report writes the run's certificates.json byte for byte
    tolerances = {"energy_tolerance": "0.001", "lp_tolerance": "0.002",
                  "divergence_tolerance": "1e-06"}
    cfg = _write_config(tmp_path / "run.ini", initial={"kind": "manufactured"},
                        certificates={"strict": "false", **tolerances})
    assert main(["run", str(cfg)]) == 0
    out, report = tmp_path / "out", tmp_path / "report.json"
    flags = [arg for name, value in tolerances.items()
             for arg in ("--" + name.replace("_", "-"), value)]
    assert main(["criterion-report", str(out / "diagnostics.csv"), "--forced", *flags,
                 "--out", str(report)]) == 0
    stored = (out / "certificates.json").read_bytes()
    assert report.read_bytes() == stored
    defaults = certificate_bundle(read_records_csv(out / "diagnostics.csv"), forced=True)
    assert json.dumps(defaults, indent=2).encode() + b"\n" != stored     # the tolerances count


def test_criterion_report_rejects_empty_history(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["criterion-report", str(empty)]) == 1
    import vspc.diagnostics as dg
    header_only = tmp_path / "header.csv"
    dg.write_records_csv(header_only, [])
    assert main(["criterion-report", str(header_only)]) == 1


def test_run_from_snapshot_round_trip(tmp_path, capsys):
    cfg = _write_config(tmp_path / "first.ini")
    assert main(["run", str(cfg)]) == 0
    snap = sorted((tmp_path / "out" / "snapshots").iterdir())[-1]
    cfg2 = _write_config(tmp_path / "second.ini",
                         initial={"kind": "from-snapshot", "path": str(snap)},
                         output={"dir": str(tmp_path / "out2")})
    assert main(["run", str(cfg2)]) == 0
    meta = json.loads((tmp_path / "out2" / "metadata.json").read_text())
    # resumed clock: 0.05 from the first leg plus 0.05 more
    assert abs(meta["result"]["final_time"] - 0.1) < 1e-9


def test_run_from_snapshot_grid_mismatch(tmp_path):
    cfg = _write_config(tmp_path / "first.ini")
    assert main(["run", str(cfg)]) == 0
    snap = sorted((tmp_path / "out" / "snapshots").iterdir())[-1]
    cfg2 = _write_config(tmp_path / "second.ini", grid={"n": 32},
                         initial={"kind": "from-snapshot", "path": str(snap)})
    assert main(["run", str(cfg2)]) == 1


def test_rejected_initial_state_writes_nothing(tmp_path, capsys):
    # a snapshot of u = (sin x₁, 0) breaks div u = 0: a usage error, and no out/
    g = GridSpec(16)
    x1, _ = g.mesh()
    zero, one = np.zeros_like(x1), np.ones_like(x1)
    snap = tmp_path / "divergent.vspc"
    write_snapshot(snap, 0.0, [ScalarField.from_samples(g, a)
                               for a in (np.sin(x1), zero, one, zero, zero, one)])
    cfg = _write_config(tmp_path / "bad.ini", initial={"kind": "from-snapshot", "path": str(snap)})
    assert main(["run", str(cfg)]) == 1
    assert "divergence" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t0", [math.nan, math.inf])
def test_run_from_a_snapshot_at_a_non_finite_time_writes_nothing(tmp_path, capsys, t0):
    g = GridSpec(16)
    snap = tmp_path / "state.vspc"
    write_snapshot(snap, t0, perturbed_identity_state(g, 0.1).channels)
    cfg = _write_config(tmp_path / "bad.ini", initial={"kind": "from-snapshot", "path": str(snap)})
    assert main(["run", str(cfg)]) == 1
    assert "error: initial time must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_whose_clock_stalls_is_a_usage_error(tmp_path, capsys):
    # a CFL step of 1.5e-7 does not advance t = 1e10; with a snapshot every
    # step, the stall comes after the step-0 snapshot, which is removed again
    # with the directories made for it, and no others
    g = GridSpec(16)
    snap = tmp_path / "late.vspc"
    write_snapshot(snap, 1e10, perturbed_identity_state(g, 0.1).channels)
    for interval in (0, 1):
        cfg = _write_config(tmp_path / "late.ini", solver={"cfl": 1e-6},
                            initial={"kind": "from-snapshot", "path": str(snap)},
                            output={"snapshot_interval": interval})
        assert main(["run", str(cfg)]) == 1
        assert "error: the clock stalls at t = 10000000000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    (tmp_path / "out").mkdir()
    assert main(["run", str(cfg)]) == 1
    assert list((tmp_path / "out").iterdir()) == []


def test_run_snapshots_take_the_pruned_inverse(tmp_path, monkeypatch):
    # a snapshot is the observed state's band as it is (v2): no full spectrum
    # during the run and no inverse transform in a snapshot write, and the
    # file reads back as GridSpec.to_samples of each observed state's full spectra
    cfg = _write_config(tmp_path / "snap.ini", output={"snapshot_interval": 1},
                        certificates={"strict": "true"})
    parsed = parse_run_config(cfg)
    fields = vspc.fields
    want = []

    def full_lattice_snapshot(state):
        rows = np.stack([f.row for f in state.channels])
        header = fields._HEADER.pack(fields.SNAPSHOT_MAGIC, 2, state.grid.n, 6, state.t,
                                     state.grid.half.band)
        samples = state.grid.to_samples(np.stack([f.data for f in state.channels]))
        want.append((header + rows.astype("<c16").tobytes(), samples.tobytes()))

    vspc.solver.simulate(parsed.solver, parsed.initial, observer=full_lattice_snapshot)
    phase, calls = [None], []
    for owner, name in ((GridSpec, "to_samples"), (fields.HalfSpectrum, "full"),
                        (fields.HalfSpectrum, "to_samples")):
        original = getattr(owner, name)

        def counting(*args, _original=original, _name=f"{owner.__name__}.{name}", **kwargs):
            if phase[0] == "writing" or (phase[0] and _name != "HalfSpectrum.to_samples"):
                calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    def entering(target, during):
        def run(*args, **kwargs):
            before, phase[0] = phase[0], during
            try:
                return target(*args, **kwargs)
            finally:
                phase[0] = before
        return run

    monkeypatch.setattr(vspc.cli, "simulate", entering(vspc.cli.simulate, "running"))
    monkeypatch.setattr(vspc.cli, "write_snapshot", entering(vspc.cli.write_snapshot, "writing"))
    assert main(["run", str(cfg)]) == 0
    assert calls == []
    written = sorted((tmp_path / "out" / "snapshots").glob("state_*.vspc"))
    assert len(written) == 11 and [p.read_bytes() for p in written] == [b for b, _ in want]
    for path, (_, samples) in zip(written, want):
        assert np.array(read_snapshot(path)[2]).tobytes() == samples


@pytest.mark.parametrize("case", ["forced", "sparse", "late"])
def test_each_run_snapshot_reads_back_the_samples_of_its_state(tmp_path, case):
    # the bytes that v1 stored for each observed state: GridSpec.to_samples of
    # its full spectra (a strict run is test_run_snapshots_take_the_pruned_inverse)
    g = GridSpec(16)
    late = tmp_path / "late.vspc"
    write_snapshot(late, 1e3, perturbed_identity_state(g, 0.1).channels)
    overrides = {
        "forced": {"initial": {"kind": "manufactured"}},
        "sparse": {"output": {"snapshot_interval": 3}},
        "late": {"initial": {"kind": "from-snapshot", "path": str(late)}},
    }[case]
    cfg = _write_config(tmp_path / "run.ini", **{"output": {"snapshot_interval": 1}, **overrides})
    parsed = parse_run_config(cfg)
    want = []
    vspc.solver.simulate(parsed.solver, parsed.initial, observer=lambda state: want.append(
        (state.t, g.to_samples(np.stack([f.data for f in state.channels])).tobytes())))
    assert main(["run", str(cfg)]) == 0
    written = sorted((tmp_path / "out" / "snapshots").glob("state_*.vspc"))
    assert len(written) == len(want) == (5 if case == "sparse" else 11)
    for path, (t, samples) in zip(written, want):
        assert path.read_bytes()[4:8] == struct.pack("<I", 2)
        read_t, grid, arrays = read_snapshot(path)
        assert (read_t, grid) == (t, g) and np.array(arrays).tobytes() == samples


def test_from_snapshot_of_a_v2_file_and_of_a_v1_file_of_its_samples_agree(tmp_path):
    # a run's v2 snapshot and a v1 file of the same samples, in the layout of
    # the versions before v2, start runs with identical records and certificates
    assert main(["run", str(_write_config(tmp_path / "first.ini"))]) == 0
    v2 = sorted((tmp_path / "out" / "snapshots").iterdir())[-1]
    t, g, arrays = read_snapshot(v2)
    v1 = tmp_path / "v1.vspc"
    v1.write_bytes(struct.pack("<4sIIId8x", b"VSPC", 1, g.n, 6, t)
                   + np.array(arrays).astype("<f8").tobytes())
    again = tmp_path / "again.vspc"         # samples are still written as v1
    write_snapshot(again, t, [ScalarField.from_samples(g, a) for a in arrays])
    assert again.read_bytes() == v1.read_bytes()
    runs = []
    for snap in (v2, v1):
        out = tmp_path / f"from-{snap.stem}"
        cfg = _write_config(tmp_path / f"{snap.stem}.ini", output={"dir": str(out)},
                            initial={"kind": "from-snapshot", "path": str(snap)})
        assert main(["run", str(cfg)]) == 0
        snaps = sorted((out / "snapshots").iterdir())
        runs.append([(out / name).read_bytes() for name in ("diagnostics.csv", "certificates.json")]
                    + [p.read_bytes() for p in snaps])
    assert runs[0] == runs[1]


def test_run_makes_the_snapshot_dir_once(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path / "snap.ini", output={"snapshot_interval": 1})
    (tmp_path / "out" / "snapshots").mkdir(parents=True)    # so each mkdir is one call
    made = []
    mkdir = Path.mkdir

    def counting(self, *args, **kwargs):
        made.append(self.name)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting)
    assert main(["run", str(cfg)]) == 0
    assert len(list((tmp_path / "out" / "snapshots").iterdir())) == 11
    assert made.count("snapshots") == 1


def test_zero_horizon_run(tmp_path):
    cfg = _write_config(tmp_path / "zero.ini", solver={"t_end": 0.0})
    assert main(["run", str(cfg)]) == 0
    csv_text = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()
    assert len(csv_text) == 2   # header + the single t = 0 record


def test_strict_violation_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path / "strict.ini",
                        certificates={"strict": "true", "energy_tolerance": 1e-18})
    assert main(["run", str(cfg)]) == 3
    assert "energy-identity" in capsys.readouterr().err


def test_blowup_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path / "ceil.ini",
                        initial={"kind": "taylor-green"},
                        certificates={"gradu_ceiling": 0.5})
    assert main(["run", str(cfg)]) == 2
    assert "blowup" in capsys.readouterr().err


@pytest.mark.parametrize("interval", [1, 2])
def test_a_run_whose_state_overflows_is_a_blowup_with_a_readable_csv(tmp_path, capsys,
                                                                       monkeypatch, interval):
    # a forcing drives F to about 1e157 at t = 5/128: finite, but its squares
    # overflow.  The run ends as a blowup there (exit 2), not as a usage error,
    # and its diagnostics CSV reads back through criterion-report
    dt = 2.0 ** -7
    monkeypatch.setattr(vspc.exact, "manufactured", lambda grid, nu, case="broadband":
                        vspc.exact.Manufactured(perturbed_identity_state(grid, 0.1),
                                                overflowing_forcing(grid, 5 * dt), None))
    cfg = _write_config(tmp_path / "over.ini", initial={"kind": "manufactured"},
                        solver={"t_end": 0.25, "dt_max": dt},
                        output={"snapshot_interval": 1, "diagnostics_interval": interval})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(cfg)]) == 2
    assert "blowup signalled at t = 0.0390625" in capsys.readouterr().err
    out = tmp_path / "out"
    meta = json.loads((out / "metadata.json").read_text())["result"]
    assert meta["termination"] == "blowup-detected" and meta["final_time"] == 5 * dt
    # a record at that t ends the run before its snapshot, the CFL step after it
    assert len(list((out / "snapshots").glob("state_*.vspc"))) == (5 if interval == 1 else 6)
    csv_path = str(out / "diagnostics.csv")
    assert len(read_records_csv(csv_path)) == (5 if interval == 1 else 3)
    assert main(["criterion-report", csv_path, "--forced", "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report == json.loads((out / "certificates.json").read_text())


def test_verify_exact_default_passes(capsys):
    assert main(["verify-exact"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


@pytest.mark.parametrize("f0", ["4", "10", "1e6"])
def test_verify_exact_checks_an_early_pole_before_it(capsys, f0):
    # t* = 1/12, 1/30 and 3.3e-7 lie before the default residual time t = 0.2;
    # at 3.3e-7 the ODE cross-check needs steps of t*/1000, not one step
    assert main(["verify-exact", "--f0", f0]) == 0
    assert "all checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("f0", ["1e-2", "1e-3"])
def test_verify_exact_passes_at_small_amplitude(capsys, f0):
    # the printed display's defects are judged against a(t), not in absolute terms
    assert main(["verify-exact", "--f0", f0]) == 0
    out = capsys.readouterr().out
    assert re.search(r"printed fidelity shows div u = 2a \(documented defect\) +PASS", out)
    assert re.search(r"printed fidelity breaks F22 transport +PASS", out)


@pytest.mark.parametrize("f0", ["0", "-0.0"])
def test_verify_exact_without_amplitude_is_a_usage_error(capsys, f0):
    # f0 = 0 is u = 0, F = I: no check could pass on it, so it is no run
    assert main(["verify-exact", "--f0", f0]) == 1
    captured = capsys.readouterr()
    assert "no amplitude to verify" in captured.err and not captured.out


def test_verify_exact_default_times_are_kept(capsys):
    assert main(["verify-exact"]) == 0
    out = capsys.readouterr().out
    assert "div u = 5, 2a = 5" in out       # the amplitude at t = 0.2
    assert "at t = 0.2833" in out           # 0.85 t*


@pytest.mark.parametrize("f0, steps", [("1.0", 2833), ("1e-3", vspc.exact._ODE_STEPS)])
def test_verify_exact_bounds_the_ode_steps(capsys, monkeypatch, f0, steps):
    # t* = 1/3 keeps its 2833 steps of 1e-4; t* = 333 would take 3.3 million
    calls = []
    stepper = vspc.exact.ode_reduce_step

    def counting(*args):
        calls.append(args[2])
        return stepper(*args)

    monkeypatch.setattr(vspc.exact, "ode_reduce_step", counting)
    main(["verify-exact", "--f0", f0])
    assert len(calls) == steps
    assert re.search(r"ODE reduction matches closed-form F +PASS", capsys.readouterr().out)


@pytest.mark.parametrize("f0", ["1e-17", "1e-300", "1e-307", "1e-12", "-1e-17"])
def test_verify_exact_passes_at_tiny_amplitude(capsys, f0):
    # the checks stop at 0.85 t*, where 1 − t/t* keeps its digits (t* − 0.05
    # rounded to t*, or left 1.5e-13 of it), the BKM integral takes log1p, and
    # the ODE step count, t_stop/1e-4 = inf at 1e-307, is capped before rounding
    assert main(["verify-exact", f"--f0={f0}"]) == 0
    assert "all checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("f0", ["5e-324", "-5e-324", "1e-310", "1e308", "-1e308"])
def test_verify_exact_amplitude_out_of_range_is_a_usage_error(capsys, f0):
    # c·f0 or the pole time 1/(c·f0) is not finite and non-zero
    assert main(["verify-exact", f"--f0={f0}"]) == 1
    captured = capsys.readouterr()
    assert "out of range" in captured.err and not captured.out


@pytest.mark.parametrize("f0", ["1e100", "1e30", "-1e30", "-1e-12"])
def test_verify_exact_passes_at_extreme_amplitudes(capsys, f0):
    # at 1e100 the single-point residual, about 1e185, is judged against its
    # cancelling terms a²·|x| ≈ 1e201, as the sweep's residuals are
    assert main(["verify-exact", f"--f0={f0}"]) == 0
    assert "all checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("f0, limit", [("1e150", "10^300"), ("1e300", "10^300"),
                                       ("1e307", "10^300"), ("-1e307", "10^300"),
                                       ("-1e99", "at most 80")])
def test_verify_exact_beyond_its_limits_is_a_usage_error(capsys, f0, limit):
    # a(t)² or the printed display's F22 = |1 − c f0 t|^c would overflow
    # (nan, or an OverflowError traceback at -1e307), or log|1 − c f0 t| is past
    # what the ODE cross-check's 10 000 steps resolve
    assert main(["verify-exact", f"--f0={f0}"]) == 1
    captured = capsys.readouterr()
    assert "out of range for verify-exact" in captured.err and limit in captured.err
    assert not captured.out


@pytest.mark.parametrize("f0", ["-1e-12", "1e-3", "1.0"])
def test_verify_exact_ode_check_fails_an_integrator_that_stands_still(capsys, monkeypatch, f0):
    # the deviation F − I is integrated and judged relative to |F − I|: at
    # -1e-12 it is about 1e-12 at t = 1, which an absolute 1e-8 bound let pass
    # with F left at I
    monkeypatch.setattr(vspc.exact, "ode_reduce_step", lambda state, a_of_t, dt, *rest:
                        vspc.exact.LinearProfileState(state.A, state.F, state.t + dt))
    assert main(["verify-exact", f"--f0={f0}"]) == 3
    assert re.search(r"ODE reduction matches closed-form F +FAIL", capsys.readouterr().out)


@pytest.mark.parametrize("f0", ["1", "1e-5", "-1", "-1e-5"])
def test_verify_exact_passes_at_nearly_equal_exponents(capsys, f0):
    # c = -20001: the printed display's F22 = |1 - c·f0·t|^c underflows to 0 at
    # t = 0.2 (f0 > 0), or would pass 10^300 there (f0 < 0), so its defects
    # are judged earlier, where |c·log|1 - c·f0·t|| = 10
    assert main(["verify-exact", "--alpha", "1", "--beta", "1.0001", f"--f0={f0}"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.count("PASS") == 7 and "all checks passed" in out


@pytest.mark.parametrize("argv", [[], ["--alpha", "1", "--beta", "1.0001"], ["--f0=-1e30"]])
def test_verify_exact_printed_defect_check_fails_a_display_without_the_defect(
        capsys, monkeypatch, argv):
    # with the printed display made the corrected one, neither defect shows
    corrected = vspc.exact._signs_and_exponents
    monkeypatch.setattr(vspc.exact, "_signs_and_exponents",
                        lambda p, fidelity: corrected(p, "corrected"))
    assert main(["verify-exact", *argv]) == 3
    out = capsys.readouterr().out
    assert re.search(r"printed fidelity breaks F22 transport +FAIL", out)
    assert re.search(r"printed fidelity shows div u = 2a \(documented defect\) +FAIL", out)


@pytest.mark.parametrize("argv", [[], ["--alpha", "1", "--beta", "1.0001"], ["--f0=-1e-12"]])
def test_verify_exact_quadrature_check_fails_a_closed_form_off_by_1e6(capsys, monkeypatch, argv):
    closed = vspc.exact.zgh_bkm_integral
    monkeypatch.setattr(vspc.exact, "zgh_bkm_integral",
                        lambda p, T: closed(p, T) * (1.0 + 1e-6))
    assert main(["verify-exact", *argv]) == 3
    out = capsys.readouterr().out
    assert re.search(r"closed-form BKM integral vs quadrature +FAIL  relative error 1\.00e-06", out)
    assert out.count("FAIL") == 2      # the line and the verdict


def test_verify_exact_rejects_equal_parameters(capsys):
    assert main(["verify-exact", "--alpha", "1.0", "--beta", "1.0"]) == 1


def test_temporal_convergence_passes(capsys):
    assert main(["convergence", "--mode", "temporal"]) == 0
    assert "order" in capsys.readouterr().out


def test_spatial_convergence_passes(capsys):
    assert main(["convergence", "--mode", "spatial"]) == 0
    assert "error drop 32 -> 64 is at least 1e2" in capsys.readouterr().out


@pytest.mark.parametrize("initial, message", [
    ({"kind": "from-snapshot"}, "needs [initial] path"),
    ({"kind": "from-snapshot", "path": "{tmp}"}, "cannot load snapshot"),
    ({"kind": "from-snapshot", "path": "{tmp}/garbage.vspc"}, "cannot load snapshot"),
    ({"kind": "from-snapshot", "path": "{tmp}/five.vspc"}, "needs 6 fields"),
    ({"kind": "manufactured", "case": "vortex-sheet"}, "unknown manufactured case"),
], ids=["no-path", "a-directory", "unreadable", "five-fields", "unknown-case"])
def test_a_bad_initial_state_is_a_usage_error_that_writes_nothing(tmp_path, capsys, initial,
                                                                     message):
    (tmp_path / "garbage.vspc").write_bytes(b"not a snapshot")
    write_snapshot(tmp_path / "five.vspc", 0.0, perturbed_identity_state(GridSpec(16), 0.1).channels[:5])
    initial = {k: v.format(tmp=tmp_path) for k, v in initial.items()}
    listing = sorted(tmp_path.iterdir())
    assert main(["run", str(_write_config(tmp_path / "run.ini", initial=initial))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert sorted(tmp_path.iterdir()) == sorted(listing + [tmp_path / "run.ini"])


def test_a_steady_identity_run_completes_at_rest(tmp_path, capsys):
    cfg = _write_config(tmp_path / "rest.ini", initial={"kind": "steady-identity"})
    assert main(["run", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("completed: 10 steps to t = 0.05")
    records = read_records_csv(tmp_path / "out" / "diagnostics.csv")
    assert [r.l2_u for r in records] == [0.0] * 6 and records[-1].linf_gradu == 0.0
    assert len(list((tmp_path / "out" / "snapshots").iterdir())) == 3


def test_convergence_mode_is_required():
    assert main(["convergence"]) == 1
    assert main(["convergence", "--mode", "sideways"]) == 1


@pytest.mark.parametrize("command", ["run", "verify-exact"])
def test_python_m_vspc_run_loads_no_scipy(tmp_path, command):
    # -X importtime lists every module a fresh process imports: `vspc.cli`, a
    # run with a snapshot every step and verify-exact's checks, each started by
    # `python -m vspc`, take no scipy; a run takes no numpy.polynomial either,
    # which only verify-exact's quadrature imports
    cfg = _write_config(tmp_path / "tiny.ini", output={"snapshot_interval": 1})
    args = ["run", str(cfg)] if command == "run" else ["verify-exact"]
    env = dict(os.environ, PYTHONPATH=str(Path(vspc.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "vspc", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "vspc.cli" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]
    if command == "run":
        assert done.stdout.startswith("completed: 10 steps")
        assert "numpy.polynomial" not in imported
        assert len(list((tmp_path / "out" / "snapshots").iterdir())) == 11
    else:
        assert done.stdout.endswith("all checks passed\n") and "numpy.polynomial" in imported
