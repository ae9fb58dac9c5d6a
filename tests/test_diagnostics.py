"""Diagnostics records, certificate checks, and the CSV round trip."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vspc
from vspc.fields import GridSpec, TensorField, VectorField
from vspc.diagnostics import (
    CSV_FIELDS, DiagnosticsEngine, DiagnosticsRecord,
    bkm_report, certificate_bundle, energy_certificate, h1_growth_certificate,
    lp_growth_certificate, read_records_csv, relative_difference,
    write_records_csv,
)

TAU = 2.0 * math.pi


@pytest.fixture()
def tg_record():
    st = vspc.taylor_green_state(GridSpec(64))
    return DiagnosticsEngine(nu=0.0).observe(st)


def test_taylor_green_norms(tg_record):
    r = tg_record
    assert math.isclose(r.l2_u, math.pi * math.sqrt(2), rel_tol=1e-12)
    assert math.isclose(r.l2_F, TAU * math.sqrt(2), rel_tol=1e-12)
    assert math.isclose(r.h1_u, TAU, rel_tol=1e-12)
    assert math.isclose(r.linf_gradu, 1.0, rel_tol=1e-10)
    # curl u = 2 sin x1 sin x2 peaks at 2
    assert math.isclose(r.linf_curl_u, 2.0, rel_tol=1e-10)
    assert r.bkm == 0.0
    assert r.l2_ut == 0.0
    assert math.isclose(r.e0, r.l2_u ** 2 + r.l2_F ** 2, rel_tol=1e-14)


def test_identity_column_lp_norms(tg_record):
    r = tg_record
    # identity columns are unit vectors: ‖(1,0)‖_p = (4π²)^{1/p}
    assert math.isclose(r.lp2_F_c1, TAU, rel_tol=1e-12)
    assert math.isclose(r.lp4_F_c1, math.sqrt(TAU), rel_tol=1e-12)
    assert math.isclose(r.lp6_F_c1, TAU ** (1.0 / 3.0), rel_tol=1e-12)
    assert math.isclose(r.lpinf_F_c1, 1.0, rel_tol=1e-12)
    assert math.isclose(r.lpinf_F, math.sqrt(2.0), rel_tol=1e-12)
    assert r.lp_F_column(4, 2) == r.lp4_F_c2
    assert r.lp_F(math.inf) == r.lpinf_F


def test_engine_accumulates_bkm_trapezoid():
    # frozen velocity: ‖∇u‖_∞ ≡ 1, so the integral grows linearly with t
    g = GridSpec(32)
    eng = vspc.DiagnosticsEngine(nu=0.0)
    st = vspc.taylor_green_state(g)
    r0 = eng.observe(st)
    r1 = eng.observe(vspc.State(0.1, st.u, st.F))
    r2 = eng.observe(vspc.State(0.25, st.u, st.F))
    assert r0.bkm == 0.0
    assert math.isclose(r1.bkm, 0.1, rel_tol=1e-10)
    assert math.isclose(r2.bkm, 0.25, rel_tol=1e-10)


def test_bkm_trapezoid_hand_values():
    # |a(t)| = 1/(1−3t) sampled at t = 0, 0.1, 0.2:
    # trapezoid = 0.05·(1 + 10/7) + 0.05·(10/7 + 5/2)
    p = vspc.ZghParams(2.0, 1.0, 1.0)
    recs = vspc.zgh_synthetic_history(p, [0.0, 0.1, 0.2])
    expected = 0.05 * (1 + 10 / 7) + 0.05 * (10 / 7 + 2.5)
    assert math.isclose(recs[-1].bkm, expected, rel_tol=1e-14)
    assert math.isclose(recs[-1].bkm, 0.3178571428571429, rel_tol=1e-14)


def test_energy_certificate_semantics():
    p = vspc.ZghParams(2.0, 1.0, 1.0)
    recs = vspc.zgh_synthetic_history(p, list(np.linspace(0, 0.2, 9)))
    forced = energy_certificate(recs, applicable=False)
    assert forced.satisfied
    assert not forced.applicable
    with pytest.raises(ValueError):
        energy_certificate([])


def test_lp_certificate_on_real_run(run64_inviscid):
    recs = run64_inviscid.records
    for p in (2, 4, 6, math.inf):
        rep = lp_growth_certificate(recs, p)
        assert rep.satisfied
        assert rep.margin > 0.0
    # single-record histories degrade to a trivially satisfied report
    solo = lp_growth_certificate(recs[:1], 4)
    assert solo.satisfied
    assert solo.margin == 0.0


def test_lp_certificate_zero_column_guard():
    g = GridSpec(16)
    zero = np.zeros((16, 16))
    u = vspc.taylor_green_state(g).u
    F0 = TensorField.from_columns(VectorField.from_samples(g, zero, zero),
                                  VectorField.from_samples(g, zero, zero))
    eng = DiagnosticsEngine(nu=0.0)
    recs = [eng.observe(vspc.State(0.0, u, F0)), eng.observe(vspc.State(0.1, u, F0))]
    rep = lp_growth_certificate(recs, 4)
    assert rep.satisfied  # 0 ≤ anything: vacuous but consistent


def test_h1_certificate_stability(run64_viscous, run128_viscous):
    a = h1_growth_certificate(run64_viscous.records)
    b = h1_growth_certificate(run128_viscous.records)
    assert a.satisfied and b.satisfied
    assert a.fitted_constant >= 0.0
    assert relative_difference(a.fitted_constant, b.fitted_constant) < 0.2


def test_bkm_report_validation_and_extrapolation():
    p = vspc.ZghParams(2.0, 1.0, 1.0)
    times = list(np.linspace(0.0, 0.3, 301))
    recs = vspc.zgh_synthetic_history(p, times)
    rep = bkm_report(recs)
    # 1/|a| is exactly linear in t, so the fitted root recovers t* = 1/3
    assert abs(rep.t_star_estimate - 1.0 / 3.0) < 1e-12
    assert math.isclose(rep.integral, vspc.zgh_bkm_integral(p, 0.3), rel_tol=1e-3)
    with pytest.raises(ValueError):
        bkm_report(recs[:2])
    # a line needs two points: window 0 used to fit every record and report 0,
    # window 1 ran a degenerate fit, and a float window escaped as a TypeError
    for window in (-1, 0, 1, 10.0, 2.5, True, None):
        with pytest.raises(ValueError, match="window"):
            bkm_report(recs, window=window)
    assert bkm_report(recs, window=2).window == 2


def test_bkm_report_none_when_not_growing(run64_viscous):
    # decaying viscous flow: no blowup forecast
    rep = bkm_report(run64_viscous.records)
    assert rep.t_star_estimate is None


def test_csv_round_trip(tmp_path, run64_inviscid):
    recs = run64_inviscid.records
    path = tmp_path / "diag.csv"
    write_records_csv(path, recs)
    back = read_records_csv(path)
    assert len(back) == len(recs)
    for a, b in zip(recs, back):
        for name in CSV_FIELDS:
            va, vb = getattr(a, name), getattr(b, name)
            assert va == vb or (math.isnan(va) and math.isnan(vb))


def test_csv_round_trip_of_numpy_floats(tmp_path):
    # synthetic histories hold numpy floats; they must be written as numbers
    recs = vspc.zgh_synthetic_history(vspc.ZghParams(2.0, 1.0, 1.0), [0.0, 0.1, 0.2])
    path = tmp_path / "diag.csv"
    write_records_csv(path, recs)
    assert read_records_csv(path) == recs


def test_csv_rejects_mangled_input(tmp_path):
    p = vspc.ZghParams(2.0, 1.0, 1.0)
    recs = vspc.zgh_synthetic_history(p, [0.0, 0.1, 0.2])
    path = tmp_path / "diag.csv"
    write_records_csv(path, recs)

    lines = path.read_text().splitlines()
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("\n".join(["t,who,knows"] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match="header"):
        read_records_csv(bad_header)

    bad_row = tmp_path / "r.csv"
    bad_row.write_text("\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0]]) + "\n")
    with pytest.raises(ValueError):
        read_records_csv(bad_row)

    bad_value = tmp_path / "v.csv"
    bad_value.write_text("\n".join(lines[:2] + [lines[2].replace(".", "x")]) + "\n")
    with pytest.raises(ValueError):
        read_records_csv(bad_value)


# every finite double: ±0.0, subnormals and the largest magnitudes included
_finite = st.floats(allow_nan=False, allow_infinity=False)
_record = st.builds(lambda values: DiagnosticsRecord(*values),
                    st.lists(_finite, min_size=len(CSV_FIELDS), max_size=len(CSV_FIELDS)))


def _bits(records):
    return [np.array([getattr(r, name) for name in CSV_FIELDS]).view(np.uint64).tolist()
            for r in records]


@settings(max_examples=60)
@given(records=st.lists(_record, max_size=4))
def test_csv_round_trip_is_bit_exact(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "examples.csv"
    write_records_csv(path, records)
    assert _bits(read_records_csv(path)) == _bits(records)


@settings(max_examples=4)
@given(records=st.lists(_record, min_size=1, max_size=2))
def test_every_truncated_csv_is_rejected_unless_cut_at_a_row_end(tmp_path_factory, records):
    # a file cut inside its last field read back with that field shortened
    # (5.27e-16 became 0.527); only a cut after a row's line end is a whole file
    path = tmp_path_factory.getbasetemp() / "examples.csv"
    write_records_csv(path, records)
    raw = path.read_bytes()
    ends = [i + 2 for i in range(len(raw)) if raw[i:i + 2] == b"\r\n"]
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        if cut in ends:
            assert _bits(read_records_csv(path)) == _bits(records[:ends.index(cut)])
        else:
            with pytest.raises(ValueError):
                read_records_csv(path)


_HISTORY = vspc.zgh_synthetic_history(vspc.ZghParams(2.0, 1.0, 1.0), [0.0, 0.1])


@settings(max_examples=200)
@given(where=st.integers(0, 10 ** 6), byte=st.integers(0, 255))
def test_a_corrupted_csv_header_is_rejected_or_read_whole(tmp_path_factory, where, byte):
    path = tmp_path_factory.getbasetemp() / "examples.csv"
    write_records_csv(path, _HISTORY)
    raw = bytearray(path.read_bytes())
    raw[where % raw.index(b"\r\n")] = byte
    path.write_bytes(bytes(raw))
    try:
        back = read_records_csv(path)
    except ValueError:
        return
    assert _bits(back) == _bits(_HISTORY)


def test_a_quote_in_a_large_csv_header_is_a_value_error(tmp_path):
    # the quoted field runs to the end of the file, past csv's field size limit
    recs = vspc.zgh_synthetic_history(vspc.ZghParams(2.0, 1.0, 1.0), np.linspace(0.0, 0.3, 400))
    path = tmp_path / "diag.csv"
    write_records_csv(path, recs)
    raw = path.read_bytes()
    assert len(raw) > 131072
    path.write_bytes(raw[:2] + b'"' + raw[3:])
    with pytest.raises(ValueError, match="does not parse"):
        read_records_csv(path)


def test_csv_rejects_non_finite_values(tmp_path):
    recs = vspc.zgh_synthetic_history(vspc.ZghParams(2.0, 1.0, 1.0), [0.0, 0.1, 0.2])
    path = tmp_path / "diag.csv"
    write_records_csv(path, recs[:1] + [dataclasses.replace(recs[1], bkm=math.inf)] + recs[2:])
    with pytest.raises(ValueError, match="non-finite bkm on line 3"):
        read_records_csv(path)


def test_certificate_bundle_shape(run64_viscous):
    bundle = certificate_bundle(run64_viscous.records)
    names = [c["name"] for c in bundle["certificates"]]
    assert names == ["energy-identity", "lp-growth-p2", "lp-growth-p4",
                     "lp-growth-p6", "lp-growth-pinf", "h1-gronwall",
                     "divergence-constraint"]
    assert all(c["satisfied"] for c in bundle["certificates"])
    assert bundle["bkm"]["integral"] > 0.0


@pytest.mark.parametrize("name, value", [
    ("energy_tolerance", -1.0), ("energy_tolerance", math.nan),
    ("lp_tolerance", math.nan), ("lp_tolerance", math.inf),
    ("divergence_tolerance", math.inf), ("divergence_tolerance", -1e-8)])
def test_certificate_bundle_rejects_bad_tolerances(name, value):
    recs = vspc.zgh_synthetic_history(vspc.ZghParams(2.0, 1.0, 1.0), [0.0, 0.1, 0.2])
    with pytest.raises(ValueError, match=name):
        certificate_bundle(recs, **{name: value})
    zero = certificate_bundle(recs, **{name: 0.0})
    assert len(zero["certificates"]) == 7


def test_certificate_bundle_short_history():
    p = vspc.ZghParams(2.0, 1.0, 1.0)
    recs = vspc.zgh_synthetic_history(p, [0.0, 0.05])
    bundle = certificate_bundle(recs, forced=True)
    assert bundle["bkm"]["t_star_estimate"] is None
    assert bundle["bkm"]["window"] == 2


def test_relative_difference():
    assert relative_difference(0.0, 0.0) == 0.0
    assert math.isclose(relative_difference(1.0, 2.0), 0.5)
    assert math.isclose(relative_difference(-3.0, 3.0), 2.0)


def test_curl_report_of_taylor_green_with_identity_deformation():
    # ∇×u = 2 sin x₁ sin x₂ peaks at the grid point (π/2, π/2); F = I has curl-free columns
    curl_u, curl_F = vspc.curl_report(vspc.taylor_green_state(GridSpec(32)))
    assert math.isclose(curl_u, 2.0, rel_tol=1e-13)
    assert curl_F <= 1e-14


def test_divergence_drift_fields_populated(run64_viscous):
    recs = run64_viscous.records
    assert all(r.div_drift_u < 1e-12 for r in recs)
    assert all(r.div_drift_F < 1e-12 for r in recs)
    assert all(b.visc >= a.visc for a, b in zip(recs, recs[1:]))


# ---------------------------------------------------------------------------
# record() against direct full-lattice sums

def _full_lattice_reference(state, prior_state, dt):
    """The record's instantaneous norms from full fft2 spectra and samples."""
    g = state.grid
    h2 = (TAU / g.n) ** 2
    cu = np.stack([np.fft.fft2(vspc.ensure_physical(c)) / g.n ** 2 for c in state.u.components])
    cF = np.stack([np.fft.fft2(vspc.ensure_physical(state.F.entry(i, k))) / g.n ** 2
                   for k in range(2) for i in range(2)])

    def sobolev(c, w):
        return TAU * math.sqrt(float(np.sum(w * np.abs(c) ** 2)))

    ksq = g.k_sq
    want = {"l2_u": sobolev(cu, 1.0), "h1_u": sobolev(cu, ksq), "h2_u": sobolev(cu, ksq ** 2),
            "l2_F": sobolev(cF, 1.0), "h1_F": sobolev(cF, ksq), "h2_F": sobolev(cF, ksq ** 2),
            "h2s_gradu": sobolev(cu, (1.0 + ksq) ** 2 * ksq)}
    pu = np.stack([np.fft.fft2(vspc.ensure_physical(c)) / g.n ** 2
                   for c in prior_state.u.components])
    want["l2_ut"] = sobolev((cu - pu) / dt, 1.0)

    samples = lambda c: np.fft.ifft2(c).real * g.n ** 2
    F = samples(cF)
    cols = {"_c1": F[0:2], "_c2": F[2:4], "": F}
    for suffix, block in cols.items():
        mag = np.sqrt(np.sum(block ** 2, axis=0))
        for p in (2, 4, 6):
            want[f"lp{p}_F{suffix}"] = (h2 * float(np.sum(mag ** p))) ** (1.0 / p)
        want[f"lpinf_F{suffix}"] = float(np.max(mag))
    dF = np.stack([samples(d * c) for c in cF for d in (g.ik1, g.ik2)])
    want["l6_gradF"] = (h2 * float(np.sum(np.sum(dF ** 2, axis=0) ** 3))) ** (1.0 / 6.0)
    G = np.stack([samples(d * c) for c in cu for d in (g.ik1, g.ik2)]).reshape(2, 2, g.n, g.n)
    want["linf_gradu"] = float(np.max(np.linalg.norm(G.transpose(2, 3, 0, 1), ord=2, axis=(2, 3))))
    want["linf_curl_u"] = float(np.max(np.abs(G[1, 0] - G[0, 1])))
    want["div_drift_u"] = float(np.max(np.abs(G[0, 0] + G[1, 1])))
    dF = dF.reshape(2, 2, 2, g.n, g.n)              # [column, row i, ∂ⱼ]
    want["linf_curl_F"] = max(float(np.max(np.abs(dF[k, 1, 0] - dF[k, 0, 1]))) for k in range(2))
    want["div_drift_F"] = max(float(np.max(np.abs(dF[k, 0, 0] + dF[k, 1, 1]))) for k in range(2))
    return want


def _random_state(g, rng, t):
    """Random real fields with content in every column, the Nyquist one included."""
    arrays = [rng.standard_normal((g.n, g.n)) + (1.0 if i in (2, 5) else 0.0) for i in range(6)]
    return vspc.state_from_arrays(g, t, *arrays)


@settings(max_examples=15)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 16, 32]))
def test_record_matches_full_lattice_reference(seed, n):
    g = GridSpec(n)
    rng = np.random.default_rng(seed)
    prior_state, state = _random_state(g, rng, 0.0), _random_state(g, rng, 0.25)
    prior = DiagnosticsEngine(nu=0.0).observe(prior_state)
    rec = vspc.diagnostics.record(state, prior=prior, dt_since_prior=0.25,
                                  prior_state=prior_state)
    engine = DiagnosticsEngine(nu=0.0)
    engine.observe(prior_state)
    assert engine.observe(state) == rec      # the engine keeps u's half spectra, not the State
    # plain floats, so the CSV holds numbers that read back
    assert all(type(getattr(rec, name)) is float for name in CSV_FIELDS)
    for name, value in _full_lattice_reference(state, prior_state, 0.25).items():
        assert math.isclose(getattr(rec, name), value, rel_tol=1e-12), name


# ---------------------------------------------------------------------------
# the solver's band record against the public record of the same state

def _band(g, rng):
    """A random dealiased (6, n, n//3+1) band, as the solver packs a state."""
    half = g.half
    Z = half.to_coeffs(rng.standard_normal((6, g.n, g.n)))[..., :half.band]
    return Z * half.mask[:, :half.band]


def _view(g, t, Z):
    scratch = vspc.diagnostics._Scratch(g, Z.shape[-1])
    for buffer in (scratch.planes, scratch.T, scratch.D):
        buffer.fill(np.nan)
    return vspc.diagnostics._Packed(g, t, Z, g.half.to_samples(Z), scratch)


def _assert_same_record(got, want, rel=1e-13):
    for name in CSV_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is float and relative_difference(a, b) <= rel, (name, a, b)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([16, 32, 64]))
def test_band_record_matches_the_record_of_its_state(seed, n):
    g = GridSpec(n)
    rng = np.random.default_rng(seed)
    Z0, Z1 = _band(g, rng), _band(g, rng)
    s0, s1 = vspc.solver._unpack(g, 0.0, Z0), vspc.solver._unpack(g, 0.25, Z1)
    prior = vspc.diagnostics.record(s0)
    _assert_same_record(vspc.diagnostics.record(_view(g, 0.0, Z0)), prior)
    want = vspc.diagnostics.record(s1, prior=prior, dt_since_prior=0.25, nu=0.3,
                                   prior_state=s0)
    view = _view(g, 0.25, Z1)
    kept = view.Z.copy(), view.P.copy()
    for prior_u in (Z0[:2], vspc.fields._half_columns(s0.u.components, g.half.m)):
        got = vspc.diagnostics.record(view, prior=prior, dt_since_prior=0.25, nu=0.3,
                                      prior_u=prior_u)
        _assert_same_record(got, want)
    # the record writes only into its scratch: the solver reuses Z and P
    assert np.array_equal(view.Z, kept[0]) and np.array_equal(view.P, kept[1])
    # the engine keeps the band of u, and threads the same accumulators
    on_band, on_states = DiagnosticsEngine(nu=0.3), DiagnosticsEngine(nu=0.3)
    for t, Z, state in ((0.0, Z0, s0), (0.25, Z1, s1)):
        _assert_same_record(on_band.observe(_view(g, t, Z)), on_states.observe(state))
    assert on_band._prior_u.shape == (2, n, g.half.band)
    assert on_states._prior_u.shape == (2, n, g.half.m)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([16, 32, 64]))
def test_record_of_a_state_that_is_not_dealiased_is_not_masked(seed, n):
    # the public path reads all n//2+1 columns of the half spectra, unmasked
    g = GridSpec(n)
    rng = np.random.default_rng(seed)
    state = _random_state(g, rng, 0.5)
    half = vspc.fields._half_columns(state.channels, g.half.m)
    rec = vspc.diagnostics.record(state)
    _assert_same_record(rec, vspc.diagnostics.record(_view(g, 0.5, half)))
    masked = vspc.diagnostics.record(_view(g, 0.5, vspc.solver._pack(state)))
    assert masked.l2_u < rec.l2_u and masked.h1_F < rec.h1_F


def test_curl_report_and_observe_agree_with_the_record_they_wrap():
    g = GridSpec(32)
    s0 = vspc.perturbed_identity_state(g, 0.2)
    s1 = vspc.step(s0, 0.01, vspc.SolverConfig(g, nu=0.05, t_end=1.0))
    first = vspc.diagnostics.record(s0)
    assert vspc.diagnostics.curl_report(s1) == (
        vspc.diagnostics.record(s1).linf_curl_u, vspc.diagnostics.record(s1).linf_curl_F)
    engine = DiagnosticsEngine(nu=0.05)
    assert engine.observe(s0) == first
    assert engine.observe(s1) == vspc.diagnostics.record(
        s1, prior=first, dt_since_prior=s1.t - s0.t, nu=0.05, prior_state=s0)


# ---------------------------------------------------------------------------
# the record as it was, with its temporaries: the reference for the record
# that takes its scratch from the caller, bit for bit

def _ref_power(half, coeffs):
    power = np.zeros((half.n, half.m))
    w = coeffs.shape[-1]
    power[:, :w] = half.weight[:, :w] * np.sum(coeffs.real ** 2 + coeffs.imag ** 2, axis=0)
    return power


def _ref_gradient_sups(grid, Z):
    diag, half = vspc.diagnostics, grid.half
    T = np.empty((2, grid.n, grid.n))

    def gradients(rows):
        D = np.stack([half.ik1 * rows, half.ik2[:, :rows.shape[-1]] * rows], axis=1)
        return half.to_samples(D.reshape(4, grid.n, -1))

    a, b, c, d = gradients(Z[:2])
    div, curl = np.add(a, d, out=T[0]), np.subtract(c, b, out=T[1])
    div_drift_u, linf_curl_u = diag._sup(div), diag._sup(curl)
    sigma = np.sqrt(diag._square_sum(div, curl), out=div)
    sigma += np.sqrt(diag._square_sum(np.subtract(a, d, out=a), np.add(b, c, out=b)), out=a)
    gradF_sq, curl_F, div_F = np.zeros((grid.n, grid.n)), [], []
    for rows in (Z[2:4], Z[4:6]):
        p, q, r, s = gradients(rows)
        curl_F.append(diag._sup(np.subtract(r, q, out=T[1])))
        div_F.append(diag._sup(np.add(p, s, out=T[1])))
        gradF_sq += diag._square_sum(p, q)
        gradF_sq += diag._square_sum(r, s)
    return (0.5 * float(np.max(sigma)), linf_curl_u, div_drift_u,
            diag._lp_norms(grid, gradF_sq, T[1])[2], max(curl_F), max(div_F))


def _ref_record(view, prior=None, dt=0.0, nu=0.0, prior_u=None):
    """record() of a _Packed view as it was: every field but the accumulated ones,
    which are the same sums of the same fields."""
    grid, Z, half = view.grid, view.Z, view.grid.half
    ksq = half.k_sq
    pu, pF = _ref_power(half, Z[:2]), _ref_power(half, Z[2:])
    norm = lambda power, w: TAU * math.sqrt(float(np.sum(power * w)))
    fields = dict(zip(("l2_u", "h1_u", "h2_u"), (norm(pu, w) for w in (1.0, ksq, ksq * ksq))))
    fields.update(zip(("l2_F", "h1_F", "h2_F"), (norm(pF, w) for w in (1.0, ksq, ksq * ksq))))
    fields["h2s_gradu"] = norm(pu, (1.0 + ksq) ** 2 * ksq)
    F11, F21, F12, F22 = view.P[2:]
    c1, c2, tmp = F11 * F11 + F21 * F21, F12 * F12 + F22 * F22, np.empty_like(F11)
    lp = [vspc.diagnostics._lp_norms(grid, sq, tmp) for sq in (c1 + c2, c1, c2)]
    for column, norms in zip(("", "_c1", "_c2"), lp):
        fields.update((f"lp{p}_F{column}", v) for p, v in zip((2, 4, 6, "inf"), norms))
    fields.update(zip(("linf_gradu", "linf_curl_u", "div_drift_u", "l6_gradF", "linf_curl_F",
                       "div_drift_F"), _ref_gradient_sups(grid, Z)))
    if prior is not None and prior_u is not None:
        diff = np.zeros((2, grid.n, half.m), dtype=np.complex128)
        diff[..., :Z.shape[-1]] += Z[:2]
        diff[..., :prior_u.shape[-1]] -= prior_u
        fields["l2_ut"] = norm(_ref_power(half, diff), 1.0) / dt
    return fields


def _same_fields(record, fields):
    for name, value in fields.items():
        got = getattr(record, name)
        assert (got, math.copysign(1.0, got)) == (value, math.copysign(1.0, value)), name


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([16, 32, 64]))
def test_records_match_the_old_record_bit_for_bit(seed, n):
    # of a State (half spectra) and of the solver's band with its workspace's
    # scratch, first and with a prior; the band's scratch held other values
    g = GridSpec(n)
    rng = np.random.default_rng(seed)
    work = vspc.solver._Workspace(g)
    Z0, Z1 = _band(g, rng), _band(g, rng)
    for buffer in (work.Q, work.W, work.record_scratch.D):
        buffer.fill(np.nan)
    views = [vspc.diagnostics._Packed(g, t, Z, g.half.to_samples(Z), work.record_scratch)
             for t, Z in ((0.0, Z0), (0.25, Z1))]
    engine = DiagnosticsEngine(nu=0.3)
    first, second = engine.observe(views[0]), engine.observe(views[1])
    _same_fields(first, _ref_record(views[0]))
    _same_fields(second, _ref_record(views[1], first, 0.25, 0.3, Z0[:2]))
    s0, s1 = (vspc.solver._unpack(g, t, Z.copy()) for t, Z in ((0.0, Z0), (0.25, Z1)))
    on_states = DiagnosticsEngine(nu=0.3)
    on_states.observe(s0)
    half_u0 = vspc.fields._half_columns(s0.u.components, g.half.m)
    _same_fields(on_states.observe(s1), _ref_record(vspc.diagnostics._packed(s1), first, 0.25,
                                                    0.3, half_u0))


def test_the_engine_keeps_one_buffer_for_the_prior_velocity():
    g = GridSpec(16)
    rng = np.random.default_rng(5)
    engine = DiagnosticsEngine(nu=0.1)
    engine.observe(_view(g, 0.0, _band(g, rng)))
    kept = engine._prior_u
    for t in (0.1, 0.2):
        Z = _band(g, rng)
        engine.observe(_view(g, t, Z))
        assert engine._prior_u is kept and np.array_equal(kept, Z[:2])
