"""Grid conventions, transforms, field containers, and snapshot IO."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vspc
from vspc.fields import (
    TAU, GridSpec, ScalarField, VectorField, TensorField, ConjugateSymmetryError,
    to_spectral, to_physical, ensure_spectral, ensure_physical, dealias,
    pointwise_product, l2_norm, max_abs, write_snapshot, read_snapshot, _half_columns,
)


def test_grid_validation():
    GridSpec(8)
    GridSpec(256)
    with pytest.raises(ValueError):
        GridSpec(12)
    with pytest.raises(ValueError):
        GridSpec(4)
    with pytest.raises(ValueError):
        GridSpec(-64)
    for length in (float("nan"), float("inf"), 1.0):
        with pytest.raises(ValueError):
            GridSpec(32, length=length)


def test_grid_axes_convention():
    # axis 0 is x1: a field cos(x1) varies along the first array axis only
    g = GridSpec(16)
    x1, x2 = g.mesh()
    assert np.allclose(x1[:, 0], g.x)
    assert np.allclose(x1[0, :], 0.0)
    assert np.allclose(x2[0, :], g.x)
    f = ScalarField.from_samples(g, np.cos(x1))
    c = ensure_spectral(f)
    # modes live at k1 = ±1, k2 = 0
    assert abs(c[1, 0] - 0.5) < 1e-14
    assert abs(c[-1, 0] - 0.5) < 1e-14
    c[1, 0] = 0
    c[-1, 0] = 0
    assert np.max(np.abs(c)) < 1e-14


def test_wavenumber_layout():
    g = GridSpec(8)
    assert list(g.k) == [0, 1, 2, 3, -4, -3, -2, -1]
    assert g.dealias_limit == 2
    # odd-derivative multipliers zero the Nyquist row/column
    assert np.all(g.ik1[4, :] == 0)
    assert np.all(g.ik2[:, 4] == 0)


def test_transform_round_trip():
    g = GridSpec(32)
    rng = np.random.default_rng(101)
    samples = rng.standard_normal((32, 32))
    f = ScalarField.from_samples(g, samples)
    back = to_physical(to_spectral(f))
    np.testing.assert_allclose(back.data, samples, atol=1e-12)


def test_transform_normalization():
    # mean-normalized: the k = 0 coefficient is the field average
    g = GridSpec(16)
    f = ScalarField.from_samples(g, np.full((16, 16), 3.25))
    c = ensure_spectral(f)
    assert abs(c[0, 0] - 3.25) < 1e-14


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 16, 32, 64]),
       batch=st.integers(1, 3))
def test_half_spectrum_round_trip(seed, n, batch):
    # real data: the rfft2 half spectrum is the k₂ >= 0 part of the full one,
    # rebuilds it by conjugate symmetry (Nyquist row and column included),
    # inverts back to the samples, and keeps Parseval through its weights
    g = GridSpec(n)
    half = g.half
    x = np.random.default_rng(seed).standard_normal((batch, n, n))
    full = np.fft.fft2(x) / n ** 2
    h = half.to_coeffs(x)
    scale = float(np.max(np.abs(full)))
    assert h.shape == (batch, n, n // 2 + 1)
    assert np.max(np.abs(h - full[..., :half.m])) <= 1e-14 * scale
    rebuilt = half.full(h)
    assert np.array_equal(rebuilt[..., :half.m], h)
    assert np.max(np.abs(rebuilt - full)) <= 1e-14 * scale
    np.testing.assert_allclose(half.to_samples(h), x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(g.to_samples(full), x, rtol=0, atol=1e-12)
    assert math.isclose(float(np.sum(half.weight * np.abs(h) ** 2)),
                        float(np.sum(np.abs(full) ** 2)), rel_tol=1e-12)


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 16, 32, 64]),
       batch=st.integers(1, 3))
def test_checked_inverse_round_trip_and_batching(seed, n, batch):
    g = GridSpec(n)
    x = np.random.default_rng(seed).standard_normal((batch, n, n))
    c = g.to_coeffs(x)
    assert np.max(np.abs(c - np.fft.fft2(x) / n ** 2)) <= 1e-14 * float(np.max(np.abs(c)))
    back = g.to_samples(c)
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-12)
    for plane, coeffs in zip(back, c):
        assert np.array_equal(plane, g.to_samples(coeffs))


def test_each_symmetry_test_catches_what_the_other_passes():
    g = GridSpec(64)
    x1, x2 = g.mesh()
    # i·ε on every coefficient leaves each ĉ(k) within 2ε < 1e-10·max|ĉ| of
    # conj ĉ(−k), so the mirror test passes; the imaginary parts add up
    # coherently to n²ε at x = 0, which only the residue test catches
    c = g.to_coeffs(np.sin(x1) * np.cos(x2))
    shifted = c + 1j * 0.4e-10 * float(np.max(np.abs(c)))
    with pytest.raises(ConjugateSymmetryError, match="imaginary residue 4.096e-08"):
        to_physical(ScalarField.from_spectrum(g, shifted))
    with pytest.raises(ConjugateSymmetryError, match="imaginary residue"):
        g.to_samples(np.stack([c, shifted]))
    # one mode 5e-10·max|ĉ| off its mirror leaves a residue far below
    # 1e-10·max(max|w|, 1) when the samples are O(1) and the spectrum broad
    c = g.to_coeffs(np.random.default_rng(11).standard_normal((64, 64)))
    c[3, 5] += 5e-10 * float(np.max(np.abs(c)))
    with pytest.raises(ConjugateSymmetryError, match="conjugate symmetry violated"):
        g.to_samples(c)


def test_half_spectrum_projection_matches_leray():
    g = GridSpec(32)
    rng = np.random.default_rng(5)
    v = vspc.VectorField.from_samples(g, rng.standard_normal((32, 32)),
                                      rng.standard_normal((32, 32)))
    p1, p2 = (ensure_spectral(c) for c in vspc.leray_project(v).components)
    h1, h2 = g.project(*(ensure_spectral(c)[:, :g.half.m] for c in v.components))
    assert np.max(np.abs(h1 - p1[:, :g.half.m])) < 1e-15
    assert np.max(np.abs(h2 - p2[:, :g.half.m])) < 1e-15


def test_parseval_both_routes():
    g = GridSpec(64)
    rng = np.random.default_rng(7)
    f = ScalarField.from_samples(g, rng.standard_normal((64, 64)))
    a = l2_norm(f)
    b = l2_norm(to_spectral(f))
    assert math.isclose(a, b, rel_tol=1e-12)


def test_l2_norm_oracle():
    g = GridSpec(32)
    x1, _ = g.mesh()
    f = ScalarField.from_samples(g, np.cos(x1))
    assert math.isclose(l2_norm(f), math.pi * math.sqrt(2.0), rel_tol=1e-13)


def test_vector_tensor_norms():
    g = GridSpec(32)
    u = vspc.taylor_green_state(g).u
    assert math.isclose(l2_norm(u), math.pi * math.sqrt(2.0), rel_tol=1e-12)
    F = TensorField.identity(g)
    assert math.isclose(l2_norm(F), TAU * math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(max_abs(F), 1.0, abs_tol=1e-14)


def test_conjugate_symmetry_guard():
    g = GridSpec(16)
    c = np.zeros((16, 16), dtype=complex)
    c[1, 2] = 1.0 + 0.5j  # no mirror partner
    f = ScalarField.from_spectrum(g, c)
    with pytest.raises(ConjugateSymmetryError):
        to_physical(f)


def _fft_uses(tree):
    """(enclosing class, name) for each `….fft` in a module: the attribute
    taken from it, or None when it is used bare; fft imports count too."""
    uses = []
    is_fft = lambda node: isinstance(node, ast.Attribute) and node.attr == "fft"

    def visit(node, parent, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if is_fft(node) and not is_fft(node.value):     # np.fft.fft is one use, of fft
            taken = parent.attr if isinstance(parent, ast.Attribute) else None
            uses.append((cls, taken))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            if any("fft" in name for name in names):
                uses.append((cls, "import"))
        for child in ast.iter_child_nodes(node):
            visit(child, node, cls)

    visit(tree, None, None)
    return uses


def test_single_transform_layer():
    # np.fft in the package is fftfreq, plus the 1D passes inside HalfSpectrum
    bad = []
    for path in sorted(Path(vspc.__file__).parent.glob("*.py")):
        for cls, name in _fft_uses(ast.parse(path.read_text())):
            if name != "fftfreq" and not (cls == "HalfSpectrum"
                                          and name in ("rfft", "irfft", "fft", "ifft")):
                bad.append(f"{path.name}: {cls or 'module'} uses fft.{name}")
    assert not bad, bad
    fake = "class A:\n    def f(self, x):\n        return np.fft.fft2(x) + numpy.fft.fft(x)\n"
    assert _fft_uses(ast.parse(fake)) == [("A", "fft2"), ("A", "fft")]


def _functions_around(tree, hit):
    """Name of the function around each node of a module that hit(node) accepts, None at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if hit(node):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _scipy_imports(tree):
    """Name of the function around each scipy import in a module, None at module level."""
    def hit(node):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        return any(m.split(".")[0] == "scipy" for m in modules)

    return _functions_around(tree, hit)


def test_scipy_is_imported_only_where_it_is_called():
    # vspc runs on numpy and the standard library alone: no module imports
    # scipy, at module level or inside a function
    where = {(path.name, func) for path in Path(vspc.__file__).parent.glob("*.py")
             for func in _scipy_imports(ast.parse(path.read_text()))}
    assert where == set(), where
    fake = ("import scipy.fft\nfrom scipy import ndimage\nimport numpy\n"
            "def f():\n    from scipy.integrate import quad\n"
            "class A:\n    def g(self):\n        import scipy as sp\n")
    assert _scipy_imports(ast.parse(fake)) == [None, None, "f", "g"]


def _calls_of(tree, name):
    """Calls of `name`, bare or as an attribute, in a module."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_one_owner_of_the_channel_layout():
    # full spectra are built only by the field layer; every other module
    # reads half spectra through fields._half_columns, and the six-channel
    # order has one owner, State.channels
    callers = {path.name for path in Path(vspc.__file__).parent.glob("*.py")
               if _calls_of(ast.parse(path.read_text()), "ensure_spectral")}
    assert callers <= {"fields.py"}, callers
    fake = "import vspc\nc = vspc.fields.ensure_spectral(f)[:, :3]\nd = ensure_spectral(g)\n"
    assert len(_calls_of(ast.parse(fake), "ensure_spectral")) == 2
    assert not hasattr(vspc.solver, "_channels")
    assert not hasattr(vspc.exact, "_spectral_state")


def test_one_owner_of_certificate_verdicts():
    # strict halts run diagnostics.certificate_reports; the solver keeps no copy
    assert not hasattr(vspc.solver, "_strict_violation")
    solver_tree = ast.parse(Path(vspc.solver.__file__).read_text())
    assert _calls_of(solver_tree, "certificate_reports")


def test_one_run_loop():
    # a run's one pass, _Run.advance, records, observes, sizes and steps at one
    # site each, so the first record is judged like every other, and every
    # step is sized by the public adaptive_dt; simulate builds one _Run and
    # only loops over its passes
    tree = ast.parse(Path(vspc.solver.__file__).read_text())
    function = lambda name: next(node for node in ast.walk(tree)
                                 if isinstance(node, ast.FunctionDef) and node.name == name)
    advance, simulate = function("advance"), function("simulate")
    for name in ("samples", "observe", "observer", "adaptive_dt", "_step_packed"):
        assert len(_calls_of(advance, name)) == 1, name
        assert not _calls_of(simulate, name), name
    assert len(_calls_of(simulate, "_Run")) == 1
    assert not hasattr(vspc.solver, "_cfl_dt")


def test_one_right_hand_side_of_samples():
    # _nonlinearity alone checks a stage's samples, forms the products and
    # adds the forcing; rhs, the four RK4 stages and manufactured call it
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(vspc.__file__).parent.glob("*.py")}
    named = lambda node, name: name in (getattr(node, "id", None), getattr(node, "attr", None),
                                        getattr(node, "name", None))
    assert not [node for tree in trees.values() for node in ast.walk(tree)
                if named(node, "_transport")]

    def sites(hit):
        return sorted((name, func) for name, tree in trees.items()
                      for func in _functions_around(tree, hit))

    calls = lambda name: lambda node: isinstance(node, ast.Call) and named(node.func, name)
    samples_checked = lambda node: (calls("isfinite")(node)
                                    and [ast.unparse(a) for a in node.args] == ["P"])
    message = lambda node: isinstance(node, ast.Constant) and node.value == "non-finite field values"
    for hit in (calls("forcing_at"), samples_checked, message):
        assert sites(hit) == [("solver.py", "_nonlinearity")]
    assert sites(calls("_nonlinearity")) == [("exact.py", "manufactured")] + [
        ("solver.py", "_step_packed")] * 4 + [("solver.py", "rhs")]


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 16, 32, 64, 128]),
       banded=st.booleans())
def test_half_reader_is_ensure_spectral_cut_to_its_width(seed, n, banded):
    # bit for bit, for sampled and spectral fields mixed in one call; a
    # user's spectrum must describe a real field, as its first read checks
    g = GridSpec(n)
    width = g.half.band if banded else g.half.m
    rng = np.random.default_rng(seed)
    sampled = ScalarField.from_samples(g, rng.standard_normal((n, n)))
    spectral = ScalarField.from_spectrum(g, g.to_coeffs(rng.standard_normal((n, n))))
    fields = [sampled, spectral, to_spectral(sampled)]
    got = _half_columns(fields, width)
    assert got.shape == (3, n, width)
    for f, plane in zip(fields, got):
        assert np.array_equal(plane, ensure_spectral(f)[:, :width])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 16, 32, 64, 128]),
       banded=st.booleans(), buffered=st.booleans())
def test_half_spectrum_passes_equal_the_2d_real_transforms(seed, n, banded, buffered):
    # bit for bit: the band is the half spectrum with its other columns zero
    half = GridSpec(n).half
    cols = half.band if banded else half.m
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((3, n, half.m), dtype=np.complex128)
    coeffs[..., :cols] = rng.standard_normal((3, n, cols)) + 1j * rng.standard_normal((3, n, cols))
    samples = rng.standard_normal((3, n, n))
    buffers = {}
    if buffered:
        buffers = dict(out=np.empty((3, n, n)), tmp=np.empty((3, n, cols), dtype=np.complex128))
    got = half.to_samples(coeffs[..., :cols], **buffers)
    assert np.array_equal(got, np.fft.irfft2(coeffs, s=(n, n), norm="forward"))
    if buffered:
        assert got is buffers["out"]
        buffers = dict(out=np.empty((3, n, cols), dtype=np.complex128),
                       tmp=np.empty((3, n, half.m), dtype=np.complex128))
    got = half.to_coeffs(samples, **buffers)
    want = np.fft.rfft2(samples, norm="forward")
    assert np.array_equal(got, want[..., :got.shape[-1]])
    assert got.shape[-1] == (cols if buffered else half.m)
    if buffered:
        assert got is buffers["out"]


def test_full_spectrum_of_a_band_is_that_of_its_half_spectrum():
    g = GridSpec(32)
    half = g.half
    rng = np.random.default_rng(3)
    c = g.to_coeffs(rng.standard_normal((2, 32, 32))) * g.dealias_mask
    assert np.array_equal(half.full(c[..., :half.band]), half.full(c[..., :half.m]))
    assert np.array_equal(half.full(c[..., :half.m]), c)


def test_dealias_mask():
    g = GridSpec(32)
    c = np.ones((32, 32), dtype=complex)
    f = dealias(ScalarField.from_spectrum(g, c))
    kept = np.abs(f.data) > 0
    assert kept[10, 10]      # max |k| = 10 = 32//3 survives
    assert not kept[11, 0]
    assert not kept[0, 11]


def test_pointwise_product_requires_matching():
    a = ScalarField.from_samples(GridSpec(16), np.ones((16, 16)))
    b = ScalarField.from_samples(GridSpec(32), np.ones((32, 32)))
    with pytest.raises(ValueError):
        pointwise_product(a, b)
    with pytest.raises(ValueError):
        pointwise_product(a, to_spectral(a))


def test_fields_are_frozen():
    g = GridSpec(16)
    f = ScalarField.from_samples(g, np.zeros((16, 16)))
    with pytest.raises(ValueError):
        f.data[0, 0] = 1.0


def test_tensor_entries():
    g = GridSpec(16)
    F = TensorField.identity(g)
    assert max_abs(F.entry(0, 0)) == 1.0
    assert max_abs(F.entry(1, 0)) == 0.0
    col = F.columns[1]
    assert isinstance(col, VectorField)
    assert max_abs(col.components[1]) == 1.0


def test_snapshot_round_trip(tmp_path):
    g = GridSpec(32)
    rng = np.random.default_rng(23)
    fields = [ScalarField.from_samples(g, rng.standard_normal((32, 32)))
              for _ in range(3)]
    path = tmp_path / "state.vspc"
    write_snapshot(path, 0.75, fields)
    t, grid, arrays = read_snapshot(path)
    assert t == 0.75
    assert grid == g
    assert len(arrays) == 3
    for f, arr in zip(fields, arrays):
        np.testing.assert_array_equal(f.data, arr)


def test_snapshot_spectral_input(tmp_path):
    g = GridSpec(16)
    x1, _ = g.mesh()
    f = to_spectral(ScalarField.from_samples(g, np.sin(x1)))
    path = tmp_path / "s.vspc"
    write_snapshot(path, 0.0, [f])
    _, _, arrays = read_snapshot(path)
    np.testing.assert_allclose(arrays[0], np.sin(x1), atol=1e-13)


def test_snapshot_rejects_corruption(tmp_path):
    g = GridSpec(16)
    f = ScalarField.from_samples(g, np.zeros((16, 16)))
    path = tmp_path / "ok.vspc"
    write_snapshot(path, 1.0, [f, f])

    raw = path.read_bytes()
    bad_magic = tmp_path / "magic.vspc"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(bad_magic)

    truncated = tmp_path / "short.vspc"
    truncated.write_bytes(raw[:-100])
    with pytest.raises(ValueError):
        read_snapshot(truncated)

    header_only = tmp_path / "header.vspc"
    header_only.write_bytes(raw[:10])
    with pytest.raises(ValueError):
        read_snapshot(header_only)


_finite = st.floats(allow_nan=False, allow_infinity=False)   # ±0.0, subnormals, ±1.8e308


@settings(max_examples=30)
@given(n=st.sampled_from([8, 16]), count=st.integers(1, 3), time=_finite,
       data=st.data())
def test_snapshot_round_trip_is_bit_exact(tmp_path_factory, n, count, time, data):
    g = GridSpec(n)
    values = np.array(data.draw(st.lists(_finite, min_size=count * n * n,
                                         max_size=count * n * n))).reshape(count, n, n)
    path = tmp_path_factory.getbasetemp() / "examples.vspc"
    write_snapshot(path, time, [ScalarField.from_samples(g, v) for v in values])
    t, grid, arrays = read_snapshot(path)
    assert np.float64(t).view(np.uint64) == np.float64(time).view(np.uint64)
    assert grid == g
    assert np.array(arrays).view(np.uint64).tolist() == values.view(np.uint64).tolist()


def _one_snapshot(path, spectral=False):
    """Two fields at n = 8: samples (v1), or their band and half spectra (v2)."""
    g = GridSpec(8)
    fields = [ScalarField.from_samples(g, v)
              for v in np.random.default_rng(8).standard_normal((2, 8, 8))]
    if spectral:
        fields = [dealias(to_spectral(fields[0])), to_spectral(fields[1])]
    write_snapshot(path, 0.25, fields)
    return path.read_bytes()


def _each_cut_is_rejected(path, raw):
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            read_snapshot(path)


def _each_header_corruption_is_rejected_or_read_whole(path, raw):
    # each byte of the 32-byte header set to 0x00 and 0xff, and each of its bits flipped
    path.write_bytes(raw)
    _, _, want = read_snapshot(path)
    for where in range(32):
        for byte in (0x00, 0xff, *(raw[where] ^ (1 << bit) for bit in range(8))):
            path.write_bytes(raw[:where] + bytes([byte]) + raw[where + 1:])
            try:
                t, grid, arrays = read_snapshot(path)
            except ValueError:
                continue
            assert isinstance(t, float) and grid == GridSpec(8)
            assert np.array_equal(np.array(arrays), np.array(want))


def test_every_truncated_snapshot_is_rejected(tmp_path):
    path = tmp_path / "s.vspc"
    _each_cut_is_rejected(path, _one_snapshot(path))


def test_every_truncated_v2_snapshot_is_rejected(tmp_path):
    path = tmp_path / "s.vspc"
    _each_cut_is_rejected(path, _one_snapshot(path, spectral=True))


def test_a_corrupted_snapshot_header_is_rejected_or_read_whole(tmp_path):
    path = tmp_path / "s.vspc"
    _each_header_corruption_is_rejected_or_read_whole(path, _one_snapshot(path))


def test_a_corrupted_v2_snapshot_header_is_rejected_or_read_whole(tmp_path):
    path = tmp_path / "s.vspc"
    raw = _one_snapshot(path, spectral=True)
    assert raw[4:8] == (2).to_bytes(4, "little") and len(raw) == 32 + 2 * 8 * 5 * 16
    _each_header_corruption_is_rejected_or_read_whole(path, raw)


@pytest.mark.parametrize("version, n, count, width, payload", [
    (2, 2 ** 20, 1, 3, 16),             # would slice a (2²⁰, 2²⁰) |k|² were the payload not checked first
    (2, 2 ** 20, 1, 2 ** 19 + 1, 16),
    (1, 2 ** 20, 1, 0, 8),
    (2, 8, 1, 0, 0),                    # width out of 1 … n//2 + 1, the payload to match
    (2, 8, 1, 6, 8 * 6 * 16),
    (2, 8, 1, 2 ** 32 - 1, 16),
    (2, 8, 0, 3, 0),                    # no fields
    (1, 8, 0, 0, 0),
])
def test_a_bad_snapshot_header_is_rejected_before_the_grid_is_built(tmp_path, monkeypatch,
                                                                    version, n, count, width,
                                                                    payload):
    def building(self, grid):
        raise AssertionError(f"HalfSpectrum built for n = {grid.n}")

    monkeypatch.setattr(vspc.fields.HalfSpectrum, "__init__", building)
    path = tmp_path / "bad.vspc"
    path.write_bytes(vspc.fields._HEADER.pack(b"VSPC", version, n, count, 0.0, width)
                     + bytes(payload))
    with pytest.raises(ValueError, match="payload|width|no fields"):
        read_snapshot(path)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 16, 32, 64, 128]),
       banded=st.lists(st.booleans(), min_size=1, max_size=4), time=_finite)
def test_v2_snapshot_round_trip_is_bit_exact(tmp_path_factory, seed, n, banded, time):
    # band and half rows, zero-padded to the widest, read back as the samples
    # of their full spectra, which is what v1 stores for them
    g = GridSpec(n)
    fields = [to_spectral(ScalarField.from_samples(g, v))
              for v in np.random.default_rng(seed).standard_normal((len(banded), n, n))]
    fields = [dealias(f) if b else f for f, b in zip(fields, banded)]
    path = tmp_path_factory.getbasetemp() / "examples.vspc"
    write_snapshot(path, time, fields)
    width = g.half.band if all(banded) else g.half.m
    assert len(path.read_bytes()) == 32 + len(fields) * n * width * 16
    t, grid, arrays = read_snapshot(path)
    assert np.float64(t).view(np.uint64) == np.float64(time).view(np.uint64)
    assert grid == g
    want = g.to_samples(np.stack([f.data for f in fields]))
    assert np.array(arrays).tobytes() == want.tobytes()


def test_snapshot_empty_and_mixed_grids(tmp_path):
    with pytest.raises(ValueError):
        write_snapshot(tmp_path / "e.vspc", 0.0, [])
    a = ScalarField.from_samples(GridSpec(16), np.zeros((16, 16)))
    b = ScalarField.from_samples(GridSpec(32), np.zeros((32, 32)))
    with pytest.raises(ValueError):
        write_snapshot(tmp_path / "m.vspc", 0.0, [a, b])


# ---------------------------------------------------------------------------
# band-backed fields: the rows of the solver's packed band, as it hands them out

def _band_fields(g, samples, banded):
    """The fields vspc.solver hands out over the band (or half) spectra of real samples (2k, n, n)."""
    half = g.half
    rows = half.to_coeffs(samples)[..., :half.band if banded else half.m]
    return [f for v in vspc.solver._vectors(g, rows) for f in v.components]


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 16, 32, 64, 128]),
       banded=st.booleans())
def test_band_backed_fields_read_their_rows_bit_for_bit(tmp_path_factory, seed, n, banded):
    # samples, snapshots and half spectra equal those of the full spectrum
    # `data`, which is built on first read, read-only, as half.full(row)
    g = GridSpec(n)
    fields = _band_fields(g, np.random.default_rng(seed).standard_normal((6, n, n)), banded)
    for f in fields:
        assert f.is_spectral and not f.row.flags.writeable
        assert "data" not in vars(f)            # nothing built yet
        assert np.array_equal(ensure_physical(f), g.to_samples(f.data))
        assert np.array_equal(to_physical(f).data, g.to_samples(f.data))
        assert f.data.shape == (n, n) and f.data.dtype == np.complex128
        assert not f.data.flags.writeable and f.data is f.data
        assert np.array_equal(f.data, g.half.full(f.row))
    for width in (g.half.band, g.half.m):
        want = [ensure_spectral(f)[:, :width] for f in fields]
        assert np.array_equal(_half_columns(fields, width), np.stack(want))
    path = tmp_path_factory.mktemp("band") / "state.vspc"
    write_snapshot(path, 0.5, fields)           # v2: the rows as they are
    rows = np.stack([f.row for f in fields])
    header = vspc.fields._HEADER.pack(vspc.fields.SNAPSHOT_MAGIC, 2, n, len(fields), 0.5,
                                      rows.shape[-1])
    assert path.read_bytes() == header + rows.astype("<c16").tobytes()
    t, grid, arrays = read_snapshot(path)
    samples = g.to_samples(np.stack([f.data for f in fields]))
    assert (t, grid) == (0.5, g) and np.array(arrays).tobytes() == samples.tobytes()


def test_a_user_spectrum_is_checked_once_on_first_read(monkeypatch):
    # building the field checks nothing; the first read of its half spectrum
    # runs the tests of GridSpec.to_samples, and later reads reuse the verdict
    g = GridSpec(16)
    c = g.to_coeffs(np.random.default_rng(4).standard_normal((16, 16)))
    checks, inverses = [], []
    accepted, to_samples = GridSpec._accepted, vspc.fields.HalfSpectrum.to_samples
    monkeypatch.setattr(GridSpec, "_accepted", lambda self, x: checks.append(1) or accepted(self, x))
    monkeypatch.setattr(vspc.fields.HalfSpectrum, "to_samples",
                        lambda self, *a, **k: inverses.append(1) or to_samples(self, *a, **k))
    f = ScalarField.from_spectrum(g, c)
    assert not checks
    w = to_physical(f).data                    # a single inverse transform
    assert len(checks) == 1 and len(inverses) == 1
    assert np.array_equal(w, to_samples(g.half, c[:, :g.half.m]))
    assert np.array_equal(ensure_physical(f), w)
    assert np.array_equal(_half_columns([f], g.half.m)[0], c[:, :g.half.m])
    assert len(checks) == 1


def test_checked_inverse_transforms_once_where_the_residue_test_reads_samples(monkeypatch):
    # ½Σ|d| = 1.2e-10 calls for max|w| (= 10), and those samples are returned
    g = GridSpec(64)
    x1, x2 = g.mesh()
    c = g.to_coeffs(10.0 * np.sin(x1) * np.cos(x2)) + 3e-14j
    inverses, to_samples = [], vspc.fields.HalfSpectrum.to_samples
    monkeypatch.setattr(vspc.fields.HalfSpectrum, "to_samples",
                        lambda self, *a, **k: inverses.append(1) or to_samples(self, *a, **k))
    w = g.to_samples(c)
    assert len(inverses) == 1
    assert np.array_equal(w, to_samples(g.half, c[:, :g.half.m]))
    # a user field keeps the samples its check took: to_physical of it runs
    # that one inverse, and later reads run none
    f = ScalarField.from_spectrum(g, c)
    inverses.clear()
    assert np.array_equal(to_physical(f).data, w)
    assert len(inverses) == 1
    assert np.array_equal(to_physical(f).data, w) and np.array_equal(ensure_physical(f), w)
    assert len(inverses) == 1


def test_a_non_finite_mirror_only_mode_is_rejected():
    # k = (3, −4) lies in a column the half spectrum does not keep; NaN
    # compares False against every threshold, so it must be caught as such
    g = GridSpec(16)
    x1, x2 = g.mesh()
    for bad in (np.nan, np.inf):
        c = g.to_coeffs(np.sin(x1) * np.cos(2.0 * x2)).copy()
        c[3, -4] = bad
        f = ScalarField.from_spectrum(g, c)
        for read in (to_physical, ensure_physical, lambda f: g.to_samples(f.data)):
            with pytest.raises(ConjugateSymmetryError, match="non-finite"):
                read(f)


def _isinstance_of(tree, name):
    """isinstance(…, name) calls in a module, name alone or in a tuple."""
    found = []
    for call in _calls_of(tree, "isinstance"):
        kinds = call.args[1].elts if isinstance(call.args[1], ast.Tuple) else [call.args[1]]
        found += [k for k in kinds if getattr(k, "id", None) == name]
    return found


def _grid_reads(tree, names):
    """Attributes among names read from a `grid` or `….grid` in a module."""
    return [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names
            and "grid" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))]


def test_one_spectral_representation_inside():
    # vspc works on half spectra alone: no reader asks which kind of field it
    # has, the one checked read of a full spectrum is GridSpec's, and the
    # operators take their multipliers from GridSpec.half
    package = Path(vspc.__file__).parent
    probes = [path.name for path in package.glob("*.py")
              if _isinstance_of(ast.parse(path.read_text()), "_BandField")]
    assert not probes, probes
    assert not hasattr(vspc.fields.HalfSpectrum, "_checked_samples")
    tree = ast.parse((package / "operators.py").read_text())
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names]
    assert "ensure_spectral" not in imported
    full_lattice = ("ik1", "ik2", "k_sq", "dealias_mask")
    assert not _grid_reads(tree, full_lattice)
    fake = ("isinstance(f, _BandField)\nisinstance(f, (int, _BandField))\n"
            "a = grid.ik1 * c + f.grid.k_sq\nb = grid.half.ik1 * half.k_sq\n")
    assert len(_isinstance_of(ast.parse(fake), "_BandField")) == 2
    assert sorted(_grid_reads(ast.parse(fake), full_lattice)) == ["ik1", "k_sq"]
