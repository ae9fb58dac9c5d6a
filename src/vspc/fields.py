"""Fields on the 2π-periodic square torus and their Fourier representations.

Fields are sampled on a uniform n×n lattice x_j = 2πj/n.  The forward
transform is normalized so the k = 0 coefficient is the field mean,

    f̂(k) = (1/n²) Σ_j f(x_j) e^{−i k·x_j},        f(x_j) = Σ_k f̂(k) e^{i k·x_j},

which gives the Parseval identity ‖f‖₂² = (2π)² Σ_k |f̂(k)|².  Wavenumbers are
integers in FFT layout; axis 0 of every data array is x₁ and axis 1 is x₂.

Field objects are immutable value types: every operation returns a new field
and the wrapped arrays are marked read-only, so fields can be shared freely
across threads.  Inside vspc a spectral field is its half spectrum (see
HalfSpectrum): a field vspc builds keeps its read-only row and builds its full
spectrum `data` on first read, and a user's full spectrum is checked once, on
the first read of its half.  Both are deterministic, so two threads racing to
build them are harmless.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "TAU", "PHYSICAL", "SPECTRAL", "GridSpec", "ScalarField", "VectorField",
    "TensorField", "ConjugateSymmetryError", "to_spectral", "to_physical",
    "ensure_spectral", "ensure_physical", "dealias", "pointwise_product",
    "max_abs", "l2_norm", "write_snapshot", "read_snapshot",
    "SNAPSHOT_MAGIC", "SNAPSHOT_VERSION",
]

TAU = 2.0 * np.pi

PHYSICAL = "physical"
SPECTRAL = "spectral"


class ConjugateSymmetryError(RuntimeError):
    """Spectral coefficients no longer describe a real-valued field."""


class _NonFiniteSpectrum(ConjugateSymmetryError):
    """A spectrum with non-finite coefficients (a blowup, in a forcing)."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform n×n sampling of the 2π-periodic torus (n a power of two ≥ 8)."""

    n: int
    length: float = TAU

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n!r}")
        if not abs(self.length - TAU) <= 1e-15:
            raise ValueError("only the 2π-periodic torus is supported")

    @cached_property
    def x(self):
        """1D sample coordinates 2πj/n."""
        return TAU * np.arange(self.n) / self.n

    def mesh(self):
        """Coordinate arrays (X1, X2), axis 0 ↔ x₁."""
        return np.meshgrid(self.x, self.x, indexing="ij")

    @cached_property
    def k(self):
        """Integer wavenumbers along one axis, FFT layout (0, 1, …, −1)."""
        return np.rint(np.fft.fftfreq(self.n, d=1.0 / self.n)).astype(np.int64)

    @cached_property
    def k1(self):
        return self.k[:, None]

    @cached_property
    def k2(self):
        return self.k[None, :]

    @cached_property
    def k_sq(self):
        """|k|² on the full 2D lattice."""
        return (self.k1 ** 2 + self.k2 ** 2).astype(np.float64)

    @cached_property
    def ik1(self):
        """∂/∂x₁ multiplier; the Nyquist column is zeroed so real fields stay real."""
        kd = self.k.astype(np.float64)
        kd[self.n // 2] = 0.0
        return 1j * kd[:, None]

    @cached_property
    def ik2(self):
        return self.ik1.T

    @property
    def dealias_limit(self):
        """Largest retained wavenumber under the 2/3 rule."""
        return self.n // 3

    @cached_property
    def dealias_mask(self):
        lim = self.dealias_limit
        return (np.abs(self.k1) <= lim) & (np.abs(self.k2) <= lim)

    @property
    def spacing(self):
        return TAU / self.n

    @cached_property
    def half(self):
        """Transform layer on the rfft2 half spectrum (see HalfSpectrum)."""
        return HalfSpectrum(self)

    def to_coeffs(self, samples):
        """Full spectra of real samples, batched over leading axes; mean-normalized."""
        return self.half.full(self.half.to_coeffs(samples))

    def to_samples(self, coeffs):
        """Real samples of full spectra, batched over leading axes; checked.

        A plane that does not describe a real field raises
        ConjugateSymmetryError.  Its coefficients must be finite and, with
        d(k) = ĉ(k) − conj ĉ(−k), it must pass
          - the mirror test, max|d| ≤ 1e-10·max|ĉ| + 1e-14, and
          - the residue test: the imaginary part Σ_k d(k)/2·e^{ik·x} that a
            complex inverse would leave is at most 1e-10·max(max|w|, 1),
            w the samples.
        Neither implies the other: i·ε on every mode passes the first and
        peaks at n²ε in the second.  The residue is bounded by ½Σ|d| and
        transformed, as the Hermitian d/(2i), only where that is too loose.
        """
        h, w = self._accepted(coeffs)
        return self.half.to_samples(h) if w is None else w

    def _accepted(self, coeffs):
        """(h, w): the half spectra h = coeffs[..., :n//2 + 1] of full spectra that
        pass the tests of to_samples, and their samples w where the tests took
        them, else None.  The tests read max|ĉ| and max|w| only where d could
        fail them: where max|d| > 1e-14 and ½Σ|d| > 1e-10."""
        half, planes = self.half, (-2, -1)
        if not np.all(np.isfinite(coeffs)):
            raise _NonFiniteSpectrum("spectrum has non-finite coefficients")
        h = coeffs[..., :half.m]
        d = h - np.conj(coeffs[..., half._mirror_rows[:, None], half._mirror_cols])
        violation = np.max(np.abs(d), axis=planes)
        if np.any(violation > 1e-14):
            scale = np.max(np.abs(coeffs), axis=planes)
            bad = np.flatnonzero(violation > 1e-10 * scale + 1e-14)
            if bad.size:
                raise ConjugateSymmetryError(
                    f"conjugate symmetry violated: residual {violation.flat[bad[0]]:.3e} "
                    f"against scale {scale.flat[bad[0]]:.3e}")
        bound, w = 0.5 * np.sum(half.weight * np.abs(d), axis=planes), None
        if np.any(bound > 1e-10):
            w = half.to_samples(h)
            limit = 1e-10 * np.maximum(np.max(np.abs(w), axis=planes), 1.0)
            loose = bound > limit
            if np.any(loose):
                resid = np.max(np.abs(half.to_samples(d[loose] / 2j)), axis=planes)
                bad = np.flatnonzero(resid > limit[loose])
                if bad.size:
                    raise ConjugateSymmetryError(
                        f"imaginary residue {resid[bad[0]]:.3e} left after inverse transform")
        return h, w

    @cached_property
    def _leray(self):
        k1, k2 = self.ik1.imag, self.ik2.imag
        ksq = k1 * k1 + k2 * k2
        return k1, k2, np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)

    def project(self, c1, c2):
        """Leray projection v̂ − k(k·v̂)/|k|² of a full, half or band spectrum pair.

        Uses Nyquist-zeroed wavenumbers (the Nyquist mode maps to itself under
        k → −k, so projecting it would break conjugate symmetry); those modes
        pass through like the mean mode.  Dealiased fields are unaffected.
        """
        k1, k2, inv = self._leray
        k2, inv = k2[:, :c1.shape[-1]], inv[:, :c1.shape[-1]]
        corr = (k1 * c1 + k2 * c2) * inv
        return c1 - k1 * corr, c2 - k2 * corr


class HalfSpectrum:
    """The k₂ = 0 … n/2 columns of the FFT layout, as np.fft.rfft2 returns them.

    A real field is fixed by them (f̂(−k) = conj f̂(k)), so they are vspc's one
    internal representation of a spectral field: the solver keeps its state
    here, the operators work here, and the fields vspc builds make full
    spectra only when their `data` is read.
    A dealiased field fills only the first `band` = n/3 + 1 columns; the
    transforms and `full` take such a band too.  The transforms are irfft2
    and rfft2 as their two 1D passes, so that the k₁ pass runs on the given
    columns only and both can write into a caller's buffers.  The multipliers
    are GridSpec's restricted to the half; `weight` counts each column's
    mirror image, so Σ weight·|ĉ|² over the half is Σ |ĉ|² over the full
    lattice.  GridSpec.project takes half spectra too.
    """

    def __init__(self, grid: GridSpec):
        n = grid.n
        m = n // 2 + 1
        self.n, self.m, self.band = n, m, grid.dealias_limit + 1
        self.ik1 = grid.ik1
        self.ik2 = grid.ik2[:, :m]
        self.k_sq = grid.k_sq[:, :m]
        self.mask = grid.dealias_mask[:, :m]
        self.weight = np.full((1, m), 2.0)
        self.weight[0, 0] = self.weight[0, -1] = 1.0
        self._mirror_rows = -np.arange(n) % n
        self._mirror_cols = -np.arange(m) % n

    def to_samples(self, coeffs, out=None, tmp=None):
        """Real samples of half spectra or a band, batched; tmp takes the k₁ pass."""
        tmp = np.fft.ifft(coeffs, axis=-2, norm="forward", out=tmp)
        return np.fft.irfft(tmp, n=self.n, axis=-1, norm="forward", out=out)

    def to_coeffs(self, samples, out=None, tmp=None):
        """Half spectra of real samples, batched; into out, only its first columns."""
        tmp = np.fft.rfft(samples, axis=-1, norm="forward", out=tmp)
        cols = self.m if out is None else out.shape[-1]
        return np.fft.fft(tmp[..., :cols], axis=-2, norm="forward", out=out)

    def full(self, coeffs):
        """Full spectra rebuilt from half spectra or a narrower band b:
        ĉ(k₁, −k₂) = conj ĉ(−k₁, k₂), and the columns b … n − b are zero."""
        n, b = self.n, coeffs.shape[-1]
        mirrored = min(b - 1, n - b)        # n/2 − 1 of a half, b − 1 of a band
        out = np.empty(coeffs.shape[:-1] + (n,), dtype=np.complex128)
        out[..., :b] = coeffs
        out[..., b:n - mirrored] = 0.0
        np.conjugate(coeffs[..., self._mirror_rows, mirrored:0:-1], out=out[..., n - mirrored:])
        return out


def _frozen_array(values, dtype):
    arr = np.array(values, dtype=dtype, copy=True, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A single real field, stored either as samples or Fourier coefficients."""

    grid: GridSpec
    data: np.ndarray
    rep: str

    def __post_init__(self):
        if self.rep not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation {self.rep!r}")
        dtype = np.float64 if self.rep == PHYSICAL else np.complex128
        arr = np.asarray(self.data)
        if arr.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"field shape {arr.shape} does not match grid n={self.grid.n}")
        object.__setattr__(self, "data", _frozen_array(arr, dtype))

    @classmethod
    def from_samples(cls, grid, values):
        return cls(grid, values, PHYSICAL)

    @classmethod
    def from_spectrum(cls, grid, coeffs):
        return cls(grid, coeffs, SPECTRAL)

    @property
    def is_physical(self):
        return self.rep == PHYSICAL

    @property
    def is_spectral(self):
        return self.rep == SPECTRAL

    def _columns(self):
        """This field's half spectrum (its first columns, for a band): of its
        samples, or cut from a user's `data` once GridSpec.to_samples accepts it."""
        if self.is_physical:
            return self.grid.half.to_coeffs(self.data)
        return self._accepted[0]

    @cached_property
    def _accepted(self):
        """(h, w) of GridSpec._accepted(data), checked on first read; the verdict
        is kept, and so are the samples w where the check took them, read-only."""
        h, w = self.grid._accepted(self.data)
        return h, None if w is None else _frozen_array(w, np.float64)


class _BandField(ScalarField):
    """Spectral field that vspc built over one (n, w) row of band or half spectra.

    Only for a row of which no writable reference is kept; the row is made
    read-only.  Its columns are the row, unchecked (see operators), and the
    full spectrum `data` is built on first read, as HalfSpectrum.full(row).
    """

    def __init__(self, grid, row):
        row.flags.writeable = False
        for name, value in (("grid", grid), ("rep", SPECTRAL), ("row", row),
                            ("_accepted", (row, None))):
            object.__setattr__(self, name, value)

    @cached_property
    def data(self):
        full = self.grid.half.full(self.row)
        full.flags.writeable = False
        return full


@dataclass(frozen=True, eq=False)
class VectorField:
    """Two scalar components sharing one grid and one representation."""

    components: tuple

    def __post_init__(self):
        c1, c2 = self.components
        if c1.grid != c2.grid:
            raise ValueError("vector components live on different grids")
        if c1.rep != c2.rep:
            raise ValueError("vector components mix representations")
        object.__setattr__(self, "components", (c1, c2))

    @classmethod
    def from_samples(cls, grid, v1, v2):
        return cls((ScalarField.from_samples(grid, v1), ScalarField.from_samples(grid, v2)))

    @classmethod
    def from_spectra(cls, grid, c1, c2):
        return cls((ScalarField.from_spectrum(grid, c1), ScalarField.from_spectrum(grid, c2)))

    @property
    def grid(self):
        return self.components[0].grid

    @property
    def rep(self):
        return self.components[0].rep


@dataclass(frozen=True, eq=False)
class TensorField:
    """2×2 tensor stored as two column vector fields F(·,1), F(·,2)."""

    columns: tuple

    def __post_init__(self):
        c1, c2 = self.columns
        if c1.grid != c2.grid:
            raise ValueError("tensor columns live on different grids")
        if c1.rep != c2.rep:
            raise ValueError("tensor columns mix representations")
        object.__setattr__(self, "columns", (c1, c2))

    @classmethod
    def from_columns(cls, col1, col2):
        return cls((col1, col2))

    @classmethod
    def identity(cls, grid):
        one = np.ones((grid.n, grid.n))
        zero = np.zeros((grid.n, grid.n))
        return cls((VectorField.from_samples(grid, one, zero),
                    VectorField.from_samples(grid, zero, one)))

    @property
    def grid(self):
        return self.columns[0].grid

    @property
    def rep(self):
        return self.columns[0].rep

    def entry(self, i, k):
        """Scalar entry F_{ik} (0-based row i, column k)."""
        return self.columns[k].components[i]


# ---------------------------------------------------------------------------
# transforms

def to_spectral(f: ScalarField) -> ScalarField:
    """Forward transform; mean-normalized so f̂(0) is the field average."""
    if not f.is_physical:
        raise ValueError("to_spectral expects a physical-representation field")
    return _BandField(f.grid, f.grid.half.to_coeffs(f.data))


def to_physical(f: ScalarField) -> ScalarField:
    """Inverse transform; a user's full spectrum is checked as GridSpec.to_samples checks it."""
    if not f.is_spectral:
        raise ValueError("to_physical expects a spectral-representation field")
    return ScalarField.from_samples(f.grid, ensure_physical(f))


def ensure_spectral(f: ScalarField) -> np.ndarray:
    """Coefficient array of f, transforming if needed."""
    return f.data if f.is_spectral else f.grid.to_coeffs(f.data)


def _half_columns(fields, width, out=None) -> np.ndarray:
    """The first `width` ≤ n//2 + 1 columns of the half spectra of scalar fields,
    stacked, each field's columns zero-padded to the width, into `out` if given;
    no full spectrum is built."""
    if out is None:
        out = np.empty((len(fields), fields[0].grid.n, width), dtype=np.complex128)
    for f, plane in zip(fields, out):
        cols = f._columns()[:, :width]
        plane[:, :cols.shape[-1]] = cols
        plane[:, cols.shape[-1]:] = 0.0
    return out


def ensure_physical(f: ScalarField) -> np.ndarray:
    """Sample array of f, transforming if needed: one inverse of its half
    spectrum, or none where the check of a user's spectrum took the samples."""
    if f.is_physical:
        return f.data
    h, w = f._accepted
    return f.grid.half.to_samples(h) if w is None else w


def dealias(f: ScalarField) -> ScalarField:
    """Zero every coefficient with max(|k₁|, |k₂|) > n/3 (2/3-rule truncation)."""
    if not f.is_spectral:
        raise ValueError("dealias expects a spectral-representation field")
    half = f.grid.half
    return _BandField(f.grid, _half_columns([f], half.band)[0] * half.mask[:, :half.band])


def pointwise_product(f: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise product of two physical fields on the same grid."""
    if f.grid != g.grid:
        raise ValueError("pointwise product of fields on different grids")
    if not (f.is_physical and g.is_physical):
        raise ValueError("pointwise product expects physical-representation fields")
    return ScalarField.from_samples(f.grid, f.data * g.data)


def _scalar_parts(f):
    if isinstance(f, ScalarField):
        return (f,)
    if isinstance(f, VectorField):
        return f.components
    if isinstance(f, TensorField):
        return tuple(c for col in f.columns for c in col.components)
    raise TypeError(f"expected a field, got {type(f).__name__}")


def _l2(half, coeffs) -> float:
    """L² norm on the torus of a half spectrum or band (Parseval, mirror columns counted)."""
    return float(TAU * np.sqrt(np.sum(half.weight[:, :coeffs.shape[-1]] * np.abs(coeffs) ** 2)))


def max_abs(f) -> float:
    """Grid sup-norm max_j |f(x_j)|, maximized over components."""
    worst = 0.0
    for part in _scalar_parts(f):
        if not part.is_physical:
            raise ValueError("max_abs expects a physical-representation field")
        worst = max(worst, float(np.max(np.abs(part.data))))
    return worst


def l2_norm(f) -> float:
    """L² norm on the torus (components summed in quadrature); spectral and
    physical routes agree by Parseval."""
    total = 0.0
    for part in _scalar_parts(f):
        if part.is_spectral:
            total += _l2(part.grid.half, part._columns()) ** 2
        else:
            total += (TAU / part.grid.n) ** 2 * float(np.sum(part.data ** 2))
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# snapshot container
#
# Layout: 32-byte header — magic "VSPC", format version u32, grid size u32,
# field count u32, time f64, width u32, 4 reserved bytes — then the payload.
# All integers and floats are little-endian.
#   v1, written when any field is physical: each field's row-major float64
#       samples; width 0.
#   v2, written when every field is spectral: the fields' (count, n, width)
#       half-spectrum columns (_half_columns at the widest `_columns()`) as
#       row-major complex128; 1 ≤ width ≤ n//2 + 1.  A solver state's band
#       is written as it is.
# read_snapshot returns samples for both: those of a v2 block are the bytes
# v1 stores for the same fields.

SNAPSHOT_MAGIC = b"VSPC"
SNAPSHOT_VERSION = 2        # the newest; read_snapshot reads versions 1 and 2
_HEADER = struct.Struct("<4sIIIdI4x")


def write_snapshot(path, time, fields: Sequence[ScalarField]):
    """Write the fields with a timestamped header: as v2, their half-spectrum
    columns as they are, when every field is spectral (no inverse transform);
    else as v1, their samples, so that a user's samples round-trip bit for
    bit.  read_snapshot returns samples for both."""
    if not fields:
        raise ValueError("snapshot needs at least one field")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("snapshot fields live on different grids")
    if all(f.is_spectral for f in fields):
        width = max(f._columns().shape[-1] for f in fields)
        version, dtype, blocks = 2, "<c16", [_half_columns(fields, width)]
    else:
        version, dtype, blocks, width = 1, "<f8", [ensure_physical(f) for f in fields], 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, version, grid.n, len(fields), float(time), width))
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype=dtype))


def read_snapshot(path):
    """Read a v1 or v2 snapshot; returns (time, GridSpec, list of sample arrays)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError("snapshot header truncated")
        magic, version, n, count, time, width = _HEADER.unpack(header)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        if version not in (1, 2):
            raise ValueError(f"unsupported snapshot version {version}")
        grid = GridSpec(n)
        payload = fh.read()
    if count == 0:
        raise ValueError("snapshot has no fields")
    if version == 2 and not 1 <= width <= n // 2 + 1:
        raise ValueError(f"snapshot band width {width} is not in 1 … {n // 2 + 1}")
    shape, dtype = ((count, n, n), "<f8") if version == 1 else ((count, n, width), "<c16")
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    if len(payload) != expected:    # checked before anything grid-sized is built
        raise ValueError(f"snapshot payload has {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype=dtype).reshape(shape)
    return float(time), grid, [v.copy() for v in values] if version == 1 else list(
        grid.half.to_samples(values))
