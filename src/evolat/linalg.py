"""Hermitian matrices, spectra, and atomic file writes.

Energy spectra are kept in a normalized convention (zero mean, unit sum of
squares) so that complexity values computed from different Hamiltonians are
directly comparable.
"""

from __future__ import annotations

import copy
import ctypes
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERMITICITY_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
# rows of the panels that the checks on dim x dim arrays work through, so no
# temporary of a check is larger than a panel
PANEL_ROWS = 256


def numpy_blas_kernel(name: str, restype, *argtypes):
    """The function `name` of the OpenBLAS numpy runs on, typed for ctypes,
    or None.  numpy's wheels bundle the ILP64 scipy-openblas build
    (numpy.libs/libscipy_openblas64_*), and the symbol is looked up through
    numpy's own extension module, so it comes from the library numpy has
    loaded and from no other BLAS."""
    try:
        from numpy._core import _multiarray_umath

        kernel = getattr(ctypes.CDLL(_multiarray_umath.__file__), name)
    except (ImportError, OSError, AttributeError):
        return None
    kernel.argtypes = argtypes
    kernel.restype = restype
    return kernel


# LAPACKE's divide and conquer eigensolvers, resolved once; the _work forms
# take their workspace from the caller and pass column-major (102) input
# straight through.  None falls back to np.linalg.eigh.
_I64, _PTR, _CHAR = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
_EVD_ARGS = (ctypes.c_int, _CHAR, _CHAR, _I64, _PTR, _I64, _PTR) + (_PTR, _I64) * 2
_DSYEVD = numpy_blas_kernel("scipy_LAPACKE_dsyevd_work64_", _I64, *_EVD_ARGS)
_ZHEEVD = numpy_blas_kernel("scipy_LAPACKE_zheevd_work64_", _I64, *_EVD_ARGS, _PTR, _I64)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _float_dtype(a: np.ndarray):
    """complex128 for complex input, float64 for everything else."""
    return np.complex128 if np.iscomplexobj(a) else np.float64


def _hermiticity(m: np.ndarray) -> tuple:
    """max |m - m^dagger| and max(max |m|, 1) of a square float64 or
    complex128 m, through one temporary of m's size (plus the modulus's for
    complex m).  Refuses a non-finite m before it subtracts, as NaN would
    pass any tolerance."""
    work = np.empty_like(m)  # |m|, then m - m^dagger, then its modulus
    scale = np.maximum(np.abs(m, out=work.real).max(), 1.0)  # NaN stays NaN
    if not np.isfinite(scale):
        raise ValueError(f"matrix has a non-finite entry: max |H| = {scale}")
    np.subtract(m, np.conjugate(m.T, out=work), out=work)
    dev = (np.abs(work) if np.iscomplexobj(work) else np.abs(work, out=work)).max()
    return dev, scale


@dataclass(frozen=True)
class HermitianMatrix:
    """Square matrix with finite entries and H = H^dagger enforced at
    construction.

    Real input is kept as float64 (a real symmetric matrix), complex input
    as complex128, so a real Hamiltonian is diagonalized in real arithmetic.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries)
        m = m.astype(_float_dtype(m), copy=False)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        dev, scale = _hermiticity(m)
        if dev > HERMITICITY_TOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: max |H - H^dag| = {dev:.3e} "
                f"exceeds {HERMITICITY_TOL:.1e} * {scale:.3e}"
            )
        object.__setattr__(self, "entries", _read_only(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    energies are real and ascending; vectors holds the eigenvectors as
    columns, orthonormal to ORTHONORMALITY_TOL.  vectors is float64 when
    given real and complex128 when given complex.
    """

    energies: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        v = np.asarray(self.vectors)
        v = v.astype(_float_dtype(v), copy=False)
        if e.ndim != 1:
            raise ValueError("energies must be a vector")
        if v.shape != (e.size, e.size):
            raise ValueError(f"vectors shape {v.shape} does not match {e.size} energies")
        if np.any(np.diff(e) < 0):
            raise ValueError("energies must be sorted ascending")
        dev = max(_gram_deviation(v, r) for r in range(0, e.size, PANEL_ROWS))
        if dev > ORTHONORMALITY_TOL:
            raise ValueError(f"eigenvector columns not orthonormal: deviation {dev:.3e}")
        object.__setattr__(self, "energies", _read_only(e))
        object.__setattr__(self, "vectors", _read_only(v))

    @property
    def dim(self) -> int:
        return self.energies.size


def _gram_deviation(v: np.ndarray, r: int) -> float:
    """max |V^dagger V - I| over rows r:r+PANEL_ROWS."""
    g = v[:, r : r + PANEL_ROWS].conj().T @ v
    g.reshape(-1)[r :: v.shape[0] + 1] -= 1.0  # the identity's entries in these rows
    return np.abs(g).max()


def _reconstruction_deviation(h: np.ndarray, v: np.ndarray, e: np.ndarray, r: int) -> tuple:
    """(max |V diag(e) V^dagger - H|, max |H|) over rows r:r+PANEL_ROWS; the
    rows are conjugated, so V^dagger is read as V^T and never copied."""
    rows = h[r : r + PANEL_ROWS]
    dev = (v[r : r + PANEL_ROWS].conj() * e) @ v.T
    dev -= rows.conj()
    return np.abs(dev).max(), np.abs(rows).max()


def _lapack_eigh(kernel, h: np.ndarray) -> tuple:
    """(energies, vectors) of a float64 or complex128 Hermitian h by dsyevd or
    zheevd, called as np.linalg.eigh calls them: on the lower triangle of a
    column-major copy, with the workspace that LAPACK asks for.  Both match
    np.linalg.eigh bit for bit.  The copy becomes the eigenvectors, and the
    workspace (2 dim^2 entries) goes before they are copied out in C order."""
    kinds = (np.complex128, np.float64, np.int64) if np.iscomplexobj(h) else (np.float64, np.int64)
    d = h.shape[0]
    a = np.array(h, order="F")
    w = np.empty(d)

    def run(work, sizes):
        info = kernel(102, b"V", b"L", d, a.ctypes.data, max(d, 1), w.ctypes.data,
                      *(x for buf, n in zip(work, sizes) for x in (buf.ctypes.data, n)))
        if info != 0:
            raise np.linalg.LinAlgError(f"{kernel.__name__}: eigenvalues did not converge "
                                        f"(info {info})")

    query = [np.zeros(1, kind) for kind in kinds]
    run(query, [-1] * len(kinds))  # each buffer's first entry receives its size
    work = [np.empty(int(q[0].real), kind) for q, kind in zip(query, kinds)]
    run(work, [buf.size for buf in work])
    del work
    return w, np.ascontiguousarray(a)


def eigendecompose(matrix: HermitianMatrix) -> Spectrum:
    """Full eigendecomposition, ascending eigenvalues; real eigenvectors for a
    real matrix.  Beyond the input it holds at most 3 dim^2 entries (a copy
    and LAPACK's workspace), and the checks work in row panels."""
    h = matrix.entries
    kernel = _ZHEEVD if np.iscomplexobj(h) else _DSYEVD
    e, v = np.linalg.eigh(h) if kernel is None else _lapack_eigh(kernel, h)
    spec = Spectrum(e, v)
    panels = [_reconstruction_deviation(h, v, e, r) for r in range(0, h.shape[0], PANEL_ROWS)]
    dev, scale = np.max(panels, axis=0)
    if dev > RECONSTRUCTION_TOL * max(scale, 1.0):
        raise ArithmeticError(f"eigendecomposition failed to reconstruct: {dev:.3e}")
    return spec


def normalize_energies(energies: np.ndarray) -> np.ndarray:
    """Shift to zero mean and scale to unit sum of squares."""
    e = np.asarray(energies, dtype=float)
    e = e - e.mean()
    norm = np.sqrt(np.sum(e * e))
    if norm == 0.0:
        raise ValueError("spectrum is fully degenerate, cannot normalize")
    return e / norm


def normalize_spectrum(spectrum: Spectrum) -> Spectrum:
    """Same eigenvectors, energies shifted and scaled to the standard
    convention.  The vectors are not checked again, and a positive scale
    keeps the energies sorted."""
    out = copy.copy(spectrum)
    object.__setattr__(out, "energies", _read_only(normalize_energies(spectrum.energies)))
    return out


def atomic_write(path, *chunks) -> None:
    """Write str or bytes-like chunks to path through a temporary file in the
    same directory, renamed over path once complete: a failed write leaves
    the earlier file, if any, as it was and no temporary file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
