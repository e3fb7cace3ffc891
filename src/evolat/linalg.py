"""Hermitian matrices, spectra, and the `.evlm` matrix file format.

Energy spectra are kept in a normalized convention (zero mean, unit sum of
squares) so that complexity values computed from different Hamiltonians are
directly comparable.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER_MAGIC = b"EVLM"
HEADER_SIZE = 16
_KIND_FLOAT64 = 1
_KIND_COMPLEX128 = 2

HERMITICITY_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _float_dtype(a: np.ndarray):
    """complex128 for complex input, float64 for everything else."""
    return np.complex128 if np.iscomplexobj(a) else np.float64


@dataclass(frozen=True)
class HermitianMatrix:
    """Square matrix with H = H^dagger enforced at construction.

    Real input is kept as float64 (a real symmetric matrix), complex input
    as complex128, so a real Hamiltonian is diagonalized in real arithmetic.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries)
        m = m.astype(_float_dtype(m), copy=False)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        scale = max(np.abs(m).max(), 1.0)
        dev = np.abs(m - m.conj().T).max()
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
        dev = np.abs(v.conj().T @ v - np.eye(e.size)).max()
        if dev > ORTHONORMALITY_TOL:
            raise ValueError(f"eigenvector columns not orthonormal: deviation {dev:.3e}")
        object.__setattr__(self, "energies", _read_only(e))
        object.__setattr__(self, "vectors", _read_only(v))

    @property
    def dim(self) -> int:
        return self.energies.size


def eigendecompose(matrix: HermitianMatrix) -> Spectrum:
    """Full eigendecomposition, ascending eigenvalues; real eigenvectors for a
    real matrix."""
    e, v = np.linalg.eigh(matrix.entries)
    spec = Spectrum(e, v)
    scale = max(np.abs(matrix.entries).max(), 1.0)
    recon = (v * e) @ v.conj().T
    dev = np.abs(recon - matrix.entries).max()
    if dev > RECONSTRUCTION_TOL * scale:
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
    """Same eigenvectors, energies shifted and scaled to the standard convention."""
    return Spectrum(normalize_energies(spectrum.energies), spectrum.vectors)


def save_matrix(path, array: np.ndarray) -> None:
    """Write a float64 or complex128 square matrix with a 16-byte header.

    Layout: 4 bytes magic "EVLM", uint32 dimension, uint32 element kind
    (1 = float64, 2 = complex128), 4 reserved bytes, then the raw entries
    in column-major order.
    """
    m = np.asarray(array)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("only square matrices are supported")
    if np.iscomplexobj(m):
        kind, m = _KIND_COMPLEX128, m.astype(np.complex128)
    else:
        kind, m = _KIND_FLOAT64, m.astype(np.float64)
    header = struct.pack("<4sII4x", HEADER_MAGIC, m.shape[0], kind)
    atomic_write(path, header, m.tobytes(order="F"))


def atomic_write(path, *chunks) -> None:
    """Write str or bytes chunks to path through a temporary file in the
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


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        if len(header) != HEADER_SIZE:
            raise ValueError(f"{path}: truncated header")
        magic, dim, kind = struct.unpack("<4sII4x", header)
        if magic != HEADER_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        dtype = {_KIND_FLOAT64: np.float64, _KIND_COMPLEX128: np.complex128}.get(kind)
        if dtype is None:
            raise ValueError(f"{path}: unknown element kind {kind}")
        body = fh.read()
    size = np.dtype(dtype).itemsize
    if len(body) != dim * dim * size:
        raise ValueError(
            f"{path}: expected {dim * dim} entries of {size} bytes, found {len(body)} bytes"
        )
    return np.frombuffer(body, dtype=dtype).reshape((dim, dim), order="F").copy()
