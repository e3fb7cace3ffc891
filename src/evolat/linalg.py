"""Hermitian matrices, spectra, and their on-disk formats.

Energy spectra are kept in a normalized convention (zero mean, unit sum of
squares) so that complexity values computed from different Hamiltonians are
directly comparable.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

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
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asfortranarray(m).tobytes(order="F"))


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
        data = np.frombuffer(fh.read(), dtype=dtype)
    if data.size != dim * dim:
        raise ValueError(f"{path}: expected {dim * dim} entries, found {data.size}")
    return data.reshape((dim, dim), order="F").copy()


def spectrum_to_json(spectrum: Spectrum) -> str:
    payload = {
        "dim": spectrum.dim,
        "energies": spectrum.energies.tolist(),
        "vectors_re": spectrum.vectors.real.tolist(),
        "vectors_im": spectrum.vectors.imag.tolist(),
    }
    return json.dumps(payload)


def spectrum_from_json(text: str) -> Spectrum:
    """Inverse of spectrum_to_json; all-zero vectors_im gives real vectors."""
    payload = json.loads(text)
    v = np.array(payload["vectors_re"], dtype=float)
    im = np.array(payload["vectors_im"], dtype=float)
    if np.any(im != 0.0):
        v = v + 1j * im
    return Spectrum(np.array(payload["energies"], dtype=float), v)
