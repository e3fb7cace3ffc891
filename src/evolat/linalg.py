"""Hermitian matrices, spectra, and atomic file writes.

Energy spectra are kept in a normalized convention (zero mean, unit sum of
squares) so that complexity values computed from different Hamiltonians are
directly comparable.
"""

from __future__ import annotations

import copy
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERMITICITY_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _float_dtype(a: np.ndarray):
    """complex128 for complex input, float64 for everything else."""
    return np.complex128 if np.iscomplexobj(a) else np.float64


def _hermiticity(m: np.ndarray) -> tuple:
    """max |m - m^dagger| and max(max |m|, 1) of a square float64 or
    complex128 m, through one temporary of m's size (plus the modulus's for
    complex m)."""
    work = np.empty_like(m)  # |m|, then m - m^dagger, then its modulus
    scale = max(np.abs(m, out=work.real).max(), 1.0)
    np.subtract(m, np.conjugate(m.T, out=work), out=work)
    dev = (np.abs(work) if np.iscomplexobj(work) else np.abs(work, out=work)).max()
    return dev, scale


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
