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
    complex128 m, PANEL_ROWS rows at a time, so no temporary is larger than
    a panel.  Refuses a non-finite m before it subtracts, as NaN would pass
    any tolerance."""
    panels = range(0, m.shape[0], PANEL_ROWS)
    scale = np.max([1.0] + [np.abs(m[r : r + PANEL_ROWS]).max() for r in panels])  # NaN stays NaN
    if not np.isfinite(scale):
        raise ValueError(f"matrix has a non-finite entry: max |H| = {scale}")
    return np.max([_panel_deviation(m, r) for r in panels]), scale


def _panel_deviation(m: np.ndarray, r: int) -> float:
    """max |m - m^dagger| over rows r:r+PANEL_ROWS, through one panel (plus
    the modulus's for complex m)."""
    work = m[:, r : r + PANEL_ROWS].T.copy()  # a ufunc would buffer the strided read
    np.subtract(m[r : r + PANEL_ROWS], np.conjugate(work, out=work), out=work)
    return (np.abs(work) if np.iscomplexobj(work) else np.abs(work, out=work)).max()


@dataclass(frozen=True)
class HermitianMatrix:
    """Square matrix with finite entries and H = H^dagger enforced at
    construction.

    Real input is kept as float64 (a real symmetric matrix), complex input
    as complex128, so a real Hamiltonian is diagonalized in real arithmetic.
    A float64 or complex128 array is kept as it is handed, not copied, and
    made read-only.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries)
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
    given real and complex128 when given complex.  blocks[j] labels the
    block of basis state j when the matrix is a direct sum of exactly
    decoupled blocks; then every eigenvector is exactly zero off its own
    block.  None, the default, is one block (every label 0).
    """

    energies: np.ndarray
    vectors: np.ndarray
    blocks: np.ndarray | None = None

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        v = np.asarray(self.vectors)
        v = v.astype(_float_dtype(v), copy=False)
        lab = np.zeros(e.size, np.intp) if self.blocks is None else np.array(self.blocks, np.intp)
        if e.ndim != 1:
            raise ValueError("energies must be a vector")
        if v.shape != (e.size, e.size):
            raise ValueError(f"vectors shape {v.shape} does not match {e.size} energies")
        if lab.shape != e.shape:
            raise ValueError(f"{lab.size} block labels for {e.size} energies")
        if np.any(np.diff(e) < 0):
            raise ValueError("energies must be sorted ascending")
        if lab.any():
            _refuse_off_blocks(v, lab)
        dev = max(_gram_deviation(v, r) for r in range(0, e.size, PANEL_ROWS))
        if dev > ORTHONORMALITY_TOL:
            raise ValueError(f"eigenvector columns not orthonormal: deviation {dev:.3e}")
        object.__setattr__(self, "energies", _read_only(e))
        object.__setattr__(self, "vectors", _read_only(v))
        object.__setattr__(self, "blocks", _read_only(lab))

    @property
    def dim(self) -> int:
        return self.energies.size


def _gram_deviation(v: np.ndarray, r: int) -> float:
    """max |V^dagger V - I| over rows r:r+PANEL_ROWS."""
    g = v[:, r : r + PANEL_ROWS].conj().T @ v
    g.reshape(-1)[r :: v.shape[0] + 1] -= 1.0  # the identity's entries in these rows
    return np.abs(g).max()


def _refuse_off_blocks(v: np.ndarray, lab: np.ndarray) -> None:
    """Refuse a V whose columns are not each exactly zero off one block of
    the labels lab; each column's block is that of its largest entry.  With
    V orthonormal this also gives each block as many eigenvectors as states."""
    panels = range(0, lab.size, PANEL_ROWS)
    cols = lab[np.concatenate([np.abs(v[:, c : c + PANEL_ROWS]).argmax(axis=0) for c in panels])]
    if any(np.any(v[r : r + PANEL_ROWS], where=lab[r : r + PANEL_ROWS, None] != cols)
           for r in panels):
        raise ValueError("eigenvector columns are not zero off their blocks")


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


def _block_labels(h: np.ndarray) -> np.ndarray:
    """The block of each basis state: the connected components of H's
    nonzero pattern, numbered from 0 in the order of their first state.
    Found breadth first, so each row of H is read once, PANEL_ROWS rows at
    a time.  A row that reaches a state of an earlier block means the
    pattern is not symmetric; H is then one block (every label 0)."""
    d = h.shape[0]
    lab = np.full(d, -1)
    count = 0
    for first in range(d):
        if lab[first] >= 0:
            continue
        lab[first], front = count, np.array([first])
        while front.size:
            reached = np.zeros(d, dtype=bool)
            for i in range(0, front.size, PANEL_ROWS):
                reached |= np.any(h[front[i : i + PANEL_ROWS]], axis=0)
            if np.any(reached & (lab >= 0) & (lab < count)):
                return np.zeros(d, np.intp)
            front = np.flatnonzero(reached & (lab < 0))
            lab[front] = count
        count += 1
    return lab


def _checked_eigh(kernel, h: np.ndarray) -> tuple:
    """(energies, vectors, max |V diag(e) V^dagger - H|, max |H|) of h, by
    LAPACK, or by np.linalg.eigh when kernel is None; the check runs over
    row panels."""
    e, v = np.linalg.eigh(h) if kernel is None else _lapack_eigh(kernel, h)
    panels = [_reconstruction_deviation(h, v, e, r) for r in range(0, h.shape[0], PANEL_ROWS)]
    return (e, v, *np.max(panels, axis=0))


def eigendecompose(matrix: HermitianMatrix) -> Spectrum:
    """Full eigendecomposition, ascending eigenvalues; real eigenvectors for a
    real matrix.

    A connected H goes through one LAPACK call on H itself: beyond the
    input it holds at most 3 dim^2 entries (a copy and LAPACK's
    workspace), and the checks work in row panels.  An H that is a direct
    sum of exactly decoupled blocks (the components of its nonzero
    pattern, as for a Hamiltonian that conserves fermion parity) is
    diagonalized block by block: V is exactly zero off the blocks, the
    energies are merged by a stable sort, and the spectrum carries the
    block labels.  Each block is checked on its own against the largest
    entry of the whole H, as V diag(e) V^dagger and H are both zero off
    the blocks."""
    h = matrix.entries
    kernel = _ZHEEVD if np.iscomplexobj(h) else _DSYEVD
    lab = _block_labels(h)
    if not lab.any():
        e, v, dev, scale = _checked_eigh(kernel, h)
        spec = Spectrum(e, v)
    else:
        blocks = [np.flatnonzero(lab == b) for b in range(lab.max() + 1)]
        parts = [_checked_eigh(kernel, h[np.ix_(rows, rows)]) for rows in blocks]
        dev, scale = np.max([part[2:] for part in parts], axis=0)
        e = np.concatenate([part[0] for part in parts])
        order = np.argsort(e, kind="stable")
        column = np.empty_like(order)
        column[order] = np.arange(order.size)  # where each block's eigenvectors go in V
        v = np.zeros(h.shape, parts[0][1].dtype)
        for rows, cols in zip(blocks, np.split(column, np.cumsum([b.size for b in blocks[:-1]]))):
            v[np.ix_(rows, cols)] = parts.pop(0)[1]  # each block's vectors freed once placed
        spec = Spectrum(e[order], v, lab)
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
