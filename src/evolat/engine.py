"""Evolution-complexity bounds from closest-lattice-vector optimization.

For a Hamiltonian with normalized energies E_n, the distance (in a
right-invariant metric with locality penalty mu) from the identity to the
time evolution operator at time t is bounded by minimizing

    C(t)^2 = (E t - 2 pi k)^T [ I + (mu - 1) Q ] (E t - 2 pi k)

over integer vectors k.  Q is built from a locality classifier and measures
how much of each energy eigenprojector is invisible to local probes; mu = 1
collapses everything to independent angle windings (the bi-invariant case).
With the Cholesky factor G = R^T R of the bracketed metric, this is the
closest-vector problem min |R k - R E t / 2 pi| on the triangular lattice R,
handled by the solvers in `lattice`.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np

from .lattice import DEFAULT_CHAIN, SolverChain, TriangularLattice, round_half_away
from . import linalg
from .linalg import HermitianMatrix, Spectrum, numpy_blas_kernel

TWO_PI = 2.0 * np.pi
Q_EIGENVALUE_TOL = 1e-9
AUDIT_TOL = 1e-8
# the special-unitary restriction's nu, per unit of mu
SU_NU_FACTOR = 1e3
# rows of every block of local diagonals but the last: dsyrk's cost per row
# levels off from 256 rows up (2 cores, dim = 5604: 573 us a row at 32 rows,
# 296-461 us from 256 up)
Q_BLOCK_ROWS = 256


class LocalityClassifier(Protocol):
    """Yields the diagonals, in the energy eigenbasis, of an orthonormal set
    of Hermitian local operators T_alpha.

    local_diagonals returns an iterable of real 2-D blocks of shape
    (rows, dim); over all blocks, each row is <n|T_alpha|n> over eigenstates
    n for one T_alpha.  Blocks are built on demand, so the whole
    (n_local, dim) array never exists; each holds Q_BLOCK_ROWS rows, the
    last one excepted."""

    def local_diagonals(self, spectrum: Spectrum) -> Iterable[np.ndarray]: ...


# resolved once; None falls back to numpy's z.T @ z
_I32, _I64, _F64, _PTR = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_DSYRK = numpy_blas_kernel(
    "scipy_cblas_dsyrk64_", None, _I32, _I32, _I32, _I64, _I64, _F64, _PTR, _I64, _F64, _PTR, _I64
)


@dataclass(frozen=True)
class NonlocalityMatrix:
    """Q_nm = delta_nm - sum over an orthonormal set of Hermitian local T of
    <n|T|n><m|T|m>.  Checked at construction: finite, real symmetric, and
    with its eigvalsh eigenvalues in [0, 1].  A null eigenvector is a
    conserved quantity built from local operators."""

    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.entries)
        if np.iscomplexobj(m):  # a cast to float would drop the imaginary part
            raise ValueError(f"Q is real, got {m.dtype} entries")
        m = HermitianMatrix(m).entries
        evals = np.linalg.eigvalsh(m)
        if evals[0] < -Q_EIGENVALUE_TOL or evals[-1] > 1.0 + Q_EIGENVALUE_TOL:
            raise ArithmeticError(
                f"eigenvalues [{evals[0]:.3e}, {evals[-1]:.3e}] outside [0, 1]; "
                "local operator set is probably not orthonormal"
            )
        evals.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "eigenvalues", evals)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def null_residual(self, energies: np.ndarray) -> float:
        """Max entry of Q @ E; vanishes when the generating Hamiltonian is
        itself local at the classifier's threshold."""
        return float(np.abs(self.entries @ np.asarray(energies, float)).max())


def nonlocality_matrix(spectrum: Spectrum, classifier: LocalityClassifier) -> NonlocalityMatrix:
    """Build Q from a spectrum and a locality classifier.

    Q = I - sum_alpha z_alpha z_alpha^T is accumulated one block of rows at a
    time, each block subtracted straight into Q's upper triangle by one
    dsyrk, so memory stays at Q plus one block.  The triangle is mirrored
    once at the end, one panel of rows at a time, so Q is exactly symmetric.
    Without the dsyrk each block is numpy's exactly symmetric z.T @ z.
    """
    d = spectrum.dim
    q = np.eye(d)
    for z in classifier.local_diagonals(spectrum):
        z = np.asarray(z)
        if np.iscomplexobj(z) or z.ndim != 2 or z.shape[1] != d:
            raise ValueError(
                f"classifier yielded a {z.dtype} block of shape {z.shape} for dim {d}; "
                "expected real 2-D blocks of width dim"
            )
        z = np.ascontiguousarray(z, dtype=np.float64)
        if _DSYRK is None:
            q -= z.T @ z
        else:  # row-major (101), upper (121), transposed (112): q = -z^T z + q
            _DSYRK(101, 121, 112, d, z.shape[0], -1.0, z.ctypes.data, d, 1.0, q.ctypes.data, d)
        del z  # release the block before the next one is built
    for r in range(0, d, linalg.PANEL_ROWS):  # the lower triangle from the upper
        s = min(r + linalg.PANEL_ROWS, d)
        np.copyto(q[r:s, :s], q[:s, r:s].T, where=np.tri(s - r, s, r - 1, dtype=bool))
    return NonlocalityMatrix(q)


@dataclass(frozen=True)
class ComplexityMetric:
    """Penalty structure of the complexity functional.

    mu >= 1 is the cost ratio of nonlocal to local directions; nu > 0 adds
    nu times the all-ones matrix, an ungauged penalty on sum(k) that pins
    the minimizer to traceless (special-unitary) windings.
    """

    mu: float = 1.0
    nu: float = 0.0
    q: NonlocalityMatrix | None = None

    def __post_init__(self):
        if self.mu < 1.0:
            raise ValueError(f"mu must be >= 1, got {self.mu}")
        if self.nu < 0.0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if self.mu != 1.0 and self.q is None:
            raise ValueError("mu > 1 requires a nonlocality matrix")

    def matrix(self, dim: int) -> np.ndarray:
        """I + (mu - 1) Q + nu 11^T, built in one buffer."""
        if self.q is None:
            g = np.eye(dim)
        else:
            if self.q.dim != dim:
                raise ValueError(f"metric dimension {self.q.dim} != spectrum dimension {dim}")
            g = np.multiply(self.mu - 1.0, self.q.entries)
            g.flat[:: dim + 1] += 1.0
        if self.nu > 0.0:
            g += self.nu
        return g


def complexity_ceiling(mu: float, dim: int) -> float:
    """No optimized bound exceeds pi * sqrt(mu * dim)."""
    return float(np.pi * np.sqrt(mu * dim))


def bi_invariant_complexity(energies: np.ndarray, t):
    """Complexity in the unpenalized metric: each phase wound to its nearest
    multiple of 2 pi.  Vectorized over an array of times."""
    e = np.asarray(energies, dtype=float)
    ts = np.asarray(t, dtype=float)
    phase = np.multiply.outer(ts, e)
    resid = phase - TWO_PI * round_half_away(phase / TWO_PI)
    return np.sqrt(np.sum(resid * resid, axis=-1))


@dataclass(frozen=True)
class ComplexityTrace:
    """C_bound sampled on a strictly increasing time grid, with the integer
    winding vector k that attains each value, one row per time."""

    times: np.ndarray
    values: np.ndarray
    method: str
    minimizers: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if ts.shape != vs.shape or ts.ndim != 1:
            raise ValueError("times and values must be matching vectors")
        if ts.size > 1 and np.any(np.diff(ts) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(vs < 0):
            raise ValueError("complexity values cannot be negative")
        for a in (ts, vs):
            a.flags.writeable = False
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", vs)


@dataclass(frozen=True)
class PlateauStats:
    mean: float
    variance: float
    count: int


class ComplexityPipeline:
    """Caches the lattice a solver chain works on, reduced by LLL when the
    chain asks for it, for one (energies, G, chain) combination, so that a
    time sweep only pays for the solve.

    g is the metric matrix G of a ComplexityMetric (its matrix(dim)), or
    None for the identity; the pipeline keeps G as it is, so a caller that
    hands it over alone has let Q go before the Cholesky.  The lattice
    holds the Cholesky factor itself, not a copy."""

    def __init__(
        self,
        energies: np.ndarray,
        g: np.ndarray | None = None,
        chain: str | SolverChain = DEFAULT_CHAIN,
    ):
        self.energies = np.asarray(energies, dtype=float).copy()
        self.chain = chain if isinstance(chain, SolverChain) else SolverChain.parse(chain)
        self.dim = self.energies.size
        self.metric_matrix = np.eye(self.dim) if g is None else g
        if np.shape(self.metric_matrix) != (self.dim, self.dim):
            raise ValueError(f"metric matrix of shape {np.shape(g)} for dimension {self.dim}")
        try:
            r = np.linalg.cholesky(self.metric_matrix).T
        except np.linalg.LinAlgError:
            raise ArithmeticError("metric is not positive definite") from None
        # the lattice the chain solves on, with its target at t = 2 pi
        self.lattice, self.transform = self.chain.reduce(TriangularLattice(r, r @ self.energies))

    def sweep(self, times: Sequence[float]) -> ComplexityTrace:
        """C_bound and its minimizer at every time, all times solved at once;
        each value is audited against the quadratic form of its k."""
        ts = np.asarray(times, dtype=float)
        if ts.ndim != 1 or (ts.size > 1 and np.any(np.diff(ts) <= 0)):
            raise ValueError("times must be strictly increasing")
        lat = self.lattice.with_target(np.multiply.outer(ts / TWO_PI, self.lattice.target))
        coeffs = self.chain.solve(lat)
        ks = coeffs if self.transform is None else coeffs @ self.transform.T
        values = TWO_PI * lat.distance(coeffs)
        resid = np.multiply.outer(ts, self.energies) - TWO_PI * ks
        audit = np.sqrt(np.sum((resid @ self.metric_matrix) * resid, axis=1))
        off = np.abs(values - audit) > AUDIT_TOL * np.maximum(1.0, values)
        if off.any():
            i = int(np.argmax(off))
            raise ArithmeticError(
                f"solver distance {values[i]:.12e} at t = {ts[i]!r} disagrees with "
                f"quadratic form {audit[i]:.12e}"
            )
        return ComplexityTrace(ts, values, self.chain.label(), ks)


def bi_invariant_trace(energies: np.ndarray, times: Sequence[float]) -> ComplexityTrace:
    ts = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    ks = round_half_away(np.multiply.outer(ts, e) / TWO_PI).astype(np.int64)
    values = bi_invariant_complexity(e, ts)
    return ComplexityTrace(ts, values, "biinvariant", ks)


def plateau_window(times: np.ndarray, window: tuple) -> np.ndarray:
    """Indices of the times inside a plateau window (t_start, t_end).
    Requires at least 10 samples."""
    if len(window) != 2:
        raise ValueError("window must be (t_start, t_end)")
    t0, t1 = window
    if not (times[0] <= t0 < t1 <= times[-1]):
        raise ValueError(f"window [{t0}, {t1}] outside trace range [{times[0]}, {times[-1]}]")
    idx = np.flatnonzero((times >= t0) & (times <= t1))
    if idx.size < 10:
        raise ValueError(f"window holds {idx.size} samples, need at least 10")
    return idx


def plateau_stats(trace: ComplexityTrace, window: tuple) -> PlateauStats:
    """Mean and unbiased variance of a trace inside a plateau_window."""
    vs = trace.values[plateau_window(trace.times, window)]
    return PlateauStats(float(vs.mean()), float(vs.var(ddof=1)), int(vs.size))


@dataclass(frozen=True)
class ConservationLaws:
    """Null directions of Q and the operators they define."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # columns are Q-eigenvectors
    operators: list = field(default_factory=list)


def local_conservation_laws(
    q: NonlocalityMatrix, spectrum: Spectrum, tol: float = 1e-8
) -> ConservationLaws:
    """Q-eigenvectors below tol, lifted to operators commuting with H.

    Each vector v becomes V diag(v) V^dagger in the computational basis; by
    construction it commutes with the Hamiltonian reconstructed from the
    spectrum, and its nonlocal component is bounded by sqrt(tol).
    """
    w, v = np.linalg.eigh(q.entries)
    sel = w < tol
    vecs = v[:, sel]
    ops = []
    h = (spectrum.vectors * spectrum.energies) @ spectrum.vectors.conj().T
    for i in range(vecs.shape[1]):
        op = (spectrum.vectors * vecs[:, i]) @ spectrum.vectors.conj().T
        comm = np.abs(h @ op - op @ h).max()
        if comm > 1e-8:
            raise ArithmeticError(f"conserved candidate fails to commute: {comm:.3e}")
        ops.append(op)
    return ConservationLaws(w[sel], vecs, ops)
