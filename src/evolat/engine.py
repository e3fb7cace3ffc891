"""Evolution-complexity bounds from closest-lattice-vector optimization.

For a Hamiltonian with normalized energies E_n, the distance (in a
right-invariant metric with locality penalty mu) from the identity to the
time evolution operator at time t is bounded by minimizing

    C(t)^2 = (E t - 2 pi k)^T [ I + (mu - 1) Q ] (E t - 2 pi k)

over integer vectors k.  Q is built from a locality classifier and measures
how much of each energy eigenprojector is invisible to local probes; mu = 1
collapses everything to independent angle windings (the bi-invariant case).
The minimization is a closest-vector problem on the lattice generated by the
columns of the metric square root, handled by the solvers in `lattice`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np
from scipy.linalg.blas import dsyrk

from .lattice import (
    LLL_DELTA_DEFAULT,
    CvpInstance,
    GramSchmidtData,
    LatticeBasis,
    babai_nearest_plane,
    gram_schmidt,
    greedy_descent,
    lll_reduce,
    lll_reduce_with_transform,
    round_half_away,
)
from .linalg import Spectrum

TWO_PI = 2.0 * np.pi
Q_EIGENVALUE_TOL = 1e-9
AUDIT_TOL = 1e-8
IMAG_TOL = 1e-8
# working-set budget for one block of local diagonals while it is built
Q_BLOCK_BYTES = 32 * 2**20


class LocalityClassifier(Protocol):
    """Yields the diagonals, in the energy eigenbasis, of an orthonormal set
    of Hermitian local operators T_alpha.

    local_diagonals returns an iterable of real 2-D blocks of shape
    (rows, dim); over all blocks, each row is <n|T_alpha|n> over eigenstates
    n for one T_alpha.  Blocks are built on demand, so the whole
    (n_local, dim) array never exists; block_rows sizes them to
    Q_BLOCK_BYTES."""

    def local_diagonals(self, spectrum: Spectrum) -> Iterable[np.ndarray]: ...


def block_rows(dim: int, bytes_per_entry: int) -> int:
    """Rows of a diagonal block of width dim whose working set, at
    bytes_per_entry bytes per entry, fits in Q_BLOCK_BYTES."""
    return max(1, Q_BLOCK_BYTES // (bytes_per_entry * dim))


def real_block(z: np.ndarray) -> np.ndarray:
    """The real part of a block of diagonals of Hermitian operators, after
    checking that its imaginary part is roundoff."""
    if not np.iscomplexobj(z):
        return z
    imag = float(np.abs(z.imag).max()) if z.size else 0.0
    if imag > IMAG_TOL:
        raise ArithmeticError(
            f"local operator diagonals have imaginary part {imag:.3e}; "
            "the local operators are not Hermitian"
        )
    return np.ascontiguousarray(z.real)


@dataclass(frozen=True)
class NonlocalityMatrix:
    """Q_nm = delta_nm - sum over an orthonormal set of Hermitian local T of
    <n|T|n><m|T|m>.  Real symmetric, eigenvalues in [0, 1]; a null
    eigenvector is a conserved quantity built from local operators."""

    entries: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("expected a square matrix")
        dev = np.abs(m - m.T).max()
        if dev > 1e-12 * max(1.0, np.abs(m).max()):
            raise ValueError(f"matrix not symmetric, deviation {dev:.3e}")
        for a in (m, np.asarray(self.eigenvalues, dtype=float)):
            a.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def null_residual(self, energies: np.ndarray) -> float:
        """Max entry of Q @ E; vanishes when the generating Hamiltonian is
        itself local at the classifier's threshold."""
        return float(np.abs(self.entries @ np.asarray(energies, float)).max())


def nonlocality_matrix(spectrum: Spectrum, classifier: LocalityClassifier) -> NonlocalityMatrix:
    """Build Q from a spectrum and a locality classifier.

    The Gram matrix sum_alpha z_alpha z_alpha^T is accumulated one block of
    rows at a time, so memory stays at a few dim x dim arrays plus one block.
    """
    d = spectrum.dim
    gram = np.zeros((d, d), order="F")  # upper triangle filled by dsyrk
    for z in classifier.local_diagonals(spectrum):
        z = real_block(np.asarray(z))
        if z.ndim != 2 or z.shape[1] != d:
            raise ValueError(
                f"classifier yielded a block of shape {z.shape} for dim {d}; "
                "expected 2-D blocks of width dim"
            )
        if z.shape[0]:
            # z.T is Fortran-ordered, so BLAS reads the block without a copy
            gram = dsyrk(1.0, z.T.astype(np.float64, copy=False), beta=1.0, c=gram,
                         overwrite_c=1)
        del z  # release the block before the next one is built
    q = np.triu(gram)
    del gram
    q += np.triu(q, 1).T  # mirror: Q is exactly symmetric
    q *= -1.0
    q.flat[:: d + 1] += 1.0  # q = I - gram, in place
    evals = np.linalg.eigvalsh(q)
    if evals[0] < -Q_EIGENVALUE_TOL or evals[-1] > 1.0 + Q_EIGENVALUE_TOL:
        raise ArithmeticError(
            f"eigenvalues [{evals[0]:.3e}, {evals[-1]:.3e}] outside [0, 1]; "
            "local operator set is probably not orthonormal"
        )
    return NonlocalityMatrix(q, evals)


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
        g = np.eye(dim)
        if self.q is not None:
            if self.q.dim != dim:
                raise ValueError(f"metric dimension {self.q.dim} != spectrum dimension {dim}")
            g = g + (self.mu - 1.0) * self.q.entries
        if self.nu > 0.0:
            g = g + self.nu * np.ones((dim, dim))
        return g


def su_metric(q: NonlocalityMatrix, mu: float, nu_factor: float = 1e3) -> ComplexityMetric:
    """Metric with the special-unitary restriction, nu = nu_factor * mu."""
    return ComplexityMetric(mu=mu, nu=nu_factor * mu, q=q)


def embedding_map(metric: ComplexityMetric, dim: int) -> np.ndarray:
    """Square root factor W of the metric, G = W^T W, via eigendecomposition."""
    g = metric.matrix(dim)
    w, u = np.linalg.eigh(g)
    if w[0] <= 0.0:
        raise ArithmeticError(f"metric not positive definite, smallest eigenvalue {w[0]:.3e}")
    return np.sqrt(w)[:, None] * u.T


def embed_cvp(metric: ComplexityMetric, energies: np.ndarray, t: float) -> CvpInstance:
    """The closest-vector instance whose minimum distance times 2 pi is C(t)."""
    e = np.asarray(energies, dtype=float)
    vt = embedding_map(metric, e.size)
    return CvpInstance(LatticeBasis(vt), vt @ e * (t / TWO_PI))


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
class SolverChain:
    """Which solvers to run, e.g. "lll+babai+greedy" or "naive"."""

    use_lll: bool
    base: str
    use_greedy: bool

    @classmethod
    def parse(cls, text: str) -> "SolverChain":
        parts = text.lower().split("+")
        use_lll = "lll" in parts
        use_greedy = "greedy" in parts
        base = [p for p in parts if p in ("naive", "babai")]
        extra = [p for p in parts if p not in ("lll", "greedy", "naive", "babai")]
        if len(base) != 1 or extra:
            raise ValueError(f"cannot parse solver chain {text!r}")
        if use_lll and base[0] == "naive":
            raise ValueError("naive rounding ignores the basis, lll+naive is meaningless")
        return cls(use_lll, base[0], use_greedy)

    def label(self) -> str:
        parts = (["lll"] if self.use_lll else []) + [self.base]
        if self.use_greedy:
            parts.append("greedy")
        return "+".join(parts)


DEFAULT_CHAIN = "lll+babai+greedy"


@dataclass(frozen=True)
class ComplexityTrace:
    """C_bound sampled on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    method: str
    minimizers: np.ndarray | None = None

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
    window: tuple
    mean: float
    variance: float
    count: int


class ComplexityPipeline:
    """Caches the embedding, LLL reduction, and Gram-Schmidt data for one
    (energies, metric, chain) combination so that time sweeps only pay for
    the per-time solve."""

    def __init__(
        self,
        energies: np.ndarray,
        metric: ComplexityMetric | None = None,
        chain: str | SolverChain = DEFAULT_CHAIN,
        delta: float = LLL_DELTA_DEFAULT,
    ):
        self.energies = np.asarray(energies, dtype=float).copy()
        self.metric = metric if metric is not None else ComplexityMetric()
        self.chain = chain if isinstance(chain, SolverChain) else SolverChain.parse(chain)
        self.dim = self.energies.size
        self.delta = delta
        self.metric_matrix = self.metric.matrix(self.dim)
        vt = embedding_map(self.metric, self.dim)
        self.basis = LatticeBasis(vt)
        self._embedded_energies = vt @ self.energies
        if self.chain.use_lll:
            reduced, transform = lll_reduce_with_transform(self.basis, delta)
            self._solve_basis = reduced
            self._transform = transform.astype(np.int64)
        else:
            self._solve_basis = self.basis
            self._transform = None
        self._gs: GramSchmidtData | None = None
        if self.chain.base == "babai":
            self._gs = gram_schmidt(self._solve_basis)

    def reduced_gram_schmidt(self) -> GramSchmidtData:
        """Gram-Schmidt data of the LLL-reduced embedding basis; a chain with
        LLL already holds it, any other chain reduces the basis here."""
        if self.chain.use_lll:
            return self._gs
        return gram_schmidt(lll_reduce(self.basis, self.delta))

    def bound_at(self, t: float):
        """(C_bound(t), integer minimizer in the original winding coordinates)."""
        target = self._embedded_energies * (t / TWO_PI)
        if self.chain.base == "naive":
            coeffs = round_half_away(self.energies * (t / TWO_PI)).astype(np.int64)
        else:
            instance = CvpInstance(self._solve_basis, target)
            coeffs = babai_nearest_plane(instance, self._gs)
        if self.chain.use_greedy:
            instance = CvpInstance(self._solve_basis, target)
            coeffs = greedy_descent(instance, coeffs)
        k = coeffs if self._transform is None else self._transform @ coeffs
        dist = np.linalg.norm(self._solve_basis.columns @ coeffs.astype(float) - target)
        value = TWO_PI * float(dist)
        resid = self.energies * t - TWO_PI * k.astype(float)
        audit = float(np.sqrt(resid @ self.metric_matrix @ resid))
        if abs(value - audit) > AUDIT_TOL * max(1.0, value):
            raise ArithmeticError(
                f"solver distance {value:.12e} disagrees with quadratic form {audit:.12e}"
            )
        return value, k

    def sweep(self, times: Sequence[float], threads: int = 1) -> ComplexityTrace:
        ts = np.asarray(times, dtype=float)
        if ts.ndim != 1 or (ts.size > 1 and np.any(np.diff(ts) <= 0)):
            raise ValueError("times must be strictly increasing")
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(self.bound_at, ts))
        else:
            results = [self.bound_at(t) for t in ts]
        values = np.array([v for v, _ in results])
        ks = np.array([k for _, k in results], dtype=np.int64)
        return ComplexityTrace(ts, values, self.chain.label(), ks)


def complexity_bound_at(
    energies: np.ndarray,
    t: float,
    metric: ComplexityMetric | None = None,
    chain: str = DEFAULT_CHAIN,
):
    return ComplexityPipeline(energies, metric, chain).bound_at(t)


def sweep(
    energies: np.ndarray,
    times: Sequence[float],
    metric: ComplexityMetric | None = None,
    chain: str = DEFAULT_CHAIN,
    threads: int = 1,
    delta: float = LLL_DELTA_DEFAULT,
) -> ComplexityTrace:
    return ComplexityPipeline(energies, metric, chain, delta).sweep(times, threads)


def bi_invariant_trace(energies: np.ndarray, times: Sequence[float]) -> ComplexityTrace:
    ts = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    ks = round_half_away(np.multiply.outer(ts, e) / TWO_PI).astype(np.int64)
    values = bi_invariant_complexity(e, ts)
    return ComplexityTrace(ts, values, "biinvariant", ks)


def plateau_stats(trace: ComplexityTrace, window: tuple) -> PlateauStats:
    """Mean and unbiased variance of a trace inside a time window.

    window is (t_start, t_end) or (t_start, t_end, stride); a stride keeps
    only samples at least that far apart.  Requires at least 10 samples.
    """
    if len(window) == 2:
        t0, t1, stride = window[0], window[1], None
    elif len(window) == 3:
        t0, t1, stride = window
    else:
        raise ValueError("window must be (t_start, t_end[, stride])")
    if not (trace.times[0] <= t0 < t1 <= trace.times[-1]):
        raise ValueError(
            f"window [{t0}, {t1}] outside trace range "
            f"[{trace.times[0]}, {trace.times[-1]}]"
        )
    mask = (trace.times >= t0) & (trace.times <= t1)
    ts = trace.times[mask]
    vs = trace.values[mask]
    if stride is not None:
        keep = []
        last = -np.inf
        for i, t in enumerate(ts):
            if t >= last + stride - 1e-9:
                keep.append(i)
                last = t
        vs = vs[keep]
    if vs.size < 10:
        raise ValueError(f"window holds {vs.size} samples, need at least 10")
    return PlateauStats(tuple(window), float(vs.mean()), float(vs.var(ddof=1)), int(vs.size))


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
