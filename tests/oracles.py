"""Slow reference implementations that the tests check the package against."""

import functools
import itertools
import operator

import numpy as np

from evolat import lattice as lattice_module
from evolat.engine import AUDIT_TOL, TWO_PI
from evolat.lattice import (
    LLL_DELTA_DEFAULT,
    IterationCapError,
    TriangularLattice,
    round_half_away,
    triangularize,
)
from evolat.linalg import HermitianMatrix
from evolat.resonant import CouplingScheme, FockBlock, locality_table

BOX_MAX_DIM = 12


def integer_determinant(matrix) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [[int(x) for x in row] for row in np.asarray(matrix)]
    n = len(m)
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            pivot = next((r for r in range(col + 1, n) if m[r][col] != 0), None)
            if pivot is None:
                return 0
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                m[i][j] = (m[i][j] * m[col][col] - m[i][col] * m[col][j]) // prev
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def naive_round(lattice: TriangularLattice) -> np.ndarray:
    """Round the coefficients of the target in the given basis."""
    c = np.linalg.solve(lattice.r, lattice.target)
    return round_half_away(c).astype(np.int64)


def covering_radius_bound(lattice: TriangularLattice) -> float:
    """Every target is within this distance of the lattice (Babai guarantee)."""
    return 0.5 * float(np.sqrt(np.sum(lattice.star_sq)))


def babai_serial(lattice: TriangularLattice) -> np.ndarray:
    """Babai's nearest-plane walk for one target, one level at a time."""
    r, y = lattice.r, lattice.target
    c = np.zeros(lattice.dim, dtype=np.int64)
    for i in range(lattice.dim - 1, -1, -1):
        resid = y[i] - r[i, i + 1 :] @ c[i + 1 :]
        c[i] = int(round_half_away(resid / r[i, i]))
    return c


def greedy_serial(lattice: TriangularLattice, seed_coeffs) -> np.ndarray:
    """Greedy coordinate descent for one target, one move at a time, under
    the same cap as `greedy_descent`."""
    b = lattice.r
    c = np.array(seed_coeffs, dtype=np.int64).copy()
    norms_sq = np.sum(b * b, axis=0)
    resid = b @ c.astype(float) - lattice.target
    for _ in range(lattice_module.GREEDY_MAX_MOVES):
        g = 2.0 * (b.T @ resid)
        step = round_half_away(-g / (2.0 * norms_sq))
        gain = step * g + norms_sq * step * step
        i = int(np.argmin(gain))
        if not gain[i] < -1e-12 * max(1.0, float(resid @ resid)):
            return c
        c[i] += int(step[i])
        resid += step[i] * b[:, i]
    raise IterationCapError("greedy descent did not converge")


def bound_at(pipeline, t: float):
    """(C_bound(t), k) of a `ComplexityPipeline`, solved for this time
    alone with the serial solvers, and audited like a sweep."""
    lat = pipeline.lattice.with_target(pipeline.lattice.target * (t / TWO_PI))
    if pipeline.chain.base == "naive":
        coeffs = round_half_away(pipeline.energies * (t / TWO_PI)).astype(np.int64)
    else:
        coeffs = babai_serial(lat)
    if pipeline.chain.use_greedy:
        coeffs = greedy_serial(lat, coeffs)
    k = coeffs if pipeline.transform is None else pipeline.transform @ coeffs
    value = TWO_PI * lat.distance(coeffs)
    resid = pipeline.energies * t - TWO_PI * k.astype(float)
    audit = float(np.sqrt(resid @ pipeline.metric_matrix @ resid))
    if abs(value - audit) > AUDIT_TOL * max(1.0, value):
        raise ArithmeticError(f"distance {value!r} disagrees with quadratic form {audit!r}")
    return value, k


def box_cvp(lattice: TriangularLattice, radius: int):
    """Exhaustive search in the coefficient box of the given radius around
    the naive rounding point: (best coefficients, whether they lie on the
    box boundary, in which case a larger box may hold a closer point)."""
    d = lattice.dim
    if d > BOX_MAX_DIM:
        raise ValueError(f"box search limited to dimension {BOX_MAX_DIM}, got {d}")
    if radius < 1:
        raise ValueError("radius must be at least 1")
    center = naive_round(lattice)
    width = 2 * radius + 1
    total = width**d
    best_dist, best_offset = np.inf, None
    chunk = 1 << 17
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        offsets = np.stack(np.unravel_index(idx, (width,) * d), axis=1) - radius
        pts = (center + offsets) @ lattice.r.T
        dist = np.sum((pts - lattice.target) ** 2, axis=1)
        j = int(np.argmin(dist))
        if dist[j] < best_dist:
            best_dist, best_offset = float(dist[j]), offsets[j].copy()
    on_boundary = bool(np.any(np.abs(best_offset) == radius))
    return (center + best_offset).astype(np.int64), on_boundary


def widening_box_cvp(lattice: TriangularLattice, radius: int = 3) -> np.ndarray:
    """Box search, widened until its optimum leaves the box boundary."""
    while True:
        coeffs, on_boundary = box_cvp(lattice, radius)
        if not on_boundary:
            return coeffs
        radius += 2


def kstest_statistic(values, cdf) -> float:
    """The two-sided Kolmogorov-Smirnov statistic from scipy.stats.kstest."""
    from scipy import stats

    return float(stats.kstest(values, cdf).statistic)


# the reference re-orthogonalizes its Gram-Schmidt data every this many swaps
LLL_REFRESH_EVERY = 64


def _profile(r: np.ndarray):
    diag = np.diag(r)
    return diag**2, np.tril(r.T / diag, -1)


def lll_reference(lattice: TriangularLattice, delta: float = LLL_DELTA_DEFAULT):
    """The plain floating-point LLL, one level and one row at a time, with
    the transform in Python integers (object dtype, no overflow).  It keeps
    the Gram-Schmidt coefficients mu and squared lengths star_sq as tables,
    updates them after each swap, rebuilds them from a QR factorization every
    LLL_REFRESH_EVERY swaps, and triangularizes the basis once at the end.
    `lll_reduce_with_transform` makes the same decisions from r alone, so
    its U must agree exactly; its r and target agree up to roundoff."""
    d = lattice.dim
    b = np.array(lattice.r)
    star, mu = _profile(lattice.r)
    u = np.eye(d, dtype=object)
    swap_cap = 10 * d * d
    swaps = 0
    k = 1
    while k < d:
        for j in range(k - 1, -1, -1):
            r = int(round_half_away(mu[k, j]))
            if r != 0:
                b[:, k] -= r * b[:, j]
                u[:, k] -= r * u[:, j]
                mu[k, :j] -= r * mu[j, :j]
                mu[k, j] -= r
        if delta * star[k - 1] <= star[k] + mu[k, k - 1] ** 2 * star[k - 1]:
            k += 1
            continue
        swaps += 1
        if swaps > swap_cap:
            raise IterationCapError(f"LLL exceeded {swap_cap} swaps at dimension {d}")
        b[:, [k - 1, k]] = b[:, [k, k - 1]]
        u[:, [k - 1, k]] = u[:, [k, k - 1]]
        if swaps % LLL_REFRESH_EVERY == 0:
            star, mu = _profile(triangularize(b)[1])
        else:
            nu = mu[k, k - 1]
            big = star[k] + nu * nu * star[k - 1]
            mu_new = nu * star[k - 1] / big
            star[k] = star[k - 1] * star[k] / big
            star[k - 1] = big
            mu[k, k - 1] = mu_new
            mu[[k - 1, k], : k - 1] = mu[[k, k - 1], : k - 1]
            for i in range(k + 1, d):
                t = mu[i, k]
                mu[i, k] = mu[i, k - 1] - nu * t
                mu[i, k - 1] = t + mu_new * mu[i, k]
        k = max(k - 1, 1)
    frame, r = triangularize(b)
    return TriangularLattice(r, frame.T @ lattice.target), u


def build_block_hamiltonian_oracle(
    block: FockBlock, scheme: CouplingScheme
) -> HermitianMatrix:
    """Slow cross-check: apply the ladder-operator string term by term,
    summing over all ordered index quadruples."""
    m_lvl = block.total_level
    d = block.dim
    h = np.zeros((d, d))
    quads = [
        (n, s - n, k, s - k)
        for s in range(m_lvl + 1)
        for n in range(s + 1)
        for k in range(s + 1)
    ]
    for b_idx, occ in enumerate(block.states):
        for n, m, k, l in quads:
            work = list(occ)
            if work[l] == 0:
                continue
            f = np.sqrt(work[l])
            work[l] -= 1
            if work[k] == 0:
                continue
            f *= np.sqrt(work[k])
            work[k] -= 1
            f *= np.sqrt(work[m] + 1.0)
            work[m] += 1
            f *= np.sqrt(work[n] + 1.0)
            work[n] += 1
            c = scheme.quartic(n, m, k, l, m_lvl)
            h[block.state_index(work), b_idx] += 0.5 * c * f
    h += np.diag(scheme.diagonal_shift(block))
    return HermitianMatrix(h)


def resonant_locality(occ_a, occ_b) -> int:
    """Particles that must be moved to turn state a into state b."""
    a = np.asarray(occ_a, dtype=np.int64)
    b = np.asarray(occ_b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("occupation vectors must have equal length")
    return int(np.maximum(b - a, 0).sum())


def local_pairs(block: FockBlock, threshold: int) -> np.ndarray:
    """Ordered state pairs (a, b), one per local generator |a><b|."""
    a, b = np.nonzero(locality_table(block) <= threshold)
    return np.stack([a, b], axis=1)


def local_subsets(rep, threshold: int) -> list:
    """Index tuples of the monomials of weight 1 to threshold, in the order of
    MonomialClassifier's rows: by x mask (the XOR of the modes' masks), and
    within one mask by weight, then in itertools.combinations order."""
    subsets = [s for w in range(1, threshold + 1)
               for s in itertools.combinations(range(rep.n_modes), w)]
    return sorted(subsets, key=lambda s: functools.reduce(operator.xor, (int(rep.x[i]) for i in s)))


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def dense_majoranas(n_modes: int) -> list:
    """Jordan-Wigner Majoranas as Kronecker products of Pauli matrices,
    qubit 0 as the leftmost factor: psi_2p = Z..Z X I..I / sqrt(2) and
    psi_2p+1 = Z..Z Y I..I / sqrt(2)."""
    qubits = n_modes // 2
    psis = []
    for p in range(qubits):
        for letter in (_PAULI_X, _PAULI_Y):
            m = np.array([[1.0]], dtype=np.complex128)
            for q in range(qubits):
                if q < p:
                    factor = _PAULI_Z
                elif q == p:
                    factor = letter
                else:
                    factor = np.eye(2, dtype=np.complex128)
                m = np.kron(m, factor)
            psis.append(m / np.sqrt(2.0))
    return psis


def string_matrix(dim: int, x: int, z: int, coeff: complex) -> np.ndarray:
    """coeff X^x Z^z as a dense matrix, entry by entry:
    (X^x Z^z)|k> = (-1)^popcount(z & k) |k ^ x>."""
    m = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim):
        m[k ^ int(x), k] = coeff * (-1) ** bin(int(z) & k).count("1")
    return m


def dense_monomial(psis: list, indices: tuple) -> np.ndarray:
    """Normalized Hermitian monomial by dense products: Tr[T_a T_b] = delta_ab."""
    w = len(indices)
    dim = psis[0].shape[0]
    m = np.eye(dim, dtype=np.complex128)
    for i in indices:
        m = m @ psis[i]
    phase = 1.0j if (w * (w - 1) // 2) % 2 else 1.0
    return phase * 2.0 ** (0.5 * w) / np.sqrt(dim) * m


def dense_free_syk(psis: list, j2: np.ndarray) -> np.ndarray:
    n = len(psis)
    h = np.zeros_like(psis[0])
    for a, b in itertools.combinations(range(n), 2):
        h += (2.0j * j2[a, b]) * (psis[a] @ psis[b])
    return h


def dense_chaotic_syk(psis, j2, many_body, epsilon, body) -> np.ndarray:
    n = len(psis)
    h = dense_free_syk(psis, j2)
    for val, idx in zip(many_body, itertools.combinations(range(n), body)):
        m = np.eye(psis[0].shape[0], dtype=np.complex128)
        for i in idx:
            m = m @ psis[i]
        h += (epsilon * val * (1.0 if body == 4 else 1.0j)) * m
    return h


def dense_charges(psis: list, frame=None) -> list:
    """J3_p = 2i Psi_2p Psi_2p+1 with Psi_i = sum_j frame[j, i] psi_j."""
    n = len(psis)
    v = np.eye(n) if frame is None else frame
    rot = [sum(v[j, i] * psis[j] for j in range(n)) for i in range(n)]
    return [2.0j * (rot[2 * p] @ rot[2 * p + 1]) for p in range(n // 2)]


def dense_integrable_syk(psis, omegas, pair_couplings, epsilon, frame=None) -> np.ndarray:
    j3 = dense_charges(psis, frame)
    h = sum(w * c for w, c in zip(omegas, j3))
    for p, q in itertools.combinations(range(len(j3)), 2):
        h = h + (epsilon * pair_couplings[p, q]) * (j3[p] @ j3[q])
    return h
