"""Slow reference implementations that the tests check the package against."""

import numpy as np

from evolat.lattice import TriangularLattice, naive_round
from evolat.linalg import HermitianMatrix
from evolat.resonant import CouplingScheme, FockBlock

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
