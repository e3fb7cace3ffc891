"""Lattices in triangular form and closest-vector solvers.

A lattice is an upper-triangular matrix R with positive diagonal, whose
columns are the basis vectors, held with a target in the same coordinates,
or with a (T, D) stack of targets that the solvers handle in one pass.
R carries the Gram-Schmidt profile: |b*_i| = R[i, i] and
mu[i, j] = R[j, i] / R[j, j].  A general basis B = frame @ R is brought to
this form by one QR factorization, which rotates its target by frame^T.
LLL keeps this form without another factorization: it updates R in place
by column operations and 2x2 reflections, and rotates the target along.

The solvers form a quality ladder: naive coefficient rounding, the Babai
nearest-plane walk, both optionally preceded by LLL reduction, a greedy
coordinate descent refinement, and exact Schnorr-Euchner enumeration.
Babai and greedy take one target or a stack; enumeration takes one.  A
SolverChain names a heuristic chain and is the one code that runs it.

Rounding convention: ties at half-integers round away from zero.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .linalg import PANEL_ROWS

LLL_DELTA_DEFAULT = 0.99
GREEDY_MAX_MOVES = 10_000
ENUM_MAX_NODES = 1_000_000
EXACT_MAX_DIM = 12  # the ladder's exact rung runs up to this dimension
RANK_TOL = 1e-10
INT64_MAX = int(np.iinfo(np.int64).max)


class IterationCapError(RuntimeError):
    """A solver exceeded its iteration budget."""


def round_half_away(x):
    """Nearest integer, halves away from zero: 1.5 -> 2, -1.5 -> -2."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _target(target, dim: int) -> np.ndarray:
    t = np.array(target, dtype=float)
    if t.ndim not in (1, 2) or t.shape[-1] != dim:
        raise ValueError(f"target shape {t.shape} does not match basis dimension {dim}")
    if not np.all(np.isfinite(t)):
        raise ValueError("target has a non-finite entry")
    t.flags.writeable = False
    return t


def triangularize(columns) -> tuple[np.ndarray, np.ndarray]:
    """(frame, r) with columns = frame @ r, frame orthogonal and r upper
    triangular with nonnegative diagonal: a sign-fixed QR factorization."""
    b = np.asarray(columns, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"basis must be square, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("basis has a non-finite entry")
    q, r = np.linalg.qr(b)
    flip = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q *= flip
    r *= flip[:, None]
    dev = np.abs(q @ r - b).max()
    if dev > 1e-9 * max(np.abs(b).max(), 1.0):
        raise ArithmeticError(f"QR reconstruction off by {dev:.3e}")
    return q, r


@dataclass(frozen=True)
class TriangularLattice:
    """The problem min |r @ k - target| over integer k: the lattice spanned
    by the columns of an upper-triangular r with positive diagonal, and a
    target in the same coordinates.  A target of shape (T, dim) poses T
    such problems on the same lattice, one per row.

    A float64 r is kept as it is, not copied, and made read-only."""

    r: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1] or r.size == 0:
            raise ValueError(f"basis must be square, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("basis has a non-finite entry")
        # below the diagonal, one panel of rows i:i+PANEL_ROWS at a time
        panels = range(0, r.shape[0], PANEL_ROWS)
        if any(np.tril(r[i : i + PANEL_ROWS], i - 1).any() for i in panels):
            raise ValueError("r must be upper triangular")
        diag = np.diag(r)
        if diag.min() <= RANK_TOL * np.abs(diag).max():
            raise ValueError(
                f"basis is numerically rank deficient or r is not sign-fixed: "
                f"diagonal spans [{diag.min():.3e}, {diag.max():.3e}]"
            )
        r.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "target", _target(self.target, r.shape[0]))

    @classmethod
    def from_columns(cls, columns, target) -> "TriangularLattice":
        """The lattice of a general square basis, target rotated along."""
        frame, r = triangularize(columns)
        # transposes are no-ops on one target and rotate each row of a stack
        return cls(r, (frame.T @ _target(target, r.shape[0]).T).T)

    def with_target(self, target) -> "TriangularLattice":
        """The same lattice with another target; r is not checked again."""
        out = copy.copy(self)
        object.__setattr__(out, "target", _target(target, self.dim))
        return out

    @property
    def dim(self) -> int:
        return self.r.shape[0]

    @property
    def columns(self) -> np.ndarray:
        """The basis vectors as columns, which is r itself."""
        return self.r

    @property
    def star_sq(self) -> np.ndarray:
        return np.diag(self.r) ** 2

    @property
    def mu(self) -> np.ndarray:
        """Strictly lower triangular: mu[i, j] = r[j, i] / r[j, j]."""
        return np.tril(self.r.T / np.diag(self.r), -1)

    def distance(self, coeffs: np.ndarray):
        """|r @ k - target|, a float for one target and one value per row
        for a stack.  Each row is its own matrix-vector product: a single
        matrix-matrix product sums in another order."""
        rows = np.atleast_2d(np.asarray(coeffs, dtype=float))
        dist = [float(np.linalg.norm(self.r @ c - t))
                for c, t in zip(rows, np.atleast_2d(self.target))]
        return dist[0] if self.target.ndim == 1 else np.array(dist)


def _shear_transform(u: np.ndarray, peak: list, k: int, j: int, r: int, swaps: int) -> None:
    """u[:, k] -= r * u[:, j] in int64.  peak[c] bounds max |u[:, c]| from
    above; when the bound on the result passes int64, both bounds are
    tightened to the true maxima, and a step that may still leave int64 is
    refused."""
    bound = peak[k] + abs(r) * peak[j]
    if bound > INT64_MAX:
        peak[j], peak[k] = (int(np.abs(u[:, c]).max()) for c in (j, k))
        bound = peak[k] + abs(r) * peak[j]
        if bound > INT64_MAX:
            raise ArithmeticError(
                f"LLL transform may leave int64 at dimension {u.shape[0]}: size "
                f"reduction of column {k} by {r} times column {j}, after {swaps} swaps"
            )
    u[:, k] -= r * u[:, j]
    peak[k] = bound


def lll_reduce_with_transform(lattice: TriangularLattice, delta: float = LLL_DELTA_DEFAULT):
    """LLL reduction returning (reduced lattice, integer transform U).

    The floating-point LLL of Schnorr and Euchner in the Householder/Givens
    form of H-LLL (Morel, Stehle and Villard), on the triangle r alone.
    Size reduction subtracts columns of r; a swap exchanges two columns and
    restores the triangle with one 2x2 reflection of the same two rows,
    which rotates the target along, so r is never re-orthogonalized.  The
    reduced basis is lattice.r @ U with U unimodular, held in int64; a
    size-reduction step that could carry an entry of U out of int64 raises
    ArithmeticError instead of wrapping.  The distance of any k under the
    reduced lattice is the distance of U @ k under the input.  Raises
    IterationCapError after 10 * dim**2 swaps.

    The result is the one-position-at-a-time loop's, bit for bit; only tests
    whose answer is known are skipped.  A column that took no step at its
    last level test is clean: a swap keeps its rows above k-1 and
    diag[:k-1], so it sinks untested (a stepped one may sit at +-1/2, which
    rounds to +-1 again).  When k climbs below the highest position it has
    reached, those positions are tested at once, Lovasz and levels, and k
    jumps to the first that fails or needs a step.  A position -> column
    list reaches U, so a swap moves two list entries, not two columns.
    """
    if not (0.25 < delta <= 1.0):
        raise ValueError(f"delta must lie in (1/4, 1], got {delta}")
    d = lattice.dim
    # the targets ride along as extra columns, so each reflection rotates
    # them too; column-major, as size reduction and swaps work on columns
    aug = np.asfortranarray(np.column_stack([lattice.r, lattice.target.T]))
    r = aug[:, :d]
    diag, sup = r.diagonal(), r.diagonal(1)  # views: they follow the swaps
    u = np.eye(d, dtype=np.int64, order="F")
    col = list(range(d))  # the column of u at each position
    peak = [1] * d  # per column of u
    swap_cap = 10 * d * d
    swaps = 0
    k = seen = 1
    clean = False
    while k < d:
        # size reduction, highest level first, visiting only the levels
        # whose coefficient rounds to a nonzero integer; floor(|mu| + 0.5)
        # is round_half_away's own magnitude, so the test agrees with it
        # (|mu| > 0.5 would not: the float just below 0.5 rounds to 1)
        top = 0 if clean else k
        clean = True
        while top:
            mu = r[:top, k] / diag[:top]
            mag = np.floor(np.abs(mu) + 0.5)
            levels = mag.nonzero()[0]
            if levels.size == 0:
                break
            j = int(levels[-1])
            m = int(math.copysign(mag[j], mu[j]))
            _shear_transform(u, peak, col[k], col[j], m, swaps)
            r[: j + 1, k] -= m * r[: j + 1, j]
            top, clean = j, False
        a, b, x = float(r[k - 1, k]), float(r[k, k]), float(diag[k - 1])
        if delta * x * x <= a * a + b * b:
            k, clean = k + 1, False
            if k < seen:
                # the scalar tests of positions k..seen-1, element for
                # element; floor(y) >= 1 exactly when y >= 1
                dg, up = diag[k - 1 : seen - 1], sup[k - 1 : seen - 1]
                fails = (delta * dg * dg > up * up + diag[k:seen] ** 2).nonzero()[0]
                f = k + int(fails[0]) if fails.size else seen
                steps = np.abs(r[:f, k:f] / diag[:f, None]) + 0.5 >= 1.0
                steps &= np.arange(f)[:, None] < np.arange(k, f)  # levels below each
                steps = steps.any(axis=0).nonzero()[0]
                k = k + int(steps[0]) if steps.size else f
            seen = max(seen, k)
            continue
        swaps += 1
        if swaps > swap_cap:
            raise IterationCapError(
                f"LLL exceeded {swap_cap} swaps at dimension {d} (delta={delta}); "
                "basis may be pathological"
            )
        # swap positions k-1 and k (numpy copies an overlapping source first);
        # in r only the rows above k-1, as the reflection sets rows k-1 and k
        pair = r[: k - 1, k - 1 : k + 1]
        pair[...] = pair[:, ::-1]
        col[k - 1], col[k] = col[k], col[k - 1]
        # the reflection [[c, s], [s, -c]] of rows k-1 and k takes the
        # swapped columns (a, b) and (x, 0) to (rho, 0) and (c x, s x)
        rho = math.hypot(a, b)
        c, s = a / rho, b / rho
        rows = aug[k - 1 : k + 1, k + 1 :]
        rows[...] = np.array([[c, s], [s, -c]]) @ rows
        r[k - 1, k - 1], r[k - 1, k], r[k, k - 1], r[k, k] = rho, c * x, 0.0, s * x
        # the column now at k-1 stays clean; at k = 1 the other one is at 1
        clean = clean and k > 1
        k = max(k - 1, 1)
    target = aug[:, d:].T.reshape(lattice.target.shape)
    return TriangularLattice(np.ascontiguousarray(r), target), np.asfortranarray(u[:, col])


def babai_nearest_plane(lattice: TriangularLattice) -> np.ndarray:
    """Babai's nearest-plane walk, one rounding per level of r, each level
    taken for all targets at once.

    The returned point is within (1/2) * sqrt(sum star_sq) of its target.
    """
    r, y = lattice.r, lattice.target
    c = np.zeros(y.shape)
    for i in range(lattice.dim - 1, -1, -1):
        resid = y[..., i] - c[..., i + 1 :] @ r[i, i + 1 :]
        c[..., i] = round_half_away(resid / r[i, i])
    return c.astype(np.int64)


def greedy_descent(lattice: TriangularLattice, seed_coeffs: np.ndarray) -> np.ndarray:
    """Coordinate descent from a seed lattice point, per target.

    Each move shifts one coefficient by the integer minimizing the distance
    along that basis direction, taking the best direction available; a
    target stops when no single-direction move improves it.  All targets
    move in lockstep rounds, each still improving target making one move per
    round; errs when a target is still improving after GREEDY_MAX_MOVES.
    """
    b = lattice.r
    c = np.atleast_2d(np.array(seed_coeffs, dtype=np.int64))
    norms_sq = np.sum(b * b, axis=0)
    resid = c.astype(float) @ b.T - np.atleast_2d(lattice.target)
    rows = np.arange(c.shape[0])
    for _ in range(GREEDY_MAX_MOVES):
        res = resid[rows]
        g = 2.0 * (res @ b)
        step = round_half_away(-g / (2.0 * norms_sq))
        gain = step * g + norms_sq * step * step
        i = np.argmin(gain, axis=1)
        best = np.arange(rows.size), i
        # strict decrease required, guards against half-integer tie cycling
        moves = gain[best] < -1e-12 * np.maximum(1.0, np.sum(res * res, axis=1))
        if not moves.any():
            return c.reshape(np.shape(seed_coeffs))
        rows, i, s = rows[moves], i[moves], step[best][moves]
        c[rows, i] += s.astype(np.int64)
        resid[rows] += s[:, None] * b[:, i].T
    raise IterationCapError(f"greedy descent did not converge in {GREEDY_MAX_MOVES} moves")


def enumerate_cvp(lattice: TriangularLattice) -> np.ndarray:
    """Exact closest vector by Schnorr-Euchner enumeration.

    Depth first from the last level of r.  At each level the integers are
    tried in zig-zag order around the projected center, so their partial
    distances never decrease and a level is left at its first candidate
    that is not closer than the best point so far.  That bound starts at
    Babai's distance and shrinks with each better leaf.  Raises
    IterationCapError after ENUM_MAX_NODES nodes.
    """
    d = lattice.dim
    r, y = lattice.r.tolist(), lattice.target.tolist()
    best = babai_nearest_plane(lattice)
    best_sq = lattice.distance(best) ** 2
    k, center, step = [0] * d, [0.0] * d, [0] * d
    partial = [0.0] * (d + 1)  # partial[i]: squared distance of levels i..d-1

    def enter(i):
        c = (y[i] - sum(r[i][j] * k[j] for j in range(i + 1, d))) / r[i][i]
        center[i] = c
        k[i] = int(round_half_away(c))
        step[i] = 1 if c >= k[i] else -1

    i = d - 1
    enter(i)
    for _ in range(ENUM_MAX_NODES):
        diff = (k[i] - center[i]) * r[i][i]
        dist = partial[i + 1] + diff * diff
        if dist < best_sq and i > 0:
            partial[i] = dist
            i -= 1
            enter(i)
            continue
        if dist < best_sq:
            best, best_sq = np.array(k, dtype=np.int64), dist
        # this level's later candidates are no closer: back up one level
        i += 1
        if i == d:
            return best
        k[i] += step[i]
        step[i] = -step[i] - (1 if step[i] > 0 else -1)
    raise IterationCapError(
        f"enumeration exceeded {ENUM_MAX_NODES} nodes at dimension {d}"
    )


def plateau_estimate(lattice: TriangularLattice) -> float:
    """Expected distance to the lattice for a generic far target.

    Treats the residual in each Gram-Schmidt direction as uniform over a cell,
    giving sqrt(sum star_sq / 12) on average, times 2*pi when the caller works
    in the angle convention; here the bare pi/sqrt(3) * sqrt(sum star_sq) form
    is returned, matching targets measured in angle units.
    """
    return float(np.pi / np.sqrt(3.0) * np.sqrt(np.sum(lattice.star_sq)))


DEFAULT_CHAIN = "lll+babai+greedy"
# the heuristic rungs of the cvp ladder, cheapest to strongest
LADDER = ("naive", "babai", "lll+babai", "lll+babai+greedy")


@dataclass(frozen=True)
class SolverChain:
    """Which solvers to run, e.g. "lll+babai+greedy" or "naive"; reduce and
    solve run them."""

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

    def reduce(self, lattice: TriangularLattice):
        """(lattice to solve on, U or None): LLL's output for a chain with
        lll, where a solution k maps back to U @ k, and the input otherwise."""
        return lll_reduce_with_transform(lattice) if self.use_lll else (lattice, None)

    def solve(self, lattice: TriangularLattice) -> np.ndarray:
        """int64 coefficients in lattice's own basis, for its target or each
        row of its stack: naive rounding of r^-1 @ target or Babai, then
        greedy descent when the chain asks for it."""
        if self.base == "naive":
            unrounded = np.linalg.solve(lattice.r, lattice.target.T).T
            # C order: distance's per-row products depend on the strides
            coeffs = round_half_away(unrounded).astype(np.int64, order="C")
        else:
            coeffs = babai_nearest_plane(lattice)
        return greedy_descent(lattice, coeffs) if self.use_greedy else coeffs


@dataclass(frozen=True)
class LadderEntry:
    method: str
    coeffs: np.ndarray
    distance: float
    seconds: float


def method_ladder(lattice: TriangularLattice):
    """Run the solver ladder on one instance, cheapest to strongest: each
    LADDER chain and, up to EXACT_MAX_DIM, the exact optimum, enumerated on
    the LLL basis where the search tree is smallest.  LLL runs once, and
    each rung's seconds cover its whole chain, that reduction included."""
    start = perf_counter()
    reduced, u = lll_reduce_with_transform(lattice)
    lll_seconds = perf_counter() - start
    results = []
    for name in LADDER + (("exact",) if lattice.dim <= EXACT_MAX_DIM else ()):
        chain = None if name == "exact" else SolverChain.parse(name)
        on_lll = chain is None or chain.use_lll
        solve = enumerate_cvp if chain is None else chain.solve
        start = perf_counter()
        coeffs = u @ solve(reduced) if on_lll else solve(lattice)
        seconds = perf_counter() - start + (lll_seconds if on_lll else 0.0)
        results.append(LadderEntry(name, coeffs, lattice.distance(coeffs), seconds))
    return results
