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
Babai and greedy take one target or a stack, LLL and enumeration one.  A
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
HALF_BELOW = math.nextafter(0.5, 0.0)  # x + 0.5 >= 1 exactly when x >= this
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
        # below the diagonal, one panel of rows i:i+PANEL_ROWS at a time,
        # read through a boolean mask of the panel's lower part, not copied
        d = r.shape[0]
        if any(np.any(r[i : i + PANEL_ROWS], where=np.tri(min(PANEL_ROWS, d - i), d, i - 1, bool))
               for i in range(0, d, PANEL_ROWS)):
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
        """The lattice of a general square basis, its one target rotated along."""
        frame, r = triangularize(columns)
        t = _target(target, r.shape[0])
        if t.ndim != 1:
            raise ValueError(f"from_columns rotates one target, got a stack of shape {t.shape}")
        return cls(r, frame.T @ t)

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
    IterationCapError after 10 * dim**2 swaps, and ValueError on a stack of
    targets.

    The result is the one-position-at-a-time loop's, bit for bit; only tests
    whose answer is known are skipped.  A position -> column list reaches the
    columns of r and U, so a swap moves list entries, not columns, and the
    diagonal is kept by position.  r is row-major: a reflection is one BLAS
    product of two whole rows, whose columns left of the pair are zeros and
    stay zeros.  Each column has a mark: its rows above the mark took no step
    when last tested and have not changed since, so size reduction and the
    re-tests start there.  A column that took no step keeps its rows above
    k-1 through a swap and stays clean, so its whole run of swaps is decided
    from its own entries and the diagonal before the run's reflections are
    applied in order.  When k climbs below the highest position it has
    reached, those positions are tested at once, Lovasz and levels, and k
    jumps to the first that fails or needs a step.
    """
    if not (0.25 < delta <= 1.0):
        raise ValueError(f"delta must lie in (1/4, 1], got {delta}")
    if lattice.target.ndim != 1:
        raise ValueError(f"LLL carries one target, got a stack of shape {lattice.target.shape}")
    d = lattice.dim
    # the target rides along as a last column, so each reflection rotates it too
    aug = np.column_stack((lattice.r, lattice.target))
    u, col = _lll_in_place(aug, d, delta)
    # take on the whole of aug copies r's columns once and row-major
    reduced = TriangularLattice(np.take(aug, col, axis=1), aug[:, d])
    return reduced, np.asfortranarray(u[:, col])


def _lll_in_place(aug: np.ndarray, d: int, delta: float):
    """lll_reduce_with_transform's loop on the row-major [r | target], in
    place; returns (U, col), col[p] being the column of r and U at position
    p.  Its temporaries die on return, before the caller's D x D copies."""
    r = aug[:, :d]
    buf = np.empty((2, aug.shape[1]))
    diag = r.diagonal().copy()  # by position
    mark = np.zeros(d, dtype=np.intp)  # by column
    u = np.eye(d, dtype=np.int64, order="F")
    col = np.arange(d)  # the column of r and u at each position
    pos = np.arange(d)
    peak = [1] * d  # per column of u
    swap_cap = 10 * d * d
    swaps = 0
    k = seen = 1
    while k < d:
        c = int(col[k])
        # size reduction, highest level first, visiting only the levels
        # whose coefficient rounds to a nonzero integer: |mu| + 0.5 rounds
        # to 1 or more exactly when |mu| >= HALF_BELOW, the float just below
        # 1/2, so the test agrees with round_half_away
        lo, top = int(mark[c]), k
        while lo < top:
            mu = r[lo:top, c] / diag[lo:top]
            levels = (np.abs(mu) >= HALF_BELOW).nonzero()[0]
            if levels.size == 0:
                break
            i = int(levels[-1])
            j, cj, mi = lo + i, int(col[lo + i]), float(mu[i])
            m = int(math.copysign(math.floor(abs(mi) + 0.5), mi))
            _shear_transform(u, peak, c, cj, m, swaps)
            r[: j + 1, c] -= m * r[: j + 1, cj]
            lo, top = 0, j
        # a stepped level may sit at +-1/2, which rounds to +-1 again
        mark[c] = top
        a, b, x = float(r[k - 1, c]), float(diag[k]), float(diag[k - 1])
        if delta * x * x <= a * a + b * b:
            k += 1
            if k < seen:
                # the scalar tests of positions k..seen-1, element for element
                cols = col[k:seen]
                dg, up = diag[k - 1 : seen - 1], r[pos[k - 1 : seen - 1], cols]
                fails = (delta * dg * dg > up * up + diag[k:seen] ** 2).nonzero()[0]
                f = k + int(fails[0]) if fails.size else seen
                if f > k:
                    # below each diagonal r is 0, on it |mu| is 1
                    cols = cols[: f - k]
                    lo = int(mark[cols].min())
                    steps = r[lo:f, cols]
                    np.abs(steps, out=steps)
                    steps /= diag[lo:f, None]
                    steps = steps >= HALF_BELOW
                    steps[pos[k - lo : f - lo], pos[: f - k]] = False
                    steps = steps.any(axis=0).nonzero()[0]
                    n = int(steps[0]) if steps.size else f - k
                    mark[cols[:n]] = pos[k : k + n]
                    k += n
            seen = max(seen, k)
            continue
        # the column sinks, and while it took no step it keeps sinking
        # until Lovasz holds or it reaches position 0
        clean, hi, run = mark[c] == k, k, []
        while True:
            swaps += 1
            if swaps > swap_cap:
                raise IterationCapError(
                    f"LLL exceeded {swap_cap} swaps at dimension {d} (delta={delta}); "
                    "basis may be pathological"
                )
            rho = math.hypot(a, b)
            cs, sn = a / rho, b / rho
            run.append(((cs, sn), (sn, -cs)))
            k -= 1
            if not clean or k == 0:
                break
            a, b, x = float(r[k - 1, c]), rho, float(diag[k - 1])
            if delta * x * x <= a * a + b * b:
                break
        # the reflection [[cs, sn], [sn, -cs]] of rows p-1 and p takes the
        # swapped columns (a, b) and (x, 0) to (rho, 0) and (cs x, sn x)
        run = np.array(run)
        diag[k + 1 : hi + 1] = run[::-1, 0, 1] * diag[k:hi]
        diag[k] = rho
        for p, h in zip(range(hi, k, -1), run):
            rows = aug[p - 1 : p + 1]
            # numpy's matrix-vector product rounds otherwise than its
            # matrix product: the target, the one column beyond p, keeps it
            narrow = h @ rows[:, d:] if p == d - 1 else None
            np.dot(h, rows, out=buf)
            rows[...] = buf
            if narrow is not None:
                rows[:, d:] = narrow
        r[k, c] = rho
        r[k + 1 : hi + 1, c] = 0.0
        col[k + 1 : hi + 1] = col[k:hi]
        col[k] = c
        np.minimum(mark, k, out=mark)  # rows k..hi changed
        k = max(k, 1)
    return u, col


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


def _column_norms_sq(b: np.ndarray) -> np.ndarray:
    """|b_j|^2 of every column, a panel of PANEL_ROWS columns at a time, so
    no temporary has b's size; in either memory order each column is summed
    as np.sum(b * b, axis=0) sums it, bit for bit."""
    return np.concatenate([np.sum(np.square(b[:, j : j + PANEL_ROWS]), axis=0)
                           for j in range(0, b.shape[1], PANEL_ROWS)])


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
    norms_sq = _column_norms_sq(b)
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
