import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evolat import engine, lattice, linalg, resonant
from evolat.lattice import (
    INT64_MAX,
    LADDER,
    IterationCapError,
    SolverChain,
    TriangularLattice,
    babai_nearest_plane,
    enumerate_cvp,
    greedy_descent,
    lll_reduce_with_transform,
    method_ladder,
    plateau_estimate,
    round_half_away,
    triangularize,
)
from oracles import (
    BOX_MAX_DIM,
    babai_serial,
    box_cvp,
    covering_radius_bound,
    greedy_serial,
    integer_determinant,
    lll_reference,
    lll_stepwise,
    naive_round,
    widening_box_cvp,
)


def random_lattice(rng, d, scale=1.0):
    """A Gaussian basis and a target near, but not on, one of its points."""
    b = rng.standard_normal((d, d)) * scale
    return b, TriangularLattice.from_columns(b, b @ rng.uniform(-4.0, 4.0, size=d))


def test_round_half_away_ties():
    x = np.array([0.5, -0.5, 1.5, 2.5, -2.5, 0.49, -0.49, 3.0])
    assert np.array_equal(round_half_away(x), [1.0, -1.0, 2.0, 3.0, -3.0, 0.0, 0.0, 3.0])


def test_basis_rejects_singular():
    with pytest.raises(ValueError, match="rank deficient"):
        TriangularLattice.from_columns(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="rank deficient"):
        TriangularLattice(np.diag([1.0, 1e-12]), np.zeros(2))


def test_basis_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        TriangularLattice.from_columns(np.ones((3, 2)), np.zeros(3))
    with pytest.raises(ValueError, match="square"):
        TriangularLattice(np.ones((3, 2)), np.zeros(3))


def test_gram_schmidt_oracle():
    # columns (2,0) and (3,1): star lengths 2 and 1, mu_21 = 3/2
    lat = TriangularLattice.from_columns(np.array([[2.0, 3.0], [0.0, 1.0]]), np.zeros(2))
    assert np.allclose(lat.star_sq, [4.0, 1.0])
    assert abs(lat.mu[1, 0] - 1.5) < 1e-12
    assert lat.mu[0, 1] == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_gram_schmidt_reconstructs(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 12))
    b = rng.standard_normal((d, d))
    frame, r = triangularize(b)
    assert np.abs(frame @ r - b).max() < 1e-9
    assert np.abs(frame.T @ frame - np.eye(d)).max() < 1e-10
    assert np.array_equal(r, np.triu(r)) and np.all(np.diag(r) > 0.0)
    # the target rotates with the frame, so distances are those of the basis
    target = rng.uniform(-5.0, 5.0, size=d)
    lat = TriangularLattice.from_columns(b, target)
    for _ in range(5):
        k = rng.integers(-3, 4, size=d)
        assert abs(lat.distance(k) - np.linalg.norm(b @ k - target)) < 1e-9


def test_lll_two_dim_oracle():
    lat = TriangularLattice.from_columns(np.array([[2.0, 3.0], [0.0, 1.0]]), np.zeros(2))
    reduced, u = lll_reduce_with_transform(lat, 0.75)
    assert np.allclose(np.sort(np.linalg.norm(reduced.r, axis=0)), [np.sqrt(2.0)] * 2)
    assert integer_determinant(u) in (1, -1)
    bu = lat.r @ u.astype(float)
    assert np.abs(bu.T @ bu - reduced.r.T @ reduced.r).max() < 1e-12


def test_lll_identity_is_fixed_point():
    lat = TriangularLattice(np.eye(5), np.arange(5.0))
    reduced, u = lll_reduce_with_transform(lat)
    assert np.array_equal(reduced.r, np.eye(5))
    assert np.array_equal(reduced.target, np.arange(5.0))
    assert np.array_equal(np.asarray(u, dtype=np.int64), np.eye(5, dtype=np.int64))


@pytest.mark.parametrize("seed", range(12))
def test_lll_contract_random(seed):
    """Size reduction, Lovasz at the working delta, exact unimodularity, and
    a reduced lattice whose points and target are those of the input."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 24))
    scale = 10.0 ** rng.integers(0, 3)
    cols = rng.standard_normal((d, d)) * scale
    if seed % 3 == 0:
        cols = np.round(cols * 10.0)  # integer-like bases too
        if abs(np.linalg.det(cols)) < 1e-6:
            cols = cols + np.eye(d)
    lat = TriangularLattice.from_columns(cols, cols @ rng.uniform(-3.0, 3.0, size=d))
    delta = 0.99
    reduced, u = lll_reduce_with_transform(lat, delta)
    for k in range(1, d):
        assert np.abs(reduced.mu[k, :k]).max() <= 0.5 + 1e-9
        lhs = delta * reduced.star_sq[k - 1]
        rhs = reduced.star_sq[k] + reduced.mu[k, k - 1] ** 2 * reduced.star_sq[k - 1]
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12
    assert integer_determinant(u) in (1, -1)
    bu = cols @ u.astype(float)
    gram = bu.T @ bu
    assert np.abs(gram - reduced.r.T @ reduced.r).max() < 1e-9 * np.abs(gram).max()
    for _ in range(5):
        k = rng.integers(-2, 3, size=d)
        assert abs(reduced.distance(k) - lat.distance(u.astype(np.int64) @ k)) < 1e-6 * scale


LLL_REFERENCE_RTOL = 1e-12


def assert_matches_reference(lat, delta=0.99):
    """The reduction makes the one-level-at-a-time oracle's decisions: the
    same U exactly, and r and target within LLL_REFERENCE_RTOL of the
    largest entry (the reflections round otherwise than the oracle's mu
    updates and QR)."""
    reduced, u = assert_matches_stepwise(lat, delta)
    ref, ref_u = lll_reference(lat, delta)
    assert u.dtype == np.int64 and u.tolist() == ref_u.tolist()
    for got, want in ((reduced.r, ref.r), (reduced.target, ref.target)):
        scale = max(np.abs(want).max(), np.finfo(float).tiny)
        assert np.abs(got - want).max() <= LLL_REFERENCE_RTOL * scale
    return u


def assert_matches_stepwise(lat, delta=0.99):
    """The reduction skips only tests whose answer it knows: U, r and the
    target equal those of the one-position-at-a-time loop, bit for bit."""
    reduced, u = lll_reduce_with_transform(lat, delta)
    want, want_u = lll_stepwise(lat, delta)
    assert u.dtype == np.int64 and u.flags.f_contiguous and np.array_equal(u, want_u)
    assert np.array_equal(reduced.r, want.r)
    assert np.array_equal(reduced.target, want.target)
    return reduced, u


def resonant_lattice(n=12):
    """The Cholesky lattice of the truncated (n,n) block, threshold 4,
    mu = D (77 at n = 12)."""
    block = resonant.enumerate_block(n, n)
    h = resonant.build_block_hamiltonian(block, resonant.CouplingScheme("truncated"))
    spec = linalg.normalize_spectrum(linalg.eigendecompose(h))
    q = engine.nonlocality_matrix(spec, resonant.ResonantClassifier(block, 4))
    metric = engine.ComplexityMetric(mu=float(spec.dim), q=q)
    pipe = engine.ComplexityPipeline(spec.energies, metric, chain="babai")
    assert pipe.lattice.dim == {12: 77, 14: 135}[n]
    return pipe.lattice


def test_lll_matches_reference_on_resonant_block():
    assert_matches_reference(resonant_lattice())


@pytest.mark.parametrize("n", [12, 14])
def test_lll_is_stepwise_on_resonant_blocks(n):
    """The resonant lattices sink columns in long cascades and climb back
    through positions already tested; a stack of targets rides along."""
    lat = resonant_lattice(n)
    targets = np.random.default_rng(n).uniform(-50.0, 50.0, size=(3, lat.dim))
    assert_matches_stepwise(lat.with_target(targets))


@st.composite
def small_integer_lattices(draw):
    """D = 2-10, entries in -3..3.  Half the draws are upper triangular with
    a diagonal of 1 or 2, so coefficients r / diag land on exact halves; the
    rest are general bases, triangularized."""
    d = draw(st.integers(2, 10))
    m = np.array(draw(st.lists(st.integers(-3, 3), min_size=d * d, max_size=d * d)),
                 dtype=float).reshape(d, d)
    target = np.array(draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d))) / 2.0
    if draw(st.booleans()):
        diag = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=d, max_size=d))
        return TriangularLattice(np.triu(m, 1) + np.diag(diag), target)
    assume(abs(np.linalg.det(m)) > 0.5)
    return TriangularLattice.from_columns(m, target)


@settings(max_examples=300, deadline=None)
@given(lat=small_integer_lattices(), delta=st.sampled_from([0.75, 0.99]))
def test_lll_is_stepwise_on_small_integer_bases(lat, delta):
    """Ties at 1/2 are common here.  lll_reference is left out: it breaks
    ties that rounding creates after a swap otherwise (see
    test_lll_steps_a_half_coefficient_at_every_level_it_sinks)."""
    assert_matches_stepwise(lat, delta)


def test_lll_steps_a_half_coefficient_at_every_level_it_sinks():
    """Column 4 is stepped at level 0 to mu = -1/2 and sinks to position 0.
    At each of positions 3, 2 and 1 its level test rounds that half to a
    step again, so a column that took a step is tested after its swap (an
    even number of such steps would cancel).  The last swap leaves
    mu = 4/10 * 125/100 = 1/2 exactly: r rounds it to a step,
    lll_reference's mu update to 0.4999..., so their U differ."""
    r = np.diag([2.0, 2.0, 2.0, 2.0, 0.5])
    r[0, 4] = 1.0
    lat = TriangularLattice(r, [0.3, -0.2, 0.1, 0.4, -0.6])
    u = assert_matches_stepwise(lat)[1]
    assert u.tolist() == [[1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1],
                          [-2, -1, 0, 0, 0]]
    assert lll_reference(lat)[1][:, 1].tolist() == [0, 0, 0, 0, 1]


@pytest.mark.parametrize("r", [
    # the climb from position 2 stops at 3, whose Lovasz test fails while
    # its column needs no step
    [[3, 0, 0, -3], [0, 3, 0, 2], [0, 0, 3, 1], [0, 0, 0, 2]],
    # the climb from position 2 stops at 3, whose column needs a step at
    # level 2, the one just below it
    [[3, 3, -2, -2, 1], [0, 1, 3, -1, 3], [0, 0, 3, -3, -1], [0, 0, 0, 3, 1], [0, 0, 0, 0, 2]],
    # a swap at position 1 brings the other column there, to be tested
    [[3, 1], [0, 1]],
], ids=["climb-to-lovasz", "climb-to-step", "swap-at-1"])
def test_lll_skips_only_what_the_loop_would_find_empty(r):
    lat = TriangularLattice(np.array(r, dtype=float), [0.5, -1.5, 0.25, 1.0, -0.5][: len(r)])
    assert_matches_stepwise(lat)


def test_lll_runs_no_qr(monkeypatch):
    """LLL updates r in place: no QR factorization during or after it."""
    lat = resonant_lattice()

    def refuse(columns):
        raise AssertionError("LLL called triangularize")

    monkeypatch.setattr(lattice, "triangularize", refuse)
    reduced, u = lll_reduce_with_transform(lat)
    assert reduced.dim == 77 and not np.array_equal(u, np.eye(77))


def test_lll_matches_reference_on_random_bases():
    """60 bases, D 2-40: Gaussian, integer-valued, and rescaled by 10^-2 or 10^2."""
    rng = np.random.default_rng(1982)
    for i in range(60):
        d = int(rng.integers(2, 41))
        cols = rng.standard_normal((d, d))
        if i % 3 == 1:
            cols = np.round(cols * 10.0) + np.eye(d) * 20.0
        elif i % 3 == 2:
            cols *= 10.0 ** rng.choice([-2, 2])
        lat = TriangularLattice.from_columns(cols, cols @ rng.uniform(-3.0, 3.0, size=d))
        assert_matches_reference(lat, delta=0.75 if i % 4 == 0 else 0.99)


@pytest.mark.parametrize("coeff", [0.5, -0.5, np.nextafter(0.5, 0.0), -np.nextafter(0.5, 0.0)])
def test_lll_rounds_half_coefficients_like_reference(coeff):
    """A coefficient of +-1/2, or the float just below 1/2, still rounds to
    +-1 under round_half_away (|mu| + 0.5 rounds up to 1), so it is reduced;
    a test |mu| > 1/2 would skip the second case."""
    assert round_half_away(coeff) == np.sign(coeff)
    lat = TriangularLattice(np.array([[1.0, coeff], [0.0, 1.0]]), [0.3, 0.2])
    u = assert_matches_reference(lat)
    assert u.tolist() == [[1, -int(np.sign(coeff))], [0, 1]]
    # the same coefficient at level 0 of a row whose level 1 is reduced first
    r = np.array([[1.0, 0.0, coeff], [0.0, 3.0, 4.5], [0.0, 0.0, 2.5]])
    u = assert_matches_reference(TriangularLattice(r, [0.1, -0.4, 0.7]))
    assert not np.array_equal(u, np.eye(3))


def test_lll_transform_near_int64_limit():
    """A coefficient of 1e17 reduces with the oracle's U; one of 1e19
    would put -1e19 into U, outside int64, and is refused."""
    lat = TriangularLattice(np.array([[1.0, 1e17], [0.0, 1.0]]), np.zeros(2))
    u = assert_matches_reference(lat)
    assert u.tolist() == [[1, -10**17], [0, 1]]
    lat = TriangularLattice(np.array([[1.0, 1e19], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ArithmeticError, match="int64 at dimension 2"):
        lll_reduce_with_transform(lat)


def test_shear_transform_tightens_loose_bounds():
    """Column bounds that overestimate are tightened to the true maxima
    before a step is refused; a step refused on the true maxima leaves U
    as it was."""
    u = np.array([[1, 0, 0], [0, 1, 0], [2**62, 0, 1]], dtype=np.int64)
    peak = [2**62, 2**62, 2**62]  # the bounds of columns 1 and 2 are loose
    lattice._shear_transform(u, peak, 2, 1, 3, swaps=5)
    assert u[:, 2].tolist() == [0, -3, 1] and peak == [2**62, 1, 4]
    with pytest.raises(ArithmeticError, match="column 1 by -2 times column 0, after 7 swaps"):
        lattice._shear_transform(u, peak, 1, 0, -2, swaps=7)
    assert u[:, 1].tolist() == [0, 1, 0]
    assert INT64_MAX == 2**63 - 1


def test_lll_never_grows_star_profile_sum():
    # swaps cannot raise the sum of squared star lengths, so babai's
    # certificate only improves under reduction
    rng = np.random.default_rng(99)
    for _ in range(20):
        d = int(rng.integers(2, 10))
        lat = TriangularLattice.from_columns(rng.standard_normal((d, d)), np.zeros(d))
        reduced = lll_reduce_with_transform(lat)[0]
        assert reduced.star_sq.sum() <= lat.star_sq.sum() * (1.0 + 1e-9)


def test_integer_determinant_exact():
    assert integer_determinant(np.array([[2, 0], [0, 3]])) == 6
    assert integer_determinant(np.eye(4, dtype=np.int64)) == 1
    # product of unimodular shears stays det 1 even with huge entries where
    # float determinants drift
    m = np.array([[1, 10 ** 12], [0, 1]], dtype=object) @ np.array(
        [[1, 0], [10 ** 12, 1]], dtype=object
    )
    assert integer_determinant(m) == 1


@pytest.mark.parametrize("seed", range(5))
def test_integer_determinant_matches_float(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(-9, 10, size=(6, 6))
    assert integer_determinant(m) == round(np.linalg.det(m.astype(float)))


def ladder_rung(lat, method):
    return next(e.coeffs for e in method_ladder(lat) if e.method == method)


def test_naive_round_orthogonal_is_exact():
    lat = TriangularLattice(2.0 * np.pi * np.eye(2), np.array([3.0, 7.0]))
    assert np.array_equal(ladder_rung(lat, "naive"), [0, 1])


def test_naive_round_skewed_misses_optimum():
    lat = TriangularLattice(np.array([[1.0, 0.9], [0.0, 0.1]]), np.array([0.5, 0.05]))
    naive = ladder_rung(lat, "naive")
    exact = enumerate_cvp(lat)
    assert np.array_equal(naive, [0, 1])
    assert np.array_equal(exact, [-2, 3])
    assert lat.distance(exact) < lat.distance(naive)


def test_babai_orthogonal_exact():
    lat = TriangularLattice(2.0 * np.pi * np.eye(3), np.array([3.0, 7.0, -8.0]))
    assert np.array_equal(babai_nearest_plane(lat), [0, 1, -1])


def test_babai_recovers_perturbed_lattice_point():
    rng = np.random.default_rng(7)
    lat = TriangularLattice(np.diag([2.0, 3.0, 5.0]), np.zeros(3))
    for _ in range(10):
        k = rng.integers(-4, 5, size=3)
        target = lat.r @ k + rng.uniform(-0.4, 0.4, size=3)
        assert np.array_equal(babai_nearest_plane(lat.with_target(target)), k)


@pytest.mark.parametrize("seed", range(10))
def test_babai_covering_bound(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    lat = TriangularLattice.from_columns(rng.standard_normal((d, d)), np.zeros(d))
    bound = covering_radius_bound(lat)
    for _ in range(5):
        inst = lat.with_target(rng.uniform(-10.0, 10.0, size=d))
        assert inst.distance(babai_nearest_plane(inst)) <= bound + 1e-9


def test_greedy_keeps_optimum():
    lat = TriangularLattice(2.0 * np.pi * np.eye(2), np.array([3.0, 7.0]))
    assert np.array_equal(greedy_descent(lat, np.array([0, 1])), [0, 1])


def test_greedy_from_origin_reaches_rounding():
    lat = TriangularLattice(2.0 * np.pi * np.eye(2), np.array([3.0, 7.0]))
    assert np.array_equal(greedy_descent(lat, np.zeros(2, dtype=np.int64)), [0, 1])


@pytest.mark.parametrize("seed", range(10))
def test_greedy_improves_and_terminates_stationary(seed):
    rng = np.random.default_rng(seed)
    _, lat = random_lattice(rng, 6)
    seed_c = naive_round(lat)
    final = greedy_descent(lat, seed_c)
    assert lat.distance(final) <= lat.distance(seed_c) + 1e-12
    # stationarity: the per-direction optimal integer step is zero everywhere
    b = lat.r
    g = 2.0 * b.T @ (b @ final - lat.target)
    steps = round_half_away(-g / (2.0 * (b * b).sum(axis=0)))
    assert np.array_equal(steps, np.zeros(6))


def test_stacked_targets_solve_like_single_ones():
    """A (T, D) stack gives each row the answer the serial walk and descent
    give that row alone."""
    rng = np.random.default_rng(12)
    _, lat = random_lattice(rng, 9)
    stacked = lat.with_target(rng.uniform(-6.0, 6.0, size=(7, 9)) @ lat.r.T
                              + rng.uniform(-0.5, 0.5, size=(7, 9)))
    babai = babai_nearest_plane(stacked)
    greedy = greedy_descent(stacked, babai)
    dist = stacked.distance(greedy)
    assert babai.shape == greedy.shape == (7, 9) and dist.shape == (7,)
    for row, target in enumerate(stacked.target):
        single = lat.with_target(target)
        assert np.array_equal(babai[row], babai_serial(single))
        assert np.array_equal(greedy[row], greedy_serial(single, babai[row]))
        assert dist[row] == single.distance(greedy[row])


def test_stacked_targets_rotate_row_by_row():
    rng = np.random.default_rng(13)
    b = rng.standard_normal((4, 4))
    ys = rng.standard_normal((4, 4))
    stacked = TriangularLattice.from_columns(b, ys)
    reduced = lll_reduce_with_transform(stacked)[0]
    # a stack is rotated by one matrix product, which sums in another order
    for row, y in enumerate(ys):
        single = TriangularLattice.from_columns(b, y)
        np.testing.assert_allclose(stacked.target[row], single.target, rtol=0, atol=1e-13)
        np.testing.assert_allclose(reduced.target[row],
                                   lll_reduce_with_transform(single)[0].target, rtol=0, atol=1e-13)


# seeds that the descent on the unit lattice, target 0, fixes in 0, 1, 2
# and 3 moves: each move zeroes the largest coefficient left
UNIT_SEEDS = np.array([[0, 0, 0], [5, 0, 0], [2, -3, 0], [1, 4, -2]])


def test_greedy_batch_stops_targets_independently():
    lat = TriangularLattice(np.eye(3), np.zeros((4, 3)))
    out = greedy_descent(lat, UNIT_SEEDS)
    assert out.dtype == np.int64 and np.array_equal(out, np.zeros((4, 3)))
    for seed, row in zip(UNIT_SEEDS, out):
        assert np.array_equal(row, greedy_serial(TriangularLattice(np.eye(3), np.zeros(3)), seed))


def test_greedy_move_cap_is_per_target(monkeypatch):
    # a target needs one check past its last move, so a cap of 3 moves
    # serves the seeds fixed in up to 2 moves and stops the one needing 3
    monkeypatch.setattr(lattice, "GREEDY_MAX_MOVES", 3)
    lat = TriangularLattice(np.eye(3), np.zeros((3, 3)))
    assert np.array_equal(greedy_descent(lat, UNIT_SEEDS[:3]), np.zeros((3, 3)))
    with pytest.raises(IterationCapError, match="3 moves"):
        greedy_descent(lat.with_target(np.zeros((4, 3))), UNIT_SEEDS)


def test_brute_force_tiny_box_matches_itertools():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((3, 3))
    lat = TriangularLattice.from_columns(b, rng.uniform(-2.0, 2.0, size=3))
    got, _ = box_cvp(lat, 2)
    center = naive_round(lat)
    best, best_d = None, np.inf
    for offs in itertools.product(range(-2, 3), repeat=3):
        c = center + np.array(offs)
        d = lat.distance(c)
        if d < best_d:
            best, best_d = c, d
    assert np.array_equal(got, best)


def test_brute_force_warns_on_boundary():
    # true optimum (-2, 3) lies outside a radius-1 box around the naive (0, 1),
    # so the boxed optimum lands on the box edge and the oracle says so
    lat = TriangularLattice(np.array([[1.0, 0.9], [0.0, 0.1]]), np.array([0.5, 0.05]))
    assert box_cvp(lat, 1)[1]
    assert np.array_equal(widening_box_cvp(lat, 1), [-2, 3])


def test_brute_force_rejects_high_dim():
    d = BOX_MAX_DIM + 1
    with pytest.raises(ValueError):
        box_cvp(TriangularLattice(np.eye(d), np.zeros(d)), 1)


def test_cvp_instance_rejects_mismatched_target():
    with pytest.raises(ValueError, match="target shape"):
        TriangularLattice(np.eye(3), np.zeros(4))
    with pytest.raises(ValueError, match="target shape"):
        TriangularLattice(np.eye(3), np.zeros(3)).with_target(np.zeros(2))
    with pytest.raises(ValueError, match="target shape"):
        TriangularLattice(np.eye(3), np.zeros((2, 4)))


def test_plateau_and_covering_on_identity():
    lat = TriangularLattice(np.eye(9), np.zeros(9))
    assert abs(covering_radius_bound(lat) - 0.5 * 3.0) < 1e-12
    assert abs(plateau_estimate(lat) - np.pi * np.sqrt(3.0)) < 1e-12


def test_method_ladder_on_fixture(cvp6):
    basis = np.array(cvp6["basis"], dtype=float).T
    target = np.array(cvp6["target"], dtype=float)
    entries = method_ladder(TriangularLattice.from_columns(basis, target))
    by_name = {e.method: e for e in entries}
    assert set(by_name) == {"naive", "babai", "lll+babai", "lll+babai+greedy", "exact"}
    # the optimum is frozen in the fixture
    exact = by_name["exact"]
    assert np.array_equal(exact.coeffs, cvp6["optimal_coeffs"])
    assert abs(exact.distance - cvp6["optimal_distance"]) < 1e-9
    # guaranteed relations: greedy never loses to its seed, nothing beats the optimum
    assert by_name["lll+babai+greedy"].distance <= by_name["lll+babai"].distance + 1e-12
    for e in entries:
        assert e.distance >= exact.distance - 1e-9
        assert e.seconds >= 0.0
    # distances recompute from the reported coefficients in the input basis
    for e in entries:
        assert abs(np.linalg.norm(basis @ e.coeffs - target) - e.distance) < 1e-9


def test_method_ladder_reduces_once(monkeypatch, cvp6):
    """One LLL serves every rung on the reduced basis, and each of those
    rungs' seconds include it."""
    calls = []

    def slow_lll(*args, **kwargs):
        calls.append(args)
        time.sleep(0.02)
        return lll_reduce_with_transform(*args, **kwargs)

    monkeypatch.setattr(lattice, "lll_reduce_with_transform", slow_lll)
    basis = np.array(cvp6["basis"], dtype=float).T
    entries = method_ladder(TriangularLattice.from_columns(basis, cvp6["target"]))
    assert len(calls) == 1
    for e in entries:
        if "lll" in e.method or e.method == "exact":
            assert e.seconds >= 0.02, e.method


@pytest.mark.parametrize("name", ["naive", "babai+greedy"])
def test_chain_solves_a_stack_row_by_row(name):
    rng = np.random.default_rng(31)
    b = rng.standard_normal((6, 6))
    stack = TriangularLattice.from_columns(b, (b @ rng.uniform(-4.0, 4.0, size=(6, 9))).T)
    chain = SolverChain.parse(name)
    coeffs = chain.solve(stack)
    assert coeffs.shape == (9, 6) and coeffs.dtype == np.int64 and coeffs.flags.c_contiguous
    for row, target in zip(coeffs, stack.target):
        assert np.array_equal(row, chain.solve(stack.with_target(target)))


@pytest.mark.parametrize("name", LADDER)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
def test_no_ladder_chain_beats_the_exact_optimum(name, seed, d):
    """Each chain run through reduce and solve, on bases drawn as
    criterion 05 draws them, lands no closer than enumeration."""
    chain = SolverChain.parse(name)
    _, lat = random_lattice(np.random.default_rng(seed), d)
    reduced, u = chain.reduce(lat)
    coeffs = chain.solve(reduced)
    k = coeffs if u is None else u @ coeffs
    assert lat.distance(k) >= lat.distance(enumerate_cvp(lat)) - 1e-9


def test_gram_schmidt_data_validates_shapes():
    with pytest.raises(ValueError, match="upper triangular"):
        TriangularLattice(np.array([[1.0, 0.0], [0.5, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="sign-fixed"):
        TriangularLattice(np.diag([1.0, -1.0]), np.zeros(2))
    lat = TriangularLattice(np.array([[2.0, 1.0], [0.0, 3.0]]), [1.0, 2.0])
    assert not lat.r.flags.writeable and not lat.target.flags.writeable


@pytest.mark.parametrize("row, col", [(1, 0), (linalg.PANEL_ROWS, linalg.PANEL_ROWS - 1),
                                      (linalg.PANEL_ROWS + 43, 0)])
def test_triangular_check_covers_every_panel(row, col):
    """The check below the diagonal runs in row panels and misses no entry,
    and a float64 r is kept without a copy."""
    d = linalg.PANEL_ROWS + 44
    r = np.eye(d)
    lat = TriangularLattice(r, np.zeros(d))
    assert lat.r is r and not r.flags.writeable
    bad = np.eye(d)
    bad[row, col] = 1e-300
    with pytest.raises(ValueError, match="upper triangular"):
        TriangularLattice(bad, np.zeros(d))


def test_with_target_shares_the_basis():
    lat = TriangularLattice(np.array([[2.0, 1.0], [0.0, 3.0]]), np.zeros(2))
    moved = lat.with_target([1.0, 2.0])
    assert moved.r is lat.r
    assert np.array_equal(moved.target, [1.0, 2.0]) and not moved.target.flags.writeable
    assert np.array_equal(lat.target, np.zeros(2))


def test_enumeration_matches_widening_box():
    """Exact enumeration against the exhaustive box, widened until its
    optimum leaves the boundary, on 60 random instances in 2-6 dimensions.
    The box runs on the LLL basis, where a box around the rounded point
    holds the optimum; around the rounding in a skewed basis it may not."""
    rng = np.random.default_rng(515)
    for _ in range(60):
        d = int(rng.integers(2, 7))
        _, lat = random_lattice(rng, d)
        reduced = lll_reduce_with_transform(lat)[0]
        boxed = reduced.distance(widening_box_cvp(reduced))
        for inst in (lat, reduced):
            exact = inst.distance(enumerate_cvp(inst))
            assert abs(exact - boxed) <= 1e-9 * max(1.0, boxed)


def test_enumeration_on_reduced_basis_maps_back():
    rng = np.random.default_rng(21)
    _, lat = random_lattice(rng, 7)
    reduced, u = lll_reduce_with_transform(lat)
    on_input = lat.distance(enumerate_cvp(lat))
    via_reduced = lat.distance(u.astype(np.int64) @ enumerate_cvp(reduced))
    assert abs(on_input - via_reduced) < 1e-9


def test_enumeration_node_budget(monkeypatch):
    rng = np.random.default_rng(3)
    _, lat = random_lattice(rng, 8, scale=1.0)
    monkeypatch.setattr(lattice, "ENUM_MAX_NODES", 3)
    with pytest.raises(IterationCapError, match="3 nodes"):
        enumerate_cvp(lat)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 9),
       log_scale=st.floats(-2.0, 2.0))
def test_exact_never_loses_to_the_chain(seed, d, log_scale):
    """exact <= lll+babai+greedy <= lll+babai on random instances."""
    rng = np.random.default_rng(seed)
    _, lat = random_lattice(rng, d, scale=10.0 ** log_scale)
    reduced, u = lll_reduce_with_transform(lat)
    u = u.astype(np.int64)
    c = babai_nearest_plane(reduced)
    babai = lat.distance(u @ c)
    greedy = lat.distance(u @ greedy_descent(reduced, c))
    exact = lat.distance(enumerate_cvp(lat))
    tol = 1e-9 * max(1.0, babai)
    assert exact <= greedy + tol
    assert greedy <= babai + tol
