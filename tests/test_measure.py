import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path, one_shot_chaos_game, overlap_openly, word_index
from ifslab import catalog
from ifslab import measure as mea
from ifslab.errors import DepthOverflow, NoConvergence
from ifslab.geometry import IfsSystem, box_intersection
from ifslab.ifsfile import load_ifs
from ifslab.measure import (CellMeasure, bin_points, cell_grid, chaos_game,
                            exact_cell_masses, index_word, markov_fixpoint,
                            total_variation)
from ifslab.sampling import bit_stream, raw_blocks


# ---------------------------------------------------------------------------
# exact cell masses
# ---------------------------------------------------------------------------

def test_quadrant_masses_are_quarter(tent_square):
    mu = exact_cell_masses(tent_square.system, 1)
    np.testing.assert_array_equal(mu.masses, np.full(4, 0.25))


def test_depth_zero_is_unit_mass(tent_square):
    mu = exact_cell_masses(tent_square.system, 0)
    np.testing.assert_array_equal(mu.masses, [1.0])


def test_tent_sigma_depth_two_uniform(tent_sigma):
    mu = exact_cell_masses(tent_sigma.system, 2)
    assert mu.masses.shape == (36,)
    np.testing.assert_allclose(mu.masses, 1.0 / 36.0, rtol=0, atol=1e-16)


def test_aggregation_consistency(tent_sigma):
    # dropping the last letter reproduces the shallower masses exactly
    ifs = tent_sigma.system
    fine = exact_cell_masses(ifs, 3).masses
    coarse = exact_cell_masses(ifs, 2).masses
    np.testing.assert_allclose(fine.reshape(-1, ifs.n_branches).sum(axis=1), coarse,
                               rtol=0, atol=1e-15)


def test_depth_overflow(tent_square, monkeypatch):
    monkeypatch.setenv("IFSLAB_CELL_BUDGET", "256")
    with pytest.raises(DepthOverflow):
        exact_cell_masses(tent_square.system, 4)
    # one below the budget is fine
    exact_cell_masses(tent_square.system, 3)


# ---------------------------------------------------------------------------
# markov fixed point
# ---------------------------------------------------------------------------

def test_fixpoint_matches_exact(tent_square):
    fp = markov_fixpoint(tent_square.system, 3, tol=1e-12)
    exact = exact_cell_masses(tent_square.system, 3)
    assert total_variation(fp.masses, exact.masses) <= 1e-10


def test_fixpoint_depth_zero(tent_square):
    np.testing.assert_array_equal(markov_fixpoint(tent_square.system, 0).masses, [1.0])


def test_fixpoint_matches_exact_all_catalog(all_entries):
    for entry in all_entries:
        for depth in range(1, 5):
            fp = markov_fixpoint(entry.system, depth)
            exact = exact_cell_masses(entry.system, depth)
            assert total_variation(fp.masses, exact.masses) <= 1e-10, entry.name


def test_fixpoint_nonuniform_weights(tent_1d):
    ifs = IfsSystem(tent_1d.system.box, tent_1d.system.branches,
                    weights=[0.3, 0.7], phi=tent_1d.system.phi)
    fp = markov_fixpoint(ifs, 4)
    exact = exact_cell_masses(ifs, 4)
    assert total_variation(fp.masses, exact.masses) <= 1e-12


def test_fixpoint_no_convergence(tent_1d):
    ifs = IfsSystem(tent_1d.system.box, tent_1d.system.branches,
                    weights=[0.3, 0.7], phi=tent_1d.system.phi)
    with pytest.raises(NoConvergence):
        markov_fixpoint(ifs, 4, max_iters=1, tol=1e-15)


def test_zero_weight_rejected_at_construction(tent_1d):
    # Lemma-level precondition: weights are strictly positive
    with pytest.raises(ValueError):
        IfsSystem(tent_1d.system.box, tent_1d.system.branches, weights=[1.0, 0.0])


# ---------------------------------------------------------------------------
# chaos game
# ---------------------------------------------------------------------------

def test_chaos_game_single_sample(tent_square):
    mu = chaos_game(tent_square.system, 2, 1, seed=5)
    assert mu.masses.sum() == 1.0
    assert (mu.masses == 1.0).sum() == 1


def test_chaos_game_deterministic(tent_square):
    a = chaos_game(tent_square.system, 3, 50_000, seed=42)
    b = chaos_game(tent_square.system, 3, 50_000, seed=42)
    np.testing.assert_array_equal(a.masses, b.masses)
    c = chaos_game(tent_square.system, 3, 50_000, seed=43)
    assert np.any(c.masses != a.masses)


def test_chaos_game_binomial_band(tent_square):
    n_samples = 10**6
    mu = chaos_game(tent_square.system, 2, n_samples, seed=7)
    exact = exact_cell_masses(tent_square.system, 2)
    band = 4.0 * np.sqrt(exact.masses * (1 - exact.masses) / n_samples)
    inside = np.abs(mu.masses - exact.masses) <= band
    assert inside.mean() >= 0.95


def test_unseparated_chaos_game_leaves_the_product_band():
    # negative control of the separation rule: on x/2, x/2 + 1/4, x/2 + 1/2
    # the images overlap on an open interval of K = [0, 1], and the
    # chaos-game masses leave the band of the product masses that a
    # separated measure would give (1 cell of 9 inside at seed 7)
    ifs = load_ifs(fixture_path("three_branch"))
    n_samples = 10**5
    mu = chaos_game(ifs, 2, n_samples, seed=7)
    exact = exact_cell_masses(ifs, 2)
    band = 4.0 * np.sqrt(exact.masses * (1 - exact.masses) / n_samples)
    inside = np.abs(mu.masses - exact.masses) <= band
    assert inside.mean() < 0.5


def test_chaos_game_tv_halves_with_4x_samples(tent_square):
    # TV to the exact masses shrinks ~2x from N to 4N, averaged over seeds
    exact = exact_cell_masses(tent_square.system, 2).masses
    small, large = [], []
    for seed in range(10):
        small.append(total_variation(
            chaos_game(tent_square.system, 2, 25_000, seed=seed).masses, exact))
        large.append(total_variation(
            chaos_game(tent_square.system, 2, 100_000, seed=seed).masses, exact))
    ratio = np.mean(small) / np.mean(large)
    assert 1.0 <= ratio <= 3.0


def test_threshold_letter_draw_matches_binary_search():
    # a raw word's letter counted against the integer thresholds is the
    # letter a binary search gives its double (w >> 11) 2^-53: at every
    # threshold t, at t - 1, at t | 0x7ff (the last word of t's double) and
    # at t - 2^11 (the double below), on seeded and random words; edges
    # such as 1/3 and 0.1 are not multiples of 2^-53, so 2^53 e rounds up;
    # 300 weights take two-byte letters
    rng = np.random.default_rng(19)
    seeded = bit_stream(23, 64 * 1024).reshape(64, 1024)
    for weights in ([0.25, 0.25, 0.5], [0.5, 0.25, 0.125, 0.125], [0.25] * 4,
                    [1 / 3] * 3, [0.1, 0.2, 0.3, 0.4], rng.dirichlet(np.ones(6)),
                    rng.dirichlet(np.full(3, 0.3)), rng.dirichlet(np.ones(300))):
        cumulative = np.cumsum(weights)
        cumulative[-1] = 1.0
        thresholds = mea._letter_thresholds(np.asarray(weights))
        dtype = np.min_scalar_type(len(weights))
        edges = np.concatenate([thresholds - np.uint64(1), thresholds,
                                thresholds | np.uint64(0x7ff), thresholds - np.uint64(2**11),
                                np.array([0, 2**64 - 1], dtype=np.uint64)])
        random = rng.integers(0, 2**64, 5000, dtype=np.uint64)
        for words in (seeded, edges, random):
            expected = np.searchsorted(cumulative, (words >> np.uint64(11)) * 2.0**-53,
                                       side="right")
            letters = mea._draw_letters(thresholds, words, dtype)
            assert letters.dtype == dtype
            np.testing.assert_array_equal(letters, expected)
    assert dtype == np.uint16
    # the first edges, 1/3 and 0.1, are off the 2^-53 grid: their threshold
    # stands for the next double on it
    for weights in ([1 / 3] * 3, [0.1, 0.2, 0.3, 0.4]):
        first = mea._letter_thresholds(np.asarray(weights))[0]
        assert (first >> np.uint64(11)) * 2.0**-53 > weights[0]


def test_raw_blocks_continue_one_stream():
    # the blocks are the words of one draw, in order, for int and tuple
    # seeds and for blocks that do and do not divide the count; a start
    # advances the generator past the words before it: inside the first
    # block, at a block's end, past the 96 burn-in rows of 10 chains that a
    # depth-5 chaos game skips, and to the last word
    for seed in (0, 7, (7, 101, 3)):
        for count, block, start in ((1, 1, 0), (1_000, 64, 0), (1_000, 1_000, 0),
                                    (1_000, 3_000, 0), (3 * 65_536 + 5, 65_536, 0),
                                    (1_000, 64, 1), (1_000, 64, 128), (1_000, 30, 960),
                                    (1_000, 64, 999)):
            blocks = list(raw_blocks(seed, count, block, start))
            assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
            assert 0 < len(blocks[-1]) <= block
            assert np.array_equal(np.concatenate(blocks), bit_stream(seed, count)[start:])


# ---------------------------------------------------------------------------
# chaos game: symbolic addressing against the orbit and geometric binning
# ---------------------------------------------------------------------------

def _orbit_oracle(ifs, depth, n_samples, seed, burn_in=100):
    """The chaos game run the long way: the same PCG64 letters in the same
    (step, chain) layout, the orbit advanced by x[sel] = gamma(x[sel]), and
    every emitted sample kept.  Returns the samples in emission order and
    the flat index of each one's last `depth` letters, newest first (-1
    where the orbit has taken fewer than `depth` steps)."""
    n = ifs.n_branches
    chains = min(1024, n_samples)
    per_chain = np.full(chains, n_samples // chains)
    per_chain[:n_samples % chains] += 1
    steps = int(per_chain.max()) + burn_in
    raw = bit_stream(seed, steps * chains).reshape(steps, chains)
    cumulative = np.cumsum(ifs.weights)
    cumulative[-1] = 1.0
    letters = np.searchsorted(cumulative, (raw >> np.uint64(11)) * 2.0**-53, side="right")
    place = n ** np.arange(depth - 1, -1, -1)
    x = np.tile(ifs.box.center, (chains, 1))
    points, windows = [], []
    for k in range(steps):
        for i, gamma in enumerate(ifs.branches):
            sel = letters[k] == i
            x[sel] = gamma(x[sel])
        if k >= burn_in:
            active = per_chain >= k + 1 - burn_in
            points.append(x[active].copy())
            newest_first = letters[k::-1][:depth, active]
            windows.append(place @ newest_first if k + 1 >= depth
                           else np.full(int(active.sum()), -1))
    return np.concatenate(points), np.concatenate(windows)


def _assert_symbolic_matches_geometric(ifs, depth, n_samples, seed):
    """Equal counts, or every sample binned differently sits within the
    binning slack of a face shared by the two image boxes it was split
    between.  Returns the number of such samples."""
    n = ifs.n_branches
    points, symbolic = _orbit_oracle(ifs, depth, n_samples, seed)
    geometric = bin_points(ifs, points, depth)
    counts = np.rint(chaos_game(ifs, depth, n_samples, seed).masses * n_samples)
    np.testing.assert_array_equal(counts, np.bincount(symbolic, minlength=n**depth))
    boxes = ifs.image_boxes()
    tol = 1e-9 * max(1.0, ifs.box.diameter)
    moved = np.flatnonzero(symbolic != geometric)
    for sample in moved:
        current = points[sample]
        sym = index_word(int(symbolic[sample]), n, depth)
        geo = index_word(int(geometric[sample]), n, depth)
        level = next(j for j in range(depth) if sym[j] != geo[j])
        for letter in sym[:level]:
            current = ifs.branches[letter - 1].inverse(current)
        a, b = boxes[sym[level] - 1], boxes[geo[level] - 1]
        face = box_intersection(a, b)
        assert face is not None and not overlap_openly(a, b)
        assert np.all((current >= face[:, 0] - tol) & (current <= face[:, 1] + tol)), \
            (sample, current, sym, geo)
    return len(moved)


@pytest.mark.parametrize("name", ["tent_square", "tent_sigma", "tent_1d", "sigma_1d"])
@pytest.mark.parametrize("depth", [2, 3])
def test_symbolic_counts_match_orbit_binning(name, depth):
    ifs = catalog.get(name).system
    for seed in (0, 3, 11):
        _assert_symbolic_matches_geometric(ifs, depth, 30_000, seed)


def test_symbolic_counts_move_shared_face_samples(tent_sigma):
    # At this seed two samples sit within the slack of y = 2/3 and of
    # y = 4/9; geometric binning sends both to the lexicographically
    # smaller cell, symbolic addressing to the cell of their letters.
    assert _assert_symbolic_matches_geometric(tent_sigma.system, 2, 10**6, 8) == 2


@pytest.mark.parametrize("depth, burn_in", [(3, 0), (2, 0), (4, 2)])
def test_short_burn_in_bins_the_orbit(tent_sigma, depth, burn_in):
    # A window longer than burn_in + 1 letters would reach before the
    # first step, so these runs bin the orbit points geometrically.
    ifs = tent_sigma.system
    points, _ = _orbit_oracle(ifs, depth, 5_000, 4, burn_in)
    expected = np.bincount(bin_points(ifs, points, depth), minlength=ifs.n_branches**depth)
    mu = chaos_game(ifs, depth, 5_000, seed=4, burn_in=burn_in)
    np.testing.assert_array_equal(np.rint(mu.masses * 5_000), expected)


def test_overlapping_images_bin_the_orbit(overlap_bad):
    ifs = overlap_bad.system
    for depth, seed in ((2, 0), (3, 5), (8, 3)):
        points, symbolic = _orbit_oracle(ifs, depth, 20_000, seed)
        expected = np.bincount(bin_points(ifs, points, depth), minlength=2**depth)
        mu = chaos_game(ifs, depth, 20_000, seed=seed)
        np.testing.assert_array_equal(np.rint(mu.masses * 20_000), expected)
        # the overlap makes the letter windows a different, wrong histogram
        assert np.any(np.bincount(symbolic, minlength=2**depth) != expected)


# ---------------------------------------------------------------------------
# chaos game: the step-block stream against the one-shot draw
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["tent_square", "tent_sigma", "tent_1d", "sigma_1d",
                                  "overlap_bad"])
def test_streamed_chaos_game_equals_one_shot(name):
    # overlap_bad takes the geometric path (orbit carried across blocks);
    # sample counts below 1024 chains and not divisible by 1024, among them
    # a last step row in which only the first chain (1 025) or all but the
    # last (2 047) is counted; burn-ins of 100 and of exactly depth - 1
    # (the shortest symbolic window); at depth 0 every sample falls in the
    # one cell
    ifs = catalog.get(name).system
    for depth in range(0, 6):
        for n_samples in (700, 1_025, 2_047, 5_001, 66_667):
            for burn_in in (100, max(depth - 1, 0)):
                expected = one_shot_chaos_game(ifs, depth, n_samples, 13, burn_in)
                mu = chaos_game(ifs, depth, n_samples, seed=13, burn_in=burn_in)
                assert np.array_equal(mu.masses, expected), (depth, n_samples, burn_in)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_streamed_chaos_game_blocks_shorter_than_window(monkeypatch, rows):
    # a block of fewer step rows than the depth - 1 letters a window
    # carries: the carry then spans several blocks; depth 0 carries none
    monkeypatch.setattr(mea, "_STEP_BLOCK", rows)
    for name, depth, burn_in in (("tent_sigma", 5, 4), ("tent_1d", 5, 100),
                                 ("tent_square", 4, 3), ("overlap_bad", 4, 3),
                                 ("tent_sigma", 4, 1), ("tent_1d", 0, 0),
                                 ("overlap_bad", 0, 2)):
        ifs = catalog.get(name).system
        for n_samples in (1, 1_000, 4_097):
            expected = one_shot_chaos_game(ifs, depth, n_samples, 5, burn_in)
            mu = chaos_game(ifs, depth, n_samples, seed=5, burn_in=burn_in)
            assert np.array_equal(mu.masses, expected), (name, depth, n_samples)


def test_chaos_game_memory_is_bounded(tent_sigma):
    # a draw of every step at once holds 25 MiB of words, uniforms, letters
    # and windows for 10^6 samples; the step blocks hold one block's words,
    # one-byte letters and cell indices, a traced peak of 1.57 MiB (depth 1
    # carries no letter rows between blocks).  The bound keeps the 2.5x
    # headroom that 8 MiB gave over the 3.16 MiB of double uniforms and
    # intp letters.
    ifs = tent_sigma.system
    chaos_game(ifs, 2, 1_000, seed=7)  # memoised geometry outside the trace
    for depth in (1, 2):
        tracemalloc.start()
        try:
            chaos_game(ifs, depth, 10**6, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (depth, peak)


def test_bin_points_lexicographic_on_boundary(tent_1d):
    # 0.5 sits in both depth-1 cells; lexicographically smaller word wins
    idx = bin_points(tent_1d.system, np.array([[0.5]]), 1)
    assert idx[0] == 0


def test_bin_points_locates_cells(tent_square):
    grid = cell_grid(tent_square.system, 3)
    interior = grid.centers
    idx = bin_points(tent_square.system, interior, 3)
    np.testing.assert_array_equal(idx, np.arange(len(interior)))


# ---------------------------------------------------------------------------
# fixed-point identity
# ---------------------------------------------------------------------------

def self_similarity_residual(ifs, mu):
    """max over the depth-2 cells E = K_(i,j) of |mu(E) - sum_k p_k mu(g_k^-1 E)|,
    masses summed from the depth-m cells: of the branch preimages of E only
    g_i^-1 E = K_(j) carries mass."""
    n = ifs.n_branches
    pairs = mu.masses.reshape(n, n, -1).sum(axis=2)  # mu(K_(i,j))
    pulled = ifs.weights[:, None] * pairs.sum(axis=1)[None, :]  # p_i mu(K_(j))
    return float(np.abs(pairs - pulled).max())


def test_self_similarity_residual_exact(tent_square):
    mu = exact_cell_masses(tent_square.system, 3)
    assert self_similarity_residual(tent_square.system, mu) <= 1e-12


def test_self_similarity_residual_empirical(tent_square):
    mu = chaos_game(tent_square.system, 3, 10**6, seed=9)
    assert self_similarity_residual(tent_square.system, mu) <= 5e-3


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_mass_csv_format(tent_square, tmp_path):
    mu = exact_cell_masses(tent_square.system, 2)
    path = tmp_path / "masses.csv"
    mea.write_mass_csv(mu, 4, path)
    lines = path.read_bytes().decode().split("\n")
    assert lines[0] == "word,mass"
    assert lines[1] == "11,0.0625"
    assert len(lines) == 18  # header + 16 cells + trailing newline
    assert all("\r" not in line for line in lines)


def test_mass_vectors_are_probability_vectors(tent_sigma):
    for mu in (exact_cell_masses(tent_sigma.system, 3),
               markov_fixpoint(tent_sigma.system, 3),
               chaos_game(tent_sigma.system, 3, 10_000, seed=1)):
        assert np.all(mu.masses >= 0)
        assert abs(mu.masses.sum() - 1.0) <= 1e-12


def test_cell_measure_rejects_bad_vectors():
    with pytest.raises(ValueError):
        CellMeasure(1, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        CellMeasure(1, np.array([-0.1, 1.1]))


def test_grid_half_frames_equal_einsum():
    # each cell's half frame, read through its class, and its hull equal
    # np.einsum's bytes, signed zeros included, on the catalog and on
    # rotated 2-D systems
    from conftest import einsum_cell_grid, random_ifs

    rng = np.random.default_rng(17)
    systems = [entry.system for entry in catalog.catalog()]
    systems += [random_ifs(rng, kind) for kind in ("2d-rotated", "2d-rotated")]
    for system in systems:
        fresh = IfsSystem(system.box, system.branches, name=system.name)
        for depth in range(7):
            if system.n_branches**depth > 300_000:
                break
            grid = cell_grid(fresh, depth)
            arrays = (grid.centers, grid.frames[grid.classes], grid.hulls())
            for got, want in zip(arrays, einsum_cell_grid(system, depth)):
                assert got.tobytes() == want.tobytes(), (system.name, depth)


def test_grid_cached_build_equals_fresh_build():
    # a build on a system whose cache already holds grids of other depths,
    # built in a shuffled order, gives the centers, classes and frames of a
    # build on an empty cache, on axis-aligned and rotated branches, and so
    # the einsum grid's frames and hulls
    from conftest import einsum_cell_grid, random_ifs

    rng = np.random.default_rng(3)
    systems = [catalog.get("tent_sigma").system]
    systems += [random_ifs(rng, kind) for kind in ("2d-rotated", "2d-rotated")]
    for system in systems:
        for depth in (1, 3, 4, 2, 5):
            cached = cell_grid(system, depth)
            fresh = cell_grid(IfsSystem(system.box, system.branches), depth)
            for name in ("centers", "classes", "frames", "extents"):
                got, want = getattr(cached, name), getattr(fresh, name)
                assert got.tobytes() == want.tobytes(), (system.name, depth, name)
            _, half, boxes = einsum_cell_grid(system, depth)
            assert cached.frames[cached.classes].tobytes() == half.tobytes()
            assert cached.hulls().tobytes() == boxes.tobytes()


def test_grid_classes_are_the_distinct_frames():
    # a grid stores each distinct half frame once: at most 4 per depth on
    # the catalog systems, and on the rotated draws one class per
    # distinct einsum frame (by bytes), a count that grows with the depth;
    # every class holds a cell
    from conftest import einsum_cell_grid, grid_test_systems

    catalog_names = {entry.name for entry in catalog.catalog()}
    counts = []
    for ifs in grid_test_systems():
        for depth in range(6):
            if ifs.n_branches**depth > 5_000:
                break
            grid = cell_grid(ifs, depth)
            half = einsum_cell_grid(ifs, depth)[1]
            distinct = np.unique(half.reshape(len(half), -1).view(np.int64), axis=0)
            assert len(grid.frames) == len(distinct), (ifs.name, depth)
            assert np.array_equal(np.unique(grid.classes), np.arange(len(grid.frames)))
            if ifs.name in catalog_names:
                assert len(grid.frames) <= 4, (ifs.name, depth)
            counts.append((ifs.name, ifs.n_branches, len(grid.centers), len(grid.frames)))
    assert ("2d-rotated", 2, 16, 5) in counts


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.lists(st.integers(1, 6), min_size=0, max_size=8))
def test_word_index_round_trip(n, letters):
    word = tuple(min(letter, n) for letter in letters)
    assert index_word(word_index(word, n), n, len(word)) == word
