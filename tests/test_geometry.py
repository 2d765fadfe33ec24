from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CATALOG_FACTS, is_finite_branch, per_piece_box_distances,
                      point_segment_distance, random_ifs, reference_box_piece_distance,
                      reference_pieces_match_expected)

from ifslab import catalog
from ifslab import geometry as geo
from ifslab.cli import DEFAULT_TOLERANCES
from ifslab.errors import NotAContraction
from ifslab.ifsfile import export_ifs, parse_ifs
from ifslab.geometry import (AffineContraction, AffinePiece, AmbientBox, IfsSystem,
                             box_distances_to_pieces, branch_coincidence_set,
                             branch_membership, branch_value_set,
                             check_open_set_condition, contraction_bounds,
                             self_similarity_defect, verify_inverse_branches)


# ---------------------------------------------------------------------------
# contraction_bounds
# ---------------------------------------------------------------------------

def test_contraction_bounds_tent_square_branch():
    # branch (x/2, y/2) of the 2-D tent system
    assert contraction_bounds(np.diag([0.5, 0.5])) == (0.5, 0.5)


def test_contraction_bounds_mixed_ratios():
    # branch (x/2, -y/3 + 2/3) of the tent/zigzag system
    c1, c2 = contraction_bounds(np.diag([0.5, -1.0 / 3.0]))
    assert abs(c1 - 1.0 / 3.0) < 1e-15
    assert abs(c2 - 0.5) < 1e-15


def test_contraction_bounds_rejects_degenerate():
    with pytest.raises(NotAContraction):
        contraction_bounds(np.zeros((2, 2)))
    with pytest.raises(NotAContraction):
        contraction_bounds(np.diag([0.5, 1.0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_two_sided_lipschitz_bounds(seed):
    # c1 |x-y| <= |g(x)-g(y)| <= c2 |x-y| on sampled pairs
    rng = np.random.default_rng(seed)
    linear = rng.uniform(-0.6, 0.6, size=(2, 2))
    try:
        gamma = AffineContraction(linear, np.zeros(2))
    except NotAContraction:
        return
    x = rng.uniform(0, 1, size=(50, 2))
    y = rng.uniform(0, 1, size=(50, 2))
    gaps = np.linalg.norm(x - y, axis=1)
    images = np.linalg.norm(gamma(x) - gamma(y), axis=1)
    assert np.all(images <= gamma.c2 * gaps * (1 + 1e-9) + 1e-15)
    assert np.all(images >= gamma.c1 * gaps * (1 - 1e-9) - 1e-15)


# ---------------------------------------------------------------------------
# inverse branches and self-similarity
# ---------------------------------------------------------------------------

def test_inverse_branches_catalog(all_entries):
    for entry in all_entries:
        if entry.name == "overlap_bad":
            continue
        assert verify_inverse_branches(entry.system) <= 1e-12, entry.name


def test_inverse_branches_identity_phi_fails(tent_1d):
    broken = IfsSystem(tent_1d.system.box, tent_1d.system.branches,
                       phi=lambda pts: pts, name="identity-phi")
    assert verify_inverse_branches(broken) >= 0.25


def test_self_similarity_defect_tent_square(tent_square):
    assert self_similarity_defect(tent_square.system) == (0.0, "box arrangement")


def test_self_similarity_defect_tent_1d(tent_1d):
    assert self_similarity_defect(tent_1d.system) == (0.0, "box arrangement")


def test_self_similarity_defect_cantor_gap():
    # middle-third Cantor system on [0,1]: the middle third is uncovered
    coverage = self_similarity_defect(cantor_system())
    assert coverage.method == "box arrangement"
    assert abs(coverage.uncovered - 1.0 / 3.0) <= 1e-12


def cantor_system():
    box = AmbientBox(np.array([[0.0, 1.0]]))
    branches = (AffineContraction(np.array([[1 / 3]]), np.array([0.0])),
                AffineContraction(np.array([[1 / 3]]), np.array([2 / 3])))
    return IfsSystem(box, branches, name="cantor")


def test_self_similarity_defect_catalog_and_file_twins(all_entries):
    for entry in all_entries:
        if entry.name == "overlap_bad":
            continue
        twin = parse_ifs(export_ifs(entry.system, entry.phi_name))
        for ifs in (entry.system, twin):
            assert self_similarity_defect(ifs) == (0.0, "box arrangement"), entry.name


def test_self_similarity_defect_overlap_bad(overlap_bad):
    # images [0, 0.5] and [0.3, 0.8] leave (0.8, 1] uncovered
    coverage = self_similarity_defect(overlap_bad.system)
    assert coverage.method == "box arrangement"
    assert abs(coverage.uncovered - 0.2) <= 1e-12


def inclusion_exclusion_uncovered(ifs):
    """1 - vol(U_i g_i(K)) / vol(K), the union volume summed over every
    intersection of image boxes with alternating signs."""
    images = ifs.image_boxes()
    union = 0.0
    for size in range(1, len(images) + 1):
        for subset in combinations(images, size):
            lo = np.max([box[:, 0] for box in subset], axis=0)
            hi = np.min([box[:, 1] for box in subset], axis=0)
            union += (-1) ** (size + 1) * np.prod(np.maximum(hi - lo, 0.0))
    return 1.0 - union / np.prod(ifs.box.sizes)


def test_self_similarity_defect_matches_inclusion_exclusion():
    # random overlapping and tiling axis-aligned systems in 1 and 2 dimensions
    rng = np.random.default_rng(23)
    for kind in 20 * ["1d", "2d-diagonal"]:
        ifs = random_ifs(rng, kind)
        coverage = self_similarity_defect(ifs)
        assert coverage.method == "box arrangement"
        assert abs(coverage.uncovered - inclusion_exclusion_uncovered(ifs)) <= 1e-12


def rotated_system(scale):
    # two squares turned by 45 degrees, one in each half of the unit square
    turn = scale * np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    box = AmbientBox(np.array([[0.0, 1.0], [0.0, 1.0]]))
    branches = [AffineContraction(turn, np.array([x, 0.5]) - turn @ np.array([0.5, 0.5]))
                for x in (0.25, 0.75)]
    return IfsSystem(box, branches, name="rotated")


def test_self_similarity_defect_rotated_volume_identity():
    ifs = rotated_system(0.3)
    assert check_open_set_condition(ifs).passed
    coverage = self_similarity_defect(ifs)
    assert coverage.method == "volume identity (open set condition)"
    assert abs(coverage.uncovered - (1.0 - 2 * 0.3**2)) <= 1e-12


def test_self_similarity_defect_undecided_without_osc():
    # the same turned squares, moved onto each other: no open set condition
    ifs = rotated_system(0.3)
    moved = AffineContraction(ifs.branches[0].linear, ifs.branches[0].translation + [0.1, 0.0])
    overlapping = IfsSystem(ifs.box, (ifs.branches[0], moved))
    coverage = self_similarity_defect(overlapping)
    assert np.isnan(coverage.uncovered)
    assert coverage.method.startswith("coverage undecided: ")


def guillotine_tiles(rng, box, splits):
    """Boxes tiling `box`: every tile cut once along each axis in turn, so
    each tile is strictly smaller than the box on every axis, then `splits`
    cuts of random tiles along random axes."""
    tiles = [box.intervals.copy()]
    axes = [*range(box.dimension), *rng.integers(0, box.dimension, splits)]
    for step, axis in enumerate(axes):
        chosen = range(len(tiles)) if step < box.dimension else [rng.integers(len(tiles))]
        for k in list(chosen):
            low, high = tiles[k].copy(), tiles[k].copy()
            cut = low[axis, 0] + rng.uniform(0.2, 0.8) * (low[axis, 1] - low[axis, 0])
            low[axis, 1] = high[axis, 0] = cut
            tiles[k] = low
            tiles.append(high)
    return tiles


def tile_branch(box, tile, flip):
    """The axis-aligned map of `box` onto `tile`, reversing the flipped axes."""
    scale = (tile[:, 1] - tile[:, 0]) / box.sizes
    linear = np.where(flip, -scale, scale)
    start = np.where(flip, tile[:, 1], tile[:, 0])
    return AffineContraction(np.diag(linear), start - linear * box.lo)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(0, 6))
def test_self_similarity_defect_guillotine_tilings(seed, d, splits):
    # a tiling of the box by its flipped images covers it; shrinking one
    # image by a tenth along one axis leaves exactly that volume uncovered
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-5.0, 5.0, d)
    box = AmbientBox(np.stack([lo, lo + rng.uniform(0.1, 10.0, d)], axis=1))
    tiles = guillotine_tiles(rng, box, splits)
    flips = rng.random((len(tiles), d)) < 0.5
    branches = [tile_branch(box, tile, flip) for tile, flip in zip(tiles, flips)]
    coverage = self_similarity_defect(IfsSystem(box, branches))
    assert coverage.method == "box arrangement"
    assert coverage.uncovered <= 1e-12

    k, axis = rng.integers(len(tiles)), rng.integers(d)
    shrunk = tiles[k].copy()
    shrunk[axis, 1] -= 0.1 * (shrunk[axis, 1] - shrunk[axis, 0])
    branches[k] = tile_branch(box, shrunk, flips[k])
    lost = 0.1 * np.prod(tiles[k][:, 1] - tiles[k][:, 0]) / np.prod(box.sizes)
    coverage = self_similarity_defect(IfsSystem(box, branches))
    assert coverage.uncovered > DEFAULT_TOLERANCES["defect_slack"]
    assert abs(coverage.uncovered - lost) <= 1e-12


def segment_piece(a, b):
    ends = np.array([a, b], dtype=float)
    return AffinePiece((1, 2), ends[0], (ends[1] - ends[0])[:, None], 1, endpoints=ends)


def test_box_distances_match_one_box_search():
    rng = np.random.default_rng(5)
    for d in (1, 2):
        low = rng.uniform(0.0, 1.0, (300, d))
        width = rng.uniform(0.0, 0.4, (300, d))
        width[::3, 0] = 0.0  # clipped boxes of zero width
        boxes = np.stack([low, low + width], axis=2)
        a, b = rng.uniform(-0.2, 1.2, (2, d))
        parallel = b.copy()
        parallel[0] = a[0]  # v[0] == 0: an axis-parallel segment
        center = boxes[7].mean(axis=1)
        through = (2 * center - a, a)  # crosses box 7 at its center
        pieces = [segment_piece(a, b), segment_piece(a, parallel), segment_piece(*through),
                  AffinePiece((1, 2), a, np.zeros((d, 0)), 0, point=a)]
        for piece in pieces:
            got = box_distances_to_pieces(boxes, [piece])
            want = [reference_box_piece_distance(box, piece) for box in boxes]
            assert got.tolist() == want
        assert box_distances_to_pieces(boxes, [pieces[2]])[7] == 0.0
        union = box_distances_to_pieces(boxes, pieces)
        assert union.tolist() == [min(reference_box_piece_distance(box, p) for p in pieces)
                                  for box in boxes]
    assert box_distances_to_pieces(boxes, []).tolist() == [np.inf] * len(boxes)



def point_piece(p):
    p = np.asarray(p, dtype=float)
    return AffinePiece((1, 2), p, np.zeros((len(p), 0)), 0, point=p)


def test_box_distances_equal_per_piece_passes():
    rng = np.random.default_rng(29)
    sigma = branch_value_set(catalog.get("tent_sigma").system)
    for d in (1, 2):
        a, b = rng.uniform(-0.2, 1.2, (2, d))
        parallel = b.copy()
        parallel[0] = a[0]  # an axis-parallel segment
        pieces = [segment_piece(a, b), segment_piece(a, parallel),
                  point_piece(rng.uniform(0.0, 1.0, d)), point_piece(a),
                  segment_piece(*rng.uniform(0.0, 1.0, (2, d)))]
        piece_sets = [pieces, pieces[2:4], [pieces[2]], [pieces[1]], []]
        if d == 2:
            piece_sets.append(sigma)
        for count in (0, 1, 196, 2048):
            low = rng.uniform(0.0, 1.0, (count, d))
            width = rng.uniform(0.0, 0.3, (count, d))
            width[::4, 0] = 0.0
            boxes = np.stack([low, low + width], axis=2)
            if count >= 196:
                # boxes touching each segment: at an end, and straddling its middle
                for k, piece in enumerate(p for p in pieces if p.dimension == 1):
                    end, mid = piece.endpoints[0], piece.endpoints.mean(axis=0)
                    boxes[3 * k] = np.stack([end, end + 0.1], axis=1)
                    boxes[3 * k + 1] = np.stack([mid - 0.05, mid + 0.05], axis=1)
                    boxes[3 * k + 2] = np.stack([end - 0.1, end], axis=1)
            for chosen in piece_sets:
                got = box_distances_to_pieces(boxes, chosen)
                want = per_piece_box_distances(boxes, chosen)
                assert got.tobytes() == want.tobytes(), (d, count, len(chosen))
            if count >= 196:
                assert (box_distances_to_pieces(boxes[:9], pieces) == 0.0).sum() >= 6


def test_box_distances_across_a_chunk_boundary():
    rng = np.random.default_rng(30)
    chunk = geo._PAIR_CHUNK
    for piece_count in (1, 3, 11):
        pieces = [segment_piece(*rng.uniform(0.0, 1.0, (2, 2))) if k % 3 else
                  point_piece(rng.uniform(0.0, 1.0, 2)) for k in range(piece_count)]
        step = chunk // piece_count
        for count in (step - 1, step, step + 1, 2 * step + 1):
            low = rng.uniform(0.0, 1.0, (count, 2))
            boxes = np.stack([low, low + 0.05], axis=2)
            got = box_distances_to_pieces(boxes, pieces)
            assert got.tobytes() == per_piece_box_distances(boxes, pieces).tobytes()


def test_box_distances_peak_memory_stays_at_per_piece_passes(tent_sigma):
    import tracemalloc

    pieces = branch_value_set(tent_sigma.system)
    rng = np.random.default_rng(31)
    low = rng.uniform(0.0, 1.0, (2048, 2))
    boxes = np.stack([low, low + 0.02], axis=2)
    peaks = []
    for distances in (box_distances_to_pieces, per_piece_box_distances):
        tracemalloc.start()
        try:
            distances(boxes, pieces)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


def test_first_box_takes_the_first_holder_else_the_nearest():
    boxes = np.array([[[0.0, 1.0], [0.0, 1.0]],
                      [[1.0, 2.0], [0.0, 1.0]],
                      [[-2.0, -1.1], [1.0, 2.0]]])
    points = np.array([[1.0, 0.5],          # on the face boxes 0 and 1 share
                       [1.5, 0.5],          # in box 1 only
                       [1.0 + 1e-10, 0.5],  # in box 1, and in box 0 within 1e-9
                       [-0.5, 1.5],         # gaps (0.5, 0.5) to box 0 and (0.6, 0) to box 2
                       [1.0, 1.5],          # 0.5 from boxes 0 and 1
                       [2.5, 0.5]])         # 0.5 from box 1
    assert geo.first_box(points, boxes, 0.0).tolist() == [0, 1, 1, 2, 0, 1]
    assert geo.first_box(points, boxes, 1e-9).tolist() == [0, 1, 0, 2, 0, 1]
    # wide enough, the slack puts every point in box 0
    assert geo.first_box(points, boxes, 4.0).tolist() == [0] * len(points)


def test_first_box_equals_a_per_point_scan():
    # boxes and points on a half-integer lattice, so that points sit on
    # faces and equal gaps tie exactly
    rng = np.random.default_rng(41)
    for d in (1, 2):
        low = rng.integers(0, 6, (7, d)) / 2
        boxes = np.stack([low, low + rng.integers(0, 3, (7, d)) / 2], axis=2)
        points = rng.integers(-2, 10, (400, d)) / 2
        for slack in (0.0, 0.5):
            want = []
            for point in points:
                inside = [np.all((point >= box[:, 0] - slack) & (point <= box[:, 1] + slack))
                          for box in boxes]
                gaps = [np.linalg.norm(np.maximum(np.maximum(box[:, 0] - point,
                                                             point - box[:, 1]), 0.0))
                        for box in boxes]
                want.append(inside.index(True) if any(inside) else int(np.argmin(gaps)))
            assert geo.first_box(points, boxes, slack).tolist() == want, (d, slack)


# ---------------------------------------------------------------------------
# coincidence and value sets
# ---------------------------------------------------------------------------

def test_coincidence_set_matches_paper(tent_square):
    pieces = branch_coincidence_set(tent_square.system)
    facts = CATALOG_FACTS["tent_square"]
    assert reference_pieces_match_expected(pieces, facts.coincidence_segments,
                                           facts.coincidence_points)


def test_value_set_matches_paper(tent_square):
    values = branch_value_set(tent_square.system)
    facts = CATALOG_FACTS["tent_square"]
    assert reference_pieces_match_expected(values, facts.value_segments, facts.value_points)


def perturbed_expectations(segments, points, d, rng):
    """Expected sets that differ from (segments, points): one piece dropped,
    moved by about 1e-6 or 1e-3, or one extra point."""
    segments = [np.asarray(seg, dtype=float) for seg in segments]
    points = [np.asarray(p, dtype=float) for p in points]
    for k in range(len(segments)):
        yield segments[:k] + segments[k + 1:], points
        for shift in (1e-6, 1e-3):
            moved = segments[k] + shift * rng.standard_normal(segments[k].shape)
            yield segments[:k] + [moved] + segments[k + 1:], points
    for k in range(len(points)):
        yield segments, points[:k] + points[k + 1:]
        yield segments, points[:k] + [points[k] + 1e-6] + points[k + 1:]
    yield segments, points + [np.full(d, 0.123)]


def test_matcher_rejects_every_perturbed_fact(all_entries):
    # the matcher accepts each catalog system's stated sets, and rejects
    # them with one piece dropped, moved or added
    rng = np.random.default_rng(3)
    for entry in all_entries:
        facts = CATALOG_FACTS[entry.name]
        pieces = branch_coincidence_set(entry.system)
        values = branch_value_set(entry.system)
        for got, segments, points in ((pieces, facts.coincidence_segments,
                                       facts.coincidence_points),
                                      (values, facts.value_segments, facts.value_points)):
            assert reference_pieces_match_expected(got, segments, points), entry.name
            for seg_set, point_set in perturbed_expectations(
                    segments, points, entry.system.dimension, rng):
                assert not reference_pieces_match_expected(got, seg_set, point_set), entry.name


def test_parallel_branches_give_empty_set():
    box = AmbientBox(np.array([[0.0, 1.0]]))
    branches = (AffineContraction(np.array([[0.5]]), np.array([0.0])),
                AffineContraction(np.array([[0.5]]), np.array([0.5])))
    system = IfsSystem(box, branches)
    assert branch_coincidence_set(system) == []
    assert branch_value_set(system) == []
    assert is_finite_branch(system)


@pytest.mark.parametrize("dimension", [1, 2])
def test_identical_branches_coincide_on_the_whole_box(dimension):
    # g_1 = g_2: the coincidence piece is the whole box.  On an interval it
    # is the segment between the box's ends, which `sample` walks; in the
    # plane it is the square itself, sampled at its 4 corners, and its value
    # piece at their images, row by row
    box = AmbientBox(np.array([[0.0, 1.0]] * dimension))
    half = AffineContraction(0.5 * np.eye(dimension), np.zeros(dimension))
    other = AffineContraction(0.5 * np.eye(dimension), np.full(dimension, 0.5))
    system = IfsSystem(box, (half, half, other))
    [piece] = branch_coincidence_set(system)
    assert piece.pair == (1, 2) and piece.dimension == dimension
    points = piece.sample()
    if dimension == 1:
        assert piece.endpoints.tolist() == [[0.0], [1.0]]
    else:
        assert points.tolist() == geo.box_corners(box.intervals).tolist()
    assert len(points) > 1 and bool(box.contains(points).all())
    assert geo.coincidence_residual(system, [piece]) == 0.0
    [value] = branch_value_set(system)
    assert value.dimension == dimension
    if dimension == 2:
        assert value.sample().tolist() == half(points).tolist()
    assert geo.value_residual(system, [piece], [value]) == 0.0


def test_memoised_sets_are_fresh_lists():
    # a caller that edits a returned list must not change the next result
    ifs = catalog.get("tent_sigma").system
    pieces = branch_coincidence_set(ifs)
    values = branch_value_set(ifs)
    expected = ([p.pair for p in pieces], [p.pair for p in values])
    pieces.clear()
    values.append(values[0])
    boxes = ifs.image_boxes()
    boxes.pop()
    again = branch_coincidence_set(ifs)
    assert ([p.pair for p in again], [p.pair for p in branch_value_set(ifs)]) == expected
    assert branch_value_set(ifs)[0] is branch_value_set(ifs)[0]
    assert len(ifs.image_boxes()) == ifs.n_branches
    with pytest.raises(ValueError):
        again[0].endpoints[0, 0] = 0.5
    with pytest.raises(ValueError):
        branch_value_set(ifs)[0].endpoints[0, 0] = 0.5
    with pytest.raises(ValueError):
        ifs.image_boxes()[0][0, 0] = 0.5


def test_value_set_is_the_image_of_the_coincidence_set(all_entries):
    # piece k of the value set is g_i of piece k of the coincidence set
    for entry in all_entries:
        ifs = entry.system
        pieces, values = branch_coincidence_set(ifs), branch_value_set(ifs)
        assert [p.pair for p in values] == [p.pair for p in pieces], entry.name
        for piece, value in zip(pieces, values):
            gamma = ifs.branches[piece.pair[0] - 1]
            for got, source in ((value.point, piece.point),
                                (value.endpoints, piece.endpoints)):
                if source is not None:
                    np.testing.assert_array_equal(got, gamma(source))


def test_piece_points_satisfy_equation(tent_sigma):
    ifs = tent_sigma.system
    pieces = branch_coincidence_set(ifs)
    assert geo.coincidence_residual(ifs, pieces) <= 1e-12
    values = branch_value_set(ifs)
    assert geo.value_residual(ifs, pieces, values) <= 1e-12


def shifted_piece(piece, distance):
    """The piece moved by `distance` in a direction off its own span."""
    d = len(piece.basepoint)
    direction = np.ones(d)
    if piece.basis.size:
        direction -= piece.basis @ np.linalg.lstsq(piece.basis, direction, rcond=None)[0]
    shift = distance * direction / np.linalg.norm(direction)
    return replace(piece, basepoint=piece.basepoint + shift,
                   point=None if piece.point is None else piece.point + shift,
                   endpoints=None if piece.endpoints is None else piece.endpoints + shift)


def test_shifted_pieces_fail_the_piece_rows(all_entries):
    # negative controls of the coincidence-set and value-set rows: pieces
    # moved 1e-6 off the exact sets exceed the rows' bound
    bound = DEFAULT_TOLERANCES["piece_residual"]
    checked = []
    for entry in all_entries:
        ifs = entry.system
        pieces, values = branch_coincidence_set(ifs), branch_value_set(ifs)
        if not pieces:
            continue
        assert geo.coincidence_residual(ifs, pieces) <= bound, entry.name
        assert geo.value_residual(ifs, pieces, values) <= bound, entry.name
        moved = [shifted_piece(piece, 1e-6) for piece in pieces]
        assert geo.coincidence_residual(ifs, moved) > bound, entry.name
        moved_values = [shifted_piece(value, 1e-6) for value in values]
        assert geo.value_residual(ifs, pieces, moved_values) > bound, entry.name
        assert geo.value_residual(ifs, moved, values) > bound, entry.name
        checked.append(entry.name)
    assert checked == ["tent_square", "tent_sigma", "tent_1d", "sigma_1d"]


def test_off_piece_points_violate_equation(tent_square):
    # affine transversality: points 1e-3 away from a pair's solution set
    # miss the branch equation by at least 1e-6
    ifs = tent_square.system
    pieces = {p.pair: p for p in branch_coincidence_set(ifs)}
    rng = np.random.default_rng(11)
    points = rng.uniform(0, 1, size=(300, 2))
    for i in range(1, 5):
        for j in range(i + 1, 5):
            piece = pieces.get((i, j))
            residual = np.abs(ifs.branches[i - 1](points)
                              - ifs.branches[j - 1](points)).max(axis=1)
            if piece is None:
                far = np.ones(len(points), dtype=bool)
            elif piece.dimension == 0:
                far = np.linalg.norm(points - piece.point, axis=1) >= 1e-3
            else:
                far = np.array([point_segment_distance(x, piece.endpoints) >= 1e-3
                                for x in points])
            assert np.all(residual[far] >= 1e-6)


def test_finite_branch_flags(all_entries):
    for entry in all_entries:
        facts = CATALOG_FACTS[entry.name]
        assert is_finite_branch(entry.system) == facts.finite_branch, entry.name


def test_tent_1d_coincidence_is_single_point(tent_1d):
    # x/2 = -x/2 + 1 has the single solution x = 1
    pieces = branch_coincidence_set(tent_1d.system)
    assert len(pieces) == 1 and pieces[0].dimension == 0
    assert abs(pieces[0].point[0] - 1.0) <= 1e-12
    values = branch_value_set(tent_1d.system)
    assert abs(values[0].point[0] - 0.5) <= 1e-12


# ---------------------------------------------------------------------------
# open set condition
# ---------------------------------------------------------------------------

def test_osc_passes_on_catalog(all_entries):
    # decided once per system: every call returns the first result
    for entry in all_entries:
        result = check_open_set_condition(entry.system)
        assert result.passed == CATALOG_FACTS[entry.name].osc_should_pass, entry.name
        assert check_open_set_condition(entry.system) is result, entry.name


def assert_witness_in_both_open_images(ifs, result):
    """Brute force: the witness lies in both open images of the box of the
    violating pair, its preimage under each branch strictly inside."""
    lo, hi = ifs.box.lo, ifs.box.hi
    for k in result.violating:
        pre = ifs.branches[k - 1].inverse(result.witness)
        assert np.all((lo < pre) & (pre < hi)), (ifs.name, k, pre)


def assert_open_images_disjoint(ifs):
    """Brute force: no interior lattice point of the box maps under one
    branch to a point whose preimage under another lies 1e-9 inside the box."""
    lo, hi = ifs.box.lo, ifs.box.hi
    axes = [np.linspace(a, b, 17)[1:-1] for a, b in ifs.box.intervals]
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    for gi, gj in combinations(ifs.branches, 2):
        pre = gj.inverse(gi(grid))
        assert not np.all((lo + 1e-9 < pre) & (pre < hi - 1e-9), axis=1).any(), ifs.name


def test_osc_overlap_witness(overlap_bad):
    result = check_open_set_condition(overlap_bad.system)
    assert not result.passed
    assert result.violating == (1, 2)
    x = float(result.witness[0])
    assert 0.3 < x < 0.5
    assert_witness_in_both_open_images(overlap_bad.system, result)

    # random draws, axis-aligned (overlap of image boxes) and rotated
    # (separating-axis test, then a grid search for the witness).  Draws
    # that tile the box pass although rounding moves their shared faces
    # by about 1e-16.
    rng = np.random.default_rng(29)
    verdicts = Counter()
    for kind in ("1d", "2d-diagonal", "2d-rotated"):
        for _ in range(25):
            ifs = random_ifs(rng, kind)
            result = check_open_set_condition(ifs)
            if result.passed:
                assert_open_images_disjoint(ifs)
            else:
                assert result.witness is not None, kind
                assert_witness_in_both_open_images(ifs, result)
            verdicts[kind, result.passed] += 1
    assert min(verdicts.values()) >= 3 and len(verdicts) == 6, verdicts


# ---------------------------------------------------------------------------
# branch index sets and system invariants
# ---------------------------------------------------------------------------

def test_branch_index_set_nonempty_on_attractor(tent_square):
    grid = tent_square.system.box.grid(8)
    assert branch_membership(tent_square.system, grid).any(axis=1).all()


def test_branch_index_set_interior_is_singleton(tent_square):
    flags = branch_membership(tent_square.system, np.array([[0.2, 0.3], [0.2, 0.7]]))
    np.testing.assert_array_equal(flags, [[True, False, False, False],
                                          [False, True, False, False]])


def test_system_rejects_bad_weights(tent_1d):
    box, branches = tent_1d.system.box, tent_1d.system.branches
    with pytest.raises(ValueError):
        IfsSystem(box, branches, weights=[0.5, 0.6])
    with pytest.raises(ValueError):
        IfsSystem(box, branches, weights=[1.0, 0.0])


def test_box_refuses_three_axes():
    # the laboratory is capped at d <= 2
    with pytest.raises(ValueError, match="supported dimensions are 1, 2"):
        AmbientBox(np.array([[0.0, 1.0]] * 3))


def test_system_rejects_escaping_branch():
    box = AmbientBox(np.array([[0.0, 1.0]]))
    branches = (AffineContraction(np.array([[0.5]]), np.array([0.0])),
                AffineContraction(np.array([[0.5]]), np.array([0.75])))
    with pytest.raises(ValueError):
        IfsSystem(box, branches)
