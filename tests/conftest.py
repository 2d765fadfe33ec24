from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from ifslab import catalog
from ifslab.geometry import branch_coincidence_set, branch_value_set


# The library of hand-written definition files.  Each file's header states
# its verdict under `verify --depths 2..3` (tests/test_fixtures.py).
FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name):
    """The path of the definition file tests/fixtures/<name>.ifs."""
    return FIXTURES / f"{name}.ifs"


@pytest.fixture(scope="session")
def tent_square():
    return catalog.get("tent_square")


@pytest.fixture(scope="session")
def tent_sigma():
    return catalog.get("tent_sigma")


@pytest.fixture(scope="session")
def tent_1d():
    return catalog.get("tent_1d")


@pytest.fixture(scope="session")
def sigma_1d():
    return catalog.get("sigma_1d")


@pytest.fixture(scope="session")
def overlap_bad():
    return catalog.get("overlap_bad")


@pytest.fixture(scope="session")
def all_entries():
    return catalog.catalog()


@dataclass(frozen=True)
class CatalogFacts:
    """A catalog system's facts, worked out by hand: its coincidence and
    value sets as unions of segments and points; whether it meets the
    finite branch condition (every coincidence piece a point); whether the
    open box passes the open set condition; whether the box is the
    attractor; and whether the uniform-weight measure is Lebesgue."""

    coincidence_segments: tuple = ()
    coincidence_points: tuple = ()
    value_segments: tuple = ()
    value_points: tuple = ()
    finite_branch: bool = True
    osc_should_pass: bool = True
    is_attractor: bool = True
    hutchinson_is_lebesgue: bool = True


def _seg(a, b):
    return np.array([a, b], dtype=float)


_THIRD = 1.0 / 3.0

CATALOG_FACTS = {
    "tent_square": CatalogFacts(
        coincidence_segments=(_seg([0.0, 1.0], [1.0, 1.0]), _seg([1.0, 0.0], [1.0, 1.0])),
        value_segments=(_seg([0.0, 0.5], [1.0, 0.5]), _seg([0.5, 0.0], [0.5, 1.0])),
        finite_branch=False),
    "tent_sigma": CatalogFacts(
        coincidence_segments=(
            _seg([0.0, 1.0], [1.0, 1.0]),   # vertical fold of the y-zigzag
            _seg([0.0, 0.0], [1.0, 0.0]),   # second fold
            _seg([1.0, 0.0], [1.0, 1.0]),   # fold of the x-tent
        ),
        value_segments=(
            _seg([0.0, _THIRD], [1.0, _THIRD]),
            _seg([0.0, 2 * _THIRD], [1.0, 2 * _THIRD]),
            _seg([0.5, 0.0], [0.5, 1.0]),
        ),
        finite_branch=False),
    "tent_1d": CatalogFacts(coincidence_points=(np.array([1.0]),),
                            value_points=(np.array([0.5]),)),
    "sigma_1d": CatalogFacts(coincidence_points=(np.array([1.0]), np.array([0.0])),
                             value_points=(np.array([_THIRD]), np.array([2 * _THIRD]))),
    "overlap_bad": CatalogFacts(osc_should_pass=False, is_attractor=False,
                                hutchinson_is_lebesgue=False),
}


def point_segment_distance(point, endpoints):
    """Distance from a point to the closed segment between two endpoints."""
    a, b = endpoints
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((point - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(point - (a + t * ab)))


def is_finite_branch(ifs):
    """The finite branch condition: every coincidence piece is a point."""
    return all(piece.dimension <= 0 for piece in branch_coincidence_set(ifs))


def reference_pieces_match_expected(pieces, expected_segments, expected_points=(),
                                    tol=1e-9):
    """Union equality, within `tol`, of reported pieces and stated segments
    and points.  Every sample of every piece lies within `tol` of the
    stated union, every stated point is hit by a piece, and the collinear
    pieces cover every stated segment (a 1-D interval-union argument)."""
    expected_segments = [np.asarray(seg, dtype=float) for seg in expected_segments]
    expected_points = [np.asarray(p, dtype=float) for p in expected_points]
    union = expected_segments + expected_points

    def distance(point):
        return min((float(np.linalg.norm(point - piece)) if piece.ndim == 1
                    else point_segment_distance(point, piece) for piece in union),
                   default=np.inf)

    if not pieces:
        return not union
    for piece in pieces:
        if piece.dimension > 1:
            return False
        for x in piece.sample():
            if distance(x) > tol:
                return False
    for point in expected_points:
        if not any((p.dimension == 0 and np.linalg.norm(p.point - point) <= tol)
                   or (p.dimension == 1 and point_segment_distance(point, p.endpoints) <= tol)
                   for p in pieces):
            return False
    for seg in expected_segments:
        a, b = seg
        length = float(np.linalg.norm(b - a))
        intervals = []
        for piece in pieces:
            if piece.dimension != 1:
                continue
            e0, e1 = piece.endpoints
            if point_segment_distance(e0, seg) > tol or point_segment_distance(e1, seg) > tol:
                continue
            t0 = float((e0 - a) @ (b - a)) / length**2
            t1 = float((e1 - a) @ (b - a)) / length**2
            intervals.append(tuple(sorted((t0, t1))))
        if not intervals:
            return False
        intervals.sort()
        covered = 0.0
        for lo, hi in intervals:
            if lo > covered + tol / length:
                return False
            covered = max(covered, hi)
        if covered < 1.0 - tol / length:
            return False
    return True


def pieces_match_facts(ifs, facts):
    """Whether the computed coincidence and value sets of `ifs` are the
    stated ones of `facts`, each matched by `reference_pieces_match_expected`."""
    coincidence = reference_pieces_match_expected(
        branch_coincidence_set(ifs), facts.coincidence_segments, facts.coincidence_points)
    values = reference_pieces_match_expected(
        branch_value_set(ifs), facts.value_segments, facts.value_points)
    return coincidence and values


def dense_operator(op):
    """The dense matrix of a block operator, built from its block layout:
    entry (k, l) of block w maps the cell l T + w to the cell k T + w, T
    being the number of blocks."""
    tails, rows, cols = op.matrix.shape
    dense = np.zeros((tails * rows, tails * cols), dtype=op.matrix.dtype)
    w = np.arange(tails)
    for k in range(rows):
        for l in range(cols):
            dense[k * tails + w, l * tails + w] = op.matrix[:, k, l]
    return dense


def bump_values(partition, points):
    """(len(points), M) tent values of a bump partition: its `tent_slots`
    scattered into their columns; every other entry is 0.0."""
    columns, tents = partition.tent_slots(points)
    values = np.zeros((len(columns), partition.size))
    rows, slots = np.nonzero(columns >= 0)
    values[rows, columns[rows, slots]] = tents[rows, slots]
    return values


def lattice_nodes(partition):
    """The (M, d) node coordinates of a bump partition, bump k the k-th
    node in lattice (C) order."""
    mesh = np.meshgrid(*[np.arange(lo, hi + 1) for lo, hi in zip(partition.first, partition.last)],
                       indexing="ij")
    return partition.origin + partition.pitch * np.stack([m.ravel() for m in mesh], axis=1)


def word_index(word, n):
    """Flat index of a 1-based letter word, first letter most significant:
    the inverse of `measure.index_word`."""
    idx = 0
    for letter in word:
        idx = idx * n + (letter - 1)
    return idx


def dense_gram_adjoint(matrix, dom_mass, cod_mass):
    """Adjoint solved from <T*g, f> = <g, T f> on the weighted spaces."""
    return np.diag(1.0 / dom_mass) @ np.asarray(matrix).conj().T @ np.diag(cod_mass)


def reference_box_segment_distance(box, endpoints):
    """Distance from one closed box (d, 2) to a segment, one interval at a time.

    dist^2(box, a + s v) is piecewise quadratic and convex in s; each
    interval between the distinct sorted face crossings is minimized at
    its ends and its clamped vertex.
    """
    a, b = np.asarray(endpoints, dtype=float)
    v = b - a
    lo, hi = box[:, 0], box[:, 1]

    def clamp_gap(point):
        return np.maximum(np.maximum(lo - point, point - hi), 0.0)

    breaks = {0.0, 1.0}
    for axis in range(box.shape[0]):
        if v[axis] != 0.0:
            for bound in (lo[axis], hi[axis]):
                s = (bound - a[axis]) / v[axis]
                if 0.0 < s < 1.0:
                    breaks.add(float(s))
    knots = sorted(breaks)
    best = np.inf
    for left, right in zip(knots[:-1], knots[1:]):
        mid = 0.5 * (left + right)
        point = a + mid * v
        low_side = point < lo
        high_side = point > hi
        beta = np.where(low_side, -v, np.where(high_side, v, 0.0))
        alpha = np.where(low_side, lo - a, np.where(high_side, a - hi, 0.0))
        quad_a = float(beta @ beta)
        quad_b = 2.0 * float(alpha @ beta)
        candidates = [left, right]
        if quad_a > 0.0:
            candidates.append(min(max(-quad_b / (2.0 * quad_a), left), right))
        for s in candidates:
            gap = clamp_gap(a + s * v)
            best = min(best, float(gap @ gap))
    return float(np.sqrt(best))


def reference_box_piece_distance(box, piece):
    """Distance from one closed box (d, 2) to a point or segment piece."""
    if piece.dimension == 0:
        gap = np.maximum(np.maximum(box[:, 0] - piece.point, piece.point - box[:, 1]), 0.0)
        return float(np.linalg.norm(gap))
    if piece.dimension == 1:
        return reference_box_segment_distance(box, piece.endpoints)
    raise ValueError("bump partitions support value sets of dimension <= 1")


def overlap_openly(a, b):
    """Whether the open interiors of the boxes a and b (d, 2) meet; stacks
    of boxes (..., d, 2) broadcast and give one flag per box."""
    return np.all(np.maximum(a[..., 0], b[..., 0]) < np.minimum(a[..., 1], b[..., 1]), axis=-1)


def random_ifs(rng, kind):
    """A seeded affine IFS on the unit box: kind "1d", "2d-diagonal" or
    "2d-rotated".  Half of the axis-aligned draws tile the box
    (each axis cut in two, each piece the flipped or unflipped image of
    the box); the rest place 2-3 random contractions anywhere in it."""
    from itertools import product

    from ifslab.geometry import AffineContraction, AmbientBox, IfsSystem

    d = {"1d": 1, "2d-diagonal": 2, "2d-rotated": 2}[kind]
    box = AmbientBox(np.array([[0.0, 1.0]] * d))
    branches = []
    if kind != "2d-rotated" and rng.random() < 0.5:
        cuts = rng.choice([0.5, 1 / 3, 0.4], d)
        for halves in product((0, 1), repeat=d):
            low = np.where(halves, cuts, 0.0)
            size = np.where(halves, 1.0 - cuts, cuts)
            flip = rng.random(d) < 0.5
            branches.append(AffineContraction(np.diag(np.where(flip, -size, size)),
                                              np.where(flip, low + size, low)))
    else:
        for _ in range(int(rng.integers(2, 4))):
            if kind == "2d-rotated":
                angle = rng.uniform(0.0, 2.0 * np.pi)
                turn = np.array([[np.cos(angle), -np.sin(angle)],
                                 [np.sin(angle), np.cos(angle)]])
                linear = rng.uniform(0.2, 0.45) * turn
            else:
                linear = np.diag(rng.uniform(0.2, 0.6, d) * rng.choice([-1.0, 1.0], d))
            images = np.array(list(product((0.0, 1.0), repeat=d))) @ linear.T
            low, high = images.min(axis=0), images.max(axis=0)
            shift = -low + rng.uniform(0.0, 1.0, d) * (1.0 - (high - low))
            branches.append(AffineContraction(linear, shift))
    return IfsSystem(box, branches, name=kind)


def per_piece_box_distances(boxes, pieces):
    """Distance from each closed box (N, d, 2) to the union of the pieces,
    one array pass per piece over all boxes: the loop that
    `box_distances_to_pieces` batches, kept as its bit-for-bit reference."""
    from ifslab.geometry import _clamp_gaps, _rowdot

    def segment_distances(boxes, endpoints):
        a, b = np.asarray(endpoints, dtype=float)
        v = b - a
        lo, hi = boxes[:, :, 0], boxes[:, :, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            crossings = ((boxes - a[:, None]) / v[:, None]).reshape(len(boxes), 2 * len(v))
        crossings = np.where((crossings > 0.0) & (crossings < 1.0), crossings, 0.0)
        ends = np.zeros((len(boxes), 2))
        ends[:, 1] = 1.0
        knots = np.sort(np.concatenate([ends, crossings], axis=1), axis=1)
        left, right = knots[:, :-1], knots[:, 1:]
        midpoints = a + (0.5 * (left + right))[:, :, None] * v
        low_side = midpoints < lo[:, None, :]
        high_side = midpoints > hi[:, None, :]
        beta = np.where(low_side, -v, np.where(high_side, v, 0.0))
        alpha = np.where(low_side, lo[:, None, :] - a,
                         np.where(high_side, a - hi[:, None, :], 0.0))
        quad_a = _rowdot(beta, beta)
        quad_b = 2.0 * _rowdot(alpha, beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.minimum(np.maximum(-quad_b / (2.0 * quad_a), left), right)
        vertex = np.where(quad_a > 0.0, vertex, left)
        s = np.concatenate([left, right, vertex], axis=1)
        gaps = _clamp_gaps(lo[:, None, :], hi[:, None, :], a + s[:, :, None] * v)
        return np.sqrt(_rowdot(gaps, gaps).min(axis=1))

    boxes = np.asarray(boxes, dtype=float)
    best = np.full(len(boxes), np.inf)
    for piece in pieces:
        if piece.dimension == 0:
            gaps = _clamp_gaps(boxes[:, :, 0], boxes[:, :, 1], piece.point)
            distance = np.sqrt(_rowdot(gaps, gaps))
        elif piece.dimension == 1:
            distance = segment_distances(boxes, piece.endpoints)
        else:
            raise ValueError("bump partitions support value sets of dimension <= 1")
        best = np.minimum(best, distance)
    return best


def einsum_cell_grid(ifs, depth):
    """(centers, half frames, hulls) of the depth-m cells, one row per cell:
    the box at depth 0, its branch images at depth 1 (half frames by
    np.einsum("ab,kbc->kac")), and deeper the cells u.v of this grid's
    depth-ceil(m/2) prefixes u and depth-floor(m/2) suffixes v, with L_u =
    F_u H^-1 per cell, the moved centers by np.einsum("uab,vb->uva") and
    the frames by np.einsum("uab,vbc->uvac"): the products
    `measure.word_products` writes as ordered sums, kept as the bit-for-bit
    reference of a grid's centers, frames[classes] and hulls()."""
    d = ifs.dimension
    centers = ifs.box.center[None, :].copy()
    half = np.diag(0.5 * ifs.box.sizes)[None, :, :].copy()
    if depth == 1:
        centers = np.concatenate([g(centers) for g in ifs.branches], axis=0)
        half = np.concatenate([np.einsum("ab,kbc->kac", g.linear, half)
                               for g in ifs.branches], axis=0)
    elif depth > 1:
        prefix_centers, prefix_half, _ = einsum_cell_grid(ifs, (depth + 1) // 2)
        suffix_centers, suffix_half, _ = einsum_cell_grid(ifs, depth // 2)
        linear = prefix_half / (0.5 * ifs.box.sizes)
        moved = np.einsum("uab,vb->uva", linear, suffix_centers - ifs.box.center)
        centers = (prefix_centers[:, None, :] + moved).reshape(-1, d)
        half = np.einsum("uab,vbc->uvac", linear, suffix_half).reshape(-1, d, d)
    extent = np.abs(half).sum(axis=2)
    return centers, half, np.stack([centers - extent, centers + extent], axis=2)


def one_shot_chaos_game(ifs, depth, n_samples, seed, burn_in=100):
    """Chaos-game masses with every step drawn at once: the one-shot form
    that `measure.chaos_game` streams in step blocks, kept as its
    bit-for-bit reference.  The letters come from the doubles of the
    stream by binary search, not from the integer thresholds the streamed
    form compares raw words with.  Which samples count is stated per
    chain, chain c emitting after its first base + (c < extra) steps past
    the burn-in, not as the step-major prefix the streamed form takes."""
    from ifslab.geometry import check_open_set_condition
    from ifslab.measure import bin_points
    from ifslab.sampling import uniform_doubles

    n = ifs.n_branches
    chains = min(1024, n_samples)
    base, extra = divmod(n_samples, chains)
    per_chain = np.full(chains, base, dtype=np.int64)
    per_chain[:extra] += 1
    steps = int(per_chain.max()) + burn_in
    cumulative = np.cumsum(ifs.weights)
    cumulative[-1] = 1.0
    letters = np.searchsorted(cumulative, uniform_doubles(int(seed), steps * chains),
                              side="right").reshape(steps, chains)
    emitting = per_chain[None, :] >= np.arange(1, steps - burn_in + 1)[:, None]
    if burn_in >= depth - 1 and check_open_set_condition(ifs).passed:
        idx = np.zeros((steps - burn_in, chains), dtype=np.int64)
        for back in range(depth):
            idx *= n
            idx += letters[burn_in - back:steps - back]
        cells = idx[emitting]
    else:
        x = np.tile(ifs.box.center, (chains, 1))
        points = []
        for k, step_letters in enumerate(letters):
            for i, gamma in enumerate(ifs.branches):
                sel = step_letters == i
                if sel.any():
                    x[sel] = gamma(x[sel])
            if k >= burn_in:
                points.append(x[emitting[k - burn_in]])
        cells = bin_points(ifs, np.concatenate(points), depth)
    assert len(cells) == n_samples
    return np.bincount(cells, minlength=n**depth) / n_samples


def dense_reconstruction_pairs(ifs, symbol, partition, level):
    """(rows, xi, eta): the support rows of the level-m cells and the pairs
    xi_k = n a sqrt(f_k), eta_k = sqrt(f_k) on them as dense (rows, M)
    arrays, every tent of the partition evaluated.  Kept as the reference
    that the sparse `ReconstructionVectors` must scatter to bit for bit."""
    from ifslab.measure import cell_grid

    centers = cell_grid(ifs, level).centers
    rows = partition.support_rows(centers)
    points = centers[rows]
    a_vals = np.asarray(symbol(points), dtype=float)
    roots = np.sqrt(bump_values(partition, points))
    return rows, (ifs.n_branches * a_vals)[:, None] * roots, roots


def assembled_reconstruction_residual(ifs, symbol, partition, level):
    """The reconstruction residual built by copies, as a CellOperator with
    every tail's block: dense pairs on the support rows, eta stacked with a
    zero row, every support row's partner row gathered for each letter, the
    blocks scaled into a new array and M_a subtracted through the operator
    algebra.  Kept as the reference that `reconstruction_residual`, which
    builds the blocks that can be nonzero in place, must equal bit for bit.
    The reference symbol is averaged on every cell."""
    from ifslab.measure import cell_grid
    from ifslab.operators import CellFunction, CellOperator, mult_op, sample_to_cells

    rows, xi, eta = dense_reconstruction_pairs(ifs, symbol, partition, level)
    a_ref = CellFunction(level, sample_to_cells(symbol, cell_grid(ifs, level).hulls()))
    n = ifs.n_branches
    count = n ** (level - 1)
    position = np.full(n * count, len(rows))
    position[rows] = np.arange(len(rows))
    eta = np.vstack([eta, np.zeros((1, partition.size))])
    tail, first = rows % count, rows // count
    blocks = np.zeros((count, n, n))
    for j in range(n):
        blocks[tail, first, j] = np.einsum("rk,rk->r", xi, eta[position[j * count + tail]])
    reconstructed = CellOperator(level, level, blocks * ifs.weights, ifs.weights)
    return reconstructed.subtract(mult_op(ifs, a_ref))


def whole_depth_average_points(ifs, depth):
    """The averaging points of every depth-m cell in one offset-major
    (s T, d) array."""
    from ifslab.measure import cell_grid
    from ifslab.operators import _offset_points

    return _offset_points(cell_grid(ifs, depth).hulls())


def per_offset_average(ifs, evaluator, level):
    """The averaging rule on every cell, with one evaluator call per Halton offset."""
    from ifslab.measure import cell_grid
    from ifslab.sampling import halton_points

    hulls = cell_grid(ifs, level).hulls()
    lo = hulls[:, :, 0]
    sizes = hulls[:, :, 1] - hulls[:, :, 0]
    total = 0.0
    for offset in halton_points(5, ifs.dimension):
        total = total + np.asarray(evaluator(lo + offset * sizes))
    return total / 5


def whole_depth_branch_points(ifs, depth):
    """The n branch images of the depth-m averaging points in one (s n T, d)
    array ordered by offset, then branch, then cell, each branch applied to
    one offset's T points at a time."""
    from ifslab.operators import DEFAULT_AVERAGE_POINTS

    averaging = whole_depth_average_points(ifs, depth)
    n = ifs.n_branches
    count = len(averaging) // DEFAULT_AVERAGE_POINTS
    images = np.empty((n * len(averaging), ifs.dimension))
    for s in range(DEFAULT_AVERAGE_POINTS):
        points = averaging[s * count:(s + 1) * count]
        for i, gamma in enumerate(ifs.branches):
            row = (s * n + i) * count
            images[row:row + count] = gamma(points)
    return images


def blockwise_values(evaluator, points, count):
    """The evaluator's values on `points`, one block of `count` rows at a
    time: each call takes as many whole blocks as fit in 2^15 rows, and a
    block longer than that is evaluated in slices of 2^15 rows."""
    per_call = max(1, 2**15 // count) * count
    for start in range(0, len(points), per_call):
        chunk = points[start:start + per_call]
        values = np.concatenate([np.asarray(evaluator(chunk[k:k + 2**15]))
                                 for k in range(0, len(chunk), 2**15)])
        yield from values.reshape(-1, count)


def whole_depth_transfer(ifs, evaluator, depth):
    """The averaging rule applied to L a = (1/n) sum_i a o gamma_i on every
    depth-m cell: the whole-depth branch images evaluated in calls of whole
    blocks of at most 2^15 rows, branches summed in order and divided by n,
    offsets summed in order from 0.0."""
    from ifslab.operators import DEFAULT_AVERAGE_POINTS

    n = ifs.n_branches
    points = whole_depth_branch_points(ifs, depth)
    count = len(points) // (DEFAULT_AVERAGE_POINTS * n)
    blocks = blockwise_values(evaluator, points, count)
    total = np.zeros(count)
    for _ in range(DEFAULT_AVERAGE_POINTS):
        branch_sum = np.zeros(count)
        for _ in range(n):
            branch_sum += next(blocks)
        total = total + branch_sum / n
    return total / DEFAULT_AVERAGE_POINTS


def trig_field(symbol):
    """The pointwise evaluator of a `sampling.TrigSymbol`:
    b0 + x @ slope + sum_j amp_j cos(pi x @ k_j + ph_j), evaluated left to
    right in two buffers.  No command evaluates a trig symbol pointwise; the
    oracles below average it on points, as the covariance check once did."""
    def evaluate(points):
        points = np.atleast_2d(points)
        val = points @ symbol.slope
        val += symbol.b0
        for k, amp, ph in zip(symbol.k, symbol.amp, symbol.ph):
            wave = points @ k
            wave *= np.pi
            wave += ph
            np.cos(wave, out=wave)
            wave *= amp
            val += wave
        return val
    return evaluate


def whole_depth_covariance_residual(ifs, symbol, depth):
    """max_w |sum_i p_i a(i.w) - (La)(w)| from whole-depth arrays: a sampled
    pointwise on every depth-(m+1) cell at once, La on every depth-m cell at
    once, and the sum over i the row-times-column np.matmul product.  Kept
    as the pointwise oracle of the closed-form, tail-block
    `cli.covariance_residual`."""
    from ifslab.measure import cell_grid
    from ifslab.operators import sample_to_cells

    n = ifs.n_branches
    field = trig_field(symbol)
    a_fine = sample_to_cells(field, cell_grid(ifs, depth + 1).hulls())
    products = np.ascontiguousarray(a_fine.reshape(n, -1).T) * ifs.weights
    lhs = np.matmul(products[:, None, :], np.ones((n, 1)))[:, 0, 0]
    return float(np.abs(lhs - whole_depth_transfer(ifs, field, depth)).max())


def assembled_covariant_rep_check(ifs, depth, trials, seed=0):
    """The covariant-representation residuals through the operator algebra:
    five multiplication operators composed with C and C*, two differences
    and their norms per trial.  Kept as the reference that
    `covariant_rep_check`, which forms the two diagonal identities
    directly, must equal bit for bit."""
    from ifslab.operators import (CellFunction, adjoint_composition_op, composition_op,
                                  mult_op, operator_norm, transfer_values)
    from ifslab.sampling import uniform_doubles

    comp = composition_op(ifs, depth)
    comp_star = adjoint_composition_op(ifs, depth)
    count = ifs.n_branches ** (depth + 1)
    worst1 = worst2 = 0.0
    for t in range(trials):
        u = uniform_doubles((seed, t), 6 * count).reshape(6, count)
        a = CellFunction(depth + 1, (2 * u[0] - 1) + 1j * (2 * u[1] - 1))
        xi = CellFunction(depth + 1, (2 * u[2] - 1) + 1j * (2 * u[3] - 1))
        eta = CellFunction(depth + 1, (2 * u[4] - 1) + 1j * (2 * u[5] - 1))
        lhs1 = mult_op(ifs, a).compose(mult_op(ifs, xi)).compose(comp)
        rhs1 = mult_op(ifs, CellFunction(depth + 1, a.values * xi.values)).compose(comp)
        worst1 = max(worst1, operator_norm(lhs1.subtract(rhs1)))
        inner = np.conj(xi.values) * eta.values
        lhs2 = comp_star.compose(mult_op(ifs, CellFunction(depth + 1, inner))).compose(comp)
        rhs2 = mult_op(ifs, CellFunction(depth, transfer_values(ifs, inner)))
        worst2 = max(worst2, operator_norm(lhs2.subtract(rhs2)))
    return worst1, worst2


def stacked_isometry_residual(ifs, depth):
    """|C*C - I| on V_m from the whole-depth stacks: C as (n^m, n, 1), the
    identity as n^m diagonal blocks.  Kept as the oracle of the isometry
    residual of `cli.identity_residuals`, which takes the one block every
    tail shares."""
    from ifslab.operators import CellFunction, composition_op, mult_op, operator_norm

    comp = composition_op(ifs, depth)
    identity = mult_op(ifs, CellFunction(depth, np.ones(ifs.n_branches**depth)))
    return operator_norm(comp.adjoint().compose(comp).subtract(identity))


def stacked_projection_residual(ifs, depth):
    """|(C C*)^2 - C C*| from the whole-depth (n^m, n, n) stacks: the oracle
    of the projection residual of `cli.identity_residuals`."""
    from ifslab.operators import composition_op, operator_norm

    comp = composition_op(ifs, depth)
    proj = comp.compose(comp.adjoint())
    return operator_norm(proj.compose(proj).subtract(proj))


def stacked_transfer_equality_residual(ifs, depth):
    """max |C* - L| from the whole-depth (n^m, 1, n) stacks: the oracle of
    the transfer-eq residual of `cli.identity_residuals`."""
    from ifslab.operators import adjoint_composition_op, transfer_op

    cstar = adjoint_composition_op(ifs, depth)
    transfer = transfer_op(ifs, depth)
    return float(np.abs(cstar.subtract(transfer).matrix).max())


def grid_test_systems():
    """Fresh copies (empty caches) of the catalog systems and of seeded
    "2d-rotated" random_ifs systems: the systems on which cell
    frames formed near a region are checked against `einsum_cell_grid`,
    and on which the covariance gap must form no finer frame."""
    from ifslab.geometry import IfsSystem

    rng = np.random.default_rng(11)  # two-branch rotated systems
    systems = [entry.system for entry in catalog.catalog()]
    systems += [random_ifs(rng, kind) for kind in ("2d-rotated", "2d-rotated")]
    return [IfsSystem(ifs.box, ifs.branches, weights=ifs.weights, name=ifs.name)
            for ifs in systems]
