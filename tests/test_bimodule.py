import contextlib
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
import pytest

from conftest import (assembled_covariant_rep_check, assembled_reconstruction_residual,
                      bump_values, dense_gram_adjoint, dense_operator, dense_reconstruction_pairs,
                      einsum_cell_grid, grid_test_systems, lattice_nodes, overlap_openly,
                      per_offset_average, per_piece_box_distances, random_ifs,
                      reference_box_piece_distance)
from ifslab import bimodule as bi
from ifslab.bimodule import (AdmissibleSymbol, BumpPartition, build_bump_partition,
                             covariant_rep_check, reconstruction_residual,
                             reconstruction_symbol, reconstruction_vectors, theta_apply,
                             verify_operator_reconstruction, verify_theta_reconstruction)
from ifslab.errors import CoverFailure, DepthMismatch
from ifslab.geometry import box_distances_to_pieces, box_intersection, branch_value_set
from ifslab.measure import cell_grid, exact_cell_masses
from ifslab.operators import (CellFunction, CellOperator, adjoint_composition_op,
                              composition_op, max_spectral_norm, mult_op, operator_norm,
                              sample_to_cells)
from ifslab.sampling import uniform_doubles


def random_elements(ifs, depth, seed, count):
    cells = ifs.n_branches**depth
    u = uniform_doubles(seed, 2 * count * cells).reshape(count, 2, cells)
    return [CellFunction(depth, (2 * ui[0] - 1) + 1j * (2 * ui[1] - 1)) for ui in u]


def module_inner(ifs, eta, zeta):
    """<eta, zeta>_A read off theta_{1,eta} zeta = <eta, zeta>_A o phi: its
    values on the cells of the first letter."""
    ones = CellFunction(eta.depth, np.ones(eta.values.size))
    return theta_apply(ifs, ones, eta, zeta).values[:eta.values.size // ifs.n_branches]


def theta_columns(ifs, xi, eta):
    """theta_{xi,eta} as a dense matrix on V_m: column c is its image of the
    indicator of cell c."""
    return np.stack([theta_apply(ifs, xi, eta, CellFunction(xi.depth, column)).values
                     for column in np.eye(xi.values.size)], axis=1)


# ---------------------------------------------------------------------------
# A-valued inner product and module actions, through theta_{1,eta}
# ---------------------------------------------------------------------------

def test_inner_of_ones_is_one(tent_square):
    ones = CellFunction(3, np.ones(64))
    out = module_inner(tent_square.system, ones, ones)
    np.testing.assert_allclose(out, 1.0, rtol=0, atol=1e-15)


def test_inner_positive(tent_square):
    for xi in random_elements(tent_square.system, 3, 51, 50):
        out = module_inner(tent_square.system, xi, xi)
        assert np.all(out.real >= 0)
        assert np.abs(out.imag).max() <= 1e-16


def test_inner_matches_direct_summation(tent_square):
    # oracle: (1/4) sum_i conj(xi) eta read off the four child blocks
    ifs = tent_square.system
    xi, eta = random_elements(ifs, 2, 52, 2)
    out = module_inner(ifs, xi, eta)
    direct = np.zeros(4, dtype=complex)
    for w in range(4):
        direct[w] = sum(np.conj(xi.values[i * 4 + w]) * eta.values[i * 4 + w]
                        for i in range(4)) / 4.0
    np.testing.assert_allclose(out, direct, atol=1e-15)


def test_inner_hermitian(tent_square):
    ifs = tent_square.system
    xi, eta = random_elements(ifs, 3, 53, 2)
    left = module_inner(ifs, xi, eta)
    right = module_inner(ifs, eta, xi)
    np.testing.assert_allclose(left, np.conj(right), atol=1e-16)


def test_right_linearity(tent_square):
    # <xi, eta . b>_A = <xi, eta>_A b at cell level, (eta . b)(i.w) = eta(i.w) b(w)
    ifs = tent_square.system
    xi, eta = random_elements(ifs, 2, 55, 2)
    (b_full,) = random_elements(ifs, 1, 56, 1)
    acted = CellFunction(2, eta.values * np.tile(b_full.values, 4))
    lhs = module_inner(ifs, xi, acted)
    rhs = module_inner(ifs, xi, eta) * b_full.values
    np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_left_action_moves_conjugated(tent_square):
    # <a . xi, eta>_A = <xi, conj(a) . eta>_A
    ifs = tent_square.system
    a, xi, eta = random_elements(ifs, 2, 57, 3)
    lhs = module_inner(ifs, CellFunction(2, a.values * xi.values), eta)
    rhs = module_inner(ifs, xi, CellFunction(2, np.conj(a.values) * eta.values))
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


# ---------------------------------------------------------------------------
# theta operators
# ---------------------------------------------------------------------------

def test_theta_unit_inner_gives_identity(tent_square):
    ifs = tent_square.system
    eta = CellFunction(2, np.ones(16))
    assert np.allclose(module_inner(ifs, eta, eta), 1.0)
    (xi,) = random_elements(ifs, 2, 62, 1)
    out = theta_apply(ifs, xi, eta, eta)
    np.testing.assert_allclose(out.values, xi.values, atol=1e-15)


def test_theta_rank_bound(tent_square):
    # rank of zeta -> theta_{xi,eta} zeta is at most dim V_m (one A factor)
    ifs = tent_square.system
    xi, eta = random_elements(ifs, 2, 63, 2)
    assert np.linalg.matrix_rank(theta_columns(ifs, xi, eta), tol=1e-10) <= 4


def test_theta_adjoint_swaps_arguments(tent_square):
    ifs = tent_square.system
    xi, eta = random_elements(ifs, 2, 64, 2)
    mass = exact_cell_masses(ifs, 2).masses
    adj = dense_gram_adjoint(theta_columns(ifs, xi, eta), mass, mass)
    swapped = theta_columns(ifs, eta, xi)
    assert np.abs(adj - swapped).max() <= 1e-13


def test_theta_composition_law(tent_square):
    # theta_{xi,eta} theta_{xi',eta'} = theta_{xi . <eta, xi'>_A, eta'},
    # and xi . <eta, xi'>_A is theta_{xi,eta} xi'
    ifs = tent_square.system
    xi, eta, xi2, eta2 = random_elements(ifs, 2, 65, 4)
    product = theta_columns(ifs, xi, eta) @ theta_columns(ifs, xi2, eta2)
    target = theta_columns(ifs, theta_apply(ifs, xi, eta, xi2), eta2)
    assert np.abs(product - target).max() <= 1e-12


def test_theta_depth_checks(tent_square, tent_1d):
    from ifslab.geometry import IfsSystem

    ifs = tent_square.system
    (xi,) = random_elements(ifs, 2, 66, 1)
    (zeta,) = random_elements(ifs, 1, 67, 1)
    with pytest.raises(DepthMismatch):
        theta_apply(ifs, xi, xi, zeta)
    (unit,) = random_elements(ifs, 0, 68, 1)
    with pytest.raises(DepthMismatch):
        theta_apply(ifs, unit, unit, unit)
    skew = IfsSystem(tent_1d.system.box, tent_1d.system.branches, weights=[0.25, 0.75])
    (xi,) = random_elements(skew, 2, 69, 1)
    with pytest.raises(ValueError, match="uniform weights"):
        theta_apply(skew, xi, xi, xi)


# ---------------------------------------------------------------------------
# bump partitions
# ---------------------------------------------------------------------------

def test_partition_exists_for_clear_support(tent_square):
    symbol = AdmissibleSymbol([[0.1, 0.4], [0.1, 0.4]], 0.05)
    partition = build_bump_partition(tent_square.system, symbol)
    assert partition.size > 0
    assert 2 * partition.pitch <= 0.1  # rectangle side
    # normalization on 10^3 support points
    u = uniform_doubles(70, 2000).reshape(1000, 2)
    pts = 0.1 + 0.3 * u
    assert np.abs(bump_values(partition, pts).sum(axis=1) - 1.0).max() <= 1e-12


def test_partition_rectangles_clear_value_set(tent_square):
    symbol = AdmissibleSymbol([[0.1, 0.4], [0.1, 0.4]], 0.05)
    partition = build_bump_partition(tent_square.system, symbol)
    # every rectangle avoids the delta/2 neighborhood of the cross lines
    for node in lattice_nodes(partition):
        hull = np.stack([node - partition.pitch, node + partition.pitch], axis=1)
        assert hull[0, 1] <= 0.5 - 0.025 or hull[0, 0] >= 0.5 + 0.025
        assert hull[1, 1] <= 0.5 - 0.025 or hull[1, 0] >= 0.5 + 0.025


def test_support_touching_value_set_rejected(tent_square):
    symbol = AdmissibleSymbol([[0.1, 0.48], [0.1, 0.4]], 0.05)
    with pytest.raises(ValueError, match="support is 0.02 from the two-branch value set"):
        build_bump_partition(tent_square.system, symbol)


@dataclass(frozen=True)
class ScaledWindow(AdmissibleSymbol):
    """`amplitude` times the sin^2 window on `support_box`."""

    amplitude: float = 1.0

    def __call__(self, points):
        return self.amplitude * super().__call__(points)


def scaled_window(support, amplitude):
    return ScaledWindow(support, 0.05, amplitude)


def pitch_floor(ifs, delta):
    """The first dyadic pitch, from a quarter of the shortest box side
    down, at or below delta / (8 sqrt(d))."""
    pitch = 2.0 ** np.floor(np.log2(ifs.box.sizes.min() / 4.0))
    while pitch > delta / (8.0 * np.sqrt(ifs.dimension)):
        pitch /= 2.0
    return pitch


def test_cover_failure_reports_obstruction():
    # a window across the face x = 1/2 of two quarter images, the value set
    # empty: every pitch's union meets both images, and the refusal names
    # the first branch it meets and the union box at the floor
    quarters = straddle_cases()[3][1]
    support = [[0.3, 0.6], [0.2, 0.3]]
    with pytest.raises(CoverFailure) as excinfo:
        build_bump_partition(quarters, AdmissibleSymbol(support, 0.05))
    failure = excinfo.value
    floor = pitch_floor(quarters, 0.05)
    assert floor == 2.0**-8
    assert failure.condition == "foreign-branch 1"
    assert failure.box.tobytes() == union_box(quarters, support, floor).tobytes()
    assert str(failure).startswith(f"no admissible rectangle pitch down to {floor} "
                                   "(condition foreign-branch 1 on the union box [[")


def reference_image_box(gamma, box):
    """Bounding box of the images of the vertices of one box."""
    images = gamma(np.array(list(product(*box))))
    return np.stack([images.min(axis=0), images.max(axis=0)], axis=1)


def reference_rectangle_conditions(ifs, node, pitch, value_pieces, clearance):
    """Conditions (1)-(3) for the rectangle of one node: None or the failed name."""
    rect = np.stack([node - pitch, node + pitch], axis=1)
    clipped = box_intersection(rect, ifs.box.intervals)
    if clipped is None:
        return None
    for piece in value_pieces:
        if reference_box_piece_distance(clipped, piece) < clearance:
            return "value-set-clearance"
    members = set()
    for i, gamma in enumerate(ifs.branches, start=1):
        pre = gamma.inverse(node)
        if np.all((pre >= ifs.box.lo - 1e-12) & (pre <= ifs.box.hi + 1e-12)):
            members.add(i)
    image_boxes = [reference_image_box(gamma, ifs.box.intervals) for gamma in ifs.branches]
    for i in range(1, ifs.n_branches + 1):
        if i in members:
            gamma = ifs.branches[i - 1]
            corners = np.array(np.meshgrid(*clipped, indexing="ij")).reshape(ifs.dimension, -1).T
            pre = gamma.inverse(corners)
            pre_box = np.stack([pre.min(axis=0), pre.max(axis=0)], axis=1)
            pre_box = box_intersection(pre_box, ifs.box.intervals)
            if pre_box is None:
                continue
            for j, gamma_j in enumerate(ifs.branches, start=1):
                if j != i and overlap_openly(reference_image_box(gamma_j, pre_box), clipped):
                    return "branch-return"
        elif overlap_openly(clipped, image_boxes[i - 1]):
            return "foreign-branch"
    return None


def lattice_failures(ifs, nodes, pitch, clearance):
    """Per node, whether its rectangle fails one of conditions (1)-(3):
    `reference_rectangle_conditions` for every node at once, the clearance
    from `per_piece_box_distances`."""
    box = ifs.box.intervals
    d = ifs.dimension
    pick = np.array(list(product((0, 1), repeat=d)))

    def corners(boxes):  # (N, d, 2) -> (N, 2^d, d)
        return boxes[:, np.arange(d), pick]

    def hull(points):  # (N, 2^d, d) -> (N, d, 2)
        return np.stack([points.min(axis=1), points.max(axis=1)], axis=2)

    clipped = np.stack([np.maximum(nodes - pitch, box[:, 0]),
                        np.minimum(nodes + pitch, box[:, 1])], axis=2)
    live = np.all(clipped[:, :, 0] <= clipped[:, :, 1], axis=1)
    fails = np.zeros(len(nodes), dtype=bool)
    fails[live] = per_piece_box_distances(clipped[live], branch_value_set(ifs)) < clearance
    for i, gamma in enumerate(ifs.branches):
        pre = gamma.inverse(nodes)
        own = np.all((pre >= ifs.box.lo - 1e-12) & (pre <= ifs.box.hi + 1e-12), axis=1)
        fails |= live & ~own & overlap_openly(clipped, reference_image_box(gamma, box))
        # branch-return, for the live nodes in gamma's image
        rows = np.flatnonzero(live & own)
        shape = (len(rows), 2**d, d)
        pre_hull = hull(gamma.inverse(corners(clipped[rows]).reshape(-1, d)).reshape(shape))
        pre_box = np.stack([np.maximum(pre_hull[:, :, 0], box[:, 0]),
                            np.minimum(pre_hull[:, :, 1], box[:, 1])], axis=2)
        kept = np.all(pre_box[:, :, 0] <= pre_box[:, :, 1], axis=1)
        rows, pre_box = rows[kept], pre_box[kept]
        shape = (len(rows), 2**d, d)
        for j, other in enumerate(ifs.branches):
            if j != i:
                returned = hull(other(corners(pre_box).reshape(-1, d)).reshape(shape))
                fails[rows] |= overlap_openly(returned, clipped[rows])
    return fails


def reference_partition(ifs, symbol):
    """The node-by-node bump partition search down to the pitch floor: the
    lattice of the first pitch whose every rectangle passes conditions
    (1)-(3) (`lattice_failures`), or None."""
    support = np.asarray(symbol.support_box, dtype=float)
    lo = ifs.box.lo
    pitch = 2.0 ** np.floor(np.log2(ifs.box.sizes.min() / 4.0))
    while pitch >= pitch_floor(ifs, symbol.delta):
        first = np.floor((support[:, 0] - pitch - lo) / pitch).astype(int) + 1
        last = np.ceil((support[:, 1] + pitch - lo) / pitch).astype(int) - 1
        lattice = BumpPartition(lo, first, last, float(pitch), symbol.delta / 2.0)
        if not lattice_failures(ifs, lattice_nodes(lattice), pitch, lattice.margin).any():
            return lattice
        pitch /= 2.0
    return None


def oracle_cases():
    """(label, ifs, symbol): the reconstruction symbols of the separated
    catalog systems and seeded random supports on random 1-D and 2-D
    systems."""
    from ifslab import catalog

    cases = []
    for name in ("tent_square", "tent_sigma", "tent_1d", "sigma_1d"):
        ifs = catalog.get(name).system
        cases.append((name, ifs, reconstruction_symbol(ifs, 0.05)[0]))
    rng = np.random.default_rng(2024)
    for draw in range(25):
        for kind in ("1d", "2d-diagonal", "2d-rotated"):
            ifs = random_ifs(rng, kind)
            for delta in (0.01, 0.05):
                center = rng.uniform(0.0, 1.0, ifs.dimension)
                half = rng.uniform(0.03, 0.15, ifs.dimension)
                support = np.stack([np.maximum(center - half, 0.0),
                                    np.minimum(center + half, 1.0)], axis=1)
                symbol = AdmissibleSymbol(support, delta)
                cases.append((f"{kind} draw {draw} delta {delta}", ifs, symbol))
    return cases + ulp_cases() + straddle_cases() + rotated_face_cases()


def union_box(ifs, support, pitch):
    """U_h: the union of the pitch's rectangles, clipped to the box."""
    reach = bi._lattice(ifs, np.asarray(support, dtype=float), pitch, 0.0).reach()
    box = ifs.box.intervals
    return np.stack([np.maximum(reach[:, 0], box[:, 0]), np.minimum(reach[:, 1], box[:, 1])],
                    axis=1)


def ulp_cases():
    """Symbols whose U_h at pitch 1/16 lies one ulp below, at and one ulp
    above delta/2 from the value set: the rounding slack, not the exact
    distance, decides that pitch."""
    from ifslab import catalog

    cases = []
    for name, support in (("tent_sigma", [[0.1, 0.3], [0.1, 0.2]]),
                          ("tent_square", [[0.05, 0.33], [0.1, 0.31]])):
        ifs = catalog.get(name).system
        pieces = branch_value_set(ifs)
        distance = box_distances_to_pieces(union_box(ifs, support, 1 / 16)[None], pieces)[0]
        for clearance in (np.nextafter(distance, 0.0), distance, np.nextafter(distance, 1.0)):
            cases.append((f"{name} union {clearance - distance:+.2g} from delta/2", ifs,
                          AdmissibleSymbol(support, 2.0 * clearance)))
    return cases


def straddle_cases():
    """Windows whose rectangles straddle the face between two branch
    images, on systems whose branches share one linear part (so the value
    set is empty): the branch test, not the union's distance, decides
    each pitch."""
    from ifslab.geometry import AffineContraction, AmbientBox, IfsSystem

    halves = IfsSystem(AmbientBox(np.array([[0.0, 1.0]])),
                       [AffineContraction(np.array([[0.5]]), np.array([shift]))
                        for shift in (0.0, 0.5)], name="halves")
    quarters = IfsSystem(AmbientBox(np.array([[0.0, 1.0]] * 2)),
                         [AffineContraction(0.5 * np.eye(2), np.array(shift))
                          for shift in product((0.0, 0.5), repeat=2)], name="quarters")
    supports = ((halves, [[0.3, 0.45]]), (halves, [[0.4, 0.6]]),
                (quarters, [[0.3, 0.45], [0.1, 0.3]]), (quarters, [[0.3, 0.6], [0.2, 0.3]]))
    return [(f"{ifs.name} straddling {support}", ifs, AdmissibleSymbol(support, 0.05))
            for ifs, support in supports]


def rotated_face_cases():
    """Windows near a face of a turned branch's image box, the images
    apart: the branch test must check the nodes' branch through the
    inverse map, not the image box."""
    from ifslab.geometry import AffineContraction, AmbientBox, IfsSystem

    def turn(angle):
        return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])

    ifs = IfsSystem(AmbientBox(np.array([[0.0, 1.0]] * 2)),
                    [AffineContraction(0.4 * turn(0.3), np.array([0.15, 0.02])),
                     AffineContraction(0.35 * turn(-0.4), np.array([0.45, 0.55]))],
                    name="2d-rotated")
    supports = ([[0.3, 0.45], [0.2, 0.35]], [[0.42, 0.5], [0.2, 0.4]],
                [[0.2, 0.3], [0.35, 0.45]])
    return [(f"rotated near a face {support}", ifs, AdmissibleSymbol(support, 0.02))
            for support in supports]


def test_accepted_lattices_pass_every_rectangle_condition():
    # soundness: the rectangle of every node of an accepted lattice passes
    # conditions (1)-(3) as the node-by-node oracle tests them
    tally = {}
    for label, ifs, symbol in oracle_cases():
        try:
            partition = build_bump_partition(ifs, symbol)
        except (ValueError, CoverFailure) as exc:
            tally[type(exc)] = tally.get(type(exc), 0) + 1
            continue
        nodes = lattice_nodes(partition)
        failures = lattice_failures(ifs, nodes, partition.pitch, partition.margin)
        assert not failures.any(), (label, nodes[failures])
        tally[ifs.name] = tally.get(ifs.name, 0) + 1
    # the cases reach both refusals and partitions on every kind of system
    assert tally[ValueError] and tally[CoverFailure] >= 5, tally
    assert all(tally.get(kind) for kind in ("1d", "2d-diagonal", "2d-rotated")), tally


def test_lattice_failures_equal_the_per_node_conditions():
    # the array oracle flags exactly the rectangles that the per-node
    # conditions fail, on the small coarse lattices of half the oracle
    # cases, where rectangles fail each condition
    names = {}
    for label, ifs, symbol in oracle_cases()[::2]:
        pieces = branch_value_set(ifs)
        for pitch in (2.0**-3, 2.0**-4, 2.0**-5):
            nodes = lattice_nodes(bi._lattice(ifs, symbol.support_box, pitch, 0.0))
            if len(nodes) > 24:
                continue
            want = [reference_rectangle_conditions(ifs, node, pitch, pieces, symbol.delta / 2)
                    for node in nodes]
            got = lattice_failures(ifs, nodes, pitch, symbol.delta / 2)
            assert got.tolist() == [name is not None for name in want], (label, pitch)
            for name in want:
                names[name] = names.get(name, 0) + 1
    assert all(names.get(name, 0) >= 20 for name in
               (None, "value-set-clearance", "branch-return", "foreign-branch")), names


def test_partition_equals_node_search_on_catalog_windows():
    from ifslab import catalog

    for name, delta in product(("tent_square", "tent_sigma", "tent_1d", "sigma_1d"),
                               (0.01, 0.02, 0.05, 0.06)):
        ifs = catalog.get(name).system
        symbol, partition = reconstruction_symbol(ifs, delta)
        reference = reference_partition(ifs, symbol)
        assert reference is not None, (name, delta)
        assert lattice_nodes(partition).tobytes() == lattice_nodes(reference).tobytes(), \
            (name, delta)
        assert (partition.pitch, partition.margin) == (reference.pitch, reference.margin), \
            (name, delta)


def test_separated_axis_aligned_windows_are_never_refused(monkeypatch):
    # the floor theorem: on an axis-aligned system that passes the open set
    # condition, every branch image shrunk by 2 delta that keeps delta from
    # the value set gets a partition no finer than the floor, whatever its
    # bump count (the lattices' nodes are never formed)
    from ifslab.geometry import check_open_set_condition

    monkeypatch.setenv("IFSLAB_CELL_BUDGET", str(2**62))
    covered = 0
    for seed in range(60):
        for kind in ("1d", "2d-diagonal"):
            ifs = random_ifs(np.random.default_rng(seed), kind)
            if not check_open_set_condition(ifs).passed:
                continue
            for delta in (0.02, 0.05):
                for image in ifs.image_boxes():
                    window = image + [2 * delta, -2 * delta]
                    if np.any(window[:, 1] <= window[:, 0]):
                        continue
                    gap = bi.support_distance_to_value_set(ifs, window)
                    if gap < delta:
                        continue
                    partition = build_bump_partition(ifs, AdmissibleSymbol(window, delta))
                    assert partition.pitch >= pitch_floor(ifs, delta), (seed, kind, delta)
                    covered += 1
    assert covered == 348, covered  # the windows README counts


def test_bump_budget_refuses_a_larger_lattice(tent_square, monkeypatch):
    # the [0.1, 0.4]^2 window at delta 0.05 takes 121 bumps
    symbol = AdmissibleSymbol([[0.1, 0.4], [0.1, 0.4]], 0.05)
    assert build_bump_partition(tent_square.system, symbol).size == 121
    monkeypatch.setenv("IFSLAB_CELL_BUDGET", "120")
    with pytest.raises(CoverFailure, match="121 bumps at pitch 0.03125 exceed the cell "
                                           "budget 120") as excinfo:
        build_bump_partition(tent_square.system, symbol)
    assert excinfo.value.condition == "bump-budget"
    # the pitch loop forms no lattice finer than the first over the budget
    formed = []
    lattice = bi._lattice

    def recorded(*args):
        formed.append(lattice(*args))
        return formed[-1]

    monkeypatch.setattr(bi, "_lattice", recorded)
    with pytest.raises(CoverFailure, match="121 bumps"):
        build_bump_partition(tent_square.system, symbol)
    assert [part.size for part in formed] == [9, 25, 49, 121]


def test_clearance_certificate_at_its_edge(tent_sigma):
    # the window [0.08, 0.27]^2 is 0.063 from tent_sigma's value line
    # y = 1/3, so at delta 0.06 the cover's rectangles sit at the
    # certificate's edge: at every pitch down to the passing one, U_h's
    # distance is the least of the rectangles' distances, bit for bit, and
    # its decision is theirs
    ifs = tent_sigma.system
    pieces = branch_value_set(ifs)
    edge = AdmissibleSymbol([[0.08, 0.27], [0.08, 0.27]], 0.06)
    partition = build_bump_partition(ifs, edge)
    assert partition.size == 196
    box = ifs.box.intervals
    decisions = []
    pitch = 2.0 ** np.floor(np.log2(ifs.box.sizes.min() / 4.0))
    while pitch >= partition.pitch:
        nodes = lattice_nodes(bi._lattice(ifs, edge.support_box, pitch, 0.0))
        rects = np.stack([np.maximum(nodes - pitch, box[:, 0]),
                          np.minimum(nodes + pitch, box[:, 1])], axis=2)
        distances = box_distances_to_pieces(rects, pieces)
        union = box_distances_to_pieces(union_box(ifs, edge.support_box, pitch)[None], pieces)
        assert union[0] == distances.min(), pitch
        decisions.append(bool(union[0] < edge.delta / 2))
        assert decisions[-1] == bool((distances < edge.delta / 2).any()), pitch
        pitch /= 2.0
    assert decisions[0] and not decisions[-1], decisions


def test_branch_tests_run_only_at_the_deciding_pitch(monkeypatch):
    from ifslab import geometry

    kernel_rows, verdicts = [], []

    def kernel(boxes, pieces):
        kernel_rows.append(len(boxes))
        return geometry.box_distances_to_pieces(boxes, pieces)

    def blocking(*args, _original=bi._blocking_branch):
        verdicts.append(_original(*args))
        return verdicts[-1]

    monkeypatch.setattr(bi, "box_distances_to_pieces", kernel)
    monkeypatch.setattr(bi, "_blocking_branch", blocking)
    for label, ifs, symbol in oracle_cases()[:4]:
        for log in (kernel_rows, verdicts):
            log.clear()
        partition = build_bump_partition(ifs, symbol)
        start = 2.0 ** np.floor(np.log2(ifs.box.sizes.min() / 4.0))
        assert partition.pitch < start, label  # coarser pitches failed first
        # the support's gap, then one row per pitch: the unions decide every
        # pitch's clearance, and the passing one is the only one whose
        # branches are tested
        pitches = int(np.log2(start / pitch_floor(ifs, symbol.delta))) + 1
        assert kernel_rows == [1, pitches] and verdicts == [None], label
    for label, ifs, symbol in straddle_cases():
        verdicts.clear()
        with contextlib.suppress(CoverFailure):
            build_bump_partition(ifs, symbol)
        # the union meets the neighbouring image at some pitch that clears
        assert verdicts and verdicts[0] is not None, label


def test_branch_shortcut_keeps_the_slack_from_other_images():
    # a node in branch 1's image alone: a union that touches branch 2's
    # image, or comes within the slack of it, is blocked by branch 2, and
    # so is the union of a node on the face the images share
    halves = straddle_cases()[0][1]
    slack = bi._slack(halves, np.array([[0.3, 0.45]]))

    def lattice(k):  # the one node 0.125 k
        return BumpPartition(np.zeros(1), np.array([k]), np.array([k]), 0.125, 0.0)

    for high, blocked in ((0.5, 2), (0.5 - slack / 2, 2), (0.5 - 2 * slack, None),
                          (0.45, None)):
        assert bi._blocking_branch(halves, lattice(3), np.array([[0.25, high]]),
                                   slack) == blocked, high
    assert bi._blocking_branch(halves, lattice(4), np.array([[0.375, 0.625]]), slack) == 2


def test_admissible_symbol_vanishes_near_value_set(tent_square):
    # points of the value set, each moved by at most delta/2 per axis
    ifs = tent_square.system
    symbol = AdmissibleSymbol([[0.1, 0.4], [0.1, 0.4]], 0.05)
    for k, piece in enumerate(branch_value_set(ifs)):
        anchors = piece.sample()
        if piece.dimension == 1:  # 200 points along the segment
            t = np.linspace(0.0, 1.0, 200)[:, None]
            anchors = piece.endpoints[0] + t * (piece.endpoints[1] - piece.endpoints[0])
        jitter = uniform_doubles((0, k), anchors.size).reshape(anchors.shape) - 0.5
        near = np.clip(anchors + jitter * symbol.delta, ifs.box.lo, ifs.box.hi)
        assert np.abs(symbol(near)).max() <= 1e-12


# ---------------------------------------------------------------------------
# reconstruction vectors and residuals
# ---------------------------------------------------------------------------

def dense_columns(vectors, n_cells):
    """Full-length (cells, M) copies of xi and eta, zero off the support rows."""
    stored = np.arange(len(vectors.rows))
    xi = np.zeros((n_cells, vectors.size))
    eta = np.zeros((n_cells, vectors.size))
    xi[vectors.rows] = vectors.dense(vectors.xi, stored)
    eta[vectors.rows] = vectors.dense(vectors.eta, stored)
    return xi, eta


def full_blocks(residual, n):
    """The residual's blocks with the omitted, exactly zero, ones put back."""
    count = n ** (residual.depth - 1)
    blocks = np.zeros((count, n, n))
    blocks[residual.tails] = residual.matrix
    return blocks


def zero_symbol_case(ifs):
    """The zero field on a support box, and the pitch-1/8 lattice over it:
    nodes k/8, k = 1..3, on every axis."""
    d = ifs.dimension
    symbol = scaled_window([[0.1, 0.4]] * d, 0.0)
    return symbol, BumpPartition(ifs.box.lo, np.full(d, 1), np.full(d, 3), 0.125, 0.025)


def test_vectors_zero_symbol(tent_square):
    symbol, partition = zero_symbol_case(tent_square.system)
    vectors = reconstruction_vectors(tent_square.system, symbol, partition, 3)
    assert vectors.size == 9 and len(vectors.rows) > 0 and not vectors.xi.any()
    residual = reconstruction_residual(tent_square.system, vectors)
    assert verify_operator_reconstruction(residual) == 0.0
    assert verify_theta_reconstruction(tent_square.system, residual) == 0.0


def test_bump_partition_refuses_no_nodes():
    # build_bump_partition always finds a node within one pitch of the support
    with pytest.raises(ValueError, match="at least one node"):
        BumpPartition(np.zeros(2), np.array([1, 1]), np.array([3, 0]), 0.125, 0.025)


def test_vectors_built_from_samples_bit_exactly(tent_square):
    ifs = tent_square.system
    symbol = AdmissibleSymbol([[0.1, 0.4], [0.1, 0.4]], 0.05)
    partition = build_bump_partition(ifs, symbol)
    depth = 3
    vectors = reconstruction_vectors(ifs, symbol, partition, depth)
    centers = cell_grid(ifs, depth).centers
    xis, etas = dense_columns(vectors, len(centers))
    a_vals = symbol(centers)
    bumps = bump_values(partition, centers)
    for k in (0, partition.size // 2, partition.size - 1):
        np.testing.assert_array_equal(xis[:, k], 4 * a_vals * np.sqrt(bumps[:, k]))
        np.testing.assert_array_equal(etas[:, k], np.sqrt(bumps[:, k]))


def test_vectors_reproduce_symbol_pointwise(tent_square):
    # sum_k xi_k conj(eta_k) / n = a sum f_k = a on the support
    ifs = tent_square.system
    symbol = AdmissibleSymbol([[0.1, 0.4], [0.1, 0.4]], 0.05)
    partition = build_bump_partition(ifs, symbol)
    vectors = reconstruction_vectors(ifs, symbol, partition, 4)
    centers = cell_grid(ifs, 4).centers
    xis, etas = dense_columns(vectors, len(centers))
    total = (xis * etas).sum(axis=1) / 4.0
    np.testing.assert_allclose(total, symbol(centers), atol=1e-12)


def theta_residual(ifs, symbol, partition, level):
    vectors = reconstruction_vectors(ifs, symbol, partition, level)
    return verify_theta_reconstruction(ifs, reconstruction_residual(ifs, vectors))


def test_theta_reconstruction_rates(tent_square):
    ifs = tent_square.system
    symbol = AdmissibleSymbol([[0.1, 0.4], [0.1, 0.4]], 0.05)
    partition = build_bump_partition(ifs, symbol)
    residuals = [theta_residual(ifs, symbol, partition, level) for level in (4, 5, 6)]
    for r0, r1 in zip(residuals, residuals[1:]):
        assert 0.3 <= r1 / r0 <= 0.7


def test_broken_partition_detected(tent_square):
    # dropping one pair leaves a hole of size max |a f_dropped|
    ifs = tent_square.system
    symbol = AdmissibleSymbol([[0.1, 0.4], [0.1, 0.4]], 0.05)
    partition = build_bump_partition(ifs, symbol)
    level = 5
    centers = cell_grid(ifs, level).centers
    bumps = bump_values(partition, centers)
    drop = int(np.argmax((np.asarray(symbol(centers)) * bumps.max(axis=1))))
    drop = int(np.argmax(bumps[drop]))
    hole = np.abs(np.asarray(symbol(centers)) * bumps[:, drop]).max()
    assert hole > 0.05
    vectors = reconstruction_vectors(ifs, symbol, partition, level)
    dropped = vectors.columns == drop
    assert dropped.any()
    holed = replace(vectors, columns=np.where(dropped, -1, vectors.columns),
                    xi=np.where(dropped, 0.0, vectors.xi), eta=np.where(dropped, 0.0, vectors.eta))
    broken = verify_theta_reconstruction(ifs, reconstruction_residual(ifs, holed))
    intact = verify_theta_reconstruction(ifs, reconstruction_residual(ifs, vectors))
    assert broken >= hole - intact - 0.02


@pytest.mark.parametrize("pair_rows", [None, 1, 7])
def test_reconstruction_blocks_built_in_place_equal_assembled(monkeypatch, pair_rows):
    # the in-place blocks against the copying form on every tail: dense
    # pairs, stacked eta, full-row gathers, blocks * weights and the
    # subtraction of M_a through the operator algebra; also with einsum
    # calls of one and of seven rows.  The omitted tails' blocks are zero,
    # and both norms equal the full operator's
    from ifslab import catalog

    if pair_rows is not None:
        monkeypatch.setattr(bi, "_PAIR_ROWS", pair_rows)
    for name, levels in (("tent_sigma", (3, 4, 5, 6)), ("tent_square", (3, 4, 5, 6)),
                         ("sigma_1d", (3, 5))):
        if pair_rows is not None and name != "sigma_1d":
            levels = levels[:2]
        entry = catalog.get(name)
        ifs = entry.system
        symbol, partition = reconstruction_symbol(ifs, 0.05)
        for level in levels:
            vectors = reconstruction_vectors(ifs, symbol, partition, level)
            got = reconstruction_residual(ifs, vectors)
            expected = assembled_reconstruction_residual(ifs, symbol, partition, level)
            assert got.depth == expected.dom_depth == expected.cod_depth
            assert 0 < len(got.tails) < len(expected.matrix)
            assert got.matrix.tobytes() == expected.matrix[got.tails].tobytes(), (name, level)
            assert full_blocks(got, ifs.n_branches).tobytes() == expected.matrix.tobytes()
            norm = operator_norm(expected)
            assert verify_operator_reconstruction(got) == norm, (name, level)
            assert verify_theta_reconstruction(ifs, got) == max_spectral_norm(expected.matrix)


def test_sparse_pairs_scatter_to_dense_pairs():
    # each support row keeps its at most 3^d tents with their columns; put
    # back in their columns they are the dense pairs, byte for byte
    from ifslab import catalog

    for name in ("tent_square", "tent_sigma", "tent_1d", "sigma_1d"):
        entry = catalog.get(name)
        ifs = entry.system
        symbol, partition = reconstruction_symbol(ifs, 0.05)
        for level in range(2, 7):
            vectors = reconstruction_vectors(ifs, symbol, partition, level)
            rows, xi, eta = dense_reconstruction_pairs(ifs, symbol, partition, level)
            assert vectors.rows.tobytes() == rows.tobytes()
            assert vectors.size == partition.size
            assert vectors.columns.shape == vectors.xi.shape == vectors.eta.shape \
                == (len(rows), 3**ifs.dimension)
            stored = np.arange(len(rows))
            assert vectors.dense(vectors.xi, stored).tobytes() == xi.tobytes(), (name, level)
            assert vectors.dense(vectors.eta, stored).tobytes() == eta.tobytes(), (name, level)
            # a column appears at most once per row; empty slots hold 0.0
            columns = np.sort(vectors.columns, axis=1)
            assert not np.any((columns[:, 1:] == columns[:, :-1]) & (columns[:, 1:] >= 0))
            assert not vectors.eta[vectors.columns < 0].any()


def test_operator_reconstruction_rates_second_system(tent_sigma):
    ifs = tent_sigma.system
    symbol, partition = reconstruction_symbol(ifs, 0.05)
    residuals = []
    for depth in (2, 3, 4):
        vectors = reconstruction_vectors(ifs, symbol, partition, depth + 1)
        residuals.append(verify_operator_reconstruction(
            reconstruction_residual(ifs, vectors)))
    for r0, r1 in zip(residuals, residuals[1:]):
        assert r1 / r0 <= 0.5  # contracts at least at the dominant ratio


def dense_pairs(ifs, symbol, partition, level):
    """(cells, M) arrays of xi_k = n a sqrt(f_k) and eta_k = sqrt(f_k) on every cell."""
    centers = cell_grid(ifs, level).centers
    a_vals = np.asarray(symbol(centers), dtype=float)
    roots = np.sqrt(bump_values(partition, centers))
    n = ifs.n_branches
    xis = np.zeros_like(roots)
    for k in range(partition.size):
        xis[:, k] = n * a_vals * roots[:, k]
    return xis, roots


def dense_reconstruction(ifs, symbol, partition, level):
    """sum_k M_{xi_k} C C* M_{eta_k}* - M_a from full-length pairs on every cell.

    The reference the support-row kernel must reproduce bit for bit: the
    C C* blocks of every tail, formed from the full-length pairs with the
    same sum over pairs as the kernel.
    """
    xi_cols, eta_cols = dense_pairs(ifs, symbol, partition, level)
    a_ref = CellFunction(level, sample_to_cells(symbol, cell_grid(ifs, level).hulls()))
    n = ifs.n_branches
    count = n ** (level - 1)
    cells = np.arange(n * count)
    blocks = np.zeros((count, n, n))
    for j in range(n):
        blocks[cells % count, cells // count, j] = np.einsum(
            "rk,rk->r", xi_cols, eta_cols[j * count + cells % count])
    reconstructed = CellOperator(level, level, blocks * ifs.weights, ifs.weights)
    return reconstructed.subtract(mult_op(ifs, a_ref))


def dense_operator_residual(ifs, symbol, partition, level):
    """sum_k M_{xi_k} C C* M_{eta_k}* - M_a as a dense matrix, and its weighted norm."""
    xi_cols, eta_cols = dense_pairs(ifs, symbol, partition, level)
    projection = dense_operator(composition_op(ifs, level - 1).compose(
        adjoint_composition_op(ifs, level - 1)))
    a_ref = CellFunction(level, sample_to_cells(symbol, cell_grid(ifs, level).hulls()))
    dense = (xi_cols @ eta_cols.T) * projection - np.diag(a_ref.values)
    root = np.sqrt(exact_cell_masses(ifs, level).masses)
    return dense, np.linalg.svd(root[:, None] * dense / root[None, :], compute_uv=False)[0]


def straddling_case(ifs):
    """A window from the box edge across the value set, and a hand-made tent
    lattice on the whole box.  Not an admissible cover, but the kernels'
    sums must still equal the dense ones, here with several first letters
    per support tail."""
    symbol = AdmissibleSymbol([[0.0, 0.7], [0.2, 0.6]], 0.05)
    return symbol, BumpPartition(ifs.box.lo, np.array([1, 1]), np.array([7, 7]), 0.125, 0.025)


@pytest.mark.parametrize("name", ["tent_square", "tent_sigma", "zero_symbol", "straddling"])
def test_support_kernels_match_dense_oracle(name, tent_square, tent_sigma):
    entry = tent_sigma if name == "tent_sigma" else tent_square
    ifs = entry.system
    if name == "zero_symbol":
        symbol, partition = zero_symbol_case(ifs)
    elif name == "straddling":
        symbol, partition = straddling_case(ifs)
    else:
        symbol, partition = reconstruction_symbol(ifs, 0.05)
    for depth in (2, 3):
        vectors = reconstruction_vectors(ifs, symbol, partition, depth + 1)
        xi_cols, eta_cols = dense_pairs(ifs, symbol, partition, depth + 1)
        stored_xi, stored_eta = dense_columns(vectors, len(xi_cols))
        np.testing.assert_array_equal(stored_xi, xi_cols)
        np.testing.assert_array_equal(stored_eta, eta_cols)
        residual = reconstruction_residual(ifs, vectors)
        reference = dense_reconstruction(ifs, symbol, partition, depth + 1)
        np.testing.assert_array_equal(full_blocks(residual, ifs.n_branches), reference.matrix)
        op = verify_operator_reconstruction(residual)
        assert op == operator_norm(reference)
        # uniform weights: the module norm and the operator norm coincide
        assert verify_theta_reconstruction(ifs, residual) == op
        if depth == 2:
            dense, norm = dense_operator_residual(ifs, symbol, partition, depth + 1)
            assert np.abs(dense_operator(reference) - dense).max() <= 1e-14
            assert abs(op - norm) <= 1e-12 * norm


def dense_theta_fibres(ifs, symbol, partition, level):
    """The fibre blocks of sum_k theta_{xi_k,eta_k} - M_a, one column at a time.

    Column c is the sum over pairs of theta_apply on the indicator of cell
    c, minus a_ref there; it must vanish off the cells that share c's tail.
    Returns (tails, n, n) blocks: entry (i, j) of block w is row i.w of
    column j.w.
    """
    xi_cols, eta_cols = dense_pairs(ifs, symbol, partition, level)
    xis = [CellFunction(level, xi_cols[:, k]) for k in range(partition.size)]
    etas = [CellFunction(level, eta_cols[:, k]) for k in range(partition.size)]
    a_ref = CellFunction(level, sample_to_cells(symbol, cell_grid(ifs, level).hulls()))
    n = ifs.n_branches
    count = n ** (level - 1)
    cells = np.arange(n * count)
    blocks = np.zeros((count, n, n))
    for c in cells:
        zeta = CellFunction(level, (cells == c).astype(float))
        column = -a_ref.values * zeta.values
        for xi, eta in zip(xis, etas):
            column = column + theta_apply(ifs, xi, eta, zeta).values
        fibre = cells % count == c % count
        assert not np.any(column[~fibre]), c
        blocks[c % count, :, c // count] = column[fibre]
    return blocks


@pytest.mark.parametrize("name,levels", [("tent_1d", (2, 3, 4, 5)), ("tent_square", (2, 3)),
                                         ("tent_sigma", (2, 3))])
def test_theta_residual_is_the_dense_module_norm(name, levels, tent_1d, tent_square,
                                                 tent_sigma):
    # |zeta|_X^2 = max_w (1/n) sum_i |zeta(i.w)|^2, so the module norm of a
    # fibrewise operator is the largest spectral norm of its fibre blocks
    entry = {"tent_1d": tent_1d, "tent_square": tent_square, "tent_sigma": tent_sigma}[name]
    ifs = entry.system
    symbol, partition = reconstruction_symbol(ifs, 0.05)
    for level in levels:
        blocks = dense_theta_fibres(ifs, symbol, partition, level)
        oracle = float(np.linalg.norm(blocks, ord=2, axis=(1, 2)).max())
        theta = theta_residual(ifs, symbol, partition, level)
        assert oracle > 0.01
        assert abs(theta - oracle) <= 1e-12, (level, theta, oracle)


def test_theta_residual_requires_uniform_weights(tent_1d):
    from ifslab.geometry import IfsSystem

    ifs = tent_1d.system
    skew = IfsSystem(ifs.box, ifs.branches, weights=[0.25, 0.75])
    symbol, partition = reconstruction_symbol(ifs, 0.05)
    vectors = reconstruction_vectors(skew, symbol, partition, 3)
    with pytest.raises(ValueError):
        verify_theta_reconstruction(skew, reconstruction_residual(skew, vectors))
    with pytest.raises(DepthMismatch):
        reconstruction_residual(ifs, reconstruction_vectors(ifs, symbol, partition, 0))


def test_nearly_uniform_weights_keep_the_scaled_operator_norm():
    # weights within is_hutchinson's 1e-12 of 1/3 but not bit-equal: the
    # theta row is the unweighted block norm, and the operator row rescales
    # the blocks by sqrt(p_i / p_j) and takes its own SVD.  The window runs
    # across the value set (as in `straddling_case`), so a tail's block
    # couples several first letters and the rescaling moves the norm
    from ifslab import catalog
    from ifslab.geometry import IfsSystem

    ifs = catalog.get("sigma_1d").system
    near = IfsSystem(ifs.box, ifs.branches, weights=[1 / 3 + 3e-14, 1 / 3 - 3e-14, 1 / 3],
                     phi=ifs.phi)
    assert near.is_hutchinson() and len(set(near.weights)) == 3
    symbol = AdmissibleSymbol([[0.0, 0.7]], 0.05)
    partition = BumpPartition(ifs.box.lo, np.array([1]), np.array([7]), 0.125, 0.025)
    for level in (2, 3, 4, 5):
        residual = reconstruction_residual(near, reconstruction_vectors(near, symbol,
                                                                        partition, level))
        theta = verify_theta_reconstruction(near, residual)
        op = verify_operator_reconstruction(residual)
        assert theta == max_spectral_norm(residual.matrix), level
        assert op == operator_norm(residual), level
        assert op != theta, level


# ---------------------------------------------------------------------------
# covariant representation
# ---------------------------------------------------------------------------

def test_covariant_rep_residuals(tent_square):
    res1, res2 = covariant_rep_check(tent_square.system, 3, trials=20, seed=1)
    # both sides are the same diagonal-times-C product; only the complex
    # multiply rounding path differs between the two assemblies
    assert res1 <= 1e-15
    assert res2 <= 1e-12


def covariant_rep_systems():
    """Catalog systems, seeded random systems of every kind and 1-D interval
    systems of 2..16 branches, every third with non-uniform weights."""
    from ifslab import catalog
    from ifslab.geometry import AffineContraction, AmbientBox, IfsSystem

    systems = [entry.system for entry in catalog.catalog()]
    rng = np.random.default_rng(17)
    systems += [random_ifs(rng, kind) for kind in ("1d", "2d-diagonal", "2d-rotated")
                for _ in range(2)]
    for n in range(2, 17):
        branches = [AffineContraction(np.array([[1.0 / n]]), np.array([k / n]))
                    for k in range(n)]
        weights = rng.dirichlet(np.ones(n)) if n % 3 == 0 else None
        systems.append(IfsSystem(AmbientBox(np.array([[0.0, 1.0]])), branches,
                                 weights=weights, name=f"interval {n}"))
    return systems


def test_covariant_rep_check_equals_operator_algebra():
    checked = 0
    for ifs in covariant_rep_systems():
        for depth in (0, 1, 2, 3):
            if ifs.n_branches ** (depth + 1) > 4096:
                continue
            for seed in (0, 7):
                got = covariant_rep_check(ifs, depth, 5, seed=seed)
                assert got == assembled_covariant_rep_check(ifs, depth, 5, seed=seed), \
                    (ifs.name, depth, seed)
                checked += 1
    assert checked > 150


def test_isometry_of_unit_module_element(tent_square):
    # V_1* V_1 = rho(<1,1>_A) = identity
    ifs = tent_square.system
    comp = composition_op(ifs, 2)
    ones = CellFunction(3, np.ones(64))
    v_one = mult_op(ifs, ones).compose(comp)
    prod = adjoint_composition_op(ifs, 2).compose(mult_op(ifs, ones)).compose(comp)
    assert np.abs(dense_operator(prod) - np.eye(16)).max() <= 1e-15
    assert abs(operator_norm(v_one) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# Tents at lattice neighbours, reference symbol on its support
# ---------------------------------------------------------------------------

def dense_bump_values(partition, points, chunk=1024):
    """The (points, M) tent values from every (point, node) pair, as
    prod_a max(0, 1 - |x_a - q_a| / h) over a (points, M, d) array."""
    points = np.atleast_2d(points)
    nodes = lattice_nodes(partition)
    blocks = []
    for start in range(0, len(points), chunk):
        part = points[start:start + chunk]
        rel = 1.0 - np.abs(part[:, None, :] - nodes[None, :, :]) / partition.pitch
        blocks.append(np.prod(np.maximum(rel, 0.0), axis=2))
    return np.concatenate(blocks) if blocks else np.zeros((0, partition.size))


def lattice_probe_points(partition, rng):
    """Nodes, points on lattice lines and halfway between them, and points
    beyond the node range on every side."""
    nodes, h = lattice_nodes(partition), partition.pitch
    d = nodes.shape[1]
    probes = [nodes, nodes + h, nodes - h, nodes + 0.5 * h, nodes + 2 * h,
              nodes.min(axis=0) - 3 * h + np.zeros((1, d)),
              nodes.max(axis=0) + 2.5 * h + np.zeros((1, d)),
              np.full((1, d), -100.0), np.full((1, d), 100.0)]
    # a random node-range point moved onto a lattice line along one axis
    spread = rng.uniform(nodes.min(axis=0) - 2 * h, nodes.max(axis=0) + 2 * h, (64, d))
    on_line = spread.copy()
    axis = rng.integers(0, d, 64)
    pick = nodes[rng.integers(0, len(nodes), 64)]
    on_line[np.arange(64), axis] = pick[np.arange(64), axis]
    probes += [spread, on_line]
    return np.vstack(probes)


def catalog_partitions():
    from ifslab import catalog

    for name in ("tent_square", "tent_sigma", "tent_1d", "sigma_1d"):
        ifs = catalog.get(name).system
        yield name, ifs, reconstruction_symbol(ifs, 0.05)[1]


def test_lattice_bump_values_equal_dense_formula_on_catalog():
    rng = np.random.default_rng(11)
    seen = 0
    for name, ifs, partition in catalog_partitions():
        seen += 1
        for level in range(2, 7):
            centers = cell_grid(ifs, level).centers
            got = bump_values(partition, centers)
            assert got.tobytes() == dense_bump_values(partition, centers).tobytes(), (name, level)
        probes = lattice_probe_points(partition, rng)
        got = bump_values(partition, probes)
        assert got.tobytes() == dense_bump_values(partition, probes).tobytes(), name
    assert seen == 4


def test_lattice_bump_values_equal_dense_formula_on_random_systems(monkeypatch):
    from ifslab.geometry import AffineContraction, AmbientBox, IfsSystem

    rng = np.random.default_rng(5)
    # the dense formula visits every node for every point: the budget
    # refuses the lattices too large for it
    monkeypatch.setenv("IFSLAB_CELL_BUDGET", "1024")
    # the tent on [0.1, 1.1]: nodes 0.1 + h k carry rounding off the lattice
    shifted = IfsSystem(AmbientBox(np.array([[0.1, 1.1]])),
                        [AffineContraction(np.array([[0.5]]), np.array([0.05])),
                         AffineContraction(np.array([[-0.5]]), np.array([1.15]))])
    cases = [(shifted, AdmissibleSymbol([[0.7, 1.0]], 0.05))]
    for _ in range(12):
        for kind in ("1d", "2d-diagonal", "2d-rotated"):
            ifs = random_ifs(rng, kind)
            center = rng.uniform(0.0, 1.0, ifs.dimension)
            half = rng.uniform(0.03, 0.15, ifs.dimension)
            support = np.stack([np.maximum(center - half, 0.0),
                                np.minimum(center + half, 1.0)], axis=1)
            cases.append((ifs, AdmissibleSymbol(support, 0.01)))
    built = {1: 0, 2: 0}
    for ifs, symbol in cases:
        try:
            partition = build_bump_partition(ifs, symbol)
        except (ValueError, CoverFailure):
            continue
        built[ifs.dimension] += 1
        probes = np.vstack([lattice_probe_points(partition, rng),
                            rng.uniform(ifs.box.lo, ifs.box.hi, (500, ifs.dimension))])
        got = bump_values(partition, probes)
        assert got.tobytes() == dense_bump_values(partition, probes).tobytes()
    assert all(count >= 2 for count in built.values()), built


def test_reconstruction_vectors_peak_memory(tent_sigma):
    # level 6: 2550 support rows and 196 bumps, at most 9 tents per row, with
    # the depth-3 grid it reads cached.  Only the level-6 cells whose prefix
    # meets the support's region are formed, and the call peaks near 2.0
    # MiB; the whole level-6 grid took it to 6.8 MiB.  Dense (rows, M) pairs
    # took 8.8 MiB more, and the (rows, M, d) temporaries of the dense tent
    # formula 20.2 MiB
    import tracemalloc

    ifs = tent_sigma.system
    symbol = AdmissibleSymbol([[0.08, 0.27], [0.08, 0.27]], 0.05)
    partition = build_bump_partition(ifs, symbol)
    cell_grid(ifs, 3)
    tracemalloc.start()
    try:
        vectors = reconstruction_vectors(ifs, symbol, partition, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vectors.size == 196
    assert vectors.xi.shape == vectors.eta.shape == vectors.columns.shape == (2550, 9)
    assert peak < 3 * 2**20, peak / 2**20


def test_reconstruction_residual_peak_memory(tent_sigma):
    # level 6 with the depth-3 grid cached, after a warm-up call: the pairs
    # and the reference averages come from one set of near cells, and the
    # residual finds partners and tails in the sorted rows.  The dense
    # level-6 reference and the whole-level position, block and kept
    # arrays they replaced peaked at 3 128 800 bytes.  Only the 1 807 tails
    # of the 2 550 support rows whose xi is nonzero, or of a nonzero
    # reference cell, get a block
    import tracemalloc

    ifs = tent_sigma.system
    symbol = AdmissibleSymbol([[0.08, 0.27], [0.08, 0.27]], 0.05)
    partition = build_bump_partition(ifs, symbol)
    cell_grid(ifs, 3)
    reconstruction_residual(ifs, reconstruction_vectors(ifs, symbol, partition, 6))
    tracemalloc.start()
    try:
        residual = reconstruction_residual(ifs, reconstruction_vectors(ifs, symbol, partition, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual.matrix.shape == (1807, 6, 6)
    assert peak < 3_128_800, peak


def test_one_cell_pass_per_reconstruction_level(monkeypatch, tmp_path):
    # the pairs and the reference averages of a level share one cells_near call
    from ifslab import cli

    original = bi.cells_near
    depths = []

    def spy(ifs, depth, region):
        depths.append(depth)
        return original(ifs, depth, region)

    monkeypatch.setattr(bi, "cells_near", spy)
    code = cli.main(["reconstruct", "--system", "tent_sigma", "--depths", "2..4",
                     "--out", str(tmp_path)])
    assert code == 0
    assert depths == [3, 4, 5]


def test_reconstruction_rows_equal_a_full_scan():
    # the support rows and the averaged cells come from the cells whose
    # prefixes meet the hull of the nodes' reach and the support: the rows, in
    # order, the pairs and the reference averages are the ones a scan of
    # every cell of the einsum grid gives, for lattices at the low corner, in
    # the interior and at the high corner of catalog and rotated systems
    selected = 0
    for ifs in grid_test_systems():
        n, d = ifs.n_branches, ifs.dimension
        pitch = float(ifs.box.sizes.min()) / 16
        for first in (ifs.box.lo, ifs.box.lo + 5 * pitch, ifs.box.hi - 2 * pitch):
            partition = BumpPartition(first, np.zeros(d, dtype=int), np.full(d, 2), pitch, 0.0)
            symbol = scaled_window(np.stack([first, first + 2 * pitch], axis=1), 1.0)
            for depth in range(6):
                if n**depth > 5_000:
                    break
                centers, _, boxes = einsum_cell_grid(ifs, depth)
                rows = partition.support_rows(centers)
                vectors = reconstruction_vectors(ifs, symbol, partition, depth)
                assert np.array_equal(vectors.rows, rows), (ifs.name, depth, first)
                columns, roots = partition.tent_slots(centers[rows])
                np.sqrt(roots, out=roots)
                assert vectors.columns.tobytes() == columns.tobytes()
                assert vectors.eta.tobytes() == roots.tobytes()
                xi = (n * symbol(centers[rows]))[:, None] * roots
                assert vectors.xi.tobytes() == xi.tobytes()
                cells = bi._support_cells(boxes, symbol.support_box)
                assert np.array_equal(vectors.reference_cells, cells)
                assert vectors.reference.tobytes() == \
                    sample_to_cells(symbol, boxes[cells]).tobytes()
                selected += 0 < len(rows) < n**depth
        deepest = max(m for m in range(6) if n**m <= 5_000)
        assert ("grid", deepest) not in ifs._cell_cache, ifs.name
    assert selected >= 50, selected


@pytest.mark.parametrize("name,support,amplitude", [
    ("tent_square", [[0.25, 0.5], [0.25, 0.5]], 1.0),
    ("tent_square", [[0.1, 0.4], [0.1, 0.4]], -0.7),
    ("tent_sigma", [[0.08, 0.27], [0.08, 0.27]], 1.0),
    ("tent_1d", [[0.6, 0.9]], -2.0),
])
def test_support_sampling_equals_full_sampling(name, support, amplitude):
    # the reference averages on the cells near the support, 0.0 elsewhere,
    # against the averaging rule on every cell; averaging every cell's box
    # gives the same bytes
    from ifslab import catalog

    ifs = catalog.get(name).system
    symbol = scaled_window(support, amplitude)
    partition = bi._lattice(ifs, symbol.support_box, 2.0**-4, 0.0)
    for depth in range(2, 6):
        full = per_offset_average(ifs, symbol, depth)
        vectors = reconstruction_vectors(ifs, symbol, partition, depth)
        restricted = np.zeros(len(full))
        restricted[vectors.reference_cells] = vectors.reference
        assert restricted.tobytes() == full.tobytes(), depth
        whole = sample_to_cells(symbol, cell_grid(ifs, depth).hulls())
        assert whole.tobytes() == full.tobytes(), depth
        # the field is zero off the support; some cells are not
        assert np.count_nonzero(full) > 0
        assert len(vectors.reference_cells) < len(full)


def test_support_sampling_evaluates_touching_cells(tent_square, monkeypatch):
    # [0.25, 0.5]^2 has its faces on cell faces from depth 2; the cells that
    # only touch it read t = 0 or t = 1 at their shared face, and the window
    # is sin(pi)^2 ~ 1.5e-32, not 0, at t = 1
    from ifslab import operators

    ifs = tent_square.system
    symbol = AdmissibleSymbol([[0.25, 0.5], [0.25, 0.5]], 0.05)
    assert symbol(np.array([[0.5, 0.375]]))[0] != 0.0
    partition = bi._lattice(ifs, symbol.support_box, 2.0**-4, 0.0)
    evaluated = []

    def averaging(evaluator, boxes):
        def recording(points):
            evaluated.append(points.copy())
            return evaluator(points)
        return operators.sample_to_cells(recording, boxes)

    monkeypatch.setattr(bi, "sample_to_cells", averaging)
    for depth in (2, 3):
        evaluated.clear()
        reconstruction_vectors(ifs, symbol, partition, depth)
        boxes = cell_grid(ifs, depth).hulls()
        touching = np.all((boxes[:, :, 1] >= 0.25) & (boxes[:, :, 0] <= 0.5), axis=1)
        assert touching.sum() < len(boxes)
        points = np.concatenate(evaluated)
        # five averaging points in every touching cell, and none anywhere else
        assert len(points) == 5 * int(touching.sum())
        hulls = boxes[touching]
        inside = np.all((points[:, None, :] >= hulls[None, :, :, 0])
                        & (points[:, None, :] <= hulls[None, :, :, 1]), axis=2)
        assert np.all(inside.sum(axis=1) == 1)
        assert np.all(inside.sum(axis=0) == 5)
