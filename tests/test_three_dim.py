import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import is_finite_branch, word_index
from ifslab.geometry import (AffineContraction, AmbientBox, IfsSystem, _solve_pair,
                             box_corners, branch_coincidence_set, check_open_set_condition)
from ifslab.measure import index_word


def test_plane_coincidence_piece():
    # branches agreeing on the plane z = 1: a two-dimensional piece
    box = AmbientBox(np.array([[0.0, 1.0]] * 3))
    g1 = AffineContraction(np.diag([0.4, 0.4, 0.4]), np.zeros(3))
    g2 = AffineContraction(np.diag([0.4, 0.4, -0.4]), np.array([0.0, 0.0, 0.8]))
    system = IfsSystem(box, (g1, g2))
    pieces = branch_coincidence_set(system)
    assert len(pieces) == 1
    assert pieces[0].dimension == 2
    assert not is_finite_branch(system)
    for x in pieces[0].sample():
        assert abs(x[2] - 1.0) <= 1e-12
        assert np.abs(g1(x) - g2(x)).max() <= 1e-12


def plane_pair(normal, offset):
    """Two branches that agree exactly on the plane normal . x = offset."""
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    g1 = AffineContraction(0.3 * np.eye(3) + 0.2 * np.outer(u, normal), np.zeros(3))
    g2 = AffineContraction(0.3 * np.eye(3), 0.2 * offset * u)
    return g1, g2


def linprog_plane_dimension(box, normal, offset):
    """Dimension of the box's section by the plane, from linear programs in
    plane coordinates s (x = offset * normal + basis @ s); None when empty.
    Dimension 2 when the section holds a disc of radius 1e-5, else 1 when
    some coordinate of s ranges over more than 1e-5."""
    basis = np.linalg.svd(normal[None, :])[2][1:].T
    base = offset * normal
    a_ub = np.vstack([basis, -basis])
    b_ub = np.concatenate([box.hi - base, base - box.lo])
    free = [(None, None)] * 2
    ball = linprog([0.0, 0.0, -1.0], A_ub=np.hstack([a_ub, np.linalg.norm(a_ub, axis=1)[:, None]]),
                   b_ub=b_ub, bounds=free + [(0.0, None)], method="highs")
    if ball.status == 2:
        return None
    assert ball.success
    if -ball.fun > 1e-5:
        return 2
    widths = []
    for axis in range(2):
        ends = [linprog(sign * np.eye(2)[axis], A_ub=a_ub, b_ub=b_ub, bounds=free,
                        method="highs").fun for sign in (1.0, -1.0)]
        widths.append(-ends[1] - ends[0])
    return int(max(widths) > 1e-5)


def test_plane_pieces_match_linear_programming():
    # seeded planes through a random box: cutting it, touching it at a
    # vertex, an edge or a face, and missing it
    rng = np.random.default_rng(17)
    expected = {"cut": 2, "vertex": 0, "edge": 1, "face": 2, "miss": None}
    for kind in 20 * list(expected):
        lo = rng.uniform(-1.0, 1.0, 3)
        box = AmbientBox(np.stack([lo, lo + rng.uniform(0.5, 2.0, 3)], axis=1))
        normal = rng.standard_normal(3)
        if kind == "edge":
            normal[rng.integers(3)] = 0.0
        if kind == "face":
            normal = np.eye(3)[rng.integers(3)] * rng.choice([-1.0, 1.0])
        normal /= np.linalg.norm(normal)
        heights = box_corners(box.intervals) @ normal
        low, high = heights.min(), heights.max()
        offset = {"cut": low + rng.uniform(0.1, 0.9) * (high - low),
                  "miss": high + 0.1 * (high - low)}.get(kind, high)
        piece = _solve_pair(*plane_pair(normal, offset), box, (1, 2))
        dimension = None if piece is None else piece.dimension
        assert dimension == linprog_plane_dimension(box, normal, offset) == expected[kind]
        top = box_corners(box.intervals)[heights == high]
        if kind == "vertex":
            np.testing.assert_allclose(piece.point, top[0], atol=1e-12)
        if kind == "edge":
            ends = piece.endpoints[np.lexsort(piece.endpoints.T)]
            np.testing.assert_allclose(ends, top[np.lexsort(top.T)], atol=1e-12)


def test_three_dim_osc():
    # eight half-scale corner maps tile the cube
    box = AmbientBox(np.array([[0.0, 1.0]] * 3))
    branches = []
    for corner in np.ndindex(2, 2, 2):
        branches.append(AffineContraction(np.diag([0.5] * 3),
                                          0.5 * np.array(corner, dtype=float)))
    system = IfsSystem(box, branches)
    assert check_open_set_condition(system).passed


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.lists(st.integers(1, 6), min_size=0, max_size=8))
def test_word_index_round_trip(n, letters):
    word = tuple(min(letter, n) for letter in letters)
    assert index_word(word_index(word, n), n, len(word)) == word
