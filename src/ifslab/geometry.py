"""Affine iterated function systems and exact branch-set geometry.

The ambient space is a closed box in R^d (d = 1, 2) with the Euclidean
metric.  Branches are affine proper contractions: two-sided Lipschitz
bounds 0 < c1 <= c2 < 1, read off the singular values of the linear part.
For affine branches the coincidence set {x : g_i(x) = g_j(x)} and its
image under the branches are affine pieces that can be solved exactly;
the open set condition is decidable by interval arithmetic on box images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .errors import NotAContraction

_PIVOT_TOL = 1e-12

# Points sampled along each one-dimensional coincidence or value piece.
_PIECE_SAMPLES = 65


# ---------------------------------------------------------------------------
# Ambient box
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmbientBox:
    """Axis-aligned closed box, the compact metric space carrying the IFS."""

    intervals: np.ndarray  # shape (d, 2), [lo, hi] per axis

    def __post_init__(self):
        iv = np.asarray(self.intervals, dtype=float)
        if iv.ndim != 2 or iv.shape[1] != 2:
            raise ValueError("intervals must have shape (d, 2)")
        if iv.shape[0] not in (1, 2):
            raise ValueError("supported dimensions are 1, 2")
        if np.any(iv[:, 0] >= iv[:, 1]):
            raise ValueError("each interval must satisfy lo < hi")
        iv.setflags(write=False)
        object.__setattr__(self, "intervals", iv)

    @property
    def dimension(self) -> int:
        return self.intervals.shape[0]

    @property
    def lo(self) -> np.ndarray:
        return self.intervals[:, 0]

    @property
    def hi(self) -> np.ndarray:
        return self.intervals[:, 1]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def sizes(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.sizes))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Whether each point lies in the box widened by _PIVOT_TOL per side."""
        points = np.atleast_2d(points)
        return np.all((points >= self.lo - _PIVOT_TOL) & (points <= self.hi + _PIVOT_TOL),
                      axis=1)


def box_corners(boxes: np.ndarray) -> np.ndarray:
    """(..., 2^d, d) vertices of the boxes (..., d, 2), in `product` order."""
    d = boxes.shape[-2]
    pick = np.array(list(product((0, 1), repeat=d)))  # (2^d, d)
    return boxes[..., np.arange(d), pick]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def box_intersection(a: np.ndarray, b: np.ndarray):
    lo = np.maximum(a[:, 0], b[:, 0])
    hi = np.minimum(a[:, 1], b[:, 1])
    if np.any(lo > hi):
        return None
    return np.stack([lo, hi], axis=1)


# ---------------------------------------------------------------------------
# Branch maps
# ---------------------------------------------------------------------------

def contraction_bounds(linear: np.ndarray) -> tuple[float, float]:
    """Smallest and largest singular value of the linear part.

    Raises NotAContraction unless 0 < c1 <= c2 < 1, the defining
    inequality of a proper contraction.
    """
    linear = np.asarray(linear, dtype=float)
    sv = np.linalg.svd(linear, compute_uv=False)
    c1, c2 = float(sv[-1]), float(sv[0])
    if c1 <= _PIVOT_TOL:
        raise NotAContraction(f"smallest singular value {c1} is zero; map is degenerate")
    if c2 >= 1.0:
        raise NotAContraction(f"largest singular value {c2} >= 1; map does not contract")
    return c1, c2


@dataclass(frozen=True)
class AffineContraction:
    """x -> L x + t with singular values of L pinched inside (0, 1)."""

    linear: np.ndarray
    translation: np.ndarray
    c1: float = field(init=False)
    c2: float = field(init=False)

    def __post_init__(self):
        lin = np.asarray(self.linear, dtype=float)
        tr = np.asarray(self.translation, dtype=float)
        if lin.ndim != 2 or lin.shape[0] != lin.shape[1] or tr.shape != (lin.shape[0],):
            raise ValueError("linear part must be d x d and translation length d")
        c1, c2 = contraction_bounds(lin)
        lin.setflags(write=False)
        tr.setflags(write=False)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tr)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    @property
    def dimension(self) -> int:
        return self.linear.shape[0]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        squeeze = points.ndim == 1
        out = np.atleast_2d(points) @ self.linear.T + self.translation
        return out[0] if squeeze else out

    def inverse(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        squeeze = points.ndim == 1
        out = np.linalg.solve(
            self.linear, (np.atleast_2d(points) - self.translation).T
        ).T
        return out[0] if squeeze else out

    def is_axis_aligned(self) -> bool:
        """One nonzero per row and per column: box images are boxes."""
        nz = self.linear != 0.0
        return bool(np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1))

    def image_box(self, box: np.ndarray) -> np.ndarray:
        """Exact box image for axis-aligned maps, vertex bounding box otherwise.

        A stack of boxes (..., d, 2) maps box by box, all vertices in one
        product with the linear part.
        """
        corners = box_corners(np.asarray(box, dtype=float))
        images = self(corners.reshape(-1, self.dimension)).reshape(corners.shape)
        return np.stack([images.min(axis=-2), images.max(axis=-2)], axis=-1)


# ---------------------------------------------------------------------------
# The system
# ---------------------------------------------------------------------------

class IfsSystem:
    """Ambient box, branches and weights.

    The expanding map phi is not stored: with K = B it is forced to be
    g_i^-1 on g_i(B), and :func:`verify_inverse_branches` decides whether
    the branch inverses paste into one continuous map.

    A system is immutable, so whatever is derived from its box and branches
    alone is kept in `_cell_cache` and computed once: the image boxes, the
    open set condition, the coincidence and value sets, and per depth the
    cell grid.
    """

    def __init__(self, box: AmbientBox, branches, weights=None, name: str = ""):
        branches = tuple(branches)
        if len(branches) < 2:
            raise ValueError("an IFS needs at least two branches")
        d = box.dimension
        for gamma in branches:
            if gamma.dimension != d:
                raise ValueError("branch dimension does not match the box")
            img = gamma.image_box(box.intervals)
            if np.any(img[:, 0] < box.lo - 1e-12) or np.any(img[:, 1] > box.hi + 1e-12):
                raise ValueError("branch image leaves the ambient box")
        n = len(branches)
        weights = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError("need one weight per branch")
        if np.abs(weights - 1.0 / n).max() <= 1e-12:
            # the Hutchinson measure weights every branch 1/n: weights
            # within 1e-12 of it are read as 1/n exactly
            weights = np.full(n, 1.0 / n)
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        weights.setflags(write=False)
        self.box = box
        self.branches = branches
        self.weights = weights
        self.name = name
        self._cell_cache: dict = {}

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def dimension(self) -> int:
        return self.box.dimension

    @property
    def c2(self) -> float:
        return max(g.c2 for g in self.branches)

    def is_hutchinson(self) -> bool:
        """Whether every weight is 1/n (as every weight within 1e-12 of it
        is stored)."""
        return bool((self.weights == 1.0 / self.n_branches).all())

    def image_boxes(self) -> list[np.ndarray]:
        """The (d, 2) image box of every branch, computed once per system;
        each call returns a fresh list of the read-only boxes."""
        cached = self._cell_cache.get("image-boxes")
        if cached is None:
            cached = tuple(_read_only(g.image_box(self.box.intervals)) for g in self.branches)
            self._cell_cache["image-boxes"] = cached
        return list(cached)


def branch_membership(ifs: IfsSystem, points: np.ndarray) -> np.ndarray:
    """(len(points), n) flags: column i - 1 says whether the point lies in g_i(K),
    so row k marks the branch index set I(x_k).  The pre-image may sit
    _PIVOT_TOL outside the box (`AmbientBox.contains`).

    Decided through the inverse map, one linear solve per point: a solve
    with one right-hand side rounds differently from a solve with many, so
    each flag is the one a solve for that point alone gives.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    flags = np.empty((len(points), ifs.n_branches), dtype=bool)
    for i, gamma in enumerate(ifs.branches):
        pre = np.linalg.solve(gamma.linear, (points - gamma.translation)[:, :, None])[:, :, 0]
        flags[:, i] = ifs.box.contains(pre)
    return flags


# ---------------------------------------------------------------------------
# Residual scans
# ---------------------------------------------------------------------------

class InverseBranches(NamedTuple):
    """How far the branch inverses disagree where two branch images meet."""

    residual: float  # max of |g_i^-1(y) - g_j^-1(y)| (sup norm) over shared points y
    meeting: int  # pairs i < j whose images meet
    pair: tuple[int, int] | None = None  # the first pair at the residual, when it is > 0
    point: np.ndarray | None = None  # a point y of both images where they differ by it


def _clip_to_box(vertices: np.ndarray, box: AmbientBox) -> np.ndarray:
    """The convex polygon with these cyclic vertices (an interval's two ends
    in 1-D) cut by each face of the box widened by _PIVOT_TOL, one face at
    a time (Sutherland-Hodgman); no vertices when nothing is left.  The
    few vertices are Python floats, which is faster than numpy scalars."""
    points = vertices.tolist()
    for axis, (lo, hi) in enumerate(box.intervals.tolist()):
        for sign, face in ((-1.0, lo - _PIVOT_TOL), (1.0, hi + _PIVOT_TOL)):
            excess = [sign * (p[axis] - face) for p in points]  # > 0 beyond the face
            kept = []
            for k, q in enumerate(points):
                if (excess[k - 1] > 0.0) != (excess[k] > 0.0):
                    t = excess[k - 1] / (excess[k - 1] - excess[k])
                    kept.append([a + t * (b - a) for a, b in zip(points[k - 1], q)])
                if excess[k] <= 0.0:
                    kept.append(q)
            points = kept
    return np.array(points).reshape(-1, box.dimension)


def verify_inverse_branches(ifs: IfsSystem) -> InverseBranches:
    """Whether the branches are the inverse branches of one continuous phi.

    With K = B = U_i g_i(B), phi must be g_i^-1 on g_i(B).  By the pasting
    lemma it exists, and is continuous, exactly when g_i^-1 = g_j^-1 on
    every g_i(B) n g_j(B).  That set is g_i(P), where P is the convex
    polygon g_i^-1 g_j(B) clipped to the box (`_clip_to_box`), and
    x - g_j^-1 g_i(x) is affine, so its sup norm over P peaks at a vertex.
    The box is widened by _PIVOT_TOL for the clip, so images that meet on
    a face that rounding has moved still meet, and the vertices are then
    clamped into the box.  One routine serves every branch, axis-aligned or
    turned; nothing is sampled.
    """
    box = ifs.box
    corners = box_corners(box.intervals)[[0, 1, 3, 2][:2 ** box.dimension]]  # cyclic order
    worst, meeting = InverseBranches(0.0, 0), 0
    for (i, gi), (j, gj) in combinations(enumerate(ifs.branches, start=1), 2):
        polygon = _clip_to_box(gi.inverse(gj(corners)), box)
        if not len(polygon):
            continue
        meeting += 1
        x = np.clip(polygon, box.lo, box.hi)
        gaps = np.abs(x - gj.inverse(gi(x))).max(axis=1)
        k = int(gaps.argmax())
        if gaps[k] > worst.residual:
            worst = InverseBranches(float(gaps[k]), 0, (i, j), _read_only(gi(x[k])))
    return worst._replace(meeting=meeting)


class Coverage(NamedTuple):
    """How much of the box the branch images leave out, and how that was decided."""

    uncovered: float  # volume fraction of K outside U_i g_i(K); nan when undecided
    method: str


def _uncovered_box_fraction(ifs: IfsSystem) -> float:
    """Volume fraction of the box outside the union of its (box) images.

    The image faces and the box faces cut each axis into at most 2n + 1
    intervals.  Every image box is a union of cells of this arrangement, so
    the uncovered volume is the volume of the cells that no image box holds.
    Coordinates are taken relative to the box, which gives unit volume.
    """
    lo, sizes = ifs.box.lo[:, None], ifs.box.sizes[:, None]
    images = np.clip((np.stack(ifs.image_boxes()) - lo) / sizes, 0.0, 1.0)  # (n, d, 2)
    cuts = [np.unique(np.concatenate([[0.0, 1.0], images[:, a].ravel()]))
            for a in range(ifs.dimension)]
    faces = [np.searchsorted(c, images[:, a]) for a, c in enumerate(cuts)]  # (n, 2) each
    covered = np.zeros([len(c) - 1 for c in cuts], dtype=bool)
    for i in range(ifs.n_branches):
        covered[tuple(slice(f[i, 0], f[i, 1]) for f in faces)] = True
    free = np.nonzero(~covered)
    volumes = np.ones(len(free[0]))
    for c, index in zip(cuts, free):
        volumes = volumes * np.diff(c)[index]
    return float(volumes.sum())


def self_similarity_defect(ifs: IfsSystem) -> Coverage:
    """The volume fraction of K (the box) that U_i g_i(K) leaves uncovered.

    The images are closed, so a union of full volume is all of K: the
    fraction is 0 exactly when K = g_1(K) u ... u g_n(K).  It is decided
    without a grid:

    - "box arrangement": every branch is axis-aligned, so every image is a
      box; the fraction is the volume of the cells of the arrangement of
      image faces that lie in no image.
    - "volume identity (open set condition)": otherwise, when the open box
      passes the open set condition, the images meet only on boundaries
      and cover sum |det A_i| of the volume, so the fraction is
      |1 - sum |det A_i||.
    - "coverage undecided: ...": neither applies; the fraction is nan.
    """
    if all(g.is_axis_aligned() for g in ifs.branches):
        return Coverage(_uncovered_box_fraction(ifs), "box arrangement")
    osc = check_open_set_condition(ifs)
    if osc.passed:
        covered = sum(abs(float(np.linalg.det(g.linear))) for g in ifs.branches)
        return Coverage(abs(1.0 - covered), "volume identity (open set condition)")
    return Coverage(float("nan"),
                    "coverage undecided: branches not axis-aligned and open set condition "
                    f"failed (overlap at branches {osc.violating})")


# ---------------------------------------------------------------------------
# Branch coincidence geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffinePiece:
    """A component of the branch coincidence (or value) set.

    The solution set of g_i = g_j is an affine subspace; clipped to the
    ambient box it is stored as basepoint + kernel basis together with a
    canonical description: `point` for dimension 0, `endpoints` for
    dimension 1.  `dimension` is the dimension of the clipped piece.  In
    a box of dimension d <= 2 a piece of dimension >= 2 is the whole box,
    where the two branches are equal (or its image under one of them).
    """

    pair: tuple[int, int]
    basepoint: np.ndarray
    basis: np.ndarray  # (d, k); k = 0 for isolated points
    dimension: int
    point: np.ndarray | None = None
    endpoints: np.ndarray | None = None  # (2, d)
    box: np.ndarray | None = None  # ambient clip region (d, 2)

    def sample(self) -> np.ndarray:
        """Points of the piece: _PIECE_SAMPLES along a segment, and on the
        whole-box piece basepoint + (corner - box centre) @ basis.T for the
        2^d box corners in `box_corners` order.

        |g_i - g_j| is convex, so its maximum over the box is at a corner,
        and the corners of a whole-box piece and of its image are paired
        row by row."""
        if self.dimension == 0:
            return self.point[None, :]
        if self.dimension == 1:
            t = np.linspace(0.0, 1.0, _PIECE_SAMPLES)[:, None]
            return self.endpoints[0] + t * (self.endpoints[1] - self.endpoints[0])
        return self.basepoint + (box_corners(self.box) - self.box.mean(axis=1)) @ self.basis.T


def _solve_pair(gi: AffineContraction, gj: AffineContraction, box: AmbientBox,
                pair: tuple[int, int]) -> AffinePiece | None:
    """Exactly solve g_i(x) = g_j(x) inside the box; None when empty."""
    d = box.dimension
    diff = gi.linear - gj.linear
    rhs = gj.translation - gi.translation
    u, sv, vt = np.linalg.svd(diff)
    rank = int(np.sum(sv > _PIVOT_TOL))
    # Consistency: the right-hand side must live in the column space.
    tail = u[:, rank:].T @ rhs
    if tail.size and np.max(np.abs(tail)) > _PIVOT_TOL:
        return None
    if rank > 0:
        particular = vt[:rank].T @ ((u[:, :rank].T @ rhs) / sv[:rank])
    else:
        particular = np.zeros(d)
    kernel = vt[rank:].T  # (d, k)
    k = kernel.shape[1]

    if k == 0:
        if not bool(box.contains(particular)[0]):
            return None
        p = np.clip(particular, box.lo, box.hi)
        return AffinePiece(pair, p, kernel, 0, point=p, box=box.intervals)

    if k == 1:
        direction = kernel[:, 0]
        s_lo, s_hi = -np.inf, np.inf
        for a in range(d):
            da = direction[a]
            if abs(da) <= _PIVOT_TOL:
                if (particular[a] < box.lo[a] - _PIVOT_TOL
                        or particular[a] > box.hi[a] + _PIVOT_TOL):
                    return None
                continue
            bounds = sorted(((box.lo[a] - particular[a]) / da,
                             (box.hi[a] - particular[a]) / da))
            s_lo, s_hi = max(s_lo, bounds[0]), min(s_hi, bounds[1])
        if s_lo > s_hi + _PIVOT_TOL:
            return None
        if s_hi - s_lo <= _PIVOT_TOL:
            p = np.clip(particular + 0.5 * (s_lo + s_hi) * direction, box.lo, box.hi)
            return AffinePiece(pair, p, np.zeros((d, 0)), 0, point=p, box=box.intervals)
        ends = np.stack([particular + s_lo * direction, particular + s_hi * direction])
        ends = np.clip(ends, box.lo, box.hi)
        return AffinePiece(pair, particular, kernel, 1, endpoints=ends, box=box.intervals)

    # k == d == 2: the branches coincide identically; the piece is the whole box.
    return AffinePiece(pair, box.center, np.eye(d), d, box=box.intervals)


def _frozen_pieces(pieces: list[AffinePiece]) -> tuple[AffinePiece, ...]:
    """The pieces as a tuple, with every array they hold made read-only."""
    for piece in pieces:
        for array in (piece.basepoint, piece.basis, piece.point, piece.endpoints):
            if array is not None:
                _read_only(array)
    return tuple(pieces)


def branch_coincidence_set(ifs: IfsSystem) -> list[AffinePiece]:
    """All nonempty pieces of C: points where two distinct branches agree.

    Solved once per system; each call returns a fresh list of the same
    (read-only) pieces.
    """
    cached = ifs._cell_cache.get("coincidence")
    if cached is None:
        pieces = []
        for i, j in combinations(range(1, ifs.n_branches + 1), 2):
            piece = _solve_pair(ifs.branches[i - 1], ifs.branches[j - 1], ifs.box, (i, j))
            if piece is not None:
                pieces.append(piece)
        cached = ifs._cell_cache["coincidence"] = _frozen_pieces(pieces)
    return list(cached)


def branch_value_set(ifs: IfsSystem) -> list[AffinePiece]:
    """Images g_i(piece) of the coincidence pieces: the two-branch value set.

    Mapped once per system, piece k of the value set being the image of
    piece k of `branch_coincidence_set(ifs)`; each call returns a fresh
    list of the same (read-only) pieces.
    """
    cached = ifs._cell_cache.get("value-set")
    if cached is None:
        images = []
        for piece in branch_coincidence_set(ifs):
            gamma = ifs.branches[piece.pair[0] - 1]
            base = gamma(piece.basepoint)
            basis = gamma.linear @ piece.basis if piece.basis.size else piece.basis
            point = gamma(piece.point) if piece.point is not None else None
            endpoints = gamma(piece.endpoints) if piece.endpoints is not None else None
            images.append(AffinePiece(piece.pair, base, basis, piece.dimension,
                                      point=point, endpoints=endpoints, box=ifs.box.intervals))
        cached = ifs._cell_cache["value-set"] = _frozen_pieces(images)
    return list(cached)


def coincidence_residual(ifs: IfsSystem, pieces: list[AffinePiece]) -> float:
    """max over sampled piece points of |g_i(x) - g_j(x)| in sup norm."""
    worst = 0.0
    for piece in pieces:
        i, j = piece.pair
        pts = piece.sample()
        res = np.abs(ifs.branches[i - 1](pts) - ifs.branches[j - 1](pts)).max()
        worst = max(worst, float(res))
    return worst


def value_residual(ifs: IfsSystem, c_pieces: list[AffinePiece],
                   b_pieces: list[AffinePiece]) -> float:
    """max over value-piece points y of |y - g_j(x)| for the paired preimage x,
    every piece pairing its samples by index."""
    worst = 0.0
    for c_piece, b_piece in zip(c_pieces, b_pieces):
        i, j = c_piece.pair
        xs, ys = c_piece.sample(), b_piece.sample()
        res = max(np.abs(ys - ifs.branches[i - 1](xs)).max(),
                  np.abs(ys - ifs.branches[j - 1](xs)).max())
        worst = max(worst, float(res))
    return worst


# ---------------------------------------------------------------------------
# Open set condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OscResult:
    passed: bool
    violating: tuple | None = None  # the overlapping branch pair
    witness: np.ndarray | None = None


def _separating_axis_disjoint(verts_a: np.ndarray, verts_b: np.ndarray,
                              axes: np.ndarray) -> bool:
    """Whether an axis separates the two vertex sets to within 1e-12."""
    for u in axes:
        pa = verts_a @ u
        pb = verts_b @ u
        if pa.max() <= pb.min() + 1e-12 or pb.max() <= pa.min() + 1e-12:
            return True
    return False


def check_open_set_condition(ifs: IfsSystem) -> OscResult:
    """Decide the open set condition for V the open ambient box, once per
    system: every call returns the same result.

    g_i(V) subset V holds for every system, since `IfsSystem` refuses a
    branch whose image box leaves the box, so what is decided is the
    pairwise disjointness of the open images.
    """
    cached = ifs._cell_cache.get("open-set-condition")
    if cached is None:
        cached = ifs._cell_cache["open-set-condition"] = _disjoint_images(ifs)
    return cached


def _disjoint_images(ifs: IfsSystem) -> OscResult:
    """Pairwise disjointness of the open images g_i(V) of the open box V.

    Box images are exact for axis-aligned branches, and two of them
    overlap when their intersection is wider than 1e-12 on every axis.
    For general affine branches disjointness is a separating-axis test
    over the parallelotope normals, with the same 1e-12.  So images that
    meet on a face that rounding has moved stay disjoint.
    """
    image_boxes = ifs.image_boxes()
    all_axis_aligned = all(g.is_axis_aligned() for g in ifs.branches)
    for (i, box_i), (j, box_j) in combinations(enumerate(image_boxes, start=1), 2):
        if all_axis_aligned:
            overlap = box_intersection(box_i, box_j)
            if overlap is not None and np.all(overlap[:, 1] - overlap[:, 0] > 1e-12):
                witness = 0.5 * (overlap[:, 0] + overlap[:, 1])
                return OscResult(False, (i, j), _read_only(witness))
            continue
        gi, gj = ifs.branches[i - 1], ifs.branches[j - 1]
        corners = box_corners(ifs.box.intervals)
        verts_i, verts_j = gi(corners), gj(corners)
        axes = [np.linalg.inv(gi.linear)[a] for a in range(ifs.dimension)]
        axes += [np.linalg.inv(gj.linear)[a] for a in range(ifs.dimension)]
        axes = np.array([u / np.linalg.norm(u) for u in axes])
        if not _separating_axis_disjoint(verts_i, verts_j, axes):
            return OscResult(False, (i, j), _overlap_witness(ifs, i, j))
    return OscResult(True)


def _overlap_witness(ifs: IfsSystem, i: int, j: int) -> np.ndarray | None:
    """Grid search for a point of g_i(V) that also lies in open g_j(V)."""
    gi, gj = ifs.branches[i - 1], ifs.branches[j - 1]
    box = ifs.box.intervals
    for resolution in (33, 129, 513):
        axes = [np.linspace(lo, hi, resolution + 1)[1:-1] for lo, hi in box]
        mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        images = gi(mesh)
        pre = gj.inverse(images)
        strict = np.all((pre > box[:, 0] + 1e-15) & (pre < box[:, 1] - 1e-15), axis=1)
        if strict.any():
            return _read_only(images[strict][0])
    return None


# ---------------------------------------------------------------------------
# Distances from boxes to points and segments
# ---------------------------------------------------------------------------

def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[k] @ y[k] for every leading index k.

    Each product goes through the BLAS dot that `x[k] @ y[k]` calls, which
    may fuse multiply and add; a sum of elementwise products rounds
    differently.
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _clamp_gaps(lo: np.ndarray, hi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per-axis gap from each point to the box [lo, hi]; zero inside it."""
    return np.maximum(np.maximum(lo - points, points - hi), 0.0)


def first_box(points: np.ndarray, boxes: np.ndarray, slack: float) -> np.ndarray:
    """For each point (P, d), the index of the first closed box (N, d, 2)
    that holds it when every box is widened by `slack` on each side.

    A point in no box gets the box at the smallest Euclidean gap
    (`_clamp_gaps`, without the slack), the first of equally near ones.
    """
    points = points[:, None, :]
    inside = np.all((points >= boxes[:, :, 0] - slack) & (points <= boxes[:, :, 1] + slack),
                    axis=2)
    first = inside.argmax(axis=1)
    missing = ~inside.any(axis=1)
    if missing.any():
        gaps = _clamp_gaps(boxes[:, :, 0], boxes[:, :, 1], points[missing])
        first[missing] = np.linalg.norm(gaps, axis=2).argmin(axis=1)
    return first


def _box_segment_distances(boxes: np.ndarray, endpoints: np.ndarray) -> np.ndarray:
    """Exact distance from each closed box (N, d, 2) to each segment [a, b]
    of `endpoints` (P, 2, d), as a (P, N) array.

    dist^2(box, a + s v) is piecewise quadratic and convex in s.  The knots
    are 0, 1 and the crossings of the box faces inside (0, 1); on each
    interval between sorted knots the active gap terms are fixed linear
    forms alpha + beta s, and the minimum is at a knot or at the interval's
    clamped vertex -B / 2A.  A face crossing outside (0, 1), or on an axis
    with v[axis] == 0, is replaced by the knot 0; the repeated knot only
    adds intervals of zero width, whose candidates are knots already
    present.

    The P N box-segment pairs lie along the last axis, segment-major, so
    each elementwise step runs over all of them in one array; the sums over
    the d axes go through `_rowdot` on contiguous (..., d) rows, as they
    would for one box and one segment.
    """
    def rows(x):  # (X, d, C) -> contiguous (X, C, d)
        return np.ascontiguousarray(x.transpose(0, 2, 1))

    endpoints = np.asarray(endpoints, dtype=float)
    count = len(boxes)
    a = np.repeat(endpoints[:, 0].T, count, axis=1)  # (d, P N)
    v = np.repeat((endpoints[:, 1] - endpoints[:, 0]).T, count, axis=1)
    lo = np.tile(boxes[:, :, 0].T, len(endpoints))
    hi = np.tile(boxes[:, :, 1].T, len(endpoints))
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = ((np.stack([lo, hi]) - a) / v).reshape(-1, a.shape[1])
    crossings = np.where((crossings > 0.0) & (crossings < 1.0), crossings, 0.0)
    ends = np.zeros((2, a.shape[1]))
    ends[1] = 1.0
    knots = np.sort(np.concatenate([ends, crossings]), axis=0)  # (2 d + 2, P N)
    left, right = knots[:-1], knots[1:]
    midpoints = a + (0.5 * (left + right))[:, None, :] * v  # (2 d + 1, d, P N)
    low_side = midpoints < lo
    high_side = midpoints > hi
    beta = rows(np.where(low_side, -v, np.where(high_side, v, 0.0)))
    alpha = rows(np.where(low_side, lo - a, np.where(high_side, a - hi, 0.0)))
    quad_a = _rowdot(beta, beta)
    quad_b = 2.0 * _rowdot(alpha, beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.minimum(np.maximum(-quad_b / (2.0 * quad_a), left), right)
    vertex = np.where(quad_a > 0.0, vertex, left)
    s = np.concatenate([knots, vertex])
    gaps = rows(_clamp_gaps(lo, hi, a + s[:, None, :] * v))
    return np.sqrt(_rowdot(gaps, gaps).min(axis=0)).reshape(len(endpoints), count)


# Box-piece pairs per array pass of `box_distances_to_pieces`, so that the
# temporaries of a pass stay small however many boxes come in.
_PAIR_CHUNK = 256


def box_distances_to_pieces(boxes: np.ndarray, pieces: list[AffinePiece]) -> np.ndarray:
    """Exact distance from each closed box (N, d, 2) to the union of the pieces.

    Pieces are points or segments; inf when there are none.  The boxes are
    taken in chunks of at most _PAIR_CHUNK box-piece pairs (one box per
    chunk when there are more pieces), and each chunk meets all point
    pieces in one array and all segment pieces in another.
    """
    boxes = np.asarray(boxes, dtype=float)
    if any(piece.dimension > 1 for piece in pieces):
        raise ValueError("bump partitions support value sets of dimension <= 1")
    points = np.array([piece.point for piece in pieces if piece.dimension == 0])
    segments = np.array([piece.endpoints for piece in pieces if piece.dimension == 1])
    best = np.full(len(boxes), np.inf)
    step = max(1, _PAIR_CHUNK // max(1, len(pieces)))
    for start in range(0, len(boxes), step):
        chunk = boxes[start:start + step]
        nearest = best[start:start + step]
        if len(points):
            gaps = _clamp_gaps(chunk[:, None, :, 0], chunk[:, None, :, 1], points)
            nearest = np.minimum(nearest, np.sqrt(_rowdot(gaps, gaps)).min(axis=1))
        if len(segments):
            nearest = np.minimum(nearest, _box_segment_distances(chunk, segments).min(axis=0))
        best[start:start + step] = nearest
    return best
