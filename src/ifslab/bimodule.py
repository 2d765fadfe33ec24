"""The partition-of-unity reconstruction in the C(K)-bimodule X = C(K).

X carries the A-valued inner product <xi, eta>_A = L(conj(xi) eta)
(one letter shallower at cell resolution) and the rank-one operators
theta_{xi,eta} zeta = xi <eta, zeta>_A.  For a symbol vanishing near the
two-branch value set, finitely many bump pairs reconstruct multiplication
by the symbol; the residual checks here measure that reconstruction
against the cell-average reference symbol, in the module norm of X and
in the operator norm on V_m, from one block operator per depth.

Sampling convention for the residual suites: reconstruction vectors are
point-sampled at cell centers (which commutes with the affine branch
maps), while the reference multiplication symbol uses the cell-average
rule.  Center sampling alone satisfies every identity to machine
precision at all depths; the mismatch between point and average sampling
is what the residuals measure, and it contracts at the branch rate per
depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoverFailure, DepthMismatch
from .geometry import (IfsSystem, box_corners, box_distances_to_pieces, branch_membership,
                       branch_value_set)
from .measure import cell_budget, cells_near, check_depth
from .operators import (CellFunction, block_norm, max_spectral_norm, operator_norm,
                        sample_to_cells, transfer_values)
from .sampling import uniform_doubles


# ---------------------------------------------------------------------------
# Rank-one module operators
# ---------------------------------------------------------------------------

def theta_apply(ifs: IfsSystem, xi: CellFunction, eta: CellFunction,
                zeta: CellFunction) -> CellFunction:
    """theta_{xi,eta} zeta = xi . <eta, zeta>_A at cell i.w: xi(i.w) L(conj(eta) zeta)(w).

    The A-valued inner product <eta, zeta>_A = L(conj(eta) zeta) is one
    letter shallower and uses uniform weights; the right action reads it
    through phi, which maps the cell i.w onto w.
    """
    if not (xi.depth == eta.depth == zeta.depth):
        raise DepthMismatch("theta needs equal depths")
    if xi.depth < 1:
        raise DepthMismatch("the inner product drops one letter; depth must be >= 1")
    if not ifs.is_hutchinson():
        raise ValueError("the A-valued inner product uses uniform weights")
    inner = transfer_values(ifs, np.conj(eta.values) * zeta.values)
    return CellFunction(xi.depth, xi.values * np.tile(inner, ifs.n_branches))


# ---------------------------------------------------------------------------
# Admissible symbols and bump partitions
# ---------------------------------------------------------------------------

def support_distance_to_value_set(ifs: IfsSystem, support_box: np.ndarray) -> float:
    """Exact distance from the closed support box to the two-branch value set."""
    boxes = np.asarray(support_box, dtype=float)[None]
    return float(box_distances_to_pieces(boxes, branch_value_set(ifs))[0])


@dataclass(frozen=True)
class AdmissibleSymbol:
    """The smooth window on `support_box` (d, 2), declared delta away from
    the value set: the product over the axes of sin^2(pi t_a), t_a being
    the point's relative position in the box along axis a.

    Continuously differentiable on the whole space (the arch has zero
    slope at the support edge) and exactly zero off the closed support.
    Evaluation is vectorized: an (N, d) array of points gives (N,) values.
    """

    support_box: np.ndarray
    delta: float

    def __post_init__(self):
        box = np.asarray(self.support_box, dtype=float)
        if np.any(box[:, 1] - box[:, 0] <= 0):
            raise ValueError("support box must have positive widths")
        object.__setattr__(self, "support_box", box)

    def __call__(self, points) -> np.ndarray:
        points = np.atleast_2d(points)
        lo = self.support_box[:, 0]
        t = (points - lo) / (self.support_box[:, 1] - lo)
        inside = np.all((t >= 0.0) & (t <= 1.0), axis=1)
        arch = np.sin(np.pi * np.clip(t, 0.0, 1.0)) ** 2
        return inside * np.prod(arch, axis=1)


@dataclass(frozen=True)
class BumpPartition:
    """Lattice tent bumps subordinate to admissible rectangles.

    The nodes are the full lattice box origin + pitch k, k integer with
    first <= k <= last on every axis; node q carries the product tent
    prod_a max(0, 1 - |x_a - q_a| / h), h the pitch.  The origin is the
    ambient box's low corner.  All lattice tents sum to one everywhere, so
    the family sums to one on the symbol's support, and each support
    rectangle (q - h, q + h) passed the three neighbourhood conditions.
    Bump k is the k-th node in lattice (C) order.
    """

    origin: np.ndarray  # (d,)
    first: np.ndarray   # (d,) lowest node index per axis
    last: np.ndarray    # (d,) highest node index per axis
    pitch: float
    margin: float  # certified clearance to the value set

    def __post_init__(self):
        if np.any(self.last < self.first):
            raise ValueError("a bump partition needs at least one node")

    @property
    def size(self) -> int:
        # Python ints: an intp product wraps silently on a fine lattice
        return math.prod(int(n) for n in self.last - self.first + 1)

    def _node(self, index) -> np.ndarray:
        """The node coordinates of the per-axis lattice indices `index`."""
        return self.origin + self.pitch * index

    def tent_slots(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tents that can be nonzero at each point: (columns, values),
        both (len(points), 3^d).

        A tent is nonzero only within one pitch of its node on every axis,
        so each point is evaluated at the at most 3^d nodes whose index is
        within one of its nearest lattice index round((x - base) / h), base
        being the lowest node per axis.  Slot o of a point holds the o-th of
        those index offsets in (-1, 0, 1)^d order: its bump column and the
        product over the axes, in order, of max(0, 1 - |x_a - q_a| / h); a
        slot outside the node box has column -1 and value 0.0.  Each axis's
        three offsets and their factors are formed once, then combined.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        shape = self.last - self.first + 1
        nearest = np.rint((points - self._node(self.first)) / self.pitch)
        count = len(points)
        values, columns = np.ones((count, 1)), np.zeros((count, 1), dtype=np.intp)
        valid = np.ones((count, 1), dtype=bool)
        for axis in range(points.shape[1]):
            near = nearest[:, axis, None] + (-1.0, 0.0, 1.0)  # (N, 3)
            node = self.origin[axis] + self.pitch * (self.first[axis] + near)
            factor = np.maximum(1.0 - np.abs(points[:, axis, None] - node) / self.pitch, 0.0)
            inside = (near >= 0) & (near < shape[axis])
            # slot s of the axes before and offset o of this one become slot 3 s + o
            slots = (count, 3 ** (axis + 1))
            values = (values[:, :, None] * factor[:, None, :]).reshape(slots)
            columns = (columns[:, :, None] * shape[axis]
                       + near.astype(np.intp)[:, None, :]).reshape(slots)
            valid = (valid[:, :, None] & inside[:, None, :]).reshape(slots)
        return np.where(valid, columns, -1), np.where(valid, values, 0.0)

    def reach(self) -> np.ndarray:
        """The box (d, 2) within one pitch of the nodes; every tent is zero
        off its interior."""
        return np.stack([self._node(self.first) - self.pitch,
                         self._node(self.last) + self.pitch], axis=1)

    def support_rows(self, points: np.ndarray) -> np.ndarray:
        """Ascending indices of the points within one pitch of a node
        coordinate on every axis; every tent is exactly zero at the other
        points.  Between the lowest and the highest node of an axis a point
        is at most half a pitch from a node, so only its gap to those two is
        tested."""
        low, high = self._node(self.first), self._node(self.last)
        gap = np.maximum(low - points, points - high)
        return np.flatnonzero(np.all(gap < self.pitch, axis=1))


# Rounding allowance of the clearance and branch decisions (`_slack`), per
# unit of the coordinates' magnitude plus the box's longest side.
_GAP_SLACK = 1e-12


def _lattice(ifs: IfsSystem, support: np.ndarray, pitch: float,
             margin: float) -> BumpPartition:
    """The pitch-h lattice, anchored at the box corner, of the nodes within
    one pitch of the support on every axis."""
    lo = ifs.box.lo
    first = np.floor((support[:, 0] - pitch - lo) / pitch).astype(np.intp) + 1
    last = np.ceil((support[:, 1] + pitch - lo) / pitch).astype(np.intp) - 1
    return BumpPartition(lo, first, last, float(pitch), margin)


def _slack(ifs: IfsSystem, support: np.ndarray) -> float:
    """`_GAP_SLACK` times the largest coordinate magnitude of the box and
    the support plus the box's longest side.

    Every candidate the distance kernel evaluates is a point of a piece,
    and a rounding slip in its knots or vertex changes the squared
    distance by at most a squared rounding error, so a computed distance
    lies within a few units in the last place of the coordinates, plus a
    few of the distance itself, of the exact one; so does a mapped corner.
    The slack exceeds those errors by a factor of hundreds.
    """
    box = ifs.box.intervals
    return _GAP_SLACK * (np.abs(np.concatenate([box, support])).max() + ifs.box.sizes.max())


def _blocking_branch(ifs: IfsSystem, lattice: BumpPartition, union: np.ndarray,
                     slack: float) -> int | None:
    """The first branch (1-based) whose image a rectangle of `lattice` may
    meet, or None when no rectangle inside the box `union` can fail a
    branch test.

    The nodes fill the box between the lowest and the highest node, and a
    branch image is convex, so every node lies in the image of branch i
    when that box's corners do; the first such branch is the home branch.
    Every other branch j must keep `union` more than `slack` from its image
    box on some axis.  Then no node lies in g_j's image (such a node would
    lie in `union`), the foreign-branch test of j finds no rectangle
    meeting that image's interior, and the branch-return test of i maps
    each pre-image box, which lies in the box, by g_j into g_j's image box
    up to a few units in the last place, which `slack` exceeds, so no
    return meets a rectangle either.  For a turned
    branch the image box is the image's hull, so a union that misses the
    image but meets its hull is refused: conservative, never a false pass.
    """
    span = np.stack([lattice._node(lattice.first), lattice._node(lattice.last)], axis=1)
    home = branch_membership(ifs, box_corners(span)).all(axis=0)
    images = np.stack(ifs.image_boxes())  # (n, d, 2)
    apart = (union[:, 0] > images[:, :, 1] + slack) | (union[:, 1] < images[:, :, 0] - slack)
    near = ~apart.any(axis=1)
    if home.any():
        near[np.argmax(home)] = False
    blocking = np.flatnonzero(near)
    return int(blocking[0]) + 1 if len(blocking) else None


def build_bump_partition(ifs: IfsSystem, symbol: AdmissibleSymbol) -> BumpPartition:
    """Cover the symbol's support by lattice tents at the coarsest dyadic
    pitch whose union box certifies every rectangle.

    The pitches run from the largest dyadic one at most a quarter of the
    shortest box side down to the first at or below delta/(8 sqrt(d)), the
    floor.  The rectangles (q - h, q + h) of a pitch, clipped to the box (a
    rectangle that misses the box passes), cover one box, their union
    U_h = reach() clipped to the box, and the exact distance from U_h to
    the value set is the least of theirs.  One kernel call takes the
    distance of every pitch's U_h.  The first pitch is accepted whose U_h
    keeps delta/2 + `_slack` from the value set and in which
    `_blocking_branch` finds no rectangle that may meet a foreign image;
    then every rectangle passes the three conditions.  No lattice's nodes
    are formed.

    On an axis-aligned system that passes the open set condition, a
    support that keeps delta from the value set inside a branch image
    shrunk by 2 delta (every window `reconstruction_symbol` tries) passes
    at the floor: U_h lies within 2 h sqrt(d) <= delta/4 of the support,
    so 3 delta/4 from the value set, and inside the image shrunk by
    2 delta - 2 h > delta, so apart from every other image.

    The pitch loop stops at the first lattice holding more bumps than
    `measure.cell_budget()`: halving the pitch at most doubles each axis's
    node count plus one, so no index reaches the intp limit.  That lattice
    is never accepted, and when every coarser pitch fails, CoverFailure
    names its bump count and the bound.  Otherwise CoverFailure names the
    floor's failed condition and its U_h when no pitch passes.
    """
    support = np.asarray(symbol.support_box, dtype=float)
    gap = support_distance_to_value_set(ifs, support)
    if gap < symbol.delta:
        raise ValueError(f"support is {gap:.4g} from the two-branch value set, "
                         f"closer than delta={symbol.delta}")

    clearance = symbol.delta / 2.0
    floor = clearance / (4.0 * np.sqrt(ifs.dimension))
    pitch = 2.0 ** np.floor(np.log2(ifs.box.sizes.min() / 4.0))
    budget = cell_budget()
    lattices = [_lattice(ifs, support, pitch, clearance)]
    while lattices[-1].pitch > floor and lattices[-1].size <= budget:
        lattices.append(_lattice(ifs, support, lattices[-1].pitch / 2.0, clearance))
    # each pitch's U_h: its rectangles' bounds are those of its first and last node
    box = ifs.box.intervals
    unions = np.array([lattice.reach() for lattice in lattices]).reshape(-1, ifs.dimension, 2)
    unions[:, :, 0] = np.maximum(unions[:, :, 0], box[:, 0])
    unions[:, :, 1] = np.minimum(unions[:, :, 1], box[:, 1])
    meets = np.flatnonzero(np.all(unions[:, :, 0] <= unions[:, :, 1], axis=1))
    distances = np.full(len(unions), np.inf)  # no rectangle meets the box: none fails
    distances[meets] = box_distances_to_pieces(unions[meets], branch_value_set(ifs))

    slack = _slack(ifs, support)
    for lattice, union, distance in zip(lattices, unions, distances):
        if lattice.size > budget:
            raise CoverFailure(f"{lattice.size} bumps at pitch {lattice.pitch} exceed "
                               f"the cell budget {budget}", "bump-budget", union)
        if distance < clearance + slack:
            condition = "value-set-clearance"
            continue
        branch = _blocking_branch(ifs, lattice, union, slack)
        if branch is not None:
            condition = f"foreign-branch {branch}"
            continue
        return lattice
    raise CoverFailure(f"no admissible rectangle pitch down to {lattice.pitch} "
                       f"(condition {condition} on the union box {union.tolist()})",
                       condition, union)


def reconstruction_symbol(ifs: IfsSystem,
                          delta: float) -> tuple[AdmissibleSymbol, BumpPartition]:
    """The reconstruction's symbol and its bump partition, by one rule for
    every system.

    The window is the first branch image box, in branch order, that is
    still a box after shrinking it by 2 delta on every side, that keeps
    delta from the value set once shrunk, and whose symbol admits a bump
    partition (`build_bump_partition` tests the clearance).  When no image
    does, the last image's failure is raised: a ValueError for a window
    with no width or too close to the value set, a CoverFailure for one
    without a partition.
    """
    failure = None
    for image in ifs.image_boxes():
        window = image + [2 * delta, -2 * delta]
        try:
            if np.any(window[:, 1] <= window[:, 0]):
                raise ValueError(f"branch image {image.tolist()} shrunk by 2*delta="
                                 f"{2 * delta:.4g} on every side has no width; lower delta")
            symbol = AdmissibleSymbol(window, delta)
            return symbol, build_bump_partition(ifs, symbol)
        except (ValueError, CoverFailure) as exc:
            failure = exc
    raise failure


# ---------------------------------------------------------------------------
# Reconstruction checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructionVectors:
    """The pairs xi_k = n a sqrt(f_k), eta_k = sqrt(f_k) on the support
    rows, and the reference symbol's cell means, at one depth.

    `rows` are the ascending flat indices of the depth-m cells whose center
    lies within one pitch of a node coordinate on every axis.  The pairs
    are stored sparse, one (len(rows), 3^d) array each: row r holds the
    tents that can be nonzero at its center (`BumpPartition.tent_slots`),
    `columns[r, o]` being the pair index of slot o (-1 for an empty slot,
    whose values are 0.0).  Every other entry of xi_k and eta_k, on these
    rows or on any other cell, is exactly zero.  `reference` holds the
    cell averages of the symbol (`sample_to_cells`) on the cells
    `reference_cells`, ascending: those whose hull meets the symbol's
    support box.  On every other cell the symbol reads +-0.0 at each
    averaging point, so the average is +0.0 (a sum 0.0 + (+-0.0) + ... is
    +0.0).
    """

    depth: int
    rows: np.ndarray
    columns: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    reference_cells: np.ndarray
    reference: np.ndarray


def _support_cells(boxes: np.ndarray, support) -> np.ndarray:
    """Ascending indices of the cells whose box hull (N, d, 2) meets the
    closed box `support` (d, 2) widened by a rounding margin.

    The margin, 1e-12 of the support's size and position per axis, covers
    the averaging points' rounding past their hull and a field that rounds
    to a tiny nonzero value just past its support face: the sin^2 window
    reads t = 1, where sin(pi)^2 ~ 1.5e-32, a few ulps outside it.
    """
    support = np.asarray(support, dtype=float)
    margin = 1e-12 * (np.abs(support).max(axis=1) + (support[:, 1] - support[:, 0]))
    meets = ((boxes[:, :, 1] >= support[:, 0] - margin)
             & (boxes[:, :, 0] <= support[:, 1] + margin))
    return np.flatnonzero(meets.all(axis=1))


def reconstruction_vectors(ifs: IfsSystem, symbol: AdmissibleSymbol,
                           partition: BumpPartition, depth: int) -> ReconstructionVectors:
    """Pairs xi_k = n a sqrt(f_k), eta_k = sqrt(f_k), point-sampled at
    depth, and the reference symbol's cell averages, from one set of cells.

    A support row's center lies within one pitch of the node coordinates
    on every axis (the nodes' reach), and a cell with a nonzero average
    meets the symbol's support box, which the reach contains.  So only the
    cells whose prefix meets the hull of the two boxes (the reach, unless
    rounding puts the support past it) are formed (`measure.cells_near`,
    one call) and tested; the rows and the averaged cells are the ones a
    test of every cell of the depth selects, and the depth's grid is not
    built.
    """
    support = symbol.support_box
    reach = partition.reach()
    region = np.stack([np.minimum(reach[:, 0], support[:, 0]),
                       np.maximum(reach[:, 1], support[:, 1])], axis=1)
    cells, near = cells_near(ifs, depth, region)
    rows = partition.support_rows(near.centers)
    points = near.centers[rows]
    a_vals = np.asarray(symbol(points), dtype=float)
    columns, roots = partition.tent_slots(points)
    np.sqrt(roots, out=roots)
    boxes = near.hulls()
    inside = _support_cells(boxes, support)
    return ReconstructionVectors(depth, cells[rows], columns,
                                 (ifs.n_branches * a_vals)[:, None] * roots, roots,
                                 cells[inside], sample_to_cells(symbol, boxes[inside]))


@dataclass(frozen=True)
class ReconstructionResidual:
    """The blocks of a block-diagonal operator on V_depth that can be nonzero.

    matrix[t] is the n x n block of tail tails[t], `tails` ascending; every
    other tail's block is exactly zero.  `weights` are the branch weights,
    so `operator_norm` reads it as it reads a `CellOperator`: a zero block
    is never the maximum, and its norm is the operator's.
    """

    depth: int
    tails: np.ndarray
    matrix: np.ndarray
    weights: np.ndarray

    @cached_property
    def spectral_norm(self) -> float:
        """max_w |matrix[w]|_2, the unweighted block norm (`max_spectral_norm`),
        taken at the first read."""
        return max_spectral_norm(self.matrix)


def reconstruction_residual(ifs: IfsSystem,
                            vectors: ReconstructionVectors) -> ReconstructionResidual:
    """sum_k M_{xi_k} C C* M_{eta_k}* - M_a on V_{vectors.depth}, as its blocks.

    The covariant representation maps theta_{xi,eta} to M_xi C C* M_eta*,
    so this one operator serves both reconstruction checks.  Entry (i, j)
    of the block of tail w is sum_k xi_k(i.w) eta_k(j.w) p_j - a(i.w) delta_ij,
    with a the reference symbol's cell averages (`vectors.reference`; 0.0
    on the other cells).  The sum can be non-zero only where the cell i.w
    is a support row with a nonzero xi entry (a live row) and its partner
    j.w is a support row, so only the tails that carry a live row or a
    nonzero reference cell get a block; every other block is exactly zero.
    Support rows in the nodes' reach but off the symbol's support have xi
    = 0, and there are often more of them than live rows.  The sum is
    formed for the pairs of a live row i.w and a letter j whose partner
    j.w is a support row (found by binary search in the ascending rows),
    straight from the stored slots: for each slot o of row i.w in order,
    xi there times the eta of the partner's slot with the same column is
    added to a sum that starts at 0.0.  A column sits in at most one slot
    of a row, and an empty slot's xi and eta are 0.0, so each eta read is
    exact.  The slots hold ascending columns, and every other pair reads
    xi_k eta_k = 0, so this is the sum over k in ascending order; every
    other entry stays 0.0.  The weights and the reference symbol are then
    applied to the blocks in place.
    """
    level = vectors.depth
    if level < 1:
        raise DepthMismatch("the inner product drops one letter; depth must be >= 1")
    n = ifs.n_branches
    count = n ** (level - 1)
    rows = vectors.rows
    tail, first = rows % count, rows // count
    live = np.flatnonzero(vectors.xi.any(axis=1))
    nonzero = vectors.reference != 0
    reference_cells = vectors.reference_cells[nonzero]
    # the distinct tails, ascending; sorting and dropping repeats is several
    # times faster than np.union1d's hash-based unique on arrays this small
    tails = np.sort(np.concatenate([tail[live], reference_cells % count]))
    tails = tails[np.diff(tails, prepend=-1) != 0]
    blocks = np.zeros((len(tails), n, n))
    # the cell j.w of every live row's tail w, for every letter j: (n, live)
    wanted = np.arange(n)[:, None] * count + tail[live]
    partner = np.minimum(np.searchsorted(rows, wanted), len(rows) - 1)
    letter, found = np.nonzero(rows[partner] == wanted)
    paired, mate = live[found], partner[letter, found]
    # match[p, o, s]: slot s of the partner holds the bump of slot o
    match = vectors.columns[paired][:, :, None] == vectors.columns[mate][:, None, :]
    products = vectors.xi[paired] * np.einsum("pos,ps->po", match, vectors.eta[mate])
    entry = np.zeros(len(paired))
    for o in range(products.shape[1]):
        entry += products[:, o]
    blocks[np.searchsorted(tails, tail[paired]), first[paired], letter] = entry
    blocks *= ifs.weights
    # cell i.w is entry (i, i) of block w; subtracting a zero average would
    # leave an entry as it is
    letters = reference_cells // count
    blocks[np.searchsorted(tails, reference_cells % count), letters, letters] -= \
        vectors.reference[nonzero]
    return ReconstructionResidual(level, tails, blocks, ifs.weights)


def verify_theta_reconstruction(ifs: IfsSystem, residual: ReconstructionResidual) -> float:
    """Norm of sum_k theta_{xi_k,eta_k} - a on the Hilbert module X, exactly.

    On the fibre of tail w, zeta -> (zeta(i.w))_i, the operator acts by the
    n x n block B_w = (1/n) sum_k xi_k(i.w) eta_k(j.w) - a(i.w) delta_ij,
    which is the block of `residual` under uniform weights.  With
    |zeta|_X^2 = max_w (1/n) sum_i |zeta(i.w)|^2 the module norm is
    max_w |B_w|_2: the unweighted spectral norm of the blocks.
    """
    if not ifs.is_hutchinson():
        raise ValueError("the A-valued inner product uses uniform weights")
    return residual.spectral_norm


def verify_operator_reconstruction(residual: ReconstructionResidual) -> float:
    """Norm of sum_k M_{xi_k} C C* M_{eta_k}* - M_a for the mass-weighted
    inner product on V_m.  When the weights are bit-equal, operator_norm's
    factors sqrt(p_i / p_j) are exactly 1.0: it is the theta residual's norm.
    """
    weights = residual.weights
    if (weights == weights[0]).all():
        return residual.spectral_norm
    return operator_norm(residual)


def covariant_rep_check(ifs: IfsSystem, depth: int, trials: int,
                        seed: int) -> tuple[float, float]:
    """Residuals of the two covariant-representation relations.

    Both relations are diagonal identities on cells, so each residual is
    the norm of the difference of its two sides' cell values, arranged as
    the blocks of a block-diagonal operator.

    residual_1: rho(a) V_xi - V_{a.xi} with V_xi = M_xi C, V_m -> V_{m+1}.
    Both sides send f to a(i.w) xi(i.w) f(w); the left side's product is
    the 1 x 1 block product np.matmul forms, the right side's the
    elementwise one, so only multiply rounding remains.  The blocks are
    C's: one column of n rows per tail w.
    residual_2: V_xi* V_eta - rho(<xi, eta>_A) on V_m.  The left side
    multiplies by sum_i p_i conj(xi) eta (i.w), formed as the np.matmul
    product of each tail's row of n terms with a column of ones; the
    right side by the transfer L(conj(xi) eta)(w).  Exact at cell level up
    to summation rounding.

    Each trial t draws its three fields from one stream seeded (seed, t).
    Every trial's blocks are formed in one array pass, and each relation
    takes one norm of the stacked blocks (`block_norm`): a block's norm
    does not depend on the blocks beside it, so the residual is the
    largest of the trials' residuals, bit for bit.
    """
    n = ifs.n_branches
    count = check_depth(n, depth + 1)
    draws = np.array([uniform_doubles((seed, t), 6 * count) for t in range(trials)])
    u = draws.reshape(trials, 6, count).transpose(1, 0, 2)  # (6, trials, cells)
    a = (2 * u[0] - 1) + 1j * (2 * u[1] - 1)
    xi = (2 * u[2] - 1) + 1j * (2 * u[3] - 1)
    eta = (2 * u[4] - 1) + 1j * (2 * u[5] - 1)

    def by_tail(values):  # cell i.w of a trial is entry i of its tail w: (trials T, n)
        return values.reshape(trials, n, count // n).transpose(0, 2, 1).reshape(-1, n)

    module = np.matmul(a[..., None, None], xi[..., None, None])[..., 0, 0] - a * xi
    worst1 = block_norm(by_tail(module)[:, :, None], ifs.weights)

    inner = np.conj(xi) * eta
    products = by_tail(inner) * ifs.weights
    branch_sum = np.matmul(products[:, None, :], np.ones((n, 1)))[:, 0, 0]
    diagonal = branch_sum - transfer_values(ifs, inner).ravel()
    worst2 = block_norm(diagonal[:, None, None], ifs.weights)
    return worst1, worst2


# ---------------------------------------------------------------------------
# Experiment CSV
# ---------------------------------------------------------------------------

def write_reconstruction_csv(path, rows) -> None:
    """Rows (example, depth, n_bumps, residual_theta, residual_operator); a
    comma in the example name, which a definition file may hold, is written
    as a semicolon, as in the check CSVs' details."""
    with open(path, "w", newline="\n") as handle:
        handle.write("example,depth,n_bumps,residual_theta,residual_operator\n")
        for example, depth, n_bumps, res_theta, res_op in rows:
            example = example.replace(",", ";")
            handle.write(f"{example},{depth},{n_bumps},{res_theta:.17g},{res_op:.17g}\n")
