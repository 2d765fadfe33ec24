"""Multiplication, composition and transfer operators on cell functions.

V_m is the space of functions constant on depth-m cylinder cells with the
inner product weighted by the invariant cell masses.  The composition
operator prepends a letter (phi maps the cell i.w onto w), its adjoint
averages the first letter against the weights, and the transfer operator
is the uniform-weight special case of that adjoint.  All operators carry
explicit domain and codomain depths; nothing refines implicitly.

Each of these operators couples only cells that share a tail word (C, C*
and C C* couple i.w with j.w, a multiplication couples a cell with
itself), so an operator is stored as one small block per tail, and under
the product (Bernoulli) masses its norm is the largest norm of a rescaled
block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthMismatch
from .geometry import IfsSystem
from .measure import axis_sum, cell_grid, check_depth, word_products
from .sampling import halton_points

DEFAULT_AVERAGE_POINTS = 5


@dataclass(frozen=True)
class CellFunction:
    """A function constant on depth-m cells: one value per word."""

    depth: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype not in (np.float64, np.complex128):
            values = values.astype(np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _letter_masses(weights: np.ndarray, count: int) -> np.ndarray:
    """Product masses of the `count` words of one length, first letter most
    significant: the relative masses of the cells w' . w over one tail w."""
    masses = np.ones(1)
    while masses.size < count:
        masses = (masses[:, None] * weights).ravel()
    return masses


@dataclass(frozen=True)
class CellOperator:
    """A map V_dom -> V_cod stored as one block per tail word.

    `matrix` has shape (T, r, c) with T r = n^cod_depth and T c =
    n^dom_depth: block w maps the cells l T + w (l < c) to the cells
    k T + w (k < r), i.e. the cells that end in the tail w.  C is
    (n^m, n, 1), C* is (n^m, 1, n), C C* is (n^m, n, n), and a diagonal
    operator is stored as (n^d, 1, 1).  The inner products are weighted by
    the product masses of `weights`; within one block they differ only by
    the letters in front of the tail, so the tail's mass cancels.
    """

    dom_depth: int
    cod_depth: int
    matrix: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        tails, rows, cols = self.matrix.shape
        n = len(self.weights)
        if (tails * rows, tails * cols) != (n**self.cod_depth, n**self.dom_depth):
            raise DepthMismatch(f"blocks of shape {self.matrix.shape} do not map "
                                f"depth {self.dom_depth} to depth {self.cod_depth}")

    def _grouped(self, tails: int) -> np.ndarray:
        """The same operator as `tails` blocks; `tails` divides the stored count.

        Cell k T + u T' + v, with T' = tails, moves to row k s + u of block v,
        s = T / T'; the entries are placed, never combined.
        """
        count, rows, cols = self.matrix.shape
        if count == tails:
            return self.matrix
        s = count // tails
        out = np.zeros((tails, rows, s, cols, s), dtype=self.matrix.dtype)
        u = np.arange(s)
        out[:, :, u, :, u] = self.matrix.reshape(s, tails, rows, cols)
        return out.reshape(tails, rows * s, cols * s)

    def _pair(self, other: "CellOperator"):
        """Both block arrays grouped by the coarser of the two tail counts."""
        tails = min(len(self.matrix), len(other.matrix))
        return self._grouped(tails), other._grouped(tails)

    def compose(self, other: "CellOperator") -> "CellOperator":
        """self after other."""
        if other.cod_depth != self.dom_depth:
            raise DepthMismatch("inner depths do not match")
        outer, inner = self._pair(other)
        return CellOperator(other.dom_depth, self.cod_depth, outer @ inner, self.weights)

    def adjoint(self) -> "CellOperator":
        """Adjoint for the mass-weighted inner products: entry (k, l) of a
        block becomes the conjugate of entry (l, k) times mass(k) / mass(l)."""
        _, rows, cols = self.matrix.shape
        scale = (_letter_masses(self.weights, rows)[None, :]
                 / _letter_masses(self.weights, cols)[:, None])
        return CellOperator(self.cod_depth, self.dom_depth,
                            np.conj(self.matrix).transpose(0, 2, 1) * scale, self.weights)

    def subtract(self, other: "CellOperator") -> "CellOperator":
        if (self.dom_depth, self.cod_depth) != (other.dom_depth, other.cod_depth):
            raise DepthMismatch("operators act between different spaces")
        left, right = self._pair(other)
        return CellOperator(self.dom_depth, self.cod_depth, left - right, self.weights)


# ---------------------------------------------------------------------------
# Sampling C(K) into V_m
# ---------------------------------------------------------------------------

# Rows per evaluator call: a field is evaluated on slices of at most this
# many points, so its temporaries stay small and one call never grows large
# enough for a threaded BLAS to split its matrix products across cores.  A
# closed-form block of `trig_tail_blocks` holds at most this many
# (symbol, branch, tail) rows.
_EVAL_ROWS = 2**15


def _evaluate(evaluator, points: np.ndarray) -> np.ndarray:
    """The evaluator's values on `points`, in calls of at most _EVAL_ROWS rows."""
    return np.concatenate([np.asarray(evaluator(points[k:k + _EVAL_ROWS]))
                           for k in range(0, len(points), _EVAL_ROWS)])


def _offset_points(boxes: np.ndarray) -> np.ndarray:
    """The Halton points of the averaging rule in the box hulls (T, d, 2).

    One offset-major (s T, d) array: rows s T ... (s + 1) T - 1 are
    lo + offset_s * sizes over the T hulls, for the DEFAULT_AVERAGE_POINTS
    Halton offsets in order.  Each point depends on its own hull only, so
    the points of a subset of cells equal the same rows of all cells'.
    """
    d = boxes.shape[1]
    offsets = halton_points(DEFAULT_AVERAGE_POINTS, d)  # (s, d) in [0,1)^d
    points = offsets[:, None, :] * (boxes[:, :, 1] - boxes[:, :, 0])
    points += boxes[:, :, 0]  # lo + offset * size, added in place
    return points.reshape(-1, d)


# ---------------------------------------------------------------------------
# The covariance gap of trigonometric symbols, in closed form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigTerms:
    """K trig symbols stacked for one system: their slopes and frequencies,
    and the terms of each a o gamma_i (`trig_terms`).  Every depth's
    covariance gap reads the same terms, so a command forms them once."""

    slope: np.ndarray         # (K, d)
    k: np.ndarray             # (K, J, d)
    branch_b0: np.ndarray     # (K, n)
    branch_slope: np.ndarray  # (K, n, d)
    branch_k: np.ndarray      # (K, n, J, d)
    amp: np.ndarray           # (K, n, J)
    ph: np.ndarray            # (K, n, J)


def trig_terms(ifs: IfsSystem, symbols) -> TrigTerms:
    """The symbols' terms, and those of a o gamma_i for each symbol a and
    branch i.

    With gamma_i(x) = A_i x + t_i, a o gamma_i has slope A_i^T slope,
    frequencies A_i^T k_j, constant b0 + slope . t_i and phases
    ph_j + pi k_j . t_i.
    """
    linear = np.array([gamma.linear for gamma in ifs.branches])  # (n, d, d)
    shift = np.array([gamma.translation for gamma in ifs.branches])
    b0 = np.array([[s.b0] for s in symbols])
    slope = np.array([s.slope for s in symbols])
    k = np.array([s.k for s in symbols])
    amp = np.array([s.amp for s in symbols])[:, None]
    ph = np.array([s.ph for s in symbols])[:, None]
    return TrigTerms(slope, k, b0 + axis_sum(slope, shift),
                     np.einsum("kd,nde->kne", slope, linear),
                     np.einsum("kjd,nde->knje", k, linear),
                     np.broadcast_to(amp, (len(amp), len(linear), amp.shape[-1])),
                     ph + np.pi * np.moveaxis(axis_sum(k, shift), -1, 1))


def _phasor_means(k: np.ndarray, points: np.ndarray) -> np.ndarray:
    """mean_s e^{i pi k . x_s} for frequencies k (*F, d) and points x
    (*P, s, C, d): a complex (*F, *P, C) array."""
    phase = axis_sum(k, points.reshape(-1, points.shape[-1]))
    phase *= np.pi
    phasors = np.exp(1j * phase).reshape(*k.shape[:-1], *points.shape[:-1])
    return phasors.sum(axis=-2) / points.shape[-3]


def _class_terms(linear: np.ndarray, slope: np.ndarray, k: np.ndarray, branch_k: np.ndarray,
                 half: np.ndarray) -> tuple:
    """(shift, fine - coarse, coarse): what the fine-minus-transfer difference
    reads of the tail frames, for the C half frames half (C, d, d), one per
    class.

    Branch i maps a tail w of half frame H to the cell i.w of half frame
    A_i H.  With ext and ext_i the row sums of |H| and of |A_i H|, the
    hulls of w and i.w have the sizes 2 ext and 2 ext_i, and the hull of
    i.w starts at A_i lo_w + t_i + delta_i, delta_i = A_i ext - ext_i.  So,
    per symbol, branch i, mode j and class, with the symbols' slopes
    (K, d), frequencies k (K, J, d) and those of a o gamma_i, branch_k =
    A_i^T k (K, n, J, d), the Halton offsets o_s and their mean ō:

        shift = slope . (delta_i + ō⊙2ext_i - A_i (ō⊙2ext))      (K, n, C)
        fine = mean_s e^{i pi k_j . (delta_i + o_s⊙2ext_i)}       (K, n, J, C)
        coarse = mean_s e^{i pi branch_k_j . (o_s⊙2ext)}           (K, n, J, C)

    None of them depends on where the tail sits.  Every product over the d
    axes is an elementwise sum in axis order (`axis_sum`).
    """
    (n, d, _), count = linear.shape, len(half)
    offsets = halton_points(DEFAULT_AVERAGE_POINTS, d)[:, None, :]  # (s, 1, d)
    ext = np.abs(half).sum(axis=2)                                  # (C, d)
    # A_i H column by column: entry (i, r, c d + col) is (A_i H_c)[r, col]
    fine_half = axis_sum(linear, np.swapaxes(half, 1, 2).reshape(-1, d))
    ext_fine = np.abs(fine_half).reshape(n, d, count, d).sum(axis=3).transpose(0, 2, 1)
    delta = np.swapaxes(axis_sum(linear, ext), 1, 2) - ext_fine  # (n, C, d)
    size, size_fine = 2.0 * ext, 2.0 * ext_fine
    mid = offsets.sum(axis=0) / len(offsets)
    drift = delta + mid * size_fine - np.swapaxes(axis_sum(linear, mid * size), 1, 2)
    shift = axis_sum(slope, drift.reshape(-1, d)).reshape(len(slope), n, count)
    fine = np.swapaxes(_phasor_means(k, delta[:, None] + offsets * size_fine[:, None]), 1, 2)
    coarse = _phasor_means(branch_k, offsets * size)
    return shift, fine - coarse, coarse


def trig_tail_blocks(ifs: IfsSystem, terms: TrigTerms, depth: int):
    """The covariance gap sum_i p_i a(i.w) - (L a)(w) of each trig symbol a
    of `terms` (`trig_terms`) in closed form: a (symbols, W) array per
    block of W tails, every tail once, m = `depth`.  a(i.w) is the
    averaging rule's mean of a on the hull of the cell i.w, (L a)(w) the
    mean of (1/n) sum_i a o gamma_i on the hull of w.  Their difference
    for branch i is
    shift + sum_j amp_j Re(X_j e^{i (kappa_j . lo_w + ph_j)}), kappa_j =
    pi A_i^T k_j, with shift and X = fine - coarse per class of tail half
    frames (`_class_terms`).  A tail w = u.v, |u| = ceil(m/2), has the
    center center_u + L_u (center_v - c) and the half frame L_u frame_v (c
    the box center, L_u = frame_u H^-1, H the box's half frame;
    `measure.word_products`), so its class is the pair of classes, and
    each term is Re(P E_u F) with P = amp X e^{i (ph - kappa . ext_w)} per
    class, E_u = e^{i kappa . center_u} and F = e^{i kappa . L_u (center_v
    - c)} per prefix class and suffix.  No grid deeper than ceil(m/2) is read, and each tail's
    gap is one np.einsum dot product (no BLAS call) over the (real or
    imaginary part, branch, mode) rows and its class shift.  Prefixes go
    in class order, as many per block as keep its (symbol, branch, tail)
    rows within _EVAL_ROWS (or one); a tail's gap does not depend on its
    block.  Unless every weight is 1/n exactly, sum_i (p_i - 1/n) times
    the mean of a o gamma_i on w is added, so the gap is exact for any
    weights: its modes add (p_i - 1/n) coarse to p_i X, and its affine
    part sigma . center_w, sigma = sum_i (p_i - 1/n) A_i^T slope, is
    sigma . center_u + sigma . L_u (center_v - c).
    """
    n, d = ifs.n_branches, ifs.dimension
    check_depth(n, depth + 1)
    prefix, suffix = cell_grid(ifs, (depth + 1) // 2), cell_grid(ifs, depth // 2)
    branch_linear = np.array([gamma.linear for gamma in ifs.branches])    # (n, d, d)
    b0, slope, k = terms.branch_b0, terms.branch_slope, terms.branch_k  # of a o gamma_i
    amp, ph = terms.amp, terms.ph
    symbols, prefixes = len(terms.slope), len(prefix.centers)
    pair_class, frames, moved = word_products(ifs, prefix, suffix)
    tail_class = pair_class[:, suffix.classes]                            # (Cu, V)
    moved = moved.reshape(-1, d)
    ext = np.abs(frames).sum(axis=2)                                      # (C, d)
    shift, phasors, coarse = _class_terms(branch_linear, terms.slope, terms.k, k, frames)

    # e^{i kappa . x} at the prefix centers and the moved suffix centers, and
    # e^{i (ph - kappa . ext)} per class: (points, K, M), M = n J
    points = np.concatenate([prefix.centers, moved, -ext])
    kappa = np.pi * k.reshape(symbols, -1, d)
    angle = points[:, None, None, 0] * kappa[..., 0]
    for axis in range(1, d):
        angle += points[:, None, None, axis] * kappa[..., axis]
    angle[-len(ext):] += ph.reshape(symbols, -1)
    waves = np.exp(1j * angle)
    skew = ifs.weights - 1.0 / n
    mix = ifs.weights[:, None, None] * phasors
    level = (shift * ifs.weights[:, None]).sum(axis=1)                    # (K, C)
    start, lift = np.zeros((prefixes, symbols)), np.zeros((len(moved), symbols))
    if skew.any():
        mix += skew[:, None, None] * coarse
        mid = halton_points(DEFAULT_AVERAGE_POINTS, d).mean(axis=0)
        level += (skew[:, None] * (b0[..., None] + axis_sum(slope, (2.0 * mid - 1.0) * ext))
                  ).sum(axis=1)
        sigma = (skew[:, None] * slope).sum(axis=1)                       # (K, d)
        start += axis_sum(prefix.centers, sigma)
        lift += axis_sum(moved, sigma)
    mix *= amp[..., None]
    classes = waves[-len(ext):] * np.moveaxis(mix, -1, 0).reshape(len(ext), symbols, -1)
    suffix_terms = waves[prefixes:-len(ext)].reshape(*tail_class.shape, *kappa.shape[:2])
    suffix_terms *= classes[tail_class]                                   # P F: (Cu, V, K, M)
    table = level.T[tail_class] + lift.reshape(*tail_class.shape, symbols)  # (Cu, V, K)
    # Re(E G) = E.real G.real - E.imag G.imag, plus 1 x shift and start x 1
    left = np.concatenate([waves[:prefixes].real, waves[:prefixes].imag,
                           np.ones((prefixes, symbols, 1)), start[..., None]], axis=-1)
    right = np.concatenate([suffix_terms.real, -suffix_terms.imag, table[..., None],
                            np.ones((*table.shape, 1))], axis=-1)        # (Cu, V, K, R)

    order = np.argsort(prefix.classes, kind="stable")
    step = max(1, _EVAL_ROWS // (symbols * n * len(suffix.centers)))
    for first in range(0, prefixes, step):
        block = order[first:first + step]
        owner = prefix.classes[block]
        if (owner == owner[0]).all():  # one class: its suffix row serves every prefix
            owner = owner[:1]
        yield np.einsum("bkr,bvkr->kbv", left[block], right[owner]).reshape(symbols, -1)


def sample_to_cells(evaluator, boxes: np.ndarray) -> np.ndarray:
    """Discretize a continuous field by cell averages: one mean per box hull
    (N, d, 2).

    Each cell gets the mean over DEFAULT_AVERAGE_POINTS Halton points placed
    in its box hull (`_offset_points`); the Halton set is deliberately
    flip-asymmetric, so averaged sampling does not commute with
    orientation-reversing branches.  The offset-major points are evaluated
    in one pass (`_evaluate`, calls of at most _EVAL_ROWS rows, which need
    not end at an offset's last row), and each cell sums its offsets in
    order from 0.0.  Each mean depends on its own hull only, so the means
    of a subset of cells are the same floats as their entries of a whole
    level's.
    """
    total = np.zeros(len(boxes))
    if len(boxes):  # no boxes, no evaluator call
        values = _evaluate(evaluator, _offset_points(boxes))
        for row in values.reshape(DEFAULT_AVERAGE_POINTS, len(boxes)):
            total = total + row
    return total / DEFAULT_AVERAGE_POINTS


# ---------------------------------------------------------------------------
# Operator constructors
# ---------------------------------------------------------------------------

def mult_op(ifs: IfsSystem, a: CellFunction) -> CellOperator:
    """Multiplication by a cell function: one 1 x 1 block per cell."""
    return CellOperator(a.depth, a.depth, a.values.reshape(-1, 1, 1), ifs.weights)


def composition_op(ifs: IfsSystem, depth: int) -> CellOperator:
    """C: V_m -> V_{m+1}, (C f)(i.w) = f(w); a column of n ones per tail w."""
    n = ifs.n_branches
    check_depth(n, depth + 1)
    return CellOperator(depth, depth + 1, np.ones((n**depth, n, 1)), ifs.weights)


def adjoint_composition_op(ifs: IfsSystem, depth: int) -> CellOperator:
    """C*: V_{m+1} -> V_m, sending the indicator of i.w to p_i times w's."""
    n = ifs.n_branches
    check_depth(n, depth + 1)
    return CellOperator(depth + 1, depth, np.tile(ifs.weights, (n**depth, 1, 1)), ifs.weights)


def transfer_op(ifs: IfsSystem, depth: int) -> CellOperator:
    """L: V_{m+1} -> V_m averaging the inverse branches with weight 1/n.

    Defined for uniform weights only; it then coincides with C*, and that
    equality is itself a checked property, not an assumption used here.
    """
    if not ifs.is_hutchinson():
        raise ValueError("the transfer operator is defined for uniform weights")
    n = ifs.n_branches
    check_depth(n, depth + 1)
    return CellOperator(depth + 1, depth, np.full((n**depth, 1, n), 1.0 / n), ifs.weights)


def transfer_values(ifs: IfsSystem, values: np.ndarray) -> np.ndarray:
    """(1/n) sum over the first letter: the cell-level transfer, along the
    last axis of `values`."""
    n = ifs.n_branches
    return values.reshape(*values.shape[:-1], n, values.shape[-1] // n).mean(axis=-2)


# ---------------------------------------------------------------------------
# Operator norm
# ---------------------------------------------------------------------------

def max_spectral_norm(blocks: np.ndarray, scale=1.0) -> float:
    """max_w |blocks[w] * scale|_2 over a (T, r, c) stack, `scale` (r, c)
    applied entrywise to every block; an empty stack has norm 0.

    The blocks kept are the first, if every block equals it, or else the
    nonzero ones (norm 0 is never the maximum).  Rows and columns zero in
    every kept block hold no singular value: they are dropped, and the
    rest is scaled.  One row or one column left has its Euclidean length
    as its norm; larger blocks take one batched SVD.  A block that is not
    finite raises LinAlgError, as the SVD does.
    """
    if len(blocks) == 0:
        return 0.0
    kept = blocks[:1] if (blocks == blocks[0]).all() else blocks[blocks.any(axis=(1, 2))]
    rows, cols = kept.any(axis=(0, 2)), kept.any(axis=(0, 1))
    kept = kept[:, rows][:, :, cols] * np.broadcast_to(scale, blocks.shape[1:])[rows][:, cols]
    if min(kept.shape[1:]) > 1:
        return float(np.linalg.norm(kept, ord=2, axis=(1, 2)).max())
    if not np.isfinite(kept).all():
        raise np.linalg.LinAlgError("a block is not finite")
    return float(np.linalg.norm(kept, axis=(1, 2)).max())


def block_norm(blocks: np.ndarray, weights: np.ndarray) -> float:
    """Largest mass-weighted 2-norm of a stack of blocks (T, r, c), any T;
    an empty stack has norm 0.

    Block w is rescaled by sqrt(mass(k) / mass(l)), the masses of the
    letters in front of the tail.  A block of one row or one column has
    one singular value, its Euclidean length; a 1 x 1 block has a scale
    of 1, so it gets |entry| exactly (sqrt(x * x) == |x| in floating
    point, barring underflow).  Larger blocks go to `max_spectral_norm`:
    zero blocks count as 0 and are never rescaled, nor are the rows and
    columns that are zero in every block, and when all blocks are equal
    they share one norm.  Each block's norm takes the same steps in any
    stack, so the norm of stacked blocks is the maximum of their stacks'.
    """
    _, rows, cols = blocks.shape
    scale = np.sqrt(_letter_masses(weights, rows)[:, None]
                    / _letter_masses(weights, cols)[None, :])
    if min(rows, cols) > 1:
        return max_spectral_norm(blocks, scale)
    return float(np.linalg.norm(blocks * scale, axis=(1, 2)).max(initial=0.0))


def operator_norm(op: CellOperator) -> float:
    """Largest singular value for the mass-weighted norms, exactly.

    The operator is block diagonal over the tails, so its norm is the
    largest 2-norm of a rescaled block (`block_norm`).  `op` may also hold
    only the blocks that can be nonzero (`bimodule.ReconstructionResidual`):
    the omitted ones have norm 0.
    """
    return block_norm(op.matrix, op.weights)


# ---------------------------------------------------------------------------
# Residual table CSV
# ---------------------------------------------------------------------------

def write_residual_table(path, rows) -> None:
    """Rows (depth, identity, residual, bound) with 17 significant digits."""
    with open(path, "w", newline="\n") as handle:
        handle.write("depth,identity,residual,bound\n")
        for depth, identity, residual, bound in rows:
            handle.write(f"{depth},{identity},{residual:.17g},{bound:.17g}\n")
