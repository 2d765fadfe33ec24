"""Self-similar measures at cylinder-cell resolution.

A depth-m cylinder cell is the image of the ambient box under the word
composition g_{w_1} o ... o g_{w_m}.  Words are 1-based letter tuples;
the flat index orders words lexicographically with the first letter most
significant, so children (letters appended at the end) occupy contiguous
index blocks while the preimages of the expanding map (letters prepended)
tile the vector in n strides.

Three constructions of the invariant measure live here: exact product
masses (valid under measure separation), the push-forward fixed-point
iteration, and seeded chaos-game sampling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError, DepthOverflow, NoConvergence
from .geometry import IfsSystem, check_open_set_condition, first_box
from .sampling import raw_blocks

DEFAULT_CELL_BUDGET = 2**20


def cell_budget() -> int:
    """The cap on the depth cells (`check_depth`) and on the bumps of a
    bump-partition lattice (`bimodule.build_bump_partition`), overridable
    through the IFSLAB_CELL_BUDGET env var; a value that is not a positive
    integer is a ConfigError."""
    raw = os.environ.get("IFSLAB_CELL_BUDGET", "")
    if not raw:
        return DEFAULT_CELL_BUDGET
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigError(f"IFSLAB_CELL_BUDGET must be a positive integer, got {raw!r}")
    return int(raw)


def check_depth(n_branches: int, depth: int) -> int:
    """Number of depth-m cells, raising DepthOverflow at or above the budget."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    budget = cell_budget()
    count = n_branches**depth
    if count >= budget:
        raise DepthOverflow(
            f"{n_branches}^{depth} = {count} cells reaches the cell budget {budget}")
    return count


def index_word(idx: int, n: int, depth: int) -> tuple[int, ...]:
    letters = []
    for _ in range(depth):
        idx, rem = divmod(idx, n)
        letters.append(rem + 1)
    return tuple(reversed(letters))


def word_string(word: tuple[int, ...]) -> str:
    return "".join(str(letter) for letter in word)


# ---------------------------------------------------------------------------
# Cell geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellGrid:
    """Frames of cells: a center per cell and a half frame per class.

    centers[k] is the image of the box center under the word map of cell
    k, and frames[classes[k]] the image of the box's half-size diagonal
    matrix, so affine images of cells stay exact.  The word maps of an
    affine system take few distinct linear parts, so the cells share few
    half frames: each distinct one is stored once, as a class, with the
    absolute row sums of its entries (`extents`, (C, d)).
    """

    centers: np.ndarray  # (count, d)
    classes: np.ndarray  # (count,), indices into frames
    frames: np.ndarray   # (C, d, d)
    extents: np.ndarray  # (C, d)

    def hulls(self) -> np.ndarray:
        """The axis-aligned hulls (N, d, 2) of the cells: center -+ the
        extent of the cell's class (the cell itself, for axis-aligned
        branches)."""
        extent = self.extents[self.classes]
        boxes = np.empty((*self.centers.shape, 2))
        np.subtract(self.centers, extent, out=boxes[:, :, 0])
        np.add(self.centers, extent, out=boxes[:, :, 1])
        return boxes


def _grid(centers: np.ndarray, classes: np.ndarray, frames: np.ndarray) -> CellGrid:
    return CellGrid(centers, classes, frames, np.abs(frames).sum(axis=2))


def frame_products(linear: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, frames): the distinct products A_i H_c of linear parts (n, d, d)
    and half frames (C, d, d), keyed by their bytes in order of appearance,
    and the index of each, table[i, c].  Each is the sum over b, in order
    from 0.0, of A_i[:, b] times row b of H_c: np.einsum("ab,kbc->kac")'s
    rounding, signed zeros included, in under half its time (np.matmul
    rounds dense linear parts differently).  Cell frames are formed here
    alone."""
    d = half.shape[-1]
    mapped = np.zeros((len(linear), *half.shape))
    for b in range(d):
        mapped += linear[:, None, :, b, None] * half[None, :, None, b, :]
    index = {}
    table = np.array([index.setdefault(frame.tobytes(), len(index))
                      for frame in mapped.reshape(-1, d, d)]).reshape(len(linear), -1)
    return table, np.frombuffer(b"".join(index)).reshape(-1, d, d)


def axis_sum(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """sum_a coeffs[..., a] points[:, a] for coeffs (..., d) and points (N, d):
    an (..., N) array summed over the axes in order.  Elementwise products,
    not a BLAS call, so no thread split can move a bit."""
    total = coeffs[..., :1] * points[:, 0]
    for axis in range(1, points.shape[1]):
        total += coeffs[..., axis:axis + 1] * points[:, axis]
    return total


def word_products(ifs: IfsSystem, prefix: CellGrid,
                  suffix: CellGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(table, frames, moved): the pieces of the cells u.v of the prefixes u
    of `prefix` and the suffixes v of `suffix`.

    gamma_{u.v} = gamma_u o gamma_v, and gamma_u has the linear part L_u =
    F_u H^-1 (F_u the half frame of u, H the box's), so the cell u.v has
    the center center_u + L_u (center_v - c), c the box center, and the
    half frame L_u F_v.  Both depend on u through its class alone:
    table[cu, cv] is the class of L_cu F_cv among the distinct `frames`
    (`frame_products`), and moved[cu, v] = L_cu (center_v - c), (Cu, V, d),
    summed over the axes in order (`axis_sum`).
    """
    linear = prefix.frames / (0.5 * ifs.box.sizes)
    table, frames = frame_products(linear, suffix.frames)
    moved = np.swapaxes(axis_sum(linear, suffix.centers - ifs.box.center), 1, 2)
    return table, frames, moved


def _product_grid(ifs: IfsSystem, prefix: CellGrid, suffix: CellGrid) -> CellGrid:
    """The cells u.v (`word_products`), prefix-major: row u V + v for the
    u-th prefix and the v-th of the V suffixes."""
    table, frames, moved = word_products(ifs, prefix, suffix)
    centers = prefix.centers[:, None, :] + moved[prefix.classes]
    classes = table[prefix.classes][:, suffix.classes]
    return _grid(centers.reshape(-1, ifs.dimension), classes.ravel(), frames)


def cell_grid(ifs: IfsSystem, depth: int) -> CellGrid:
    """The depth-m cell grid, built once per system and depth.

    Depth 0 is the box and depth 1 its branch images.  A deeper grid is the
    product (`word_products`) of the grids of depths ceil(m/2) and
    floor(m/2), so it reads no grid deeper than ceil(m/2).  Every grid
    built stays in `ifs._cell_cache` to the end of the command.
    """
    count = check_depth(ifs.n_branches, depth)
    key = ("grid", depth)
    grid = ifs._cell_cache.get(key)
    if grid is not None:
        return grid
    if depth == 0:
        grid = _grid(ifs.box.center[None, :].copy(), np.zeros(1, dtype=np.intp),
                     np.diag(0.5 * ifs.box.sizes)[None, :, :].copy())
    elif depth == 1:
        table, frames = frame_products(np.stack([g.linear for g in ifs.branches]),
                                       cell_grid(ifs, 0).frames)
        grid = _grid(np.stack([g(ifs.box.center) for g in ifs.branches]), table[:, 0], frames)
    else:
        grid = _product_grid(ifs, cell_grid(ifs, (depth + 1) // 2), cell_grid(ifs, depth // 2))
    assert grid.centers.shape == (count, ifs.dimension)
    ifs._cell_cache[key] = grid
    return grid


# Rounding allowance of `cells_near`, per unit of the box's largest
# coordinate magnitude plus its longest side.
_PREFIX_SLACK = 1e-9


def cells_near(ifs: IfsSystem, depth: int, region) -> tuple[np.ndarray, CellGrid]:
    """(cells, near): the ascending flat indices of the depth-m cells whose
    prefix's hull meets the closed box `region` (d, 2) widened by a
    rounding slack, and their frames, row k of `near` for cell cells[k].

    The prefix of a cell u.v is its first ceil(m/2) letters u, and the
    cells u.v form the index block u V ... u V + V - 1, V = n^floor(m/2).
    A cell lies in its prefix cell, so every cell whose hull or center
    meets `region` is among them: the slack, `_PREFIX_SLACK` times the
    box's largest coordinate magnitude plus its longest side, covers the
    rounding by which a computed hull can pass its prefix's.  The kept
    prefixes are multiplied with every suffix (`word_products`), so the
    centers, classes and frames equal the same rows of `cell_grid(ifs,
    depth)`, which is not built.  At depths 0 and 1 the suffix is empty
    and the prefix grid is the level itself.
    """
    check_depth(ifs.n_branches, depth)
    prefix = cell_grid(ifs, (depth + 1) // 2)
    hulls = prefix.hulls()
    box = ifs.box.intervals
    slack = _PREFIX_SLACK * (np.abs(box).max() + ifs.box.sizes.max())
    region = np.asarray(region, dtype=float)
    meets = ((hulls[:, :, 1] >= region[:, 0] - slack)
             & (hulls[:, :, 0] <= region[:, 1] + slack))
    kept = np.flatnonzero(meets.all(axis=1))
    near = CellGrid(prefix.centers[kept], prefix.classes[kept], prefix.frames, prefix.extents)
    if depth < 2:
        return kept, near
    suffix = cell_grid(ifs, depth // 2)
    count = len(suffix.centers)
    cells = (kept[:, None] * count + np.arange(count)).ravel()
    return cells, _product_grid(ifs, near, suffix)


# ---------------------------------------------------------------------------
# Mass vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellMeasure:
    """Masses of all depth-m cells; a probability vector."""

    depth: int
    masses: np.ndarray

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        if np.any(masses < 0.0):
            raise ValueError("masses must be nonnegative")
        if abs(masses.sum() - 1.0) > 1e-12:
            raise ValueError("masses must sum to 1 within 1e-12")
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)


def total_variation(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


def exact_cell_masses(ifs: IfsSystem, depth: int) -> CellMeasure:
    """Product masses mass(w) = prod_k p_{w_k}.

    Valid because branch-image overlaps are assumed null (the measure
    separation condition, certified for the catalog systems); without it
    cylinder masses are not products.
    """
    check_depth(ifs.n_branches, depth)
    if depth == 0:
        return CellMeasure(0, np.ones(1))
    masses = reduce(np.kron, [ifs.weights] * depth)
    return CellMeasure(depth, masses)


def markov_fixpoint(ifs: IfsSystem, depth: int, max_iters: int = 256,
                    tol: float = 1e-12) -> CellMeasure:
    """Fixed point of the push-forward T(mu)(E) = sum_i p_i mu(g_i^{-1} E).

    On depth-m mass vectors T replaces the first letter's marginal with
    the weight vector, so iteration from the uniform start contracts to
    the product masses in at most m steps.
    """
    count = check_depth(ifs.n_branches, depth)
    if depth == 0:
        return CellMeasure(0, np.ones(1))
    n = ifs.n_branches
    current = np.full(count, 1.0 / count)
    for _ in range(max_iters):
        # Sum out the last letter (children of each depth-(m-1) cell),
        # then prepend a fresh first letter weighted by p.
        parents = current.reshape(-1, n).sum(axis=1)
        updated = np.kron(ifs.weights, parents)
        if total_variation(updated, current) < tol:
            return CellMeasure(depth, updated)
        current = updated
    raise NoConvergence(f"push-forward iteration did not reach {tol} in {max_iters} steps")


# ---------------------------------------------------------------------------
# Chaos game
# ---------------------------------------------------------------------------

_CHAIN_COUNT = 1024


def bin_points(ifs: IfsSystem, points: np.ndarray, depth: int) -> np.ndarray:
    """Flat cell index of each point, resolved level by level.

    This is the geometric binning behind :func:`chaos_game` on systems
    whose box fails the open set condition.  At every level the point is
    assigned to the first branch (in index order) whose image box contains
    it within a slack of 1e-9 times the box diameter (`first_box`), which
    realizes the convention that shared-boundary points belong to the
    lexicographically smallest word.  When the box is the attractor the
    greedy descent never dead ends, and under measure separation the word
    is exact off a null set.  Points in no image box (possible on
    non-self-similar fixtures) fall to the branch with the nearest image
    box, so masses binned on such systems are outer estimates only.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = ifs.n_branches
    boxes = np.stack(ifs.image_boxes())
    idx = np.zeros(len(points), dtype=np.int64)
    current = points.copy()
    slack = 1e-9 * max(1.0, ifs.box.diameter)
    for _ in range(depth):
        letter = first_box(current, boxes, slack)
        idx = idx * n + letter
        for i, gamma in enumerate(ifs.branches):
            sel = letter == i
            if sel.any():
                current[sel] = gamma.inverse(current[sel])
    return idx


def _letter_thresholds(weights: np.ndarray) -> np.ndarray:
    """The uint64 thresholds t_k of the letter draw, one per cumulative
    weight e_k below 1.0, ascending.

    A word w stands for the uniform u = (w >> 11) 2^-53, whose letter is
    the number of cumulative weights e_k <= u (the last one read as 1.0),
    searchsorted(cumulative, u, side="right").  Scaling by 2^53 is exact
    and w >> 11 is an integer below 2^53, so u >= e_k exactly when
    w >> 11 >= ceil(2^53 e_k), that is when w >= t_k = ceil(2^53 e_k) << 11.
    An edge at or above 1.0 exceeds every u, so it has no threshold.
    """
    edges = np.cumsum(weights)[:-1]
    edges = edges[edges < 1.0]
    return np.ceil(edges * 2.0**53).astype(np.uint64) << np.uint64(11)


def _draw_letters(thresholds: np.ndarray, words: np.ndarray, dtype) -> np.ndarray:
    """The 0-based letter of each raw word: the number of thresholds <= w,
    counted with one comparison pass per threshold, as `dtype`."""
    letters = np.zeros(words.shape, dtype=dtype)
    for threshold in thresholds:
        letters += words >= threshold
    return letters


def _window_cells(window: np.ndarray, rows: int, depth: int, n: int) -> np.ndarray:
    """Flat cell index of every chain's sample after each of the last `rows`
    letter rows of `window`, step-major, from its last `depth` letters.

    The sample after step k is g_{l_k} o g_{l_{k-1}} o ... (x_0), so it lies
    in the cell of the word (l_k, l_{k-1}, ..., l_{k-m+1}); the newest letter
    is the most significant digit.  `window` must hold at least depth - 1
    letter rows before its last `rows`.  At depth 0 every sample is in the
    one cell 0.
    """
    end = len(window)
    if not depth:
        return np.zeros(rows * window.shape[1], np.intp)
    idx = window[end - rows:].astype(np.intp)
    for back in range(1, depth):
        idx *= n
        idx += window[end - rows - back:end - back]
    return idx.ravel()


def _orbit_points(ifs: IfsSystem, x: np.ndarray, letters: np.ndarray, rows: int) -> np.ndarray:
    """Advance the orbit `x` (chains, d) in place through one block's letter
    rows and return every chain's point after each of the block's last
    `rows` rows, step-major."""
    out = np.empty((rows, *x.shape))
    skip = len(letters) - rows
    for k, step_letters in enumerate(letters):
        for i, gamma in enumerate(ifs.branches):
            sel = step_letters == i
            if sel.any():
                x[sel] = gamma(x[sel])
        if k >= skip:
            out[k - skip] = x
    return out.reshape(-1, ifs.dimension)


# Step rows per block of the chaos game: one block's words, letters and
# cell indices (or orbit points) are held at a time.
_STEP_BLOCK = 64


def chaos_game(ifs: IfsSystem, depth: int, n_samples: int, seed: int,
               burn_in: int = 100) -> CellMeasure:
    """Empirical depth-m masses from the seeded random-orbit construction.

    The orbit x_{k+1} = g_{i_k}(x_k) is run as 1024 parallel sub-chains
    (fewer when n_samples is small), each burned in independently; letter
    draws come from a single PCG64 stream consumed column-wise, so the
    output is a bit-exact function of (seed, n_samples, burn_in).  The
    samples after the burn-in are taken step-major, every chain's sample
    after one step before any after the next, and the first n_samples of
    them are counted: each chain gives ceil or floor of n_samples / chains,
    and only the last step row can be partial, its first chains counted.
    Raw words are compared with `_letter_thresholds` into one-byte letters
    (the smallest type that holds n).  The stream is drawn in blocks of
    `_STEP_BLOCK` steps of every chain, in the order of one draw of all
    steps, and each block's samples are counted before the next is drawn.
    Counts merge by integer addition, which makes the merge order irrelevant.

    Masses are symbolic when the ambient box satisfies the open set
    condition and burn_in >= depth - 1: each sample is counted in the cell
    of its last `depth` letters, which is exact for every sample, and no
    coordinates are computed; the last depth - 1 letter rows of a block
    are carried into the next for the windows that straddle it.  No window
    reads the first burn_in - (depth - 1) letter rows, so the stream is
    advanced past their words without drawing them, and the blocks start
    at the first row read.  Otherwise
    (overlapping branch images, or a burn-in shorter than the window) the
    orbit is carried across blocks and each block's points are binned
    geometrically by :func:`bin_points`, whose shared-face convention then
    applies.  The two agree except on samples within the binning slack of
    a face shared by two image boxes.

    The default burn-in of 100 comes from log(diam * precision) /
    log(1/c2) ~ 52 steps at c2 = 1/2, doubled for slack.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    n = ifs.n_branches
    count = check_depth(n, depth)
    chains = min(_CHAIN_COUNT, n_samples)
    steps = burn_in + -(-n_samples // chains)  # ceil(n_samples / chains) emitting rows

    thresholds = _letter_thresholds(ifs.weights)
    letter_type = np.min_scalar_type(n)
    symbolic = burn_in >= depth - 1 and check_open_set_condition(ifs).passed
    # a window reads the depth - 1 letter rows before its sample at most, so
    # the symbolic path skips the burn-in rows before those
    first = burn_in - max(depth - 1, 0) if symbolic else 0
    # the block stream bounds the peak memory: no array spans all the steps
    words = raw_blocks(int(seed), steps * chains, _STEP_BLOCK * chains, first * chains)
    carry = np.zeros((0, chains), dtype=letter_type)  # up to depth - 1 previous letter rows
    x = np.tile(ifs.box.center, (chains, 1))          # the orbit, on the geometric path
    counts = np.zeros(count, dtype=np.int64)
    left = n_samples
    for start in range(first, steps, _STEP_BLOCK):
        letters = _draw_letters(thresholds, next(words).reshape(-1, chains), letter_type)
        rows = max(0, start + len(letters) - max(start, burn_in))  # rows after the burn-in
        take = min(left, rows * chains)
        left -= take
        if symbolic:
            window = np.concatenate([carry, letters])
            cells = _window_cells(window, rows, depth, n)[:take]
            carry = window[max(0, len(window) - (depth - 1)):]
        else:
            cells = bin_points(ifs, _orbit_points(ifs, x, letters, rows)[:take], depth)
        counts += np.bincount(cells, minlength=count)
    assert counts.sum() == n_samples
    return CellMeasure(depth, counts / n_samples)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def write_mass_csv(mu: CellMeasure, n_branches: int, path) -> None:
    """Rows `word,mass` with 1-based digit words and 17 significant digits."""
    with open(path, "w", newline="\n") as handle:
        handle.write("word,mass\n")
        for idx, mass in enumerate(mu.masses):
            word = index_word(idx, n_branches, mu.depth)
            handle.write(f"{word_string(word)},{mass:.17g}\n")
