import numpy as np
import pytest

from conftest import (blockwise_values, dense_gram_adjoint, dense_operator, einsum_cell_grid,
                      grid_test_systems, per_offset_average, random_ifs, trig_field,
                      whole_depth_average_points, whole_depth_covariance_residual,
                      whole_depth_transfer)
from ifslab import bimodule as bi
from ifslab import catalog, cli
from ifslab import measure as mea
from ifslab import operators as op
from ifslab.bimodule import AdmissibleSymbol
from ifslab.errors import DepthMismatch
from ifslab.measure import cell_grid, chaos_game, exact_cell_masses, index_word
from ifslab.operators import (CellFunction, CellOperator, adjoint_composition_op,
                              composition_op, mult_op, operator_norm, sample_to_cells,
                              transfer_op, transfer_values)
from ifslab.sampling import halton_points, random_trig_symbol


# ---------------------------------------------------------------------------
# sampling C(K) into cells
# ---------------------------------------------------------------------------

def test_sample_constant(tent_square):
    ifs = tent_square.system
    f = sample_to_cells(lambda p: np.ones(len(p)), cell_grid(ifs, 3).hulls())
    np.testing.assert_array_equal(f, np.ones(64))


def test_sample_coordinate_centers(tent_square):
    # cells of g_1..g_4 in display order: x-centers (1/4, 1/4, 3/4, 3/4)
    centers = cell_grid(tent_square.system, 1).centers
    np.testing.assert_allclose(centers[:, 0], [0.25, 0.25, 0.75, 0.75], atol=1e-15)


def test_sample_refinement_lipschitz_bound(tent_square):
    ifs = tent_square.system
    symbol = random_trig_symbol(123, 2)
    field = trig_field(symbol)
    for m in (2, 3, 4):
        coarse = field(cell_grid(ifs, m).centers)
        fine = field(cell_grid(ifs, m + 1).centers)
        gap = np.abs(fine - np.repeat(coarse, ifs.n_branches)).max()
        assert gap <= symbol.lip_bound * ifs.c2**m * ifs.box.diameter


def test_average_rule_close_to_center(tent_square):
    ifs = tent_square.system
    symbol = random_trig_symbol(5, 2)
    center = trig_field(symbol)(cell_grid(ifs, 4).centers)
    average = sample_to_cells(trig_field(symbol), cell_grid(ifs, 4).hulls())
    assert np.abs(center - average).max() \
        <= symbol.lip_bound * ifs.c2**4 * ifs.box.diameter


# ---------------------------------------------------------------------------
# refinement and the weighted inner product
# ---------------------------------------------------------------------------

def test_refine_indicator_children(tent_square):
    # cell "1" splits into cells {11, 12, 13, 14}, the first four of depth 2;
    # verify the containment g_1(g_i(K)) inside g_1(K) by interval arithmetic
    ifs = tent_square.system
    assert [index_word(k, 4, 2) for k in range(4)] == [(1, 1), (1, 2), (1, 3), (1, 4)]
    parent = ifs.branches[0].image_box(ifs.box.intervals)
    for i in range(4):
        child = ifs.branches[0].image_box(ifs.branches[i].image_box(ifs.box.intervals))
        assert np.all(child[:, 0] >= parent[:, 0]) and np.all(child[:, 1] <= parent[:, 1])


def test_refine_preserves_inner_products(tent_sigma):
    # a cell's exact mass is the sum of its descendants' masses, so copying
    # each value to the descendants keeps the weighted inner product
    ifs = tent_sigma.system
    rng = np.random.default_rng(2)
    f, g = rng.normal(size=36), rng.normal(size=36)
    coarse = np.sum(f * g * exact_cell_masses(ifs, 2).masses)
    fine = np.sum(np.repeat(f, 36) * np.repeat(g, 36) * exact_cell_masses(ifs, 4).masses)
    assert abs(coarse - fine) <= 1e-14


def test_refine_commutes_with_composition(tent_square):
    # commuting square: refine after C equals C after refine
    ifs = tent_square.system
    rng = np.random.default_rng(3)
    f = rng.normal(size=16)
    via_c = np.repeat(dense_operator(composition_op(ifs, 2)) @ f, 16)
    via_refine = dense_operator(composition_op(ifs, 4)) @ np.repeat(f, 16)
    assert np.abs(via_c - via_refine).max() <= 1e-14


def test_inner_product_of_ones_is_total_mass(tent_square):
    assert abs(exact_cell_masses(tent_square.system, 2).masses.sum() - 1.0) <= 1e-15


def test_inner_product_against_monte_carlo(tent_square):
    # chaos-game quadrature oracle for the weighted inner product
    ifs = tent_square.system
    rng = np.random.default_rng(8)
    product = rng.normal(size=64) * rng.normal(size=64)
    exact = np.sum(product * exact_cell_masses(ifs, 3).masses)
    n_samples = 10**6
    emp = chaos_game(ifs, 3, n_samples, seed=21)
    estimate = float(np.sum(product * emp.masses))
    sigma = np.sqrt(np.sum(product**2 * exact_cell_masses(ifs, 3).masses) / n_samples)
    assert abs(estimate - exact) <= 4.0 * sigma


# ---------------------------------------------------------------------------
# multiplication operator
# ---------------------------------------------------------------------------

def test_mult_identity(tent_square):
    m_one = mult_op(tent_square.system, CellFunction(2, np.ones(16)))
    np.testing.assert_array_equal(dense_operator(m_one), np.eye(16))


def test_mult_norm_is_sup(tent_square):
    values = np.array([0.5, -3.0, 2.0, 1.0] * 4)
    assert operator_norm(mult_op(tent_square.system, CellFunction(2, values))) == 3.0


def test_mult_algebra(tent_square):
    rng = np.random.default_rng(4)
    a = rng.normal(size=16) + 1j * rng.normal(size=16)
    b = rng.normal(size=16) + 1j * rng.normal(size=16)
    ifs = tent_square.system
    prod = mult_op(ifs, CellFunction(2, a)).compose(mult_op(ifs, CellFunction(2, b)))
    np.testing.assert_allclose(dense_operator(prod), np.diag(a * b), rtol=1e-15, atol=0)
    # adjoint of multiplication is multiplication by the conjugate
    adj = mult_op(ifs, CellFunction(2, a)).adjoint()
    np.testing.assert_allclose(dense_operator(adj), np.diag(np.conj(a)), atol=1e-17)


# ---------------------------------------------------------------------------
# composition operator and friends
# ---------------------------------------------------------------------------

def test_composition_fixes_constants(tent_square):
    comp = composition_op(tent_square.system, 0)
    out = dense_operator(comp) @ np.array([1.0])
    np.testing.assert_array_equal(out, np.ones(4))


def test_composition_support_by_point_sampling(tent_square):
    # oracle: indicator of K_w composed with phi is 1 exactly on cells i.w
    ifs = tent_square.system
    comp = composition_op(ifs, 1)
    rng = np.random.default_rng(6)
    hulls = cell_grid(ifs, 2).hulls()
    for w in range(4):
        lifted = dense_operator(comp) @ np.eye(4)[w]
        expected_support = {i * 4 + w for i in range(4)}
        assert set(np.nonzero(lifted)[0]) == expected_support
        for cell in expected_support:
            lo, hi = hulls[cell, :, 0], hulls[cell, :, 1]
            pts = lo + rng.uniform(0.02, 0.98, size=(100, 2)) * (hi - lo)
            binned = mea.bin_points(ifs, ifs.apply_phi(pts), 1)
            assert np.all(binned == w)


def test_composition_is_isometry(tent_sigma):
    ifs = tent_sigma.system
    comp = composition_op(ifs, 3)
    mass3, mass4 = exact_cell_masses(ifs, 3).masses, exact_cell_masses(ifs, 4).masses
    dense = dense_operator(comp)
    rng = np.random.default_rng(7)
    for _ in range(50):
        f = rng.normal(size=216) + 1j * rng.normal(size=216)
        lifted = dense @ f
        norm4 = np.sum(np.conj(lifted) * lifted * mass4)
        norm3 = np.sum(np.conj(f) * f * mass3)
        assert abs(norm4 - norm3) <= 1e-12


def test_adjoint_matches_gram_oracle(tent_square):
    # assemble C* from <C*g, f> = <g, C f> densely and compare entrywise
    ifs = tent_square.system
    comp = composition_op(ifs, 2)
    explicit = adjoint_composition_op(ifs, 2)
    gram = dense_gram_adjoint(dense_operator(comp), exact_cell_masses(ifs, 2).masses,
                              exact_cell_masses(ifs, 3).masses)
    assert np.abs(dense_operator(explicit) - gram).max() <= 1e-14


def test_cstar_c_is_identity(tent_sigma):
    ifs = tent_sigma.system
    prod = adjoint_composition_op(ifs, 2).compose(composition_op(ifs, 2))
    assert np.abs(dense_operator(prod) - np.eye(36)).max() <= 1e-15


def test_cc_star_is_projection(tent_square):
    ifs = tent_square.system
    comp = composition_op(ifs, 3)
    proj = comp.compose(adjoint_composition_op(ifs, 3))
    assert operator_norm(proj.compose(proj).subtract(proj)) <= 1e-12
    assert abs(operator_norm(proj) - 1.0) <= 1e-10


def test_transfer_fixes_constants(tent_square):
    out = dense_operator(transfer_op(tent_square.system, 2)) @ np.ones(64)
    np.testing.assert_allclose(out, 1.0, rtol=0, atol=1e-15)


def test_transfer_equals_adjoint_for_uniform_weights(tent_sigma):
    diff = (dense_operator(transfer_op(tent_sigma.system, 2))
            - dense_operator(adjoint_composition_op(tent_sigma.system, 2)))
    assert np.abs(diff).max() <= 1e-14


def test_transfer_requires_uniform_weights(tent_1d):
    from ifslab.geometry import IfsSystem

    skew = IfsSystem(tent_1d.system.box, tent_1d.system.branches, weights=[0.25, 0.75])
    with pytest.raises(ValueError):
        transfer_op(skew, 2)


def test_transfer_against_direct_evaluation(tent_square):
    # matrix transfer of sampled a versus (1/4) sum a(g_i(x)) at cell centers
    ifs = tent_square.system
    symbol = random_trig_symbol(31, 2)
    field = trig_field(symbol)
    for m in (1, 2, 3):
        via_matrix = dense_operator(transfer_op(ifs, m)) @ field(cell_grid(ifs, m + 1).centers)
        centers = cell_grid(ifs, m).centers
        direct = np.zeros(len(centers))
        for gamma in ifs.branches:
            direct += np.asarray(field(gamma(centers)))
        direct /= 4.0
        assert np.abs(via_matrix - direct).max() \
            <= symbol.lip_bound * ifs.c2**m * ifs.box.diameter


# ---------------------------------------------------------------------------
# covariance identity
# ---------------------------------------------------------------------------

def test_covariance_exact_at_cell_level(tent_square):
    # with center sampling both sides coincide to machine precision
    ifs = tent_square.system
    symbol = random_trig_symbol(12, 2)
    a_fine = CellFunction(4, trig_field(symbol)(cell_grid(ifs, 4).centers))
    lhs = adjoint_composition_op(ifs, 3).compose(mult_op(ifs, a_fine)).compose(
        composition_op(ifs, 3))
    rhs = mult_op(ifs, CellFunction(3, transfer_values(ifs, a_fine.values)))
    assert operator_norm(lhs.subtract(rhs)) <= 1e-14


def test_covariance_residual_bound_and_rate(tent_square):
    # averaged sampling: residual bounded by Lip * c2^m and contracting
    ifs = tent_square.system
    for k in range(3):
        symbol = random_trig_symbol((99, k), 2)
        residuals = [cli.covariance_residual(ifs, op.trig_terms(ifs, [symbol]), m)[0] for m in range(2, 6)]
        for m, res in zip(range(2, 6), residuals):
            assert res <= 3.0 * symbol.lip_bound * 0.5**m
        for r0, r1 in zip(residuals, residuals[1:]):
            assert 0.25 <= r1 / r0 <= 0.75


def test_covariance_rate_tent_sigma(tent_sigma):
    # mixed ratios 1/2 and 1/3: per-step factor within [c2/2, 2 c2]
    ifs = tent_sigma.system
    symbol = random_trig_symbol(17, 2)
    residuals = [cli.covariance_residual(ifs, op.trig_terms(ifs, [symbol]), m)[0] for m in range(2, 5)]
    for r0, r1 in zip(residuals, residuals[1:]):
        assert 0.25 <= r1 / r0 <= 1.0


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

def test_norm_identity(tent_square):
    ident = mult_op(tent_square.system, CellFunction(2, np.ones(16)))
    assert operator_norm(ident) == 1.0


def test_norm_composition_is_one(tent_sigma):
    assert abs(operator_norm(composition_op(tent_sigma.system, 2)) - 1.0) <= 1e-10


def test_norm_diagonal(tent_square):
    diag = mult_op(tent_square.system,
                   CellFunction(1, np.array([3.0, 1.0, -1.0, 0.5])))
    assert operator_norm(diag) == 3.0


def weighted_svd_norm(ifs, op):
    """Largest singular value of the dense matrix for the mass-weighted norms."""
    cod = np.sqrt(exact_cell_masses(ifs, op.cod_depth).masses)
    dom = np.sqrt(exact_cell_masses(ifs, op.dom_depth).masses)
    return np.linalg.svd(cod[:, None] * dense_operator(op) / dom[None, :], compute_uv=False)[0]


def skewed(entry):
    """The entry's system with the non-uniform weights 0.1, 0.2, 0.3, 0.4."""
    from ifslab.geometry import IfsSystem

    return IfsSystem(entry.system.box, entry.system.branches, weights=[0.1, 0.2, 0.3, 0.4])


def test_norm_against_svd_oracle(tent_square):
    # block operators with non-uniform weights vs a dense weighted SVD
    ifs = skewed(tent_square)
    rng = np.random.default_rng(14)
    comp, comp_star = composition_op(ifs, 2), adjoint_composition_op(ifs, 2)
    a = CellFunction(3, rng.normal(size=64))
    blocks = rng.normal(size=(16, 4, 4)) + 1j * rng.normal(size=(16, 4, 4))
    cases = [comp, comp_star, comp.compose(comp_star), mult_op(ifs, a),
             CellOperator(3, 3, blocks, ifs.weights)]
    for operator in cases:
        expected = weighted_svd_norm(ifs, operator)
        assert abs(operator_norm(operator) - expected) <= 1e-12 * expected


def test_block_algebra_matches_dense(tent_square):
    # compose, subtract and adjoint on operators stored with different tail
    # groupings agree with the dense matrices they stand for
    ifs = skewed(tent_square)
    rng = np.random.default_rng(16)
    comp = composition_op(ifs, 2)
    diag = mult_op(ifs, CellFunction(2, rng.normal(size=16)))
    square = CellOperator(3, 3, rng.normal(size=(16, 4, 4)), ifs.weights)
    after = comp.compose(diag)  # (4^2, 4, 1) after (4^2, 1, 1)
    np.testing.assert_allclose(dense_operator(after),
                               dense_operator(comp) @ dense_operator(diag), rtol=1e-15, atol=0)
    after = square.compose(comp).compose(diag)
    np.testing.assert_allclose(
        dense_operator(after),
        dense_operator(square) @ dense_operator(comp) @ dense_operator(diag),
        rtol=1e-13, atol=1e-15)
    values = rng.normal(size=64)
    diff = square.subtract(mult_op(ifs, CellFunction(3, values)))
    np.testing.assert_array_equal(dense_operator(diff), dense_operator(square) - np.diag(values))
    mass2, mass3 = exact_cell_masses(ifs, 2).masses, exact_cell_masses(ifs, 3).masses
    adjoint = dense_operator(after.adjoint())
    np.testing.assert_allclose(adjoint, dense_gram_adjoint(dense_operator(after), mass2, mass3),
                               rtol=1e-13, atol=1e-15)
    with pytest.raises(DepthMismatch):
        CellOperator(2, 3, np.ones((16, 4, 4)), ifs.weights)


def test_norm_zero_operator(tent_square):
    zero = mult_op(tent_square.system, CellFunction(2, np.zeros(16)))
    assert operator_norm(zero) == 0.0


def batched_block_norm(blocks):
    """The block norm before zero and equal blocks were skipped: one batched
    norm over every block (Euclidean length for one row or one column)."""
    order = 2 if min(blocks.shape[1:]) > 1 else None
    return np.linalg.norm(blocks, ord=order, axis=(1, 2)).max()


def block_stacks(rng, shape, dtype):
    """Seeded (T, r, c) stacks: all equal, all zero, a few nonzero blocks
    among zeros, one nonzero block, and all distinct."""
    def draw(size):
        values = rng.normal(size=size)
        return values + 1j * rng.normal(size=size) if dtype is complex else values

    tails = shape[0]
    equal = np.repeat(draw((1, *shape[1:])), tails, axis=0)
    zero = np.zeros(shape, dtype=dtype)
    few = zero.copy()
    few[rng.choice(tails, size=3, replace=False)] = draw((3, *shape[1:]))
    one = zero.copy()
    one[rng.integers(tails)] = draw(shape[1:])
    return [equal, zero, few, one, draw(shape)]


def test_max_spectral_norm_equals_batched_norm():
    rng = np.random.default_rng(81)
    for dtype in (float, complex):
        for shape in ((16, 4, 4), (9, 3, 2), (5, 2, 6)):
            for blocks in block_stacks(rng, shape, dtype):
                assert op.max_spectral_norm(blocks) == batched_block_norm(blocks)


def test_operator_norm_equals_batched_norm(tent_square):
    # every block shape operator_norm meets, rescaled as it rescales them
    ifs = skewed(tent_square)
    rng = np.random.default_rng(82)
    for dtype in (float, complex):
        for dom, cod, shape in ((3, 3, (16, 4, 4)), (3, 2, (16, 1, 4)),
                                (2, 3, (16, 4, 1)), (2, 2, (16, 1, 1))):
            for blocks in block_stacks(rng, shape, dtype):
                operator = CellOperator(dom, cod, blocks, ifs.weights)
                scale = np.sqrt(op._letter_masses(ifs.weights, shape[1])[:, None]
                                / op._letter_masses(ifs.weights, shape[2])[None, :])
                assert operator_norm(operator) == batched_block_norm(blocks * scale)


def test_max_spectral_norm_rejects_nan_blocks():
    blocks = np.zeros((8, 3, 3))
    blocks[5, 1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        batched_block_norm(blocks)
    with pytest.raises(np.linalg.LinAlgError):
        op.max_spectral_norm(blocks)
    with pytest.raises(np.linalg.LinAlgError):
        op.max_spectral_norm(np.full((8, 3, 3), np.nan))


def test_max_spectral_norm_drops_rows_and_columns_zero_in_every_block():
    # planted zero rows and columns, among all-zero blocks and beside a row
    # and a column zero in one block only: the norm is the batched norm of
    # the nonzero blocks without the rows and columns zero in all of them,
    # byte for byte (the Euclidean length when one row or one column is
    # left), with and without a scale.  The full blocks' SVD can round the
    # same singular value an ulp apart, so against it the norm is equal
    # within 4 ulp; on the reconstruction residuals of the catalog systems,
    # nonzero at entry (0, 0) alone, it is the full blocks' bytes
    rng = np.random.default_rng(83)
    compacted = 0
    for dtype in (float, complex):
        for shape in ((16, 4, 4), (9, 3, 5), (5, 6, 2), (7, 6, 6)):
            for _ in range(20):
                blocks = block_stacks(rng, shape, dtype)[-1]
                blocks[rng.random(shape[0]) < 0.3] = 0.0
                rows, cols = rng.random(shape[1]) < 0.5, rng.random(shape[2]) < 0.5
                rows[rng.integers(shape[1])] = cols[rng.integers(shape[2])] = True
                blocks[:, ~rows] = 0.0
                blocks[:, :, ~cols] = 0.0
                live = np.flatnonzero(blocks.any(axis=(1, 2)))
                if len(live) > 1:  # a row and a column zero in one block only are kept
                    blocks[live[0], rng.choice(np.flatnonzero(rows))] = 0.0
                    blocks[live[0], :, rng.choice(np.flatnonzero(cols))] = 0.0
                scale = rng.uniform(0.5, 2.0, shape[1:])
                for factor in (1.0, scale):
                    kept = blocks[blocks.any(axis=(1, 2))]
                    kept = (kept * factor)[:, rows][:, :, cols]
                    got = op.max_spectral_norm(blocks, factor)
                    assert got == batched_block_norm(kept)
                    np.testing.assert_allclose(got, batched_block_norm(blocks * factor),
                                               rtol=4 * np.finfo(float).eps, atol=0.0)
                compacted += not (rows.all() and cols.all())
    assert compacted >= 100
    for name in ("tent_square", "tent_sigma", "tent_1d", "sigma_1d"):
        ifs = catalog.get(name).system
        symbol, partition = bi.reconstruction_symbol(ifs, 0.05)
        for level in (3, 4, 5):
            residual = bi.reconstruction_residual(
                ifs, bi.reconstruction_vectors(ifs, symbol, partition, level))
            assert not residual.matrix[:, 1:].any() and not residual.matrix[:, :, 1:].any()
            assert op.max_spectral_norm(residual.matrix) == \
                batched_block_norm(residual.matrix), (name, level)


def test_pullback_tiles_values(tent_square):
    # C f = f o phi copies the value of w to every cell i.w
    lifted = dense_operator(composition_op(tent_square.system, 1)) @ np.arange(4.0)
    np.testing.assert_array_equal(lifted, np.tile(np.arange(4.0), 4))


def transferred(ifs, evaluator):
    """The field (1/n) sum_i evaluator o gamma_i, branches summed in order."""
    def evaluate(points):
        total = np.zeros(len(points))
        for gamma in ifs.branches:
            total += np.asarray(evaluator(gamma(points)))
        return total / ifs.n_branches
    return evaluate


def rebuilt_covariance_residual(ifs, symbol, depth):
    """covariance_residual from the pointwise field, with the averaging points
    and their branch images rebuilt for every symbol and call, and the
    residual taken through the operator algebra."""
    field = trig_field(symbol)
    a_fine = CellFunction(depth + 1, per_offset_average(ifs, field, depth + 1))
    lhs = adjoint_composition_op(ifs, depth).compose(
        mult_op(ifs, a_fine)).compose(composition_op(ifs, depth))
    rhs = mult_op(ifs, CellFunction(
        depth, per_offset_average(ifs, transferred(ifs, field), depth)))
    return operator_norm(lhs.subtract(rhs))


def test_trig_symbol_evaluates_its_formula_bit_exactly():
    # the oracle evaluator works in place; each value is still
    # b0 + x @ slope + amp1 cos(pi x @ k1 + ph1) + amp2 cos(pi x @ k2 + ph2)
    from ifslab.sampling import uniform_doubles

    for dim in (1, 2):
        for seed in (0, (7, 101, 3), 42):
            u = uniform_doubles(seed, 4 * dim + 7)
            slope = (0.6 + 0.6 * u[1:1 + dim]) * np.where(u[1 + dim:1 + 2 * dim] < 0.5, -1.0, 1.0)
            k1 = np.rint(1 + u[1 + 2 * dim:1 + 3 * dim]).astype(float)
            k2 = np.rint(1 + 1.5 * u[1 + 3 * dim:1 + 4 * dim]).astype(float)
            amp1, amp2 = 0.05 + 0.08 * u[4 * dim + 1], 0.05 + 0.08 * u[4 * dim + 2]
            ph1, ph2 = 2 * np.pi * u[4 * dim + 3], 2 * np.pi * u[4 * dim + 4]
            points = uniform_doubles((seed, dim) if isinstance(seed, int) else seed + (dim,),
                                     300 * dim).reshape(300, dim)
            expected = (2.0 * u[0] - 1.0) + points @ slope
            expected = expected + amp1 * np.cos(np.pi * (points @ k1) + ph1)
            expected = expected + amp2 * np.cos(np.pi * (points @ k2) + ph2)
            got = trig_field(random_trig_symbol(seed, dim))(points)
            assert got.tobytes() == expected.tobytes(), (dim, seed)


# ---------------------------------------------------------------------------
# The covariance check as array passes, against the code they replaced
# ---------------------------------------------------------------------------

def test_letter_masses_equal_kron_products():
    rng = np.random.default_rng(28)
    for n in range(2, 7):
        raw = rng.uniform(0.1, 1.0, n)
        for weights in (np.full(n, 1.0 / n), raw / raw.sum()):
            for power in range(5):
                expected = np.ones(1)
                for _ in range(power):
                    expected = np.kron(expected, weights)
                got = op._letter_masses(weights, n**power)
                assert got.shape == expected.shape
                assert (got == expected).all(), (n, power)


def four_operator_covariance_residual(ifs, symbol, depth):
    """|C* M_a C - M_(La)| through the block operators: compose, subtract
    and operator_norm on the same pointwise sampled a and La."""
    field = trig_field(symbol)
    a_fine = CellFunction(depth + 1, sample_to_cells(field, cell_grid(ifs, depth + 1).hulls()))
    lhs = adjoint_composition_op(ifs, depth).compose(mult_op(ifs, a_fine)).compose(
        composition_op(ifs, depth))
    rhs = mult_op(ifs, CellFunction(depth, whole_depth_transfer(ifs, field, depth)))
    return operator_norm(lhs.subtract(rhs))


def interval_ifs(rng, n):
    """A 1-D system of n branches tiling [0, 1] at random cuts, each flipped or not."""
    from ifslab.geometry import AffineContraction, AmbientBox, IfsSystem

    cuts = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, n - 1)), [1.0]])
    while np.diff(cuts).min() < 0.2 / n:
        cuts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]])
    branches = []
    for low, high in zip(cuts[:-1], cuts[1:]):
        flip = rng.random() < 0.5
        branches.append(AffineContraction(np.array([[-(high - low) if flip else high - low]]),
                                          np.array([high if flip else low])))
    return IfsSystem(AmbientBox(np.array([[0.0, 1.0]])), branches, name=f"interval {n}")


# The closed-form cell means round differently from a pointwise average:
# every residual stays within this distance of the pointwise oracles.
ORACLE_ATOL = 2e-15


def test_covariance_residual_on_shared_points_is_bit_identical():
    # against the oracle that rebuilds the averaging points per call; the
    # turned systems' cell box hulls are larger than their cells.  The name
    # dates from the pointwise rule, whose residuals matched bit for bit;
    # the closed-form cell means match within ORACLE_ATOL
    rng = np.random.default_rng(2024)
    systems = [catalog.get(name).system
               for name in ("tent_square", "tent_sigma", "tent_1d", "sigma_1d")]
    systems += [random_ifs(rng, kind) for kind in ("2d-rotated", "2d-rotated", "2d-rotated")]
    checked = 0
    for ifs in systems:
        for k in range(3):
            symbol = random_trig_symbol((7, 101, k), ifs.dimension)
            for depth in (2, 3, 4):
                got = cli.covariance_residual(ifs, op.trig_terms(ifs, [symbol]), depth)[0]
                assert abs(got - rebuilt_covariance_residual(ifs, symbol, depth)) \
                    <= ORACLE_ATOL, (ifs.name, k, depth)
                checked += 1
    assert checked == 7 * 3 * 3


def test_covariance_residual_equals_four_operator_expression():
    # through the block operators, on skewed weights too; equal within
    # ORACLE_ATOL
    systems = [(catalog.get(name).system, range(10), (2, 3, 4))
               for name in ("tent_square", "tent_sigma", "tent_1d", "sigma_1d")]
    systems.append((skewed(catalog.get("tent_square")), range(2), (2, 3)))
    rng = np.random.default_rng(10)
    for kind in ("1d", "2d-diagonal", "2d-rotated"):
        for _ in range(3):
            systems.append((random_ifs(rng, kind), range(2), (2, 3)))
    for n in range(2, 17):
        systems.append((interval_ifs(rng, n), range(1), (1, 2)))
    checked = 0
    for ifs, seeds, depths in systems:
        for seed in seeds:
            for k in range(5):
                symbol = random_trig_symbol((seed, 101, k), ifs.dimension)
                for depth in depths:
                    got = cli.covariance_residual(ifs, op.trig_terms(ifs, [symbol]), depth)[0]
                    assert abs(got - four_operator_covariance_residual(ifs, symbol, depth)) \
                        <= ORACLE_ATOL, (ifs.name, seed, k, depth)
                    checked += 1
    assert checked == 600 + 20 + 9 * 20 + 150


def test_covariance_residual_on_near_uniform_weights():
    # weights within 1e-12 of 1/n pass is_hutchinson without being 1/n, so
    # the gap adds sum_i (p_i - 1/n) times the transfer side's means; equal
    # to the block operators' value within ORACLE_ATOL
    from ifslab.geometry import IfsSystem

    cases = [("tent_1d", [0.5 + 1e-13, 0.5 - 1e-13]),
             ("tent_square", [0.25 + 3e-13, 0.25 - 1e-13, 0.25 - 2e-13, 0.25])]
    checked = 0
    for name, weights in cases:
        system = catalog.get(name).system
        ifs = IfsSystem(system.box, system.branches, weights=weights)
        assert ifs.is_hutchinson() and (ifs.weights != 1.0 / ifs.n_branches).any()
        for k in range(5):
            symbol = random_trig_symbol((7, 101, k), ifs.dimension)
            for depth in (2, 3, 4):
                got = cli.covariance_residual(ifs, op.trig_terms(ifs, [symbol]), depth)[0]
                assert abs(got - four_operator_covariance_residual(ifs, symbol, depth)) \
                    <= ORACLE_ATOL, (name, k, depth)
                checked += 1
    assert checked == 2 * 5 * 3


def test_evaluator_calls_stay_under_the_row_cap(tent_sigma):
    ifs = tent_sigma.system
    field = trig_field(random_trig_symbol((7, 101, 0), 2))
    window = AdmissibleSymbol([[0.05, 0.95], [0.05, 0.95]], 0.05)
    rows = []

    def recording(field):
        def evaluate(points):
            rows.append(len(points))
            return field(points)
        return evaluate

    # depth 6: 5 x 6^6 averaging points
    boxes = cell_grid(ifs, 6).hulls()
    got = sample_to_cells(recording(field), boxes)
    assert sum(rows) == 5 * 6**6 and max(rows) <= 2**15
    assert got.tobytes() == per_offset_average(ifs, field, 6).tobytes()

    rows.clear()
    cells = bi._support_cells(boxes, window.support_box)
    got = sample_to_cells(recording(window), boxes[cells])
    assert sum(rows) > 2**15 and max(rows) <= 2**15
    assert got.tobytes() == per_offset_average(ifs, window, 6)[cells].tobytes()


def test_support_averaging_points_equal_gathered_rows():
    # the support cells' points are built from their own hulls; they must be
    # the same floats as their rows of the full array, which in turn are
    # lo + offset * sizes as one expression
    rng = np.random.default_rng(12)
    cases = [(catalog.get(name).system,
              bi.reconstruction_symbol(catalog.get(name).system, 0.05)[0].support_box, depths)
             for name, depths in (("tent_sigma", (3, 4, 5, 6)), ("tent_square", (2, 3, 4, 5)))]
    cases.append((random_ifs(rng, "2d-rotated"), [[0.2, 0.7], [0.1, 0.5]], (2, 3, 4)))
    for ifs, support, depths in cases:
        offsets = halton_points(op.DEFAULT_AVERAGE_POINTS, ifs.dimension)
        for depth in depths:
            boxes = cell_grid(ifs, depth).hulls()
            lo, sizes = boxes[:, :, 0], boxes[:, :, 1] - boxes[:, :, 0]
            full = whole_depth_average_points(ifs, depth)
            assert full.tobytes() == (lo + offsets[:, None, :] * sizes).reshape(
                -1, ifs.dimension).tobytes()
            cells = bi._support_cells(boxes, support)
            assert 0 < len(cells) < len(boxes)
            gathered = full.reshape(len(offsets), len(boxes), -1)[:, cells].reshape(
                -1, ifs.dimension)
            assert op._offset_points(boxes[cells]).tobytes() == gathered.tobytes()


def test_support_sampling_places_points_in_support_cells_only(tent_sigma, monkeypatch):
    # the reference symbol of a reconstruction level places averaging points
    # in the cells that meet its support, and in no others
    ifs = tent_sigma.system
    window, partition = bi.reconstruction_symbol(ifs, 0.05)
    built = []
    original = op._offset_points

    def recording(boxes):
        built.append(len(boxes))
        return original(boxes)

    monkeypatch.setattr(op, "_offset_points", recording)
    for depth in (4, 6):
        built.clear()
        bi.reconstruction_vectors(ifs, window, partition, depth)
        cells = bi._support_cells(cell_grid(ifs, depth).hulls(), window.support_box)
        assert built == [len(cells)] and len(cells) < 6**depth / 4


# ---------------------------------------------------------------------------
# The covariance residuals in tail blocks, against whole-depth arrays
# ---------------------------------------------------------------------------

def covariance_systems():
    """(system, depths): the separated catalog systems, seeded random_ifs
    systems of every kind, and 1-D systems of 2..16 branches, each at the
    depths 0..5 whose fine level stays within 6^6 cells."""
    rng = np.random.default_rng(14)
    systems = [catalog.get(name).system
               for name in ("tent_square", "tent_sigma", "tent_1d", "sigma_1d")]
    systems += [random_ifs(rng, kind) for kind in ("1d", "2d-diagonal", "2d-rotated")]
    systems += [interval_ifs(rng, n) for n in range(2, 17)]
    return [(ifs, [m for m in range(6) if ifs.n_branches ** (m + 1) <= 6**6])
            for ifs in systems]


def prefix_blocks(monkeypatch, ifs, terms, depth, prefixes):
    """The blocks of `trig_tail_blocks`, with `prefixes` prefixes per block
    (the row cap set to that many prefixes' rows), or the default cap."""
    with monkeypatch.context() as patch:
        if prefixes is not None:
            rows = len(terms.slope) * ifs.n_branches ** (depth // 2 + 1)
            patch.setattr(op, "_EVAL_ROWS", prefixes * rows)
        return list(op.trig_tail_blocks(ifs, terms, depth))


@pytest.mark.parametrize("prefix_block", [None, 1, 7])
def test_tail_block_covariance_equals_whole_depth(monkeypatch, prefix_block):
    # every residual of the closed-form block loop is within ORACLE_ATOL of
    # the pointwise one from whole-depth arrays, whether a block holds one
    # prefix, seven or the default number; every gap is the same float at
    # any block size, and at the default a block's rows (one per symbol,
    # branch and tail) never exceed 2^15 unless one prefix's rows alone do
    checked = 0
    for ifs, depths in covariance_systems():
        n = ifs.n_branches
        symbols = [random_trig_symbol((7, 101, k), ifs.dimension) for k in range(2)]
        terms = op.trig_terms(ifs, symbols)
        if prefix_block is not None:  # the small blocks loop in Python: fewer depths
            depths = [m for m in depths if n**m <= 500]
        for depth in depths:
            blocks = prefix_blocks(monkeypatch, ifs, terms, depth, prefix_block)
            suffixes = n ** (depth // 2)
            for gap in blocks:
                assert len(symbols) * n * gap.shape[1] <= 2**15 or gap.shape[1] == suffixes
                if prefix_block is not None:
                    assert gap.shape[1] <= prefix_block * suffixes
            gaps = np.concatenate(blocks, axis=1)
            assert gaps.shape == (len(symbols), n**depth)
            if prefix_block is not None:
                default = np.concatenate(list(op.trig_tail_blocks(ifs, terms, depth)), axis=1)
                assert gaps.tobytes() == default.tobytes(), (ifs.name, depth)
            got = cli.covariance_residual(ifs, terms, depth)
            assert got == np.abs(gaps).max(axis=1).tolist()
            expected = [whole_depth_covariance_residual(ifs, s, depth) for s in symbols]
            assert np.allclose(got, expected, rtol=0.0, atol=ORACLE_ATOL), (ifs.name, depth)
            checked += 1
    assert checked >= 60


def test_covariance_residual_at_shallow_and_odd_depths():
    # depth 0 (one tail), depth 1 (an empty suffix: each tail is its own
    # prefix) and the odd depths 3 and 5 (a prefix one letter longer than
    # its suffix), on one system of each random_ifs kind: equal to the
    # block operators' value within ORACLE_ATOL
    rng = np.random.default_rng(27)
    checked = 0
    for kind in ("1d", "2d-diagonal", "2d-rotated"):
        ifs = random_ifs(rng, kind)
        for depth in (0, 1, 3, 5):
            if ifs.n_branches ** (depth + 1) > 6**6:
                continue
            for k in range(3):
                symbol = random_trig_symbol((27, 101, k), ifs.dimension)
                got = cli.covariance_residual(ifs, op.trig_terms(ifs, [symbol]), depth)[0]
                assert abs(got - four_operator_covariance_residual(ifs, symbol, depth)) \
                    <= ORACLE_ATOL, (kind, depth, k)
                checked += 1
    assert checked >= 36


def support_test_regions(ifs):
    """Closed boxes (d, 2) to select cells near: a box at the low corner, a
    point at the high corner, an interior box and the ambient box."""
    lo, size = ifs.box.lo, ifs.box.sizes
    return [np.stack([lo, lo + 0.2 * size], axis=1),
            np.stack([ifs.box.hi, ifs.box.hi], axis=1),
            np.stack([lo + 0.3 * size, lo + 0.55 * size], axis=1),
            ifs.box.intervals]


def test_support_sampling_selects_the_full_scan_cells():
    # the cells near a support are the products of the prefixes whose hull
    # meets it with every suffix: their centers and frames are the einsum
    # grid's rows, the cells whose hull meets the support are exactly a scan
    # of every cell's, in order, and the averages equal the full grid's bytes
    def field(points):
        return 1.0 + points[:, 0] - 0.5 * points[:, -1]

    selected = pruned = 0
    for ifs in grid_test_systems():
        n = ifs.n_branches
        for depth in range(6):
            if n**depth > 5_000:
                break
            centers, half, boxes = einsum_cell_grid(ifs, depth)
            for region in support_test_regions(ifs):
                cells, near = mea.cells_near(ifs, depth, region)
                assert near.centers.tobytes() == centers[cells].tobytes()
                assert near.frames[near.classes].tobytes() == half[cells].tobytes()
                near_boxes = near.hulls()
                assert near_boxes.tobytes() == boxes[cells].tobytes()
                full = bi._support_cells(boxes, region)
                inside = bi._support_cells(near_boxes, region)
                assert np.array_equal(cells[inside], full)
                selected += len(full) > 0
                pruned += len(cells) < n**depth

                total = np.zeros(len(full))
                points = op._offset_points(boxes[full])
                for values in blockwise_values(field, points, len(full)) if len(full) else ():
                    total = total + values
                want = total / op.DEFAULT_AVERAGE_POINTS
                got = sample_to_cells(field, near_boxes[inside])
                assert got.tobytes() == want.tobytes(), (ifs.name, depth, region)
    assert selected >= 116 and pruned >= 80, (selected, pruned)


def test_covariance_residual_peak_memory(tent_sigma):
    # depth 5 on tent_sigma, five symbols, the grids already cached: the
    # prefix x suffix phasor blocks, which read the depth-3 and depth-2
    # grids, peak at most at the 2 423 148 bytes of the closed-form blocks
    # that formed their tails' depth-6 frames and hulls
    import tracemalloc

    ifs = tent_sigma.system
    terms = op.trig_terms(ifs, [random_trig_symbol((7, 101, k), 2) for k in range(5)])
    cell_grid(ifs, 5)
    cli.covariance_residual(ifs, terms, 5)
    tracemalloc.start()
    try:
        cli.covariance_residual(ifs, terms, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_423_148
