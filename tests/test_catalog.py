import numpy as np

from ifslab import catalog, geometry as geo
from ifslab.cli import DEFAULT_TOLERANCES
from ifslab.ifsfile import export_ifs, parse_ifs


def test_catalog_names_and_sizes():
    entries = {e.name: e for e in catalog.catalog()}
    assert set(entries) == {"tent_square", "tent_sigma", "tent_1d", "sigma_1d",
                            "overlap_bad"}
    assert entries["tent_square"].system.n_branches == 4
    assert entries["tent_sigma"].system.n_branches == 6
    assert entries["tent_1d"].system.n_branches == 2
    assert entries["sigma_1d"].system.n_branches == 3
    assert entries["overlap_bad"].system.n_branches == 2


def test_tent_square_branch_formulas(tent_square):
    # display-order branches of the doubled tent map
    expected = [
        (np.diag([0.5, 0.5]), [0.0, 0.0]),
        (np.diag([0.5, -0.5]), [0.0, 1.0]),
        (np.diag([-0.5, 0.5]), [1.0, 0.0]),
        (np.diag([-0.5, -0.5]), [1.0, 1.0]),
    ]
    for gamma, (lin, tr) in zip(tent_square.system.branches, expected):
        np.testing.assert_array_equal(gamma.linear, lin)
        np.testing.assert_array_equal(gamma.translation, tr)


def test_every_expected_fact_is_validated(all_entries):
    # a catalog entry with a failing fact is a build-breaking error
    for entry in all_entries:
        ifs = entry.system
        pieces = geo.branch_coincidence_set(ifs)
        assert geo.pieces_match_expected(
            pieces, entry.expected.coincidence_segments,
            entry.expected.coincidence_points), entry.name
        values = geo.branch_value_set(ifs)
        assert geo.pieces_match_expected(
            values, entry.expected.value_segments,
            entry.expected.value_points), entry.name
        assert geo.is_finite_branch(ifs) == entry.expected.finite_branch, entry.name
        osc = geo.check_open_set_condition(ifs)
        assert osc.passed == entry.expected.osc_should_pass, entry.name
        covered = geo.self_similarity_defect(ifs).uncovered <= DEFAULT_TOLERANCES["defect_slack"]
        assert covered == entry.expected.is_attractor, entry.name


def test_hutchinson_lebesgue_flags(all_entries):
    # uniform-weight cylinder masses match the Lebesgue volume of the cells
    from ifslab.measure import cell_grid, exact_cell_masses

    for entry in all_entries:
        if not entry.expected.hutchinson_is_lebesgue:
            continue
        ifs = entry.system
        mu = exact_cell_masses(ifs, 2)
        hulls = cell_grid(ifs, 2).hulls()
        volumes = np.prod(hulls[:, :, 1] - hulls[:, :, 0], axis=1)
        np.testing.assert_allclose(mu.masses, volumes / volumes.sum(), atol=1e-14)


def test_export_parse_round_trip_is_exact(all_entries):
    for entry in all_entries:
        parsed = parse_ifs(export_ifs(entry.system, entry.phi_name))
        np.testing.assert_array_equal(parsed.box.intervals, entry.system.box.intervals)
        np.testing.assert_array_equal(parsed.weights, entry.system.weights)
        for got, want in zip(parsed.branches, entry.system.branches):
            np.testing.assert_array_equal(got.linear, want.linear)
            np.testing.assert_array_equal(got.translation, want.translation)
