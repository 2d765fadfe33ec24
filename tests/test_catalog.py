import numpy as np

from conftest import CATALOG_FACTS, is_finite_branch, pieces_match_facts

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
    # every catalog system has a row of facts, and each fact holds
    assert sorted(CATALOG_FACTS) == sorted(entry.name for entry in all_entries)
    for entry in all_entries:
        ifs, facts = entry.system, CATALOG_FACTS[entry.name]
        assert pieces_match_facts(ifs, facts), entry.name
        assert is_finite_branch(ifs) == facts.finite_branch, entry.name
        osc = geo.check_open_set_condition(ifs)
        assert osc.passed == facts.osc_should_pass, entry.name
        covered = geo.self_similarity_defect(ifs).uncovered <= DEFAULT_TOLERANCES["defect_slack"]
        assert covered == facts.is_attractor, entry.name


def test_hutchinson_lebesgue_flags(all_entries):
    # the uniform-weight measure is Lebesgue on the box when the branch
    # images cover the box and each depth-2 cell's mass is its share of
    # the box volume: the cell volumes then sum to the box's, so the cells
    # overlap only on null sets
    from ifslab.measure import cell_grid, exact_cell_masses

    for entry in all_entries:
        ifs = entry.system
        mu = exact_cell_masses(ifs, 2)
        hulls = cell_grid(ifs, 2).hulls()
        shares = np.prod(hulls[:, :, 1] - hulls[:, :, 0], axis=1) / np.prod(ifs.box.sizes)
        covered = geo.self_similarity_defect(ifs).uncovered <= DEFAULT_TOLERANCES["defect_slack"]
        lebesgue = covered and np.allclose(mu.masses, shares, rtol=0.0, atol=1e-14)
        assert lebesgue == CATALOG_FACTS[entry.name].hutchinson_is_lebesgue, entry.name


def test_export_parse_round_trip_is_exact(all_entries):
    for entry in all_entries:
        parsed = parse_ifs(export_ifs(entry.system, entry.phi_name))
        np.testing.assert_array_equal(parsed.box.intervals, entry.system.box.intervals)
        np.testing.assert_array_equal(parsed.weights, entry.system.weights)
        for got, want in zip(parsed.branches, entry.system.branches):
            np.testing.assert_array_equal(got.linear, want.linear)
            np.testing.assert_array_equal(got.translation, want.translation)
