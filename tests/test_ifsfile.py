import numpy as np
import pytest

from ifslab import catalog
from ifslab.errors import ConfigError
from ifslab.ifsfile import export_ifs, parse_ifs

MINIMAL = """
[system]
dimension = 1
box = [[0.0, 1.0]]
phi = tent_1d

[branch.1]
linear = [[0.5]]
translation = [0.0]

[branch.2]
linear = [[-0.5]]
translation = [1.0]
"""


def test_parse_minimal_system():
    system = parse_ifs(MINIMAL)
    assert system.n_branches == 2
    assert system.dimension == 1
    np.testing.assert_allclose(system.weights, [0.5, 0.5])


def test_round_trip_catalog_exact(all_entries):
    for entry in all_entries:
        text = export_ifs(entry.system, entry.phi_name)
        parsed = parse_ifs(text)
        assert parsed.n_branches == entry.system.n_branches
        np.testing.assert_array_equal(parsed.box.intervals, entry.system.box.intervals)
        np.testing.assert_array_equal(parsed.weights, entry.system.weights)
        for got, want in zip(parsed.branches, entry.system.branches):
            np.testing.assert_array_equal(got.linear, want.linear)
            np.testing.assert_array_equal(got.translation, want.translation)


def test_weights_must_sum_to_one():
    text = MINIMAL + "\n"
    text = text.replace("phi = tent_1d", "phi = tent_1d\nweights = [0.5, 0.499999]")
    with pytest.raises(ConfigError):
        parse_ifs(text)


def test_weights_must_be_positive():
    text = MINIMAL.replace("phi = tent_1d", "phi = tent_1d\nweights = [1.0, 0.0]")
    with pytest.raises(ConfigError):
        parse_ifs(text)


def test_unknown_phi_rejected():
    with pytest.raises(ConfigError):
        parse_ifs(MINIMAL.replace("tent_1d", "no_such_map"))


def test_branch_numbering_enforced():
    with pytest.raises(ConfigError):
        parse_ifs(MINIMAL.replace("branch.2", "branch.3"))


def test_piecewise_phi_inverts_branches():
    text = MINIMAL.replace("phi = tent_1d", "phi = piecewise")
    text = text.replace("translation = [0.0]", "translation = [0.0]\ndomain = [[0.0, 0.5]]")
    text = text.replace("translation = [1.0]", "translation = [1.0]\ndomain = [[0.5, 1.0]]")
    system = parse_ifs(text)
    from ifslab.geometry import verify_inverse_branches

    assert verify_inverse_branches(system) <= 1e-12


def test_piecewise_phi_requires_domains():
    with pytest.raises(ConfigError):
        parse_ifs(MINIMAL.replace("phi = tent_1d", "phi = piecewise"))


def test_catalog_phi_matches_exported_reference(tent_square):
    # exported file resolves phi by catalog name back to the same evaluator
    parsed = parse_ifs(export_ifs(tent_square.system, "tent_square"))
    pts = np.array([[0.2, 0.7], [0.6, 0.1], [0.5, 0.5]])
    np.testing.assert_array_equal(parsed.apply_phi(pts), tent_square.system.apply_phi(pts))
