import numpy as np
import pytest

from conftest import fixture_path
from ifslab import catalog
from ifslab.errors import ConfigError
from ifslab.ifsfile import export_ifs, parse_ifs

# x/2 and 1 - x/2 on [0, 1]: the tests below edit it one line at a time
MINIMAL = fixture_path("tent_1d").read_text()


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


def test_piecewise_phi_outside_every_domain_takes_the_nearest_branch():
    # domains [0, 0.4] and [0.6, 1]: a point outside both goes through the
    # inverse of the nearer domain's branch (the first at equal gaps), and
    # the value is clipped into the box
    text = MINIMAL.replace("phi = tent_1d", "phi = piecewise")
    text = text.replace("translation = [0.0]", "translation = [0.0]\ndomain = [[0.0, 0.4]]")
    text = text.replace("translation = [1.0]", "translation = [1.0]\ndomain = [[0.6, 1.0]]")
    system = parse_ifs(text)
    points = np.array([[0.4], [0.45], [0.5], [0.55], [-0.2], [1.3]])
    np.testing.assert_allclose(system.apply_phi(points)[:, 0],
                               [0.8, 0.9, 1.0, 0.9, 0.0, 0.0], rtol=0.0, atol=1e-15)


def test_piecewise_phi_requires_domains():
    with pytest.raises(ConfigError):
        parse_ifs(MINIMAL.replace("phi = tent_1d", "phi = piecewise"))


@pytest.mark.parametrize("domain", ["[0.0, 0.5]", "[[0.0, 0.5], [0.0, 1.0]]", "[[0.0, 0.5, 1.0]]"])
def test_domain_must_be_a_box_of_the_dimension(domain):
    # the domains are stacked into one (n, d, 2) array of boxes, so a domain
    # of another shape is refused at load
    text = MINIMAL.replace("phi = tent_1d", "phi = piecewise")
    text = text.replace("translation = [0.0]", f"translation = [0.0]\ndomain = {domain}")
    text = text.replace("translation = [1.0]", "translation = [1.0]\ndomain = [[0.5, 1.0]]")
    with pytest.raises(ConfigError, match=r"\[branch.1\] domain must list one"):
        parse_ifs(text)


def test_catalog_phi_matches_exported_reference(tent_square):
    # exported file resolves phi by catalog name back to the same evaluator
    parsed = parse_ifs(export_ifs(tent_square.system, "tent_square"))
    pts = np.array([[0.2, 0.7], [0.6, 0.1], [0.5, 0.5]])
    np.testing.assert_array_equal(parsed.apply_phi(pts), tent_square.system.apply_phi(pts))


@pytest.mark.parametrize("old,new,message", [
    ("linear = [[0.5]]", "linear = [[0.5], [0.1, 0.2]]",
     r"\[branch.1\] linear must be finite numbers in a rectangular JSON array"),
    ("linear = [[0.5]]", 'linear = "half"', r"\[branch.1\] linear must be finite numbers"),
    ("dimension = 1", "dimension = one", r"\[system\] dimension must be an integer, got 'one'"),
    ("linear = [[-0.5]]\n", "", r"\[branch.2\] is missing 'linear'"),
    ("phi = tent_1d", "phi = tent_1d\nweights = [NaN, NaN]",
     r"\[system\] weights must be finite numbers"),
    ("box = [[0.0, 1.0]]", "box = [[1.0, 0.0]]", r"\[system\] box: each interval"),
    ("[branch.2]", "[branch.two]", "branch sections must be numbered"),
    ("phi = tent_1d", "phi = tent_1d\nname = tent\n  one", r"\[system\] name must be one line"),
], ids=["ragged", "string", "dimension-word", "missing-linear", "nan-weights", "empty-box",
        "branch-word", "multi-line-name"])
def test_malformed_values_name_the_section_and_key(old, new, message):
    # each of these escaped as a numpy or Python exception (a traceback and
    # exit 1 from the command line); the NaN weights passed every weight
    # check and stopped the fixed-point iteration, and a name continued on
    # an indented line wrote every reconstruction.csv row across two lines
    assert old in MINIMAL
    with pytest.raises(ConfigError, match=message):
        parse_ifs(MINIMAL.replace(old, new))


@pytest.mark.parametrize("old,new,message", [
    ("phi = tent_1d", "phi = tent_1d\nweigths = [0.9, 0.1]", r"unknown key 'weigths' in \[system\]"),
    ("translation = [1.0]", "translation = [1.0]\ntranslaton = [2.0]",
     r"unknown key 'translaton' in \[branch.2\]"),
    ("[branch.2]", "[brnach.3]\nlinear = [[0.5]]\n\n[branch.2]", r"unknown section \[brnach.3\]"),
], ids=["system", "branch", "section"])
def test_unknown_keys_are_refused(old, new, message):
    # a misspelt key or section was ignored: the misspelt weights gave
    # uniform weights
    with pytest.raises(ConfigError, match=message):
        parse_ifs(MINIMAL.replace(old, new))


def test_multi_line_arrays_stay_legal():
    # configparser continues a value on indented lines: a JSON array may span them
    text = MINIMAL.replace("box = [[0.0, 1.0]]", "box = [[0.0,\n  1.0]]")
    assert parse_ifs(text).box.intervals.tolist() == [[0.0, 1.0]]


def test_malformed_definition_files_exit_2(tmp_path, capsys):
    # a malformed value, a missing or unknown key, a name continued on an
    # indented line and a file that is not UTF-8 text (a UnicodeDecodeError
    # traceback once) are configuration errors that name what is wrong
    from ifslab.cli import main

    system = "phi = tent_1d"
    for name, old, new, message in (
            ("ragged", "linear = [[0.5]]", "linear = [[0.5], [0.1, 0.2]]", "[branch.1] linear"),
            ("string", "linear = [[0.5]]", 'linear = "half"',
             "[branch.1] linear must be finite numbers"),
            ("dimension-word", "dimension = 1", "dimension = one",
             "dimension must be an integer, got 'one'"),
            ("missing-linear", "linear = [[-0.5]]\n", "", "[branch.2] is missing 'linear'"),
            ("weigths", system, f"{system}\nweigths = [0.9, 0.1]", "'weigths'"),
            ("unknown-branch-key", "translation = [1.0]", "translation = [1.0]\ntranslaton = [2.0]",
             "unknown key 'translaton' in [branch.2]"),
            ("multi-line-name", system, f"{system}\nname = tent\n one", "name must be one line"),
            ("latin-1", system, f"{system}\nname = t\xe9nt", "latin-1.ifs")):
        text = MINIMAL.replace(old, new)
        assert text != MINIMAL, name  # the edit took
        path = tmp_path / f"{name}.ifs"
        path.write_bytes(text.encode("latin-1"))
        assert main(["verify", "--system", str(path), "--depths", "2..3",
                     "--out", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err, err
