import numpy as np
import pytest

from conftest import fixture_path
from ifslab.errors import ConfigError
from ifslab.ifsfile import export_ifs, parse_ifs

# x/2 and 1 - x/2 on [0, 1]: the tests below edit it one line at a time,
# adding keys to [system] after its name line
MINIMAL = fixture_path("tent_1d").read_text()
NAME = "name = tent_1d"


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
    text = text.replace(NAME, f"{NAME}\nweights = [0.5, 0.499999]")
    with pytest.raises(ConfigError):
        parse_ifs(text)


def test_weights_must_be_positive():
    text = MINIMAL.replace(NAME, f"{NAME}\nweights = [1.0, 0.0]")
    with pytest.raises(ConfigError):
        parse_ifs(text)


def test_unknown_phi_rejected():
    # the expanding map is derived from the branches, so the key that once
    # named it is refused, not ignored
    with pytest.raises(ConfigError, match=r"unknown key 'phi' in \[system\]"):
        parse_ifs(MINIMAL.replace(NAME, f"{NAME}\nphi = tent_1d"))


def test_branch_numbering_enforced():
    with pytest.raises(ConfigError):
        parse_ifs(MINIMAL.replace("branch.2", "branch.3"))


@pytest.mark.parametrize("old,new,message", [
    ("linear = [[0.5]]", "linear = [[0.5], [0.1, 0.2]]",
     r"\[branch.1\] linear must be finite numbers in a rectangular JSON array"),
    ("linear = [[0.5]]", 'linear = "half"', r"\[branch.1\] linear must be finite numbers"),
    ("dimension = 1", "dimension = one", r"\[system\] dimension must be an integer, got 'one'"),
    ("linear = [[-0.5]]\n", "", r"\[branch.2\] is missing 'linear'"),
    (NAME, f"{NAME}\nweights = [NaN, NaN]",
     r"\[system\] weights must be finite numbers"),
    ("box = [[0.0, 1.0]]", "box = [[1.0, 0.0]]", r"\[system\] box: each interval"),
    ("[branch.2]", "[branch.two]", "branch sections must be numbered"),
    (NAME, "name = tent\n  one", r"\[system\] name must be one line"),
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
    (NAME, f"{NAME}\nweigths = [0.9, 0.1]", r"unknown key 'weigths' in \[system\]"),
    ("translation = [1.0]", "translation = [1.0]\ntranslaton = [2.0]",
     r"unknown key 'translaton' in \[branch.2\]"),
    ("[branch.2]", "[brnach.3]\nlinear = [[0.5]]\n\n[branch.2]", r"unknown section \[brnach.3\]"),
], ids=["system", "branch", "section"])
def test_unknown_keys_are_refused(old, new, message):
    # a misspelt key or section was ignored: the misspelt weights gave
    # uniform weights
    with pytest.raises(ConfigError, match=message):
        parse_ifs(MINIMAL.replace(old, new))


@pytest.mark.parametrize("domain", ["[0.0, 0.5]", "[[0.0, 0.5], [0.0, 1.0]]", "[[0.0, 0.5, 1.0]]"])
def test_domain_must_be_a_box_of_the_dimension(domain):
    # phi is derived from the branches, so a branch domain of any shape,
    # a box of the dimension included, is refused at load as an unknown key
    text = MINIMAL.replace("translation = [0.0]", f"translation = [0.0]\ndomain = {domain}")
    with pytest.raises(ConfigError, match=r"unknown key 'domain' in \[branch.1\]"):
        parse_ifs(text)


def test_multi_line_arrays_stay_legal():
    # configparser continues a value on indented lines: a JSON array may span them
    text = MINIMAL.replace("box = [[0.0, 1.0]]", "box = [[0.0,\n  1.0]]")
    assert parse_ifs(text).box.intervals.tolist() == [[0.0, 1.0]]


def test_malformed_definition_files_exit_2(tmp_path, capsys):
    # a malformed value, a missing or unknown key, a name continued on an
    # indented line and a file that is not UTF-8 text (a UnicodeDecodeError
    # traceback once) are configuration errors that name what is wrong
    from ifslab.cli import main

    for name, old, new, message in (
            ("ragged", "linear = [[0.5]]", "linear = [[0.5], [0.1, 0.2]]", "[branch.1] linear"),
            ("string", "linear = [[0.5]]", 'linear = "half"',
             "[branch.1] linear must be finite numbers"),
            ("dimension-word", "dimension = 1", "dimension = one",
             "dimension must be an integer, got 'one'"),
            ("missing-linear", "linear = [[-0.5]]\n", "", "[branch.2] is missing 'linear'"),
            ("weigths", NAME, f"{NAME}\nweigths = [0.9, 0.1]", "'weigths'"),
            ("unknown-branch-key", "translation = [1.0]", "translation = [1.0]\ntranslaton = [2.0]",
             "unknown key 'translaton' in [branch.2]"),
            ("multi-line-name", NAME, "name = tent\n one", "name must be one line"),
            ("latin-1", NAME, "name = t\xe9nt", "latin-1.ifs")):
        text = MINIMAL.replace(old, new)
        assert text != MINIMAL, name  # the edit took
        path = tmp_path / f"{name}.ifs"
        path.write_bytes(text.encode("latin-1"))
        assert main(["verify", "--system", str(path), "--depths", "2..3",
                     "--out", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err, err
