import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ifslab.cli import main
from ifslab.ifsfile import export_ifs
from ifslab import bimodule, catalog, cli, geometry, measure, operators
from ifslab.errors import DepthOverflow

from conftest import fixture_path


def run(args):
    return main(args)


def test_verify_tent_square_passes(tmp_path):
    code = run(["verify", "--system", "tent_square", "--depths", "2..4",
                "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    for name in ("verify_geometry.csv", "verify_measure.csv",
                 "verify_operators.csv", "verify_reconstruction.csv"):
        assert (tmp_path / name).exists()


def test_verify_overlap_bad_fails(tmp_path, capsys):
    code = run(["verify", "--system", "overlap_bad", "--depths", "2..3",
                "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "FIRST FAILING CHECK" in err
    geometry = (tmp_path / "verify_geometry.csv").read_text()
    assert "open-set-condition" in geometry and "fail" in geometry


def test_verify_depth_overflow(tmp_path, capsys, monkeypatch):
    code = run(["verify", "--system", "tent_square", "--depths", "9..9",
                "--out", str(tmp_path)])
    assert code == 2
    assert "DepthOverflow" in capsys.readouterr().err
    # IFSLAB_CELL_BUDGET is the only cell-budget setting: tent_square's 64
    # cells at depth 3 reach a budget of 64
    monkeypatch.setenv("IFSLAB_CELL_BUDGET", "64")
    assert run(["operators", "--system", "tent_square", "--depths", "2..3",
                "--out", str(tmp_path / "budget")]) == 2
    assert capsys.readouterr().err == "DepthOverflow: 4^3 = 64 cells reaches the cell budget 64\n"
    assert not (tmp_path / "budget").exists()


@pytest.mark.parametrize("budget", ["abc", "0", "-5", "1.5"])
def test_bad_cell_budget_is_config_error(tmp_path, capsys, monkeypatch, budget):
    # refused before any work, with the variable named
    monkeypatch.setenv("IFSLAB_CELL_BUDGET", budget)
    code = run(["operators", "--system", "tent_square", "--depths", "2..3",
                "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: IFSLAB_CELL_BUDGET")
    assert repr(budget) in err
    assert not (tmp_path / "out").exists()


def test_unknown_system_is_config_error(tmp_path, capsys):
    code = run(["verify", "--system", "nonesuch", "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_tolerance_is_config_error(tmp_path, capsys):
    code = run(["verify", "--system", "tent_square", "--out", str(tmp_path),
                "--tol", "bogus=1"])
    assert code == 2
    # the known keys are exactly the ones the checks read
    assert {key for entry in cli.CHECKS for key in entry.keys} == set(cli.DEFAULT_TOLERANCES)


def test_readme_check_table_is_the_cli_table():
    # README's table of checks is cli.CHECKS, entry for entry and in order
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as handle:
        lines = handle.read().splitlines()
    start = lines.index("| check | suite | rule | tolerance keys |") + 2
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, suite, rule, keys = (cell.strip() for cell in line.strip("|").split("|"))
        table.append((name.strip("`"), suite, rule,
                      tuple(key.strip("`") for key in keys.split(", ") if key)))
    assert table == [(entry.name, entry.suite, entry.rule, entry.keys) for entry in cli.CHECKS]
    # a row is built only for a check of the table, and `refused` names its suite
    cfg = cli.RunConfig()
    with pytest.raises(KeyError, match="no-such-check"):
        cli.check_row(cfg, "no-such-check", "detail", 0.0)
    with pytest.raises(KeyError, match="3 entries"):
        cli.check_row(cfg, "refused", "detail")
    assert cli.check_row(cfg, "refused", "detail", suite="operators").suite == "operators"


def test_measure_outputs_exact_masses(tmp_path):
    code = run(["measure", "--system", "tent_square", "--depths", "2..2",
                "--samples", "100000", "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "measure_exact.csv").read_text().strip().split("\n")
    assert lines[0] == "word,mass"
    assert len(lines) == 17
    assert all(line.endswith(",0.0625") for line in lines[1:])


def test_measure_depth_zero_is_the_one_cell(tmp_path):
    # at depth 0 every chaos-game sample falls in the one cell, whose word
    # is empty
    code = run(["measure", "--system", "tent_1d", "--depths", "0..1",
                "--samples", "1000", "--out", str(tmp_path)])
    assert code == 0
    for name in ("measure_empirical.csv", "measure_exact.csv", "measure_fixpoint.csv"):
        assert (tmp_path / name).read_text() == "word,mass\n,1\n", name


def test_measure_refuses_exact_without_separation(tmp_path, capsys):
    # K = [0, 1] and the images of x/2 and x/2 + 1/4 overlap on an open
    # interval: the measure is not separated, so `measure` writes no exact
    # masses and verify's measure suite is one refused row, each naming the pair
    path = fixture_path("three_branch")
    code = run(["measure", "--system", str(path), "--depths", "2..2",
                "--samples", "1000", "--out", str(tmp_path / "measure")])
    assert code == 1
    assert "measure not separated: branch images (1; 2) overlap" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path / "measure")) == ["measure_empirical.csv",
                                                        "measure_fixpoint.csv"]
    assert len(written_rows(tmp_path / "measure" / "measure_fixpoint.csv")) == 9
    assert run(["verify", "--system", str(path), "--depths", "2..3",
                "--out", str(tmp_path / "verify")]) == 1
    assert written_rows(tmp_path / "verify" / "verify_measure.csv") == [
        ["refused", "measure not separated: branch images (1; 2) overlap", "1", "0", "fail"]]


def test_operators_residual_table(tmp_path):
    code = run(["operators", "--system", "tent_sigma", "--depths", "2..4",
                "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "operator_residuals.csv").read_text().strip().split("\n")
    assert lines[0] == "depth,identity,residual,bound"
    isometry = [line for line in lines[1:] if line.split(",")[1] == "isometry"]
    assert len(isometry) == 3
    assert all(float(line.split(",")[2]) <= 1e-12 for line in isometry)


def test_operators_failure_names_check(tmp_path, capsys):
    code = run(["operators", "--system", "tent_1d", "--depths", "2..3",
                "--out", str(tmp_path), "--tol", "isometry=-1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "FIRST FAILING CHECK: isometry" in err
    assert "depth 2" in err


def test_measure_failure_names_suite(tmp_path, capsys):
    # off K = B separation is undecided, and the refusal names the attractor
    code = run(["measure", "--system", "overlap_bad", "--depths", "2..2",
                "--samples", "1000", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "FIRST FAILING CHECK: exact-masses (measure: refused: attractor is not the ambient box; ")
    assert not (tmp_path / "measure_exact.csv").exists()


@pytest.mark.parametrize("depth,samples", [(3, 100_000), (2, 1_025)])
def test_geometric_path_counts_every_sample(tmp_path, depth, samples):
    # overlapping images stream the geometric path, the orbit binned a block
    # at a time, and the exact masses are refused.  1 025 samples on 1 024
    # chains count the first chain's sample after the last step row, so
    # every mass is a whole number of 1 025ths
    assert run(["measure", "--system", "overlap_bad", "--depths", f"{depth}..{depth}",
                "--samples", str(samples), "--out", str(tmp_path)]) == 1
    counts = [float(mass) * samples
              for _, mass in written_rows(tmp_path / "measure_empirical.csv")]
    assert counts and all(abs(count - round(count)) < 1e-9 for count in counts), counts
    assert sum(map(round, counts)) == samples


def test_reconstruction_suite_runs_once(tmp_path, monkeypatch):
    calls = Counter()
    for name in ("reconstruction_vectors", "build_bump_partition"):
        def counted(*args, _name=name, _original=getattr(bimodule, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(bimodule, name, counted)

    assert run(["reconstruct", "--system", "tent_sigma", "--depths", "2..5",
                "--out", str(tmp_path / "reconstruct")]) == 0
    assert calls == {"reconstruction_vectors": 4, "build_bump_partition": 1}
    calls.clear()
    assert run(["report", "--system", "tent_square", "--depths", "2..3",
                "--samples", "20000", "--out", str(tmp_path / "report")]) == 0
    assert calls == {"reconstruction_vectors": 2, "build_bump_partition": 1}


def written_rows(path):
    """The (check, detail, value, threshold, status) rows of a check CSV."""
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def first_failure_line(checks):
    """The stderr line that names the first failure of (suite, row) pairs, or ""."""
    failing = [(suite, row) for suite, row in checks if row[4] == "fail"]
    if not failing:
        return ""
    suite, (check, detail, value, threshold, _) = failing[0]
    return (f"FIRST FAILING CHECK: {check} ({suite}: {detail}; value {float(value):.6g}, "
            f"bound {float(threshold):.6g}); {len(failing)} of {len(checks)} checks failed\n")


@pytest.mark.parametrize("uniform", [True, False])
def test_operator_suite_runs_once(tmp_path, monkeypatch, capsys, uniform):
    # report is the views of measure, operators, reconstruct and verify on
    # one run: it decides the open set condition once, forms the identity
    # block once and runs each depth's covariance residual once, writes
    # every CSV those commands write byte for byte, and prints their
    # stderr in that order.  Each command's verdict is that of the rows it
    # writes: verify's of its four CSVs, operators' of verify_operators.csv
    # and reconstruct's of verify_reconstruction.csv.  Uniform weights:
    # every catalog system, the tent_square file twin and a rotated file
    # that fails the open set condition; otherwise a tent file at weights
    # 0.3 and 0.7.
    if uniform:
        entry = catalog.get("tent_square")
        twin = tmp_path / "tent_square.ifs"
        twin.write_text(export_ifs(entry.system, entry.phi_name))
        rotated = fixture_path("rotated")
        systems = [other.name for other in catalog.catalog()] + [str(twin), str(rotated)]
    else:
        tent = catalog.get("tent_1d").system
        skew = tmp_path / "skew.ifs"
        skew.write_text(export_ifs(geometry.IfsSystem(tent.box, tent.branches,
                                                      weights=[0.3, 0.7]), "tent_1d"))
        systems = [str(skew)]

    calls = Counter()
    for owner, name in ((cli, "identity_residuals"), (cli, "covariance_residual"),
                        (geometry, "_disjoint_images")):
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for k, system in enumerate(systems):
        out = tmp_path / str(k)
        args = ["--system", system, "--depths", "2..3", "--samples", "5000", "--seed", "3"]
        codes, errors = {}, {}
        for command in ("measure", "operators", "reconstruct", "verify"):
            codes[command] = run([command, *args, "--out", str(out / command)])
            errors[command] = capsys.readouterr().err
        calls.clear()
        code = run(["report", *args, "--out", str(out / "report")])
        assert capsys.readouterr().err == "".join(errors.values()), system
        assert code == max(codes.values()), system

        written = set()
        for command in codes:
            for name in os.listdir(out / command):
                assert (out / command / name).read_bytes() == \
                    (out / "report" / name).read_bytes(), (system, name)
                written.add(name)
        assert written == set(os.listdir(out / "report")), system

        checks = {suite: [(suite, row) for row in
                          written_rows(out / "verify" / f"verify_{suite}.csv")]
                  for suite in ("geometry", "measure", "operators", "reconstruction")}
        written_by = {"verify": sum(checks.values(), []), "operators": checks["operators"],
                      "reconstruct": checks["reconstruction"]}
        for command, rows in written_by.items():
            assert errors[command] == first_failure_line(rows), (system, command)
            assert codes[command] == int(bool(errors[command])), (system, command)
        assert codes["measure"] == int(bool(errors["measure"])), system

        table = (out / "report" / "operator_residuals.csv").read_text().splitlines()
        decided = {"_disjoint_images": 1}
        if [row[0] for _, row in checks["operators"]] == ["refused"]:
            assert calls == decided and len(table) == 1, system
        elif uniform:
            assert calls == {**decided, "identity_residuals": 1, "covariance_residual": 2}
            assert len(table) == 9, system
        else:
            assert calls == {**decided, "identity_residuals": 1}
    if uniform:
        assert "refused" in (tmp_path / str(len(systems) - 1) / "verify" /
                             "verify_operators.csv").read_text()


@pytest.mark.parametrize("argv,check", [
    (["--system", "tent_1d", "--tol", "covariance_ratio_hi=0.1"], "covariance-ratio"),
    (["--system", "tent_square", "--seed", "47"], "covariance-ratio"),
    (["--system", "overlap_bad"], "refused"),
], ids=["tight-ratio-band", "tent-square-seed-47", "overlap-bad"])
def test_operators_verdict_is_its_check_rows(tmp_path, capsys, argv, check):
    # the exit status and first failing check of `operators` are those of
    # verify_operators.csv, whose rate and refused rows the residual table
    # has no room for; overlap_bad's attractor is not the box, so no
    # operator residual is computed and the table is header-only
    args = [*argv, "--depths", "2..3"]
    assert run(["operators", *args, "--out", str(tmp_path / "operators")]) == 1
    assert capsys.readouterr().err.startswith(f"FIRST FAILING CHECK: {check} (operators: ")
    assert run(["verify", *args, "--out", str(tmp_path / "verify")]) == 1
    rows = written_rows(tmp_path / "verify" / "verify_operators.csv")
    assert next(row for row in rows if row[4] == "fail")[0] == check
    table = (tmp_path / "operators" / "operator_residuals.csv").read_text().splitlines()
    assert len(table) == (1 if check == "refused" else 9)


def test_identical_branches_coincide_on_the_whole_interval(tmp_path):
    # two equal branches of a 1-D system agree on the whole box, one segment
    # piece with endpoints: verify fails at the hypotheses, not in a traceback
    path = fixture_path("identical_branch")
    assert run(["verify", "--system", str(path), "--depths", "2..3",
                "--out", str(tmp_path / "out")]) == 1
    rows = {row[0]: row for row in written_rows(tmp_path / "out" / "verify_geometry.csv")}
    assert [rows["coincidence-set"][k] for k in (1, 2, 4)] == ["1 pieces", "0", "pass"]
    assert rows["open-set-condition"][4] == "fail"
    assert written_rows(tmp_path / "out" / "verify_measure.csv") == [
        ["refused", "measure not separated: branch images (1; 2) overlap", "1", "0", "fail"]]


def test_turned_branches_name_their_overlap_witness(tmp_path):
    # two turned branches whose images overlap: the open set condition is
    # decided by the separating-axis test, which names the pair and a point
    # in both open images
    assert run(["verify", "--system", str(fixture_path("rotated")), "--depths", "2..3",
                "--out", str(tmp_path)]) == 1
    rows = {row[0]: row for row in written_rows(tmp_path / "verify_geometry.csv")}
    assert rows["open-set-condition"][1].startswith("failed overlap at pair (1; 2); witness")
    assert rows["open-set-condition"][4] == "fail"


def test_inverse_branch_names_the_pair_and_point_where_inverses_differ(tmp_path):
    # the gasket's branches 1 and 2 meet on the segment x = 1/2, y <= 1/2,
    # where g_1^-1(y) - g_2^-1(y) = (1, 0); the row names the pair and the
    # segment's end (1/2, 0).  The tent's one pair meets at 1/2 and passes
    assert run(["verify", "--system", str(fixture_path("gasket")), "--depths", "2..3",
                "--out", str(tmp_path / "gasket")]) == 1
    rows = {row[0]: row for row in written_rows(tmp_path / "gasket" / "verify_geometry.csv")}
    assert rows["inverse-branch"][1:3] == ["inverses of branches 1 and 2 differ at [0.5 0. ]",
                                           "1"]
    assert rows["inverse-branch"][4] == "fail"
    assert run(["verify", "--system", "tent_1d", "--depths", "2..3",
                "--out", str(tmp_path / "tent")]) == 0
    rows = {row[0]: row for row in written_rows(tmp_path / "tent" / "verify_geometry.csv")}
    assert rows["inverse-branch"][1:3] == ["1 meeting pairs", "0"]


def tent_file(path, length):
    """The tent as a definition file on [0, length]."""
    tent = catalog.get("tent_1d").system
    box = geometry.AmbientBox(np.array([[0.0, length]]))
    branches = [geometry.AffineContraction(g.linear, g.translation * length)
                for g in tent.branches]
    path.write_text(export_ifs(geometry.IfsSystem(box, branches), "tent"))
    return path


def test_box_below_the_finest_pitch_is_named(tmp_path, capsys, monkeypatch):
    # tent_1d on [0, 0.0005] at delta 5e-10: the pitch floor delta/8 scales
    # with delta, so the window gets a partition of 536 868 bumps; with a
    # budget below that count the refusal names the count and the bound
    path = tent_file(tmp_path / "tiny.ifs", 0.0005)
    argv = ["reconstruct", "--system", str(path), "--depths", "2..3", "--delta", "1e-6"]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 0
    rows = written_rows(tmp_path / "out" / "reconstruction.csv")
    assert [row[2] for row in rows] == ["536868", "536868"]
    monkeypatch.setenv("IFSLAB_CELL_BUDGET", str(2**19))
    assert run([*argv, "--out", str(tmp_path / "refused")]) == 1
    assert ("bump-partition (reconstruction: 536868 bumps at pitch 4.656612873077393e-10 "
            "exceed the cell budget 524288;") in capsys.readouterr().err


def test_reconstruction_memory_does_not_grow_with_the_bump_count(tmp_path):
    # the tent on [0, 0.0005] at delta 1e-5: 67 106 bumps, of which each
    # support row carries at most 3.  The residual pairs the rows' tent
    # slots, and a warm run peaks near 33 KB; scattering 256 rows at a time
    # into dense (rows, bumps) arrays took it to 8.6 MB
    path = tent_file(tmp_path / "tiny.ifs", 0.0005)
    argv = ["reconstruct", "--system", str(path), "--depths", "2..3", "--delta", "1e-5"]
    assert run([*argv, "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert run([*argv, "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = written_rows(tmp_path / "out" / "reconstruction.csv")
    assert [row[2] for row in rows] == ["67106", "67106"]
    assert peak < 2**20, peak


def test_tiny_delta_stops_at_the_bump_budget(tmp_path, capsys):
    # tent_square at delta 1e-9: every pitch's union box meets a foreign
    # image until the lattice outgrows the cell budget, and the pitch loop
    # stops there, long before the floor delta/(8 sqrt 2), where each axis
    # would hold 2^33 nodes and their product would wrap around in intp
    assert run(["reconstruct", "--system", "tent_square", "--depths", "2..3",
                "--delta", "1e-9", "--out", str(tmp_path / "out")]) == 1
    assert ("bump-partition (reconstruction: 1050625 bumps at pitch 0.00048828125 exceed "
            "the cell budget 1048576;") in capsys.readouterr().err
    assert len(written_rows(tmp_path / "out" / "reconstruction.csv")) == 0


def test_delta_is_a_fraction_of_the_shortest_side(tmp_path):
    # tent_sigma's window is branch 1's image shrunk by 2 * 0.06 on every
    # side (the certificate's edge case is test_clearance_certificate_at_its_edge)
    assert run(["reconstruct", "--system", "tent_sigma", "--depths", "2..3", "--delta", "0.06",
                "--out", str(tmp_path)]) == 0
    assert [row[2] for row in written_rows(tmp_path / "reconstruction.csv")] == ["55", "55"]


@pytest.mark.parametrize("argv,refusal", [
    (["--system", "tent_square", "--depths", "2..4", "--delta", "0.3"],
     "branch image [[0.5, 1.0], [0.5, 1.0]] shrunk by 2*delta=0.6 on every side has no width; "
     "lower delta; value 1, bound 0)"),
    (["--system", str(fixture_path("uncoverable")), "--depths", "2..3"],
     "no admissible rectangle pitch down to 0.00390625 (condition foreign-branch 1 on the "
     "union box [[0.49609375, 0.90625]]); value 1, bound 0)"),
], ids=["no-window", "uncoverable"])
def test_refused_partition_writes_the_header_alone(tmp_path, capsys, argv, refusal):
    # a delta that leaves no branch image a window is refused before any
    # partition; on overlapping images with an empty value set every
    # pitch's union box meets the other branch's image, so the search
    # reaches the pitch floor, whose union box and blocking branch the
    # refusal names.  Either way the table is its header alone
    assert run(["reconstruct", *argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"FIRST FAILING CHECK: bump-partition (reconstruction: {refusal}; 1 of 1 checks failed\n")
    assert written_rows(tmp_path / "reconstruction.csv") == []


def test_transfer_equality_holds_on_near_uniform_weights():
    # weights within 1e-12 of 1/2 load as 1/2 exactly, so C* is built from
    # the weights L averages with and C* - L is 0: transfer-eq passes
    tent = catalog.get("tent_1d").system
    ifs = geometry.IfsSystem(tent.box, tent.branches, weights=[0.5 + 4e-13, 0.5 - 4e-13])
    assert ifs.weights.tolist() == [0.5, 0.5]
    assert cli.identity_residuals(ifs)[2] == 0.0
    cfg = cli.RunConfig(system="tent_1d", depths=(2, 3))
    rows = [row for row in cli.operator_rows(cfg, ifs, cli.operator_suite(cfg, ifs))
            if row.check == "transfer-eq"]
    assert [row.detail for row in rows] == ["depth 2", "depth 3"]
    assert all(row.passed and row.value == 0.0 for row in rows)


def test_report_byte_identical(tmp_path):
    args = ["report", "--system", "tent_square", "--depths", "2..3",
            "--samples", "50000", "--seed", "11"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.fixture
def loaded(monkeypatch):
    """The systems the commands of a test load, in order."""
    systems = []
    original = cli._load_system

    def load(name):
        systems.append(original(name))
        return systems[-1]

    monkeypatch.setattr(cli, "_load_system", load)
    return systems


def test_averaging_arrays_do_not_outlive_the_command(tmp_path, loaded):
    # the covariance loop holds one block of tails' averaging points at a
    # time and caches none
    for command in ("verify", "report"):
        assert run([command, "--system", "tent_sigma", "--depths", "2..4", "--samples",
                    "20000", "--out", str(tmp_path / command)]) == 0
    assert len(loaded) == 2
    for ifs in loaded:
        keys = [key for key in ifs._cell_cache if isinstance(key, tuple)]
        assert not [key for key in keys if key[0] in ("average", "branch-average")], keys


def test_report_caches_no_grid_deeper_than_half_the_last_level(tmp_path, loaded):
    # a depth-m cell is formed as a prefix of ceil(m/2) letters times a
    # suffix of floor(m/2), and the deepest cells a report reads are the
    # reconstruction's at depth b + 1: after `report --depths a..b` the cell
    # cache holds no grid deeper than ceil((b + 1)/2), on every catalog
    # system, and the run reaches that depth unless its suites are refused
    reached = 0
    for entry in catalog.catalog():
        for last in (3, 4, 5):
            code = run(["report", "--system", entry.name, "--depths", f"2..{last}",
                        "--samples", "20000", "--out", str(tmp_path / f"{entry.name}-{last}")])
            assert code in (0, 1)
            grids = [key[1] for key in loaded[-1]._cell_cache
                     if isinstance(key, tuple) and key[0] == "grid"]
            bound = (last + 2) // 2
            assert max(grids, default=0) <= bound, (entry.name, last, grids)
            reached += bound in grids
    assert reached >= 12, reached


def test_report_memory_is_bounded(tmp_path):
    # the benchmark's configuration (10^6 samples).  The peak, near 2.4
    # MiB, is the level-6 reconstruction residual; the chaos game's step
    # blocks of words, one-byte letters and cell indices peak near 1.6 MiB
    # (3.2 MiB with double uniforms and intp letters).  Only the grids of
    # depths 1-3 are built (216 cells at depth 3; caching the grids of
    # depths 2-5 took the peak to 2.6 MiB), the covariance loop forms no
    # depth-6 cell, and the reconstruction forms the depth-6 cells only
    # near the support.  The whole depth-6 grid (3.6 MiB) and the depth-5
    # identity stacks (2.1 MiB each) took it to 7.5 MiB; whole-depth
    # averaging points and branch images, or dense reconstruction pairs,
    # to 16.8 MiB
    args = ["report", "--system", "tent_sigma", "--depths", "2..5"]
    assert run([*args, "--samples", "1000", "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert run([*args, "--out", str(tmp_path / "report")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak


def test_deep_operators_memory_is_bounded(tmp_path):
    # the peak, near 6.1 MiB, is the depth-8 covariance pass, which builds
    # the cached depth-8 grid (4^8 centers and class indices, 1.5 MiB) and
    # walks it in blocks of tails.  A half frame and a hull stored per
    # cell (5.3 MiB over depths 0-8) took the peak to 10.7 MiB; the whole
    # depth-9 grid (4^9 cells, about 20 MiB) is never built, and it took
    # the peak to 42.6 MiB
    args = ["operators", "--system", "tent_square", "--depths", "2..8"]
    tracemalloc.start()
    try:
        assert run([*args, "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.4 * 2**20, peak


def _weighted_random_systems():
    """random_ifs systems of every kind, each with seeded non-uniform weights."""
    from conftest import random_ifs

    rng = np.random.default_rng(23)
    systems = []
    for kind in ("1d", "2d-diagonal", "2d-rotated", "1d", "2d-rotated"):
        ifs = random_ifs(rng, kind)
        raw = rng.uniform(0.2, 1.0, ifs.n_branches)
        systems.append(geometry.IfsSystem(ifs.box, ifs.branches, weights=raw / raw.sum(),
                                          name=f"{kind} weighted"))
    return systems


def test_identity_residuals_equal_the_whole_depth_stacks():
    # the one shared block gives each identity's residual of the stack of
    # n^m copies at every depth m bit for bit, sign included, for uniform
    # and non-uniform weights; the stacks are capped at 50 000 depth-(m+1)
    # cells
    from conftest import (stacked_isometry_residual, stacked_projection_residual,
                          stacked_transfer_equality_residual)

    systems = [entry.system for entry in catalog.catalog()] + _weighted_random_systems()
    assert not all(ifs.is_hutchinson() for ifs in systems)
    checked = 0
    for ifs in systems:
        isometry, projection, transfer = cli.identity_residuals(ifs)
        pairs = [(isometry, stacked_isometry_residual),
                 (projection, stacked_projection_residual)]
        if ifs.is_hutchinson():
            pairs.append((transfer, stacked_transfer_equality_residual))
        else:
            assert transfer is None
        for depth in range(6):
            if ifs.n_branches ** (depth + 1) > 50_000:
                break
            if not ifs.is_hutchinson():
                with pytest.raises(ValueError, match="uniform weights"):
                    stacked_transfer_equality_residual(ifs, depth)
            for got, stacked in pairs:
                want = stacked(ifs, depth)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), \
                    (ifs.name, depth, stacked.__name__, got, want)
                checked += 1
    assert checked >= 100


@pytest.mark.parametrize("budget", ["4", "64", "256", "1296", "7776"])
def test_identity_residuals_refuse_the_budget_of_the_stacks(monkeypatch, budget):
    # the operator suite checks the cell budget of depth m + 1 for each
    # depth m of its range in ascending order, before anything else, and
    # refuses with the message of the first stack that overflows
    from conftest import (stacked_isometry_residual, stacked_projection_residual,
                          stacked_transfer_equality_residual)

    monkeypatch.setenv("IFSLAB_CELL_BUDGET", budget)
    stacks = (stacked_isometry_residual, stacked_projection_residual,
              stacked_transfer_equality_residual)

    def first_overflow(ifs, depths):
        for depth in depths:
            for stacked in stacks:
                try:
                    stacked(ifs, depth)
                except DepthOverflow as exc:
                    return str(exc)
        return None

    for name in ("tent_square", "tent_sigma"):
        ifs = catalog.get(name).system
        for lo in range(6):
            for hi in range(lo, 6):
                cfg = cli.RunConfig(system=name, depths=(lo, hi))
                want = first_overflow(ifs, range(lo, hi + 1))
                if want is None:
                    suite = cli.operator_suite(cfg, ifs)
                    assert suite.isometry == stacked_isometry_residual(ifs, hi)
                    continue
                with pytest.raises(DepthOverflow) as caught:
                    cli.operator_suite(cfg, ifs)
                assert str(caught.value) == want, (name, lo, hi)


def test_projection_residual_builds_no_stack(tent_sigma):
    # the whole-depth form held four (7 776, 6, 6) stacks of 2.1 MiB each
    # at depth 5 and peaked at 7.1 MiB; the one shared block of every
    # identity residual needs a few KiB
    ifs = tent_sigma.system
    cli.identity_residuals(ifs)
    tracemalloc.start()
    try:
        cli.identity_residuals(ifs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18, peak


def test_cell_masses_built_for_measure_suites_only(tmp_path, monkeypatch):
    # operators, their norms and both reconstruction residuals need only the
    # branch weights; the product mass vector is built by the measure suite
    # of measure and of verify, once each
    calls = Counter()
    original = measure.exact_cell_masses

    def counted(*args, **kwargs):
        calls["exact_cell_masses"] += 1
        return original(*args, **kwargs)

    for module in (measure, operators, bimodule, cli):
        if getattr(module, "exact_cell_masses", None) is original:
            monkeypatch.setattr(module, "exact_cell_masses", counted)
    assert run(["report", "--system", "tent_square", "--depths", "2..3",
                "--samples", "20000", "--out", str(tmp_path)]) == 0
    assert calls == {"exact_cell_masses": 2}


def test_reconstruction_residuals_do_not_depend_on_seed(tmp_path):
    # both residuals are exact norms of one block operator, so no seeded
    # trial enters them; seeds 31 and 36 once put theta-ratio on tent_1d
    # above 0.7
    tables, ratios = [], []
    for seed in ("7", "31", "36"):
        out = tmp_path / seed
        args = ["--system", "tent_1d", "--seed", seed]
        assert run(["verify", *args, "--depths", "2..3", "--out", str(out / "v")]) == 0
        assert run(["reconstruct", *args, "--depths", "2..5", "--out", str(out / "r")]) == 0
        tables.append((out / "r" / "reconstruction.csv").read_bytes())
        lines = (out / "v" / "verify_reconstruction.csv").read_text().splitlines()
        ratios.append([line for line in lines if "-ratio," in line])
    assert len(ratios[0]) == 2 and tables[0].count(b"\n") == 5
    assert ratios[1] == ratios[0] and ratios[2] == ratios[0]
    assert tables[1] == tables[0] and tables[2] == tables[0]


def test_reconstruction_ratios_do_not_depend_on_box_scale(tmp_path):
    # the tent as a definition file on [0, 1], [0, 1000], [0, 0.25], [5, 6]
    # and [0, 0.001]; seeded trial fields in absolute coordinates once
    # failed theta-ratio at 0.94 on [0, 1000], an absolute delta found no
    # support window on [0, 0.25] and an absolute finest pitch of 2^-12 no
    # bump partition on [0, 0.001].  The scaled boxes [0, 1000] and
    # [0, 0.25] write the same ratio rows; [5, 6] and [0, 0.001] round
    # their cell coordinates, so their ratios agree to rounding, and the
    # translated box's other columns exactly
    tent = catalog.get("tent_1d").system
    ratios = []
    for lo, hi in ((0.0, 1.0), (0.0, 1000.0), (0.0, 0.25), (5.0, 6.0), (0.0, 0.001)):
        length = hi - lo
        box = geometry.AmbientBox(np.array([[lo, hi]]))
        branches = [geometry.AffineContraction(g.linear, lo + length * g.translation
                                               - g.linear @ [lo]) for g in tent.branches]
        path = tmp_path / f"tent_{lo:g}_{hi:g}.ifs"
        path.write_text(export_ifs(geometry.IfsSystem(box, branches), "tent"))
        out = tmp_path / f"out_{lo:g}_{hi:g}"
        assert run(["verify", "--system", str(path), "--depths", "2..3", "--out", str(out)]) == 0
        lines = (out / "verify_reconstruction.csv").read_text().splitlines()
        ratios.append([line.split(",") for line in lines if "-ratio," in line])
    assert len(ratios[0]) == 2 and ratios[1] == ratios[0] and ratios[2] == ratios[0]
    for translated, unit in zip(ratios[3], ratios[0]):
        assert translated[:2] + translated[3:] == unit[:2] + unit[3:]
        assert float(translated[2]) == pytest.approx(float(unit[2]), rel=1e-12, abs=0)
    for small, unit in zip(ratios[4], ratios[0]):
        assert small[0] == unit[0] and small[4] == "pass"
        assert float(small[2]) == pytest.approx(float(unit[2]), rel=1e-12, abs=0)


@pytest.mark.parametrize("system,seed", [("tent_sigma", 6), ("tent_1d", 22),
                                         ("sigma_1d", 39), ("tent_square", 70)])
def test_verify_reaches_verdict_on_round_off_residuals(tmp_path, system, seed):
    # residuals at round-off level once stalled an iterative norm on these seeds
    assert run(["verify", "--system", system, "--depths", "2..3", "--seed", str(seed),
                "--out", str(tmp_path)]) == 0


def test_file_system_source(tmp_path):
    # a file's name may hold a comma; its table rows keep five fields
    entry = catalog.get("tent_1d")
    path = tmp_path / "tent.ifs"
    path.write_text(export_ifs(entry.system, "tent_1d").replace("name = tent_1d",
                                                                "name = tent,1d"))
    code = run(["verify", "--system", str(path), "--depths", "2..3",
                "--out", str(tmp_path / "out")])
    assert code == 0
    assert run(["reconstruct", "--system", str(path), "--depths", "2..3",
                "--out", str(tmp_path / "table")]) == 0
    rows = (tmp_path / "table" / "reconstruction.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["tent;1d", "2", "11"], ["tent;1d", "3", "11"]]


@pytest.mark.parametrize("name", ["tent_square", "tent_sigma", "tent_1d", "sigma_1d",
                                  "overlap_bad"])
def test_file_twin_reconstructs_as_its_catalog_system(tmp_path, capsys, name):
    # one verdict table, one support rule and one separation rule for every
    # source: a definition file and its catalog entry write the same files,
    # byte for byte, and the same stderr, and exit alike; the exact masses
    # are written on the four separated systems and refused on overlap_bad
    entry = catalog.get(name)
    path = tmp_path / f"{name}.ifs"
    path.write_text(export_ifs(entry.system, entry.phi_name))
    written = []
    for system, out in ((name, tmp_path / "catalog"), (str(path), tmp_path / "file")):
        code = run(["report", "--system", system, "--depths", "2..3", "--samples", "1000",
                    "--out", str(out)])
        files = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
        written.append((code, files, capsys.readouterr().err))
    assert written[1] == written[0]
    code, files, _ = written[0]
    assert code == (1 if name == "overlap_bad" else 0)
    assert {"verify_geometry.csv", "verify_measure.csv", "verify_operators.csv",
            "verify_reconstruction.csv", "reconstruction.csv", "measure_fixpoint.csv",
            "measure_empirical.csv"} <= set(files)
    assert ("measure_exact.csv" in files) == (name != "overlap_bad")
    if name != "overlap_bad":
        assert files["reconstruction.csv"].count(b"\n") == 3


def split_file(path, n):
    """x/n + k/n for k = 0..n-1 on [0, 1], as a definition file."""
    box = geometry.AmbientBox(np.array([[0.0, 1.0]]))
    branches = [geometry.AffineContraction(np.array([[1.0 / n]]), np.array([k / n]))
                for k in range(n)]
    path.write_text(export_ifs(geometry.IfsSystem(box, branches), f"split{n}"))
    return path


def test_mass_tables_write_distinct_words_past_nine_branches(tmp_path):
    # up to 9 branches a letter is one digit; from 10 on the letters are
    # joined with dots, so with 11 branches (1, 11) and (11, 1) read 1.11
    # and 11.1, and every table holds n^2 distinct words at depth 2
    nine = split_file(tmp_path / "nine.ifs", 9)
    assert run(["measure", "--system", str(nine), "--depths", "2..2", "--samples", "2000",
                "--out", str(tmp_path / "nine")]) == 0
    words = [line.split(",")[0] for line in
             (tmp_path / "nine" / "measure_empirical.csv").read_text().splitlines()[1:]]
    assert len(set(words)) == len(words) == 81 and words[:2] == ["11", "12"]

    # report writes the same tables; it exits 1 because x -> n x mod 1 is
    # not continuous (the inverses of neighbouring branches differ by 1 at
    # their shared end), so the inverse-branch row (and the rows of the
    # later suites' rates) fail
    tables = ("measure_fixpoint.csv", "measure_empirical.csv", "measure_exact.csv")
    for n in (10, 11):
        path = split_file(tmp_path / f"split{n}.ifs", n)
        for command, code in (("measure", 0), ("report", 1)):
            out = tmp_path / f"{command}{n}"
            assert run([command, "--system", str(path), "--depths", "2..3",
                        "--samples", "2000", "--out", str(out)]) == code, (command, n)
            for table in tables:
                words = [line.split(",")[0]
                         for line in (out / table).read_text().splitlines()[1:]]
                assert len(set(words)) == len(words) == n * n, (command, n, table)
                assert words[0] == "1.1" and words[-1] == f"{n}.{n}"
        for table in tables:
            assert (tmp_path / f"report{n}" / table).read_bytes() \
                == (tmp_path / f"measure{n}" / table).read_bytes(), (n, table)


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "[run]\nsystem = tent_square\ndepths = 2..2\nsamples = 1000\nseed = 5\n"
        f"out = {tmp_path / 'from_config'}\n")
    code = run(["measure", "--config", str(config)])
    assert code == 0
    assert (tmp_path / "from_config" / "measure_exact.csv").exists()
    # flags override the config file
    code = run(["measure", "--config", str(config), "--out", str(tmp_path / "flagged")])
    assert code == 0
    assert (tmp_path / "flagged" / "measure_exact.csv").exists()


@pytest.mark.parametrize("section,key", [("run", "seeds"), ("run", "parallel"),
                                         ("tolerances", "isometery"), ("rnu", "samples"),
                                         ("tolerance", "isometry")])
def test_config_file_unknown_key_is_config_error(tmp_path, capsys, section, key):
    # a misspelt key or section would drop its setting silently
    config = tmp_path / "run.cfg"
    config.write_text(f"[{section}]\n{key} = 1\n")
    assert run(["verify", "--config", str(config), "--out", str(tmp_path)]) == 2
    unknown = (f"key {key!r} in [{section}]" if section in ("run", "tolerances")
               else f"section [{section}]")
    assert f"configuration error: unknown {unknown} " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_delta_flag_must_be_finite_and_positive(tmp_path, capsys, value):
    # with such a delta the value-set clearance test could never fail
    code = run(["reconstruct", "--system", "tent_square", "--depths", "2..3",
                "--delta", value, "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error: delta must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "reconstruction.csv").exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_samples_flag_must_be_positive(tmp_path, capsys, value):
    code = run(["measure", "--system", "tent_square", "--depths", "2..2",
                "--samples", value, "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error: samples must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["isometry=nan", "covariance_ratio_hi=inf",
                                   "chaos_band_fraction=-inf"])
def test_tolerance_flag_must_be_finite(tmp_path, capsys, value):
    # a nan bound fails every row it judges and an infinite one passes it
    key = value.split("=")[0]
    code = run(["verify", "--system", "tent_1d", "--depths", "2..3", "--tol", value,
                "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"configuration error: tolerance {key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_is_config_error(tmp_path, capsys):
    # PCG64 takes no negative seed: refused before any work, with the seed named
    code = run(["verify", "--system", "tent_1d", "--depths", "2..3", "--seed", "-1",
                "--out", str(tmp_path / "out")])
    assert code == 2
    assert "configuration error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines,message", [
    ("[run]\ndelta = 0", "delta must be finite and > 0"),
    ("[run]\ndelta = -0.05", "delta must be finite and > 0"),
    ("[run]\ndelta = nan", "delta must be finite and > 0"),
    ("[run]\ndelta = wide", "delta in [run] of"),
    ("[run]\nsamples = 0", "samples must be >= 1"),
    ("[run]\nsamples = many", "samples in [run] of"),
    ("[run]\nseed = 1.5", "seed in [run] of"),
    ("[tolerances]\nisometry = tight", "isometry in [tolerances] of"),
    ("delta = 0.05", "malformed config file"),
    ("[run]\nseed = -1", "seed must be >= 0"),
    ("[tolerances]\nisometry = nan", "tolerance isometry must be finite"),
    ("[tolerances]\ncovariance_ratio_hi = inf", "tolerance covariance_ratio_hi must be finite"),
], ids=["delta-zero", "delta-negative", "delta-nan", "delta-text", "samples-zero",
        "samples-text", "seed-fraction", "tolerance-text", "no-section", "seed-negative",
        "tolerance-nan", "tolerance-inf"])
def test_config_file_values_are_checked(tmp_path, capsys, lines, message):
    config = tmp_path / "run.cfg"
    config.write_text(f"{lines}\n")
    assert run(["report", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    # a 0xff byte ended in a UnicodeDecodeError traceback from configparser
    config = tmp_path / "latin.cfg"
    config.write_bytes(b"[run]\nsamples = 5\xff\n")
    assert run(["report", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read config file") and "latin.cfg" in err
    assert not (tmp_path / "out").exists()


def test_missing_definition_file_is_config_error(tmp_path, capsys):
    missing = tmp_path / "no_such.ifs"
    code = run(["verify", "--system", str(missing), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error: cannot read definition file" in err and "no_such.ifs" in err


def test_output_directory_named_like_the_system(tmp_path, capsys, monkeypatch):
    # the first run makes the directory tent_1d; the second still reads
    # tent_1d as the catalog name, since only a file is a definition file
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--system", "tent_1d", "--depths", "2..3", "--out", "tent_1d"]
    assert run(argv) == 0
    first = (tmp_path / "tent_1d" / "verify_operators.csv").read_bytes()
    assert run(argv) == 0, capsys.readouterr().err
    assert (tmp_path / "tent_1d" / "verify_operators.csv").read_bytes() == first
    # a directory with a definition file's suffix still cannot be read
    (tmp_path / "dir.ifs").mkdir()
    capsys.readouterr()
    assert run(["verify", "--system", "dir.ifs", "--out", "out"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: cannot read definition file")


def test_one_depth_range_fails_the_rate_checks(tmp_path, capsys):
    # a ratio needs two depths: each rate check gets one failing row, not none
    code = run(["verify", "--system", "tent_sigma", "--depths", "3..3", "--out", str(tmp_path)])
    assert code == 1
    assert "FIRST FAILING CHECK: covariance-ratio (operators: needs two depths" \
        in capsys.readouterr().err
    for name, checks in (("verify_operators.csv", ["covariance-ratio"]),
                         ("verify_reconstruction.csv", ["theta-ratio", "operator-ratio"])):
        rows = [line.split(",") for line in (tmp_path / name).read_text().split("\n")[1:]]
        rates = [row for row in rows if row[0].endswith("-ratio")]
        assert [row[0] for row in rates] == checks, name
        for row in rates:
            assert row[1] == "needs two depths; got only depth 3" and row[4] == "fail"
        assert all(row[4] == "pass" for row in rows if row[0] and row not in rates), name
    # measure tabulates one depth as before; operators writes its one-depth
    # table and takes its verdict from the rows of verify_operators.csv
    args = ["--system", "tent_sigma", "--depths", "3..3", "--samples", "5000", "--out"]
    assert run(["measure", *args, str(tmp_path / "measure")]) == 0
    capsys.readouterr()
    assert run(["operators", *args, str(tmp_path / "operators")]) == 1
    assert "FIRST FAILING CHECK: covariance-ratio (operators: needs two depths" \
        in capsys.readouterr().err
    table = (tmp_path / "operators" / "operator_residuals.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in table[1:]] == \
        [["3", identity] for identity in ("isometry", "projection", "transfer-eq", "covariance")]


def test_tolerance_override_changes_exit(tmp_path):
    # an absurdly tight inverse-branch tolerance fails an otherwise-green run
    code = run(["verify", "--system", "tent_1d", "--depths", "2..3",
                "--out", str(tmp_path), "--tol", "inverse_branch=-1"])
    assert code == 1


def test_verify_fails_on_narrow_gap(tmp_path, capsys):
    # images [0, 0.5] and [0.52, 1] leave a 2 % gap; no later suite may run
    path = fixture_path("gap")
    code = run(["verify", "--system", str(path), "--depths", "2..3",
                "--out", str(tmp_path / "out")])
    assert code == 1
    assert "FIRST FAILING CHECK: self-similarity-defect (" in capsys.readouterr().err
    row = next(line for line in (tmp_path / "out" / "verify_geometry.csv").read_text().split("\n")
               if line.startswith("self-similarity-defect,"))
    assert abs(float(row.split(",")[2]) - 0.02) <= 1e-12
    for name in ("verify_measure.csv", "verify_operators.csv", "verify_reconstruction.csv"):
        lines = (tmp_path / "out" / name).read_text().strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == ["refused"], name


NO_SCIPY_SCRIPT = """
import sys
from ifslab.cli import main

out = sys.argv[1]
assert main(["verify", "--system", "tent_sigma", "--depths", "2..3", "--out", out + "/a"]) == 0
assert main(["verify", "--system", "overlap_bad", "--depths", "2..3", "--out", out + "/b"]) == 1
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_commands_do_not_import_scipy(tmp_path):
    # scipy is no dependency of ifslab: no command may import it, not even lazily
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_verify_solves_each_branch_pair_once(tmp_path, monkeypatch):
    # the coincidence and value sets serve every suite from one solve:
    # tent_sigma has 6 branches, so 6 * 5 / 2 = 15 pairs
    calls = Counter()
    original = geometry._solve_pair

    def counted(*args, **kwargs):
        calls[args[3]] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, "_solve_pair", counted)
    assert run(["verify", "--system", "tent_sigma", "--depths", "2..3",
                "--out", str(tmp_path)]) == 0
    assert sum(calls.values()) == 15 and set(calls.values()) == {1}


def test_shared_parser_leaks_no_state(tmp_path):
    # one parser serves every main() call of a process; flags of one call
    # must not reach the next
    assert cli.make_parser() is cli.make_parser()
    common = ["verify", "--system", "tent_square", "--depths", "2..3", "--seed", "4"]
    first = run(common + ["--tol", "isometry=1e-3", "--delta", "0.04",
                          "--out", str(tmp_path / "first")])
    assert first == 0
    assert run(common + ["--out", str(tmp_path / "second")]) == 0
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    fresh = subprocess.run([sys.executable, "-m", "ifslab.cli", *common,
                            "--out", str(tmp_path / "fresh")],
                           env=env, capture_output=True, text=True, timeout=300)
    assert fresh.returncode == 0, fresh.stderr
    names = sorted(os.listdir(tmp_path / "fresh"))
    assert names == sorted(os.listdir(tmp_path / "second")) and len(names) == 4
    for name in names:
        assert ((tmp_path / "second" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes()), name
    # the first call did see its overrides
    first_rows = (tmp_path / "first" / "verify_operators.csv").read_text()
    assert "isometry,depth 2,0,0.001,pass" in first_rows
    assert ((tmp_path / "first" / "verify_reconstruction.csv").read_bytes()
            != (tmp_path / "second" / "verify_reconstruction.csv").read_bytes())
