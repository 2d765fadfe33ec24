"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; a failed assertion marks the criterion failed.
"""

import os

import numpy as np

from conftest import CATALOG_FACTS, is_finite_branch, pieces_match_facts

from ifslab import bimodule as bi
from ifslab import catalog
from ifslab import cli
from ifslab import geometry as geo
from ifslab import measure as mea
from ifslab import operators as op
from ifslab.sampling import random_trig_symbol


def _report(criterion: str, detail: str = ""):
    print(f"[PASS] {criterion}" + (f" ({detail})" if detail else ""))


def test_criterion_1_exact_operator_identities(tent_square, tent_sigma):
    # |C*C - I| <= 1e-12, |(CC*)^2 - CC*| <= 1e-12, C* = L entrywise 1e-14;
    # each residual is one block's, the same at every depth of the range
    worst = {"isometry": 0.0, "projection": 0.0, "transfer": 0.0}
    for entry in (tent_square, tent_sigma):
        ifs = entry.system
        suite = cli.operator_suite(cli.RunConfig(system=entry.name, depths=(2, 5)), ifs)
        assert suite.isometry <= 1e-12, (entry.name, suite.isometry)
        assert suite.projection <= 1e-12, (entry.name, suite.projection)
        assert suite.transfer <= 1e-14, (entry.name, suite.transfer)
        worst["isometry"] = max(worst["isometry"], suite.isometry)
        worst["projection"] = max(worst["projection"], suite.projection)
        worst["transfer"] = max(worst["transfer"], suite.transfer)
    _report("criterion 1: exact operator identities (depths 2..5, both systems)",
            f"worst residuals {worst}")


def test_criterion_2_covariance_convergence(tent_square):
    # 20 seeded Lipschitz symbols: per-step residual ratio within [0.25, 0.75]
    ifs = tent_square.system
    depths = range(2, 7)
    worst_lo, worst_hi = 1.0, 0.0
    for k in range(20):
        symbol = random_trig_symbol((7, 101, k), 2)
        residuals = [cli.covariance_residual(ifs, op.trig_terms(ifs, [symbol]), m)[0] for m in depths]
        assert all(r > 0 for r in residuals)
        for r0, r1 in zip(residuals, residuals[1:]):
            ratio = r1 / r0
            assert 0.25 <= ratio <= 0.75, (k, residuals)
            worst_lo, worst_hi = min(worst_lo, ratio), max(worst_hi, ratio)
    _report("criterion 2: covariance residual contraction at rate ~1/2",
            f"ratios within [{worst_lo:.3f}, {worst_hi:.3f}]")


def test_criterion_3_measure_fixed_point(tent_square, tent_sigma):
    tv_square = mea.total_variation(
        mea.markov_fixpoint(tent_square.system, 4).masses,
        mea.exact_cell_masses(tent_square.system, 4).masses)
    tv_sigma = mea.total_variation(
        mea.markov_fixpoint(tent_sigma.system, 3).masses,
        mea.exact_cell_masses(tent_sigma.system, 3).masses)
    assert tv_square <= 1e-10 and tv_sigma <= 1e-10

    n_samples = 10**6
    exact = mea.exact_cell_masses(tent_square.system, 2)
    band = 4.0 * np.sqrt(exact.masses * (1.0 - exact.masses) / n_samples)
    inside = []
    for seed in range(10):
        emp = mea.chaos_game(tent_square.system, 2, n_samples, seed=seed)
        inside.append(np.abs(emp.masses - exact.masses) <= band)
    fraction = float(np.concatenate(inside).mean())
    assert fraction >= 0.95
    _report("criterion 3: measure fixed point and chaos-game bands",
            f"TV {tv_square:.2e}/{tv_sigma:.2e}, band fraction {fraction:.3f}")


def test_criterion_4_branch_set_geometry(tent_square, tent_1d):
    assert pieces_match_facts(tent_square.system, CATALOG_FACTS["tent_square"])
    assert pieces_match_facts(tent_1d.system, CATALOG_FACTS["tent_1d"])
    assert is_finite_branch(tent_square.system) is CATALOG_FACTS["tent_square"].finite_branch
    assert is_finite_branch(tent_1d.system) is CATALOG_FACTS["tent_1d"].finite_branch
    _report("criterion 4: coincidence and value sets match the stated segments")


def test_criterion_5_open_set_condition(tent_square, tent_sigma, overlap_bad):
    for entry in (tent_square, tent_sigma):
        assert geo.check_open_set_condition(entry.system).passed
    result = geo.check_open_set_condition(overlap_bad.system)
    assert not result.passed and result.violating == (1, 2)
    witness = float(result.witness[0])
    assert 0.3 < witness < 0.5
    for gamma in overlap_bad.system.branches:
        assert 0.0 < float(gamma.inverse(result.witness)[0]) < 1.0
    _report("criterion 5: open set condition", f"overlap witness {witness:.3f}")


def test_criterion_6_reconstruction(tent_square, tent_sigma):
    # the quantitative shadow of the main theorem: theta and operator
    # reconstructions contract with per-step ratio inside [0.3, 0.7]
    summary = {}
    for entry, depths in ((tent_square, range(3, 7)), (tent_sigma, range(2, 5))):
        ifs = entry.system
        symbol, partition = bi.reconstruction_symbol(ifs, 0.05)
        theta_res, op_res = [], []
        for depth in depths:
            vectors = bi.reconstruction_vectors(ifs, symbol, partition, depth + 1)
            residual = bi.reconstruction_residual(ifs, vectors)
            theta_res.append(bi.verify_theta_reconstruction(ifs, residual))
            op_res.append(bi.verify_operator_reconstruction(residual))
        for series in (theta_res, op_res):
            assert all(r > 0 for r in series)
            for r0, r1 in zip(series, series[1:]):
                assert 0.3 <= r1 / r0 <= 0.7, (entry.name, series)
        summary[entry.name] = (theta_res[-1], op_res[-1])
    _report("criterion 6: reconstruction residuals contract geometrically",
            f"final residuals {summary}")


def test_criterion_7_covariant_representation(tent_square):
    res_module, res_inner = bi.covariant_rep_check(tent_square.system, 3,
                                                   trials=20, seed=7)
    assert res_module <= 1e-12
    assert res_inner <= 1e-12
    _report("criterion 7: covariant representation relations",
            f"residuals {res_module:.2e}, {res_inner:.2e}")


def test_criterion_8_report_determinism(tmp_path):
    args = ["report", "--system", "tent_square", "--depths", "2..3",
            "--samples", "100000", "--seed", "7"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    _report("criterion 8: byte-identical report reruns", f"{len(names)} files compared")
