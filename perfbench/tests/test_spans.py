"""Self-tests of the benchmark's tracer.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import spans  # noqa: E402
from ifslab import bimodule, catalog, cli, operators  # noqa: E402
from ifslab.ifsfile import export_ifs  # noqa: E402

# Metrics that run.py computes outside the tracer.
RUN_LEVEL = {"trace.overhead_s", "cli.csv_changed_files"}


def quiet_main(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_self_time_subtracts_child_coverage():
    trace = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["d", 2.0, 3.0, 1],
        ["c", 5.0, 6.0, 0],
        ["a", 20.0, 21.0, -1],
    ]
    assert spans.self_times(trace) == pytest.approx({"a": 7.0, "b": 2.0, "c": 1.0, "d": 1.0})


def test_self_time_counts_overlapping_children_once():
    trace = [
        ["p", 0.0, 10.0, -1],
        ["x", 1.0, 3.0, 0],
        ["y", 2.0, 5.0, 0],
        ["z", 8.0, 12.0, 0],  # runs past the parent; only [8, 10] is covered
    ]
    assert spans.self_times(trace)["p"] == pytest.approx(10.0 - 4.0 - 2.0)


def test_reconstruct_call_counts(tmp_path):
    """Every rebinding is wrapped: ROADMAP's 8 / 7840 counts for tent_sigma."""
    tracer = spans.Tracer()
    with tracer:
        code = quiet_main(["reconstruct", "--system", "tent_sigma", "--depths", "2..5",
                           "--out", str(tmp_path)])
    assert code == 0
    assert tracer.counts["bimodule.reconstruction_vectors.calls"] == 8
    assert tracer.counts["bimodule.theta_apply.calls"] == 7840
    summary = spans.pass_summary(tracer)
    assert summary["bimodule.reconstruction_vectors.dup_ratio"] == 2.0


def test_restore_puts_back_every_original():
    before = (operators.operator_norm, bimodule.operator_norm, cli.geometry_rows,
              operators.CellOperator.__dict__["compose"])
    with spans.Tracer():
        assert bimodule.operator_norm is not before[1]
    after = (operators.operator_norm, bimodule.operator_norm, cli.geometry_rows,
             operators.CellOperator.__dict__["compose"])
    assert after == before


def _csv_bytes(out_dir):
    return {name: open(os.path.join(out_dir, name), "rb").read()
            for name in sorted(os.listdir(out_dir))}


def test_declared_metrics_are_produced_and_outputs_unchanged(tmp_path):
    """Every per-layer metric in BENCHMARK.json has a source; tracing changes no byte."""
    entry = catalog.get("tent_1d")
    system_path = tmp_path / "tent_1d.ifs"
    system_path.write_text(export_ifs(entry.system, entry.phi_name))
    commands = [
        ["report", "--system", "tent_square", "--depths", "2..3", "--samples", "2000"],
        ["verify", "--system", str(system_path), "--depths", "2..3"],
    ]
    for k, argv in enumerate(commands):
        quiet_main([*argv, "--out", str(tmp_path / f"plain{k}")])
    tracer = spans.Tracer()
    with tracer:
        for k, argv in enumerate(commands):
            quiet_main([*argv, "--out", str(tmp_path / f"traced{k}")])
    for k in range(len(commands)):
        assert _csv_bytes(tmp_path / f"plain{k}") == _csv_bytes(tmp_path / f"traced{k}")

    summary = spans.pass_summary(tracer)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = [m["name"] for m in json.load(handle)["per_layer"]]
    missing = [name for name in declared if name not in summary and name not in RUN_LEVEL]
    assert missing == []
