"""Timing spans around the public functions of each ifslab module.

The tracer wraps functions from outside the package: it replaces a
function's name in every loaded `ifslab` module that binds the same
object (``operator_norm`` is bound in `operators`, `bimodule` and the
package root), and `CellOperator` methods on the class.  Each call records
a span (name, start, end, parent) in memory; self time is a span's
duration minus the part of it that its children cover.  Some wrappers
also count work from the call's arguments (samples, points, stored
entries, PCG64 words).  Nothing in the wrapped functions changes, so
traced and untraced runs write byte-identical CSVs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from statistics import median


def _grid_build(tracer, args):
    ifs, depth = args["ifs"], args["depth"]
    tracer.counts["measure.cell_grid.builds"] += ("grid", depth) not in ifs._cell_cache


def _count_evals(tracer, args):
    evaluator = args["evaluator"]

    def counted(points):
        tracer.counts["operators.sample_to_cells.evals"] += len(points)
        return evaluator(points)

    args["evaluator"] = counted


def _nnz(tracer, args):
    matrix = args["op"].matrix
    tracer.counts["operators.operator_norm.nnz"] += \
        matrix.nnz if hasattr(matrix, "nnz") else matrix.size


def _recon_key(tracer, args):
    tracer.recon_keys.add((args["ifs"].name, args["depth"]))


def _add(metric, arg, size=lambda value: value):
    def count(tracer, args):
        tracer.counts[metric] += size(args[arg])
    return count


# (module, attribute, counter) for every traced public function.  A counter
# receives the tracer and the call's bound arguments, and may replace one.
TARGETS = [
    ("geometry", "verify_inverse_branches", None),
    ("geometry", "self_similarity_defect", None),
    ("geometry", "check_open_set_condition", None),
    ("geometry", "branch_coincidence_set", None),
    ("geometry", "branch_value_set", None),
    ("measure", "cell_grid", _grid_build),
    ("measure", "exact_cell_masses", None),
    ("measure", "markov_fixpoint", None),
    ("measure", "chaos_game", _add("measure.chaos_game.samples", "n_samples")),
    ("measure", "bin_points", _add("measure.bin_points.points", "points", len)),
    ("measure", "write_mass_csv", None),
    ("operators", "sample_to_cells", _count_evals),
    ("operators", "mult_op", None),
    ("operators", "composition_op", None),
    ("operators", "adjoint_composition_op", None),
    ("operators", "transfer_op", None),
    ("operators", "operator_norm", _nnz),
    ("operators", "CellOperator.compose", None),
    ("operators", "CellOperator.subtract", None),
    ("operators", "CellOperator.adjoint", None),
    ("bimodule", "support_distance_to_value_set", None),
    ("bimodule", "build_bump_partition", None),
    ("bimodule", "reconstruction_vectors", _recon_key),
    ("bimodule", "theta_apply", None),
    ("bimodule", "verify_theta_reconstruction", None),
    ("bimodule", "verify_operator_reconstruction", None),
    ("bimodule", "covariant_rep_check", None),
    ("cli", "geometry_rows", None),
    ("cli", "measure_rows", None),
    ("cli", "operator_rows", None),
    ("cli", "reconstruction_rows", None),
    ("cli", "covariance_residual", None),
    ("ifsfile", "load_ifs", None),
    ("catalog", "get", None),
    ("sampling", "bit_stream", _add("sampling.bit_stream.words", "count")),
]


class Tracer:
    """Spans and counts of one traced pass; `install` patches, `restore` undoes."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.recon_keys = set()  # distinct (system, depth) of reconstruction_vectors
        self._stack = []
        self._patches = []

    def reset(self) -> None:
        self.spans, self.counts, self.recon_keys = [], Counter(), set()

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter is not None else None
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[calls] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                counter(self, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "ifslab" or key.startswith("ifslab.")]
        for module_name, attr, counter in TARGETS:
            home = sys.modules[f"ifslab.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self.wrap(f"{module_name}.{attr}", original, counter))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


def self_times(spans) -> dict:
    """Total self time per span name: duration minus the union of child intervals."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = Counter()
    for index, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


# Per-layer metric -> span names whose self times it sums.
SELF_TIME_GROUPS = {
    "operators.assemble.self_s": ("operators.composition_op", "operators.adjoint_composition_op",
                                  "operators.transfer_op", "operators.mult_op"),
    "operators.algebra.self_s": ("operators.CellOperator.compose",
                                 "operators.CellOperator.subtract",
                                 "operators.CellOperator.adjoint"),
}


def pass_summary(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass: self times, counts and ratios."""
    selfs = self_times(tracer.spans)
    out = {f"{name}.self_s": value for name, value in selfs.items()}
    for metric, names in SELF_TIME_GROUPS.items():
        out[metric] = sum(selfs.get(name, 0.0) for name in names)
    out.update(tracer.counts)
    calls = tracer.counts["bimodule.reconstruction_vectors.calls"]
    out["bimodule.reconstruction_vectors.dup_ratio"] = \
        calls / len(tracer.recon_keys) if tracer.recon_keys else 0.0
    return out


def combine(summaries: list[dict], names) -> dict:
    """Median over passes of each named per-layer value (0 where never seen)."""
    return {name: median(s.get(name, 0) for s in summaries) for name in names}
