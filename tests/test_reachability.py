"""Every function of ifslab is reached by a command, every defaulted
parameter is varied by one, and every check of `cli.CHECKS` is built by one.

The five commands are the package's interface.  A module fixture runs
each of them, and their refusal paths, through `cli.main` under
`sys.setprofile`, once for all three tests.

- Every `def` in the package must run, apart from the few in
  REACHED_ELSEWHERE, each with the caller that keeps it.  A function that
  only tests call fails here: retire it with its tests, or give it a
  command that needs it.
- Every defaulted parameter of a function that runs must take its default
  in one call and another value in another, read from the call's
  `frame.f_locals`.  A parameter that every command leaves at one value is
  a setting no user can reach and a fork only tests take: make it a module
  constant or a required argument, or list it in FIXED_PARAMETERS with the
  caller that needs it.
- Every (suite, check) pair of `cli.CHECKS` must be a row that some run
  builds, through `cli.check_row`, whether a CSV or only stderr reports it.
  A pair that no run reaches is a check no command makes: give it a run.
"""

import ast
import contextlib
import importlib
import io
import os
import sys
from collections import defaultdict
from typing import NamedTuple

import numpy as np
import pytest

import ifslab
from ifslab import catalog, cli, sampling
from ifslab.geometry import IfsSystem
from ifslab.ifsfile import export_ifs

from conftest import PLANE_SYSTEM, ROTATED_SYSTEM

SRC = os.path.dirname(os.path.abspath(ifslab.__file__))

# Functions that no command calls, and who calls them.
REACHED_ELSEWHERE = {
    "bimodule.theta_apply": "the benchmark's tracer wraps it by name (perfbench/spans.py)",
    "catalog.catalog": "lists the example systems for library users and the test suite",
    "ifsfile.export_ifs": "writes definition files; CI and the benchmark make file twins",
    "ifsfile._fmt_nested": "export_ifs",
    "ifsfile._fmt": "export_ifs",
}

# Defaulted parameters that every command leaves at one value, and who
# needs the others.
FIXED_PARAMETERS = {
    "measure.chaos_game(burn_in)": "the test that checks symbolic against geometric "
                                   "binning on a separated system runs a short burn-in",
    "measure.markov_fixpoint(max_iters)": "the NoConvergence test stops the iteration early",
    "measure.markov_fixpoint(tol)": "the NoConvergence test asks for a tolerance "
                                    "the iteration cannot reach in one step",
    "geometry.IfsSystem.__init__(phi)": "library users and random_ifs build systems "
                                        "without an expanding map",
    "geometry.IfsSystem.__init__(name)": "library users and random_ifs build unnamed systems",
    "cli.main(argv)": "the console-script entry point reads sys.argv",
    "errors.CoverFailure.__init__(obstruction)": "build_bump_partition raises it without one "
                                                 "on a box side below 2^-10, where no pitch "
                                                 "is tried",
    "errors.CoverFailure.__init__(condition)": "as obstruction",
}

# Branches 0.6x and 0.6x + 0.4: the images [0, 0.6] and [0.4, 1] cover the
# box and overlap, and the value set is empty.  Both shrunk images clear it,
# but at every pitch some rectangle of each window meets the other branch's
# image (CoverFailure, foreign-branch).
UNCOVERABLE_SYSTEM = """
[system]
dimension = 1
box = [[0.0, 1.0]]
phi = piecewise

[branch.1]
linear = [[0.6]]
translation = [0.0]
domain = [[0.0, 0.6]]

[branch.2]
linear = [[0.6]]
translation = [0.4]
domain = [[0.6, 1.0]]
"""


def defined_functions():
    """{(file, first line): ("module.qualname", ((parameter, default), ...))}
    of every def in the package.

    The first line is the first decorator's, as in the code object.  Each
    default is its source expression evaluated in the module's namespace,
    as the def statement evaluates it."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as handle:
            tree = ast.parse(handle.read())
        namespace = vars(importlib.import_module(f"ifslab.{name[:-3]}"))

        def defaults(args):
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            return tuple((arg.arg, eval(compile(ast.Expression(node), path, "eval"), namespace))
                         for arg, node in pairs)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = (f"{name[:-3]}.{qualname}", defaults(child.args))
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


def takes_default(value, default) -> bool:
    if value is default:
        return True
    if default is None or isinstance(value, np.ndarray):
        return False
    try:
        return bool(value == default)
    except (TypeError, ValueError):
        return False


def command_runs(tmp_path):
    """(argv, expected exit) for every command on every kind of input."""
    systems = tmp_path / "systems"
    systems.mkdir()
    twin = systems / "tent_square.ifs"
    entry = catalog.get("tent_square")
    twin.write_text(export_ifs(entry.system, entry.phi_name))
    tent = catalog.get("tent_1d")
    piecewise = systems / "piecewise.ifs"
    piecewise.write_text(export_ifs(tent.system, "piecewise",
                                    domains=[[[0.0, 0.5]], [[0.5, 1.0]]]))
    skew = systems / "skew.ifs"
    skew.write_text(export_ifs(IfsSystem(tent.system.box, tent.system.branches,
                                         weights=[0.25, 0.75], name="skew"), "tent_1d"))
    plane = systems / "plane.ifs"
    plane.write_text(PLANE_SYSTEM)
    rotated = systems / "rotated.ifs"
    rotated.write_text(ROTATED_SYSTEM)
    uncoverable = systems / "uncoverable.ifs"
    uncoverable.write_text(UNCOVERABLE_SYSTEM)
    config = tmp_path / "run.cfg"
    config.write_text("[run]\nsystem = tent_1d\ndepths = 2..3\nsamples = 500\nseed = 3\n"
                      "delta = 0.05\n[tolerances]\nisometry = 1e-12\n")
    unknown_key = tmp_path / "unknown.cfg"
    unknown_key.write_text("[run]\nbogus = 1\n")

    small = ["--depths", "2..3", "--samples", "2000"]
    runs = []
    for system in ("tent_square", "tent_sigma", "tent_1d", "sigma_1d", "overlap_bad", twin):
        for command in ("verify", "measure", "operators", "reconstruct", "report"):
            runs.append(([command, "--system", str(system), *small],
                         1 if system == "overlap_bad" else 0))
    runs += [
        (["verify", "--config", str(config)], 0),
        (["verify", "--system", str(piecewise), *small], 0),
        (["verify", "--system", str(plane), *small], 1),         # images miss most of the box
        (["report", "--system", str(rotated), *small], 1),       # fails the open set condition
        (["report", "--system", str(skew), *small], 1),          # needs uniform weights
        (["reconstruct", "--system", str(uncoverable), *small], 1),  # CoverFailure
        (["reconstruct", "--system", "tent_square", *small, "--delta", "0.3"], 1),
        (["measure", "--system", "tent_1d", *small, "--no-separation"], 1),
        (["verify", "--system", "tent_sigma", "--depths", "3..3"], 1),
        (["operators", "--system", "tent_square", "--depths", "9..9"], 2),
        (["verify", "--system", "nonesuch"], 2),
        (["verify", "--system", str(systems / "missing.ifs")], 2),
        (["verify", "--depths", "2-3"], 2),
        (["verify", "--depths", "3..2"], 2),
        (["verify", "--tol", "bogus=1"], 2),
        (["verify", "--tol", "isometry"], 2),
        (["verify", "--tol", "isometry=nan"], 2),
        (["verify", "--system", "tent_1d", "--depths", "2..3", "--seed", "-1"], 2),
        (["verify", "--config", str(unknown_key)], 2),
        (["verify", "--config", str(tmp_path / "missing.cfg")], 2),
        (["reconstruct", "--delta", "0"], 2),
        (["measure", "--samples", "0"], 2),
    ]
    return runs


class Sweep(NamedTuple):
    codes: list          # exit code of each run
    expected: list       # the exit code each run should give
    defined: dict        # defined_functions()
    reached: set         # (file, first line) of every def that ran
    observed: dict       # {(file, first line, parameter): {took the default?}}
    rows: set            # (suite, check) of every row a run built


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Every command run of `command_runs`, profiled once for all tests."""
    tmp_path = tmp_path_factory.mktemp("sweep")
    runs = command_runs(tmp_path)
    defined = defined_functions()
    files = {path for path, _ in defined}
    reached = set()
    observed = defaultdict(set)
    rows = set()

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is cli.check_row.__code__ and arg is not None:
            rows.add((arg.suite, arg.check))
        if event != "call" or frame.f_code.co_filename not in files:
            return
        key = (frame.f_code.co_filename, frame.f_code.co_firstlineno)
        reached.add(key)
        for param, default in defined.get(key, ("", ()))[1]:
            observed[(*key, param)].add(takes_default(frame.f_locals[param], default))

    # a cached function runs only on its first call in a process
    cli.make_parser.cache_clear()
    sampling.halton_points.cache_clear()
    codes = []
    sys.setprofile(profile)
    try:
        for k, (argv, _) in enumerate(runs):
            with contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main([*argv, "--out", str(tmp_path / f"out{k}")]))
    finally:
        sys.setprofile(None)
    return Sweep(codes, [code for _, code in runs], defined, reached, dict(observed), rows)


def test_every_function_is_reached_by_a_command(sweep):
    assert sweep.codes == sweep.expected
    unreached = sorted(name for key, (name, _) in sweep.defined.items()
                       if key not in sweep.reached)
    assert sorted(REACHED_ELSEWHERE) == unreached


def test_every_defaulted_parameter_is_varied_by_a_command(sweep):
    """A parameter is fixed when the commands pass only its default, or
    never pass its default; FIXED_PARAMETERS must list exactly those."""
    fixed = sorted(f"{sweep.defined[path, first][0]}({param})"
                   for (path, first, param), took in sweep.observed.items()
                   if took != {True, False})
    unlisted = sorted(set(fixed) - set(FIXED_PARAMETERS))
    stale = sorted(set(FIXED_PARAMETERS) - set(fixed))
    assert not unlisted, "fixed by every command: " + ", ".join(unlisted)
    assert not stale, "varied by a command, or gone: " + ", ".join(stale)
    assert all(reason.strip() for reason in FIXED_PARAMETERS.values())


def test_every_check_is_built_by_a_command(sweep):
    """The rows the commands build are the table's pairs, no more and no fewer."""
    pairs = [(entry.suite, entry.name) for entry in cli.CHECKS]
    assert len(set(pairs)) == len(pairs)
    assert sorted(sweep.rows) == sorted(pairs)
