"""Every function of ifslab is reached by a command.

The five commands are the package's interface.  This test runs each of
them, and their refusal paths, through `cli.main` under `sys.setprofile`
and asserts that every `def` in the package ran, apart from the few in
REACHED_ELSEWHERE, each with the caller that keeps it.  A function that
only tests call fails here: retire it with its tests, or give it a
command that needs it.
"""

import ast
import contextlib
import io
import os
import sys

import ifslab
from ifslab import catalog, cli, sampling
from ifslab.geometry import IfsSystem
from ifslab.ifsfile import export_ifs

SRC = os.path.dirname(os.path.abspath(ifslab.__file__))

# Functions that no command calls, and who calls them.
REACHED_ELSEWHERE = {
    "bimodule.theta_apply": "the benchmark's tracer wraps it by name (perfbench/spans.py)",
    "catalog.catalog": "lists the example systems for library users and the test suite",
    "ifsfile.export_ifs": "writes definition files; CI and the benchmark make file twins",
    "ifsfile._fmt_nested": "export_ifs",
    "ifsfile._fmt": "export_ifs",
}

ROTATED_SYSTEM = """
[system]
dimension = 2
box = [[0.0, 1.0], [0.0, 1.0]]
phi = tent_square

[branch.1]
linear = [[0.4, -0.3], [0.3, 0.4]]
translation = [0.3, 0.1]

[branch.2]
linear = [[0.4, 0.3], [-0.3, 0.4]]
translation = [0.1, 0.3]
"""

# Image boundaries at 0.4 and 0.7 and no coincidence set: the support
# window [0.35, 0.65] clears the empty value set, but the rectangles of the
# nodes just below 0.4 reach into g_2(K) at every pitch (CoverFailure).
UNCOVERABLE_SYSTEM = """
[system]
dimension = 1
box = [[0.0, 1.0]]
phi = piecewise

[branch.1]
linear = [[0.4]]
translation = [0.0]
domain = [[0.0, 0.4]]

[branch.2]
linear = [[0.3]]
translation = [0.4]
domain = [[0.4, 0.7]]

[branch.3]
linear = [[0.3]]
translation = [0.7]
domain = [[0.7, 1.0]]
"""


def defined_functions():
    """{(file, first line): "module.qualname"} of every def in the package.

    The first line is the first decorator's, as in the code object."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as handle:
            tree = ast.parse(handle.read())

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = f"{name[:-3]}.{qualname}"
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


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
            fails = system == "overlap_bad" and command != "operators"
            runs.append(([command, "--system", str(system), *small], 1 if fails else 0))
    runs += [
        (["verify", "--config", str(config)], 0),
        (["verify", "--system", str(piecewise), *small], 0),
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
        (["verify", "--config", str(unknown_key)], 2),
        (["verify", "--config", str(tmp_path / "missing.cfg")], 2),
        (["reconstruct", "--delta", "0"], 2),
        (["measure", "--samples", "0"], 2),
    ]
    return runs


def test_every_function_is_reached_by_a_command(tmp_path):
    runs = command_runs(tmp_path)
    defined = defined_functions()
    files = {path for path, _ in defined}
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

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
    assert codes == [code for _, code in runs]

    unreached = sorted(name for key, name in defined.items() if key not in reached)
    assert sorted(REACHED_ELSEWHERE) == unreached
