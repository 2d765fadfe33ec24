"""ifslab benchmark: run one workload, check every verdict, print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload report_sigma --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 0

The program is imported from `src/` next to this directory; nothing is
installed.  One run:

1. writes the workload's definition files (`ifsfile.export_ifs`) under
   `.perfbench/` and times SETUP_REPEATS fresh interpreters that import
   `ifslab.cli` and build or load the workload's systems (`setup_s`);
   one more such interpreter runs after each measured pass;
2. runs one warm-up pass at `--seed`, then measured passes of the
   workload's command list through `ifslab.cli.main` in this process, one
   command at a time: at least one round over the workload's seeds
   (workloads.py), then more while the next pass is predicted to end
   within `--seconds`;
3. judges every command against the mathematics (oracle.py), counting
   each (command, seed) verdict once, and checks that passes given the
   same seed wrote the same CSV bytes.

With `--trace 0` it reports the end-to-end metrics named in BENCHMARK.json
(medians over passes; for a cycling workload, the median over its seeds of
each seed's median pass).  With `--trace 1` it alternates untraced and traced
passes at `--seed` (spans.py) and reports the per-layer metrics; traced
CSVs must equal the untraced ones.  The last
line of standard output is the JSON result; the line before it holds the
provenance, the failing commands and the CSV byte-identity diagnostic.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CSV_BASELINE = os.path.join(HERE, "csv_sha256.json")

# One BLAS thread: the operators are sparse and the arrays small, and a
# single thread keeps timings steady on a shared two-core machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import ifslab.cli
from ifslab import catalog
from ifslab.ifsfile import load_ifs
for name in sys.argv[2].split(","):
    catalog.get(name)
for path in sys.argv[3:]:
    load_ifs(path)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Pass:
    """One run of the workload's command list: times and judged outcomes."""

    def __init__(self, seed: int, wall: float, cpu: float, outcomes: list,
                 layers: dict | None = None):
        self.seed, self.wall, self.cpu = seed, wall, cpu
        self.outcomes, self.layers = outcomes, layers

    def hashes(self, workload) -> dict:
        return {f"{cmd.label}/{name}": digest
                for cmd, outcome in zip(workload.commands, self.outcomes)
                for name, digest in outcome.hashes.items()}


def run_pass(cli_main, workload, seed: int, out_root: str, tracer=None) -> Pass:
    shutil.rmtree(out_root, ignore_errors=True)
    out_dirs = [os.path.join(out_root, str(k)) for k in range(len(workload.commands))]
    results = []
    if tracer is not None:
        tracer.reset()
    sink = io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for cmd, out_dir in zip(workload.commands, out_dirs):
            try:
                results.append((cli_main(cmd.with_run_args(seed, out_dir)), None))
            except Exception as exc:  # a raising command is a failed command
                results.append((None, f"{type(exc).__name__}: {exc}"))
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    outcomes = [oracle.judge(cmd, code, error, out_dir)
                for cmd, (code, error), out_dir in zip(workload.commands, results, out_dirs)]
    layers = spans.pass_summary(tracer) if tracer is not None else None
    return Pass(seed, wall, cpu, outcomes, layers)


def median_over_seeds(passes: list, value) -> float:
    """Median over seeds of each seed's median `value(pass)`.  Every seed
    weighs the same, however many of its passes fit in the run: a run that
    ends part-way through a round of a cycling workload would otherwise
    weigh its pass times towards the seeds at the start of the cycle."""
    by_seed = {}
    for p in passes:
        by_seed.setdefault(p.seed, []).append(value(p))
    return median(median(values) for values in by_seed.values())


def timed_rounds(budget: float, run_round, minimum: int = 1) -> list:
    """run_round(0), run_round(1), ...: at least `minimum` of them, then
    another while it is predicted to end within `budget` seconds."""
    rounds, times, start = [], [], time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(run_round(len(rounds)))
        times.append(time.perf_counter() - began)
        if len(rounds) >= minimum and time.perf_counter() - start + median(times) > budget:
            return rounds


# ---------------------------------------------------------------------------
# Set-up, provenance, diagnostics
# ---------------------------------------------------------------------------

def write_system_files(workload, work_dir: str) -> list[str]:
    from ifslab import catalog
    from ifslab.ifsfile import export_ifs

    paths = []
    for name in workload.file_systems:
        entry = catalog.get(name)
        path = workloads.system_file(work_dir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(export_ifs(entry.system, entry.phi_name))
        paths.append(path)
    return paths


def setup_time(workload, files: list[str]) -> float:
    """Wall time of one fresh interpreter that imports ifslab.cli and builds the systems."""
    argv = [sys.executable, "-c", SETUP_CODE, SRC, ",".join(workload.catalog_systems), *files]
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, timeout=120,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - start


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, workload, passes: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "seed": args.seed, "git_commit": git_commit(),
        "workload": workload.name,
        "commands": [" ".join(os.path.relpath(a, ROOT) if os.path.isabs(a) else a
                              for a in c.argv) for c in workload.commands],
        "samples": workload.samples, "passes": passes, "seconds": args.seconds,
    }


def csv_diagnostic(workload_name: str, seed: int, hashes: dict) -> tuple[list, list]:
    """CSV files whose bytes differ from the seed commit's, and files with no stored hash."""
    with open(CSV_BASELINE) as handle:
        stored = json.load(handle).get(workload_name, {}).get(str(seed))
    if stored is None:
        return [], sorted(hashes)
    changed = sorted(k for k in set(stored) | set(hashes) if stored.get(k) != hashes.get(k))
    return changed, []


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def load_program():
    """Import ifslab from SRC with BLAS_THREADS threads; return `ifslab.cli.main`."""
    if not os.path.isfile(os.path.join(SRC, "ifslab", "__init__.py")):
        raise RuntimeError(f"no ifslab sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import ifslab
    import ifslab.cli

    if os.path.dirname(os.path.abspath(ifslab.__file__)) != os.path.join(SRC, "ifslab"):
        raise RuntimeError(f"imported ifslab from {ifslab.__file__}, not from {SRC}")
    return ifslab.cli.main


def run_workload(args) -> int:
    if args.workload not in workloads.NAMES:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.NAMES} or all")
    try:
        cli_main = load_program()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            manifest = json.load(handle)
    except (RuntimeError, OSError) as exc:
        return fail(str(exc))

    work_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    workload = workloads.build(args.workload, work_dir)
    files = write_system_files(workload, work_dir)
    setup = [setup_time(workload, files) for _ in range(SETUP_REPEATS)] if not args.trace else []

    out_root = os.path.join(work_dir, "out")

    def untraced_pass(seed):
        return run_pass(cli_main, workload, seed, out_root)

    tracer = spans.Tracer()
    all_spans = []

    def traced_pass(seed):
        with tracer:
            result = run_pass(cli_main, workload, seed, out_root, tracer)
        all_spans.append(tracer.spans)
        return result

    warmup = untraced_pass(args.seed)
    if not args.trace:
        # Pass k hands the program seed + (k mod workload.seeds).  The first
        # round covers every seed once, however fast the host is, so the
        # verdicts counted below do not depend on speed.  A set-up
        # interpreter follows each pass, so that set-up times are sampled
        # across the same span of host speed as the passes.
        seeds = [args.seed + i for i in range(workload.seeds)]
        rounds = timed_rounds(args.seconds,
                              lambda k: (untraced_pass(seeds[k % len(seeds)]),
                                         setup_time(workload, files)),
                              minimum=len(seeds))
        measured, traced = [p for p, _ in rounds], []
        setup += [t for _, t in rounds]
    else:
        # Untraced and traced passes alternate at --seed, so that both see
        # the same swings in host speed and their difference is the tracing cost.
        pairs = timed_rounds(args.seconds,
                             lambda k: (untraced_pass(args.seed), traced_pass(args.seed)))
        measured, traced = [u for u, _ in pairs], [t for _, t in pairs]

    # Correctness: every failure is a known defect, and every pass wrote the
    # bytes of the first pass given its seed (so tracing changed no output).
    reference = {}
    problems = []
    for k, p in enumerate([warmup, *measured, *traced]):
        kind = "warm-up" if k == 0 else "traced" if k > len(measured) else "untraced"
        if reference.setdefault(p.seed, p.hashes(workload)) != p.hashes(workload):
            problems.append(f"{kind} pass {k} (seed {p.seed}) wrote other CSV bytes "
                            "than the first pass given that seed")
        for cmd, outcome in zip(workload.commands, p.outcomes):
            if outcome.failed and outcome.defect is None:
                problems.append(f"{kind} pass {k}: {cmd.label}: {'; '.join(outcome.problems)}")
    # Each (command, seed) verdict counts once: the first measured pass given that seed.
    judged = list({p.seed: p for p in reversed(measured)}.values())[::-1]
    attempted = len(judged) * len(workload.commands)
    failed = sum(o.failed for p in judged for o in p.outcomes)
    per_seed = {p.seed: f"{sum(o.failed for o in p.outcomes)}/{len(p.outcomes)}" for p in judged}
    changed, unbaselined = csv_diagnostic(workload.name, args.seed, reference[args.seed])

    if not args.trace:
        values = {
            "wall_s": median_over_seeds(measured, lambda p: p.wall),
            "cpu_s": median_over_seeds(measured, lambda p: p.cpu),
            "setup_s": median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = manifest["end_to_end"]
    else:
        values = spans.combine([p.layers for p in traced],
                               [m["name"] for m in manifest["per_layer"]])
        values["trace.overhead_s"] = median(t.wall - u.wall for u, t in zip(measured, traced))
        values["cli.csv_changed_files"] = len(changed)
        declared = manifest["per_layer"]
        with open(os.path.join(work_dir, "spans.csv"), "w") as handle:
            handle.write("pass,name,start,end,parent\n")
            for k, pass_spans in enumerate(all_spans):
                for name, start, end, parent in pass_spans:
                    handle.write(f"{k},{name},{start!r},{end!r},{parent}\n")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    failures = {}
    for p in judged:
        for cmd, outcome in zip(workload.commands, p.outcomes):
            if outcome.failed:
                entry = failures.setdefault(
                    (cmd.label, outcome.defect, tuple(outcome.problems)),
                    {"command": cmd.label, "problems": outcome.problems,
                     "known_defect": outcome.defect, "seeds": []})
                entry["seeds"].append(p.seed)
    failures = list(failures.values())
    detail = {
        "provenance": provenance(args, workload, len(measured) + len(traced)),
        "untraced_passes": len(measured), "traced_passes": len(traced),
        "pass_seeds": [p.seed for p in [*measured, *traced]],
        "pass_walls_s": [p.wall for p in [*measured, *traced]],
        "setup_runs_s": setup,
        "fail_ratio": {"failed": failed, "attempted": attempted,
                       "value": failed / attempted, "per_seed": per_seed},
        "failing_commands": failures,
        "known_defects": {k: oracle.KNOWN_DEFECTS[k] for k in
                          sorted({f["known_defect"] for f in failures} - {None})},
        "correctness_problems": problems,
        "csv_changed_files": changed, "csv_unbaselined_files": unbaselined,
    }
    with open(os.path.join(work_dir, "result.json"), "w") as handle:
        json.dump({"detail": detail, "metrics": metrics}, handle, indent=1)

    print(f"{workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(measured)} untraced + {len(traced)} traced passes of "
          f"{len(workload.commands)} commands; fail_ratio {failed}/{attempted} = "
          f"{failed / attempted:.4f} (per seed: "
          f"{', '.join(f'{seed}: {ratio}' for seed, ratio in per_seed.items())})")
    for info in failures:
        print(f"  failing: {info['command']} (seeds {info['seeds']}): "
              f"{'; '.join(info['problems'])} [known defect: {info['known_defect']}]")
    for problem in problems:
        print(f"  NOT CORRECT: {problem}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, so that each has its own peak RSS."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return fail(f"workload {name} exited with {done.returncode}")
        lines = done.stdout.strip().split("\n")
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"detail"')))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
