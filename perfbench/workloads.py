"""The four benchmark workloads and the mathematical verdict each command must reach.

A workload is a fixed list of `ifslab` command lines; one pass runs the
list once, in order, through `ifslab.cli.main` in the benchmark process.
Pass k of a run hands every command `--seed` seed + (k mod `seeds`), where
seed is the benchmark's own `--seed`; `--out` is added per command at run
time.  Only `catalog_sweep` cycles (`seeds` = 10): its pass time depends
on the seed through power-iteration step counts, by up to 2.5x, so one
seed per run would make its spread across runs a property of the seeds.

Each command carries the exit code the mathematics gives (0 for the four
separated tent/zigzag systems, whether they come from the catalog or a
definition file; 1 for `overlap_bad`, whose attractor is not the box and
whose branch images overlap) and the CSV files it must write, with their
data-row counts where the count is fixed by the configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

GOOD_SYSTEMS = ("tent_square", "tent_sigma", "tent_1d", "sigma_1d")
BAD_SYSTEM = "overlap_bad"
BRANCHES = {"tent_square": 4, "tent_sigma": 6, "tent_1d": 2, "sigma_1d": 3, "overlap_bad": 2}

# Chaos-game sample count of every workload that samples (the CLI default).
SAMPLES = 10**6

VERIFY_CSVS = ("verify_geometry.csv", "verify_measure.csv",
               "verify_operators.csv", "verify_reconstruction.csv")
MEASURE_CSVS = ("measure_exact.csv", "measure_fixpoint.csv", "measure_empirical.csv")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its outputs must look like."""

    label: str
    argv: tuple[str, ...]
    system: str              # catalog name of the system (or of its file twin)
    expect_exit: int
    csv_rows: dict = field(default_factory=dict)  # file name -> data rows, None = any >= 1
    mass_depth: int | None = None   # depth of the measure_*.csv files, if written

    def with_run_args(self, seed: int, out_dir: str) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--out", out_dir]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    samples: int | None = None           # chaos-game samples per command, if it samples
    file_systems: tuple[str, ...] = ()   # catalog systems written as definition files
    seeds: int = 1                       # consecutive seeds a run's passes cycle through

    @property
    def catalog_systems(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(c.system for c in self.commands
                                   if not c.label.startswith("file:")))


def _verify_rows() -> dict:
    return {name: None for name in VERIFY_CSVS}


def system_file(work_dir: str, system: str) -> str:
    return os.path.join(work_dir, "systems", f"{system}.ifs")


def build(name: str, work_dir: str) -> Workload:
    """The workload `name`, with definition-file paths under `work_dir`."""
    if name == "report_sigma":
        n, lo, hi = BRANCHES["tent_sigma"], 2, 5
        rows = {f: n**lo for f in MEASURE_CSVS}
        rows.update(_verify_rows())
        rows["operator_residuals.csv"] = 4 * (hi - lo + 1)
        rows["reconstruction.csv"] = hi - lo + 1
        cmd = Command("report tent_sigma",
                      ("report", "--system", "tent_sigma", "--depths", f"{lo}..{hi}"),
                      "tent_sigma", 0, rows, mass_depth=lo)
        return Workload(name, (cmd,), samples=SAMPLES)
    if name == "measure_deep":
        depth = 6
        cmd = Command("measure tent_square",
                      ("measure", "--system", "tent_square", "--depths", f"{depth}..{depth}",
                       "--samples", str(SAMPLES)),
                      "tent_square", 0, {f: 4**depth for f in MEASURE_CSVS}, mass_depth=depth)
        return Workload(name, (cmd,), samples=SAMPLES)
    if name == "operators_deep":
        lo, hi = 2, 8
        cmd = Command("operators tent_square",
                      ("operators", "--system", "tent_square", "--depths", f"{lo}..{hi}"),
                      "tent_square", 0, {"operator_residuals.csv": 4 * (hi - lo + 1)})
        return Workload(name, (cmd,))
    if name == "catalog_sweep":
        commands = []
        for system in (*GOOD_SYSTEMS, BAD_SYSTEM):
            commands.append(Command(
                f"catalog:{system}", ("verify", "--system", system, "--depths", "2..3"),
                system, 1 if system == BAD_SYSTEM else 0, _verify_rows()))
        for system in GOOD_SYSTEMS:
            commands.append(Command(
                f"file:{system}",
                ("verify", "--system", system_file(work_dir, system), "--depths", "2..3"),
                system, 0, _verify_rows()))
        return Workload(name, tuple(commands), file_systems=GOOD_SYSTEMS, seeds=10)
    raise KeyError(name)


NAMES = ("report_sigma", "measure_deep", "operators_deep", "catalog_sweep")
