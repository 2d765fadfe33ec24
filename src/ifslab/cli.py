"""Batch front end: load a system, run verification suites, emit CSV tables.

Each command loads its system once into a `SuiteRun`, which computes each
suite at most once, and is a tuple of views of that run (`COMMANDS`): a
view writes its CSVs and returns the exit status of the rows it writes.
`report` is the views of measure, operators, reconstruct and verify.
Exit codes: 0 all checks passed, 1 at least one check failed, 2
configuration error (bad flags, unknown system, a negative seed, a
tolerance that is not finite, a bad IFSLAB_CELL_BUDGET, cell-budget
overflow).
Outputs are plain CSV with LF line endings and 17-significant-digit
floats; a rerun with the same configuration is byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

from . import bimodule, catalog, geometry, measure, operators
from .errors import ConfigError, DepthOverflow, IfsLabError
from .ifsfile import load_ifs
from .sampling import random_trig_symbol

DEFAULT_TOLERANCES = {
    "inverse_branch": 1e-9,
    "defect_slack": 1e-9,
    "piece_residual": 1e-12,
    "fixpoint_tv": 1e-10,
    "isometry": 1e-12,
    "projection": 1e-12,
    "transfer_eq": 1e-14,
    "covariance_ratio_lo": 0.25,
    "covariance_ratio_hi": 0.75,
    "covariant_rep": 1e-12,
    "reconstruction_ratio_lo": 0.3,
    "reconstruction_ratio_hi": 0.7,
    "chaos_band_sigma": 4.0,
    "chaos_band_fraction": 0.95,
}

VERIFY_SYMBOLS = 5
VERIFY_TRIALS = 5


@dataclass(frozen=True)
class RunConfig:
    system: str = "tent_square"
    depths: tuple[int, int] = (2, 5)
    samples: int = 10**6
    seed: int = 7
    out_dir: str = "reports"
    delta: float = 0.05
    tolerances: dict = field(default_factory=dict)

    def tol(self, key: str) -> float:
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])


@dataclass(frozen=True)
class CheckRow:
    suite: str
    check: str
    detail: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class Check:
    """A check's suite, its pass rule, and the DEFAULT_TOLERANCES keys it
    reads, the last of which is its threshold (a check without keys takes
    its bound from the caller).  The rules: "at_most" value <= threshold
    (nan fails), "at_least" value >= threshold, "within" the first key's
    tolerance <= value <= the second's, and "status" no residual (value 0
    on a pass, 1 on a failure, threshold 0)."""

    name: str
    suite: str
    rule: str
    keys: tuple[str, ...] = ()


# Every check, in the order `verify` writes the rows; the rows that only
# `measure` reports close its suite.  A suite that is refused writes one
# `refused` row in place of its checks.
CHECKS = (
    Check("inverse-branch", "geometry", "at_most", ("inverse_branch",)),
    Check("self-similarity-defect", "geometry", "at_most", ("defect_slack",)),
    Check("open-set-condition", "geometry", "status"),
    Check("coincidence-set", "geometry", "at_most", ("piece_residual",)),
    Check("value-set", "geometry", "at_most", ("piece_residual",)),
    Check("refused", "measure", "status"),
    Check("fixpoint-vs-exact", "measure", "at_most", ("fixpoint_tv",)),
    Check("exact-masses", "measure", "status"),
    Check("chaos-binomial-band", "measure", "at_least",
          ("chaos_band_sigma", "chaos_band_fraction")),
    Check("refused", "operators", "status"),
    Check("isometry", "operators", "at_most", ("isometry",)),
    Check("projection", "operators", "at_most", ("projection",)),
    Check("transfer-eq", "operators", "at_most", ("transfer_eq",)),
    Check("covariance-bound", "operators", "at_most"),
    Check("covariance-ratio", "operators", "within",
          ("covariance_ratio_lo", "covariance_ratio_hi")),
    Check("refused", "reconstruction", "status"),
    Check("bump-partition", "reconstruction", "status"),
    Check("covariant-rep-module", "reconstruction", "at_most", ("covariant_rep",)),
    Check("covariant-rep-inner", "reconstruction", "at_most", ("covariant_rep",)),
    Check("theta-ratio", "reconstruction", "within",
          ("reconstruction_ratio_lo", "reconstruction_ratio_hi")),
    Check("operator-ratio", "reconstruction", "within",
          ("reconstruction_ratio_lo", "reconstruction_ratio_hi")),
)


def check_entry(name: str, suite: str | None = None) -> Check:
    """The CHECKS entry of `name`; `suite` picks among the `refused` rows."""
    found = [entry for entry in CHECKS if entry.name == name and suite in (None, entry.suite)]
    if len(found) != 1:
        raise KeyError(f"CHECKS holds {len(found)} entries for check {name!r}, suite {suite!r}")
    return found[0]


def threshold(cfg: RunConfig, name: str) -> float:
    """The threshold column of check `name`: the tolerance of its last key."""
    return cfg.tol(check_entry(name).keys[-1])


def check_row(cfg: RunConfig, name: str, detail: str, value: float | None = None, *,
              passed: bool = False, bound: float | None = None,
              suite: str | None = None) -> CheckRow:
    """The row of check `name`, judged by its CHECKS entry.

    A status check reads `passed`.  A check that could not be measured
    (no `value`: refused, an unmet requirement, one depth for a rate)
    fails as a failed status check does.  `bound` is the threshold of a
    check without keys, and `suite` that of a `refused` row.
    """
    entry = check_entry(name, suite)
    if entry.rule == "status" or value is None:
        return CheckRow(entry.suite, name, detail, float(not passed), 0.0, bool(passed))
    if entry.rule == "within":
        lo, hi = (cfg.tol(key) for key in entry.keys)
        return CheckRow(entry.suite, name, detail, value, hi, bool(lo <= value <= hi))
    limit = cfg.tol(entry.keys[-1]) if entry.keys else bound
    ok = value <= limit if entry.rule == "at_most" else value >= limit
    return CheckRow(entry.suite, name, detail, value, limit, bool(ok))


def _load_system(name: str):
    """The system of a catalog name or a definition file path: a file, or a
    name with a definition file's suffix (a missing one cannot be read)."""
    if os.path.isfile(name) or name.endswith((".ifs", ".ini", ".cfg")):
        return load_ifs(name)
    try:
        return catalog.get(name).system
    except KeyError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Suite helpers
# ---------------------------------------------------------------------------

def covariance_residual(ifs, symbols, depth: int) -> list[float]:
    """|C* M_a C - M_(La)| for each symbol a, cell-averaged at depth+1 and La at depth;
    `symbols` are the trig symbols' terms on `ifs` (`operators.trig_terms`).

    Both sides are diagonal on V_m: C* M_a C multiplies by
    w -> sum_i p_i a(i.w), so the norm is max_w |sum_i p_i a(i.w) - (La)(w)|.
    The gaps come in closed form, a block of tails at a time
    (`operators.trig_tail_blocks`): each tail's gap is one dot product of
    prefix and suffix phasors, read off the grids of depths ceil(m/2) and
    floor(m/2), with no cosine per tail.  Each symbol keeps its maximum.
    """
    worst = np.zeros(len(symbols.slope))
    for gap in operators.trig_tail_blocks(ifs, symbols, depth):
        worst = np.maximum(worst, np.abs(gap).max(axis=1))
    return [float(value) for value in worst]


# C, C*, C C* and L carry the same block on every tail w, and so does each
# identity below: its operator on V_m is block diagonal with one block
# repeated n^m times, and its norm is that block's norm.  So each residual
# is computed once per run, from the depth-0 operators, which map V_0 to
# V_1 and hold the one block; the stack of n^m copies at any depth m gives
# the same value, bit for bit.

def identity_residuals(ifs) -> tuple[float, float, float | None]:
    """|C*C - I|, |(C C*)^2 - C C*| and max |C* - L| entrywise, from one
    depth-0 block of C; the last is None without uniform weights."""
    comp = operators.composition_op(ifs, 0)
    identity = operators.mult_op(ifs, operators.CellFunction(0, np.ones(1)))
    isometry = operators.operator_norm(comp.adjoint().compose(comp).subtract(identity))
    proj = comp.compose(comp.adjoint())
    projection = operators.operator_norm(proj.compose(proj).subtract(proj))
    transfer = None
    if ifs.is_hutchinson():
        cstar = operators.adjoint_composition_op(ifs, 0)
        transfer = float(np.abs(cstar.subtract(operators.transfer_op(ifs, 0)).matrix).max())
    return isometry, projection, transfer


def _ratio_rows(cfg: RunConfig, name: str, detail_prefix: str, residuals, depths):
    """One row per pair of consecutive depths: the residual ratio."""
    return [check_row(cfg, name, f"{detail_prefix} depth {m0}->{m1}",
                      r1 / r0 if r0 > 0 else float("inf"))
            for m0, m1, r0, r1 in zip(depths, depths[1:], residuals, residuals[1:])]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteResult:
    """A suite's check rows, and the rows of the table its own command
    writes: empty for a suite without a table and for a refused one."""

    rows: list[CheckRow]
    table: list = field(default_factory=list)


def self_similarity_row(cfg: RunConfig, ifs) -> CheckRow:
    """Whether the attractor is the ambient box; the later suites need it.

    The value is the uncovered volume fraction of the box; nan (a failure)
    when the coverage is undecided."""
    coverage = geometry.self_similarity_defect(ifs)
    return check_row(cfg, "self-similarity-defect", coverage.method, coverage.uncovered)


def geometry_rows(cfg: RunConfig, ifs, similarity: CheckRow) -> list[CheckRow]:
    """The geometry suite, with the run's self-similarity row second.

    The inverse-branch row counts the pairs of branch images that meet; a
    failing one names instead the pair, and a point of both images, where
    the branch inverses differ by the row's value."""
    inverse = geometry.verify_inverse_branches(ifs)
    row = check_row(cfg, "inverse-branch", f"{inverse.meeting} meeting pairs", inverse.residual)
    if not row.passed and inverse.pair is not None:
        i, j = inverse.pair
        point = np.array2string(inverse.point, precision=6)
        row = replace(row, detail=f"inverses of branches {i} and {j} differ at {point}")
    rows = [row, similarity]

    osc = geometry.check_open_set_condition(ifs)
    detail = "candidate open box"
    if not osc.passed:
        witness = "none" if osc.witness is None else np.array2string(osc.witness, precision=6)
        detail = f"failed overlap at pair {osc.violating}, witness {witness}"
    rows.append(check_row(cfg, "open-set-condition", detail, passed=osc.passed))

    pieces = geometry.branch_coincidence_set(ifs)
    rows.append(check_row(cfg, "coincidence-set", f"{len(pieces)} pieces",
                          geometry.coincidence_residual(ifs, pieces)))
    values = geometry.branch_value_set(ifs)
    rows.append(check_row(cfg, "value-set", f"{len(values)} pieces",
                          geometry.value_residual(ifs, pieces, values)))
    return rows


def mass_tables(cfg: RunConfig, ifs, unseparated: str | None) -> SuiteResult:
    """The measure_*.csv tables at depths[0] and their checks; the exact
    masses are refused for `unseparated`."""
    depth = cfg.depths[0]
    fixpoint = measure.markov_fixpoint(ifs, depth)
    empirical = measure.chaos_game(ifs, depth, cfg.samples, cfg.seed)
    table = [("measure_fixpoint.csv", fixpoint), ("measure_empirical.csv", empirical)]
    if unseparated is not None:
        return SuiteResult([check_row(cfg, "exact-masses", f"refused: {unseparated}")], table)
    exact = measure.exact_cell_masses(ifs, depth)
    table.append(("measure_exact.csv", exact))
    sigma = cfg.tol("chaos_band_sigma")
    bands = sigma * np.sqrt(exact.masses * (1 - exact.masses) / cfg.samples)
    fraction = float((np.abs(empirical.masses - exact.masses) <= bands).mean())
    return SuiteResult([
        _fixpoint_row(cfg, exact, fixpoint, depth),
        check_row(cfg, "chaos-binomial-band", f"N {cfg.samples} depth {depth}", fraction),
    ], table)


def measure_rows(cfg: RunConfig, ifs) -> list[CheckRow]:
    """verify's measure suite: fixed-point against exact masses at depths[1]."""
    depth = cfg.depths[1]
    exact = measure.exact_cell_masses(ifs, depth)
    return [_fixpoint_row(cfg, exact, measure.markov_fixpoint(ifs, depth), depth)]


def _fixpoint_row(cfg: RunConfig, exact, fixpoint, depth: int) -> CheckRow:
    return check_row(cfg, "fixpoint-vs-exact", f"depth {depth}",
                     measure.total_variation(exact.masses, fixpoint.masses))


@dataclass(frozen=True)
class OperatorSuite:
    """Residuals of every operator identity, computed once per run.

    Each identity's one residual stands for every depth.  `transfer` is
    None and `covariance` empty without uniform weights; covariance[k][j]
    is trial symbol k's residual at depths[j].
    """

    depths: list[int]
    isometry: float
    projection: float
    transfer: float | None
    symbols: list
    covariance: list[list[float]]


def operator_suite(cfg: RunConfig, ifs) -> OperatorSuite:
    """The operator residuals.  The identity residuals stand for the
    depth-(m+1) spaces of every depth m, whose cell budget is checked
    first, in ascending order; the covariance residuals run once per
    depth, every symbol on each block of tails in turn
    (`covariance_residual`), from the symbols' terms formed once."""
    depths = list(range(cfg.depths[0], cfg.depths[1] + 1))
    for m in depths:
        measure.check_depth(ifs.n_branches, m + 1)
    symbols = [random_trig_symbol((cfg.seed, 101, k), ifs.dimension)
               for k in range(VERIFY_SYMBOLS)]
    covariance = []
    if ifs.is_hutchinson():
        terms = operators.trig_terms(ifs, symbols)
        per_depth = [covariance_residual(ifs, terms, m) for m in depths]
        covariance = [list(residuals) for residuals in zip(*per_depth)]
    return OperatorSuite(depths, *identity_residuals(ifs), symbols, covariance)


def operator_rows(cfg: RunConfig, ifs, suite: OperatorSuite) -> list[CheckRow]:
    """The operator suite's check rows: the verdict of both `operators` and
    verify_operators.csv."""
    rows = []
    for depth in suite.depths:
        rows.append(check_row(cfg, "isometry", f"depth {depth}", suite.isometry))
        rows.append(check_row(cfg, "projection", f"depth {depth}", suite.projection))
        detail = f"depth {depth}" if suite.transfer is not None else "requires uniform weights"
        rows.append(check_row(cfg, "transfer-eq", detail, suite.transfer))

    if suite.covariance:
        for k, (symbol, residuals) in enumerate(zip(suite.symbols, suite.covariance)):
            bound = symbol.lip_bound * ifs.box.diameter
            for m, res in zip(suite.depths, residuals):
                rows.append(check_row(cfg, "covariance-bound", f"symbol {k} depth {m}", res,
                                      bound=bound * ifs.c2**m))
            rows.extend(_ratio_rows(cfg, "covariance-ratio", f"symbol {k}",
                                    residuals, suite.depths))
        if len(suite.depths) < 2:
            rows.append(check_row(cfg, "covariance-ratio",
                                  f"needs two depths; got only depth {suite.depths[0]}"))
    else:
        rows.append(check_row(cfg, "covariance-bound", "requires uniform weights"))
    return rows


def residual_table(cfg: RunConfig, ifs, suite: OperatorSuite) -> list[tuple]:
    """operator_residuals.csv: per depth, each identity's residual and the
    worst covariance residual over the trial symbols; nan marks an
    identity that needs uniform weights."""
    nan = float("nan")
    bound_lip = max(s.lip_bound for s in suite.symbols) * ifs.box.diameter
    transfer = suite.transfer if suite.transfer is not None else nan
    table = []
    for j, depth in enumerate(suite.depths):
        table.append((depth, "isometry", suite.isometry, threshold(cfg, "isometry")))
        table.append((depth, "projection", suite.projection, threshold(cfg, "projection")))
        table.append((depth, "transfer-eq", transfer, threshold(cfg, "transfer-eq")))
        cov = max(res[j] for res in suite.covariance) if suite.covariance else nan
        table.append((depth, "covariance", cov, bound_lip * ifs.c2**depth))
    return table


def reconstruction_rows(cfg: RunConfig, ifs) -> SuiteResult:
    """The reconstruction suite and its table, on the symbol and partition
    of `bimodule.reconstruction_symbol`; `cfg.delta` is a fraction of the
    box's shortest side.  The weights must be uniform (`SuiteRun` refuses
    the suite otherwise)."""
    try:
        symbol, partition = bimodule.reconstruction_symbol(
            ifs, float(cfg.delta * ifs.box.sizes.min()))
    except (ValueError, IfsLabError) as exc:
        return SuiteResult([check_row(cfg, "bump-partition", str(exc))])

    depths = list(range(cfg.depths[0], cfg.depths[1] + 1))
    rep_depth = depths[0]
    res1, res2 = bimodule.covariant_rep_check(ifs, rep_depth, VERIFY_TRIALS, seed=cfg.seed)
    rows = [check_row(cfg, "covariant-rep-module", f"depth {rep_depth}", res1),
            check_row(cfg, "covariant-rep-inner", f"depth {rep_depth}", res2)]

    # The depth-m experiment runs on level m+1 data throughout: one block
    # operator on V_{m+1} gives both the theta and the operator residual.
    theta_residuals, op_residuals = [], []
    for depth in depths:
        vectors = bimodule.reconstruction_vectors(ifs, symbol, partition, depth + 1)
        residual = bimodule.reconstruction_residual(ifs, vectors)
        theta_residuals.append(bimodule.verify_theta_reconstruction(ifs, residual))
        op_residuals.append(bimodule.verify_operator_reconstruction(residual))
    if len(depths) < 2:
        rows += [check_row(cfg, name, f"needs two depths; got only depth {depths[0]}")
                 for name in ("theta-ratio", "operator-ratio")]
    rows.extend(_ratio_rows(cfg, "theta-ratio", "module norm", theta_residuals, depths))
    rows.extend(_ratio_rows(cfg, "operator-ratio", f"{partition.size} bumps",
                            op_residuals, depths))
    table = [(ifs.name or cfg.system, depth, partition.size, res_theta, res_op)
             for depth, res_theta, res_op in zip(depths, theta_residuals, op_residuals)]
    return SuiteResult(rows, table)


# ---------------------------------------------------------------------------
# One run, and the commands as views of it
# ---------------------------------------------------------------------------

class SuiteRun:
    """The suites of one command on one loaded system.

    Each suite is computed on first use and at most once, so every view of
    the run reads the same rows, and every per-depth cache of the system
    serves every suite.  The measure check needs a separated measure
    (`separation`), the operator and reconstruction suites K = B, and the
    reconstruction suite uniform weights: else each is one `refused` row.
    The suite functions are looked up as module globals when they run, so
    a wrapper put on one after import sees every call.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.ifs = _load_system(cfg.system)

    def _gated(self, suite: str, compute, uniform: bool = False) -> SuiteResult:
        """compute(), or the one `refused` row of a suite that lacks what it needs."""
        detail = None
        if suite == "measure" or not self.similarity.passed:
            detail = self.separation  # names a failed attractor check too
        elif uniform and not self.ifs.is_hutchinson():
            detail = "requires uniform weights"
        if detail is None:
            return compute()
        return SuiteResult([check_row(self.cfg, "refused", detail, suite=suite)])

    @cached_property
    def similarity(self) -> CheckRow:
        return self_similarity_row(self.cfg, self.ifs)

    @cached_property
    def separation(self) -> str | None:
        """Why the measure is not separated, or None (README, Measure separation)."""
        if not self.similarity.passed:
            return "attractor is not the ambient box"
        osc = geometry.check_open_set_condition(self.ifs)
        if osc.passed:
            return None
        return "measure not separated: branch images ({}; {}) overlap".format(*osc.violating)

    @cached_property
    def geometry_checks(self) -> list[CheckRow]:
        return geometry_rows(self.cfg, self.ifs, self.similarity)

    @cached_property
    def masses(self) -> SuiteResult:
        return mass_tables(self.cfg, self.ifs, self.separation)

    @cached_property
    def measure_checks(self) -> SuiteResult:
        return self._gated("measure", lambda: SuiteResult(measure_rows(self.cfg, self.ifs)))

    @cached_property
    def operator_checks(self) -> SuiteResult:
        def compute():
            suite = operator_suite(self.cfg, self.ifs)
            return SuiteResult(operator_rows(self.cfg, self.ifs, suite),
                               residual_table(self.cfg, self.ifs, suite))
        return self._gated("operators", compute)

    @cached_property
    def reconstruction_checks(self) -> SuiteResult:
        return self._gated("reconstruction",
                           lambda: reconstruction_rows(self.cfg, self.ifs), uniform=True)


def _out(cfg: RunConfig, filename: str) -> str:
    """Path of `filename` in the output directory, made on first write."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, filename)


def _write_check_csv(path, rows: list[CheckRow]) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write("check,detail,value,threshold,status\n")
        for row in rows:
            status = "pass" if row.passed else "fail"
            detail = row.detail.replace(",", ";")
            handle.write(f"{row.check},{detail},{row.value:.17g},"
                         f"{row.threshold:.17g},{status}\n")


def _first_failure(rows: list[CheckRow]) -> int:
    """Exit status of `rows`; names the first failing check on stderr."""
    failing = [row for row in rows if not row.passed]
    if not failing:
        return 0
    first = failing[0]
    print(f"FIRST FAILING CHECK: {first.check} ({first.suite}: {first.detail}; "
          f"value {first.value:.6g}, bound {first.threshold:.6g}); "
          f"{len(failing)} of {len(rows)} checks failed", file=sys.stderr)
    return 1


# Each view writes its CSVs from the run and returns the exit status of the
# rows it writes.

def measure_view(run: SuiteRun) -> int:
    for filename, masses in run.masses.table:
        measure.write_mass_csv(masses, run.ifs.n_branches, _out(run.cfg, filename))
    return _first_failure(run.masses.rows)


def operators_view(run: SuiteRun) -> int:
    result = run.operator_checks
    operators.write_residual_table(_out(run.cfg, "operator_residuals.csv"), result.table)
    return _first_failure(result.rows)


def reconstruct_view(run: SuiteRun) -> int:
    result = run.reconstruction_checks
    bimodule.write_reconstruction_csv(_out(run.cfg, "reconstruction.csv"), result.table)
    return _first_failure(result.rows)


def verify_view(run: SuiteRun) -> int:
    files = {
        "verify_geometry.csv": run.geometry_checks,
        "verify_measure.csv": run.measure_checks.rows,
        "verify_operators.csv": run.operator_checks.rows,
        "verify_reconstruction.csv": run.reconstruction_checks.rows,
    }
    for filename, rows in files.items():
        _write_check_csv(_out(run.cfg, filename), rows)
    return _first_failure([row for rows in files.values() for row in rows])


COMMANDS = {
    "verify": (verify_view,),
    "measure": (measure_view,),
    "operators": (operators_view,),
    "reconstruct": (reconstruct_view,),
    "report": (measure_view, operators_view, reconstruct_view, verify_view),
}


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _parse_depths(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"depths must look like 2..5, got {text!r}") from None
    if lo < 0 or hi < lo:
        raise ConfigError(f"invalid depth range {text!r}")
    return lo, hi


# The settings of a config file's [run] section: key -> (RunConfig field,
# type).  The command-line flag of the same name overrides each; the type
# converts the text of either, and the settings are read in this order.
RUN_SETTINGS = {
    "system": ("system", str),
    "depths": ("depths", _parse_depths),
    "samples": ("samples", int),
    "seed": ("seed", int),
    "out": ("out_dir", str),
    "delta": ("delta", float),
}


def _config_value(kind, section: str, key: str, raw: str, path: str):
    """`raw` converted by `kind`; a ValueError becomes a ConfigError naming the key."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key} in [{section}] of {path!r} must be "
                          f"{'an integer' if kind is int else 'a number'}, got {raw!r}") from None


def _config_from_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path!r}: not UTF-8 text "
                          f"(byte {exc.object[exc.start]:#04x} at offset {exc.start})") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    values: dict = {}
    unknown = sorted(set(parser.sections()) - {"run", "tolerances"})
    if unknown:
        raise ConfigError(f"unknown section [{unknown[0]}] in {path!r}")
    for section, known in (("run", RUN_SETTINGS), ("tolerances", DEFAULT_TOLERANCES)):
        if section in parser:
            unknown = sorted(set(parser[section]) - set(known))
            if unknown:
                raise ConfigError(f"unknown key {unknown[0]!r} in [{section}] of {path!r}")
    if "run" in parser:
        run = parser["run"]
        for key, (name, kind) in RUN_SETTINGS.items():
            if key in run:
                values[name] = _config_value(kind, "run", key, run[key], path)
    if "tolerances" in parser:
        values["tolerances"] = {key: _config_value(float, "tolerances", key, val, path)
                                for key, val in parser["tolerances"].items()}
    return values


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = replace(cfg, **_config_from_file(args.config))
    overrides = {name: kind(getattr(args, key)) for key, (name, kind) in RUN_SETTINGS.items()
                 if getattr(args, key) is not None}
    tolerances = dict(cfg.tolerances)
    for item in args.tol or []:
        try:
            key, value = item.split("=", 1)
            tolerances[key] = float(value)
        except ValueError:
            raise ConfigError(f"--tol expects KEY=NUMBER, got {item!r}") from None
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {key!r}")
    overrides["tolerances"] = tolerances
    cfg = replace(cfg, **overrides)
    measure.cell_budget()  # a bad IFSLAB_CELL_BUDGET is refused before any work
    if not (math.isfinite(cfg.delta) and cfg.delta > 0):
        raise ConfigError(f"delta must be finite and > 0, got {cfg.delta!r}")
    for key, value in cfg.tolerances.items():
        if not math.isfinite(value):
            raise ConfigError(f"tolerance {key} must be finite, got {value!r}")
    if cfg.samples < 1:
        raise ConfigError(f"samples must be >= 1, got {cfg.samples!r}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed!r}")
    return cfg


@cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Every `parse_args` call fills a fresh namespace from the actions'
    defaults, so one parse leaves nothing behind for the next.
    """
    parser = argparse.ArgumentParser(
        prog="ifslab",
        description="Verification suites for iterated-function-system operator identities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("verify", "run every check suite and threshold the residuals"),
        ("measure", "emit exact, fixed-point and chaos-game cell masses"),
        ("operators", "emit the operator-identity residual table"),
        ("reconstruct", "emit the partition-of-unity reconstruction table"),
        ("report", "run all of the above"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--system", help="catalog name or definition file path")
        cmd.add_argument("--depths", help="depth range, e.g. 2..5")
        cmd.add_argument("--samples", type=int, help="chaos-game sample count")
        cmd.add_argument("--seed", type=int, help="master seed")
        cmd.add_argument("--out", help="output directory for CSV reports")
        cmd.add_argument("--config", help="config file with [run] and [tolerances]")
        cmd.add_argument("--delta", type=float,
                         help="clearance to the value set, a fraction of the shortest box side")
        cmd.add_argument("--tol", action="append", metavar="KEY=VALUE",
                         help="override a tolerance (repeatable)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        run = SuiteRun(build_config(args))
        return max([view(run) for view in COMMANDS[args.command]])
    except DepthOverflow as exc:
        print(f"DepthOverflow: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
