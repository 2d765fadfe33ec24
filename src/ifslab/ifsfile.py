"""Reading and writing IFS definition files.

The format is sectioned key-value text (configparser syntax) with JSON
arrays as values:

    [system]
    dimension = 2
    box = [[0.0, 1.0], [0.0, 1.0]]
    weights = [0.25, 0.25, 0.25, 0.25]
    phi = tent_square

    [branch.1]
    linear = [[0.5, 0.0], [0.0, 0.5]]
    translation = [0.0, 0.0]

Branch sections are numbered from 1 in display order.  `phi` names a
catalog evaluator, or `piecewise` with a `domain` box in every branch
section, in which case the expanding map applies the first branch inverse
whose domain contains the point.  `weights` is optional (uniform when
absent) and must sum to 1 within 1e-12, and `name` is optional and one
line.  The file is UTF-8 text, and every number is finite.  A key that
is missing, unknown to its section or not readable is a ConfigError that
names the section and the key, and so is a section other than these.
"""

from __future__ import annotations

import configparser
import io
import json

import numpy as np

from .errors import ConfigError
from .geometry import AffineContraction, AmbientBox, IfsSystem, first_box


# The keys each section may hold; any other key is refused.
SYSTEM_KEYS = ("name", "dimension", "box", "weights", "phi")
BRANCH_KEYS = ("linear", "translation", "domain")


def _numbers(raw: str) -> np.ndarray:
    """A JSON number or rectangular array of numbers, all finite, as floats."""
    value = np.asarray(json.loads(raw))
    if value.dtype.kind not in "iuf" or not np.isfinite(value).all():
        raise ValueError("not an array of finite numbers")
    return value.astype(float)


def _read(section, key: str, convert):
    """`key` of the configparser section, converted; a missing key or a value
    that `convert` rejects is a ConfigError naming the section and the key."""
    if key not in section:
        raise ConfigError(f"[{section.name}] is missing {key!r}")
    raw = section[key]
    try:
        return convert(raw)
    except ValueError:
        kind = "an integer" if convert is int else "finite numbers in a rectangular JSON array"
        raise ConfigError(f"[{section.name}] {key} must be {kind}, got {raw!r}") from None


def piecewise_phi(branches, domains, box: AmbientBox):
    """First-match piecewise inverse over the per-branch domain boxes.

    Each point goes through the inverse of the first branch whose domain
    box holds it (`first_box` with no slack).  Points outside every domain
    are routed through the branch with the nearest domain box and the
    result is clipped into the ambient box, so the evaluator stays total.
    """
    domains = np.array(domains, dtype=float)

    def evaluate(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        first = first_box(points, domains, 0.0)
        out = np.empty_like(points)
        for b, gamma in enumerate(branches):
            rows = first == b
            if rows.any():
                out[rows] = gamma.inverse(points[rows])
        return np.clip(out, box.lo, box.hi)

    return evaluate


def parse_ifs(text: str) -> IfsSystem:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed definition file: {exc}") from exc
    if "system" not in parser:
        raise ConfigError("missing [system] section")
    found = {s for s in parser.sections() if s.startswith("branch.")}
    branch_names = [f"branch.{k}" for k in range(1, len(found) + 1)]
    if found != set(branch_names):
        raise ConfigError("branch sections must be numbered branch.1, branch.2, ...")
    unknown = sorted(set(parser.sections()) - found - {"system"})
    if unknown:
        raise ConfigError(f"unknown section [{unknown[0]}]")
    if len(branch_names) < 2:
        raise ConfigError("need at least two branch sections")
    for name, known in (("system", SYSTEM_KEYS), *((b, BRANCH_KEYS) for b in branch_names)):
        unknown = sorted(set(parser[name]) - set(known))
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in [{name}]")

    sys_sec = parser["system"]
    dimension = _read(sys_sec, "dimension", int)
    box_iv = _read(sys_sec, "box", _numbers)
    if box_iv.shape != (dimension, 2):
        raise ConfigError("box must list one [lo, hi] pair per dimension")
    try:
        box = AmbientBox(box_iv)
    except ValueError as exc:
        raise ConfigError(f"[system] box: {exc}") from None

    branches, domains = [], []
    for name in branch_names:
        sec = parser[name]
        linear = _read(sec, "linear", _numbers)
        translation = _read(sec, "translation", _numbers)
        try:
            branches.append(AffineContraction(linear, translation))
        except Exception as exc:
            raise ConfigError(f"[{name}]: {exc}") from exc
        if "domain" in sec:
            domain = _read(sec, "domain", _numbers)
            if domain.shape != (dimension, 2):
                raise ConfigError(f"[{name}] domain must list one [lo, hi] pair per dimension")
            domains.append(domain)
        else:
            domains.append(None)

    weights = _read(sys_sec, "weights", _numbers) if "weights" in sys_sec else None

    phi_name = sys_sec.get("phi", "").strip()
    if not phi_name:
        raise ConfigError("[system] needs a phi entry (catalog name or 'piecewise')")
    if phi_name == "piecewise":
        if any(dom is None for dom in domains):
            raise ConfigError("piecewise phi needs a domain box in every branch section")
        phi = piecewise_phi(branches, domains, box)
    else:
        from .catalog import PHI_EVALUATORS

        try:
            phi = PHI_EVALUATORS[phi_name]
        except KeyError:
            raise ConfigError(f"unknown phi evaluator {phi_name!r}") from None

    name = sys_sec.get("name", phi_name)
    if "\n" in name or "\r" in name:
        raise ConfigError(f"[system] name must be one line, got {name!r}")
    try:
        return IfsSystem(box, branches, weights=weights, phi=phi, name=name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_ifs(path) -> IfsSystem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read definition file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read definition file {path!r}: not UTF-8 text "
                          f"(byte {exc.object[exc.start]:#04x} at offset {exc.start})") from None
    return parse_ifs(text)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_nested(arr) -> str:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        return "[" + ", ".join(_fmt(v) for v in arr) + "]"
    return "[" + ", ".join(_fmt_nested(row) for row in arr) + "]"


def export_ifs(system: IfsSystem, phi_name: str, domains=None) -> str:
    """Definition-file text that parses back to an identical system."""
    out = io.StringIO()
    out.write("[system]\n")
    out.write(f"name = {system.name or phi_name}\n")
    out.write(f"dimension = {system.dimension}\n")
    out.write(f"box = {_fmt_nested(system.box.intervals)}\n")
    out.write(f"weights = {_fmt_nested(system.weights)}\n")
    out.write(f"phi = {phi_name}\n")
    for k, gamma in enumerate(system.branches, start=1):
        out.write(f"\n[branch.{k}]\n")
        out.write(f"linear = {_fmt_nested(gamma.linear)}\n")
        out.write(f"translation = {_fmt_nested(gamma.translation)}\n")
        if domains is not None:
            out.write(f"domain = {_fmt_nested(domains[k - 1])}\n")
    return out.getvalue()
