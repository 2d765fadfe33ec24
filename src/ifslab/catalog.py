"""Built-in example systems.

Each entry is an affine system under its name.  The expanding map is not
given: `geometry.verify_inverse_branches` derives it from the branches.
Their geometric facts (coincidence and value sets, the open set condition, the
attractor) are worked out by hand in the test suite and asserted there;
`verify` treats a catalog entry and a definition file alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import AffineContraction, AmbientBox, IfsSystem

UNIT_SQUARE = AmbientBox(np.array([[0.0, 1.0], [0.0, 1.0]]))
UNIT_INTERVAL = AmbientBox(np.array([[0.0, 1.0]]))


def _branch_1d(a: float, b: float) -> AffineContraction:
    return AffineContraction(np.array([[a]]), np.array([b]))


def _branch_2d(ax: float, bx: float, ay: float, by: float) -> AffineContraction:
    return AffineContraction(np.array([[ax, 0.0], [0.0, ay]]), np.array([bx, by]))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    system: IfsSystem

    @property
    def phi_name(self) -> str:
        """The entry's name, under which `export_ifs` writes its file twin."""
        return self.name


def _tent_square() -> CatalogEntry:
    branches = (
        _branch_2d(0.5, 0.0, 0.5, 0.0),
        _branch_2d(0.5, 0.0, -0.5, 1.0),
        _branch_2d(-0.5, 1.0, 0.5, 0.0),
        _branch_2d(-0.5, 1.0, -0.5, 1.0),
    )
    system = IfsSystem(UNIT_SQUARE, branches, name="tent_square")
    return CatalogEntry("tent_square", system)


def _tent_sigma() -> CatalogEntry:
    third = 1.0 / 3.0
    branches = (
        _branch_2d(0.5, 0.0, third, 0.0),
        _branch_2d(0.5, 0.0, -third, 2 * third),
        _branch_2d(0.5, 0.0, third, 2 * third),
        _branch_2d(-0.5, 1.0, third, 0.0),
        _branch_2d(-0.5, 1.0, -third, 2 * third),
        _branch_2d(-0.5, 1.0, third, 2 * third),
    )
    system = IfsSystem(UNIT_SQUARE, branches, name="tent_sigma")
    return CatalogEntry("tent_sigma", system)


def _tent_1d() -> CatalogEntry:
    branches = (_branch_1d(0.5, 0.0), _branch_1d(-0.5, 1.0))
    system = IfsSystem(UNIT_INTERVAL, branches, name="tent_1d")
    return CatalogEntry("tent_1d", system)


def _sigma_1d() -> CatalogEntry:
    third = 1.0 / 3.0
    branches = (_branch_1d(third, 0.0), _branch_1d(-third, 2 * third), _branch_1d(third, 2 * third))
    system = IfsSystem(UNIT_INTERVAL, branches, name="sigma_1d")
    return CatalogEntry("sigma_1d", system)


def _overlap_bad() -> CatalogEntry:
    branches = (_branch_1d(0.5, 0.0), _branch_1d(0.5, 0.3))
    system = IfsSystem(UNIT_INTERVAL, branches, name="overlap_bad")
    return CatalogEntry("overlap_bad", system)


_BUILDERS = {
    "tent_square": _tent_square,
    "tent_sigma": _tent_sigma,
    "tent_1d": _tent_1d,
    "sigma_1d": _sigma_1d,
    "overlap_bad": _overlap_bad,
}


def catalog() -> list[CatalogEntry]:
    return [build() for build in _BUILDERS.values()]


def get(name: str) -> CatalogEntry:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown catalog system {name!r}; "
                       f"choices: {', '.join(sorted(_BUILDERS))}") from None
