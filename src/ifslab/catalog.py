"""Built-in example systems.

Each entry is an affine system and the name of its expanding map.  Their
geometric facts (coincidence and value sets, the open set condition, the
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


def tent(x: np.ndarray) -> np.ndarray:
    """Full tent on [0,1]: doubling with a fold at 1/2."""
    return np.where(x <= 0.5, 2.0 * x, 2.0 - 2.0 * x)


def zigzag(x: np.ndarray) -> np.ndarray:
    """Three-branch sawtooth on [0,1] with folds at 1/3 and 2/3."""
    return np.where(x <= 1.0 / 3.0, 3.0 * x,
                    np.where(x <= 2.0 / 3.0, -3.0 * x + 2.0, 3.0 * x - 2.0))


def _phi_tent_square(points: np.ndarray) -> np.ndarray:
    return np.stack([tent(points[:, 0]), tent(points[:, 1])], axis=1)


def _phi_tent_sigma(points: np.ndarray) -> np.ndarray:
    return np.stack([tent(points[:, 0]), zigzag(points[:, 1])], axis=1)


def _phi_tent_1d(points: np.ndarray) -> np.ndarray:
    return tent(points[:, 0])[:, None]


def _phi_sigma_1d(points: np.ndarray) -> np.ndarray:
    return zigzag(points[:, 0])[:, None]


def _phi_overlap_bad(points: np.ndarray) -> np.ndarray:
    # First-match piecewise inverse; none exists where the box images
    # [0, 0.5] and [0.3, 0.8] overlap (those of K = [0, 0.6] meet at 0.3
    # alone), and the tail past 0.8 is clipped back to keep the map total.
    x = points[:, 0]
    out = np.where(x <= 0.5, 2.0 * x, np.clip(2.0 * x - 0.6, 0.0, 1.0))
    return out[:, None]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    system: IfsSystem
    phi_name: str


def _tent_square() -> CatalogEntry:
    branches = (
        _branch_2d(0.5, 0.0, 0.5, 0.0),
        _branch_2d(0.5, 0.0, -0.5, 1.0),
        _branch_2d(-0.5, 1.0, 0.5, 0.0),
        _branch_2d(-0.5, 1.0, -0.5, 1.0),
    )
    system = IfsSystem(UNIT_SQUARE, branches, phi=_phi_tent_square, name="tent_square")
    return CatalogEntry("tent_square", system, "tent_square")


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
    system = IfsSystem(UNIT_SQUARE, branches, phi=_phi_tent_sigma, name="tent_sigma")
    return CatalogEntry("tent_sigma", system, "tent_sigma")


def _tent_1d() -> CatalogEntry:
    branches = (_branch_1d(0.5, 0.0), _branch_1d(-0.5, 1.0))
    system = IfsSystem(UNIT_INTERVAL, branches, phi=_phi_tent_1d, name="tent_1d")
    return CatalogEntry("tent_1d", system, "tent_1d")


def _sigma_1d() -> CatalogEntry:
    third = 1.0 / 3.0
    branches = (_branch_1d(third, 0.0), _branch_1d(-third, 2 * third), _branch_1d(third, 2 * third))
    system = IfsSystem(UNIT_INTERVAL, branches, phi=_phi_sigma_1d, name="sigma_1d")
    return CatalogEntry("sigma_1d", system, "sigma_1d")


def _overlap_bad() -> CatalogEntry:
    branches = (_branch_1d(0.5, 0.0), _branch_1d(0.5, 0.3))
    system = IfsSystem(UNIT_INTERVAL, branches, phi=_phi_overlap_bad, name="overlap_bad")
    return CatalogEntry("overlap_bad", system, "overlap_bad")


_BUILDERS = {
    "tent_square": _tent_square,
    "tent_sigma": _tent_sigma,
    "tent_1d": _tent_1d,
    "sigma_1d": _sigma_1d,
    "overlap_bad": _overlap_bad,
}

PHI_EVALUATORS = {
    "tent_square": _phi_tent_square,
    "tent_sigma": _phi_tent_sigma,
    "tent_1d": _phi_tent_1d,
    "sigma_1d": _phi_sigma_1d,
    "overlap_bad": _phi_overlap_bad,
}


def catalog() -> list[CatalogEntry]:
    return [build() for build in _BUILDERS.values()]


def get(name: str) -> CatalogEntry:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown catalog system {name!r}; "
                       f"choices: {', '.join(sorted(_BUILDERS))}") from None
