import numpy as np
import pytest

from ifslab import catalog


@pytest.fixture(scope="session")
def tent_square():
    return catalog.get("tent_square")


@pytest.fixture(scope="session")
def tent_sigma():
    return catalog.get("tent_sigma")


@pytest.fixture(scope="session")
def tent_1d():
    return catalog.get("tent_1d")


@pytest.fixture(scope="session")
def sigma_1d():
    return catalog.get("sigma_1d")


@pytest.fixture(scope="session")
def overlap_bad():
    return catalog.get("overlap_bad")


@pytest.fixture(scope="session")
def all_entries():
    return catalog.catalog()


def dense_gram_adjoint(matrix, dom_mass, cod_mass):
    """Adjoint solved from <T*g, f> = <g, T f> on the weighted spaces."""
    return np.diag(1.0 / dom_mass) @ np.asarray(matrix).conj().T @ np.diag(cod_mass)
