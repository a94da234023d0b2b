import functools

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def marginal_row_builds(monkeypatch):
    """A list that gains one entry each time a WignerTable builds its
    _marginal_rows, for the duration of one test."""
    from mubwigner.wigner import WignerTable

    builds = []
    build = WignerTable.__dict__["_marginal_rows"].func
    counted = functools.cached_property(lambda wt: builds.append(1) or build(wt))
    counted.__set_name__(WignerTable, "_marginal_rows")
    monkeypatch.setattr(WignerTable, "_marginal_rows", counted)
    return builds


def random_hermitian(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


SIGMA = {
    "I": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
