"""Shared random-instance builders and fixtures for the test suite.

``random_density`` and ``random_scenario`` are the package's own builders,
the ones the lemma suite draws from.
"""

import numpy as np
import pytest

from illume import oracle, run_lemma_suite, run_oracle_suite
from illume.oracle import random_density, random_scenario  # noqa: F401


@pytest.fixture(scope="session")
def lemma_suite_2026():
    """The 10^4-trial lemma suite at seed 2026, run once for all tests that read it."""
    return run_lemma_suite(seed=2026, trials=10_000)


@pytest.fixture
def search_budget(monkeypatch):
    """Sets the oracle's restart count and iteration cap for one test: ``search_budget(6, 600)``.

    The library always searches with the ``RESTARTS`` x ``STEPS_PER_RESTART``
    budget the oracle suite validates; a test that needs no optimum runs a
    smaller search to keep its run time, and a test of the cap a tiny one.
    """

    def set_budget(restarts: int, steps: int = oracle.STEPS_PER_RESTART):
        monkeypatch.setattr(oracle, "RESTARTS", restarts)
        monkeypatch.setattr(oracle, "STEPS_PER_RESTART", steps)

    return set_budget


@pytest.fixture(scope="session")
def oracle_suite_7():
    """The default-config oracle suite at seed 7, run once for all tests that read it."""
    return run_oracle_suite(seed=7)


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_unitary(rng, dim):
    # eigenbasis of a random Hermitian matrix is Haar-like and exactly unitary
    return np.linalg.eigh(random_hermitian(rng, dim))[1][:, ::-1]


def random_spectrum(rng, dim):
    lam = rng.exponential(size=dim)
    lam /= lam.sum()
    return np.sort(lam)[::-1]
