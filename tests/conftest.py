"""Shared random-instance builders and fixtures for the test suite.

``random_density`` and ``random_scenario`` are the package's own builders,
the ones the lemma suite draws from.
"""

import numpy as np
import pytest

from illume import eig, run_lemma_suite
from illume.oracle import random_density, random_scenario  # noqa: F401


@pytest.fixture(scope="session")
def lemma_suite_2026():
    """The 10^4-trial lemma suite at seed 2026, run once for all tests that read it."""
    return run_lemma_suite(seed=2026, trials=10_000)


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_unitary(rng, dim):
    # eigenbasis of a random Hermitian matrix is Haar-like and exactly unitary
    return eig(random_hermitian(rng, dim)).eigenvectors


def random_spectrum(rng, dim):
    lam = rng.exponential(size=dim)
    lam /= lam.sum()
    return np.sort(lam)[::-1]
