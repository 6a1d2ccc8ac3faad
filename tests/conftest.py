import math
from typing import NamedTuple

import numpy as np
import pytest

from cutofflab import load_chain, random_corpus


@pytest.fixture(scope="session")
def k2():
    """Two-state lazy symmetric chain; everything about it is closed-form."""
    return load_chain(np.array([[0.75, 0.25], [0.25, 0.75]]))


@pytest.fixture(scope="session")
def p3():
    """Lazy simple random walk on the 3-path.

    pi = (1/4, 1/2, 1/4), eigenvalues (1, 1/2, 0); the end-to-center
    crossing is geometric with success probability 1/2.
    """
    P = np.array([
        [0.5, 0.5, 0.0],
        [0.25, 0.5, 0.25],
        [0.0, 0.5, 0.5],
    ])
    return load_chain(P)


@pytest.fixture(scope="session")
def small_corpus():
    """A handful of random reversible lazy chains shared across tests."""
    return random_corpus(6, seed=20260815)


class GoodSet(NamedTuple):
    members: np.ndarray
    measure: float


def _good_set(chain, A, s: int, m: float) -> GoodSet:
    """States y with ``|Pr_y[X_k in A] - pi(A)| < m sigma_s`` for all k >= s,
    where ``sigma_s = exp(-s/t_rel) sqrt(pi(A)(1-pi(A)))``, by iterating
    P on the indicator of A.  The scan runs to the first horizon where the
    spectral envelope ``exp(-k/t_rel) sqrt(pi(A)(1-pi(A))) / sqrt(min pi)``
    falls strictly below the threshold, after which no state can violate.
    """
    chain.require(reversible=True, lazy=True)
    mask = np.zeros(chain.n, dtype=bool)
    mask[A] = True
    pa = float(chain.pi[mask].sum())
    t_rel = chain.spectrum.t_rel
    threshold = m * (math.exp(-s / t_rel) * math.sqrt(pa * (1.0 - pa)))
    log_ratio = -math.log(m) - 0.5 * math.log(chain.pi.min())
    horizon = s + (math.ceil(t_rel * log_ratio) if log_ratio > 0.0 else 0) + 1
    g = mask.astype(float)
    ok = np.ones(chain.n, dtype=bool)
    for k in range(horizon + 1):
        if k >= s:
            ok &= np.abs(g - pa) < threshold
        g = chain.P @ g
    return GoodSet(members=ok, measure=float(chain.pi[ok].sum()))


@pytest.fixture(scope="session")
def good_set():
    """The dense-iteration reference of the good-set suite, which batches
    membership spectrally: ``good_set(chain, A, s, m)`` is the deviation-
    controlled set of the lazy chain at scale m, with its measure."""
    return _good_set
