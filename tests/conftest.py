import math
from typing import NamedTuple

import numpy as np
import pytest

from cutofflab import ChainSpec, load_chain, random_corpus


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
def two_state():
    """(chain, a) for P = [[1 - a, a], [1/2, 1/2]] with a = 1e-35 and
    pi = (1, 2a) / (1 + 2a): from state 1 the distance is pi(0) (1/2 - a)^t,
    and pi(0) e^{-(a + 1/2) t} in continuized time, far below the rounding
    of the row's large entry."""
    a = 1e-35
    P = np.array([[1.0 - a, a], [0.5, 0.5]])
    return load_chain(ChainSpec(P=P, pi=np.array([1.0, 2.0 * a]) / (1.0 + 2.0 * a))), a


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


def _spectral_heat(chain, t: float) -> np.ndarray:
    """``exp(-t (I - P))`` from the spectral sum over the chain's
    eigensystem.  Its rounding grows like 1 / sqrt(min pi), so it is an
    oracle for small chains (n <= 14) only."""
    assert chain.n <= 14, "the spectral heat kernel is an oracle for n <= 14"
    spectrum = chain.spectrum
    F = spectrum.eigenfunctions
    return (F * np.exp(-(1.0 - spectrum.eigenvalues) * t)) @ (F.T * chain.pi)


def _poisson_heat(chain, ts, sd: float = 9.0) -> list[np.ndarray]:
    """``sum_k Pois(t; k) P^k`` for each t in ``ts``, over the k within
    ``sd`` standard deviations of every t: an explicit Poisson mixture of
    the discrete kernel (Levin-Peres-Wilmer, Sec. 20.1), for any n and
    t > 0."""
    lo, hi = min(ts), max(ts)
    k0 = max(0, int(lo - sd * math.sqrt(lo) - 10))
    k1 = int(hi + sd * math.sqrt(hi) + 10)
    M = np.linalg.matrix_power(chain.P, k0)
    out = [np.zeros((chain.n, chain.n)) for _ in ts]
    for k in range(k0, k1 + 1):
        for H, t in zip(out, ts):
            H += math.exp(-t + k * math.log(t) - math.lgamma(k + 1)) * M
        M = M @ chain.P
    return out


@pytest.fixture(scope="session")
def d_ct():
    """The continuized worst-start distance from an independent kernel:
    ``d_ct(chain, ts)`` lists ``max_x ||H(t)(x, .) - pi||_TV`` for each t,
    from the spectral sum for n <= 14 and the Poisson mixture above."""
    def d(chain, ts):
        kernels = ([_spectral_heat(chain, t) for t in ts] if chain.n <= 14
                   else _poisson_heat(chain, ts))
        return [float(0.5 * np.abs(H - chain.pi).sum(axis=1).max()) for H in kernels]

    return d
