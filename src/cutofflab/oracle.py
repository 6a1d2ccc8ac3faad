"""Monte Carlo cross-checks for the exact solvers.

All sampling is driven by a counter-based bit generator (Philox), with one
64-bit word consumed per uniform.  Path ``p`` of a run with horizon ``t``
reads exactly the doubles ``[p*t, (p+1)*t)`` of the stream keyed by
``seed``, so results are reproducible bit for bit from ``(seed, paths)``
alone and chunked evaluation matches a single monolithic draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import Chain
from .hitting import _target_mask

_CHUNK_PATHS = 16_384
MIN_PATHS = 1_000


@dataclass(frozen=True)
class MCEstimate:
    """A simulation estimate together with its standard error."""

    value: float
    standard_error: float
    paths: int
    seed: int
    note: str = ""

    def interval(self, z: float = 4.0) -> tuple[float, float]:
        half = z * self.standard_error
        return (self.value - half, self.value + half)


def uniform_block(seed: int, offset: int, shape) -> np.ndarray:
    """Uniforms from the Philox stream for ``seed``, starting ``offset`` doubles in.

    ``Philox.advance`` moves the counter in blocks of four 64-bit outputs,
    so the offset is split into whole blocks plus a short in-block discard.
    """
    bits = np.random.Philox(key=seed)
    blocks, rem = divmod(offset, 4)
    bits.advance(blocks)
    gen = np.random.Generator(bits)
    if rem:
        gen.random(rem)
    return gen.random(shape)


def _step_table(chain: Chain) -> np.ndarray:
    """The cumulative transition rows as complex keys: entry (s, j) is
    s + i*cum[s, j], except that the cells from row s's last positive
    entry on are s + 2i, above every uniform.  NumPy orders complex numbers
    by real part, then by imaginary part, so the raveled table is sorted.

    A row may sum to a little less than 1 in double precision; the mass
    between its rounded total and 1 then goes to the row's last state of
    positive probability, never to a state it cannot reach or to n."""
    n = chain.n
    cum = np.cumsum(chain.P, axis=1)
    last = n - 1 - np.argmax(chain.P[:, ::-1] > 0, axis=1)
    cum[np.arange(n) >= last[:, None]] = 2.0
    return np.arange(n)[:, None] + 1j * cum


def _step_states(states: np.ndarray, u: np.ndarray, table: np.ndarray) -> np.ndarray:
    # Inverse-CDF step: the next state is the number of cumulative cells of
    # row s at or below u.  A row is non-decreasing, so that count is the
    # right insertion index of s + i*u in the table, less the n cells of
    # each earlier row; both keys are exact, so the step is too.
    n = table.shape[1]
    return np.searchsorted(table.ravel(), states + 1j * u, side="right") - states * n


def simulate_hitting(chain: Chain, start: int, A, t: int, paths: int,
                     seed: int) -> MCEstimate:
    """Estimate ``Pr_start[T_A > t]`` by direct path simulation.

    The estimator is the plain survival frequency, hence unbiased with
    standard error ``sqrt(p(1-p)/paths)``.  A start inside the target set
    gives exactly zero (the hitting time is zero surely), with no random
    numbers consumed.
    """
    members = _target_mask(chain, A)
    if paths < MIN_PATHS:
        raise ValueError(f"paths must be at least {MIN_PATHS}")
    t = int(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    start = int(start)
    if not 0 <= start < chain.n:
        raise ValueError("start state out of range")
    if members[start]:
        return MCEstimate(value=0.0, standard_error=0.0, paths=paths, seed=seed,
                          note="start lies in the target set, so T_A = 0 surely")
    if t == 0:
        return MCEstimate(value=1.0, standard_error=0.0, paths=paths, seed=seed,
                          note="T_A >= 1 from any start outside the target set")

    table = _step_table(chain)
    survived = 0
    for lo in range(0, paths, _CHUNK_PATHS):
        hi = min(lo + _CHUNK_PATHS, paths)
        u = uniform_block(seed, lo * t, (hi - lo, t))
        states = np.full(hi - lo, start, dtype=np.int64)
        alive = np.ones(hi - lo, dtype=bool)
        for step in range(t):
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            states[idx] = _step_states(states[idx], u[idx, step], table)
            alive[idx] = ~members[states[idx]]
        survived += int(alive.sum())
    p_hat = survived / paths
    se = math.sqrt(p_hat * (1.0 - p_hat) / paths)
    return MCEstimate(value=p_hat, standard_error=se, paths=paths, seed=seed,
                      note="unbiased survival frequency")


def simulate_tv_proxy(chain: Chain, x: int, t: int, paths: int,
                      seed: int) -> MCEstimate:
    """Plug-in estimate of ``||P^t(x, .) - pi||_TV`` from sampled endpoints.

    The empirical endpoint law is substituted into the TV formula, which
    biases the value upward by roughly ``sum_y sqrt(pi(y)/paths)``; treat it
    as a sanity proxy rather than a certified quantity.  The standard error
    is the delta-method value with the signs of ``nu - pi`` frozen.
    """
    if paths < MIN_PATHS:
        raise ValueError(f"paths must be at least {MIN_PATHS}")
    t = int(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = int(x)
    if not 0 <= x < chain.n:
        raise ValueError("start state out of range")

    table = _step_table(chain)
    counts = np.zeros(chain.n)
    for lo in range(0, paths, _CHUNK_PATHS):
        hi = min(lo + _CHUNK_PATHS, paths)
        u = uniform_block(seed, lo * t, (hi - lo, t))
        states = np.full(hi - lo, x, dtype=np.int64)
        for step in range(t):
            states = _step_states(states, u[:, step], table)
        counts += np.bincount(states, minlength=chain.n)
    nu = counts / paths
    tv = 0.5 * float(np.abs(nu - chain.pi).sum())
    signs = np.sign(nu - chain.pi)
    var = float((signs ** 2 * nu).sum() - (signs * nu).sum() ** 2)
    se = 0.5 * math.sqrt(max(var, 0.0) / paths)
    return MCEstimate(value=tv, standard_error=se, paths=paths, seed=seed,
                      note="plug-in TV estimate; biased upward at this path count")
