"""Monte Carlo cross-checks for the exact solvers.

All sampling is driven by a counter-based bit generator (Philox), with one
64-bit word consumed per uniform, and one walker, ``_walk``, steps every
path (of :func:`simulate_hitting` and of ``sbd``'s staged walks) and reads
it in one layout: rounds of R = min(64, t) steps for a horizon t (R = 64
for walks without one), path ``p`` of a run of ``paths`` reading round
``r`` as the doubles ``[(r*paths + p)*R, (r*paths + p + 1)*R)`` of the
stream keyed by ``seed``.  Results are therefore reproducible bit for bit
from ``(seed, paths)`` alone, and chunked evaluation matches a single
monolithic draw.  Paths are simulated ``_CHUNK_PATHS`` at a time, so no
block holds more than 2^20 doubles whatever the horizon, finished paths
are dropped from the step, and a chunk draws no further round once all its
paths have stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import Chain
from .hitting import _target_mask

_CHUNK_PATHS = 16_384
_ROUND_STEPS = 64
MIN_PATHS = 1_000


@dataclass(frozen=True)
class MCEstimate:
    """A simulation estimate together with its standard error."""

    value: float
    standard_error: float
    paths: int
    seed: int
    note: str = ""


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


def _round_block(seed: int, paths: int, lo: int, hi: int, rnd: int, steps: int) -> np.ndarray:
    """The uniforms of round ``rnd`` for paths ``lo .. hi-1`` of a run of
    ``paths``, one row of ``steps`` doubles per path: path p reads
    ``[(rnd*paths + p)*steps, (rnd*paths + p + 1)*steps)``."""
    return uniform_block(seed, (rnd * paths + lo) * steps, (hi - lo, steps))


class _StepTable(NamedTuple):
    """The inverse-CDF step of a chain, on its n x n cumulative cells.

    ``cells`` holds the cumulative transition rows flat, row s at
    ``s*n .. s*n + n - 1``, except that the cells from row s's last
    positive entry on read 2.0, above every uniform.  ``skip[k]`` is the
    flat index of the first later cell of cell k's row with a larger
    value, so one hop crosses a run of tied cells.  ``guide[s, b]`` is the
    flat index of the first cell of row s above b/m, where m, the number
    of buckets per row, is the power of two at or above n: u*m and b/m
    are then exact doubles, and the bucket floor(u*m) of a uniform u starts
    at a cell no further right than the answer.
    """

    cells: np.ndarray
    skip: np.ndarray
    guide: np.ndarray


def _step_table(chain: Chain) -> _StepTable:
    """The step table of ``chain``.

    A row may sum to a little less than 1 in double precision; the mass
    between its rounded total and 1 then goes to the row's last state of
    positive probability, never to a state it cannot reach or to n."""
    n = chain.n
    cum = np.cumsum(chain.P, axis=1)
    last = n - 1 - np.argmax(chain.P[:, ::-1] > 0, axis=1)
    cum[np.arange(n) >= last[:, None]] = 2.0
    offset = n * np.arange(n)[:, None]
    # cell k ends its run of ties where the next cell differs; the last
    # cell's run ends the row
    ends = np.where(np.diff(cum, axis=1, append=np.inf) != 0, np.arange(1, n + 1), n)
    skip = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1] + offset
    # cell c lies at or below b/m exactly for the buckets b >= ceil(c*m)
    m = 1 << (n - 1).bit_length()
    first = np.minimum(np.ceil(cum * m), m).astype(np.int64) + (m + 1) * np.arange(n)[:, None]
    counts = np.bincount(first.ravel(), minlength=n * (m + 1)).reshape(n, m + 1)
    guide = np.cumsum(counts[:, :m], axis=1) + offset
    return _StepTable(cum.ravel(), skip.ravel(), guide)


def _step_states(states: np.ndarray, u: np.ndarray, table: _StepTable) -> np.ndarray:
    # Inverse-CDF step: the next state is the number of cumulative cells of
    # row s at or below u.  The walk starts at the guide of u's bucket,
    # which counts cells at or below the bucket's floor b/m <= u, and hops
    # over runs of tied cells while the cell it stands on is <= u; a
    # bucket holds n/m <= 1 cells on average, so a step costs O(1) expected
    # comparisons, and every comparison is exact.
    cells, skip, guide = table
    n, m = guide.shape
    # a u at or above 1 (never a uniform) starts in the last bucket
    k = guide.ravel()[states * m + np.minimum((u * m).astype(np.int64), m - 1)]
    moving = np.flatnonzero(cells[k] <= u)
    while moving.size:
        k[moving] = skip[k[moving]]
        moving = moving[cells[k[moving]] <= u[moving]]
    return k - states * n


def _walk(chain: Chain, start: int, paths: int, seed: int, keep,
          horizon: int | None = None, t_cap: int | None = None) -> int:
    """Walk ``paths`` copies of ``chain`` from ``start``; return how many
    still walk at ``horizon``.  At t = 0 and after each step,
    ``keep(lo, t, rows, states)`` answers which live paths ``lo + rows`` of
    the chunk at ``lo`` walk on.  Raises ``ValueError`` for a seed outside
    the Philox key range, before any draw, and ``RuntimeError`` when a path
    would step past ``t_cap``.
    """
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 1 << 128):
        raise ValueError("seed must be an integer in [0, 2**128)")
    table = _step_table(chain)
    steps = _ROUND_STEPS if horizon is None else min(_ROUND_STEPS, horizon)
    walking = 0
    for lo in range(0, paths, _CHUNK_PATHS):
        hi = min(lo + _CHUNK_PATHS, paths)
        # the live paths, kept compacted: their rows of the round's block
        # and their states
        rows = np.arange(hi - lo)
        states = np.full(hi - lo, start, dtype=np.int64)
        t = 0
        while True:
            live = keep(lo, t, rows, states)
            rows, states = rows[live], states[live]
            if not rows.size or t == horizon:
                break
            if t_cap is not None and t >= t_cap:
                raise RuntimeError(f"simulation cap of {t_cap} steps reached")
            rnd, h = divmod(t, steps)
            if not h:
                u = _round_block(seed, paths, lo, hi, rnd, steps)
            states = _step_states(states, u[rows, h], table)
            t += 1
        walking += rows.size
    return walking


def simulate_hitting(chain: Chain, start: int, A, t: int, paths: int,
                     seed: int) -> MCEstimate:
    """Estimate ``Pr_start[T_A > t]`` by direct path simulation.

    The estimator is the plain survival frequency, hence unbiased with
    standard error ``sqrt(p(1-p)/paths)``.  A start inside the target set
    gives exactly zero (the hitting time is zero surely), and t = 0 from
    outside it exactly one, with no random numbers consumed.
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
    survived = _walk(chain, start, paths, seed,
                     lambda lo, step, rows, states: ~members[states], horizon=t)
    note = ("start lies in the target set, so T_A = 0 surely" if members[start] else
            "T_A >= 1 from any start outside the target set" if t == 0 else
            "unbiased survival frequency")
    p_hat = survived / paths
    se = math.sqrt(p_hat * (1.0 - p_hat) / paths)
    return MCEstimate(value=p_hat, standard_error=se, paths=paths, seed=seed, note=note)
