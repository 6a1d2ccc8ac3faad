"""Total-variation mixing profiles, mixing times, and maximal functions.

The worst-case distance ``d(t) = max_x ||P^t(x,.) - pi||_TV`` is computed
from dense powers of the kernel; the continuized analogue replaces ``P^t``
with ``exp(-t (I - P))``.  A discrete power is a product of the squares
``P^(2^j)`` kept in ``chain.squares``, each built once with its rows
renormalized to sum to 1; only nonnegative matrices are multiplied, so d
holds at any min pi.  Every discrete mixing time comes from one rule,
``mixing_times``: a descent over the squares below the certified ceiling
``t_rel* (-log eps - log min pi)`` (Levin-Peres-Wilmer, Thm 12.4), where
t_rel* is the absolute relaxation time; continuized times are bisected
from the same ceiling with the relaxation time of ``I - P``.
The running-maximum operator along even times,
``f*(x) = sup_k |P^{2k} f(x)|``, is evaluated to a certified truncation
horizon fixed from the spectral tail envelope before stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .chain import Chain, write_csv_atomic

__all__ = [
    "worst_tv",
    "mixing_profile",
    "mixing_time",
    "MixingProfile",
    "maximal_function",
    "MaximalFunctionResult",
]


def _tv_rows(M: np.ndarray, pi: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(M - pi[None, :]).sum(axis=1)


def _square(chain: Chain, j: int) -> np.ndarray:
    """``P^(2^j)``, kept in ``chain.squares`` with every square below it."""
    squares = chain.squares
    if not squares:
        squares.append(np.asarray(chain.P, dtype=float))
    while len(squares) <= j:
        S = squares[-1] @ squares[-1]
        squares.append(S / S.sum(axis=1, keepdims=True))
    return squares[j]


def _power(chain: Chain, t: int) -> np.ndarray:
    """Dense ``P^t``, the product of the squares of t's bits, low to high."""
    bits = [_square(chain, j) for j in range(t.bit_length()) if t >> j & 1]
    return reduce(np.matmul, bits) if bits else np.eye(chain.n)


def worst_tv(chain: Chain, t, continuous: bool = False) -> tuple[float, int]:
    """Worst-start TV distance at time ``t`` and the maximizing state.

    Ties go to the lowest state index.  With ``continuous=True``, ``t`` may
    be any nonnegative real and the continuized kernel is used.
    """
    t = float(t) if continuous else int(t)
    if t < 0:
        raise ValueError("t must be >= 0")
    M = chain.spectrum.heat_matrix(t) if continuous else _power(chain, t)
    tv = _tv_rows(M, chain.pi)
    x = int(np.argmax(tv))
    return float(tv[x]), x


@dataclass(eq=False)
class MixingProfile:
    """Trajectory of d(t) with per-time worst starting states."""

    times: np.ndarray
    d: np.ndarray
    argmax_state: np.ndarray

    def hit_level(self, eps: float) -> int | None:
        """First recorded time with d(t) <= eps, or None if never reached."""
        idx = np.nonzero(self.d <= eps + 1e-12)[0]
        if idx.size == 0:
            return None
        return int(self.times[idx[0]])

    def write_csv(self, path: str) -> None:
        write_csv_atomic(path, ["t", "d", "argmax_state"],
                         ([int(t), repr(float(d)), int(x)]
                          for t, d, x in zip(self.times, self.d, self.argmax_state)))


class _TailScan:
    """One non-increasing sequence, t = 0, 1, ..., drawn from its iterator
    only as far as a caller has asked, each step taken once and kept."""

    def __init__(self, steps):
        self._steps = steps
        self.values: list[float] = []

    def at(self, t: int) -> float:
        while len(self.values) <= t:
            self.values.append(next(self._steps))
        return self.values[t]

    def first_below(self, eps: float, t_max: int) -> int:
        """Smallest t with value <= eps (to 1e-12); raises past ``t_max``."""
        for t in range(t_max + 1):
            if self.at(t) <= eps + 1e-12:
                return t
        raise RuntimeError(f"scan stayed above {eps} through t = {t_max}")


def _tv_steps(chain: Chain):
    """Yield the per-start TV distances of ``P^t`` for t = 0, 1, ..., from
    iterated dense products ``M <- M P``."""
    M = np.eye(chain.n)
    while True:
        yield _tv_rows(M, chain.pi)
        M = M @ chain.P


def mixing_profile(chain: Chain, t_max: int | None = None,
                   eps_floor: float | None = None) -> MixingProfile:
    """d(t) for t = 0, 1, ... by iterated dense multiplication.

    Stops at ``t_max`` if given, otherwise once d drops to ``eps_floor``
    (default 1/1024).  d(t) is non-increasing, so the scan is safe to cut.
    """
    if t_max is not None and t_max < 0:
        raise ValueError("t_max must be >= 0")
    if t_max is None and eps_floor is None:
        eps_floor = 1.0 / 1024.0
    d, argmax = [], []
    for t, tv in enumerate(_tv_steps(chain)):
        argmax.append(int(np.argmax(tv)))
        d.append(float(tv[argmax[-1]]))
        if (t_max is not None and t >= t_max) or (eps_floor is not None and d[-1] <= eps_floor):
            break
        if t > 10_000_000:
            raise RuntimeError("mixing profile scan failed to terminate")
    return MixingProfile(times=np.arange(len(d)), d=np.array(d), argmax_state=np.array(argmax))


def _d_continuous(chain: Chain, t: float) -> float:
    M = chain.spectrum.heat_matrix(t)
    return float(_tv_rows(M, chain.pi).max())


def _ceiling(chain: Chain, eps: float, continuous: bool = False) -> float:
    """Certified bound ``t_rel* (-log eps - log min pi)`` on t_mix(eps).

    ``d(t) <= exp(-t / t_rel*) / min pi`` with ``t_rel*`` the absolute
    relaxation time in discrete time and ``1 / gap`` of ``I - P`` in
    continuized time.  The sum of logs stays finite for subnormal min pi.
    """
    spectrum = chain.spectrum
    t_rel = spectrum.t_rel if continuous else spectrum.t_rel_absolute
    return t_rel * (-math.log(eps) - math.log(chain.pi.min()))


def _bisect_monotone(f, level: float, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Bracket the crossing of a non-increasing f below ``level``.

    Returns (lo, hi) with f(hi) <= level < f(lo) (unless lo == 0 already
    crosses) and hi - lo <= tol.
    """
    if f(lo) <= level:
        return lo, lo
    while f(hi) > level:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket monotone crossing")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= level:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _mixing_time_ct_interval(chain: Chain, eps: float) -> tuple[float, float]:
    tol = 1e-3 * max(chain.spectrum.t_rel, 1e-9)
    hi0 = max(1.0, _ceiling(chain, eps, continuous=True))
    return _bisect_monotone(lambda t: _d_continuous(chain, t), eps, 0.0, hi0, tol)


def mixing_times(chain: Chain, levels) -> list[int]:
    """Smallest t with d(t) <= eps + 1e-12 for each eps in ``levels``.

    Levels must lie in (0, 1).  From ``M = P^t``, t = 0, each level walks j
    down from its highest square and takes ``M <- M P^(2^j)`` while
    ``t + 2^j`` stays within its certified ceiling and d there stays above
    the level; a d still above it at the ceiling raises ``RuntimeError``.
    The squares are kept on the chain, at most ``ceil(log2 ceiling) + 1``.
    """
    if not all(0 < e < 1 for e in levels):
        raise ValueError("eps must be in (0, 1)")
    d0 = 1.0 - float(chain.pi.min())
    times = []
    for eps in levels:
        t_max, t, M = math.ceil(_ceiling(chain, eps)), 0, None  # M = P^t, I as None
        for j in reversed(range(t_max.bit_length())):
            if t + (1 << j) <= t_max:
                step = _square(chain, j) if M is None else M @ _square(chain, j)
                if _tv_rows(step, chain.pi).max() > eps + 1e-12:
                    t, M = t + (1 << j), step
        if t == t_max:
            raise RuntimeError(f"scan stayed above {eps} through t = {t_max}")
        times.append(t + 1 if d0 > eps + 1e-12 else 0)
    return times


def mixing_time(chain: Chain, eps: float, continuous: bool = False) -> int | float:
    """Smallest t with d(t) <= eps; real-valued in the continuized case.

    Discrete times come from ``mixing_times``, a descent over the squares
    ``P^(2^j)`` kept on the chain below the certified ceiling
    ``t_rel_absolute * (-log eps - log min pi)``.  The continuized time is
    bisected from the ceiling with ``t_rel`` to a 1e-3 * t_rel resolution;
    the value returned is the certified upper end of the final bracket.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if continuous:
        return _mixing_time_ct_interval(chain, eps)[1]
    return mixing_times(chain, (eps,))[0]


@dataclass(eq=False)
class MaximalFunctionResult:
    """Running maxima of |P^{2k} f|.

    ``values[x]`` is the maximum over even powers up to the truncation
    horizon; the true supremum exceeds it by at most ``2 * tail_bound``.
    For a block of functions every field gains a leading axis, one row
    per function.
    """

    values: np.ndarray
    truncation_k: int | np.ndarray
    tail_bound: float | np.ndarray


def _horizon(rate: float, norm: float, scale: float) -> int:
    """First k with ``rate^(2k) * norm * scale <= 1e-12``, guessed from logs
    and settled on that float expression; 1,000,001 past 1,000,000."""
    def above(k):
        return rate ** (2 * k) * norm * scale > 1e-12

    if not above(0):
        return 0
    k = 1 if rate == 0.0 else min(
        math.ceil(math.log(1e-12 / (norm * scale)) / (2.0 * math.log(rate))), 1_000_001)
    while k > 1 and not above(k - 1):
        k -= 1
    while k <= 1_000_000 and above(k):
        k += 1
    return k


def maximal_function(chain: Chain, f: np.ndarray) -> MaximalFunctionResult:
    """Evaluate f*(x) = sup_k |P^{2k} f(x)| with a certified truncation.

    With ``rate = max(lambda_2, |lambda_min|)`` the tail of the supremum
    beyond horizon K is pinned inside
    ``|E_pi f| +/- rate^{2K} ||f - E_pi f||_2 / sqrt(min pi)``.  Each
    horizon, the first K where that envelope is at most 1e-12, is fixed
    before any step; one past 1,000,000 raises ``RuntimeError``, and a
    non-finite f or envelope raises ``ValueError``.

    ``f`` may also be a k x n block of functions: the columns of one n x k
    matrix, stepped by the kept square ``P^2`` of ``chain.squares`` up to
    the largest horizon, each column's running maximum stopping at its
    own.  Row i of the result has the ``truncation_k`` and ``tail_bound``
    of the call on ``f[i]`` and its values up to rounding.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != chain.n:
        raise ValueError("f must be a state function or a k x n block of them")
    spectrum = chain.spectrum
    rate = min(max(spectrum.lambda_2, abs(spectrum.lambda_min), 0.0), 1.0 - 1e-15)
    pi = chain.pi
    rows = f.reshape(-1, chain.n)
    scale = 1.0 / math.sqrt(float(pi.min()))
    norms = [math.sqrt(float(pi @ (row - float(pi @ row)) ** 2)) for row in rows]
    if not (np.isfinite(rows).all() and all(math.isfinite(v * scale) for v in norms)):
        raise ValueError("f must be finite, with a finite deviation envelope")
    truncation_k = np.array([_horizon(rate, v, scale) for v in norms], dtype=int)
    K = int(truncation_k.max(initial=0))
    if K > 1_000_000:
        raise RuntimeError("maximal function not certified within 2,000,000 steps")
    tail_bound = np.array([rate ** (2 * k) * v * scale
                           for k, v in zip(truncation_k.tolist(), norms)])

    G = rows.T.copy()
    run = np.abs(G)
    for k in range(1, K + 1):
        G = _square(chain, 1) @ G
        np.maximum(run, np.abs(G), out=run, where=truncation_k >= k)
    if f.ndim == 1:
        return MaximalFunctionResult(values=run[:, 0], truncation_k=int(truncation_k[0]),
                                     tail_bound=float(tail_bound[0]))
    return MaximalFunctionResult(values=run.T.copy(), truncation_k=truncation_k,
                                 tail_bound=tail_bound)
