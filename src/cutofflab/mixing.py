"""Total-variation mixing profiles, mixing times, and maximal functions.

The worst-case distance ``d(t) = max_x ||P^t(x,.) - pi||_TV`` is computed
from dense powers of the kernel, products of the squares ``P^(2^j)`` kept
in ``chain.squares``; the continuized kernel
``H(t) = e^{-t} sum_k t^k P^k / k!`` is a product of the squares
``H(2^j h)`` kept in ``chain.heat_squares``, from its Taylor sum at the
step ``h = 2^-K <= 1e-3 t_rel``.  Each square is built once with its rows
renormalized to sum to 1; only nonnegative matrices are added and
multiplied, so d holds at any min pi.  Every crossing time is one descent
over kept squares, ``_descend``, below a certified ceiling: for mixing
times ``t_rel* (-log eps - log min pi)`` (Levin-Peres-Wilmer, Thm 12.4),
t_rel* the absolute relaxation time, or that of ``I - P`` in continuized
time, where the crossing is located to a bracket of width h.
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
    """``||M(x,.) - pi||_TV`` for each row x of a stochastic M.  The sums of
    the positive and the negative parts of ``M(x,.) - pi`` agree in exact
    arithmetic; each row keeps the side whose sum of ``M + pi``, a bound on
    its rounding, is at most 1 of their total 2, so a tiny d is read from
    small entries."""
    D = M - pi
    plus = np.maximum(D, 0.0)
    up = plus.sum(axis=-1)
    small_up = up + 2.0 * ((D > 0.0) @ pi) <= 1.0
    return np.where(small_up, up, (plus - D).sum(axis=-1))


def _heat(M: np.ndarray, h: float, stochastic: bool = True) -> np.ndarray:
    """``e^{-h} sum_k (h M)^k / k!`` for a (stack of) nonnegative M with row
    sums at most 1, summed to the first k with ``h^k / k! < 1e-17``, with
    rows renormalized to sum to 1 when ``stochastic``."""
    term = h * M
    total = np.eye(M.shape[-1]) + term
    k, bound = 1, h
    while bound >= 1e-17:
        k += 1
        bound *= h / k
        term = (term @ M) * (h / k)
        total += term
    if stochastic:
        return total / total.sum(axis=-1, keepdims=True)
    return total * math.exp(-h)


def _heat_step(chain: Chain) -> float:
    """h, the largest power of two at most ``min(1, 1e-3 t_rel)``."""
    return min(1.0, 2.0 ** (math.frexp(1e-3 * chain.spectrum.t_rel)[1] - 1))


def _square(squares: list, j: int, stochastic: bool = True) -> np.ndarray:
    """``squares[j]``, each kept square the square of the one before, its
    rows renormalized to sum to 1 when ``stochastic``."""
    while len(squares) <= j:
        S = squares[-1] @ squares[-1]
        squares.append(S / S.sum(axis=-1, keepdims=True) if stochastic else S)
    return squares[j]


def _squares(chain: Chain, continuous: bool = False) -> list:
    """``chain.squares``, or ``chain.heat_squares``, seeded on first use."""
    squares = chain.heat_squares if continuous else chain.squares
    if not squares:
        P = np.asarray(chain.P, dtype=float)
        squares.append(_heat(P, _heat_step(chain)) if continuous else P)
    return squares


def _power(chain: Chain, t, continuous: bool = False) -> np.ndarray:
    """Dense ``P^t``, or ``H(t)`` at a real t: ``H(t - q h)`` from the Taylor
    sum, then the kept squares of the bits of ``q = floor(t / h)``."""
    bits = []
    if continuous:
        q, rest = divmod(t, _heat_step(chain))
        t, bits = int(q), [_heat(chain.P, rest)] if rest else []
    squares = _squares(chain, continuous)
    bits += [_square(squares, j) for j in range(t.bit_length()) if t >> j & 1]
    return reduce(np.matmul, bits) if bits else np.eye(chain.n)


def worst_tv(chain: Chain, t, continuous: bool = False) -> tuple[float, int]:
    """Worst-start TV distance at time ``t`` and the maximizing state.

    Ties go to the lowest state index.  With ``continuous=True``, ``t`` may
    be any nonnegative real and the continuized kernel is used.  A
    negative or non-finite t raises ``ValueError``.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be >= 0 and finite; got {t!r}")
    M = _power(chain, float(t) if continuous else int(t), continuous)
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


def _ceiling(chain: Chain, eps: float, continuous: bool = False) -> float:
    """Certified bound ``t_rel* (-log eps - log min pi)`` on t_mix(eps).

    ``d(t) <= exp(-t / t_rel*) / min pi`` with ``t_rel*`` the absolute
    relaxation time in discrete time and ``1 / gap`` of ``I - P`` in
    continuized time.  The sum of logs stays finite for subnormal min pi.
    """
    spectrum = chain.spectrum
    t_rel = spectrum.t_rel if continuous else spectrum.t_rel_absolute
    return t_rel * (-math.log(eps) - math.log(chain.pi.min()))


def _descend(advance, value, level: float, t_max: int, start=None) -> int:
    """The last step t < t_max where a non-increasing ``value`` is above
    ``level`` + 1e-12: from t = 0 and ``start``, j walks down from the top
    bit of ``t_max``, taking ``state <- advance(state, j)`` (2^j steps on)
    while t + 2^j <= t_max and the value there stays above the level.  A
    value above it at ``t_max`` raises ``RuntimeError``."""
    t, state = 0, start
    for j in reversed(range(t_max.bit_length())):
        if t + (1 << j) <= t_max:
            step = advance(state, j)
            if value(step) > level + 1e-12:
                t, state = t + (1 << j), step
    if t == t_max:
        raise RuntimeError(f"scan stayed above {level} through t = {t_max}")
    return t


def mixing_times(chain: Chain, levels, continuous: bool = False) -> list:
    """Smallest t with d(t) <= eps + 1e-12 for each eps in ``levels``.

    Levels must lie in (0, 1).  Each level descends (:func:`_descend`)
    from ``M = P^0`` over the kept squares below its certified ceiling,
    taking ``M <- M P^(2^j)`` while d stays above the level.  With
    ``continuous`` it descends the squares ``H(2^j h)`` in steps of h and
    gives the bracket ``(lo, hi)`` with ``d(lo) > eps >= d(hi)`` and
    ``hi - lo = h``; ``(0, 0)`` when ``d(0) <= eps``.
    """
    if not all(0 < e < 1 for e in levels):
        raise ValueError("eps must be in (0, 1)")
    squares = _squares(chain, continuous)
    h = _heat_step(chain) if continuous else 1
    d0 = 1.0 - float(chain.pi.min())

    def advance(M, j):  # M = P^t or H(t h), the identity as None
        return _square(squares, j) if M is None else M @ _square(squares, j)

    times = []
    for eps in levels:
        t = _descend(advance, lambda M: _tv_rows(M, chain.pi).max(), eps,
                     math.ceil(_ceiling(chain, eps, continuous) / h))
        if continuous:
            times.append((t * h, (t + 1) * h) if d0 > eps + 1e-12 else (0.0, 0.0))
        else:
            times.append(t + 1 if d0 > eps + 1e-12 else 0)
    return times


def mixing_time(chain: Chain, eps: float, continuous: bool = False) -> int | float:
    """Smallest t with d(t) <= eps; real-valued in the continuized case.

    Both come from ``mixing_times``; the continuized value is the certified
    upper end of its bracket of width ``h <= 1e-3 * t_rel``.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    time = mixing_times(chain, (eps,), continuous)[0]
    return time[1] if continuous else time


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
        G = _square(_squares(chain), 1) @ G
        np.maximum(run, np.abs(G), out=run, where=truncation_k >= k)
    if f.ndim == 1:
        return MaximalFunctionResult(values=run[:, 0], truncation_k=int(truncation_k[0]),
                                     tail_bound=float(tail_bound[0]))
    return MaximalFunctionResult(values=run.T.copy(), truncation_k=truncation_k,
                                 tail_bound=tail_bound)
