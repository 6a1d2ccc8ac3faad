"""Total-variation mixing profiles, mixing times, and maximal functions.

The worst-case distance ``d(t) = max_x ||P^t(x,.) - pi||_TV`` is computed
from dense powers of the kernel; the continuized analogue replaces ``P^t``
with ``exp(-t (I - P))``.  Mixing times are found by a forward scan when the
standard relaxation-time ceiling keeps the horizon small and by monotone
sandwich search otherwise.  The running-maximum operator along even times,
``f*(x) = sup_k |P^{2k} f(x)|``, is evaluated to a certified truncation
horizon using the spectral tail envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import Chain, write_csv_atomic

__all__ = [
    "tv_distance",
    "worst_tv",
    "mixing_profile",
    "mixing_time",
    "MixingProfile",
    "maximal_function",
    "MaximalFunctionResult",
]

#: forward scan is used while t_rel * ln(1/min pi) stays below this
SCAN_HORIZON_LIMIT = 1e4


def tv_distance(mu: np.ndarray, nu: np.ndarray) -> float:
    """Total variation distance, one half of the L1 difference."""
    mu = np.asarray(mu, float)
    nu = np.asarray(nu, float)
    if mu.shape != nu.shape:
        raise ValueError("distributions must have equal length")
    return 0.5 * float(np.abs(mu - nu).sum())


def _tv_rows(M: np.ndarray, pi: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(M - pi[None, :]).sum(axis=1)


def worst_tv(chain: Chain, t, continuous: bool = False) -> tuple[float, int]:
    """Worst-start TV distance at time ``t`` and the maximizing state.

    Ties go to the lowest state index.  With ``continuous=True``, ``t`` may
    be any nonnegative real and the continuized kernel is used.
    """
    if continuous:
        M = chain.spectrum.heat_matrix(float(t))
    else:
        t = int(t)
        if t < 0:
            raise ValueError("t must be >= 0")
        M = np.linalg.matrix_power(chain.P, t)
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


def mixing_profile(chain: Chain, t_max: int | None = None,
                   eps_floor: float | None = None) -> MixingProfile:
    """d(t) for t = 0, 1, ... by iterated dense multiplication.

    Stops at ``t_max`` if given, otherwise once d drops to ``eps_floor``
    (default 1/1024).  d(t) is non-increasing, so the scan is safe to cut.
    """
    if t_max is None and eps_floor is None:
        eps_floor = 1.0 / 1024.0
    pi = chain.pi
    M = np.eye(chain.n)
    times, ds, arg = [], [], []
    t = 0
    while True:
        tv = _tv_rows(M, pi)
        x = int(np.argmax(tv))
        times.append(t)
        ds.append(float(tv[x]))
        arg.append(x)
        if t_max is not None and t >= t_max:
            break
        if eps_floor is not None and tv[x] <= eps_floor:
            break
        if t > 10_000_000:
            raise RuntimeError("mixing profile scan failed to terminate")
        M = M @ chain.P
        t += 1
    return MixingProfile(times=np.array(times), d=np.array(ds), argmax_state=np.array(arg))


def _d_spectral(chain: Chain, t: int) -> float:
    M = chain.spectrum.transition_power(t)
    return float(_tv_rows(M, chain.pi).max())


def _d_continuous(chain: Chain, t: float) -> float:
    M = chain.spectrum.heat_matrix(t)
    return float(_tv_rows(M, chain.pi).max())


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
    t_rel = chain.spectrum.t_rel
    tol = 1e-3 * max(t_rel, 1e-9)
    hi0 = max(1.0, t_rel * math.log(1.0 / (eps * chain.pi.min())))
    return _bisect_monotone(lambda t: _d_continuous(chain, t), eps, 0.0, hi0, tol)


def mixing_time(chain: Chain, eps: float, continuous: bool = False) -> int | float:
    """Smallest t with d(t) <= eps; real-valued in the continuized case.

    Discrete chains are scanned forward step by step while the ceiling
    ``t_rel * ln(1/(eps min pi))`` stays modest, and otherwise located by
    monotone search on the spectral evaluation of d.  The continuized time
    is found by bisection to a 1e-3 * t_rel resolution (the value returned
    is the certified upper end of the final bracket).
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if continuous:
        return _mixing_time_ct_interval(chain, eps)[1]
    spectrum = chain.spectrum
    horizon = spectrum.t_rel * math.log(1.0 / chain.pi.min())
    if horizon <= SCAN_HORIZON_LIMIT:
        pi = chain.pi
        M = np.eye(chain.n)
        t = 0
        cap = int(spectrum.t_rel * math.log(1.0 / (eps * pi.min()))) + 8
        while True:
            if float(_tv_rows(M, pi).max()) <= eps + 1e-12:
                return t
            M = M @ chain.P
            t += 1
            if t > max(cap, 64):
                raise RuntimeError("mixing scan exceeded its certified horizon")
    lo, hi = 0, max(1, int(math.ceil(spectrum.t_rel * math.log(1.0 / (eps * chain.pi.min())))))
    while _d_spectral(chain, hi) > eps + 1e-12:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _d_spectral(chain, mid) <= eps + 1e-12:
            hi = mid
        else:
            lo = mid
    return hi if _d_spectral(chain, lo) > eps + 1e-12 else lo


@dataclass(eq=False)
class MaximalFunctionResult:
    """Running maxima of |P^{2k} f| (and optionally |P^{2k+1} f|).

    ``values[x]`` is the maximum over even powers up to the truncation
    horizon; the true supremum exceeds it by at most ``2 * tail_bound``.
    """

    values: np.ndarray
    odd_values: np.ndarray | None
    truncation_k: int
    tail_bound: float


def maximal_function(chain: Chain, f: np.ndarray, include_odd: bool = False,
                     resolution: float = 1e-12, use_absolute_spectrum: bool = False,
                     max_steps: int = 2_000_000) -> MaximalFunctionResult:
    """Evaluate f*(x) = sup_k |P^{2k} f(x)| with a certified truncation.

    For lazy chains the spectrum is nonnegative and the tail of the
    supremum beyond horizon K is pinned inside
    ``|E_pi f| +/- lambda_2^{2K} ||f - E_pi f||_2 / sqrt(min pi)``;
    iteration stops once that envelope is below ``resolution``.  Non-lazy
    chains are accepted only with ``use_absolute_spectrum=True``, which
    replaces lambda_2 by max(lambda_2, |lambda_min|) in the envelope.

    With ``include_odd`` the analogous running maximum over odd powers,
    i.e. (Pf)* on even times, is tracked as well.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (chain.n,):
        raise ValueError("f must be a state function")
    spectrum = chain.spectrum
    if not chain.is_lazy and not use_absolute_spectrum:
        raise ValueError("chain is not lazy; pass use_absolute_spectrum=True to proceed")
    rate = spectrum.lambda_2 if chain.is_lazy and not use_absolute_spectrum else max(
        spectrum.lambda_2, abs(spectrum.lambda_min))
    rate = min(max(rate, 0.0), 1.0 - 1e-15)

    pi = chain.pi
    mean = float(pi @ f)
    centered_norm = math.sqrt(float(pi @ (f - mean) ** 2))
    scale = 1.0 / math.sqrt(float(pi.min()))

    g = f.copy()
    even_max = np.abs(g)
    odd_max = None
    if include_odd:
        h = chain.P @ f
        odd_max = np.abs(h)
    k = 0
    while True:
        tail = (rate ** (2 * k)) * centered_norm * scale
        if tail <= resolution:
            break
        if 2 * k >= max_steps:
            raise RuntimeError("maximal function iteration exceeded max_steps before certification")
        g = chain.P @ (chain.P @ g)
        k += 1
        np.maximum(even_max, np.abs(g), out=even_max)
        if include_odd:
            h = chain.P @ (chain.P @ h)
            np.maximum(odd_max, np.abs(h), out=odd_max)
    return MaximalFunctionResult(values=even_max, odd_values=odd_max,
                                 truncation_k=k, tail_bound=tail)
