"""Inequality and identity suites evaluated on one finite chain at a time.

Every suite turns a family of finite-n bounds -- mixing-time sandwiches,
hitting-time equivalences, killed-walk spectra, return-time identities,
tree-crossing concentration, banded-chain comparisons -- into concrete
number-against-number records on the given chain.  Nothing here is
asymptotic; a record stores both sides of one comparison at one parameter
tuple, and preconditions that fail are recorded as skips, never dropped.

Suite ids (see ``SUITES``):

- ``relaxation``          mixing time vs relaxation time, both directions
- ``tv-hit``              worst-case TV distance vs large-set hitting times
- ``set-probability``     set-probability floors after a per-start hit time
- ``submultiplicativity`` products of hitting tails and TV doubling
- ``hit-levels``          transfer between hitting thresholds
- ``escape``              stationary escape tails, slow-start sets, mean hits
- ``killed-spectrum``     spectral decomposition of the killed kernel
- ``maximal-function``    even-time maximal inequality, variance contraction
- ``good-set``            mass of starts with uniformly small set deviations
- ``martingale-tail``     eigenfunction floors for escape tails
- ``return-time``         return-time identities (flow symmetry, moments)
- ``return-mgf``          exponential moments of return times
- ``mix-hit``             chained mixing/hitting comparisons across levels
- ``lazy-floor``          floors forced by holding probabilities
- ``continuous-time``     heat-kernel analogues with integer ceilings dropped
- ``tree-window``         tree crossing moments and the mixing window
- ``crossing-tails``      sub-gaussian tails for tree passage times
- ``banded``              banded-chain block decomposition comparisons
- ``block-moments``       measured block-crossing constants (reported only)

Each ``SUITES`` entry drives its suite: it checks the gates stated beside
it in the table (lazy, exact, tree, banded) in order and returns the
suite's one skip row when a gate fails; otherwise ``SUITES[sid](ctx)``
returns the suite's rows as
:class:`~cutofflab.reporting.RecordBlock` objects in key order.
``run_suite``/``run_suites`` wrap those blocks in
:class:`~cutofflab.reporting.Report` objects; ``cutoff_scan`` tabulates
mixing windows and ratios across growing sizes of one family.

The identity suites (escape, killed-spectrum, return-time, good-set) sweep
every target set of a table.  What does not depend on the chain is built
once per table (``_Targets``; for ``sets="all"`` once per n in a process):
the sets in record-key order, their split into one stack per |B| with each
stack's member and survivor index arrays, and the permutation from the
stacks' rows back into key order.  Per chain, ``_Ctx.stack`` builds the
stacked killed systems once, and each suite walks them once
(``_per_set``), reading the eigensystems and solves the systems keep.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import islice
from typing import NamedTuple

import numpy as np

from .chain import Chain, write_csv_atomic
from .families import FAMILIES
from .hitting import (
    DEFAULT_EXACT_THRESHOLD,
    IdentityCheckError,
    KilledSystem,
    WorstTailProfile,
    _exact_hitting,
    _hit_ct_interval,
    _partition,
    _survival,
    worst_tail_profile,
)
from .mixing import (
    _ceiling,
    maximal_function,
    mixing_times,
    worst_tv,
)
from .reporting import (
    Record,
    RecordBlock,
    Report,
    check_identity,
    check_le,
    fingerprint,
    report_value,
    skip,
)
from .sbd import (
    _crossing_moments,
    blocks,
    central_block_hit,
    classify_sbd,
    comparable_start_bound,
)
from .trees import (
    crossing_time,
    path_variance,
    tail_bound_check,
    tau_sandwich_check,
    tree_from_chain,
    window_rows,
)

__all__ = [
    "SUITES",
    "SUITE_IDS",
    "run_suite",
    "run_suites",
    "CutoffScan",
    "ScanRow",
    "cutoff_scan",
]

EPS_GRID = (1 / 16, 1 / 8, 1 / 4)  # the defaults of a run's two grids
ALPHA_GRID = (1 / 4, 1 / 2, 3 / 4)
# fixed: L^p exponents, good-set multiples m, escape works w, crossing-tail
# scales c, and the seeded test functions (continuous-time reads 5)
P_GRID = (1.5, 2.0, 3.0)
DEVIATION_GRID = (3.0, 4.0, 6.0)
WORK_GRID = (0.5, 1.0, 2.0)
C_GRID = (0.5, 1.0, 1.5, 2.0)
FUNCTIONS = 20
# the integer times of the stationary and entry-law tails the identity
# suites read: escape, killed-spectrum and return-time (which also reads
# each t - 1)
TAIL_T_GRID = (0, 1, 2, 5, 10, 20, 30)
KILLED_T_GRID = (1, 5, 20)
RETURN_T_GRID = (1, 2, 5, 10)
_RETURN_STAT_TS = tuple(sorted({t - 1 for t in RETURN_T_GRID} | set(RETURN_T_GRID)))


def _ceil(x: float) -> int:
    return int(math.ceil(x))


def _log_plus(x: float) -> float:
    return max(math.log(x), 0.0)


# ---------------------------------------------------------------------------
# shared evaluation context


class _Clock:
    """One time model for the comparisons stated in both discrete and
    continuized time.

    ``mix(eps)`` and ``hit(alpha, eps)`` are (lo, hi) brackets: the integer
    twice in discrete time, brackets of width h <= 1e-3 t_rel from the
    square descents in continuized time.
    A comparison reads ``lo`` for the times on its left and ``hi`` for the
    times on its right, the conservative ends.  ``shift`` rounds an offset
    up to whole steps in discrete time and keeps it in continuized time;
    ``suffix`` ends the inequality names ("" or "-ct").
    """

    def __init__(self, ctx: "_Ctx", continuous: bool):
        self.ctx = ctx
        self.continuous = continuous
        self.suffix = "-ct" if continuous else ""

    def mix(self, eps: float) -> tuple:
        t = self.ctx.tmix(eps, self.continuous)
        return t if self.continuous else (t, t)

    def hit(self, alpha: float, eps: float) -> tuple:
        if self.continuous:
            return self.ctx.hit_ct(alpha, eps)[:2]
        t = self.ctx.hit(alpha, eps)
        return t, t

    def shift(self, x: float):
        return x if self.continuous else _ceil(x)


class _Targets(NamedTuple):
    """The nonempty proper target sets of one sweep and the chain-free half
    of sweeping them, read-only, in record-key order: sorted by
    ``str(members)`` (no tuple repr is a prefix of another).

    ``masks`` holds one boolean row per set and ``members`` the member
    tuples as an object array, the ``A`` column of the set-sweeping suites.
    ``parts`` splits the sets by |B| as :func:`~cutofflab.hitting._partition`
    does, with the member and survivor index arrays every chain's stacked
    killed systems take as they are, and ``rows`` reorders the stacks'
    concatenated rows into key order.
    """

    masks: np.ndarray
    members: np.ndarray
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    rows: np.ndarray

    @classmethod
    def of(cls, masks: np.ndarray) -> "_Targets":
        """The sets given as the rows of a boolean array, in any order."""
        flat = np.nonzero(masks)[1].tolist()
        ends = np.cumsum(masks.sum(axis=1)).tolist()
        members = [tuple(flat[start:end]) for start, end in zip([0] + ends[:-1], ends)]
        order = sorted(range(len(members)), key=lambda j: str(members[j]))
        masks = masks[order]
        members = np.fromiter((members[j] for j in order), dtype=object, count=len(order))
        parts = _partition(masks)
        rows = np.argsort(np.concatenate([idx for idx, _, _ in parts]))
        for a in (masks, members, rows, *(a for part in parts for a in part)):
            a.setflags(write=False)
        return cls(masks, members, parts, rows)


@cache
def _all_targets(n: int) -> _Targets:
    """Every nonempty proper subset of n <= 14 states, in bit order; it
    depends on n alone, so it is built once per n and shared."""
    if n > 14:
        raise ValueError("exhaustive subset sweeps are limited to n <= 14")
    bits = np.arange(1, (1 << n) - 1)
    return _Targets.of(((bits[:, None] >> np.arange(n)) & 1).astype(bool))


def _level_grid(key: str, values) -> tuple[float, ...]:
    """The grid ``values`` as floats, nonempty and each in (0, 1)."""
    values = list(values)
    if not values:
        raise ValueError(f"{key} must hold at least one value")
    bad = [v for v in values if not 0 < float(v) < 1]
    if bad:
        raise ValueError(f"{key} values must lie in (0, 1); got {bad}")
    return tuple(float(v) for v in values)


def _integer(key: str, value) -> int:
    """The parameter ``key`` as an int: an integral value only, numpy
    integers included."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{key} must be an integer; got {value!r}") from None


class _Ctx:
    """A run's parameters, parsed from ``params`` here alone and before the
    chain is checked (see :func:`run_suites`), and caches of spectra,
    profiles, mixing times, and target stacks so a batch of suites on one
    chain never recomputes a shared quantity; the single-target killed
    systems are kept on the chain itself."""

    def __init__(self, chain: Chain, params: dict):
        self.eps_grid = _level_grid("eps_grid", params.get("eps_grid", EPS_GRID))
        self.alpha_grid = _level_grid("alpha_grid", params.get("alpha_grid", ALPHA_GRID))
        self.sets = str(params.get("sets", "sampled"))
        if self.sets not in ("sampled", "all"):
            raise ValueError(f"unknown set mode {self.sets!r}; use 'sampled' or 'all'")
        self.exact_threshold = _integer(
            "exact_threshold", params.get("exact_threshold", DEFAULT_EXACT_THRESHOLD))
        self.seed = _integer("seed", params.get("seed", 7))
        chain.require(reversible=True, irreducible=True)
        self.chain = chain
        self.spectrum = chain.spectrum
        self.t_rel = float(self.spectrum.t_rel)
        self.min_pi = float(chain.pi.min())
        self.lazy = bool(chain.is_lazy)
        self.exact = _exact_hitting(chain, self.exact_threshold)
        self._tmix: dict[tuple, int | tuple[float, float]] = {}
        self._profiles: dict[float, WorstTailProfile] = {}
        self._hits: dict[tuple, int] = {}
        self._hit_ct: dict[tuple, tuple[float, float, bool]] = {}
        self._targets: dict[str, _Targets] = {}

    # -- mixing ------------------------------------------------------------

    def tmix(self, eps: float, continuous: bool = False):
        """t_mix(eps), or its continuized bracket (lo, hi)."""
        if eps >= 1.0:
            return (0.0, 0.0) if continuous else 0
        key = (float(eps), continuous)
        if key not in self._tmix:
            self._tmix[key] = mixing_times(self.chain, (float(eps),), continuous)[0]
        return self._tmix[key]

    def dist(self, t: int) -> float:
        return worst_tv(self.chain, int(t))[0]

    # -- hitting -----------------------------------------------------------

    def profile(self, alpha: float) -> WorstTailProfile:
        key = round(float(alpha), 12)
        if key not in self._profiles:
            self._profiles[key] = worst_tail_profile(
                self.chain, alpha, exact_threshold=self.exact_threshold)
        return self._profiles[key]

    def hit(self, alpha: float, eps: float, x: int | None = None) -> int:
        if eps >= 1.0:
            return 0
        key = (round(float(alpha), 12), round(float(eps), 15), x)
        if key not in self._hits:
            self._hits[key] = int(self.profile(alpha).hit(eps, x=x))
        return self._hits[key]

    def hit_ct(self, alpha: float, eps: float) -> tuple[float, float, bool]:
        if eps >= 1.0:
            return (0.0, 0.0, True)
        key = (round(float(alpha), 12), round(float(eps), 15))
        if key not in self._hit_ct:
            self._hit_ct[key] = _hit_ct_interval(self.chain, alpha, eps,
                                                 profile=self.profile(alpha))
        return self._hit_ct[key]

    def clock(self, continuous: bool) -> _Clock:
        return _Clock(self, continuous)

    # -- shared objects ------------------------------------------------------

    def targets(self, mode: str) -> _Targets:
        """The target sets of ``mode``: every set ("all", n <= 14, and
        "sampled" when n is small enough for all of them), or a seeded
        sample of at most 11."""
        if mode in self._targets:
            return self._targets[mode]
        n = self.chain.n
        if mode == "all" or (n <= 14 and (1 << n) - 2 <= 11):
            out = _all_targets(n)
        else:  # "sampled", the one other mode a run accepts
            rng = np.random.Generator(np.random.Philox(key=self.seed))
            masks = []
            lo = np.zeros(n, dtype=bool)
            lo[int(np.argmin(self.chain.pi))] = True
            hi = np.zeros(n, dtype=bool)
            hi[int(np.argmax(self.chain.pi))] = True
            masks.extend([lo, hi, ~hi])
            draws = 0
            while len(masks) < 11 and draws < 200:
                draws += 1
                m = rng.random(n) < rng.uniform(0.15, 0.85)
                if m.any() and not m.all():
                    masks.append(m)
            # equal masks count once
            out = _Targets.of(np.array(list({m.tobytes(): m for m in masks}.values())))
        self._targets[mode] = out
        return out

    @cached_property
    def stack(self) -> list[tuple[np.ndarray, KilledSystem]]:
        """The killed systems of ``targets(sets)``, one stack per |B|, each
        with the positions of its targets in ``targets(sets)``."""
        return [(idx, KilledSystem.stack(self.chain, A, B))
                for idx, A, B in self.targets(self.sets).parts]

    @cached_property
    def functions(self) -> np.ndarray:
        """``FUNCTIONS`` seeded test functions, one row each."""
        rng = np.random.Generator(np.random.Philox(key=self.seed ^ 0x5EED))
        return rng.standard_normal((FUNCTIONS, self.chain.n))

    @cached_property
    def tree(self):
        try:
            return tree_from_chain(self.chain), ""
        except ValueError as exc:
            return None, str(exc)

    @cached_property
    def sbd(self):
        return classify_sbd(self.chain)


def _per_set(ctx: _Ctx, fn) -> list[np.ndarray]:
    """Evaluate ``fn`` on every stack of ``ctx.stack``; returns one array
    per output, one row per target in key order (``_Targets.rows``)."""
    vals = [fn(ks) for _, ks in ctx.stack]
    rows = ctx.targets(ctx.sets).rows
    return [np.concatenate(col).take(rows, axis=0) for col in zip(*vals)]


def _str_order(values) -> list[tuple[int, object]]:
    """(index, value) pairs of a parameter grid in the string order of
    the values, the order record keys sort them in."""
    return sorted(enumerate(values), key=lambda iv: str(iv[1]))


def _sweep_block(inequality: str, kind, lhs, rhs, members: np.ndarray,
                 grid: dict | None = None, note="") -> RecordBlock:
    """The rows of one inequality over every target set (in key order;
    ``members`` fills the ``A`` column) times the points of ``grid``
    (parameter name -> one value per point, in key order).

    ``lhs``, ``rhs`` and the ``kind`` and ``note`` arrays broadcast to the
    shape (sets, points), or (sets,) without a grid."""
    grid = grid or {}
    points = len(next(iter(grid.values()))) if grid else 1
    shape = (len(members), points) if grid else (len(members),)
    cols = {"A": np.repeat(members, points) if grid else members}
    for key, values in grid.items():
        cols[key] = np.fromiter(list(values) * len(members), dtype=object,
                                count=len(members) * points)

    def rows(v):
        if isinstance(v, str):
            return v
        v = np.asarray(v)
        return (v if v.shape == shape else np.broadcast_to(v, shape)).ravel()
    return RecordBlock(inequality, rows(lhs), rows(rhs), rows(kind), cols, rows(note))


# ---------------------------------------------------------------------------
# comparisons stated in both time models: each row function serves the
# discrete suite and continuous-time alike, through ``_Ctx.clock``


def _relaxation_rows(ctx: _Ctx, clock: _Clock) -> list[Record]:
    """t_rel controls the mixing time from both sides."""
    records = []
    # the discrete lower bound is (t_rel - 1) log(1 / (2 eps))
    rel = ctx.t_rel if clock.continuous else ctx.t_rel - 1.0
    for eps in ctx.eps_grid:
        lo, hi = clock.mix(eps)
        if eps < 0.5:
            records.append(check_le(
                "relaxation-lower" + clock.suffix,
                rel * math.log(1.0 / (2.0 * eps)), hi, {"eps": eps}))
        # t_rel* (-log eps - log min pi); t_rel* = t_rel on a lazy chain
        records.append(check_le(
            "relaxation-upper" + clock.suffix, lo,
            _ceiling(ctx.chain, eps, continuous=clock.continuous), {"eps": eps}))
    return records


def _tv_hit_rows(ctx: _Ctx, clock: _Clock) -> list[Record]:
    """Worst-case TV mixing is equivalent to hitting times of large sets."""
    records = []
    t_rel = ctx.t_rel
    hit, shift = clock.hit, clock.shift
    for eps in ctx.eps_grid:
        if eps > 0.25 + 1e-12:
            records.append(skip("tv-hit" + clock.suffix, "level must lie in (0, 1/4]",
                                {"eps": eps}))
            continue
        mix, high = clock.mix(eps), clock.mix(1.0 - eps)
        back = shift(2.0 * t_rel * abs(math.log(eps)))
        for name, lhs, rhs in (
            ("tv-hit-upper-half-sets", mix[0],
             hit(0.5, eps / 2)[1] + shift(t_rel * math.log(4.0 / eps))),
            ("tv-hit-lower-half-sets", hit(0.5, 1.5 * eps)[0] - back, mix[1]),
            ("tv-hit-upper-near-one", high[0],
             hit(0.5, 1.0 - 2.0 * eps)[1] + shift(t_rel)),
            ("tv-hit-lower-near-one", hit(0.5, 1.0 - eps / 2)[0] - back, high[1]),
            ("tv-hit-lower-large-sets", hit(1.0 - eps / 4, 1.25 * eps)[0], mix[1]),
            ("tv-hit-upper-large-sets", mix[0],
             hit(1.0 - eps / 4, 0.75 * eps)[1]
             + shift(1.5 * t_rel * math.log(4.0 / eps))),
        ):
            records.append(check_le(name + clock.suffix, lhs, rhs, {"eps": eps}))
    return records


def _level_pairs(ctx: _Ctx):
    """Threshold pairs alpha <= beta of the alpha grid."""
    return [(a, b) for a in ctx.alpha_grid for b in ctx.alpha_grid if a <= b]


def _hit_mass_rows(ctx: _Ctx, clock: _Clock) -> list[Record]:
    """Hitting times at different mass thresholds control each other."""
    records = []
    hit = clock.hit
    for alpha, beta in _level_pairs(ctx):
        for delta in (0.25, 0.5):
            p = {"alpha": alpha, "beta": beta, "delta": delta}
            records.append(check_le(
                "hit-mass-monotone" + clock.suffix, hit(beta, delta)[0],
                hit(alpha, delta)[1], p))
            shift = clock.shift(ctx.t_rel / alpha * math.log(
                (1.0 - alpha) / ((1.0 - beta) * (delta / 2))))
            records.append(check_le(
                "hit-mass-transfer" + clock.suffix, hit(alpha, delta)[0],
                hit(beta, delta / 2)[1] + shift, p))
    return records


# ---------------------------------------------------------------------------
# relaxation-time sandwich


def _suite_relaxation(ctx: _Ctx) -> list[Record]:
    """t_rel controls the mixing time from both sides (lazy chains)."""
    return _relaxation_rows(ctx, ctx.clock(False))


# ---------------------------------------------------------------------------
# TV mixing vs hitting times of large sets


def _suite_tv_hit(ctx: _Ctx) -> list[Record]:
    """Worst-case TV mixing is equivalent to hitting times of large sets."""
    records = _tv_hit_rows(ctx, ctx.clock(False))
    t_rel = ctx.t_rel
    for eps in ctx.eps_grid:
        if eps <= 0.25 + 1e-12:
            records.append(check_le(
                "tv-relaxation-floor",
                (t_rel - 1.0) * abs(math.log(2.0 * eps)), float(ctx.tmix(eps)),
                {"eps": eps}))
    # general-threshold equivalences: both directions at every alpha
    for alpha in ctx.alpha_grid:
        for eps in ctx.eps_grid:
            p = {"alpha": alpha, "eps": eps}
            records.append(check_le(
                "set-hit-below-mix",
                float(ctx.hit(1.0 - alpha, min(alpha + eps, 1.0))),
                float(ctx.tmix(eps)), p))
            delta = eps
            shift = _ceil(0.5 * t_rel * _log_plus(
                2.0 * (1.0 - eps) ** 2 / (alpha * eps * delta)))
            records.append(check_le(
                "mix-below-set-hit", float(ctx.tmix(min(eps + delta, 1.0))),
                ctx.hit(1.0 - alpha, eps) + shift, {**p, "delta": delta}))
    return records


# ---------------------------------------------------------------------------
# set-probability floors after a per-start hitting time


def _suite_set_probability(ctx: _Ctx) -> list[Record]:
    """Once large sets are hit, set probabilities obey a spectral floor."""
    records = []
    t_rel = ctx.t_rel
    F = ctx.spectrum.eigenfunctions
    lam = ctx.spectrum.eigenvalues
    pi = ctx.chain.pi
    starts = sorted({int(np.argmax(pi)), int(np.argmin(pi))})
    s_grid = sorted({0, _ceil(t_rel), _ceil(3.0 * t_rel)})
    targets = ctx.targets("sampled")
    for mask, members in zip(targets.masks, targets.members):
        pa = float(pi[mask].sum())
        coef = F.T @ (pi * mask)
        for x in starts:
            for alpha in (0.25, 0.5):
                prof_level = 1.0 - alpha
                for delta in ctx.eps_grid:
                    t = ctx.hit(prof_level, delta, x=x)
                    for s in s_grid:
                        prob = float(F[x] @ (lam ** (t + s) * coef))
                        floor = (1.0 - delta) * (
                            pa - math.exp(-s / t_rel)
                            * math.sqrt(8.0 / alpha * pa * (1.0 - pa)))
                        records.append(check_le(
                            "post-hit-occupation-floor", floor, prob,
                            {"A": members, "x": x, "alpha": alpha,
                             "delta": delta, "s": s}))
    return records


# ---------------------------------------------------------------------------
# submultiplicativity of tails and distances


def _suite_submult(ctx: _Ctx) -> list[Record]:
    """Hitting tails multiply over time splits; TV distance powers up."""
    records = []
    eps_grid = ctx.eps_grid
    if ctx.exact:
        for alpha in ctx.alpha_grid:
            for i, e1 in enumerate(eps_grid):
                for e2 in eps_grid[i:]:
                    records.append(check_le(
                        "hit-submultiplicative",
                        float(ctx.hit(alpha, e1 * e2)),
                        float(ctx.hit(alpha, e1) + ctx.hit(alpha, e2)),
                        {"alpha": alpha, "eps": e1, "delta": e2}))
            seq = ctx.profile(alpha).scan()
            marks = sorted({1, _ceil(ctx.t_rel), ctx.tmix(0.25)})
            for i, t in enumerate(marks):
                for s in marks[i:]:
                    records.append(check_le(
                        "tail-supermultiplicative",
                        seq.at(t + s), seq.at(t) * seq.at(s),
                        {"alpha": alpha, "t": t, "s": s}))
    else:
        records.append(skip("hit-submultiplicative", _GATES["exact"](ctx)))
    for k in (2, 3):
        for t in sorted({ctx.tmix(0.25), ctx.tmix(1 / 8)}):
            records.append(check_le(
                "distance-power-bound", ctx.dist(k * t),
                (2.0 * ctx.dist(t)) ** k, {"k": k, "t": t}))
    return records


# ---------------------------------------------------------------------------
# transfer between hitting thresholds


def _suite_hit_levels(ctx: _Ctx) -> list[Record]:
    """Hitting times at different mass thresholds control each other."""
    records = _hit_mass_rows(ctx, ctx.clock(False))
    eps0 = 1 / 16
    for alpha, beta in _level_pairs(ctx):
        if alpha == beta:
            continue
        s_n = _ceil(ctx.t_rel / alpha * math.log(
            (1.0 - alpha) / ((1.0 - beta) * eps0)))
        p = {"alpha": alpha, "beta": beta, "eps": eps0}
        records.append(check_le(
            "hit-high-level-transfer",
            float(ctx.hit(alpha, 1.0 - eps0)),
            ctx.hit(beta, 1.0 - 2.0 * eps0) + s_n, p))
        records.append(check_le(
            "hit-low-level-transfer",
            float(ctx.hit(alpha, 2.0 * eps0)),
            ctx.hit(beta, eps0) + s_n, p))
    return records


# ---------------------------------------------------------------------------
# escape tails from stationarity


def _suite_escape(ctx: _Ctx) -> list[RecordBlock]:
    """Stationary escape tails decay geometrically with rate pi(A)/t_rel."""
    t_rel = ctx.t_rel
    pi = ctx.chain.pi
    alphas = (0.25, 0.5)

    def per_stack(ks: KilledSystem):
        with np.errstate(all="ignore"):
            t_w = t_rel * np.array(WORK_GRID) / ks.pi_A[:, None]
        bad = ~np.isfinite(t_w)  # pi(A) = 0 among them
        if bad.any():  # raise as one target's integer ceiling does, in work order
            w, j = np.argwhere(bad.T)[0]
            _ceil(t_rel * WORK_GRID[w] / float(ks.pi_A[j]))
        # rows[j, w, a, i]: survivor i of target j is slow at work w and level a
        rows = ks.tail_rows(np.ceil(t_w))[:, :, None, :] >= np.array(alphas)[:, None]
        slow = np.where(rows, pi[ks.B][:, None, None, :], 0.0).sum(axis=-1)
        return ks.pi_A, ks.pi_B, ks.tail_stationary(TAIL_T_GRID), ks.mean_stationary(), slow

    pa, pb, tails, means, slow = _per_set(ctx, per_stack)
    members = ctx.targets(ctx.sets).members
    t_idx, ts = map(list, zip(*_str_order(TAIL_T_GRID)))
    base = 1.0 - pa / t_rel
    geometric = pb[:, None] * base[:, None] ** ts
    exponential = pb[:, None] * np.exp(-np.array(ts) * pa[:, None] / t_rel)
    defined = (base >= 0.0)[:, None]
    slow_order = [(a, alpha, i, w) for a, alpha in _str_order(alphas)
                  for i, w in _str_order(WORK_GRID)]
    a_idx, slow_alphas, w_idx, slow_works = map(list, zip(*slow_order))
    decay = np.array([math.exp(-w) for w in slow_works])
    return [
        _sweep_block("escape-tail-exponential",
                     np.where(defined, "inequality", "skip"),
                     np.where(defined, geometric, math.nan),
                     np.where(defined, exponential, math.nan), members, {"t": ts},
                     np.where(defined, "", "geometric base is negative (t_rel < pi(A))")),
        _sweep_block("slow-start-measure", "inequality", slow[:, w_idx, a_idx],
                     pb[:, None] * decay / np.array(slow_alphas), members,
                     {"w": slow_works, "alpha": slow_alphas}),
        _sweep_block("stationary-escape-tail", "inequality", pb[:, None] * tails[:, t_idx],
                     geometric, members, {"t": ts}),
        _sweep_block("stationary-mean-hitting", "inequality", pa * pb * means, t_rel * pb,
                     members),
    ]


# ---------------------------------------------------------------------------
# killed-kernel spectrum


def _suite_killed_spectrum(ctx: _Ctx) -> list[RecordBlock]:
    """The killed kernel's spectral mixture has the promised shape."""
    t_rel = ctx.t_rel
    marks = KILLED_T_GRID

    def per_stack(ks: KilledSystem):
        return (ks.pi_A, ks.pi_B, ks.weights.min(axis=-1), ks.weights.sum(axis=-1),
                ks.gammas[:, 0], ks.gammas[:, -1], ks.tail_stationary(marks))

    targets = ctx.targets(ctx.sets)
    pa, pb, w_min, w_sum, g_top, g_bottom, recon = _per_set(ctx, per_stack)
    # reconstruction against direct killed-kernel iteration, every target in one pass
    steps = islice(_survival(ctx.chain.P, ~targets.masks.T), marks[-1] + 1)
    direct = np.stack([ctx.chain.pi @ V for t, V in enumerate(steps) if t in marks], axis=-1)
    members = targets.members
    m_idx, ts = map(list, zip(*_str_order(marks)))
    return [
        _sweep_block("killed-spectrum-ceiling", "inequality", g_top, 1.0 - pa / t_rel,
                     members),
        _sweep_block("killed-spectrum-symmetric-floor", "inequality", -g_top, g_bottom,
                     members),
        _sweep_block("killed-tail-reconstruction", "identity", recon[:, m_idx],
                     direct[:, m_idx] / pb[:, None], members, {"t": ts}),
        _sweep_block("killed-weights-nonnegative", "inequality", 0.0, w_min, members),
        _sweep_block("killed-weights-normalized", "identity", w_sum, 1.0, members),
    ]


# ---------------------------------------------------------------------------
# even-time maximal function and variance contraction


def _suite_maximal(ctx: _Ctx) -> list[Record]:
    """sup over even times of |P^t f| is Lp-bounded by p/(p-1) ||f||_p."""
    records = []
    pi = ctx.chain.pi
    funcs = ctx.functions
    res = maximal_function(ctx.chain, funcs)
    upper = res.values + 2.0 * res.tail_bound[:, None]
    for i, f in enumerate(funcs):
        for p in P_GRID:
            lhs = float((pi @ upper[i] ** p) ** (1.0 / p))
            rhs = p / (p - 1.0) * float((pi @ np.abs(f) ** p) ** (1.0 / p))
            records.append(check_le(
                "even-maximal-lp", lhs, rhs, {"f": i, "p": p}))
    if ctx.lazy:
        lam = ctx.spectrum.eigenvalues
        F = ctx.spectrum.eigenfunctions
        t_grid = sorted({1, _ceil(ctx.t_rel), _ceil(3.0 * ctx.t_rel)})
        for i, f in enumerate(funcs):
            c = F.T @ (pi * f)
            var0 = float(np.sum(c[1:] ** 2))
            for t in t_grid:
                var_t = float(np.sum((lam[1:] ** t * c[1:]) ** 2))
                records.append(check_le(
                    "variance-contraction", var_t,
                    math.exp(-2.0 * t / ctx.t_rel) * var0, {"f": i, "t": t}))
    else:
        records.append(skip("variance-contraction", "requires a lazy chain"))
    return records


# ---------------------------------------------------------------------------
# good starting sets (uniformly small deviations after time s)


def _suite_good_set(ctx: _Ctx) -> list[RecordBlock]:
    """Most starts track pi(A) within m sigma_s from every time >= s."""
    t_rel, pi = ctx.t_rel, ctx.chain.pi
    F = ctx.spectrum.eigenfunctions
    lam = ctx.spectrum.eigenvalues
    targets = ctx.targets(ctx.sets)
    ind = targets.masks.astype(float)
    pa = ind @ pi
    rho = np.sqrt(pa * (1.0 - pa))
    s_grid = sorted({0, _ceil(t_rel), _ceil(3.0 * t_rel)})
    # Beyond K the deviation envelope e^{-k/t_rel} rho / sqrt(min pi) is
    # already below every threshold m e^{-s/t_rel} rho, so the suffix max
    # over [s, K] decides membership for all k >= s.
    log_ratio = -math.log(min(DEVIATION_GRID)) - 0.5 * math.log(ctx.min_pi)
    extra = _ceil(t_rel * log_ratio) if log_ratio > 0.0 else 0
    K = max(s_grid) + extra + 1
    C = F.T @ (pi[:, None] * ind.T)
    running = np.zeros((ctx.chain.n, ind.shape[0]))
    snapshots = {}
    want = set(s_grid)
    for k in range(K, -1, -1):
        dev = np.abs((F * lam ** k) @ C - pa[None, :])
        np.maximum(running, dev, out=running)
        if k in want:
            snapshots[k] = running.copy()
    measures = {}
    for s in s_grid:
        worst = snapshots[s]
        decay = math.exp(-s / t_rel)
        for m in DEVIATION_GRID:
            member = (worst < m * decay * rho[None, :]).astype(float)
            measures[s, m] = pi @ member
    grid_order = [(m, s) for _, m in _str_order(DEVIATION_GRID) for _, s in _str_order(s_grid)]
    return [_sweep_block(
        "good-set-measure", "inequality", np.array([1.0 - 8.0 / m ** 2 for m, _ in grid_order]),
        np.stack([measures[s, m] for m, s in grid_order], axis=-1),
        targets.members, {"s": [s for _, s in grid_order], "m": [m for m, _ in grid_order]})]


# ---------------------------------------------------------------------------
# eigenfunction martingale tails


def _suite_martingale(ctx: _Ctx) -> list[Record]:
    """From the top of the second eigenfunction, escape tails beat lambda_2^k."""
    lam2 = float(ctx.spectrum.lambda_2)
    if lam2 <= 1e-12:
        return [skip("martingale-tail", "second eigenvalue is not positive")]
    pi = ctx.chain.pi
    f2 = ctx.spectrum.eigenfunctions[:, 1].copy()
    if float(pi[f2 <= 1e-14].sum()) < 0.5:
        f2 = -f2
    mask = f2 <= 1e-14
    pa = float(pi[mask].sum())
    x = int(np.argmax(f2))
    if mask[x]:
        return [skip("martingale-tail", "eigenfunction has no positive part")]
    records = [check_le("negative-part-mass", 0.5, pa)]
    scan = KilledSystem.of(ctx.chain, np.flatnonzero(mask)).scan(x)
    K = _ceil(5.0 * ctx.t_rel)
    ts = np.arange(K + 1)
    tails = np.array([scan.at(k) for k in ts])
    floors = lam2 ** ts.astype(float)
    worst = float(np.max(floors - tails))
    records.append(check_le(
        "martingale-tail-floor-all", worst, 0.0,
        {"k_max": K}, note="max over all k <= ceil(5 t_rel) of lambda_2^k "
                           "- Pr_x[T > k]"))
    grid = sorted(set(range(0, min(K, 64) + 1))
                  | {int(v) for v in np.geomspace(1, max(K, 1), 32).round()})
    for k in grid:
        if k > K:
            continue
        records.append(check_le(
            "martingale-tail-floor", float(floors[k]), float(tails[k]),
            {"k": k, "x": x}))
    for a in (1, 2):
        k = a * ctx.tmix(0.25)
        tail = scan.at(k)
        records.append(check_le(
            "martingale-tail-at-mix", lam2 ** k, tail, {"multiple": a, "k": k}))
    return records


# ---------------------------------------------------------------------------
# return-time identities


def _suite_return_time(ctx: _Ctx) -> list[RecordBlock]:
    """Flow symmetry and the return-time mean/second-moment identities."""
    t_rel = ctx.t_rel
    t_marks, stat_ts = RETURN_T_GRID, _RETURN_STAT_TS

    def per_stack(ks: KilledSystem):
        kq = ks.kac()
        return (kq.flow_AB, kq.flow_BA, kq.phi_B, kq.mean_from_psi,
                kq.second_from_psi, kq.mean_from_pi_B, ks.pi_A,
                ks.tail_stationary(stat_ts),
                ks.tail_dist(kq.psi_B, [t - 1 for t in t_marks]))

    (flow_out, flow_in, phi_B, mean_psi, second_psi, mean_pi_B, pa, stat,
     entry) = _per_set(ctx, per_stack)
    if (phi_B == 0.0).any() or (pa == 0.0).any():
        raise ZeroDivisionError("float division by zero")
    members = ctx.targets(ctx.sets).members
    m_idx, ts = map(list, zip(*_str_order(t_marks)))
    before = stat[:, [stat_ts.index(t - 1) for t in ts]]
    after = stat[:, [stat_ts.index(t) for t in ts]]
    return [
        _sweep_block("interface-flow-symmetry", "identity", flow_out, flow_in, members),
        _sweep_block("return-law-identity", "identity", (before - after) / phi_B[:, None],
                     entry[:, m_idx], members, {"t": ts}),
        _sweep_block("return-mean-identity", "identity", mean_psi, 1.0 / phi_B, members),
        _sweep_block("return-second-moment-bound", "inequality", second_psi,
                     2.0 * mean_psi * t_rel / pa, members),
        _sweep_block("return-second-moment-identity", "identity", second_psi,
                     mean_psi * (2.0 * mean_pi_B - 1.0), members),
    ]


# ---------------------------------------------------------------------------
# exponential moments of return times


def _suite_return_mgf(ctx: _Ctx) -> list[Record]:
    """Two-sided exponential concentration of the return time to a big set."""
    records = []
    n, pi = ctx.chain.n, ctx.chain.pi
    t_rel = ctx.t_rel
    order = np.argsort(pi)
    small = [(int(order[0]),)]
    if n >= 3:
        small.append((int(order[1]),))
        small.append((int(order[2]),))
        small.append(tuple(sorted((int(order[0]), int(order[1])))))
    for b_states in dict.fromkeys(small):
        mask = np.ones(n, dtype=bool)
        mask[list(b_states)] = False  # A = everything except the slow core
        ks = KilledSystem.of(ctx.chain, np.flatnonzero(mask))
        kq = ks.kac()
        pa = float(pi[mask].sum())
        p_rate = 1.0 - pa / t_rel
        base = {"B": b_states}
        if p_rate <= 1e-12:
            records.append(skip("return-mgf-upper-deviation",
                                "geometric rate vanishes", base))
            continue
        a = kq.mean_from_psi
        for theta in (0.5, 1.0):
            z = 1.0 + theta * (1.0 - p_rate) / (2.0 * p_rate)
            bound = 2.0 * a * (z - 1.0) ** 2 / (1.0 - p_rate)
            p = {**base, "theta": theta}
            if a * math.log(z) + bound > 600.0:
                records.append(skip(
                    "return-mgf-upper-deviation",
                    "exponential moment exceeds double precision range", p))
                continue
            up = ks.mgf(kq.psi, z)
            down = ks.mgf(kq.psi, 1.0 / z)
            records.append(check_le(
                "return-mgf-upper-deviation",
                math.log(up) - a * math.log(z), bound, p))
            records.append(check_le(
                "return-mgf-lower-deviation",
                a * math.log(z) + math.log(down), bound, p))
    return records


# ---------------------------------------------------------------------------
# chained mixing/hitting comparisons


def _suite_mix_hit(ctx: _Ctx) -> list[Record]:
    """A closed loop of eight comparisons tying hit times at any threshold
    to the quarter-level mixing time."""
    records = []
    t_rel = ctx.t_rel
    tq = ctx.tmix(0.25)
    for alpha in ctx.alpha_grid:
        p = {"alpha": alpha}
        level = 1.0 - 0.75 * alpha
        k = _ceil(4.0 / alpha - 1.0)
        records.append(check_le(
            "quarter-power-floor", level ** k, 0.25, {**p, "k": k}))
        records.append(check_le(
            "hit-power-submultiplicative", float(ctx.hit(alpha, level ** k)),
            float(k * ctx.hit(alpha, level)), {**p, "k": k}))
        records.append(check_le(
            "hit-below-small-mix", float(ctx.hit(alpha, level)),
            float(ctx.tmix(alpha / 4)), p))
        doubling = 2 + _ceil(math.log2(1.0 / alpha))
        records.append(check_le(
            "mix-small-eps-growth", float(ctx.tmix(alpha / 4)),
            float(doubling * tq), p))
        records.append(check_le(
            "hit-quarter-upper", float(ctx.hit(alpha, 0.25)),
            4.0 / alpha * doubling * tq, p))
        shift_up = _ceil(0.5 * t_rel * math.log(98.0 / (1.0 - alpha)))
        records.append(check_le(
            "mix-below-shifted-hit", float(tq),
            ctx.hit(alpha, 1 / 8) + shift_up, p))
        records.append(check_le(
            "hit-eighth-doubling", float(ctx.hit(alpha, 1 / 8)),
            2.0 * ctx.hit(alpha, 0.25), p))
        shift_dn = _ceil(0.25 * t_rel * math.log(100.0 / (1.0 - alpha)))
        records.append(check_le(
            "hit-quarter-lower", tq / 2.0 - shift_dn,
            float(ctx.hit(alpha, 0.25)), p))
    return records


# ---------------------------------------------------------------------------
# floors forced by laziness


def _suite_lazy_floor(ctx: _Ctx) -> list[Record]:
    """Holding probability 1/2 caps how fast tails and distances can drop."""
    records = []
    tq = ctx.tmix(0.25)
    for alpha in ctx.alpha_grid:
        p = {"alpha": alpha}
        if alpha <= 0.5:
            for eps in ctx.eps_grid:
                records.append(check_le(
                    "lazy-hit-floor", abs(math.log2(eps)),
                    float(ctx.hit(alpha, eps / 2)), {**p, "eps": eps}))
        records.append(check_le(
            "hit-near-one-below-mix", float(ctx.hit(alpha, 1.0 - alpha / 2)),
            float(ctx.tmix(alpha / 2)), p))
        records.append(check_le(
            "mix-small-eps-doubling", float(ctx.tmix(alpha / 2)),
            float(_ceil(math.log2(2.0 / alpha)) * tq), p))
        step = _ceil(abs(math.log2(alpha / 2)))
        for k in (1, 2):
            records.append(check_le(
                "hit-power-below-mix-multiple",
                float(ctx.hit(alpha, (1.0 - alpha / 2) ** k)),
                float(k * step * tq), {**p, "k": k}))
    return records


# ---------------------------------------------------------------------------
# continuous-time analogues


def _suite_continuous_time(ctx: _Ctx) -> list[Record]:
    """Heat-kernel versions of the sandwiches, with ceilings dropped.

    Continuous times are only located inside tight brackets, so every
    comparison uses the conservative ends (see :class:`_Clock`).
    """
    clock = ctx.clock(True)
    records = _relaxation_rows(ctx, clock)
    if ctx.exact:
        records += _tv_hit_rows(ctx, clock) + _hit_mass_rows(ctx, clock)
    else:
        records.append(skip("tv-hit" + clock.suffix, _GATES["exact"](ctx)))
    t_rel = ctx.t_rel
    lam = ctx.spectrum.eigenvalues
    F = ctx.spectrum.eigenfunctions
    pi = ctx.chain.pi
    for i, f in enumerate(ctx.functions[:5]):
        c = F.T @ (pi * f)
        var0 = float(np.sum(c[1:] ** 2))
        for mult in (0.5, 1.0, 3.0):
            t = mult * t_rel
            var_t = float(np.sum((np.exp(-(1.0 - lam[1:]) * t) * c[1:]) ** 2))
            records.append(check_le(
                "variance-contraction-ct", var_t,
                math.exp(-2.0 * t / t_rel) * var0, {"f": i, "t_rel_multiple": mult}))
    return records


# ---------------------------------------------------------------------------
# tree crossing moments and the mixing window


def _tree_pairs(tc) -> list[tuple[int, int]]:
    """The (start, ancestor) passages both tree suites read: from the
    deepest vertex x (ties to the largest label) to the root, and to the
    middle of x's root path when that path has more than 3 vertices."""
    deepest = max(range(tc.n), key=lambda v: (tc.depth[v], v))
    path = tc.path_to_root(deepest)
    pairs = [(deepest, tc.root)]
    if len(path) > 3:
        pairs.append((deepest, path[len(path) // 2]))
    return pairs


def _suite_tree_window(ctx: _Ctx) -> list[Record]:
    """On trees, crossing moments concentrate the root passage time and
    force a sqrt-size mixing window."""
    tc = ctx.tree[0]
    records = []
    t_rel = ctx.t_rel
    # 12 crossings spread over the depths (every one on smaller trees)
    by_depth = sorted((v for v in range(tc.n) if v != tc.root), key=lambda v: (tc.depth[v], v))
    idx = np.linspace(0, len(by_depth) - 1, 12).round().astype(int)
    for u in sorted({by_depth[i] for i in idx}):
        ct = crossing_time(tc, u)
        records.append(check_identity(
            "crossing-mean-formula", ct.mean, ct.mean_solve, {"u": u}))
        records.append(check_le(
            "crossing-second-moment-bound", ct.second_moment,
            4.0 * ct.mean * t_rel, {"u": u}))
    for x, y in _tree_pairs(tc):
        pv = path_variance(tc, x, y)
        records.append(check_le(
            "path-variance-bound", pv.variance, pv.sigma_sq,
            {"x": x, "y": y}))
        records.extend(pv.tail_records)
    if tc.n < 3:
        records.append(skip("mixing-window-sqrt", "needs at least 3 states"))
        return records
    eps_grid = ctx.eps_grid
    records.extend(window_rows(tc, t_rel, ctx.tmix, eps_grid))
    for eps in (e for e in eps_grid if e <= 0.25 + 1e-12):
        records.extend(
            tau_sandwich_check(tc, eps, partial(ctx.hit, 0.5)) if ctx.exact
            else [skip("tau-hit-sandwich", f"n = {tc.n} exceeds exact threshold", {"eps": eps})])
    return records


# ---------------------------------------------------------------------------
# sub-gaussian crossing tails


def _suite_crossing_tails(ctx: _Ctx) -> list[Record]:
    """Passage times to ancestors have sub-gaussian tails on the scale
    sqrt(mean * t_rel), for deviations up to 2.5 sqrt(mean / t_rel)."""
    tc = ctx.tree[0]
    pairs = _tree_pairs(tc)
    path = set(tc.path_to_root(pairs[0][0]))
    off_path = [v for v in range(tc.n) if v not in path and tc.depth[v] >= 2]
    if off_path:
        pairs.append((max(off_path, key=lambda v: (tc.depth[v], v)), tc.root))
    return [r for x, y in pairs for r in tail_bound_check(tc, x, y, c_grid=C_GRID)]


# ---------------------------------------------------------------------------
# banded chains


def _suite_banded(ctx: _Ctx) -> list[Record]:
    """Block decomposition of a banded chain: comparable starts inside an
    interval, central-block mass, and the central hitting statistics."""
    cls = ctx.sbd
    records = [report_value(
        "banded-parameters", cls.alpha,
        {"r": cls.r, "delta": cls.delta},
        note="concentration level implied by (delta, r)")]
    dec = blocks(ctx.chain, cls.r, cls.delta)
    records.append(check_le(
        "central-block-mass-ceiling", dec.central_mass,
        dec.central_mass_bound, {"central_block": dec.central_block},
        note="pi(central block) <= r / (r + delta^r)"))
    n, r = ctx.chain.n, dec.r
    trials = []
    if n > r:
        trials.append(((0, r - 1), tuple(int(v) for v in dec.blocks[-1])))
        trials.append(((n - r, n - 1), tuple(int(v) for v in dec.blocks[0])))
    if n >= 3 * r:
        mid_lo = (n - r) // 2
        trials.append(((mid_lo, mid_lo + r - 1), (0, n - 1)))
    seen = set()
    for interval, target in trials:
        lo, hi = max(interval[0], 0), min(interval[1], n - 1)
        tgt = tuple(t for t in target if t < lo or t > hi)
        if not tgt or (lo, hi, tgt) in seen:
            continue
        seen.add((lo, hi, tgt))
        records.extend(comparable_start_bound(
            ctx.chain, (lo, hi), tgt, r=dec.r, delta=dec.delta))
    if ctx.chain.is_lazy:
        try:
            cbh = central_block_hit(ctx.chain, dec,
                                    eps_grid=ctx.eps_grid,
                                    exact_threshold=ctx.exact_threshold)
            records.extend(cbh.records)
        except ValueError as exc:
            records.append(skip("central-hit-mean", str(exc)))
    else:
        records.append(skip("central-hit-mean", "requires a lazy chain"))
    return records


# ---------------------------------------------------------------------------
# measured block-crossing constants


def _suite_block_moments(ctx: _Ctx) -> list[Record]:
    """Per-block crossing moments against t_rel and the exit flow.

    These proportionality constants are reported, never asserted: the
    suite measures how tightly block crossings track the relaxation time.
    """
    cls = ctx.sbd
    dec = blocks(ctx.chain, cls.r, cls.delta)
    pi, P = ctx.chain.pi, ctx.chain.P
    t_rel = ctx.t_rel

    records = []
    for j in range(dec.n_blocks):
        if j == dec.central_block:
            continue
        parent = dec.parent(j)
        if parent is None:
            continue
        left_side = j < dec.central_block
        far_blocks = range(0, j + 1) if left_side else range(j, dec.n_blocks)
        far = np.concatenate([dec.blocks[i] for i in far_blocks])
        far_mask = np.zeros(ctx.chain.n, dtype=bool)
        far_mask[far] = True
        pi_far = float(pi[far_mask].sum())
        flow = float(pi[far_mask] @ P[np.ix_(far_mask, ~far_mask)].sum(axis=1))
        phi = flow / pi_far
        side = "left" if left_side else "right"
        records.append(report_value(
            "block-exit-flow", phi, {"block": j, "side": side}))
        x_far = int(far.min()) if left_side else int(far.max())
        dst = KilledSystem.of(ctx.chain, dec.blocks[parent])
        for label, states in (("entry-law", dec.blocks[j]), ("far-end", [x_far])):
            e1, e2 = _crossing_moments(x_far, KilledSystem.of(ctx.chain, states), dst)
            p = {"block": j, "start": label}
            records.append(report_value(
                "block-second-moment-per-mean", e2 / (t_rel * max(e1, 1e-300)),
                p, note="E[T^2] / (t_rel E[T]); reported, not asserted"))
            records.append(report_value(
                "block-second-moment-flow", e2 * phi / t_rel, p,
                note="E[T^2] Phi / t_rel; reported, not asserted"))
    if not records:
        records.append(skip("block-moments", "no non-central blocks"))
    return records


# ---------------------------------------------------------------------------
# registry and drivers


def _record_key(r: Record):
    return (r.inequality, str(sorted((str(k), str(v))
                                     for k, v in r.params.items())))


# Each gate maps a context to the note of its suite's skip row, or to None
# when the suite may run.
_GATES = {
    "lazy": lambda ctx: None if ctx.lazy else "requires a lazy chain",
    "lazy-diagonal": lambda ctx: None if ctx.lazy else "requires a lazy chain (diagonal >= 1/2)",
    "exact": lambda ctx: (None if ctx.exact else
                          f"needs exact hitting profiles (n > {ctx.exact_threshold})"),
    "tree": lambda ctx: (None if ctx.tree[0] is not None else
                         f"not a tree walk: {ctx.tree[1]}"),
    "banded": lambda ctx: (None if ctx.sbd.is_sbd else
                           "; ".join(ctx.sbd.reasons) or "not banded"),
}


class _Suite(NamedTuple):
    """A ``SUITES`` entry, the one driver of its suite.

    Called on a run's context, it checks its ``gates`` (``_GATES`` names)
    in order and gives the suite's one skip row, named ``sid``, at the first
    that fails.  Otherwise it returns the rows of ``body`` as record blocks
    in ``_record_key`` order: a body that sweeps target sets builds its
    blocks in that order, and the ``Record`` rows of any other body are
    sorted and grouped here.
    """

    sid: str
    body: Callable[[_Ctx], list]
    gates: list[str]

    def __call__(self, ctx: _Ctx) -> list[RecordBlock]:
        for gate in self.gates:
            note = _GATES[gate](ctx)
            if note is not None:
                return RecordBlock.from_records([skip(self.sid, note)])
        rows = self.body(ctx)
        if rows and isinstance(rows[0], RecordBlock):
            return rows
        return RecordBlock.from_records(sorted(rows, key=_record_key))


SUITES = {sid: _Suite(sid, body, gates) for sid, body, *gates in (
    # suite id, body, gates in the order they are checked
    ("relaxation", _suite_relaxation, "lazy-diagonal"),
    ("tv-hit", _suite_tv_hit, "lazy-diagonal", "exact"),
    ("set-probability", _suite_set_probability, "lazy", "exact"),
    ("submultiplicativity", _suite_submult),
    ("hit-levels", _suite_hit_levels, "exact"),
    ("escape", _suite_escape),
    ("killed-spectrum", _suite_killed_spectrum),
    ("maximal-function", _suite_maximal),
    ("good-set", _suite_good_set, "lazy"),
    ("martingale-tail", _suite_martingale),
    ("return-time", _suite_return_time),
    ("return-mgf", _suite_return_mgf),
    ("mix-hit", _suite_mix_hit, "lazy", "exact"),
    ("lazy-floor", _suite_lazy_floor, "lazy", "exact"),
    ("continuous-time", _suite_continuous_time),
    ("tree-window", _suite_tree_window, "tree"),
    ("crossing-tails", _suite_crossing_tails, "tree"),
    ("banded", _suite_banded, "banded"),
    ("block-moments", _suite_block_moments, "banded"),
)}

SUITE_IDS = tuple(SUITES)


def run_suites(chain: Chain, suites, params: dict | None = None) -> list[Report]:
    """Evaluate several suites on one chain, sharing every cached quantity.

    ``suites`` lists suite ids; "all" stands for every suite in
    ``SUITE_IDS`` order, and a suite named twice runs once, where it first
    appears.  A run reads five keys of ``params``: ``eps_grid`` and
    ``alpha_grid`` (default ``EPS_GRID`` and ``ALPHA_GRID``), ``sets``
    ("sampled", the default, or "all"), and the integers ``seed`` (7) and
    ``exact_threshold`` (numpy integers too); other keys are ignored, and
    each report echoes ``params`` as given.  The other grids are fixed:
    ``P_GRID``, ``DEVIATION_GRID``, ``WORK_GRID``, ``C_GRID`` and
    ``FUNCTIONS`` seeded test functions.  A ``chain`` that is not a
    :class:`~cutofflab.chain.Chain` raises ``TypeError``; unknown suite
    ids, an empty eps or alpha grid or a value outside (0, 1), an unknown
    set mode and an ``exact_threshold`` or ``seed`` that is not an integer
    raise ``ValueError``, in that order and before any suite runs.

    ``params`` is parsed once, into the ``_Ctx`` every suite shares, and
    each report holds the blocks ``SUITES[sid](ctx)`` returns:
    the suite's one skip row when a gate stated in ``SUITES`` fails, else
    its rows in ``_record_key`` order, by inequality name, then by the
    string form of the sorted ``(key, value)`` parameter pairs.
    """
    if not isinstance(chain, Chain):
        raise TypeError(f"run_suites needs a Chain, not {type(chain).__name__}: build one "
                        "with load_chain (a matrix or ChainSpec) or "
                        "build_tree_chain(spec).chain (a TreeSpec)")
    params = dict(params or {})
    suites = list(dict.fromkeys(s for sid in suites
                                for s in (SUITE_IDS if sid == "all" else (sid,))))
    for sid in suites:
        if sid not in SUITES:
            known = ", ".join(SUITE_IDS)
            raise ValueError(f"unknown suite id {sid!r}; known suites: {known}")
    ctx = _Ctx(chain, params)
    chain_id = fingerprint(chain.P)
    return [Report(sid, chain_id, SUITES[sid](ctx), params) for sid in suites]


def run_suite(chain: Chain, suite: str, params: dict | None = None) -> Report:
    """Evaluate one suite on one chain; see :func:`run_suites`."""
    return run_suites(chain, [suite], params)[0]


# ---------------------------------------------------------------------------
# cutoff scans across a family


@dataclass(eq=False)
class ScanRow:
    """Mixing summary of one family member."""

    family: str
    n: int
    states: int
    t_rel: float
    t_mix: dict[float, int]
    t_mix_high: dict[float, int]
    hit: dict[float, int | None]
    window: dict[float, int]
    ratio: dict[float, float]
    product: float


@dataclass(eq=False)
class CutoffScan:
    """Window/ratio table across sizes, plus observed-trend flags.

    Flags describe the scanned sizes only: ``cutoff-trend`` means the
    ratio t_mix(eps)/t_mix(1-eps) was non-increasing and strictly smaller
    at the last size for every eps; ``product-trend`` means t_mix/t_rel
    was non-decreasing and strictly larger at the last size.  Neither is
    a claim about sizes that were not scanned.
    """

    family: str
    alpha: float
    eps_grid: tuple[float, ...]
    rows: list[ScanRow]
    flags: list[str] = field(default_factory=list)

    COLUMNS = ("family", "n", "states", "eps", "alpha", "t_rel", "t_mix",
               "t_mix_complement", "window", "ratio", "hit", "product")

    def row_dicts(self) -> list[dict]:
        out = []
        for row in self.rows:
            for eps in self.eps_grid:
                out.append({
                    "family": row.family,
                    "n": row.n,
                    "states": row.states,
                    "eps": eps,
                    "alpha": self.alpha,
                    "t_rel": row.t_rel,
                    "t_mix": row.t_mix[eps],
                    "t_mix_complement": row.t_mix_high[eps],
                    "window": row.window[eps],
                    "ratio": row.ratio[eps],
                    "hit": row.hit[eps],
                    "product": row.product,
                })
        return out

    def csv_rows(self) -> list[list]:
        """The cells of ``row_dicts`` in ``COLUMNS`` order, None as ""."""
        return [["" if row[k] is None else row[k] for k in self.COLUMNS]
                for row in self.row_dicts()]

    def to_csv(self, path: str) -> None:
        write_csv_atomic(path, self.COLUMNS, self.csv_rows())


def cutoff_scan(family, sizes, eps_grid=(0.1,), alpha: float = 0.5,
                exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> CutoffScan:
    """Tabulate mixing windows and ratios across increasing sizes.

    ``family`` is a registered family id (see ``families.FAMILIES``) or a
    callable mapping a size to a chain.  Sizes must be nonempty and
    strictly increasing, every level must lie in (0, 1/2), and ``alpha``
    in (0, 1].  Exact hitting times at ``alpha`` are included for members
    small enough to enumerate; larger members get ``None`` in the hit
    column.
    """
    sizes = [int(n) for n in sizes]
    if not sizes:
        raise ValueError("sizes must hold at least one size")
    if not 0.0 < alpha <= 1.0:  # checked here, as no member may enumerate it
        raise ValueError("alpha must be in (0, 1]")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    eps_grid = tuple(float(e) for e in eps_grid)
    if not eps_grid or any(not 0.0 < e < 0.5 for e in eps_grid):
        raise ValueError("every level must lie strictly inside (0, 1/2)")
    if callable(family):
        builder, name = family, getattr(family, "__name__", "custom")
    else:
        if family not in FAMILIES:
            known = ", ".join(sorted(FAMILIES))
            raise ValueError(f"unknown family {family!r}; known: {known}")
        builder, name = FAMILIES[family], family
    rows = []
    for n in sizes:
        chain = builder(n)
        t_rel = float(chain.spectrum.t_rel)
        levels = sorted({*eps_grid, *(1.0 - e for e in eps_grid), 0.25})
        t_at = dict(zip(levels, mixing_times(chain, levels)))
        hit = {e: None for e in eps_grid}
        if _exact_hitting(chain, exact_threshold):
            hp = worst_tail_profile(chain, alpha, exact_threshold=exact_threshold)
            hit = {e: int(hp.hit(e)) for e in eps_grid}
        t_mix = {e: t_at[e] for e in eps_grid}
        t_high = {e: t_at[1.0 - e] for e in eps_grid}
        window, ratio = {}, {}
        for e in eps_grid:
            w = t_mix[e] - t_high[e]
            if w < 0:
                raise IdentityCheckError(
                    f"window is negative at n={n}, eps={e}: {w}")
            window[e] = w
            ratio[e] = (math.inf if t_high[e] == 0
                        else t_mix[e] / t_high[e])
            if ratio[e] < 1.0 - 1e-12:
                raise IdentityCheckError(
                    f"mixing ratio below 1 at n={n}, eps={e}")
        rows.append(ScanRow(family=name, n=n, states=chain.n, t_rel=t_rel,
                            t_mix=t_mix, t_mix_high=t_high, hit=hit,
                            window=window, ratio=ratio,
                            product=t_at[0.25] / t_rel))
    flags = []
    if len(rows) >= 2:
        if all(all(b.ratio[e] <= a.ratio[e] + 1e-12
                   for a, b in zip(rows, rows[1:]))
               and rows[-1].ratio[e] < rows[0].ratio[e] - 1e-12
               for e in eps_grid):
            flags.append("cutoff-trend")
        prods = [r.product for r in rows]
        if (all(b >= a - 1e-12 for a, b in zip(prods, prods[1:]))
                and prods[-1] > prods[0] + 1e-12):
            flags.append("product-trend")
    return CutoffScan(family=name, alpha=float(alpha), eps_grid=eps_grid,
                      rows=rows, flags=flags)
