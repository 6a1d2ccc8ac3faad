"""Banded chains on ordered state spaces: classification, block structure,
and block-crossing statistics.

A chain on states 0..n-1 is (delta, r)-banded when every jump is at most
r positions and every nearest-neighbor transition has probability at
least delta.  Such chains cross consecutive size-r blocks in a skip-free
order, which makes the block-crossing times amenable to exact solves and
to the correlation bound checked by :func:`block_correlation_mc`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .chain import Chain
from .hitting import DEFAULT_EXACT_THRESHOLD, IdentityCheckError, KilledSystem, _candidate_sets
from .oracle import MCEstimate, uniform_block
from .reporting import Record, check_le, report_value, skip

__all__ = [
    "SBDClassification",
    "classify_sbd",
    "BlockDecomposition",
    "blocks",
    "comparable_start_bound",
    "CentralBlockHit",
    "central_block_hit",
    "BlockCorrelationMC",
    "block_correlation_mc",
]


@dataclass(frozen=True)
class SBDClassification:
    """Band width r, nearest-neighbor floor delta, and the mixing fraction
    alpha(delta, r) = 1 - delta^r / (4 (r + delta^r)) when the chain
    qualifies."""

    is_sbd: bool
    r: int
    delta: float
    alpha: float | None
    reasons: tuple[str, ...] = ()


def classify_sbd(chain: Chain, tol: float = 0.0) -> SBDClassification:
    """Classify a chain as (delta, r)-banded in its given state order.

    r is the widest jump with probability above ``tol``; delta is the
    smallest nearest-neighbor probability.  Qualification additionally
    requires reversibility, laziness, and delta > 0.
    """
    P = chain.P
    n = chain.n
    idx = np.arange(n)
    off = np.abs(idx[:, None] - idx[None, :])
    support = P > tol
    np.fill_diagonal(support, False)
    if not support.any():
        return SBDClassification(False, 0, 0.0, None, ("no off-diagonal transitions",))
    r = int(off[support].max())
    nn = np.concatenate([np.diagonal(P, 1), np.diagonal(P, -1)])
    delta = float(nn.min()) if nn.size else 0.0
    reasons = []
    if not chain.is_reversible:
        reasons.append("not reversible")
    if not chain.is_lazy:
        reasons.append("not lazy")
    if delta <= tol:
        reasons.append("some nearest-neighbor transition has zero probability")
    if reasons:
        return SBDClassification(False, r, delta, None, tuple(reasons))
    alpha = 1.0 - delta ** r / (4.0 * (r + delta ** r))
    return SBDClassification(True, r, delta, alpha, ())


@dataclass(eq=False)
class BlockDecomposition:
    """Consecutive size-r blocks, ordered toward the central block.

    ``blocks[j]`` is the ascending array of states in block j; the parent
    of a non-central block is its neighbor one step toward the center.
    """

    r: int
    delta: float
    blocks: list[np.ndarray]
    central_state: int
    central_block: int
    central_mass: float
    central_mass_bound: float | None
    block_of: np.ndarray = field(repr=False)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def parent(self, j: int) -> int | None:
        if j == self.central_block:
            return None
        return j + 1 if j < self.central_block else j - 1

    def path_to_central(self, state: int) -> list[int]:
        """Block indices from the state's block to the central block."""
        j = int(self.block_of[state])
        path = [j]
        while path[-1] != self.central_block:
            path.append(self.parent(path[-1]))
        return path


def blocks(chain: Chain, r: int, delta: float | None = None) -> BlockDecomposition:
    """Partition 0..n-1 into consecutive blocks of size r.

    The central state is the smallest i whose strictly-left and
    strictly-right stationary masses are both at most 1/2; for a
    qualified banded chain the central block's mass can be at most
    r / (r + delta^r), and a violation raises.
    """
    n = chain.n
    if r < 1:
        raise ValueError("block size must be at least 1")
    if r >= n:
        raise ValueError("block size r >= n would yield a single block")
    pi = chain.pi
    below = np.concatenate([[0.0], np.cumsum(pi)[:-1]])
    above = 1.0 - below - pi
    feasible = np.nonzero((below <= 0.5 + 1e-12) & (above <= 0.5 + 1e-12))[0]
    central_state = int(feasible[0])
    parts = [np.arange(lo, min(lo + r, n)) for lo in range(0, n, r)]
    block_of = np.repeat(np.arange(len(parts)), [p.size for p in parts])
    central_block = int(block_of[central_state])
    central_mass = float(pi[parts[central_block]].sum())
    if delta is None:
        cls = classify_sbd(chain)
        delta = cls.delta if cls.is_sbd else 0.0
    bound = None
    if delta > 0:
        bound = r / (r + delta ** r)
        if central_mass > bound + 1e-12:
            raise IdentityCheckError(
                f"central block mass {central_mass:.6g} exceeds "
                f"r/(r + delta^r) = {bound:.6g}")
    return BlockDecomposition(r=r, delta=float(delta), blocks=parts,
                              central_state=central_state,
                              central_block=central_block,
                              central_mass=central_mass,
                              central_mass_bound=bound,
                              block_of=block_of)


def comparable_start_bound(chain: Chain, interval, target, r: int | None = None,
                           delta: float | None = None) -> list[Record]:
    """Hitting times of a fixed target from anywhere in a short interval
    agree up to a factor delta^(-r).

    ``interval`` is an inclusive index pair (lo, hi) with hi - lo < r and
    no overlap with the target.  When the target sits entirely on one
    side of the interval, the averaged variant is checked as well: each
    in-interval start is bounded by delta^(-r) times the mean hitting
    time under the stationary law restricted to the interval's side.
    """
    if r is None or delta is None:
        cls = classify_sbd(chain)
        if not cls.is_sbd:
            return [skip("interval-comparable-hitting",
                         "chain is not banded: " + "; ".join(cls.reasons))]
        r = r if r is not None else cls.r
        delta = delta if delta is not None else cls.delta
    lo, hi = int(interval[0]), int(interval[1])
    if not (0 <= lo <= hi < chain.n) or hi - lo + 1 > r:
        raise ValueError("interval must be inclusive (lo, hi) with length <= r")
    ks = KilledSystem(chain, target)
    I = np.arange(lo, hi + 1)
    if np.intersect1d(I, ks.A).size:
        raise ValueError("interval must be disjoint from the target")
    h = ks.mean
    factor = delta ** (-r)
    params = {"interval": (lo, hi), "target": ks.A.tolist(), "r": r, "delta": delta}
    records = [check_le("interval-comparable-hitting",
                        float(h[I].max()), factor * float(h[I].min()),
                        params=params)]
    members = ks.A
    pi = chain.pi
    if members.max() < lo:
        side = np.arange(lo, chain.n)
        avg = float(pi[side] @ h[side] / pi[side].sum())
        records.append(check_le("interval-average-comparable",
                                float(h[I].max()), factor * avg,
                                params={**params, "side": "right-of-target"}))
    elif members.min() > hi:
        side = np.arange(0, hi + 1)
        avg = float(pi[side] @ h[side] / pi[side].sum())
        records.append(check_le("interval-average-comparable",
                                float(h[I].max()), factor * avg,
                                params={**params, "side": "left-of-target"}))
    else:
        records.append(skip("interval-average-comparable",
                            "target straddles the interval", params))
    return records


def _hit_distribution(x: int, ks: KilledSystem) -> np.ndarray:
    """Law over ``ks.A`` of the state at which T_A is first attained,
    started from x."""
    inside = np.flatnonzero(ks.A == x)
    if inside.size:
        nu = np.zeros(ks.A.size)
        nu[inside[0]] = 1.0
        return nu
    row = ks.exit_law[ks.position(x)]
    total = row.sum()
    if not np.isclose(total, 1.0, atol=1e-9):
        raise IdentityCheckError("hitting distribution does not sum to 1; "
                                 "target may be unreachable")
    return row / total


def _crossing_moments(x: int, src: KilledSystem, dst: KilledSystem) -> tuple[float, float]:
    """Mean and second moment of T(dst) - T(src) from x, when the walk
    must reach src before dst (skip-free block order), from the killed
    systems of both sets, whose solves callers share."""
    nu = _hit_distribution(x, src)
    return float(nu @ dst.mean[src.A]), float(nu @ dst.second_moment[src.A])


@dataclass(eq=False)
class CentralBlockHit:
    """Exact statistics of the time to reach the central block from x,
    plus measured (not asserted) proportionality constants relating
    block-crossing moments to the relaxation time."""

    x: int
    mean: float
    variance: float
    tau_profile: dict[float, int]
    crossing_constants: dict[int, float]
    comparison_constant: float
    records: list[Record]


def central_block_hit(chain: Chain, dec: BlockDecomposition, x: int | None = None,
                      eps_grid=(1 / 16, 1 / 8, 1 / 4),
                      exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> CentralBlockHit:
    """Exact mean/variance/quantiles of the central-block hitting time.

    The start must lie outside the central block (the default is the
    state with the largest mean).  For every block on the path from x to
    the center, the measured constant E[tau_b^2] / (t_rel * E[tau_b]) is
    reported; so are max_y E_y[T_center] / t_rel and the worst-set
    constant delta^r max E_v[T_C] / t_rel over large sets C and central
    starts v.  All constants are reported for inspection only.
    """
    chain.require(reversible=True, lazy=True)
    ks = KilledSystem(chain, dec.blocks[dec.central_block])
    h, m = ks.mean, ks.second_moment
    if x is None:
        x = int(np.argmax(h))
    x = int(x)
    if int(dec.block_of[x]) == dec.central_block:
        raise ValueError("x lies in the central block; pick a start outside it")
    mean = float(h[x])
    var = max(float(m[x] - h[x] ** 2), 0.0)
    t_rel = chain.spectrum.t_rel
    records = [report_value("central-hit-mean", mean, {"x": x}),
               report_value("central-hit-variance", var, {"x": x})]

    # quantile profile by killed-kernel iteration
    tau_profile: dict[float, int] = {}
    pos = ks.position(x)
    target = min(eps_grid)
    tails = []
    for surv in ks.survival():
        tails.append(float(surv[pos]))
        if tails[-1] <= target or len(tails) >= 10 ** 7:
            break
    for e in eps_grid:
        tau_profile[float(e)] = int(np.searchsorted(-np.array(tails), -e,
                                                    side="left"))
    for e, t in tau_profile.items():
        records.append(report_value("central-hit-quantile", t, {"x": x, "eps": e}))

    crossing: dict[int, float] = {}
    path = dec.path_to_central(x)
    # each block's system is the destination of one crossing and the
    # source of the next; the central block's is ks
    systems = [KilledSystem(chain, dec.blocks[b]) for b in path[:-1]] + [ks]
    for b, src, dst in zip(path, systems, systems[1:]):
        e1, e2 = _crossing_moments(x, src, dst)
        const = e2 / (t_rel * e1) if e1 > 0 else 0.0
        crossing[b] = const
        records.append(report_value("block-crossing-constant", const,
                                    {"block": b, "mean": e1, "second_moment": e2}))
    comparison = float(h.max()) / t_rel
    records.append(report_value("central-hit-over-t_rel", comparison, {}))
    if dec.delta > 0:
        level = 1.0 - dec.delta ** dec.r / (4.0 * (dec.r + dec.delta ** dec.r))
        central = ks.A
        sets, exact = _candidate_sets(chain, level, exact_threshold,
                                      starts=[int(v) for v in central])
        worst = 0.0
        for mask in sets:
            h_big = KilledSystem(chain, np.nonzero(mask)[0]).mean
            worst = max(worst, float(h_big[central].max()))
        records.append(report_value(
            "worst-set-hit-constant", dec.delta ** dec.r * worst / t_rel,
            {"set_mass_at_least": level, "exact": exact}))
    else:
        records.append(skip("worst-set-hit-constant",
                            "no nearest-neighbor probability floor", {}))
    return CentralBlockHit(x=x, mean=mean, variance=var, tau_profile=tau_profile,
                           crossing_constants=crossing,
                           comparison_constant=comparison, records=records)


# ---------------------------------------------------------------------------
# Monte Carlo check of the block-crossing correlation bound


_ROUND_STEPS = 64
_CHUNK_PATHS = 8192


def _staged_times(chain: Chain, x: int, stage_masks: list[np.ndarray],
                  paths: int, seed: int, t_cap: int) -> np.ndarray:
    """First-passage times through an ordered list of target sets.

    Returns an array (paths, len(stage_masks)); stage s is timed from the
    walk's start, advancing to stage s+1 the moment stage s's set is hit
    (several stages can fire on the same step if their sets coincide).
    Uniform draws are indexed by (round, path) so chunking never changes
    the sample.
    """
    n_stages = len(stage_masks)
    cum = np.cumsum(chain.P, axis=1)
    cum[:, -1] = 1.0
    out = np.empty((paths, n_stages), dtype=np.int64)

    def settle(states, ptr, times, t, sel_pool):
        moved = True
        while moved:
            moved = False
            for s in range(n_stages):
                sel = sel_pool & (ptr == s) & stage_masks[s][states]
                if sel.any():
                    times[sel, s] = t
                    ptr[sel] += 1
                    moved = True

    for lo in range(0, paths, _CHUNK_PATHS):
        hi = min(lo + _CHUNK_PATHS, paths)
        m = hi - lo
        states = np.full(m, x, dtype=int)
        ptr = np.zeros(m, dtype=np.int64)
        times = np.zeros((m, n_stages), dtype=np.int64)
        settle(states, ptr, times, 0, np.ones(m, dtype=bool))
        t = 0
        rnd = 0
        while (ptr < n_stages).any():
            if t >= t_cap:
                raise RuntimeError("simulation cap reached; raise t_cap")
            u = uniform_block(seed, (rnd * paths + lo) * _ROUND_STEPS,
                              (m, _ROUND_STEPS))
            for h in range(_ROUND_STEPS):
                active = ptr < n_stages
                if not active.any():
                    break
                idx = np.nonzero(active)[0]
                rows = cum[states[idx]]
                states[idx] = (rows <= u[idx, h][:, None]).sum(axis=1)
                t += 1
                settle(states, ptr, times, t, active)
            rnd += 1
        out[lo:hi] = times
    return out


@dataclass(eq=False)
class BlockCorrelationMC:
    """Outcome of the simulated check that two block-crossing times are
    nearly uncorrelated: E[tau_i tau_j] against
    E[tau_i] E[tau_j] (1 + (1 - delta^r)^gap / delta^r)."""

    estimate: MCEstimate
    mean_i: float
    mean_j: float
    bound: float
    gap: int
    passed: bool
    record: Record


def block_correlation_mc(chain: Chain, dec: BlockDecomposition, x: int,
                         block_i: int, block_j: int, paths: int, seed: int,
                         t_cap: int | None = None,
                         z_score: float = 1.96) -> BlockCorrelationMC:
    """Simulate E[tau_i tau_j] for two crossings on the path from x.

    tau_b is the time to go from first entering block b to first entering
    its parent.  The exact means come from linear solves; only the
    product moment is simulated, and the test passes when the lower
    ``z_score``-confidence end of the estimate respects the bound.
    """
    chain.require(reversible=True, lazy=True)
    if paths < 10_000:
        warnings.warn("fewer than 10^4 paths: the confidence interval on the "
                      "product moment may be too wide to be informative",
                      stacklevel=2)
    path = dec.path_to_central(x)
    if block_i not in path or block_j not in path:
        raise ValueError("both blocks must lie on the path from x to the center")
    pos_i, pos_j = path.index(block_i), path.index(block_j)
    if pos_i >= pos_j:
        raise ValueError("block_i must precede block_j on the path")
    if block_j == dec.central_block:
        raise ValueError("block_j must have a parent (not the central block)")
    order = (block_i, dec.parent(block_i), block_j, dec.parent(block_j))
    killed = {b: KilledSystem(chain, dec.blocks[b]) for b in set(order)}
    src_i, dst_i, src_j, dst_j = (killed[b] for b in order)
    stages = []
    for b in order:
        mask = np.zeros(chain.n, dtype=bool)
        mask[dec.blocks[b]] = True
        stages.append(mask)

    h_final = dst_j.mean
    if t_cap is None:
        t_cap = int(max(10000, 200 * h_final[x],
                        50 * chain.spectrum.t_rel * np.log(100.0 * paths)))
    times = _staged_times(chain, x, stages, paths, seed, t_cap)
    tau_i = (times[:, 1] - times[:, 0]).astype(float)
    tau_j = (times[:, 3] - times[:, 2]).astype(float)
    prod = tau_i * tau_j
    est = float(prod.mean())
    se = float(prod.std(ddof=1) / np.sqrt(paths))
    estimate = MCEstimate(value=est, standard_error=se, paths=paths, seed=seed,
                          note=f"E[tau_{block_i} tau_{block_j}] from x={x}")

    mean_i, _ = _crossing_moments(x, src_i, dst_i)
    mean_j, _ = _crossing_moments(x, src_j, dst_j)
    gap = pos_j - pos_i - 1
    dr = dec.delta ** dec.r
    bound = mean_i * mean_j * (1.0 + (1.0 - dr) ** gap / dr)
    record = check_le("block-correlation-ci",
                      est - z_score * se, bound,
                      params={"x": x, "block_i": block_i, "block_j": block_j,
                              "paths": paths, "seed": seed, "gap": gap,
                              "z": z_score},
                      note="lower confidence end of the simulated product moment")
    return BlockCorrelationMC(estimate=estimate, mean_i=mean_i, mean_j=mean_j,
                              bound=bound, gap=gap, passed=record.passed,
                              record=record)
