"""Example chain families and seeded random generators.

All constructors return fully validated :class:`~cutofflab.chain.Chain`
objects (or a :class:`~cutofflab.trees.TreeSpec` for random trees) with
exact stationary vectors wherever a detailed-balance weight representation
exists.  Randomized families are deterministic functions of their seed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .chain import Chain, ChainSpec, load_chain
from .trees import TreeSpec

__all__ = [
    "biased_path",
    "plateau_chain",
    "two_cliques",
    "random_reversible",
    "random_tree",
    "birth_death",
    "random_corpus",
    "FAMILIES",
]


# the largest n whose pi(0) > 3^-(n-1) / 1.5 is a positive double
BIASED_PATH_MAX_N = 1 + int((np.log(2 / 3) - np.log(np.finfo(float).smallest_subnormal))
                            / np.log(3))


def biased_path(n: int) -> Chain:
    """Lazy nearest-neighbor walk on 0..n-1 with a 3:1 rightward drift.

    Interior rows are (1/8, 1/2, 3/8); the missing move at each end is
    folded into the holding probability (5/8 at the left end, 7/8 at the
    right).  The stationary law is the exact geometric pi(i) ~ 3^i, whose
    pi(0) leaves the double range past ``BIASED_PATH_MAX_N`` states.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > BIASED_PATH_MAX_N:
        raise ValueError(f"biased-path needs n <= {BIASED_PATH_MAX_N}: beyond it pi(0) "
                         "is below the smallest positive double")
    P = np.zeros((n, n))
    for i in range(n):
        P[i, i] = 0.5
        if i > 0:
            P[i, i - 1] = 0.125
        else:
            P[i, i] += 0.125
        if i < n - 1:
            P[i, i + 1] = 0.375
        else:
            P[i, i] += 0.375
    logw = np.arange(n) * np.log(3.0)
    w = np.exp(logw - logw.max())
    pi = w / w.sum()
    return load_chain(ChainSpec(P=P, pi=pi))


def _plateau_fraction_rows(n: int) -> tuple[list[int], dict[int, dict[int, Fraction]]]:
    """Exact transition rows of the branch-and-segment plateau chain.

    State space: a slow even segment -10n, -10n+2, ..., -2 feeding into 0,
    plus two parallel routes 0 -> 2 -> 4 -> ... -> 2n -> 2n+1 and
    0 -> 1 -> 3 -> ... -> 2n-1 -> 2n+1 that merge at a sticky endpoint.
    The two routes advance at different speeds, which stalls worst-case
    total variation on a long plateau instead of letting it cut off.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    states = list(range(-10 * n, 0, 2)) + [0] + list(range(1, 2 * n + 2))
    F = Fraction
    rows: dict[int, dict[int, Fraction]] = {}
    top = 2 * n + 1
    for v in states:
        row: dict[int, Fraction] = {}
        if v == 0:
            row[0] = F(1, 2)
            row[2] = F(1, 5)
            row[1] = F(1, 5)
            row[-2] = F(1, 10)
        elif v < 0:
            row[v] = F(1, 2)
            if v == -10 * n:
                row[v + 2] = F(1, 2)
            else:
                row[v + 2] = F(1, 3)
                row[v - 2] = F(1, 6)
        elif v == top:
            row[v] = F(9, 10)
            row[2 * n] = F(1, 20)
            row[2 * n - 1] = F(1, 20)
        elif v % 2 == 0:  # fast even route
            row[v] = F(1, 2)
            row[min(v + 2, top)] = F(1, 3)
            row[v - 2] = F(1, 6)
        else:  # slow odd route
            row[v] = F(3, 4)
            row[min(v + 2, top)] = F(1, 6)
            row[max(v - 2, 0)] = F(1, 12)
        if sum(row.values()) != 1:
            raise RuntimeError(f"row for state {v} does not sum to 1; construction bug")
        rows[v] = row
    return states, rows


def plateau_chain(n: int) -> Chain:
    """Branch-and-segment chain whose worst-case TV distance plateaus.

    Rows are built in exact rational arithmetic and converted to floats;
    the stationary vector comes from exact detailed-balance ratios along
    a spanning tree of the support.
    """
    states, rows = _plateau_fraction_rows(n)
    index = {v: i for i, v in enumerate(states)}
    m = len(states)
    P = np.zeros((m, m))
    for v, row in rows.items():
        for u, p in row.items():
            P[index[v], index[u]] = float(p)
    # exact stationary ratios: pi(v) = pi(u) P(u,v) / P(v,u) along a BFS tree
    ratio: dict[int, Fraction] = {0: Fraction(1)}
    queue = [0]
    while queue:
        u = queue.pop()
        for v, p_uv in rows[u].items():
            if v not in ratio and v != u:
                ratio[v] = ratio[u] * p_uv / rows[v][u]
                queue.append(v)
    total = sum(ratio[v] for v in states)
    pi = np.array([float(ratio[v] / total) for v in states])
    return load_chain(ChainSpec(P=P, pi=pi, labels=[str(v) for v in states]))


def two_cliques(n: int) -> Chain:
    """Two n-cliques joined by one edge, with a pendant biased path.

    The path has ``ceil(ln n)`` edges attached to clique vertex 0, with
    weights doubling toward the clique, so a walk started at the far end
    drifts home at net speed 1/6 per step.  Unit clique weights, one unit
    bridge edge between vertex 1 and the second clique, holding 1/2
    everywhere; pi is proportional to total incident weight.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k = int(np.ceil(np.log(n))) if n > 2 else 1
    k = max(k, 1)
    m = 2 * n + k
    W = np.zeros((m, m))
    for a in range(n):
        for b in range(a + 1, n):
            W[a, b] = W[b, a] = 1.0
    for a in range(n, 2 * n):
        for b in range(a + 1, 2 * n):
            W[a, b] = W[b, a] = 1.0
    W[1, n] = W[n, 1] = 1.0  # bridge
    prev = 0
    for j in range(1, k + 1):  # path vertex d_j sits at index 2n + j - 1
        d = 2 * n + j - 1
        W[prev, d] = W[d, prev] = float(2 ** (k - j))
        prev = d
    deg = W.sum(axis=1)
    P = 0.5 * (W / deg[:, None])
    np.fill_diagonal(P, 0.5)
    pi = deg / deg.sum()
    return load_chain(ChainSpec(P=P, pi=pi))


def random_reversible(n: int, density: float = 0.5, seed: int = 0,
                      holding_range: tuple[float, float] = (0.5, 0.7)) -> Chain:
    """Lazy reversible walk from random symmetric weights on a connected graph.

    A random attachment tree guarantees connectivity; extra edges appear
    independently with probability ``density``.  Weights are log-normal,
    holdings are drawn per state from ``holding_range`` (>= 1/2), and pi
    is exact from the weight representation.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 <= density <= 1:
        raise ValueError("density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    for v in range(1, n):
        u = int(rng.integers(0, v))
        W[u, v] = W[v, u] = rng.lognormal(0.0, 0.75)
    for u in range(n):
        for v in range(u + 1, n):
            if W[u, v] == 0 and rng.random() < density:
                W[u, v] = W[v, u] = rng.lognormal(0.0, 0.75)
    h = rng.uniform(holding_range[0], holding_range[1], size=n)
    deg = W.sum(axis=1)
    P = (1.0 - h)[:, None] * (W / deg[:, None])
    np.fill_diagonal(P, 0.0)
    P += np.diag(1.0 - P.sum(axis=1))
    pi = deg / (1.0 - h)
    pi = pi / pi.sum()
    return load_chain(ChainSpec(P=P, pi=pi))


def random_tree(n: int, seed: int = 0) -> TreeSpec:
    """Uniform random attachment tree with log-normal edge weights and
    holdings drawn per vertex from [1/2, 3/4)."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.lognormal(0.0, 1.0))))
    holding = rng.uniform(0.5, 0.75, size=n)
    spec = TreeSpec(n=n, edges=edges, holding=holding)
    spec.validate()
    return spec


def birth_death(up_rates, down_rates, holding) -> Chain:
    """Tridiagonal chain from explicit up/down/holding probabilities.

    ``up_rates[i] = P(i, i+1)`` and ``down_rates[i] = P(i+1, i)``; rows
    must sum to one exactly (within validation tolerance).  The stationary
    vector is the exact detailed-balance product.
    """
    up = np.asarray(up_rates, dtype=float)
    down = np.asarray(down_rates, dtype=float)
    h = np.asarray(holding, dtype=float)
    n = h.size
    if up.shape != (n - 1,) or down.shape != (n - 1,):
        raise ValueError("rate vectors must have length n - 1")
    if up.min() <= 0 or down.min() <= 0:
        raise ValueError("up/down rates must be positive")
    P = np.zeros((n, n))
    for i in range(n):
        P[i, i] = h[i]
        if i < n - 1:
            P[i, i + 1] = up[i]
        if i > 0:
            P[i, i - 1] = down[i - 1]
    logr = np.concatenate([[0.0], np.cumsum(np.log(up) - np.log(down))])
    w = np.exp(logr - logr.max())
    pi = w / w.sum()
    return load_chain(ChainSpec(P=P, pi=pi))


def random_corpus(count: int, seed: int, n_range: tuple[int, int] = (3, 12)) -> list[Chain]:
    """A reproducible batch of random reversible lazy chains."""
    rng = np.random.default_rng(seed)
    chains = []
    for _ in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        density = float(rng.uniform(0.35, 0.9))
        sub_seed = int(rng.integers(0, 2 ** 62))
        chains.append(random_reversible(n, density=density, seed=sub_seed))
    return chains


# Deterministic size-parameterized families, keyed by their command-line ids.
FAMILIES = {
    "biased-path": biased_path,
    "aldous": plateau_chain,
    "two-cliques": two_cliques,
}
