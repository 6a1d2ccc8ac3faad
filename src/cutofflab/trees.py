"""Weighted-tree walks: crossing times, concentration, and mixing windows.

A tree walk is specified by positive edge weights and per-vertex holding
probabilities (at least 1/2): from u the walk stays with probability
``holding[u]`` and otherwise moves to a neighbor with probability
proportional to the edge weight.  Detailed balance gives
``pi(u) proportional to W(u) / (1 - holding[u])`` with W the weight sum
at u.

The tree is rooted at a central vertex (every component of the complement
has stationary mass at most 1/2), which makes each edge-crossing time obey
``E_u[T_parent^2] <= 4 E_u[T_parent] t_rel`` and turns hitting times of
ancestors into sums of independent crossings -- the engine behind the
variance, window, and sub-gaussian tail checks here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .chain import Chain, ChainSpec, load_chain, write_json_atomic
from .hitting import IdentityCheckError, KilledSystem
from .reporting import Record, check_le, skip

__all__ = [
    "TreeSpec",
    "RootedTreeChain",
    "build_tree_chain",
    "tree_from_chain",
    "CrossingTime",
    "crossing_time",
    "PathVariance",
    "path_variance",
    "tau_root",
    "window_rows",
    "tail_bound_check",
    "tree_to_json",
    "tree_from_json",
]


@dataclass(eq=False)
class TreeSpec:
    """Edge-weighted tree with holding probabilities.

    ``edges`` is a list of (u, v, weight) with 0-based vertex indices;
    ``holding[u]`` is the laziness at u and must be at least 1/2.
    """

    n: int
    edges: list[tuple[int, int, float]]
    holding: np.ndarray

    def validate(self) -> None:
        if self.n < 2:
            raise ValueError("tree needs at least two vertices")
        if len(self.edges) != self.n - 1:
            raise ValueError(f"a tree on {self.n} vertices has {self.n - 1} edges, "
                             f"got {len(self.edges)}")
        h = np.asarray(self.holding, dtype=float)
        if h.shape != (self.n,):
            raise ValueError("holding vector has wrong length")
        if h.min() < 0.5 - 1e-12 or h.max() >= 1.0:
            raise ValueError("holding probabilities must lie in [1/2, 1)")
        seen = set()
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
                raise ValueError(f"bad edge ({u}, {v})")
            if w <= 0:
                raise ValueError(f"edge ({u}, {v}) has non-positive weight")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        # n-1 distinct edges + connectivity equivalent to acyclicity
        if len(_bfs(adj, 0)[1]) != self.n:
            raise ValueError("edge set is not connected")


def _bfs(adj, root: int) -> tuple[np.ndarray, list[int], np.ndarray, list[list[int]]]:
    """Parent array (-1 at the root), breadth-first order, depths and child
    lists from ``root``."""
    parent = np.full(len(adj), -1, dtype=int)
    depth = np.zeros(len(adj), dtype=int)
    children: list[list[int]] = [[] for _ in adj]
    order = [root]
    seen = {root}
    for v in order:
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                parent[u] = v
                depth[u] = depth[v] + 1
                children[v].append(u)
                order.append(u)
    return parent, order, depth, children


def _central_vertex(pi: np.ndarray, adj) -> int:
    """Smallest-index vertex all of whose complement components weigh <= 1/2."""
    parent, order, _, _ = _bfs(adj, 0)
    mass = pi.copy()
    for v in reversed(order[1:]):
        mass[parent[v]] += mass[v]
    for v in range(pi.size):
        worst = 1.0 - mass[v]  # component holding the temporary root's side
        for u in adj[v]:
            if parent[u] == v:
                worst = max(worst, mass[u])
        if worst <= 0.5 + 1e-12:
            return v
    raise RuntimeError("no central vertex found; tree masses are inconsistent")


@dataclass(eq=False)
class RootedTreeChain:
    """A tree walk rooted at its central vertex.

    ``parent[u]`` is the next vertex toward the root (-1 at the root),
    ``depth[u]`` its edge count to the root, ``children[u]`` its child
    list, ``subtree_mass[u]`` the stationary mass of u's subtree, and
    ``mu[u]`` the one-step probability of moving from u to its parent.
    ``chain`` is the chain the walk was rooted from, so the tree checks
    share its spectrum and its one :class:`KilledSystem` per target
    (``KilledSystem.of``), whose tail scans every reader extends, and the
    object keeps one :class:`CrossingTime` per vertex (``crossing_time``).
    """

    chain: Chain
    root: int
    parent: np.ndarray
    depth: np.ndarray
    children: list[list[int]]
    subtree_mass: np.ndarray
    mu: np.ndarray

    def __post_init__(self) -> None:
        self._crossings: dict[int, CrossingTime] = {}

    @property
    def n(self) -> int:
        return self.chain.n

    @property
    def pi(self) -> np.ndarray:
        return self.chain.pi

    @property
    def t_rel(self) -> float:
        return self.chain.spectrum.t_rel

    def path_to_root(self, x: int) -> list[int]:
        path = [x]
        while path[-1] != self.root:
            path.append(int(self.parent[path[-1]]))
        return path

    def subtree(self, u: int) -> np.ndarray:
        """The vertices of u's subtree, ascending."""
        stack, members = [u], []
        while stack:
            v = stack.pop()
            members.append(v)
            stack.extend(self.children[v])
        return np.array(sorted(members))

    @property
    def mean_to_root(self) -> np.ndarray:
        """E_x[T_root] for every x, from the root's killed system."""
        return KilledSystem.of(self.chain, [self.root]).mean


def build_tree_chain(spec: TreeSpec) -> RootedTreeChain:
    """Assemble the walk and its exact stationary law, and root it with
    :func:`tree_from_chain`."""
    spec.validate()
    h = np.asarray(spec.holding, dtype=float)
    W = np.zeros(spec.n)
    for u, v, w in spec.edges:
        W[u] += float(w)
        W[v] += float(w)
    P = np.diag(h)
    for u, v, w in spec.edges:
        P[u, v] = (1.0 - h[u]) * float(w) / W[u]
        P[v, u] = (1.0 - h[v]) * float(w) / W[v]
    pi = W / (1.0 - h)
    return tree_from_chain(load_chain(ChainSpec(P=P, pi=pi / pi.sum())))


def tree_from_chain(chain: Chain) -> RootedTreeChain:
    """Root a reversible chain with tree support at its central vertex.

    The tree is the off-diagonal support of ``P``, which must be symmetric
    with n - 1 edges.  The returned walk holds ``chain`` itself.
    """
    chain.require(reversible=True, irreducible=True)
    n = chain.n
    support = chain.P > 0
    np.fill_diagonal(support, False)
    if not (support == support.T).all():
        raise ValueError("support is not symmetric; not a reversible tree walk")
    edges = int(support.sum()) // 2
    if edges != n - 1:
        raise ValueError(f"support has {edges} undirected edges; a tree needs {n - 1}")
    adj = [np.flatnonzero(row).tolist() for row in support]
    root = _central_vertex(chain.pi, adj)
    parent, order, depth, children = _bfs(adj, root)
    subtree = chain.pi.copy()
    for v in order[:0:-1]:
        subtree[parent[v]] += subtree[v]
    mu = np.zeros(n)
    below = np.flatnonzero(parent >= 0)
    mu[below] = chain.P[below, parent[below]]
    return RootedTreeChain(chain=chain, root=root, parent=parent, depth=depth,
                           children=children, subtree_mass=subtree, mu=mu)


# ---------------------------------------------------------------------------
# crossing times


@dataclass(eq=False)
class CrossingTime:
    """Moments of the time to step from u to its parent edge endpoint;
    ``mean_solve`` is the mean from the direct solve that checks ``mean``."""

    u: int
    mean: float
    second_moment: float
    variance: float
    mean_solve: float


def crossing_time(tc: RootedTreeChain, u: int) -> CrossingTime:
    """Exact crossing-time moments for the edge (u, parent(u)), computed
    once per vertex and kept on ``tc``.

    The mean is the flow formula ``pi(subtree(u)) / (pi(u) mu_u)`` and the
    second moment the entry-law identity
    ``2 t_u E_{pi restricted to subtree}[T_parent] - t_u``; both are
    cross-checked against direct linear solves, and the ceiling
    ``r_u <= 4 t_u t_rel`` (valid under the central rooting) is enforced.
    """
    if u == tc.root:
        raise ValueError("the root has no parent edge")
    if u in tc._crossings:
        return tc._crossings[u]
    pi = tc.pi
    t_u = tc.subtree_mass[u] / (pi[u] * tc.mu[u])
    members = tc.subtree(u)
    ks = KilledSystem.of(tc.chain, np.delete(np.arange(tc.n), members))
    t_u_solve = float(ks.mean[u])
    if abs(t_u - t_u_solve) > 1e-9 * max(1.0, abs(t_u)):
        raise IdentityCheckError(f"crossing mean mismatch: formula {t_u}, solve {t_u_solve}")
    pw = pi[members] / pi[members].sum()
    mean_from_stationary = float(pw @ ks.mean[members])
    r_u = 2.0 * t_u * mean_from_stationary - t_u
    r_u_solve = float(ks.second_moment[u])
    if abs(r_u - r_u_solve) > 1e-9 * max(1.0, abs(r_u)):
        raise IdentityCheckError(f"crossing second moment mismatch: formula {r_u}, solve {r_u_solve}")
    ceiling = 4.0 * t_u * tc.t_rel
    if r_u > ceiling * (1.0 + 1e-9) + 1e-9:
        raise IdentityCheckError(f"crossing second moment {r_u} exceeds 4 t_u t_rel = {ceiling}")
    tc._crossings[u] = CrossingTime(u=u, mean=t_u, second_moment=r_u,
                                    variance=r_u - t_u * t_u, mean_solve=t_u_solve)
    return tc._crossings[u]


def _ancestor_path(tc: RootedTreeChain, x: int, y: int | None) -> list[int]:
    """x's path up to its proper ancestor y (the root when None), ends included."""
    if x == tc.root:
        raise ValueError(f"x = {x} is the root and has no proper ancestor")
    y = tc.root if y is None else y
    path = tc.path_to_root(x)
    if y == x or y not in path:
        raise ValueError(f"{y} is not a proper ancestor of {x}")
    return path[: path.index(y) + 1]


def _two_sided_tails(tc: RootedTreeChain, x: int, y: int, mean: float, c: float,
                     scale: float) -> tuple[float, float]:
    """``Pr_x[T_y >= mean + c scale]`` and ``Pr_x[T_y <= mean - c scale]``,
    read off the one tail scan from x to y; c is positive."""
    scan = KilledSystem.of(tc.chain, [y]).scan(x)
    hi, lo = mean + c * scale, mean - c * scale
    return scan.at(math.ceil(hi) - 1), 0.0 if lo <= 0 else 1.0 - scan.at(math.floor(lo))


@dataclass(eq=False)
class PathVariance:
    """Moments of T_y from x for an ancestor y, via independent crossings."""

    x: int
    y: int
    mean: float
    variance: float
    sigma_sq: float
    tail_records: list[Record]


def path_variance(tc: RootedTreeChain, x: int, y: int | None = None) -> PathVariance:
    """Variance of T_y from x as a sum of independent crossing variances.

    The mean and variance must agree with the direct solve to the target
    (``IdentityCheckError`` otherwise).  The ceiling
    ``Var <= sigma^2 = 4 E_x[T_y] t_rel`` and the one-sided Chebyshev
    consequences ``Pr[T >= mean + c sigma] <= 1/(1+c^2)`` (and the mirrored
    lower tail) for c = 1, 2, 3 are left to the caller to record: the
    result carries ``sigma_sq`` and the tail rows.
    """
    path = _ancestor_path(tc, x, y)
    y = path[-1]
    mean = 0.0
    var = 0.0
    for u in path[:-1]:
        ct = crossing_time(tc, u)
        mean += ct.mean
        var += ct.variance
    # independence of increments: compare with a direct solve to the target
    ks = KilledSystem.of(tc.chain, [y])
    mean_solve, second_solve = float(ks.mean[x]), float(ks.second_moment[x])
    if abs(mean - mean_solve) > 1e-9 * max(1.0, abs(mean)):
        raise IdentityCheckError("path mean disagrees with direct solve")
    var_solve = second_solve - mean_solve ** 2
    if abs(var - var_solve) > 1e-9 * max(1.0, abs(var), second_solve):
        raise IdentityCheckError("crossing variances do not add up to the direct variance")
    sigma_sq = 4.0 * mean * tc.t_rel
    sigma = math.sqrt(sigma_sq)
    records = []
    for c in (1.0, 2.0, 3.0):
        bound = 1.0 / (1.0 + c * c)
        p_hi, p_lo = _two_sided_tails(tc, x, y, mean, c, sigma)
        records.append(check_le("one-sided-upper-tail", p_hi, bound,
                                params={"x": x, "y": y, "c": c, "threshold": float(mean + c * sigma)}))
        records.append(check_le("one-sided-lower-tail", p_lo, bound,
                                params={"x": x, "y": y, "c": c, "threshold": float(mean - c * sigma)}))
    return PathVariance(x=x, y=y, mean=mean, variance=var, sigma_sq=sigma_sq,
                        tail_records=records)


# ---------------------------------------------------------------------------
# root hitting and windows


def tau_root(tc: RootedTreeChain, eps: float) -> int:
    """Smallest t with ``max_x Pr_x[T_root > t] <= eps``; every level reads
    the root's one max-tail scan."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    return KilledSystem.of(tc.chain, [tc.root]).scan().first_below(eps, 1_000_000)


def tau_sandwich_check(tc: RootedTreeChain, eps: float, hit) -> list[Record]:
    """Worst-set sandwich: tau(eps) <= hit_{1/2}(eps) <= tau(eps - delta) + s_delta
    with ``delta = eps / 2`` and ``s_delta = ceil(4 t_rel |ln(4 delta / 9)|)``,
    for the exact worst-set hitting times ``hit(eps)`` at mass 1/2 its
    caller holds."""
    delta = eps / 2.0
    hit = float(hit(eps))
    lo = tau_root(tc, eps)
    s_delta = math.ceil(4.0 * tc.t_rel * abs(math.log(4.0 * delta / 9.0)))
    hi = tau_root(tc, eps - delta) + s_delta
    return [
        check_le("tau-below-worst-set-hit", lo, hit, {"eps": eps}),
        check_le("worst-set-hit-below-shifted-tau", hit, hi,
                 {"eps": eps, "delta": delta, "s_delta": s_delta}),
    ]


def window_rows(tc: RootedTreeChain, t_rel: float, tmix, eps_grid) -> list[Record]:
    """Mixing-window and root-concentration rows of a tree walk with at
    least 3 vertices, from the relaxation time and the mixing times
    ``tmix(eps)`` its caller holds.

    With ``rho = max_x E_x[T_root]``: ``rho <= 4 t_mix(1/4)``, and at each
    level eps in (0, 1/4] (other levels are skipped) the square-root window
    ``t_mix(eps) - t_mix(1-eps) <= 35 sqrt(t_rel t_mix(1/4) / eps)`` and
    the localization of tau_root around rho within
    ``kappa = sqrt(4 rho t_rel / eps)``.
    """
    tq = tmix(0.25)
    rho = float(tc.mean_to_root.max())
    records = [check_le("root-mean-below-4tmix", rho, 4.0 * tq)]
    for eps in eps_grid:
        if eps > 0.25 + 1e-12:
            records.append(skip("mixing-window-sqrt",
                                "level must lie in (0, 1/4]", {"eps": eps}))
            continue
        p = {"eps": eps}
        records.append(check_le(
            "mixing-window-sqrt", float(tmix(eps) - tmix(1.0 - eps)),
            35.0 * math.sqrt(t_rel * tq / eps), p))
        kappa = math.sqrt(4.0 * rho * t_rel / eps)
        records.append(check_le(
            "tau-lower-concentration", rho - kappa,
            float(tau_root(tc, 1.0 - eps)), p))
        records.append(check_le(
            "tau-upper-concentration", float(tau_root(tc, eps)),
            rho + kappa, p))
    return records


def tail_bound_check(tc: RootedTreeChain, x: int, y: int | None = None,
                     c_grid=(0.5, 1.0, 2.0)) -> list[Record]:
    """Sub-gaussian two-sided tail bounds for T_y around its mean.

    For ``b = sqrt(E_x[T_y] t_rel)`` and admissible
    ``c <= 2.5 sqrt(E_x[T_y] / t_rel)`` the exact tails must satisfy
    ``Pr_x[|T_y - E_x[T_y]| >= c b] <= exp(-c^2 / 20)`` on each side.
    Inadmissible c values are recorded as skips; every c must be positive
    and finite.
    """
    bad = [c for c in c_grid if not 0.0 < c < math.inf]
    if bad:
        raise ValueError(f"c must be positive and finite; got {bad}")
    y = _ancestor_path(tc, x, y)[-1]
    t_xy = float(KilledSystem.of(tc.chain, [y]).mean[x])
    b = math.sqrt(t_xy * tc.t_rel)
    c_max = 2.5 * math.sqrt(t_xy / tc.t_rel)
    admissible = [c for c in c_grid if c <= c_max]
    records: list[Record] = []
    if not admissible:
        return [skip("sub-gaussian-tails", f"no admissible c (c_max = {c_max:.3g})",
                     {"x": x, "y": y})]
    for c in c_grid:
        if c > c_max:
            records.append(skip("sub-gaussian-tails", f"c = {c} exceeds c_max = {c_max:.3g}",
                                {"x": x, "y": y, "c": c}))
            continue
        bound = math.exp(-c * c / 20.0)
        p_hi, p_lo = _two_sided_tails(tc, x, y, t_xy, c, b)
        records.append(check_le("sub-gaussian-upper-tail", p_hi, bound,
                                {"x": x, "y": y, "c": c, "b": b}))
        records.append(check_le("sub-gaussian-lower-tail", p_lo, bound,
                                {"x": x, "y": y, "c": c, "b": b}))
    return records


# ---------------------------------------------------------------------------
# JSON round trip


def tree_to_json(spec: TreeSpec, path: str) -> None:
    payload = {
        "vertices": spec.n,
        "edges": [{"u": int(u), "v": int(v), "w": float(w)} for u, v, w in spec.edges],
        "holding": np.asarray(spec.holding, dtype=float).tolist(),
    }
    write_json_atomic(path, payload)


def tree_from_json(path: str) -> TreeSpec:
    """Read a tree file; a payload of the wrong shape raises ``ValueError``."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        edges = [(int(e["u"]), int(e["v"]), float(e["w"])) for e in payload["edges"]]
        spec = TreeSpec(n=int(payload["vertices"]), edges=edges,
                        holding=np.array(payload["holding"], dtype=float))
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise ValueError(f"expected vertices, edges of {{u, v, w}} and holding ({exc!r})") from exc
    spec.validate()
    return spec
