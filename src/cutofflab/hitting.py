"""Hitting-time tails, worst-set hitting profiles, and return-time identities.

For a target set A the killed kernel ``P_B`` (the restriction of P to
``B = complement(A)``) drives everything, and :class:`KilledSystem` is the
one place that computes with it: tails are iterates ``P_B^t 1``, moments
come from the linear systems ``(I - P_B) h = 1`` and
``(I - P_B) m = 2h - 1``, the exit law and the generating function of T_A
from ``(I - P_B) Y = P[B, A]`` and ``(I - z P_B) phi = z P(., A)``, and the
eigen-decomposition of ``P_B`` in the pi-weighted inner product yields the
exact mixture-of-geometrics form of the tail together with its decay
radius.  A ``KilledSystem`` is the one object for a target set, and every
solve with ``I - P_B`` is one of its methods; ``KilledSystem.stack``
serves many targets with equal |B| in batched calls.

The worst-set quantity ``p_x(alpha, t) = max { Pr_x[T_A > t] :
pi(A) >= alpha }`` is computed exactly by enumerating inclusion-minimal
feasible sets (enlarging a target can only shrink the tail) up to a state
count threshold, and by a greedy candidate family above it, in which case
results are flagged as certified lower bounds only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice

import numpy as np

from .chain import Chain
from .mixing import _bisect_monotone

__all__ = [
    "HittingProfile",
    "hitting_tail",
    "WorstTailProfile",
    "worst_tail_profile",
    "HitResult",
    "hit_time",
    "KilledSystem",
    "qs_decomposition",
    "GoodSet",
    "good_set",
    "BlowUpSet",
    "blow_up_set",
    "KacQuantities",
    "kac_quantities",
    "DEFAULT_EXACT_THRESHOLD",
]

DEFAULT_EXACT_THRESHOLD = 14
_FEAS_TOL = 1e-12


class IdentityCheckError(RuntimeError):
    """An exact identity failed beyond numerical tolerance; indicates a bug."""


# ---------------------------------------------------------------------------
# target sets


def _target_mask(chain: Chain, states) -> np.ndarray:
    """Boolean membership of a target given as states: nonempty, in
    0..n-1, duplicates allowed."""
    members = sorted({int(s) for s in states})
    if not members:
        raise ValueError("target set must be nonempty")
    if members[0] < 0 or members[-1] >= chain.n:
        raise ValueError("target state out of range")
    mask = np.zeros(chain.n, dtype=bool)
    mask[members] = True
    return mask


def _start_vector(chain: Chain, start) -> np.ndarray:
    if np.isscalar(start):
        v = np.zeros(chain.n)
        v[int(start)] = 1.0
        return v
    v = np.asarray(start, dtype=float)
    if v.shape != (chain.n,) or v.min() < -1e-15 or abs(v.sum() - 1.0) > 1e-10:
        raise ValueError("start must be a state index or a distribution over states")
    return np.clip(v, 0.0, None)


# ---------------------------------------------------------------------------
# the killed kernel


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``M @ v`` for each matrix-vector pair along the leading axes."""
    if v.ndim == 1:
        return M @ v
    return (M @ v[..., None])[..., 0]


def _vm(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``v @ M`` for each vector-matrix pair along the leading axes."""
    return (v[..., None, :] @ M)[..., 0, :]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for each pair of vectors along the leading axes."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _scalar(x):
    """A Python float for a single target, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


class KilledSystem:
    """The chain killed on entering a target set A.

    Built from the target states, which must be nonempty and in 0..n-1
    (duplicates are dropped).  Holds the target members ``A`` and the
    survivor states ``B = complement(A)``, both in ascending order, the
    killed kernel ``PB = P[B, B]``, ``pi_B = pi(B)`` and
    ``pi_A = 1 - pi_B``.  The rest is computed on first use and kept:

    - ``mean`` and ``second_moment``, the full-space vectors of E_x[T_A]
      and E_x[T_A^2] (zero on A), from ``(I - P_B) h = 1`` and
      ``(I - P_B) m = 2h - 1``; the second solve runs only when
      ``second_moment`` is read;
    - ``exit_law``, whose row i is the law of X_{T_A} over ``A`` from
      ``B[i]``, from ``(I - P_B) Y = P[B, A]``;
    - ``mgf(start, z)``, the generating function E[z^{T_A}] (one target);
    - ``survival()``, the sequence ``P_B^t 1`` for t = 0, 1, ... in
      survivor coordinates (entry i belongs to state ``B[i]``);
    - the eigensystem of the symmetrized killed kernel
      ``diag(sqrt pi_B) P_B diag(1/sqrt pi_B)``: a real spectrum
      ``gammas`` in descending order, and ``weights`` such that the tail
      from pi conditioned on B is ``sum_i weights_i gamma_i^t``
      (continuized: ``exp(-(1 - gamma_i) t)``), nonnegative and adding to
      one.  Powers are taken in closed form, so a tail at very large t
      costs one vector operation.  Only this part requires a reversible
      chain;
    - ``kac()``, the return-time quantities of :class:`KacQuantities`.

    :meth:`stack` builds one system for k targets whose complements have
    the same size m.  Every array and result then carries a leading target
    axis of length k (``B`` is k x m, ``PB`` k x m x m, ``pi_B`` has
    length k, ``A`` is k x |A|, ``mean`` is k x n), and each eigensystem,
    moment solve and survival step is one batched call over the stack.  A
    system built from one target is the one-element case without that
    axis, with Python floats for its scalars.
    """

    def __init__(self, chain: Chain, A):
        self._setup(chain, ~_target_mask(chain, A))

    @classmethod
    def stack(cls, chain: Chain, masks) -> "KilledSystem":
        """One system for the targets given as the rows of a boolean k x n
        array; every row must leave the same number of survivors."""
        keep = ~np.asarray(masks, dtype=bool)
        if keep.ndim != 2 or keep.shape[0] == 0 or keep.shape[1] != chain.n:
            raise ValueError("masks must be a nonempty k x n boolean array")
        sizes = keep.sum(axis=1)
        if np.any(sizes != sizes[0]):
            raise ValueError("stacked targets must have complements of equal size")
        ks = cls.__new__(cls)
        ks._setup(chain, keep)
        return ks

    @classmethod
    def stacks(cls, chain: Chain, masks) -> list[tuple[np.ndarray, "KilledSystem"]]:
        """One :meth:`stack` per complement size for the targets given as the
        rows of a boolean k x n array, each with the row positions of its
        targets, in ascending order of |B|."""
        masks = np.asarray(masks, dtype=bool).reshape(-1, chain.n)
        survivors = (~masks).sum(axis=1)
        return [(idx, cls.stack(chain, masks[idx]))
                for idx in (np.flatnonzero(survivors == m) for m in np.unique(survivors))]

    def _setup(self, chain: Chain, keep: np.ndarray) -> None:
        self.chain = chain
        lead = keep.shape[:-1]
        self.A = np.nonzero(~keep)[-1].reshape(lead + (-1,))
        self.B = np.nonzero(keep)[-1].reshape(lead + (-1,))
        self.PB = chain.P[self.B[..., :, None], self.B[..., None, :]]
        self.pi_B = _scalar(chain.pi[self.B].sum(axis=-1))
        self.pi_A = 1.0 - self.pi_B

    def position(self, x: int) -> int:
        """Index of state x in survivor coordinates (one target)."""
        where = np.flatnonzero(self.B == int(x))
        if where.size == 0:
            raise ValueError(f"state {x} lies in the target")
        return int(where[0])

    def _full(self, v_B: np.ndarray) -> np.ndarray:
        """Full-space array equal to ``v_B`` on B and zero on A."""
        out = np.zeros(self.B.shape[:-1] + (self.chain.n,))
        np.put_along_axis(out, self.B, v_B, axis=-1)
        return out

    # -- moments -------------------------------------------------------------

    def _solve(self, rhs: np.ndarray, z: float = 1.0) -> np.ndarray:
        """Solve ``(I - z P_B) y = rhs`` for one right-hand side per target,
        or for a matrix of them when ``rhs`` has one axis more than ``B``."""
        M = np.eye(self.B.shape[-1]) - z * self.PB
        if rhs.ndim == 1 or rhs.ndim > self.B.ndim:
            return np.linalg.solve(M, rhs)
        return np.linalg.solve(M, rhs[..., None])[..., 0]

    @cached_property
    def _mean_B(self) -> np.ndarray:
        return self._solve(np.ones(self.B.shape))

    @cached_property
    def mean(self) -> np.ndarray:
        return self._full(self._mean_B)

    @cached_property
    def second_moment(self) -> np.ndarray:
        return self._full(self._solve(2.0 * self._mean_B - 1.0))

    @cached_property
    def exit_law(self) -> np.ndarray:
        """Row i: the law of the first state entered in A, over the members
        ``A``, from the survivor ``B[i]``."""
        return self._solve(self.chain.P[self.B[..., :, None], self.A[..., None, :]])

    @cached_property
    def _radius(self) -> float:
        """The spectral radius gamma_1 of P_B; no reversibility needed."""
        return float(np.max(np.abs(np.linalg.eigvals(self.PB))))

    def mgf(self, start, z: float) -> float:
        """Exact E[z^{T_A}] from a start state or distribution (one target).

        Solves ``(I - z P_B) phi = z P(., A)`` on B.  Requires ``z`` inside
        the convergence radius: ``z * gamma_1 < 1`` where gamma_1 is the
        spectral radius of the killed kernel; otherwise raises with the
        radius reported.
        """
        if z <= 0:
            raise ValueError("z must be positive")
        mu = _start_vector(self.chain, start)
        if self.B.size == 0:
            return 1.0
        gamma_1 = self._radius
        if z * gamma_1 >= 1.0 - 1e-12:
            raise ValueError(f"z = {z} is outside the convergence radius 1/gamma_1 = {1.0 / gamma_1}")
        phi = self._solve(z * (1.0 - self.PB.sum(axis=1)), z)
        return float(mu[self.B] @ phi + mu[self.A].sum())

    # -- iterated tails ------------------------------------------------------

    def survival(self):
        """Yield ``Pr_x[T_A > t]`` for the survivors x, for t = 0, 1, ..."""
        # one target takes the bare product: tree scans run 1e5 steps
        step = self.PB.__matmul__ if self.B.ndim == 1 else partial(_mv, self.PB)
        u = np.ones(self.B.shape)
        while True:
            yield u
            u = step(u)

    # -- eigensystem ---------------------------------------------------------

    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(gammas, U, sqrt pi_B, U^T sqrt pi_B), gammas descending."""
        self.chain.require(reversible=True)
        sq = np.sqrt(self.chain.pi[self.B])
        S = (sq[..., :, None] * self.PB) / sq[..., None, :]
        S = 0.5 * (S + np.swapaxes(S, -1, -2))
        g, U = np.linalg.eigh(S)
        order = np.argsort(g, axis=-1)[..., ::-1]
        g = np.take_along_axis(g, order, axis=-1)
        # permute the rows of U^T so that U keeps the column-major layout
        # eigh returns: BLAS then runs the same kernels as for one matrix
        Ut = np.take_along_axis(np.swapaxes(U, -1, -2), order[..., :, None], axis=-2)
        return g, np.swapaxes(Ut, -1, -2), sq, _mv(Ut, sq)

    @cached_property
    def gammas(self) -> np.ndarray:
        return self._eigen[0]

    @cached_property
    def weights(self) -> np.ndarray:
        return self._eigen[3] ** 2 / np.asarray(self.pi_B)[..., None]

    @cached_property
    def state_weights(self) -> np.ndarray:
        """Row i: ``Pr_{B[i]}[T_A > t] = sum_j state_weights[i, j] gamma_j^t``."""
        _, U, sq, right = self._eigen
        return U / sq[..., :, None] * right[..., None, :]

    def _factors(self, ts, continuous: bool) -> np.ndarray:
        """One row per t: gamma_i^t (integer t) or exp(-(1 - gamma_i) t).

        ``ts`` is one grid for every target, or one row per target."""
        g = self.gammas
        ts = np.asarray(ts, dtype=float)
        ts = ts.reshape(ts.shape or (1,))
        if continuous:
            return np.exp(-(ts[..., :, None] * (1.0 - g)[..., None, :]))
        mag = np.abs(g)[..., None, :] ** ts[..., :, None]
        neg = g < 0.0
        if neg.any():
            odd = (ts.astype(np.int64) % 2) == 1
            sign = np.where(neg[..., None, :] & odd[..., :, None], -1.0, 1.0)
            mag = mag * sign
        return mag

    def tail_stationary(self, ts, continuous: bool = False) -> np.ndarray:
        """Pr[T_A > t] from pi conditioned on B, for each t in ts."""
        return np.clip(_mv(self._factors(ts, continuous), self.weights), 0.0, None)

    def tail_rows(self, t) -> np.ndarray:
        """Pr_x[T_A > t] for every survivor x at one t (possibly huge), which
        a stack may give per target."""
        _, U, sq, right = self._eigen
        coef = self._factors(np.asarray(t, dtype=float)[..., None], False)[..., 0, :] * right
        return np.clip(_mv(U, coef) / sq, 0.0, 1.0)

    def tail_state(self, pos: int, ts, continuous: bool = False) -> np.ndarray:
        """Pr_x[T_A > t] for the survivor at position ``pos``, for each t
        (one target)."""
        return np.clip(self._factors(ts, continuous) @ self.state_weights[pos], 0.0, 1.0)

    def tail_dist(self, dist_B: np.ndarray, ts, continuous: bool = False) -> np.ndarray:
        """Pr[T_A > t] from a start law given in survivor coordinates."""
        _, U, sq, right = self._eigen
        lead = _vm(dist_B / sq, U)
        return np.clip(_mv(self._factors(ts, continuous), lead * right), 0.0, None)

    def mean_stationary(self):
        """E[T_A] from pi conditioned on B, from the spectral weights; inf
        when a killed eigenvalue rounds to 1."""
        with np.errstate(divide="ignore"):
            return _scalar(np.sum(self.weights / (1.0 - self.gammas), axis=-1))

    # -- return times --------------------------------------------------------

    def kac(self) -> "KacQuantities":
        """Flows across the cut, the entry law into B and its exact hitting
        moments; arrays with the target axis for a stack.

        Raises ``ZeroDivisionError`` when pi(B) = 1 - pi(A) is 0 in double
        precision, :class:`IdentityCheckError` when the stationary flow
        across a cut is asymmetric, and ``ValueError`` when B is empty or
        cannot be entered from A in one step.
        """
        if self.B.shape[-1] == 0:
            raise ValueError("target covers every state; complement is empty")
        pi, P, A, B = self.chain.pi, self.chain.P, self.A, self.B
        P_AB = P[A[..., :, None], B[..., None, :]]
        pa = pi[A].sum(axis=-1)
        pb = 1.0 - pa
        if np.any(pb == 0.0):
            raise ZeroDivisionError("pi(complement of the target) is 0 in double precision")
        flow_AB = _dot(pi[A], P_AB.sum(axis=-1))
        flow_BA = _dot(pi[B], P[B[..., :, None], A[..., None, :]].sum(axis=-1))
        phi_A = flow_AB / pa
        phi_B = flow_BA / pb
        scale = np.maximum(1.0, np.maximum(np.abs(flow_AB), np.abs(flow_BA)))
        if np.any(np.abs(flow_AB - flow_BA) > 1e-12 * scale):
            raise IdentityCheckError("stationary flow across the cut is asymmetric")
        if np.any(flow_AB <= 0):
            raise ValueError("complement of the target is unreachable in one step; "
                             "entry law undefined")
        psi = self._full(_vm(pi[A] / pa[..., None], P_AB) / phi_A[..., None])
        pi_cond = self._full(pi[B])
        pi_cond = pi_cond / pi_cond.sum(axis=-1)[..., None]
        h = self.mean
        return KacQuantities(
            flow_AB=_scalar(flow_AB), flow_BA=_scalar(flow_BA),
            phi_A=_scalar(phi_A), phi_B=_scalar(phi_B), psi=psi,
            mean_from_psi=_scalar(_dot(psi, h)),
            second_from_psi=_scalar(_dot(psi, self.second_moment)),
            mean_from_pi_B=_scalar(_dot(pi_cond, h)))


# ---------------------------------------------------------------------------
# tails from a fixed start


@dataclass(eq=False)
class HittingProfile:
    """Tail of T_A from a fixed start, with exact first and second moments.

    ``tail[t] = Pr[T_A > t]`` for integer t in the discrete case; for the
    continuized chain ``times`` carries the (real) evaluation grid.  The
    continuized mean equals the discrete one (unit-rate jumps), while the
    continuized second moment is ``mean + second_moment`` of the jump count.
    """

    times: np.ndarray
    tail: np.ndarray
    mean: float
    second_moment: float
    continuous: bool

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean ** 2


def hitting_tail(chain: Chain, start, A, t_max: int = 64,
                 continuous: bool = False, t_grid=None) -> HittingProfile:
    """Exact tail ``Pr[T_A > t]`` and moments of the hitting time of A.

    ``start`` may be a state index or a distribution.  Discrete tails are
    produced for ``t = 0 .. t_max`` by iterating the killed kernel; with
    ``continuous=True`` the tail is evaluated on ``t_grid`` (default: a
    uniform grid up to ``t_max``) through the eigen-decomposition of the
    killed kernel.
    """
    mu = _start_vector(chain, start)
    ks = KilledSystem(chain, A)
    mean = float(mu @ ks.mean)
    second = float(mu @ ks.second_moment)
    muB = mu[ks.B]
    if not continuous:
        tail = np.array([muB @ u for u in islice(ks.survival(), t_max + 1)])
        return HittingProfile(times=np.arange(t_max + 1), tail=tail, mean=mean,
                              second_moment=second, continuous=False)
    if t_grid is None:
        t_grid = np.linspace(0.0, float(t_max), 129)
    times = np.asarray(t_grid, dtype=float)
    tail = ks.tail_dist(muB, times, continuous=True)
    return HittingProfile(times=times, tail=tail, mean=mean, second_moment=mean + second,
                          continuous=True)


# ---------------------------------------------------------------------------
# subset enumeration


def _subset_tables(pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-subset membership table and mass vector for small state spaces."""
    n = pi.size
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    masses = bits @ pi
    return bits, masses


def _minimal_feasible_sets(pi: np.ndarray, alpha: float) -> list[np.ndarray]:
    """Inclusion-minimal sets with pi(A) >= alpha, as boolean rows."""
    n = pi.size
    if n > 20:
        raise ValueError("exact subset enumeration is limited to n <= 20")
    bits, masses = _subset_tables(pi)
    feasible = masses >= alpha - _FEAS_TOL
    # removing state b from a feasible set must break feasibility
    reduced = masses[:, None] - pi[None, :]
    breaks = ~bits | (reduced < alpha - _FEAS_TOL)
    minimal = feasible & breaks.all(axis=1)
    minimal[0] = False
    return [bits[i] for i in np.nonzero(minimal)[0]]


def _greedy_candidate_sets(chain: Chain, alpha: float, starts) -> list[np.ndarray]:
    """Heuristic candidate targets: hardest-to-reach states first.

    States are ranked by the exact mean hitting time from each start
    (fundamental-matrix identity), a prefix of mass >= alpha is taken, and
    the prefix is pruned to inclusion-minimality from the easy end.
    """
    pi = chain.pi
    n = chain.n
    Z = np.linalg.inv(np.eye(n) - chain.P + np.outer(np.ones(n), pi))
    out: list[np.ndarray] = []
    seen: set[bytes] = set()
    for x in starts:
        score = (np.diag(Z) - Z[x]) / pi  # E_x[T_y] for every y
        order = np.argsort(-score, kind="stable")
        sel = np.zeros(n, dtype=bool)
        mass = 0.0
        for y in order:
            sel[y] = True
            mass += pi[y]
            if mass >= alpha - _FEAS_TOL:
                break
        for y in order[::-1]:
            if sel[y] and mass - pi[y] >= alpha - _FEAS_TOL:
                sel[y] = False
                mass -= pi[y]
        key = sel.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(sel)
    return out


def _candidate_sets(chain: Chain, alpha: float, exact_threshold: int,
                    starts=None) -> tuple[list[np.ndarray], bool]:
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if chain.n <= exact_threshold:
        return _minimal_feasible_sets(chain.pi, alpha), True
    if starts is None:
        starts = range(min(chain.n, 8))
    return _greedy_candidate_sets(chain, alpha, starts), False


@dataclass(eq=False)
class WorstTailProfile:
    """Per-start worst-set tails p_x(alpha, t) for t = 0 .. T.

    ``tails[t, x]`` is exact when ``exact`` is set, otherwise a lower
    bound from the greedy candidate family.
    """

    alpha: float
    tails: np.ndarray
    exact: bool

    def global_sequence(self) -> np.ndarray:
        return self.tails.max(axis=1)

    def hit(self, eps: float, x: int | None = None) -> int:
        seq = self.tails[:, x] if x is not None else self.global_sequence()
        idx = np.nonzero(seq <= eps + 1e-12)[0]
        if idx.size == 0:
            raise RuntimeError(f"profile too short: p(alpha, t) never reached {eps}")
        return int(idx[0])


def worst_tail_profile(chain: Chain, alpha: float, stop_level: float,
                       t_max: int = 200_000,
                       exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> WorstTailProfile:
    """Scan p_x(alpha, t) jointly for all starts until the global maximum
    falls to ``stop_level``."""
    sets, exact = _candidate_sets(chain, alpha, exact_threshold)
    # column j of V holds Pr_x[T_{A_j} > t] for every x (zero on A_j): one
    # step multiplies by P and re-kills the target rows
    keep = ~np.stack(sets, axis=1)
    V = keep.astype(float)
    rows = [V.max(axis=1)]
    while rows[-1].max() > stop_level + 1e-12:
        if len(rows) > t_max:
            raise RuntimeError("worst-set tail scan exceeded t_max")
        V = chain.P @ V
        V *= keep
        rows.append(V.max(axis=1))
    return WorstTailProfile(alpha=alpha, tails=np.array(rows), exact=exact)


@dataclass(eq=False)
class HitResult:
    value: float
    exact: bool
    bracket: tuple[float, float] | None = None


def _ct_candidates(chain: Chain, alpha: float,
                   exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> tuple[list, bool]:
    """The continuized tails of the candidate targets of mass >= alpha, and
    whether the family is exact.

    The targets are stacked as one :class:`KilledSystem` per |B|; each
    stack gives a pair (rates, W) with ``Pr_{B[i]}[T_A > t] = (W @
    exp(-rates t))[i]`` per target.  Only these arrays are kept.  The full
    state space is dropped: nothing survives it, so its tail is 0 at every
    t > 0.
    """
    sets, exact = _candidate_sets(chain, alpha, exact_threshold)
    stacks = KilledSystem.stacks(chain, [s for s in sets if not s.all()])
    return [(1.0 - ks.gammas, ks.state_weights) for _, ks in stacks], exact


def _hit_ct_interval(chain: Chain, alpha: float, eps: float,
                     exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                     candidates=None) -> tuple[float, float, bool]:
    """(lo, hi, exact): a bracket of the continuized worst-set hitting time,
    bisected on ``p_ct(t) = max_A max_x Pr_x[T_A > t]``.

    ``candidates`` is what :func:`_ct_candidates` returns for this alpha;
    callers that evaluate several eps at one alpha build it once.
    """
    terms, exact = candidates or _ct_candidates(chain, alpha, exact_threshold)

    def p_ct(t: float) -> float:
        worst = 0.0
        for rates, W in terms:
            worst = max(worst, float(_mv(W, np.exp(-rates * t)).max()))
        return worst

    t_rel = chain.spectrum.t_rel
    lo, hi = _bisect_monotone(p_ct, eps, 0.0, max(1.0, t_rel), 1e-3 * max(t_rel, 1e-9))
    return lo, hi, exact


def hit_time(chain: Chain, alpha: float, eps: float, x: int | None = None,
             continuous: bool = False,
             exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> HitResult:
    """Smallest t with p(alpha, t) <= eps (worst start unless ``x`` given).

    Discrete chains return an integer-valued time from a forward scan.
    The continuized variant bisects the spectral tail evaluation to a
    1e-3 * t_rel bracket and reports its upper end, with the bracket
    attached.  Results carry ``exact=False`` when the greedy candidate
    family was used (the value is then a certified lower bound).
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if continuous:
        if x is not None:
            raise ValueError("per-start continuized hit times are not supported")
        lo, hi, exact = _hit_ct_interval(chain, alpha, eps, exact_threshold)
        return HitResult(value=hi, exact=exact, bracket=(lo, hi))
    prof = worst_tail_profile(chain, alpha, stop_level=eps, exact_threshold=exact_threshold)
    return HitResult(value=float(prof.hit(eps, x=x)), exact=prof.exact)


# ---------------------------------------------------------------------------
# quasi-stationary structure of the killed kernel


def qs_decomposition(chain: Chain, A) -> KilledSystem:
    """The killed system of A, with its spectral weights checked.

    Requires a reversible chain and a proper nonempty target.  The weights
    must be nonnegative and add to one, and no eigenvalue may exceed the
    leading one ``gamma_1`` in modulus, so that
    ``Pr_{pi_B}[T_A > t] = sum_i weights_i gamma_i^t`` decays at rate
    ``gamma_1``.  When B splits into several killed-kernel components the
    spectrum is the union of theirs and each component's weights add to
    pi(component)/pi(B).
    """
    ks = KilledSystem(chain, A)
    if ks.B.size == 0:
        raise ValueError("target covers every state; killed kernel is empty")
    g, w = ks.gammas, ks.weights
    total = w.sum()
    if abs(total - 1.0) > 1e-9:
        raise IdentityCheckError(f"killed-kernel spectral weights sum to {total!r}")
    if w.min() < -1e-12:
        raise IdentityCheckError("negative spectral weight in killed kernel decomposition")
    if np.abs(g).max() > g[0] + 1e-12:
        raise IdentityCheckError("killed-kernel eigenvalue exceeds the leading one in modulus")
    return ks


# ---------------------------------------------------------------------------
# good sets and blow-up sets


@dataclass(eq=False)
class GoodSet:
    """States whose A-occupation stays within ``m sigma_s`` of pi(A) forever
    past time s, certified by a finite scan plus a spectral tail bound."""

    members: np.ndarray
    measure: float
    sigma: float
    threshold: float
    horizon: int


def good_set(chain: Chain, A, s: int, m: float) -> GoodSet:
    """Exact membership of the deviation-controlled set at scale m.

    A state y belongs iff ``|Pr_y[X_k in A] - pi(A)| < m sigma_s`` for all
    k >= s, where ``sigma_s = exp(-s/t_rel) sqrt(pi(A)(1-pi(A)))``.  The
    scan runs to the first horizon where the spectral envelope
    ``exp(-k/t_rel) sqrt(pi(A)(1-pi(A))) / sqrt(min pi)`` falls strictly
    below the threshold, after which no state can violate.
    """
    chain.require(reversible=True, lazy=True)
    mask = _target_mask(chain, A)
    if s < 0:
        raise ValueError("s must be >= 0")
    if m <= 0:
        raise ValueError("m must be positive")
    pa = float(chain.pi[mask].sum())
    if not 0.0 < pa < 1.0:
        raise ValueError("good set requires a proper nonempty target (0 < pi(A) < 1)")
    t_rel = chain.spectrum.t_rel
    rho = math.sqrt(pa * (1.0 - pa))
    sigma = math.exp(-s / t_rel) * rho
    threshold = m * sigma
    log_ratio = -math.log(m) - 0.5 * math.log(chain.pi.min())
    extra = math.ceil(t_rel * log_ratio) if log_ratio > 0.0 else 0
    horizon = s + extra + 1
    g = mask.astype(float)
    ok = np.ones(chain.n, dtype=bool)
    for k in range(horizon + 1):
        if k >= s:
            ok &= np.abs(g - pa) < threshold
        g = chain.P @ g
    return GoodSet(members=ok, measure=float(chain.pi[ok].sum()), sigma=sigma,
                   threshold=threshold, horizon=horizon)


@dataclass(eq=False)
class BlowUpSet:
    """Starts that still miss A with probability >= alpha at the blow-up
    horizon ceil(t_rel * w / pi(A))."""

    t: int
    members: np.ndarray
    measure: float
    ceiling: float


def blow_up_set(chain: Chain, A, w: float, alpha: float) -> BlowUpSet:
    """Identify slow starts at the w-scaled horizon and its measure ceiling.

    The ceiling ``pi(complement A) e^{-w} / alpha`` is returned alongside;
    callers assert it, keeping computation and certification separate.
    """
    if w < 0:
        raise ValueError("w must be >= 0")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    ks = KilledSystem(chain, A)
    pa = float(chain.pi[ks.A].sum())
    t_rel = chain.spectrum.t_rel
    if pa <= 0:
        raise ValueError("target must have positive mass")
    t = math.ceil(t_rel * w / pa)
    tails = np.zeros(chain.n)
    tails[ks.B] = next(islice(ks.survival(), t, None))
    members = tails >= alpha
    ceiling = (1.0 - pa) * math.exp(-w) / alpha
    return BlowUpSet(t=t, members=members, measure=float(chain.pi[members].sum()),
                     ceiling=ceiling)


# ---------------------------------------------------------------------------
# return-time identities


@dataclass(eq=False)
class KacQuantities:
    """Escape probabilities and entry-law hitting moments for a target A.

    ``flow_AB`` and ``flow_BA`` are the stationary flows across the cut,
    ``phi_A`` is the one-step escape probability of A under pi conditioned
    on A, ``psi`` the entry law into B = complement(A); the moments are
    exact solves.  From :meth:`KilledSystem.kac` of a stack every field is
    an array with the target axis.
    :func:`kac_quantities` enforces the flow symmetry
    ``pi(A) phi_A = pi(B) phi_B`` and the two entry-law identities
    ``E_psi[T_A] = 1/phi_B`` and
    ``E_psi[T_A^2] = E_psi[T_A] (2 E_{pi_B}[T_A] - 1)``.
    """

    flow_AB: float
    flow_BA: float
    phi_A: float
    phi_B: float
    psi: np.ndarray
    mean_from_psi: float
    second_from_psi: float
    mean_from_pi_B: float


def kac_quantities(chain: Chain, A, check_tol: float = 1e-9) -> KacQuantities:
    kq = KilledSystem(chain, A).kac()

    def _rel(a: float, b: float) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    mean_psi = kq.mean_from_psi
    if _rel(mean_psi, 1.0 / kq.phi_B) > check_tol:
        raise IdentityCheckError(
            f"entry-law mean {mean_psi!r} != 1/phi_B = {1.0 / kq.phi_B!r}")
    if _rel(kq.second_from_psi, mean_psi * (2.0 * kq.mean_from_pi_B - 1.0)) > check_tol:
        raise IdentityCheckError("entry-law second moment identity failed")
    return kq

