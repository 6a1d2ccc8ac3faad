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
solve with ``I - P_B`` is one of its methods; ``KilledSystem.of`` builds it
once per chain and target, and ``KilledSystem.stack`` serves many targets
with equal |B| in batched calls, from index arrays that :func:`_partition`
makes once per table of targets.

The worst-set quantity ``p_x(alpha, t) = max { Pr_x[T_A > t] :
pi(A) >= alpha }`` is computed exactly by enumerating inclusion-minimal
feasible sets (enlarging a target can only shrink the tail) up to a state
count threshold, and by a greedy candidate family above it, in which case
results are flagged as certified lower bounds only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice

import numpy as np

from . import DEFAULT_EXACT_THRESHOLD
from .chain import Chain
from .mixing import _ceiling, _descend, _heat, _heat_step, _square, _TailScan

__all__ = [
    "HittingProfile",
    "hitting_tail",
    "WorstTailProfile",
    "worst_tail_profile",
    "HitResult",
    "hit_time",
    "KilledSystem",
    "KacQuantities",
    "kac_quantities",
    "DEFAULT_EXACT_THRESHOLD",
]

# the longest worst-set tail scan, in steps
_HIT_T_MAX = 200_000
_FEAS_TOL = 1e-12
_KAC_TOL = 1e-9


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


def _start_state(chain: Chain, x) -> int:
    """A start state, checked to lie in 0..n-1."""
    x = int(x)
    if not 0 <= x < chain.n:
        raise ValueError("start state out of range")
    return x


def _start_vector(chain: Chain, start) -> np.ndarray:
    if np.isscalar(start):
        v = np.zeros(chain.n)
        v[_start_state(chain, start)] = 1.0
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


def _survival(P: np.ndarray, keep: np.ndarray):
    """Yield for t = 0, 1, ... the n x k matrix of ``Pr_x[T_{A_j} > t]`` (column
    j, zero on A_j) for the complements B_j marked by the columns of ``keep``:
    each step multiplies by P and re-kills the targets, in one product."""
    V = keep.astype(float)
    while True:
        yield V
        V = P @ V
        V *= keep


def _partition(masks: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The targets given as the rows of a boolean k x n array, split by
    complement size m in ascending order: for each m, the row positions of
    its targets and their member and survivor index arrays, one ascending
    row per target (the arguments of :meth:`KilledSystem.stack`)."""
    survivors = (~masks).sum(axis=1)
    parts = []
    for m in np.flatnonzero(np.bincount(survivors)).tolist():
        idx = np.flatnonzero(survivors == m)
        rows = masks[idx]
        parts.append((idx, np.nonzero(rows)[1].reshape(idx.size, -1),
                      np.nonzero(~rows)[1].reshape(idx.size, -1)))
    return parts


class KilledSystem:
    """The chain killed on entering a target set A.

    Built from the target states, which must be nonempty and in 0..n-1
    (duplicates are dropped); :meth:`of` returns the chain's one system
    for a target, built on first use.  Holds the target members ``A`` and
    the survivor states ``B = complement(A)``, both in ascending order, the
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
      survivor coordinates (entry i belongs to state ``B[i]``), and
      ``scan(x)``, the one scalar tail sequence read from it per start
      (one target; many targets step together in :func:`_survival`);
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
    moment solve and tail evaluation is one batched call over the stack,
    which has no ``survival``.  A system built from one target is the
    one-element case without that axis, with Python floats for its scalars.
    """

    def __init__(self, chain: Chain, A):
        mask = _target_mask(chain, A)
        self._setup(chain, np.flatnonzero(mask), np.flatnonzero(~mask))

    @classmethod
    def of(cls, chain: Chain, states) -> "KilledSystem":
        """The system of ``chain`` killed on the target ``states``, kept in
        ``chain.killed`` so that every reader of a target shares its solves,
        eigensystem and tail scans."""
        mask = _target_mask(chain, states)
        key = mask.tobytes()
        if key not in chain.killed:
            ks = chain.killed[key] = cls.__new__(cls)
            ks._setup(chain, np.flatnonzero(mask), np.flatnonzero(~mask))
        return chain.killed[key]

    @classmethod
    def stack(cls, chain: Chain, A: np.ndarray, B: np.ndarray) -> "KilledSystem":
        """One system for k targets given by their member and survivor index
        arrays, k x |A| and k x m, one ascending row per target, as
        :func:`_partition` makes them; no ``survival``."""
        ks = cls.__new__(cls)
        ks._setup(chain, A, B)
        return ks

    @classmethod
    def stacks(cls, chain: Chain, masks) -> list[tuple[np.ndarray, "KilledSystem"]]:
        """One :meth:`stack` per complement size for the targets given as the
        rows of a boolean k x n array, each with the row positions of its
        targets, in ascending order of |B|."""
        parts = _partition(np.asarray(masks, dtype=bool).reshape(-1, chain.n))
        return [(idx, cls.stack(chain, A, B)) for idx, A, B in parts]

    def _setup(self, chain: Chain, A: np.ndarray, B: np.ndarray) -> None:
        self.chain = chain
        self.A, self.B = A, B
        self.PB = chain.P[B[..., :, None], B[..., None, :]]
        self.pi_B = _scalar(chain.pi[B].sum(axis=-1))
        self.pi_A = 1.0 - self.pi_B
        self._scans: dict[int | None, _TailScan] = {}

    def position(self, x: int) -> int:
        """Index of state x in survivor coordinates (one target)."""
        where = np.flatnonzero(self.B == _start_state(self.chain, x))
        if where.size == 0:
            raise ValueError(f"state {x} lies in the target")
        return int(where[0])

    def _full(self, v_B: np.ndarray) -> np.ndarray:
        """Full-space array equal to ``v_B`` on B and zero on A."""
        out = np.zeros(self.B.shape[:-1] + (self.chain.n,))
        if self.B.ndim == 1:
            out[self.B] = v_B
        else:
            out[np.arange(len(self.B))[:, None], self.B] = v_B
        return out

    # -- moments -------------------------------------------------------------

    def _solve(self, rhs: np.ndarray, z: float = 1.0) -> np.ndarray:
        """Solve ``(I - z P_B) y = rhs`` for one right-hand side per target,
        or for a matrix of them when ``rhs`` has one axis more than ``B``."""
        M = self._I_minus_PB if z == 1.0 else np.eye(self.B.shape[-1]) - z * self.PB
        if rhs.ndim == 1 or rhs.ndim > self.B.ndim:
            return np.linalg.solve(M, rhs)
        return np.linalg.solve(M, rhs[..., None])[..., 0]

    @cached_property
    def _I_minus_PB(self) -> np.ndarray:
        """``I - P_B``, formed once for every solve at z = 1."""
        return np.eye(self.B.shape[-1]) - self.PB

    @cached_property
    def _mean_B(self) -> np.ndarray:
        return self._solve(np.ones(self.B.shape))

    @cached_property
    def mean(self) -> np.ndarray:
        return self._full(self._mean_B)

    @cached_property
    def _second_B(self) -> np.ndarray:
        return self._solve(2.0 * self._mean_B - 1.0)

    @cached_property
    def second_moment(self) -> np.ndarray:
        return self._full(self._second_B)

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
        """Yield ``Pr_x[T_A > t]`` for the survivors x, t = 0, 1, ... (one target)."""
        # the bare gathered product: tree scans run 1e5 steps
        u = np.ones(self.B.shape)
        while True:
            yield u
            u = self.PB @ u

    def scan(self, x: int | None = None) -> _TailScan:
        """The tail ``Pr_x[T_A > t]``, or its maximum over the survivors when
        x is None, as one :class:`_TailScan` per start (one target)."""
        if x not in self._scans:
            pos = None if x is None else self.position(x)
            self._scans[x] = _TailScan(float(u.max() if pos is None else u[pos])
                                       for u in self.survival())
        return self._scans[x]

    # -- eigensystem ---------------------------------------------------------

    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(gammas, U, sqrt pi_B, U^T sqrt pi_B), gammas descending."""
        self.chain.require(reversible=True)
        sq = np.sqrt(self.chain.pi[self.B])
        S = (sq[..., :, None] * self.PB) / sq[..., None, :]
        S = 0.5 * (S + np.swapaxes(S, -1, -2))
        g, U = np.linalg.eigh(S)
        # eigh sorts ascending; a reversed copy of U^T keeps U column-major for BLAS
        Ut = np.swapaxes(U, -1, -2)[..., ::-1, :].copy()
        return g[..., ::-1], np.swapaxes(Ut, -1, -2), sq, _mv(Ut, sq)

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
        ts = np.asarray(ts, dtype=float).reshape(np.shape(ts) or (1,))
        if continuous:
            return np.exp(-(ts[..., :, None] * (1.0 - g)[..., None, :]))
        mag = np.abs(g)[..., None, :] ** ts[..., :, None]
        neg = g < 0.0
        if neg.any():
            odd = (ts.astype(np.int64) % 2) == 1
            mag = mag * np.where(neg[..., None, :] & odd[..., :, None], -1.0, 1.0)
        return mag

    def tail_stationary(self, ts, continuous: bool = False) -> np.ndarray:
        """Pr[T_A > t] from pi conditioned on B, for each t in ts."""
        return np.clip(_mv(self._factors(ts, continuous), self.weights), 0.0, None)

    def tail_rows(self, t) -> np.ndarray:
        """Pr_x[T_A > t] for every survivor x (the last axis) at one t (possibly
        huge), one per target of a stack, or a block of times on a new axis."""
        _, U, sq, right = self._eigen
        one = np.ndim(t) < self.B.ndim
        coef = self._factors(np.expand_dims(t, -1) if one else t, False) * right[..., None, :]
        # one matrix-vector product per time, so a block gives each t's bits
        rows = np.clip(_mv(U[..., None, :, :], coef) / sq[..., None, :], 0.0, 1.0)
        return rows[..., 0, :] if one else rows

    def tail_state(self, pos: int, ts, continuous: bool = False) -> np.ndarray:
        """Pr_x[T_A > t] for the survivor at position ``pos``, for each t
        (one target)."""
        return np.clip(self._factors(ts, continuous) @ self.state_weights[pos], 0.0, 1.0)

    def tail_dist(self, dist_B: np.ndarray, ts) -> np.ndarray:
        """Pr[T_A > t] from a start law given in survivor coordinates."""
        _, U, sq, right = self._eigen
        lead = _vm(dist_B / sq, U)
        return np.clip(_mv(self._factors(ts, False), lead * right), 0.0, None)

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
        psi_B = _vm(pi[A] / pa[..., None], P_AB) / phi_A[..., None]  # on B, as the moments
        return KacQuantities(
            flow_AB=_scalar(flow_AB), flow_BA=_scalar(flow_BA),
            phi_A=_scalar(phi_A), phi_B=_scalar(phi_B),
            psi=self._full(psi_B), psi_B=psi_B,
            mean_from_psi=_scalar(_dot(psi_B, self._mean_B)),
            second_from_psi=_scalar(_dot(psi_B, self._second_B)),
            mean_from_pi_B=_scalar(_dot(pi[B] / np.asarray(self.pi_B)[..., None], self._mean_B)))


# ---------------------------------------------------------------------------
# tails from a fixed start


@dataclass(eq=False)
class HittingProfile:
    """Tail ``tail[t] = Pr[T_A > t]``, t = 0 .. t_max, of T_A from a fixed
    start, with exact first and second moments."""

    tail: np.ndarray
    mean: float
    second_moment: float

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean ** 2


def hitting_tail(chain: Chain, start, A, t_max: int = 64) -> HittingProfile:
    """Exact tail ``Pr[T_A > t]`` for ``t = 0 .. t_max``, by iterating the
    killed kernel, and moments of the hitting time of A.

    ``start`` may be a state index or a distribution.
    """
    mu = _start_vector(chain, start)
    ks = KilledSystem(chain, A)
    muB = mu[ks.B]
    tail = np.array([muB @ u for u in islice(ks.survival(), t_max + 1)])
    return HittingProfile(tail=tail, mean=float(mu @ ks.mean),
                          second_moment=float(mu @ ks.second_moment))


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


def _exact_hitting(chain: Chain, exact_threshold: int) -> bool:
    """Whether worst sets are enumerated (exact), not a greedy family."""
    return chain.n <= exact_threshold


def _candidate_sets(chain: Chain, alpha: float, exact_threshold: int,
                    starts=None) -> tuple[list[np.ndarray], bool]:
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if _exact_hitting(chain, exact_threshold):
        return _minimal_feasible_sets(chain.pi, alpha), True
    if starts is None:
        starts = range(min(chain.n, 8))
    return _greedy_candidate_sets(chain, alpha, starts), False


class WorstTailProfile:
    """The worst sets of mass >= alpha on one chain, in both time models.

    The candidate targets are enumerated once: every inclusion-minimal set
    of mass >= alpha up to ``exact_threshold`` states (``exact``), a greedy
    family above (lower bounds).  ``scan(x)`` is p_x(alpha, t), or its max
    over the starts when x is None, all candidates stepped on demand by
    :func:`_survival`; ``tails[t, x]`` are the rows stepped so far.
    ``heat_squares`` holds, per |B|, the kept batched squares
    ``H_B(2^j h)`` of the continuized killed kernels, with
    ``Pr_{B[i]}[T_A > t] = (H_B(t) 1)[i]``; the full state space, dead
    past t = 0, is dropped.
    """

    def __init__(self, chain: Chain, alpha: float, exact_threshold: int = DEFAULT_EXACT_THRESHOLD):
        self.chain = chain
        self.alpha = alpha
        self.sets, self.exact = _candidate_sets(chain, alpha, exact_threshold)
        self._rows = _TailScan(V.max(axis=1)
                               for V in _survival(chain.P, ~np.stack(self.sets, axis=1)))
        self._rows.at(0)
        self._scans: dict[int | None, _TailScan] = {}

    @property
    def tails(self) -> np.ndarray:
        return np.array(self._rows.values)

    def scan(self, x: int | None = None) -> _TailScan:
        if x not in self._scans:
            if x is not None:
                _start_state(self.chain, x)
            rows = map(self._rows.at, count())
            self._scans[x] = _TailScan(float(r.max() if x is None else r[x]) for r in rows)
        return self._scans[x]

    def hit(self, eps: float, x: int | None = None) -> int:
        """Smallest t with p_x(alpha, t) <= eps (worst start when x is None)."""
        return self.scan(x).first_below(eps, _HIT_T_MAX)

    def result(self, eps: float, x: int | None = None, continuous: bool = False) -> "HitResult":
        """What :func:`hit_time` returns at this alpha."""
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if continuous:
            if x is not None:
                raise ValueError("per-start continuized hit times are not supported")
            lo, hi, exact = _hit_ct_interval(self.chain, self.alpha, eps, profile=self)
            return HitResult(value=hi, exact=exact, bracket=(lo, hi))
        return HitResult(value=float(self.hit(eps, x=x)), exact=self.exact)

    @cached_property
    def heat_squares(self) -> list[list[np.ndarray]]:
        h = _heat_step(self.chain)
        stacks = KilledSystem.stacks(self.chain, [s for s in self.sets if not s.all()])
        return [[_heat(ks.PB, h, stochastic=False)] for _, ks in stacks]


def worst_tail_profile(chain: Chain, alpha: float,
                       exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> WorstTailProfile:
    """A new :class:`WorstTailProfile` of ``chain`` at ``alpha``; every call
    builds one (``verify`` keeps one per (chain, alpha) in ``_Ctx.profile``)."""
    return WorstTailProfile(chain, alpha, exact_threshold)


@dataclass(eq=False)
class HitResult:
    value: float
    exact: bool
    bracket: tuple[float, float] | None = None


def _set_crossings(ks: KilledSystem, weights: np.ndarray, levels,
                   continuous: bool = False) -> list[int]:
    """Per level, the first integer t <= 1e12 where the tail
    ``weights @ K^t 1`` from a start law over B is at most the level, K the
    killed kernel ``P_B`` of one target or ``H_B(1)`` with ``continuous``:
    one descent over the squares of K each (past 1e12: ``RuntimeError``)."""
    squares = [_heat(ks.PB, 1.0, stochastic=False) if continuous else ks.PB]
    ones = np.ones(ks.B.size)

    def advance(v, j):
        return _square(squares, j, stochastic=False) @ v

    def tail(v):
        return float(weights @ v)

    return [_descend(advance, tail, e, 10 ** 12, start=ones) + 1 if tail(ones) > e + 1e-12
            else 0 for e in levels]


def _hit_ct_interval(chain: Chain, alpha: float, eps: float,
                     profile: WorstTailProfile | None = None) -> tuple[float, float, bool]:
    """(lo, hi, exact): the bracket of width h where the continuized
    ``p_ct(t) = max_A max_x Pr_x[T_A > t]`` crosses eps, from one descent
    ``v <- H_B(2^j h) v`` over the profile's ``heat_squares``, every stack
    at once, below ``t_rel (-log eps - log min pi) / alpha``: for
    ``pi(A) >= alpha``, ``Pr_x[T_A > t] <= exp(-alpha t / t_rel) / sqrt(min pi)``.
    ``profile`` is the chain's :class:`WorstTailProfile` at this alpha,
    which every eps shares (built at the default threshold when omitted).
    """
    profile = profile or worst_tail_profile(chain, alpha)
    stacks = profile.heat_squares
    if not stacks:
        return 0.0, 0.0, profile.exact
    h = _heat_step(chain)

    def advance(vs, j):
        return [_mv(_square(squares, j, stochastic=False), v) for squares, v in zip(stacks, vs)]

    t = _descend(advance, lambda vs: max(float(v.max()) for v in vs), eps,
                 math.ceil(_ceiling(chain, eps, continuous=True) / (alpha * h)),
                 start=[np.ones(squares[0].shape[:-1]) for squares in stacks])
    return t * h, (t + 1) * h, profile.exact


def hit_time(chain: Chain, alpha: float, eps: float, x: int | None = None,
             continuous: bool = False,
             exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> HitResult:
    """Smallest t with p(alpha, t) <= eps (worst start unless ``x`` given).

    Discrete chains return an integer-valued time from a forward scan.
    The continuized variant descends the squares of the candidates'
    continuized killed kernels to a bracket of width h <= 1e-3 * t_rel
    and reports its upper end, with the bracket attached.  Results carry
    ``exact=False`` when the greedy candidate family was used (the value
    is then a certified lower bound).
    """
    return worst_tail_profile(chain, alpha, exact_threshold).result(eps, x, continuous)


# ---------------------------------------------------------------------------
# return-time identities


@dataclass(eq=False)
class KacQuantities:
    """Escape probabilities and entry-law hitting moments for a target A.

    ``flow_AB`` and ``flow_BA`` are the stationary flows across the cut,
    ``phi_A`` is the one-step escape probability of A under pi conditioned
    on A, ``psi`` the entry law into B = complement(A) (``psi_B`` on B
    alone); the moments are exact solves.  From :meth:`KilledSystem.kac` of
    a stack every field is an array with the target axis.
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
    psi_B: np.ndarray
    mean_from_psi: float
    second_from_psi: float
    mean_from_pi_B: float


def kac_quantities(chain: Chain, A) -> KacQuantities:
    kq = KilledSystem(chain, A).kac()

    def _rel(a: float, b: float) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    mean_psi = kq.mean_from_psi
    if _rel(mean_psi, 1.0 / kq.phi_B) > _KAC_TOL:
        raise IdentityCheckError(
            f"entry-law mean {mean_psi!r} != 1/phi_B = {1.0 / kq.phi_B!r}")
    if _rel(kq.second_from_psi, mean_psi * (2.0 * kq.mean_from_pi_B - 1.0)) > _KAC_TOL:
        raise IdentityCheckError("entry-law second moment identity failed")
    return kq

