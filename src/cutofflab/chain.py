"""Finite Markov chain container, validation, and spectral decomposition.

Everything downstream (mixing profiles, hitting tails, tree and banded-matrix
analyses) goes through :class:`Chain`, which couples a validated transition
matrix with its stationary distribution and structural flags.  The spectral
routines assume reversibility and work in the symmetrized coordinates
``D^{1/2} P D^{-1/2}`` so that plain symmetric eigensolvers apply.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
DETAILED_BALANCE_TOL = 1e-12
LAZY_TOL = 1e-12
EIGENVALUE_RANGE_TOL = 1e-10

__all__ = [
    "ChainSpec",
    "Chain",
    "Spectrum",
    "load_chain",
    "spectral_decomposition",
    "chain_from_json",
    "chain_to_json",
    "json_text",
    "write_json_atomic",
    "write_csv_atomic",
]


class ChainValidationError(ValueError):
    """Raised when a transition matrix or companion data fails validation."""


@dataclass(eq=False)
class ChainSpec:
    """Raw matrix input: transition matrix plus optional stationary vector.

    Parameters
    ----------
    P : ndarray, shape (n, n)
        Row-stochastic transition matrix.
    pi : ndarray, shape (n,), optional
        Stationary distribution, if known analytically.  Validated against
        ``pi @ P == pi`` on load; supplying it avoids a dense linear solve
        and preserves exact constructions (detailed-balance weights).
    labels : list of str, optional
        Display names for states; purely cosmetic.
    """

    P: np.ndarray
    pi: np.ndarray | None = None
    labels: list[str] | None = None

    @property
    def n(self) -> int:
        return int(self.P.shape[0])

    def validate(self) -> None:
        P = np.asarray(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ChainValidationError(f"transition matrix must be square, got {P.shape}")
        if P.shape[0] < 2:
            raise ChainValidationError("need at least two states")
        if not np.all(np.isfinite(P)):
            raise ChainValidationError("transition matrix contains non-finite entries")
        if P.min() < 0.0:
            i, j = np.unravel_index(np.argmin(P), P.shape)
            raise ChainValidationError(f"negative entry P[{i},{j}] = {P[i, j]}")
        rs = P.sum(axis=1)
        bad = np.abs(rs - 1.0) > ROW_SUM_TOL
        if bad.any():
            i = int(np.argmax(np.abs(rs - 1.0)))
            raise ChainValidationError(
                f"row {i} sums to {float(rs[i])!r}, outside 1 +/- {ROW_SUM_TOL}")
        if self.pi is not None:
            pi = np.asarray(self.pi, dtype=float)
            if pi.shape != (P.shape[0],):
                raise ChainValidationError("pi has wrong shape")
            if pi.min() <= 0 or abs(pi.sum() - 1.0) > 1e-10:
                raise ChainValidationError("pi must be strictly positive and sum to 1")
        if self.labels is not None and len(self.labels) != P.shape[0]:
            raise ChainValidationError("labels length does not match state count")


def _strongly_connected(adj: np.ndarray) -> bool:
    """Whether the digraph with boolean adjacency matrix ``adj`` is strongly
    connected, i.e. a chain with support ``adj`` is irreducible.

    A level-synchronous frontier search from state 0 along the edges and
    one along the reversed edges: the graph is strongly connected exactly
    when both reach every state.  A symmetric support, which every
    reversible chain has, needs the first search only.  Each level is one
    numpy step over the rows of its frontier, so a dense graph takes a few
    steps and a path one step per state.
    """
    n = adj.shape[0]
    for a in (adj,) if (adj == adj.T).all() else (adj, adj.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.intp)
        while frontier.size:
            frontier = np.flatnonzero(a[frontier].any(axis=0) & ~seen)
            seen[frontier] = True
        if not seen.all():
            return False
    return True


def _solve_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary row vector of P via a dense solve of (P^T - I) pi = 0."""
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    s = pi.sum()
    if not np.isfinite(s) or s <= 0:
        raise ChainValidationError("failed to compute a stationary distribution")
    return pi / s


@dataclass(eq=False)
class Chain:
    """A validated chain: matrix, stationary law, and structural flags.

    Treat instances as immutable; spectral results are cached on first use,
    and so is the :class:`~cutofflab.hitting.KilledSystem` of each target,
    which ``KilledSystem.of`` keeps in ``killed`` by its membership mask,
    and so is each square ``P^(2^j)`` and ``H(2^j h)`` of the continuized
    kernel that :mod:`cutofflab.mixing` builds.
    """

    spec: ChainSpec
    pi: np.ndarray
    is_reversible: bool
    is_lazy: bool
    is_irreducible: bool
    killed: dict = field(default_factory=dict, init=False, repr=False)
    squares: list = field(default_factory=list, init=False, repr=False)
    heat_squares: list = field(default_factory=list, init=False, repr=False)

    @property
    def P(self) -> np.ndarray:
        return self.spec.P

    @property
    def n(self) -> int:
        return self.spec.n

    @cached_property
    def spectrum(self) -> "Spectrum":
        return spectral_decomposition(self)

    def require(self, *, reversible: bool = False, lazy: bool = False, irreducible: bool = False) -> None:
        if reversible and not self.is_reversible:
            raise ChainValidationError("operation requires a reversible chain")
        if lazy and not self.is_lazy:
            raise ChainValidationError("operation requires a lazy chain (all holding probabilities >= 1/2)")
        if irreducible and not self.is_irreducible:
            raise ChainValidationError("operation requires an irreducible chain")


def load_chain(spec: ChainSpec | np.ndarray, pi: np.ndarray | None = None,
               labels: list[str] | None = None) -> Chain:
    """Validate a transition matrix and assemble a :class:`Chain`.

    Accepts either a prepared :class:`ChainSpec` or a bare matrix.  The
    stationary distribution is taken from the spec when present (validated
    to satisfy ``pi P = pi`` within 1e-10), otherwise solved for densely.
    Irreducibility is decided on the support digraph; reversibility means
    detailed balance holds entrywise within 1e-12; laziness means every
    holding probability is at least 1/2.
    """
    if not isinstance(spec, ChainSpec):
        spec = ChainSpec(P=np.array(spec, dtype=float), pi=pi, labels=labels)
    spec.validate()
    P = np.asarray(spec.P, dtype=float)
    n = P.shape[0]

    irreducible = _strongly_connected(P > 0)

    if spec.pi is not None:
        pi_vec = np.asarray(spec.pi, dtype=float)
        resid = np.max(np.abs(pi_vec @ P - pi_vec))
        if resid > STATIONARY_TOL:
            raise ChainValidationError(f"supplied pi is not stationary (residual {resid:.3e})")
    else:
        pi_vec = _solve_stationary(P)
        if irreducible:
            resid = np.max(np.abs(pi_vec @ P - pi_vec))
            if resid > STATIONARY_TOL:
                raise ChainValidationError(f"stationary solve residual too large ({resid:.3e})")
            if pi_vec.min() <= 0.0:  # the solve rounded a tiny mass to zero or below
                x = int(np.argmax(pi_vec <= 0.0))
                raise ChainValidationError(f"solved stationary probability of state {x} is "
                                           f"{pi_vec[x]:.3e}, not positive; supply pi")

    flows = pi_vec[:, None] * P
    reversible = bool(np.max(np.abs(flows - flows.T)) <= DETAILED_BALANCE_TOL)
    lazy = bool(np.min(np.diag(P)) >= 0.5 - LAZY_TOL)
    return Chain(spec=spec, pi=pi_vec, is_reversible=reversible,
                 is_lazy=lazy, is_irreducible=irreducible)


@dataclass(eq=False)
class Spectrum:
    """Eigen-decomposition of a reversible chain.

    ``eigenvalues`` are sorted in decreasing order with the Perron value
    first.  ``eigenfunctions`` holds one function per column, orthonormal
    in the pi-weighted inner product, so that

        P^t(x, y) = sum_i f_i(x) f_i(y) pi(y) eigenvalues[i]^t.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    pi: np.ndarray
    t_rel: float = field(init=False)
    t_rel_absolute: float = field(init=False)

    def __post_init__(self) -> None:
        lam = self.eigenvalues
        if abs(lam[0] - 1.0) > 1e-8:
            raise ChainValidationError(f"leading eigenvalue {lam[0]!r} is not 1")
        if lam.max() > 1.0 + EIGENVALUE_RANGE_TOL or lam.min() < -1.0 - EIGENVALUE_RANGE_TOL:
            raise ChainValidationError("eigenvalue outside [-1, 1]")
        gap = 1.0 - lam[1]
        if gap <= 0:
            raise ChainValidationError("no spectral gap; chain appears reducible")
        self.t_rel = 1.0 / gap
        abs_gap = min(gap, 1.0 - abs(lam[-1])) if lam[-1] < 0 else gap
        if abs_gap <= 0:
            raise ChainValidationError("chain is periodic (eigenvalue -1)")
        self.t_rel_absolute = 1.0 / abs_gap

    @property
    def lambda_2(self) -> float:
        return float(self.eigenvalues[1])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])


def spectral_decomposition(chain: Chain) -> Spectrum:
    """Symmetrize, diagonalize, and return pi-orthonormal eigenfunctions.

    Refuses non-reversible or reducible input: the symmetrization
    ``D^{1/2} P D^{-1/2}`` is only similar to P under detailed balance.
    """
    chain.require(reversible=True, irreducible=True)
    pi = chain.pi
    sq = np.sqrt(pi)
    S = (sq[:, None] * chain.P) / sq[None, :]
    S = 0.5 * (S + S.T)
    lam, V = np.linalg.eigh(S)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    V = V[:, order]
    # Fix the sign convention so the Perron column is the constant function.
    F = V / sq[:, None]
    for i in range(F.shape[1]):
        j = int(np.argmax(np.abs(F[:, i])))
        if F[j, i] < 0:
            F[:, i] = -F[:, i]
    return Spectrum(eigenvalues=lam, eigenfunctions=F, pi=pi)


# ---------------------------------------------------------------------------
# JSON text
#
# Every JSON file and JSON echo is written by json_text, whose output is the
# bytes of json.dumps(obj, indent=1).  With an indent, json.dumps runs the
# pure-Python encoder; json_text instead hands each flat container (scalars
# only) to the C encoder with the indentation folded into the item
# separator, writes float arrays with float.__repr__, and lets record
# blocks fill one template per block.

# the types json.dumps writes as scalars
_SCALARS = frozenset({str, int, float, bool, type(None)})
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@cache
def _flat_encoder(level: int):
    """Encodes a scalar, or a flat container whose items sit at
    ``level + 1``, one item per line, as the bracketed text."""
    separator = ",\n" + " " * (level + 1)
    if c_make_encoder is None:  # no C accelerator: the same text, slower
        return json.JSONEncoder(separators=(separator, ": ")).encode
    # what JSONEncoder.encode builds on every call, built once
    encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                            None, ": ", separator, False, False, True)
    return lambda obj: "".join(encode(obj, 0))


def json_join(items: list[str], level: int, brackets: str = "[]") -> str:
    """Encoded items in one JSON array (or object, with ``brackets="{}"``)
    that sits at nesting ``level``, indented as ``json.dumps(indent=1)``.
    :func:`json_join_pieces` writes the same layout in pieces."""
    if not items:
        return brackets
    inner = " " * (level + 1)
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items)
            + "\n" + " " * level + brackets[1])


def json_join_pieces(items, level: int, brackets: str = "[]"):
    """:func:`json_join` in pieces, for a text too large to hold at once.

    ``items`` is an iterable of items, each its encoded text or an
    iterable of the pieces of that text; the pieces yielded join to
    :func:`json_join` of the item texts.  ``json_join`` stays the
    one-string form for the many small containers of a report's rows.
    """
    indent = " " * (level + 1)
    separator = brackets[0] + "\n" + indent
    for item in items:
        if isinstance(item, str):
            yield separator + item
        else:
            yield separator
            yield from item
        separator = ",\n" + indent
    yield brackets if separator[0] != "," else "\n" + " " * level + brackets[1]


def scalar_texts(values: list) -> list[str]:
    """The JSON text of each scalar in ``values``, from one C encoder call.

    An encoded scalar holds no raw newline (strings escape theirs), so the
    item separator splits the list text back into its items.
    """
    if not values:
        return []
    return _flat_encoder(0)(values)[1:-1].split(",\n ")


def float_texts(values: np.ndarray) -> list[str]:
    """The JSON text of each entry of a 1-D float array."""
    texts = list(map(float.__repr__, values.tolist()))
    finite = np.isfinite(values)
    if not finite.all():
        for i in np.flatnonzero(~finite).tolist():
            texts[i] = _NONFINITE[texts[i]]
    return texts


def _key_text(key) -> str:
    # json.dumps writes float, int, bool and None keys as their scalar text
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = _flat_encoder(0)(key)
    return encode_basestring_ascii(key)


def _array_text(a: np.ndarray, level: int) -> str:
    if a.dtype.kind != "f" or a.dtype.itemsize > 8 or a.size == 0 or a.ndim == 0:
        return json_text(a.tolist(), level)
    texts = float_texts(a.ravel())
    # join the innermost axis first, one nesting level out per axis
    for depth in reversed(range(a.ndim)):
        m = a.shape[depth]
        texts = [json_join(texts[i:i + m], level + depth) for i in range(0, len(texts), m)]
    return texts[0]


def json_text(obj, level: int = 0) -> str:
    """``obj`` as the text of ``json.dumps(obj, indent=1)``, byte for byte.

    ``level`` is the nesting depth the text sits at.  A NumPy array is
    written as its ``tolist()``, and an object with a ``json_pieces(level)``
    method (a :class:`~cutofflab.reporting.Report`) is the join of the
    pieces it yields.
    """
    if isinstance(obj, (list, tuple)):
        if obj and set(map(type, obj)) <= _SCALARS:
            return json_join([_flat_encoder(level)(obj)[1:-1]], level)
        return json_join([json_text(v, level + 1) for v in obj], level)
    if isinstance(obj, dict):
        if obj and set(map(type, obj.values())) <= _SCALARS:
            return json_join([_flat_encoder(level)(obj)[1:-1]], level, "{}")
        return json_join([_key_text(k) + ": " + json_text(v, level + 1)
                          for k, v in obj.items()], level, "{}")
    if isinstance(obj, np.ndarray):
        return _array_text(obj, level)
    pieces = getattr(obj, "json_pieces", None)
    if pieces is not None:
        return "".join(pieces(level))
    return _flat_encoder(level)(obj)


# ---------------------------------------------------------------------------
# files
#
# Chain format: {"n": int, "P": [[...], ...], "labels": [...]?, "pi": [...]?}


@contextmanager
def _atomic_file(path: str):
    """Text handle on a temp file in the target directory, renamed onto
    ``path`` when the block ends; on any error the temp file is removed and
    ``path`` keeps its old contents."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_pieces(obj, level: int = 0):
    """:func:`json_text` of ``obj`` in pieces that join to it.  An object
    with a ``json_pieces(level)`` method (a report) yields its own pieces,
    a non-empty list or tuple is bracketed around the pieces of its items,
    and any other value is one piece."""
    pieces = getattr(obj, "json_pieces", None)
    if pieces is not None:
        yield from pieces(level)
    elif isinstance(obj, (list, tuple)) and obj:
        yield from json_join_pieces((_json_pieces(v, level + 1) for v in obj), level)
    else:
        yield json_text(obj, level)


def write_json_atomic(path: str, payload) -> None:
    """Write ``payload`` as :func:`json_text` plus a newline, atomically.
    A report, or a list of reports, is written piece by piece, one record
    block at a time, so the whole text is never held at once."""
    with _atomic_file(path) as fh:
        fh.writelines(_json_pieces(payload))
        fh.write("\n")


def write_csv_atomic(path: str, header: list[str], rows) -> None:
    """Write a header line and ``rows`` as CSV, atomically."""
    with _atomic_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def chain_to_json(chain: Chain | ChainSpec, path: str) -> None:
    """Write a chain to disk, normalizing any row whose float sum drifted.

    The normalization threshold sits above the residue normalization
    itself can leave, so writing a file that was just written back out
    reproduces it bit for bit.
    """
    spec = chain.spec if isinstance(chain, Chain) else chain
    P = np.array(spec.P, dtype=float)
    for i in range(P.shape[0]):
        s = P[i].sum()
        if abs(s - 1.0) > 1e-13:
            P[i] /= s
    payload: dict = {"n": int(P.shape[0]), "P": P}
    if spec.labels is not None:
        payload["labels"] = list(spec.labels)
    pi = chain.pi if isinstance(chain, Chain) else spec.pi
    if pi is not None:
        payload["pi"] = np.asarray(pi, dtype=float)
    write_json_atomic(path, payload)


def chain_from_json(path: str) -> Chain:
    """Read a chain file; a payload of the wrong shape raises
    :class:`ChainValidationError`."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        P = np.array(payload["P"], dtype=float)
        n = int(payload.get("n", P.shape[0]))
        pi, labels = payload.get("pi"), payload.get("labels")
        pi = None if pi is None else np.array(pi, dtype=float)
        labels = None if labels is None else list(labels)
    except (TypeError, KeyError, IndexError, ValueError, OverflowError) as exc:
        raise ChainValidationError(f"malformed chain file ({exc!r})") from exc
    if n != P.shape[0]:
        raise ChainValidationError("declared n does not match matrix shape")
    return load_chain(ChainSpec(P=P, pi=pi, labels=labels))
