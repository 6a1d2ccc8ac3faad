"""Independent references and output digests for the cutofflab benchmark.

The references recompute, with plain numpy and none of the library's code
paths, quantities that the library's outputs contain: mixing times by
iterating P^t, relaxation times by one symmetric eigensolve, stationary
mean hitting times and killed tails by direct solves and iteration.  They
run after an op, outside its timing.
"""

from __future__ import annotations

import math
import re

import numpy as np

MARGIN_TOL = 1e-9
_FLOAT = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")


def sig9(x) -> str:
    """A number rounded to 9 significant digits, as digest text."""
    if isinstance(x, bool) or x is None:
        return str(x)
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return str(x)
    return f"{x:.9g}"


def canon(v) -> str:
    """Stable text form of a params value (tuples/lists/numbers/strings)."""
    if isinstance(v, dict):
        return "{" + ",".join(f"{k}:{canon(v[k])}" for k in sorted(v, key=str)) + "}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(canon(x) for x in v) + "]"
    if isinstance(v, (float, np.floating)):
        return sig9(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def record_line(suite: str, rec: dict) -> str:
    """Digest line of one record: suite, inequality, params, kind, passed, lhs, rhs."""
    return "\t".join((suite, rec["inequality"], canon(rec["params"]), rec["kind"],
                      str(bool(rec["passed"])), sig9(rec["lhs"]), sig9(rec["rhs"])))


def round_text(text: str) -> str:
    """Text with every decimal number rounded to 9 significant digits."""
    return _FLOAT.sub(lambda m: sig9(float(m.group(0))), text)


def margin_problems(label: str, records) -> list[str]:
    """Re-derive each record's margin and verdict from its two sides.

    ``records`` holds dicts in the layout of ``Record.to_dict``.
    """
    out = []
    for r in records:
        kind = r["kind"]
        if kind not in ("identity", "inequality"):
            continue
        lhs, rhs = float(r["lhs"]), float(r["rhs"])
        margin = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
        same = math.isclose(margin, float(r["margin"]), rel_tol=1e-9, abs_tol=1e-15) \
            or (math.isnan(margin) and math.isnan(float(r["margin"])))
        if not same:
            out.append(f"{label}: {r['inequality']} margin {r['margin']!r} != {margin!r}")
        ok = abs(margin) <= MARGIN_TOL if kind == "identity" else margin >= -MARGIN_TOL
        if ok != bool(r["passed"]):
            out.append(f"{label}: {r['inequality']} passed={r['passed']} but margin {margin:.3e}")
        if len(out) >= 5:
            break
    return out


def biased_path(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The biased path (rows 1/8, 1/2, 3/8; ends folded into holding), built here."""
    P = np.diag(np.full(n, 0.5)) + np.diag(np.full(n - 1, 0.375), 1) \
        + np.diag(np.full(n - 1, 0.125), -1)
    P[0, 0] += 0.125
    P[-1, -1] += 0.375
    logw = np.arange(n) * math.log(3.0)
    w = np.exp(logw - logw.max())
    return P, w / w.sum()


def t_rel(P: np.ndarray, pi: np.ndarray) -> float:
    sq = np.sqrt(pi)
    S = sq[:, None] * P / sq[None, :]
    lam = np.linalg.eigvalsh(0.5 * (S + S.T))
    return 1.0 / (1.0 - lam[-2])


def mixing_time(P: np.ndarray, pi: np.ndarray, eps: float, t_cap: int = 100_000) -> int:
    """First t with max_x ||P^t(x, .) - pi||_TV <= eps, by iterating P^t."""
    M = np.eye(P.shape[0])
    for t in range(t_cap + 1):
        if 0.5 * np.abs(M - pi[None, :]).sum(axis=1).max() <= eps + 1e-12:
            return t
        M = M @ P
    raise RuntimeError("reference mixing time did not converge")


def stationary_mean_hit(P: np.ndarray, pi: np.ndarray, mask: np.ndarray) -> float:
    """E[T_A] started from pi conditioned on the complement B of A."""
    B = ~mask
    h = np.linalg.solve(np.eye(int(B.sum())) - P[np.ix_(B, B)], np.ones(int(B.sum())))
    return float(pi[B] @ h / pi[B].sum())


def killed_tail(P: np.ndarray, start: int, members, t: int) -> float:
    """Pr_start[T_A > t] by iterating the kernel killed on A."""
    alive = np.ones(P.shape[0], dtype=bool)
    alive[list(members)] = False
    if not alive[start]:
        return 0.0
    u = alive.astype(float)
    Q = P * alive[None, :]
    for _ in range(t):
        u = (Q @ u) * alive
    return float(u[start])
