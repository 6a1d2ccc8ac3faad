"""Structured pass/fail records for the inequality-certification suites.

Margins are recorded relative to ``max(1, |lhs|, |rhs|)`` so the single
pass tolerance stays meaningful whether the record compares probabilities
or second moments of hitting times.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

MARGIN_TOL = 1e-9

__all__ = ["Record", "Report", "check_le", "check_identity", "report_value",
           "skip", "fingerprint", "MARGIN_TOL"]


@dataclass(eq=False)
class Record:
    inequality: str
    params: dict
    lhs: float
    rhs: float
    margin: float
    kind: str  # "inequality" | "identity" | "report" | "skip"
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "inequality": self.inequality,
            "params": {k: _plain(v) for k, v in self.params.items()},
            "lhs": _plain(self.lhs),
            "rhs": _plain(self.rhs),
            "margin": _plain(self.margin),
            "kind": self.kind,
            "passed": self.passed,
            "note": self.note,
        }


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        return list(v)
    return v


# check_le and check_identity build most records of a sweep over all target
# sets, so they convert each side once and pass the fields positionally, in
# the order Record declares them (a third cheaper than keywords).


def check_le(inequality: str, lhs: float, rhs: float, params: dict | None = None,
             tol: float = MARGIN_TOL, note: str = "") -> Record:
    """Assert lhs <= rhs up to a relative tolerance."""
    lhs, rhs = float(lhs), float(rhs)
    margin = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
    return Record(inequality, params or {}, lhs, rhs, margin, "inequality",
                  bool(margin >= -tol), note)


def check_identity(inequality: str, lhs: float, rhs: float, params: dict | None = None,
                   tol: float = MARGIN_TOL, note: str = "") -> Record:
    """Assert lhs == rhs up to a relative tolerance."""
    lhs, rhs = float(lhs), float(rhs)
    margin = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
    return Record(inequality, params or {}, lhs, rhs, margin, "identity",
                  bool(abs(margin) <= tol), note)


def report_value(name: str, value: float, params: dict | None = None, note: str = "") -> Record:
    """A measured quantity carried for inspection; never fails."""
    return Record(inequality=name, params=params or {}, lhs=float(value),
                  rhs=float("nan"), margin=0.0, kind="report", passed=True, note=note)


def skip(name: str, reason: str, params: dict | None = None) -> Record:
    """A check whose preconditions did not hold; recorded, never silent."""
    return Record(inequality=name, params=params or {}, lhs=float("nan"),
                  rhs=float("nan"), margin=0.0, kind="skip", passed=True, note=reason)


def fingerprint(P: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(P.shape).encode())
    h.update(np.ascontiguousarray(P, dtype=float).tobytes())
    return h.hexdigest()[:16]


@dataclass(eq=False)
class Report:
    """Outcome of one verification suite on one chain."""

    suite: str
    chain_fingerprint: str
    records: list[Record] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failures(self) -> list[Record]:
        return [r for r in self.records if not r.passed]

    def counts(self) -> dict:
        out = {"inequality": 0, "identity": 0, "report": 0, "skip": 0, "failed": 0}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + 1
            if not r.passed:
                out["failed"] += 1
        return out

    def worst_margin(self) -> float:
        margins = [r.margin for r in self.records if r.kind in ("inequality", "identity")]
        return min(margins) if margins else float("inf")

    def summary(self) -> str:
        c = self.counts()
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] suite={self.suite} chain={self.chain_fingerprint} "
                f"checks={c['inequality'] + c['identity']} reports={c['report']} "
                f"skips={c['skip']} failures={c['failed']}")

    def to_dict(self) -> dict:
        """The JSON payload of this report."""
        return {
            "suite": self.suite,
            "chain": self.chain_fingerprint,
            "params": {k: _plain(v) for k, v in self.params.items()},
            "passed": self.passed,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, path: str) -> None:
        from .chain import write_json_atomic

        write_json_atomic(path, self.to_dict())

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=1)
