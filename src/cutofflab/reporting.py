"""Structured pass/fail records for the inequality-certification suites.

Margins are recorded relative to ``max(1, |lhs|, |rhs|)`` so the single
pass tolerance stays meaningful whether the record compares probabilities
or second moments of hitting times.

A :class:`Report` takes its rows as blocks only, stored column by column,
one :class:`RecordBlock` per run of rows of one inequality.  The suites
that sweep every target set build each block as arrays; the rows of the
other suites are :class:`Record` objects, which the ``SUITES`` entries of
:mod:`cutofflab.verify` sort and group with :meth:`RecordBlock.from_records`.
``Report.records`` builds :class:`Record` objects from the blocks afresh
on each access; nothing keeps a second copy of the rows.
:func:`check_le` and :func:`check_identity` certify one row; a block
certifies all of its rows with the same IEEE operations.  A report's JSON
text is written from the columns too, one template per block, with the
bytes ``json.dumps(report.to_dict(), indent=1)`` would give, and comes in
pieces, one block's rows at a time, so a file can be written without
holding the whole text.
"""

from __future__ import annotations

import gc
import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .chain import (
    _SCALARS,
    _key_text,
    float_texts,
    json_join,
    json_join_pieces,
    json_text,
    scalar_texts,
    write_json_atomic,
)

MARGIN_TOL = 1e-9

__all__ = ["Record", "RecordBlock", "Report", "check_le", "check_identity",
           "report_value", "skip", "fingerprint", "MARGIN_TOL"]


@dataclass(eq=False, slots=True)
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


# check_le and check_identity build, one by one, the records of the suites
# that do not sweep target sets, so they convert each side once and pass the
# fields positionally, in the order Record declares them (a third cheaper
# than keywords).


def check_le(inequality: str, lhs: float, rhs: float, params: dict | None = None,
             note: str = "") -> Record:
    """Assert lhs <= rhs up to the relative tolerance ``MARGIN_TOL``."""
    lhs, rhs = float(lhs), float(rhs)
    margin = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
    return Record(inequality, params or {}, lhs, rhs, margin, "inequality",
                  bool(margin >= -MARGIN_TOL), note)


def check_identity(inequality: str, lhs: float, rhs: float, params: dict | None = None,
                   note: str = "") -> Record:
    """Assert lhs == rhs up to the relative tolerance ``MARGIN_TOL``."""
    lhs, rhs = float(lhs), float(rhs)
    margin = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
    return Record(inequality, params or {}, lhs, rhs, margin, "identity",
                  bool(abs(margin) <= MARGIN_TOL), note)


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


# ---------------------------------------------------------------------------
# columnar storage


@contextmanager
def _bulk():
    """Pause cyclic garbage collection while rows are turned into objects.

    Records and their dicts hold no reference cycles, yet every few hundred
    allocations the collector would rescan all of them; over the half
    million records of an all-sets sweep the rescans cost more than
    building the objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _objects(values, n: int) -> np.ndarray:
    """A parameter column: an object array of Python values, with numeric
    arrays turned into Python ints and floats first."""
    if isinstance(values, np.ndarray):
        if values.dtype == object:
            return values.reshape(n)
        values = values.tolist()
    return np.fromiter(values, dtype=object, count=n)


def _plain_column(values: list) -> list:
    """``_plain`` of every value, skipping the values it leaves alone."""
    types = set(map(type, values))
    if types <= {int, float, str, bool}:
        return values
    if types == {tuple}:
        return list(map(list, values))
    return list(map(_plain, values))


def _value_texts(column: np.ndarray, level: int, memo: dict | None = None) -> list[str]:
    """The JSON text of each value of a parameter column at ``level``.  A
    column of containers (rows repeat a few target sets) encodes each
    object it holds once, keyed by identity in ``memo``: one memo serves
    every column of one level whose objects stay alive while it is used."""
    objects = column.tolist()
    values = _plain_column(objects)
    if set(map(type, values)) <= _SCALARS:
        return scalar_texts(values)
    memo = {} if memo is None else memo
    return [memo[k] if k in memo else memo.setdefault(k, json_text(v, level))
            for k, v in zip(map(id, objects), values)]


def _label_texts(values) -> str | list[str]:
    """The JSON text of a kind or note column: one text or one per row."""
    if isinstance(values, str):
        return encode_basestring_ascii(values)
    return list(map(encode_basestring_ascii, values.tolist()))


def _dicts(keys: tuple, cols: list, n: int) -> list[dict]:
    """One params dict per row.  Dict displays for the usual one to three
    keys build twice as fast as ``dict(zip(keys, values))``."""
    if len(keys) == 1:
        (k0,), (c0,) = keys, cols
        return [{k0: a} for a in c0]
    if len(keys) == 2:
        (k0, k1), (c0, c1) = keys, cols
        return [{k0: a, k1: b} for a, b in zip(c0, c1)]
    if len(keys) == 3:
        (k0, k1, k2), (c0, c1, c2) = keys, cols
        return [{k0: a, k1: b, k2: c} for a, b, c in zip(c0, c1, c2)]
    if keys:
        return [dict(zip(keys, vals)) for vals in zip(*cols)]
    return [{} for _ in range(n)]


def _labels(values, n: int):
    """A kind or note column: one string shared by every row, or an array."""
    if isinstance(values, str):
        return values
    if isinstance(values, list) and n and values.count(values[0]) == n:
        return values[0]
    values = np.asarray(values, dtype=str).reshape(n)
    if n and (values == values[0]).all():
        return str(values[0])
    return values


class RecordBlock:
    """A run of rows of one inequality, held column by column.

    ``lhs``, ``rhs`` and ``margin`` are float64 arrays and ``passed`` a bool
    array.  ``kind`` and ``note`` are one string shared by every row or an
    array with one string per row (escape interleaves ``skip`` rows).
    ``params`` maps each parameter name, in record order, to an object
    array of Python values, one per row.

    One numpy pass computes ``margin`` and ``passed`` with the operations
    of :func:`check_le` and :func:`check_identity`:
    ``margin = (rhs - lhs) / max(1, |lhs|, |rhs|)``, where the max skips a
    NaN side as Python's ``max`` does, and a check passes when
    ``margin >= -MARGIN_TOL`` (inequality) or ``|margin| <= MARGIN_TOL``
    (identity).  Report and skip rows get margin 0 and pass.
    """

    __slots__ = ("inequality", "params", "lhs", "rhs", "margin", "kind", "passed", "note")

    def __init__(self, inequality: str, lhs, rhs, kind, params: dict | None = None,
                 note=""):
        lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
        if lhs.shape != rhs.shape:
            lhs, rhs = np.broadcast_arrays(lhs, rhs)
        self.inequality = inequality
        self.lhs, self.rhs = lhs.ravel(), rhs.ravel()
        n = self.lhs.size
        self.kind = _labels(kind, n)
        self.note = _labels(note, n)
        self.params = {k: _objects(v, n) for k, v in (params or {}).items()}
        self.margin, self.passed = self._certify()

    def __len__(self) -> int:
        return self.lhs.size

    @property
    def checked(self) -> np.ndarray:
        """Whether each row is a check (an inequality or an identity)."""
        if isinstance(self.kind, str):
            return np.full(len(self), self.kind in ("inequality", "identity"))
        return (self.kind == "inequality") | (self.kind == "identity")

    def _certify(self) -> tuple[np.ndarray, np.ndarray]:
        lhs, rhs, kind = self.lhs, self.rhs, self.kind
        single = isinstance(kind, str)
        if single and kind not in ("inequality", "identity"):
            return np.zeros(len(self)), np.ones(len(self), dtype=bool)
        with np.errstate(all="ignore"):
            margin = (rhs - lhs) / np.fmax(np.fmax(1.0, np.abs(lhs)), np.abs(rhs))
        if single:  # one kind of check: no per-row kind selection
            return margin, (np.abs(margin) <= MARGIN_TOL if kind == "identity"
                            else margin >= -MARGIN_TOL)
        passed = np.where(kind == "identity", np.abs(margin) <= MARGIN_TOL,
                          margin >= -MARGIN_TOL)
        checked = self.checked
        return np.where(checked, margin, 0.0), passed | ~checked

    @classmethod
    def from_records(cls, records) -> list[RecordBlock]:
        """Blocks holding ``records`` in order, one per run of records with
        the same inequality and parameter names.  The blocks certify the
        rows again, so rows made by :func:`check_le`, :func:`check_identity`,
        :func:`report_value` and :func:`skip` keep their margins and flags
        bit for bit."""
        blocks = []
        for (name, keys), group in groupby(records, key=lambda r: (r.inequality,
                                                                   tuple(r.params))):
            rows = list(group)
            lhs, rhs = np.array([(r.lhs, r.rhs) for r in rows], dtype=float).T
            blocks.append(cls(
                name, lhs, rhs, [r.kind for r in rows],
                {k: [r.params[k] for r in rows] for k in keys},
                [r.note for r in rows]))
        return blocks

    def records(self, rows=slice(None)) -> list[Record]:
        """The rows ``rows`` (all by default, else a slice or an index
        array) as :class:`Record` objects."""
        lhs = self.lhs[rows]
        n = lhs.size
        params = _dicts(tuple(self.params), [c[rows].tolist() for c in self.params.values()], n)
        kind = repeat(self.kind, n) if isinstance(self.kind, str) else self.kind[rows].tolist()
        note = repeat(self.note, n) if isinstance(self.note, str) else self.note[rows].tolist()
        return list(map(Record, repeat(self.inequality), params, lhs.tolist(),
                        self.rhs[rows].tolist(), self.margin[rows].tolist(), kind,
                        self.passed[rows].tolist(), note))

    def json_rows(self, level: int, memo: dict | None = None) -> list[str]:
        """Every row as the JSON text of its :meth:`Record.to_dict` at nesting
        ``level``, from one ``%`` template filled from the columns; ``memo``
        keeps the texts of parameter containers across blocks (see
        :func:`_value_texts`)."""
        cols = []

        def field(text):
            # a text shared by every row, or a column filled in per row
            if isinstance(text, list):
                cols.append(text)
                return "%s"
            return text.replace("%", "%%")

        name = field(encode_basestring_ascii(self.inequality))
        params = json_join([field(_key_text(k)) + ": "
                            + field(_value_texts(c, level + 2, memo))
                            for k, c in self.params.items()], level + 1, "{}")
        floats = [field(float_texts(a)) for a in (self.lhs, self.rhs, self.margin)]
        kind = field(_label_texts(self.kind))
        passed = field(np.where(self.passed, "true", "false").tolist())
        note = field(_label_texts(self.note))
        template = json_join([f'"inequality": {name}', f'"params": {params}',
                              f'"lhs": {floats[0]}', f'"rhs": {floats[1]}',
                              f'"margin": {floats[2]}', f'"kind": {kind}',
                              f'"passed": {passed}', f'"note": {note}'], level, "{}")
        return list(map(template.__mod__, zip(*cols)))


class Report:
    """Outcome of one verification suite on one chain.

    The rows live in ``blocks``, one :class:`RecordBlock` per run of one
    inequality, as the suite returned them (in ``_record_key`` order for
    the reports of :func:`~cutofflab.verify.run_suites`).  ``passed``,
    ``counts``, ``failures`` and ``worst_margin`` read the columns.
    ``records`` builds a fresh list of :class:`Record` objects, in block
    order, on every access: hold the list to read it more than once.
    """

    def __init__(self, suite: str, chain_fingerprint: str, blocks=(),
                 params: dict | None = None):
        self.suite = suite
        self.chain_fingerprint = chain_fingerprint
        self.params = {} if params is None else params
        self.blocks = list(blocks)

    @property
    def records(self) -> list[Record]:
        with _bulk():
            return [r for b in self.blocks for r in b.records()]

    @property
    def passed(self) -> bool:
        return all(b.passed.all() for b in self.blocks)

    @property
    def failures(self) -> list[Record]:
        return [r for b in self.blocks if not b.passed.all()
                for r in b.records(np.flatnonzero(~b.passed))]

    def counts(self) -> dict:
        out = {"inequality": 0, "identity": 0, "report": 0, "skip": 0, "failed": 0}
        for b in self.blocks:
            if isinstance(b.kind, str):
                out[b.kind] = out.get(b.kind, 0) + len(b)
            else:
                for kind in dict.fromkeys(b.kind.tolist()):
                    out[kind] = out.get(kind, 0) + int((b.kind == kind).sum())
            out["failed"] += len(b) - int(b.passed.sum())
        return out

    def worst_margin(self) -> float:
        """The smallest margin over the checks (inequality and identity
        rows).  NaN when any check margin is NaN: such a check fails but has
        no place in the order.  +inf when the report holds no check."""
        worst = []
        for b in self.blocks:
            margins = b.margin[b.checked]
            if margins.size == 0:
                continue
            if np.isnan(margins).any():
                return math.nan
            worst.append(float(margins[np.argmin(margins)]))
        return min(worst) if worst else math.inf

    def summary(self) -> str:
        c = self.counts()
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] suite={self.suite} chain={self.chain_fingerprint} "
                f"checks={c['inequality'] + c['identity']} reports={c['report']} "
                f"skips={c['skip']} failures={c['failed']}")

    def to_dict(self) -> dict:
        """The JSON payload of this report.  The rows are built one block's
        :class:`Record` objects at a time."""
        with _bulk():
            rows = [r.to_dict() for b in self.blocks for r in b.records()]
        return {**self._head(), "records": rows}

    def _head(self) -> dict:
        return {"suite": self.suite, "chain": self.chain_fingerprint,
                "params": {k: _plain(v) for k, v in self.params.items()},
                "passed": self.passed}

    def json_pieces(self, level: int = 0):
        """The JSON text of :meth:`to_dict` at nesting ``level``, in pieces:
        the head, then one row at a time, each block filling its template
        from the columns, so only one block's row texts are held at once.
        Each parameter container the blocks hold is encoded once."""
        def records():
            memo: dict[int, str] = {}
            yield '"records": '
            yield from json_join_pieces((t for b in self.blocks
                                         for t in b.json_rows(level + 2, memo)), level + 1)

        head = [_key_text(k) + ": " + json_text(v, level + 1) for k, v in self._head().items()]
        return json_join_pieces(head + [records()], level, "{}")

    def to_json(self, path: str) -> None:
        write_json_atomic(path, self)

    def dumps(self) -> str:
        return json_text(self)
