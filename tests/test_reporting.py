import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutofflab import biased_path, random_reversible, run_suites, two_cliques
from cutofflab.chain import json_text, write_json_atomic
from cutofflab.reporting import (
    MARGIN_TOL,
    Record,
    RecordBlock,
    Report,
    check_identity,
    check_le,
    report_value,
    skip,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _edge_values() -> list[float]:
    tol = MARGIN_TOL
    return [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -3.0, 1e-300, 5e-324,
            tol, -tol, float(np.nextafter(tol, 1.0)), float(np.nextafter(-tol, -1.0)),
            1.0 + tol, 1.0 - tol, 2.0 + 2 * tol, 1e308, -1e308,
            math.inf, -math.inf, math.nan]


def test_block_pass_matches_scalar_checks_bit_for_bit():
    # NaN and +-inf on either side, -0.0, margins at exactly +-1e-9 and one
    # ulp beyond, and |x| below and above 1
    values = _edge_values()
    lhs = np.array([a for a in values for _ in values])
    rhs = np.array([b for _ in values for b in values])
    assert (0.0, MARGIN_TOL) in zip(lhs.tolist(), rhs.tolist())
    for kind, check in (("inequality", check_le), ("identity", check_identity)):
        block = RecordBlock("x", lhs, rhs, kind)
        want = [check("x", a, b) for a, b in zip(lhs.tolist(), rhs.tolist())]
        assert [_bits(m) for m in block.margin.tolist()] == [_bits(r.margin) for r in want]
        assert block.passed.tolist() == [r.passed for r in want]
        assert {(r.margin, r.passed) for r in want if r.margin in (-MARGIN_TOL, MARGIN_TOL)}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(width=64), st.floats(width=64)), min_size=1, max_size=40),
       st.sampled_from(["inequality", "identity"]))
def test_block_pass_matches_scalar_checks_on_random_floats(pairs, kind):
    check = check_le if kind == "inequality" else check_identity
    lhs, rhs = (np.array(side, dtype=float) for side in zip(*pairs))
    block = RecordBlock("x", lhs, rhs, kind)
    want = [check("x", a, b) for a, b in pairs]
    assert [_bits(m) for m in block.margin.tolist()] == [_bits(r.margin) for r in want]
    assert block.passed.tolist() == [r.passed for r in want]


def test_block_with_mixed_kinds_certifies_only_checks():
    kinds = ["inequality", "identity", "skip", "report", "inequality"]
    block = RecordBlock("x", [2.0, 1.0, math.nan, 3.0, math.nan], [1.0, 1.0, math.nan, math.nan, 0.0],
                        kinds, {"t": np.arange(5)}, note=["", "", "why", "", ""])
    assert block.passed.tolist() == [False, True, True, True, False]
    assert [_bits(m) for m in block.margin.tolist()[:4]] == [
        _bits(-0.5), _bits(0.0), _bits(0.0), _bits(0.0)]
    assert math.isnan(block.margin[4])
    recs = block.records()
    assert [type(r.params["t"]) for r in recs] == [int] * 5
    assert [r.note for r in recs] == ["", "", "why", "", ""]
    assert Report("s", "fp", blocks=[block]).counts() == {
        "inequality": 2, "identity": 1, "report": 1, "skip": 1, "failed": 2}


def _mixed_records() -> list[Record]:
    return [
        check_le("a-bound", 0.5, 1.0, {"A": (0,), "t": 1}),
        check_le("a-bound", 2.0, 1.0, {"A": (0,), "t": 2}),
        check_le("a-bound", 0.5, 1.0, {"A": (0, 1), "t": 1}),
        skip("a-bound", "precondition fails", {"eps": 0.5}),
        check_identity("b-identity", 1.0, 1.0 + 1e-12, {"A": (1,)}),
        report_value("c-value", 3.5, {"x": np.float64(0.25)}, note="measured"),
        check_identity("d-identity", 1.0, math.nan),
        check_le("e-bound", -math.inf, math.inf, {"k": 2}),
    ]


def _mixed_blocks() -> list[RecordBlock]:
    """``_mixed_records`` built as columns, margins computed by the block."""
    return [
        RecordBlock("a-bound", [0.5, 2.0, 0.5], 1.0, "inequality",
                    {"A": [(0,), (0,), (0, 1)], "t": np.array([1, 2, 1])}),
        RecordBlock("a-bound", math.nan, math.nan, "skip", {"eps": [0.5]},
                    note="precondition fails"),
        RecordBlock("b-identity", [1.0], [1.0 + 1e-12], "identity", {"A": [(1,)]}),
        RecordBlock("c-value", [3.5], math.nan, "report", {"x": [np.float64(0.25)]},
                    note="measured"),
        RecordBlock("d-identity", [1.0], [math.nan], "identity"),
        RecordBlock("e-bound", [-math.inf], [math.inf], "inequality", {"k": [2]}),
    ]


def _same_records(got: list[Record], want: list[Record]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.inequality == b.inequality
        assert repr(a.params) == repr(b.params)
        assert [_bits(getattr(a, f)) for f in ("lhs", "rhs", "margin")] == \
               [_bits(getattr(b, f)) for f in ("lhs", "rhs", "margin")]
        assert (a.kind, a.passed, a.note) == (b.kind, b.passed, b.note)
        assert type(a.passed) is bool and type(a.lhs) is float


@pytest.mark.parametrize("source", ["synthetic", "suites"])
def test_table_built_and_record_built_reports_agree(source):
    if source == "synthetic":
        tables = [Report("mixed", "fp", params={"sets": "all"}, blocks=_mixed_blocks())]
        records = [Report("mixed", "fp", RecordBlock.from_records(_mixed_records()),
                          {"sets": "all"})]
    else:
        tables = run_suites(random_reversible(5, seed=11),
                            ["escape", "killed-spectrum", "good-set", "return-time"],
                            {"sets": "all"})
        records = [Report(r.suite, r.chain_fingerprint, RecordBlock.from_records(r.records),
                          r.params)
                   for r in run_suites(random_reversible(5, seed=11),
                                       ["escape", "killed-spectrum", "good-set",
                                        "return-time"], {"sets": "all"})]
    for t, r in zip(tables, records):
        assert t.passed == r.passed
        assert t.counts() == r.counts()
        _same_records(t.failures, r.failures)
        assert _bits(t.worst_margin()) == _bits(r.worst_margin())
        assert t.summary() == r.summary()
        assert json.dumps(t.to_dict()) == json.dumps(r.to_dict())
        assert json.dumps(t.to_dict()["records"]) == json.dumps([x.to_dict() for x in r.records])
        assert t.dumps() == r.dumps()
        _same_records(t.records, r.records)
        # records is rebuilt on every read: two reads are distinct lists
        # of the same rows
        first, second = t.records, t.records
        assert first is not second
        _same_records(first, second)
        _same_records(t.failures, r.failures)
    if source == "synthetic":
        # grouping the records into blocks keeps their margins and flags
        _same_records(records[0].records, _mixed_records())
        assert not tables[0].passed and tables[0].counts()["failed"] == 3
        assert math.isnan(tables[0].worst_margin())


def test_empty_report_passes_with_no_checks():
    empty = Report("s", "fp")
    assert empty.passed and empty.records == [] and empty.worst_margin() == math.inf


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_worst_margin_is_nan_when_any_check_margin_is_nan(where):
    good = [check_le("a", 0.0, 1.0, {"i": i}) for i in range(3)]
    bad = check_le("a", 1.0, math.nan, {"i": 9})
    assert math.isnan(bad.margin) and not bad.passed
    pos = {"first": 0, "middle": 2, "last": 3}[where]
    recs = good[:pos] + [bad] + good[pos:]
    block = RecordBlock("a", [r.lhs for r in recs], [r.rhs for r in recs], "inequality",
                        {"i": [r.params["i"] for r in recs]})
    for rep in (Report("s", "fp", RecordBlock.from_records(recs)),
                Report("s", "fp", blocks=[block])):
        assert not rep.passed
        assert math.isnan(rep.worst_margin())
    # without the NaN the minimum is the first smallest margin
    rep = Report("s", "fp", RecordBlock.from_records(
        good + [check_le("b", 0.0, -0.0), check_le("c", 0.0, 0.0)]))
    assert _bits(rep.worst_margin()) == _bits(-0.0)
    skipped = Report("s", "fp", RecordBlock.from_records([skip("a", "no")]))
    assert skipped.worst_margin() == math.inf


@pytest.mark.parametrize("name", ["random-6 all sets", "biased-path-34", "two-cliques-4"])
def test_report_json_is_json_dumps_of_to_dict(name):
    chain, params = {"random-6 all sets": (random_reversible(6, seed=11), {"sets": "all"}),
                     "biased-path-34": (biased_path(34), {}),
                     "two-cliques-4": (two_cliques(4), {})}[name]
    reports = run_suites(chain, ["all"], params)
    for r in reports:
        assert r.dumps() == json.dumps(r.to_dict(), indent=1)
    assert json_text(reports) == json.dumps([r.to_dict() for r in reports], indent=1)
    if name == "biased-path-34":
        # skip and report rows, failures and a NaN margin all reach the text
        kinds = {k for r in reports for b in r.blocks for k in np.atleast_1d(b.kind).tolist()}
        assert {"skip", "report", "identity", "inequality"} <= kinds
        assert any(np.isnan(b.margin).any() for r in reports for b in r.blocks)
        assert not all(r.passed for r in reports)


def test_report_json_of_mixed_and_escaped_blocks():
    odd = RecordBlock("50% %s \"q\"", [2.0, 1.0, math.nan, 3.0, -0.0],
                      [1.0, 1.0, math.nan, math.nan, math.inf],
                      ["inequality", "identity", "skip", "report", "inequality"],
                      {"a%d": [(0, 1), 'd\u00e9j\u00e0 "vu"', None, [1.5, math.inf], {"k": 1}],
                       "t": np.arange(5)},
                      note=["", "%s", "why \u00e9", "", "back\\slash"])
    # equal containers of 1, 1.0 and True, repeated, each keep their own text
    twins = RecordBlock("twins", [1.0] * 6, [1.0] * 6, "identity",
                        {"v": [(1,), (1.0,), (True,), (1,), (True,), {"k": 1.0}]})
    reports = [Report("mixed", "fp", params={"sets": "all", "eps_grid": (0.25, 0.5)},
                      blocks=_mixed_blocks() + [odd, twins]),
               Report("empty", "fp", params={}),
               Report("records", "fp", RecordBlock.from_records(_mixed_records()))]
    for r in reports:
        assert r.dumps() == json.dumps(r.to_dict(), indent=1)
    assert json_text(reports) == json.dumps([r.to_dict() for r in reports], indent=1)


def _streamed_payloads() -> dict:
    skip_only = Report("gated", "fp", params={"sets": "all"}, blocks=[RecordBlock(
        "gated", math.nan, math.nan, "skip",
        note='needs a "lazy" chain: d\u00e9j\u00e0 50% \\ %s\n')])
    mixed = Report("mixed", "fp", params={"eps_grid": (0.25, 0.5)}, blocks=_mixed_blocks())
    suites = run_suites(random_reversible(5, seed=11), ["escape", "relaxation"],
                        {"sets": "all"})
    return {"one report": suites[0], "list of reports": suites + [mixed],
            "empty report": Report("empty", "fp"), "skip-only block": skip_only,
            "list with empty and skip-only": [Report("empty", "fp"), skip_only, mixed],
            "empty block": Report("s", "fp", [RecordBlock("x", [], [], "inequality")]),
            "plain values": [[1, 2.5, None], {"a": [math.nan, "\u00e9"]}, [], "x",
                             np.arange(3.0), ([],)],
            "report among plain values": [suites[0], {"k": (1, 2)}, [[skip_only]]]}


def _payload_dicts(payload):
    if isinstance(payload, Report):
        return payload.to_dict()
    if isinstance(payload, (list, tuple)):
        return [_payload_dicts(v) for v in payload]
    if isinstance(payload, dict):
        return {k: _payload_dicts(v) for k, v in payload.items()}
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    return payload


@pytest.mark.parametrize("name", ["one report", "list of reports", "empty report",
                                  "skip-only block", "list with empty and skip-only",
                                  "empty block", "plain values",
                                  "report among plain values"])
def test_streamed_report_file_is_json_text(tmp_path, name):
    # write_json_atomic writes reports one block at a time; the bytes are
    # those of the whole text
    payload = _streamed_payloads()[name]
    path = tmp_path / "report.json"
    write_json_atomic(str(path), payload)
    text = json_text(payload)
    assert path.read_bytes() == (text + "\n").encode()
    assert text == json.dumps(_payload_dicts(payload), indent=1)


def test_writing_an_all_sets_report_holds_less_than_the_file(tmp_path):
    # the reports' rows are never held as one text: the memory traced while
    # writing stays below the size of the file written
    reports = run_suites(random_reversible(9, seed=3),
                         ["escape", "killed-spectrum", "good-set", "return-time"],
                         {"sets": "all"})
    path = tmp_path / "reports.json"
    tracemalloc.start()
    try:
        write_json_atomic(str(path), reports)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 5_000_000
    assert peak < size, f"traced peak {peak} B for a {size} B file"
