import csv
import json
import math
import os
import re

import numpy as np
import pytest

from cutofflab import (SUITE_IDS, biased_path, build_tree_chain, chain_from_json,
                       chain_to_json, random_reversible, run_suites)
from cutofflab.trees import crossing_time, tree_from_json
from cutofflab.cli import _emit_blocks, main
from cutofflab.reporting import Record, RecordBlock, Report


def run(*argv):
    return main(list(argv))


def test_gen_analyze_round_trip(tmp_path):
    out = tmp_path / "chain.json"
    assert run("gen", "--family", "biased-path", "--n", "8",
               "-o", str(out)) == 0
    chain = chain_from_json(str(out))
    assert chain.n == 8


@pytest.mark.parametrize("argv", [["analyze", "{path}"],
                                  ["verify", "--chain", "{path}", "--suite", "all"]])
def test_chain_file_without_pi_and_a_nonpositive_solve_is_rejected(tmp_path, capsys, argv):
    # a P-only biased_path(40) solves to a negative pi(1): one typed error,
    # not a math domain error from analyze or a NaN cast from verify
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"P": biased_path(40).P.tolist()}))
    assert run(*[a.format(path=path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"Error: {path}: solved stationary probability of state 1 ")
    assert "supply pi" in err


def test_gen_requires_seed_for_random(tmp_path):
    out = tmp_path / "r.json"
    assert run("gen", "--family", "random", "--n", "5", "-o", str(out)) == 1
    assert not out.exists()
    assert run("gen", "--family", "random", "--n", "5", "--seed", "4",
               "-o", str(out)) == 0
    assert out.exists()


def test_gen_bd_family(tmp_path):
    out = tmp_path / "bd.json"
    assert run("gen", "--family", "bd", "--n", "7", "--seed", "2",
               "-o", str(out)) == 0
    chain = chain_from_json(str(out))
    assert chain.n == 7
    assert chain.is_lazy and chain.is_reversible
    off = np.abs(np.subtract.outer(np.arange(7), np.arange(7))) > 1
    assert np.all(chain.P[off] == 0.0)


@pytest.mark.parametrize("family, n", [
    ("biased-path", "1"), ("aldous", "0"), ("two-cliques", "1"),
    ("random", "1"), ("random-tree", "1"), ("bd", "1"),
])
def test_gen_rejects_small_sizes(tmp_path, capsys, family, n):
    out = tmp_path / "g.json"
    assert run("gen", "--family", family, "--n", n, "--seed", "1", "-o", str(out)) == 1
    assert "Error: need n >= " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["679", "700"])
def test_gen_names_the_biased_path_size_limit(tmp_path, capsys, n):
    # past n = 678, pi(0) ~ 3^-(n-1) is below the smallest positive double;
    # the error used to be "pi must be strictly positive and sum to 1"
    out = tmp_path / "g.json"
    assert run("gen", "--family", "biased-path", "--n", n, "-o", str(out)) == 1
    assert "Error: biased-path needs n <= 678" in capsys.readouterr().err
    assert not out.exists()


def test_gen_round_trip_bit_for_bit(tmp_path):
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    assert run("gen", "--family", "two-cliques", "--n", "5",
               "-o", str(p1)) == 0

    from cutofflab import chain_to_json

    chain_to_json(chain_from_json(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_analyze_json_output(tmp_path, capsys):
    out = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(out))
    capsys.readouterr()
    assert run("analyze", str(out), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 6
    assert payload["lazy"] is True
    assert payload["t_rel"] > 1.0


def test_analyze_text_output_matches_json(tmp_path, capsys):
    out = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(out))
    capsys.readouterr()
    assert run("analyze", str(out), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert run("analyze", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["n        = 6",
                         "flags    = reversible=True lazy=True irreducible=True"]
    assert f"t_mix(0.25) = {payload['t_mix']}" in lines
    t_rel = next(line for line in lines if line.startswith("t_rel    = "))
    assert float(t_rel.split("= ")[1]) == pytest.approx(payload["t_rel"], rel=1e-11)


@pytest.mark.parametrize("eps", ["0", "1.5"])
def test_analyze_rejects_eps_outside_unit_interval(tmp_path, capsys, eps):
    out = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(out))
    capsys.readouterr()
    assert run("analyze", str(out), "--eps", eps) == 1
    err = capsys.readouterr().err
    assert "eps must be in (0, 1)" in err
    assert "Traceback" not in err


def test_analyze_missing_file():
    assert run("analyze", "/nonexistent/chain.json") != 0


def test_malformed_chain_file_is_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"P": [[0.9, 0.2], [0.25, 0.75]]}))
    assert run("analyze", str(bad)) == 1


_CHAIN_COMMANDS = {
    "analyze": ["analyze", "{path}"],
    "verify": ["verify", "--chain", "{path}", "--suite", "relaxation"],
    "simulate": ["simulate", "--chain", "{path}", "--start", "0", "--set", "1",
                 "--t", "2", "--seed", "1"],
}
_HOLDING = [0.5, 0.5, 0.5]


@pytest.mark.parametrize("kind,command,payload", [
    *[("chain", cmd, payload) for cmd in _CHAIN_COMMANDS for payload in ([], {"P": 3})],
    ("chain", "analyze", {"P": None}),
    ("chain", "analyze", {"P": [[0.5, 0.5], [0.5, 0.5]], "labels": 3}),
    ("tree", "central", []),
    ("tree", "central", {"vertices": 3, "edges": 5, "holding": _HOLDING}),
    ("tree", "central", {"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
                         "holding": _HOLDING}),
    ("tree", "central", {"vertices": None, "edges": [], "holding": _HOLDING}),
])
def test_malformed_payload_is_an_error_not_a_traceback(tmp_path, capsys, kind, command,
                                                       payload):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))
    argv = (_CHAIN_COMMANDS[command] if kind == "chain" else ["tree", command, "{path}"])
    assert run(*[a.format(path=path) for a in argv]) == 1
    assert f"{path}: malformed {kind} file (" in capsys.readouterr().err


def test_hit_csv_output(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    out = tmp_path / "tails.csv"
    assert run("hit", str(chain), "--alpha", "0.5", "--eps", "0.25",
               "-o", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "tail"]
    tails = np.array([float(r[1]) for r in rows[1:]])
    assert tails[0] == 1.0
    assert np.all(np.diff(tails) <= 1e-12)
    leftovers = [p for p in tmp_path.iterdir()
                 if p.suffix == ".tmp"]
    assert leftovers == []


def test_hit_explicit_set(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    capsys.readouterr()
    assert run("hit", str(chain), "--set", "5", "--start", "0",
               "--eps", "0.25") == 0
    assert "tail <= 0.25" in capsys.readouterr().out


def test_hit_explicit_set_continuous(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    chain_to_json(random_reversible(7, seed=3), str(chain))
    capsys.readouterr()
    assert run("hit", str(chain), "--set", "2,5", "--continuous", "--eps", "0.25") == 0
    assert "tail <= 0.25 first at t = " in capsys.readouterr().out


def test_hit_explicit_set_finds_late_crossings(tmp_path, capsys):
    # the stationary tails of this killed system first reach 0.25 at t = 60
    # and 0.05 at t = 130, far past 4 t_rel
    chain = tmp_path / "chain.json"
    run("gen", "--family", "random", "--n", "12", "--seed", "3", "-o", str(chain))
    out = tmp_path / "tails.csv"
    capsys.readouterr()
    assert run("hit", str(chain), "--set", "4", "--eps", "0.25", "--eps", "0.05",
               "-o", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["tail <= 0.25 first at t = 60 (set=[4], start=stationary)",
                         "tail <= 0.05 first at t = 130 (set=[4], start=stationary)"]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    tails = [float(v) for _, v in rows]
    assert [int(t) for t, _ in rows] == list(range(131))
    assert tails[59] > 0.25 >= tails[60] and tails[129] > 0.05 >= tails[130]


def test_hit_explicit_set_reports_a_tail_that_never_falls(tmp_path, capsys):
    # pi(0) = 3^-33 on biased-path n = 34: a killed eigenvalue of {0}
    # rounds to 1, so the tail stays put in double precision
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "34", "-o", str(chain))
    capsys.readouterr()
    assert run("hit", str(chain), "--set", "0", "--eps", "0.25") == 1
    assert "does not fall to every --eps level" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["1.5", "0", "-0.5"])
@pytest.mark.parametrize("args", [["--set", "0"], []], ids=["set", "worst-set"])
def test_hit_rejects_eps_outside_unit_interval(tmp_path, capsys, args, eps):
    # with --set, 1.5 and 0 used to print a crossing time and exit 0, and
    # -0.5 ended in "does not fall to every --eps level"
    chain = tmp_path / "c.json"
    run("gen", "--family", "two-cliques", "--n", "4", "-o", str(chain))
    capsys.readouterr()
    assert run("hit", str(chain), *args, "--eps", eps) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "Error: eps must be in (0, 1)" in err


@pytest.mark.parametrize("args, message", [
    (["--set=-1"], "out of range"),
    (["--set", "5", "--start", "9"], "not a state"),
])
def test_hit_rejects_out_of_range_states(tmp_path, capsys, args, message):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    capsys.readouterr()
    assert run("hit", str(chain), "--eps", "0.25", *args) == 1
    assert message in capsys.readouterr().err


CYCLE = {"P": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]}  # not reversible
SPLIT = {"P": [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]}  # reducible


@pytest.mark.parametrize("argv, message", [
    (["analyze", CYCLE], "requires a reversible chain"),
    (["analyze", SPLIT], "requires an irreducible chain"),
    (["hit", SPLIT, "--set", "1", "--start", "0"], "requires an irreducible chain"),
    (["hit", SPLIT], "requires an irreducible chain"),
], ids=["analyze-cycle", "analyze-split", "hit-set-split", "hit-split"])
def test_chain_requirements_are_validation_errors(tmp_path, capsys, argv, message):
    # each used to end in a traceback; plain hit on SPLIT scanned to t_max
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(argv[1]))
    assert run(argv[0], str(path), *argv[2:]) == 1
    assert f"Error: operation {message}" in capsys.readouterr().err


def test_hit_set_on_a_non_reversible_chain(tmp_path, capsys):
    # on the lazy one-way 3-cycle Pr_0[T_{1} > t] = 2^-t: the crossings and
    # the CSV are forward products of P_B, with no reversibility needed
    path, csv = tmp_path / "cycle.json", tmp_path / "tail.csv"
    path.write_text(json.dumps(CYCLE))
    assert run("hit", str(path), "--set", "1", "--start", "0",
               "--eps", "0.25", "--eps", "0.01", "-o", str(csv)) == 0
    out = capsys.readouterr().out
    assert "tail <= 0.25 first at t = 2 (set=[1], start=0)" in out
    assert "tail <= 0.01 first at t = 7 (set=[1], start=0)" in out
    rows = [line.split(",") for line in csv.read_text().splitlines()]
    assert rows[0] == ["t", "tail"]
    assert [(int(t), float(v)) for t, v in rows[1:]] == [(t, 2.0 ** -t) for t in range(8)]


@pytest.mark.parametrize("value", ["99", "-1"])
@pytest.mark.parametrize("argv", [
    ["sbd", "hit-stats", "CHAIN", "--x"],
    ["sbd", "corr", "CHAIN", "--block-i", "0", "--block-j", "1", "--seed", "1", "--x"],
    ["tree", "tails", "TREE", "--x"],
    ["tree", "crossing", "TREE", "-u"],
], ids=["sbd-hit-stats", "sbd-corr", "tree-tails", "tree-crossing"])
def test_state_options_reject_out_of_range(tmp_path, capsys, argv, value):
    # a 6-state biased path and an 8-vertex tree: 99 used to raise
    # IndexError out of main, and -1 wrapped to the last state
    chain, tree = tmp_path / "chain.json", tmp_path / "tree.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    run("gen", "--family", "random-tree", "--n", "8", "--seed", "3", "-o", str(tree))
    capsys.readouterr()
    files = {"CHAIN": str(chain), "TREE": str(tree)}
    assert run(*[files.get(a, a) for a in argv], value) == 1
    assert f"{argv[-1]} {value} is not a state" in capsys.readouterr().err


def test_verify_exit_zero_and_report(tmp_path):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    report = tmp_path / "report.json"
    assert run("verify", "--chain", str(chain), "--suite", "relaxation",
               "--suite", "escape", "--quiet", "-o", str(report)) == 0
    payload = json.loads(report.read_text())
    assert isinstance(payload, list) and len(payload) == 2
    assert {p["suite"] for p in payload} == {"relaxation", "escape"}
    assert all(p["passed"] for p in payload)
    assert all(p["params"] == {"sets": "sampled", "seed": 7,
                               "exact_threshold": 14} for p in payload)


def _record_line(rec: Record) -> str:
    """The line ``verify`` prints for one record."""
    if rec.kind == "skip":
        return f"  skip  {rec.inequality} {rec.params}: {rec.note}"
    if rec.kind == "report":
        return f"  info  {rec.inequality} {rec.params}: value={rec.lhs:.6g}"
    status = "ok" if rec.passed else "FAIL"
    return (f"  {status:4s}  {rec.inequality} {rec.params}: lhs={rec.lhs:.10g} "
            f"rhs={rec.rhs:.10g} margin={rec.margin:.3e}")


@pytest.mark.parametrize("quiet", [False, True])
def test_verify_writes_and_prints_the_records_of_run_suites(tmp_path, capsys, quiet):
    # biased-path n = 34 has failing checks, a NaN margin, skip and report rows
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "34", "-o", str(chain))
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run("verify", "--chain", str(chain), "--suite", "all", "-o", str(report),
               *(["--quiet"] if quiet else [])) == 2
    out = capsys.readouterr().out
    reports = run_suites(chain_from_json(str(chain)), SUITE_IDS,
                         {"sets": "sampled", "seed": 7, "exact_threshold": 14})
    assert report.read_text() == json.dumps([r.to_dict() for r in reports], indent=1) + "\n"
    want = []
    for r in reports:
        want.append(r.summary())
        want += [_record_line(rec) for rec in (r.failures if quiet else r.records)]
    want.append(f"wrote report -> {report}")
    assert out == "\n".join(want) + "\n"


def test_record_lines_of_mixed_and_escaped_blocks(capsys):
    blocks = [
        RecordBlock("50% %s", [2.0, 1.0, math.nan, 3.0, -0.0], [1.0, 1.0, math.nan, math.nan, 0.0],
                    ["inequality", "identity", "skip", "report", "inequality"],
                    {"a%d": [(0, 1), "%r", None, [1.5], np.float64(0.25)], "t": np.arange(5)},
                    note=["", "", "why %s", "", ""]),
        RecordBlock("no-params", [1.0, 0.5], [0.5, 1.0], "identity"),
    ]
    records = [r for b in blocks for r in b.records()]
    for emit in (lambda: _emit_blocks(blocks, "x"), lambda: _emit_blocks(records, "x")):
        assert emit() == 3
        out, err = capsys.readouterr()
        assert out == "\n".join(map(_record_line, records)) + "\n"
        assert err == "x: 3 failing record(s)\n"
    assert _emit_blocks(blocks, "x", failures_only=True) == 3
    out, _ = capsys.readouterr()
    assert out == "\n".join(_record_line(r) for r in records if not r.passed) + "\n"


def test_verify_all_on_k2(tmp_path):
    chain = tmp_path / "k2.json"
    from cutofflab import chain_to_json, load_chain

    chain_to_json(load_chain(np.array([[0.75, 0.25], [0.25, 0.75]])),
                  str(chain))
    assert run("verify", "--chain", str(chain), "--suite", "all",
               "--quiet") == 0


def test_verify_unknown_suite_is_usage_error(tmp_path):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "5", "-o", str(chain))
    assert run("verify", "--chain", str(chain), "--suite", "bogus") == 1


@pytest.mark.parametrize("argv, key", [
    (["--suite", "tv-hit", "--alpha", "0"], "alpha_grid"),
    (["--suite", "relaxation", "--eps", "1.5"], "eps_grid"),
])
def test_verify_rejects_grid_values_outside_unit_interval(tmp_path, capsys, argv, key):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    capsys.readouterr()
    assert run("verify", "--chain", str(chain), *argv) == 1
    out, err = capsys.readouterr()
    assert f"Error: {key} values must lie in (0, 1)" in err
    assert out == ""


def test_verify_failure_exits_two(tmp_path, monkeypatch):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "5", "-o", str(chain))
    failing = Record(inequality="synthetic", params={}, lhs=1.0, rhs=0.0,
                     margin=-1.0, kind="inequality", passed=False)

    def fake_run_suites(chain_obj, suites, params=None):
        return [Report(suite=s, chain_fingerprint="stub",
                       blocks=RecordBlock.from_records([failing]))
                for s in suites]

    import cutofflab.verify as verify_mod

    monkeypatch.setattr(verify_mod, "run_suites", fake_run_suites)
    assert run("verify", "--chain", str(chain), "--suite", "relaxation") == 2


@pytest.mark.parametrize("paths", ["1", "0", "-3"])
def test_sbd_corr_rejects_fewer_than_two_paths(tmp_path, capsys, paths):
    # 0 and 1 path used to give a NaN standard error and a false FAIL row
    # (exit 2); -3 warned and then failed in numpy
    chain = tmp_path / "b.json"
    run("gen", "--family", "biased-path", "--n", "9", "-o", str(chain))
    capsys.readouterr()
    assert run("sbd", "corr", str(chain), "--x", "0", "--block-i", "0", "--block-j", "1",
               "--seed", "1", "--paths", paths) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "Error: paths must be at least 2\n"


def test_sbd_corr_notes_a_small_run_in_one_plain_line(tmp_path, capsys):
    # fewer than 10^4 paths used to print a raw UserWarning naming the
    # installed cli.py and a line number; every run prints the note
    chain = tmp_path / "b.json"
    run("gen", "--family", "biased-path", "--n", "9", "-o", str(chain))
    capsys.readouterr()
    for _ in range(2):
        assert run("sbd", "corr", str(chain), "--x", "0", "--block-i", "0", "--block-j", "1",
                   "--seed", "1", "--paths", "2000") == 0
        err = capsys.readouterr().err
        assert err == ("note: fewer than 10^4 paths: the confidence interval on the "
                       "product moment may be too wide to be informative\n")
        assert ".py" not in err


def test_cutoff_scan_stdout_csv(capsys):
    capsys.readouterr()
    assert run("cutoff-scan", "--family", "biased-path",
               "--sizes", "6,9", "--eps", "0.1") == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 2
    assert {r["n"] for r in rows} == {"6", "9"}
    assert float(rows[0]["ratio"]) >= 1.0


def test_cutoff_scan_rejects_an_empty_size_list(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    capsys.readouterr()
    assert run("cutoff-scan", "--family", "biased-path", "--sizes", "", "-o", str(out)) == 1
    captured = capsys.readouterr()
    assert "Error: sizes must hold at least one size" in captured.err
    assert "flags:" not in captured.err and not out.exists()


def test_cutoff_scan_csv_file(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    argv = ["cutoff-scan", "--family", "biased-path", "--sizes", "6,9",
            "--eps", "0.1", "--eps", "0.25"]
    assert run(*argv, "-o", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert "ratio" in rows[0]
    # the file and the stdout table are the same CSV
    capsys.readouterr()
    assert run(*argv) == 0
    assert list(csv.DictReader(capsys.readouterr().out.splitlines())) == rows


def _simulate_lines(out):
    lines = {l.split("=")[0].strip(): l.split("=")[1].strip()
             for l in out.splitlines() if "=" in l}
    est, se = lines["estimate"].split("(")[0].split("+/-")
    return float(est), float(se), float(lines["exact"])


def test_simulate_agrees_with_exact(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    capsys.readouterr()
    assert run("simulate", "--chain", str(chain), "--start", "0",
               "--set", "5", "--t", "10", "--paths", "20000",
               "--seed", "17") == 0
    est, se, exact = _simulate_lines(capsys.readouterr().out)
    assert abs(est - exact) <= 4.0 * max(se, 1e-9)


def test_simulate_takes_a_non_reversible_chain(tmp_path, capsys):
    # neither the simulation nor P_B^t 1 needs reversibility: on the lazy
    # one-way 3-cycle Pr_0[T_{2} > 4] = 5/16
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(CYCLE))
    assert run("simulate", "--chain", str(path), "--start", "0", "--set", "2",
               "--t", "4", "--paths", "20000", "--seed", "5") == 0
    est, se, exact = _simulate_lines(capsys.readouterr().out)
    assert exact == pytest.approx(5 / 16, abs=1e-15)
    assert abs(est - exact) <= 4.0 * se


def test_simulate_output_is_pinned(tmp_path, capsys):
    # recorded before the indexed-search step kernel replaced the binary
    # search: any change to the uniform -> state map changes these digits
    chain = tmp_path / "chain.json"
    run("gen", "--family", "two-cliques", "--n", "6", "-o", str(chain))
    capsys.readouterr()
    assert run("simulate", "--chain", str(chain), "--start", "0", "--set", "11",
               "--t", "12", "--paths", "20000", "--seed", "4") == 0
    assert capsys.readouterr().out == ("estimate = 0.9687 +/- 0.00123 (20000 paths, seed 4)\n"
                                       "exact    = 0.9684321692\n"
                                       "z        = +0.22\n")


def test_simulate_requires_seed(tmp_path):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    assert run("simulate", "--chain", str(chain), "--start", "0",
               "--set", "5", "--t", "10") != 0


@pytest.mark.parametrize("seed", [str(-1), str(2 ** 128)])
@pytest.mark.parametrize("argv", [
    ["simulate", "--chain", "CHAIN", "--start", "0", "--set", "5", "--t", "10"],
    # a start inside the target draws nothing, but the seed is still checked
    ["simulate", "--chain", "CHAIN", "--start", "5", "--set", "5", "--t", "10"],
    ["sbd", "corr", "CHAIN", "--x", "0", "--block-i", "0", "--block-j", "1"],
], ids=["simulate", "simulate-start-in-target", "sbd-corr"])
def test_monte_carlo_commands_reject_a_seed_outside_the_key_range(tmp_path, capsys,
                                                                 argv, seed):
    # numpy's own message ("key must be positive and less than 2**128")
    # wrongly excludes seed 0
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    capsys.readouterr()
    argv = [str(chain) if a == "CHAIN" else a for a in argv]
    assert run(*argv, "--seed", seed) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "Error: seed must be an integer in [0, 2**128)\n"


def test_monte_carlo_commands_take_seed_zero(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    assert run("simulate", "--chain", str(chain), "--start", "0", "--set", "5",
               "--t", "10", "--paths", "1000", "--seed", "0") == 0
    assert run("sbd", "corr", str(chain), "--x", "0", "--block-i", "0", "--block-j", "1",
               "--paths", "1000", "--seed", "0") == 0


@pytest.mark.parametrize("states, message", [
    ("99", "target state out of range"),
    ("", "target set must be nonempty"),
])
def test_simulate_rejects_bad_target(tmp_path, capsys, states, message):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    capsys.readouterr()
    assert run("simulate", "--chain", str(chain), "--start", "0", "--set", states,
               "--t", "10", "--seed", "1") == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_escape_with_an_unreachable_target_warns_nothing(tmp_path, capsys):
    # on biased-path n = 34 a killed eigenvalue of A = {0} rounds to 1, so
    # E_pi[T_A] is inf and stationary-mean-hitting fails, with no numpy
    # warning on the way
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "34", "-o", str(chain))
    capsys.readouterr()
    assert run("verify", "--chain", str(chain), "--suite", "escape") == 2
    out, err = capsys.readouterr()
    assert "FAIL  stationary-mean-hitting {'A': (0,)}: lhs=inf" in out
    assert "Warning" not in err


def test_tree_subcommands(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    assert run("gen", "--family", "random-tree", "--n", "12", "--seed", "8",
               "-o", str(tree)) == 0
    assert run("tree", "central", str(tree)) == 0
    capsys.readouterr()
    assert run("tree", "window-check", str(tree), "--eps", "0.25") == 0
    assert run("tree", "tails", str(tree), "--x", "0") in (0, 1)


def test_tree_crossing_prints_the_exact_moments(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    run("gen", "--family", "random-tree", "--n", "12", "--seed", "8", "-o", str(tree))
    tc = build_tree_chain(tree_from_json(str(tree)))
    u = next(v for v in range(tc.n) if v != tc.root)
    capsys.readouterr()
    assert run("tree", "crossing", str(tree), "-u", str(u)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"crossing {u} -> {int(tc.parent[u])}"
    assert lines[1] == f"mean          = {crossing_time(tc, u).mean:.12g}"
    assert [line.split(" = ")[0].rstrip() for line in lines[2:]] == [
        "second moment", "variance"]


def test_tree_window_check_prints_the_suite_rows(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    run("gen", "--family", "random-tree", "--n", "20", "--seed", "2", "-o", str(tree))
    capsys.readouterr()
    assert run("tree", "window-check", str(tree)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["ok", "root-mean-below-4tmix"], ["ok", "mixing-window-sqrt"],
        ["ok", "tau-lower-concentration"], ["ok", "tau-upper-concentration"]]
    assert run("tree", "window-check", str(tree), "--eps", "0.3") == 1
    assert "Error: eps must be in (0, 1/4]" in capsys.readouterr().err


def test_tree_tails_rejects_nonpositive_c(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    run("gen", "--family", "random-tree", "--n", "20", "--seed", "2", "-o", str(tree))
    run("tree", "central", str(tree))
    x = "1" if "root     = 0" in capsys.readouterr().out else "0"
    assert run("tree", "tails", str(tree), "--x", x, "--c", "-1") == 1
    err = capsys.readouterr().err
    assert "Error: c must be positive" in err
    assert "islice" not in err


def test_tree_tails_rejects_a_root_start(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    run("gen", "--family", "random-tree", "--n", "8", "--seed", "1", "-o", str(tree))
    capsys.readouterr()
    run("tree", "central", str(tree))
    root = re.search(r"root\s+= (\d+)", capsys.readouterr().out).group(1)
    assert run("tree", "tails", str(tree), "--x", root) == 1
    err = capsys.readouterr().err
    assert f"Error: x = {root} is the root and has no proper ancestor" in err
    assert "y must be" not in err


def test_tree_tails_rejects_a_non_finite_c(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    run("gen", "--family", "random-tree", "--n", "8", "--seed", "1", "-o", str(tree))
    capsys.readouterr()
    run("tree", "central", str(tree))
    root = int(re.search(r"root\s+= (\d+)", capsys.readouterr().out).group(1))
    x = 1 if root == 0 else 0
    for c in ("nan", "inf"):
        assert run("tree", "tails", str(tree), "--x", str(x), "--c", "0.5", "--c", c) == 1
        assert "Error: c must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["0.5", "nan", "inf", "-0.1"])
def test_sbd_blocks_rejects_a_delta_override_out_of_range(tmp_path, capsys, delta):
    # the biased path's smallest nearest-neighbor probability is 0.125
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    capsys.readouterr()
    assert run("sbd", "blocks", str(chain), "--delta", delta) == 1
    captured = capsys.readouterr()
    assert f"Error: delta {float(delta)} must lie in [0, 0.125]" in captured.err
    assert captured.out == ""
    assert run("sbd", "blocks", str(chain), "--delta", "0.1") == 0
    assert capsys.readouterr().out.startswith("r=1 delta=0.1 ")


def test_sbd_subcommands(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "8", "-o", str(chain))
    assert run("sbd", "classify", str(chain)) == 0
    blocks_csv = tmp_path / "blocks.csv"
    assert run("sbd", "blocks", str(chain), "-o", str(blocks_csv)) == 0
    with open(blocks_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8  # r = 1 for the biased path
    capsys.readouterr()
    assert run("sbd", "blocks", str(chain)) == 0
    lines = capsys.readouterr().out.splitlines()
    central = [row for row in rows if row["central"] == "True"]
    assert len(central) == 1
    assert lines[0].startswith(f"r=1 delta=0.125 central block={central[0]['block']} (mass ")
    assert len(lines) == 9
    for line, row in zip(lines[1:], rows):
        mark = " *" if row["central"] == "True" else ""
        assert line == (f"block {row['block']}: [{row['lo']}, {row['hi']}] size=1 "
                        f"mass={float(row['mass']):.6g}{mark}")
    assert run("sbd", "hit-stats", str(chain)) == 0


def test_threads_option_sets_environment(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    chain = tmp_path / "chain.json"
    assert run("--threads", "2", "gen", "--family", "biased-path",
               "--n", "5", "-o", str(chain)) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_threads_rejects_nonpositive():
    assert run("--threads", "0", "gen", "--family", "biased-path",
               "--n", "5", "-o", "/tmp/x.json") == 1


def test_in_process_runs_keep_no_stream_alive(tmp_path):
    # every write, help text included, goes through a stream looked up per
    # call, so the streams a caller redirects to are freed once main returns
    # (a bare click.echo would keep each one in click's per-stream cache)
    import contextlib
    import gc
    import io
    import weakref

    chain, far = str(tmp_path / "c.json"), str(tmp_path / "far.json")
    assert run("gen", "--family", "biased-path", "--n", "34", "-o", far) == 0
    cases = [
        (["gen", "--family", "biased-path", "--n", "6", "-o", chain], 0),
        (["analyze", chain, "--json"], 0),
        (["verify", "--chain", chain, "--suite", "relaxation",
          "-o", str(tmp_path / "r.json")], 0),
        (["simulate", "--chain", chain, "--start", "0", "--set", "5", "--t", "4",
          "--paths", "1000", "--seed", "3"], 0),
        (["cutoff-scan", "--family", "biased-path", "--sizes", "4,5"], 0),
        (["verify", "--chain", far, "--suite", "escape", "--quiet"], 2),
        (["analyze"], 1),
        (["--help"], 0),
        (["verify", "--help"], 0),
        (["tree", "--help"], 0),
        (["tree"], 1),
    ]
    refs = []
    for argv, code in cases:
        for _ in range(3):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(argv) == code
            # cutoff-scan's flags line, the failure summary, the usage error
            # and a group's help when called bare all go to stderr; help
            # asked for goes to stdout
            assert bool(err.getvalue()) == (argv[0] == "cutoff-scan" or code != 0)
            assert ("Usage:" in out.getvalue()) == ("--help" in argv)
            refs += [weakref.ref(out), weakref.ref(err)]
            del out, err
    gc.collect()
    assert [r for r in refs if r() is not None] == []
