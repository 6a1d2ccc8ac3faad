import csv
import json
import os

import numpy as np
import pytest

from cutofflab import chain_from_json
from cutofflab.cli import main
from cutofflab.reporting import Record, Report


def run(*argv):
    return main(list(argv))


def test_gen_analyze_round_trip(tmp_path):
    out = tmp_path / "chain.json"
    assert run("gen", "--family", "biased-path", "--n", "8",
               "-o", str(out)) == 0
    chain = chain_from_json(str(out))
    assert chain.n == 8


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
    (["hit", CYCLE, "--set", "1", "--start", "0"], "requires a reversible chain"),
    (["hit", SPLIT, "--set", "1", "--start", "0"], "requires an irreducible chain"),
    (["hit", SPLIT], "requires an irreducible chain"),
], ids=["analyze-cycle", "analyze-split", "hit-set-cycle", "hit-set-split", "hit-split"])
def test_chain_requirements_are_validation_errors(tmp_path, capsys, argv, message):
    # each used to end in a traceback; plain hit on SPLIT scanned to t_max
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(argv[1]))
    assert run(argv[0], str(path), *argv[2:]) == 1
    assert f"Error: operation {message}" in capsys.readouterr().err


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


def test_verify_failure_exits_two(tmp_path, monkeypatch):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "5", "-o", str(chain))
    failing = Record(inequality="synthetic", params={}, lhs=1.0, rhs=0.0,
                     margin=-1.0, kind="inequality", passed=False)

    def fake_run_suites(chain_obj, suites, params=None):
        return [Report(suite=s, chain_fingerprint="stub", records=[failing])
                for s in suites]

    import cutofflab.verify as verify_mod

    monkeypatch.setattr(verify_mod, "run_suites", fake_run_suites)
    assert run("verify", "--chain", str(chain), "--suite", "relaxation") == 2


def test_cutoff_scan_stdout_csv(capsys):
    capsys.readouterr()
    assert run("cutoff-scan", "--family", "biased-path",
               "--sizes", "6,9", "--eps", "0.1") == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 2
    assert {r["n"] for r in rows} == {"6", "9"}
    assert float(rows[0]["ratio"]) >= 1.0


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


def test_simulate_agrees_with_exact(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    capsys.readouterr()
    assert run("simulate", "--chain", str(chain), "--start", "0",
               "--set", "5", "--t", "10", "--paths", "20000",
               "--seed", "17") == 0
    out = capsys.readouterr().out
    lines = {l.split("=")[0].strip(): l.split("=")[1].strip()
             for l in out.splitlines() if "=" in l}
    est = float(lines["estimate"].split("+/-")[0])
    exact = float(lines["exact"])
    se = float(lines["estimate"].split("+/-")[1].split("(")[0])
    assert abs(est - exact) <= 4.0 * max(se, 1e-9)


def test_simulate_requires_seed(tmp_path):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "6", "-o", str(chain))
    assert run("simulate", "--chain", str(chain), "--start", "0",
               "--set", "5", "--t", "10") != 0


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


def test_sbd_subcommands(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    run("gen", "--family", "biased-path", "--n", "8", "-o", str(chain))
    assert run("sbd", "classify", str(chain)) == 0
    blocks_csv = tmp_path / "blocks.csv"
    assert run("sbd", "blocks", str(chain), "-o", str(blocks_csv)) == 0
    with open(blocks_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8  # r = 1 for the biased path
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
