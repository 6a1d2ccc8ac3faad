import importlib.util
import json
import math
from pathlib import Path

import pytest

from cutofflab import run_suites

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _SCRIPT)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def test_report_diff_passes_identical_and_catches_a_perturbed_lhs(tmp_path, k2, capsys):
    payload = [rep.to_dict() for rep in run_suites(k2, ["escape", "return-time"])]
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "k2.json").write_text(json.dumps(payload))
    a, b = tmp_path / "a" / "k2.json", tmp_path / "b" / "k2.json"
    assert report_diff.main([str(a), str(b)]) == 0
    assert report_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    payload[1]["records"][0]["lhs"] += 1e-9
    b.write_text(json.dumps(payload))
    capsys.readouterr()
    assert report_diff.main([str(a), str(b)]) == 1
    assert "lhs" in capsys.readouterr().out


def test_report_diff_skips_chain_files_and_flags_one_sided_reports(tmp_path, k2, capsys):
    payload = [rep.to_dict() for rep in run_suites(k2, ["relaxation"])]
    chain = json.dumps({"n": 2, "P": k2.P.tolist()})
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "k2.json").write_text(json.dumps(payload))
        (tmp_path / side / "chain.json").write_text(chain)
    a, b = tmp_path / "a", tmp_path / "b"
    assert report_diff.main([str(a), str(b)]) == 0
    assert "chain.json" in capsys.readouterr().err
    (b / "chain.json").write_text(json.dumps(payload))
    assert report_diff.main([str(a), str(b)]) == 1
    assert "chain.json: only" in capsys.readouterr().out
    # two single files are compared whatever their names
    (tmp_path / "before.json").write_text(json.dumps(payload))
    assert report_diff.main([str(tmp_path / "before.json"), str(a / "k2.json")]) == 0


@pytest.mark.parametrize("edit, code", [
    (lambda rec: rec.update(passed=not rec["passed"]), 1),  # a flipped verdict, equal sides
    (lambda rec: rec.update(lhs=rec["lhs"] * (1.0 + 1e-13)), 0),  # a move below 1e-12
], ids=["flipped-passed", "relative-1e-13"])
def test_report_diff_compares_verdicts_exactly_and_sides_to_tolerance(tmp_path, k2, edit, code):
    payload = [rep.to_dict() for rep in run_suites(k2, ["escape"])]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(payload))
    edit(next(r for r in payload[0]["records"]
              if r["lhs"] is not None and math.isfinite(r["lhs"]) and abs(r["lhs"]) > 0.5))
    b.write_text(json.dumps(payload))
    assert json.loads(b.read_text()) != json.loads(a.read_text())
    assert report_diff.main([str(a), str(b)]) == code


def test_report_diff_compares_exit_files_of_two_directories(tmp_path, capsys):
    for side, code in (("a", "0\n"), ("b", "raises:ZeroDivisionError\n")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "m.exit.txt").write_text(code)
    a, b = tmp_path / "a", tmp_path / "b"
    assert report_diff.main([str(a), str(b)]) == 1
    assert "m.exit.txt: exit" in capsys.readouterr().out
    (b / "m.exit.txt").write_text("0\n")
    assert report_diff.main([str(a), str(b)]) == 0
