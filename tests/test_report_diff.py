import importlib.util
import json
from pathlib import Path

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
