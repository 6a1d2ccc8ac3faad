import filecmp
import importlib.util
import json
from pathlib import Path

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verify_corpus = _load("verify_corpus")
report_diff = _load("report_diff")


def _same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors


def test_corpus_runs_are_byte_identical_and_pass_report_diff(tmp_path, capsys):
    corpus = [entry for entry in verify_corpus.CORPUS
              if entry[0] in ("bd-7", "biased-path-20")]
    assert len(corpus) == 2
    for side in ("before", "after"):
        verify_corpus.run(tmp_path / side, corpus)
    before, after = tmp_path / "before", tmp_path / "after"
    assert _same_tree(before, after)
    assert report_diff.main([str(before), str(after)]) == 0
    # bd-7 has 7 states and is swept over every target set; biased-path n = 20
    # fails its return-time identities (exit 2) yet writes its report
    assert (before / "bd-7.exit.txt").read_text() == "0\n"
    assert (before / "biased-path-20.exit.txt").read_text() == "2\n"
    reports = json.loads((before / "bd-7.report.json").read_text())
    assert {r["params"]["sets"] for r in reports} == {"all"}
    escape = next(r for r in reports if r["suite"] == "escape")
    assert len({tuple(rec["params"]["A"]) for rec in escape["records"]}) == 2 ** 7 - 2
    stdout = (before / "bd-7.stdout.txt").read_text()
    assert "wrote report -> bd-7.report.json" in stdout
    assert str(tmp_path) not in stdout
