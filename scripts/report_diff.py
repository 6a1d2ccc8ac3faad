#!/usr/bin/env python3
"""Compare two `cutofflab verify -o` outputs record by record.

Each side is a report file or a directory of them (`*.json`, matched by
file name).  The outputs match when both hold the same reports with the
same sequence of (suite, inequality, params, kind, passed) records, and
every lhs and rhs agrees to 1e-12 relative to max(1, |x|).  Two
directories must also hold the same `*.exit.txt` files, byte for byte (the
exit codes `scripts/verify_corpus.py` writes).  This is the equivalence
check for a change that should keep the records of a fixed corpus: last-bit
moves pass, a changed verdict or outcome does not.  Files that hold no
report on either side, such as the chain files `verify` read, are skipped
and named on stderr; a file that holds a report on one side only is a
difference.

Usage:
    python3 scripts/report_diff.py before.json after.json
    python3 scripts/report_diff.py before_dir/ after_dir/

Exit status: 0 when the outputs match, 1 when they differ.
"""

import argparse
import json
import math
import sys
from pathlib import Path

TOL = 1e-12
SHOW = 10


def _is_report(payload) -> bool:
    return isinstance(payload, dict) and "suite" in payload and "records" in payload


def _reports(path: Path) -> dict[str, list[dict] | None]:
    """File name -> the reports it holds, or None when it holds none.  A
    single file is keyed by the empty name, so that two files of different
    names are compared with each other."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        payload = json.loads(f.read_text())
        reports = payload if isinstance(payload, list) else [payload]
        key = f.name if path.is_dir() else ""
        out[key] = reports if reports and all(map(_is_report, reports)) else None
    return out


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _exits(path: Path) -> dict[str, str]:
    return {f.name: f.read_text() for f in path.glob("*.exit.txt")} if path.is_dir() else {}


def compare(a: Path, b: Path) -> list[str]:
    """Differences between two outputs, one line each; empty when they match."""
    left, right = _reports(a), _reports(b)
    exits_a, exits_b = _exits(a), _exits(b)
    problems = [f"{name}: exit {exits_a.get(name)!r} vs {exits_b.get(name)!r}"
                for name in sorted(exits_a.keys() | exits_b.keys())
                if exits_a.get(name) != exits_b.get(name)]
    for key in sorted(left.keys() | right.keys()):
        reps_a, reps_b = left.get(key), right.get(key)
        name = key or a.name
        if reps_a is None and reps_b is None:
            print(f"skipped {name}: no report on either side", file=sys.stderr)
            continue
        if reps_a is None or reps_b is None:
            side = a if reps_b is None else b
            problems.append(f"{name}: only {side} holds a report")
            continue
        if [r["suite"] for r in reps_a] != [r["suite"] for r in reps_b]:
            problems.append(f"{name}: suites differ")
            continue
        for rep_a, rep_b in zip(reps_a, reps_b):
            where = f"{name} {rep_a['suite']}"
            recs_a, recs_b = rep_a["records"], rep_b["records"]
            if len(recs_a) != len(recs_b):
                problems.append(f"{where}: {len(recs_a)} vs {len(recs_b)} records")
                continue
            for i, (ra, rb) in enumerate(zip(recs_a, recs_b)):
                key_a = [ra[k] for k in ("inequality", "params", "kind", "passed")]
                key_b = [rb[k] for k in ("inequality", "params", "kind", "passed")]
                if key_a != key_b:
                    problems.append(f"{where} record {i}: {key_a} vs {key_b}")
                for side in ("lhs", "rhs"):
                    if not _close(ra[side], rb[side]):
                        problems.append(f"{where} record {i} {ra['inequality']} "
                                        f"{ra['params']}: {side} {ra[side]!r} vs {rb[side]!r}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="report file or directory")
    ap.add_argument("b", type=Path, help="report file or directory")
    args = ap.parse_args(argv)
    problems = compare(args.a, args.b)
    for line in problems[:SHOW]:
        print(line)
    if len(problems) > SHOW:
        print(f"... and {len(problems) - SHOW} more")
    print("match" if not problems else f"{len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
