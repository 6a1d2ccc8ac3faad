#!/usr/bin/env python3
"""Run `cutofflab verify --suite all` over a fixed, seeded corpus of chains.

For every member of the corpus the script generates the chain with
`cutofflab gen`, runs `cutofflab verify --suite all -o` on it in process,
and stores in OUT_DIR:

- `<name>.chain.json`: the chain `gen` wrote, or for a random-tree member
  the walk built from the tree spec `gen` wrote to `<name>.tree.json`;
- `<name>.report.json`: the `verify -o` report, when the run got that far;
- `<name>.stdout.txt`: everything `verify` printed on standard output;
- `<name>.exit.txt`: the exit code, or `raises:<exception>` when an
  exception escaped `cutofflab.cli.main`.

The corpus covers every deterministic `gen` family, including the members
known to fail (biased-path n = 20, 34, 50 and aldous n = 3, 5), a seeded
birth-death chain, random chains with 6 to 40 states and random branching
trees with 8 and 40 vertices.  Chains with at most 10 states are verified
over every target set (`--sets all`).  To show that a change keeps the
records, gate on `scripts/report_diff.py`: the same pass/fail sequence and
exit files, every lhs and rhs equal to 1e-12 (last-bit moves are not
differences):

    PYTHONPATH=src python3 scripts/verify_corpus.py before/
    ... apply the change ...
    PYTHONPATH=src python3 scripts/verify_corpus.py after/
    python3 scripts/report_diff.py before/ after/

Files are written under relative names from inside OUT_DIR, so two runs of
one commit compare byte for byte with `diff -r`; that is a determinism
check, not an equivalence check across commits.

Exit status: 0 when every member ran (failing records and escaped
exceptions are outcomes, not errors).
"""

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

from cutofflab import cli
from cutofflab.chain import chain_to_json
from cutofflab.trees import build_tree_chain, tree_from_json

ALL_SETS_MAX = 10

# (name, gen arguments); random members are seeded, so the corpus is fixed
CORPUS = (
    [(f"biased-path-{n}", ["--family", "biased-path", "--n", str(n)])
     for n in (5, 8, 12, 20, 34, 50)]
    + [(f"aldous-{n}", ["--family", "aldous", "--n", str(n)]) for n in (2, 3, 5)]
    + [(f"two-cliques-{n}", ["--family", "two-cliques", "--n", str(n)]) for n in (3, 4, 10)]
    + [(f"bd-{n}", ["--family", "bd", "--n", str(n), "--seed", str(100 + n)]) for n in (7, 16)]
    + [(f"random-{n}", ["--family", "random", "--n", str(n), "--seed", str(2000 + n),
                        "--density", "0.6"])
       for n in (6, 7, 8, 9, 10, 13, 20, 30, 40)]
    + [(f"random-tree-{n}", ["--family", "random-tree", "--n", str(n), "--seed", str(3000 + n)])
       for n in (8, 40)]
)


def _call(argv: list[str]) -> tuple[str, str]:
    """(outcome, stdout) of one in-process CLI call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # an escaped exception is an outcome to compare
        return f"raises:{type(exc).__name__}", out.getvalue()
    return str(code), out.getvalue()


def run(out_dir: Path, corpus=CORPUS) -> None:
    """Generate and verify every member of ``corpus`` into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(out_dir)
    try:
        for name, gen_args in corpus:
            chain_file = f"{name}.chain.json"
            gen_file = f"{name}.tree.json" if "random-tree" in gen_args else chain_file
            code, _ = _call(["gen", *gen_args, "-o", gen_file])
            if code != "0":
                raise RuntimeError(f"{name}: gen ended with {code}")
            if gen_file != chain_file:  # gen writes tree specs, verify reads chains
                chain_to_json(build_tree_chain(tree_from_json(gen_file)).chain, chain_file)
            with open(chain_file) as fh:
                n_states = len(json.load(fh)["P"])
            sets = "all" if n_states <= ALL_SETS_MAX else "sampled"
            code, stdout = _call(["verify", "--chain", chain_file, "--suite", "all",
                                  "--sets", sets, "-o", f"{name}.report.json"])
            Path(f"{name}.stdout.txt").write_text(stdout)
            Path(f"{name}.exit.txt").write_text(code + "\n")
            print(f"{name}: {n_states} states, --sets {sets}, exit {code}", file=sys.stderr)
    finally:
        os.chdir(here)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=Path, help="directory that receives the outputs")
    args = ap.parse_args(argv)
    run(args.out_dir.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
