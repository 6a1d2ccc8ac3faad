#!/usr/bin/env python3
"""Sweep random weighted trees and certify their mixing-window bounds.

Each tree is rooted at its central vertex; the sweep checks the exact
crossing-time moments against direct linear solves, the variance bound
along root paths, and the sqrt(t_rel * t_mix)-sized window around the
mixing time.  Prints one line per tree with the worst margin seen
(positive margins mean every inequality held with room to spare).

Usage:
    python3 scripts/tree_window_sweep.py --trees 20 --max-n 120 --seed 7
"""

import argparse
import math
import sys

import numpy as np

from cutofflab import build_tree_chain, random_tree, run_suites


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trees", type=int, default=20)
    ap.add_argument("--max-n", type=int, default=120)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--eps", type=float, nargs="+",
                    default=[1 / 16, 1 / 8, 1 / 4])
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    failures = 0
    for k in range(args.trees):
        n = int(rng.integers(10, args.max_n + 1))
        seed = int(rng.integers(1, 2 ** 31))
        tree = build_tree_chain(random_tree(n, seed=seed))
        reports = run_suites(tree.chain, ["tree-window", "crossing-tails"],
                             params={"eps_grid": tuple(args.eps),
                                     "seed": seed})
        checks = sum(r.counts()["inequality"] + r.counts()["identity"]
                     for r in reports)
        bad = sum(len(r.failures) for r in reports)
        failures += bad
        margins = [r.worst_margin() for r in reports]
        worst = math.nan if any(map(math.isnan, margins)) else min(margins)
        status = "ok" if bad == 0 else f"{bad} FAILED"
        print(f"tree {k:>3}: n={n:>4} root={tree.root:>4} "
              f"t_rel={tree.t_rel:>9.2f} checks={checks:>4} "
              f"worst margin={worst:>10.3e} [{status}]")
    print(f"{args.trees} trees done, {failures} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
