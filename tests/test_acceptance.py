"""Acceptance gate: one test per release criterion, each with a runtime budget.

Every test tallies its checks, prints a single PASS/FAIL summary line
(visible under ``pytest -s`` and in failure output), and then asserts.
The random corpus is pinned to one seed so every run certifies the same
200 chains and 50 trees.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from cutofflab import (
    build_tree_chain,
    cutoff_scan,
    hit_time,
    hitting_tail,
    kac_quantities,
    load_chain,
    mixing_time,
    plateau_chain,
    random_corpus,
    random_tree,
    run_suites,
    simulate_hitting,
    worst_tv,
)

ACCEPTANCE_SEED = 1729
EXACT_TOL = 1e-10

IDENTITY_SUITES = ("escape", "good-set", "killed-spectrum", "return-time")
INEQUALITY_SUITES = ("hit-levels", "martingale-tail", "maximal-function",
                     "relaxation", "set-probability", "submultiplicativity",
                     "tv-hit")
GRID_PARAMS = {
    "eps_grid": (1 / 16, 1 / 8, 1 / 4),
    "alpha_grid": (1 / 4, 1 / 2, 3 / 4),
    "seed": ACCEPTANCE_SEED,
}


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(200, seed=ACCEPTANCE_SEED)


def _conclude(name: str, problems: list, elapsed: float, budget: float,
              detail: str) -> None:
    ok = not problems and elapsed < budget
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
          f"({elapsed:.1f}s of {budget:.0f}s budget)")
    if problems:
        shown = "; ".join(str(p) for p in problems[:8])
        raise AssertionError(f"{name}: {len(problems)} problem(s): {shown}")
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over {budget:.0f}s"


def _sweep(chains, suites, params):
    """Run the suites over every chain; return (checks, skips, failure lines)."""
    checked = skipped = 0
    bad = []
    for idx, chain in enumerate(chains):
        for rep in run_suites(chain, list(suites), params=params):
            c = rep.counts()
            checked += c["inequality"] + c["identity"]
            skipped += c["skip"]
            bad.extend(
                f"chain {idx} [{rep.chain_fingerprint}] {rep.suite}: "
                f"{r.inequality} {r.params} margin {r.margin:.3e}"
                for r in rep.failures)
    return checked, skipped, bad


def test_criterion_1_two_state_closed_forms():
    t0 = time.perf_counter()
    problems = []

    def close(label, got, want, tol=EXACT_TOL):
        if not math.isclose(got, want, rel_tol=0.0, abs_tol=tol):
            problems.append(f"{label}: got {got!r}, want {want!r}")

    k2 = load_chain([[0.75, 0.25], [0.25, 0.75]])
    close("lambda_2", k2.spectrum.lambda_2, 0.5)
    close("t_rel", k2.spectrum.t_rel, 2.0)
    for t in range(31):
        close(f"d({t})", worst_tv(k2, t)[0], 0.5 ** (t + 1))
    close("t_mix(1/4)", mixing_time(k2, 0.25), 1.0)
    hit = hit_time(k2, 0.5, 0.25)
    if not hit.exact:
        problems.append("hit_time fell back to a non-exhaustive sweep")
    close("hit_{1/2}(1/4)", hit.value, 5.0)
    kq = kac_quantities(k2, [1])
    close("Phi({1})", kq.phi_A, 0.25)
    close("entry-law mean", kq.mean_from_psi, 4.0)
    close("entry-law second moment", kq.second_from_psi, 28.0)
    _conclude("criterion 1 (two-state closed forms)", problems,
              time.perf_counter() - t0, 1.0,
              f"{8 + 31} closed-form values at tol {EXACT_TOL:g}")


def test_criterion_2_identity_sweep_all_sets(corpus):
    t0 = time.perf_counter()
    checked, skipped, bad = _sweep(
        corpus, IDENTITY_SUITES, {"sets": "all", "seed": ACCEPTANCE_SEED})
    problems = list(bad)
    if checked < len(corpus):
        problems.append(f"only {checked} checks ran")
    _conclude("criterion 2 (identity sweep, all target sets)", problems,
              time.perf_counter() - t0, 600.0,
              f"{checked} checks / {skipped} skips over {len(corpus)} chains, "
              f"{len(bad)} violations")


def test_criterion_3_inequality_sweep_grids(corpus):
    t0 = time.perf_counter()
    checked, skipped, bad = _sweep(corpus, INEQUALITY_SUITES, dict(GRID_PARAMS))
    problems = list(bad)
    if checked < len(corpus):
        problems.append(f"only {checked} checks ran")
    _conclude("criterion 3 (inequality sweep, eps/alpha/p grids)", problems,
              time.perf_counter() - t0, 900.0,
              f"{checked} checks / {skipped} skips over {len(corpus)} chains, "
              f"{len(bad)} violations")


def test_criterion_4_tree_window_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    sizes = [int(v) for v in rng.integers(10, 151, size=50)]
    seeds = [int(v) for v in rng.integers(1, 2 ** 31, size=50)]
    checked = skipped = 0
    problems = []
    params = {"eps_grid": (1 / 16, 1 / 8, 1 / 4), "seed": ACCEPTANCE_SEED}
    for n, seed in zip(sizes, seeds):
        tree = build_tree_chain(random_tree(n, seed=seed))
        for rep in run_suites(tree.chain, ["crossing-tails", "tree-window"],
                              params=params):
            c = rep.counts()
            checked += c["inequality"] + c["identity"]
            skipped += c["skip"]
            if c["inequality"] + c["identity"] == 0:
                problems.append(f"tree n={n} seed={seed}: suite {rep.suite} "
                                f"ran no checks")
            problems.extend(
                f"tree n={n} seed={seed} {rep.suite}: {r.inequality} "
                f"{r.params} margin {r.margin:.3e}" for r in rep.failures)
    _conclude("criterion 4 (tree crossing/window sweep)", problems,
              time.perf_counter() - t0, 600.0,
              f"{checked} checks / {skipped} skips over {len(sizes)} trees")


def test_criterion_5_biased_path_trend():
    t0 = time.perf_counter()
    problems = []
    sizes = [50, 100, 200, 400]
    scan = cutoff_scan("biased-path", sizes, eps_grid=(0.1, 0.25))
    speed = scan.rows[-1].t_mix[0.25] / sizes[-1]
    if not 3.3 <= speed <= 4.7:
        problems.append(f"t_mix(1/4)/n = {speed:.4f} outside [3.3, 4.7]")
    ratios = [row.ratio[0.1] for row in scan.rows]
    for a, b in zip(ratios, ratios[1:]):
        if not b < a:
            problems.append(f"ratio not strictly decreasing: {a:.4f} -> {b:.4f}")
    if not ratios[-1] <= 1.20:
        problems.append(f"final ratio {ratios[-1]:.4f} > 1.20")
    _conclude("criterion 5 (biased-path sharpening trend)", problems,
              time.perf_counter() - t0, 300.0,
              f"t_mix(1/4)/n = {speed:.4f}; ratios "
              + " > ".join(f"{r:.4f}" for r in ratios))


def test_criterion_6_plateau_no_cutoff_signature():
    t0 = time.perf_counter()
    problems = []
    ratios = {}
    plateau_len = None
    for n in (10, 20, 30):
        chain = plateau_chain(n)
        t_hi = mixing_time(chain, 0.1)
        t_lo = mixing_time(chain, 0.9)
        ratios[n] = t_hi / t_lo
        if ratios[n] < 1.05:
            problems.append(f"n={n}: ratio {ratios[n]:.4f} < 1.05")
        if n == 30:
            # d is non-increasing, so d(t) lies in (0.1, 0.9] exactly for
            # t in [t_lo, t_hi); that interval is the plateau
            plateau_len = t_hi - t_lo
            if plateau_len < n:
                problems.append(f"plateau length {plateau_len} < {n}")
            for t in (t_lo, t_hi - 1):
                d = worst_tv(chain, t)[0]
                if not 0.1 <= d <= 0.9:
                    problems.append(f"d({t}) = {d:.4f} outside [0.1, 0.9]")
    _conclude("criterion 6 (plateau non-cutoff signature)", problems,
              time.perf_counter() - t0, 300.0,
              f"plateau length {plateau_len} at n=30; ratios "
              + ", ".join(f"n={n}: {r:.3f}" for n, r in ratios.items()))


def test_criterion_7_monte_carlo_cross_validation(corpus):
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    cells = []
    draws = 0
    while len(cells) < 100:
        draws += 1
        assert draws < 10_000, "cell sampling failed to converge"
        chain = corpus[int(rng.integers(len(corpus)))]
        start = int(rng.integers(chain.n))
        mask = rng.random(chain.n) < 0.35
        mask[start] = False
        if not mask.any():
            continue
        members = tuple(int(i) for i in np.flatnonzero(mask))
        t_cap = min(40, max(3, int(math.ceil(2.5 * chain.spectrum.t_rel))))
        t = int(rng.integers(1, t_cap + 1))
        exact = float(hitting_tail(chain, start, members, t_max=t).tail[t])
        if not 0.03 <= exact <= 0.97:
            continue
        cells.append((chain, start, members, t, exact))
    outliers = []
    worst = 0.0
    for chain, start, members, t, exact in cells:
        est = simulate_hitting(chain, start, members, t, paths=100_000,
                               seed=int(rng.integers(2 ** 31)))
        z = abs(est.value - exact) / est.standard_error
        worst = max(worst, z)
        if z > 4.0:
            outliers.append(f"start={start} |A|={len(members)} t={t}: "
                            f"z = {z:.2f}")
    problems = outliers[1:]  # one outlier among 100 cells is allowed
    _conclude("criterion 7 (Monte Carlo cross-validation)", problems,
              time.perf_counter() - t0, 300.0,
              f"100 cells x 1e5 paths, {len(outliers)} beyond 4 SE "
              f"(worst z = {worst:.2f})")


def test_criterion_8_continuous_time_analogs(corpus):
    t0 = time.perf_counter()
    problems = []

    def close(label, got, want, tol=EXACT_TOL):
        if not math.isclose(got, want, rel_tol=0.0, abs_tol=tol):
            problems.append(f"{label}: got {got!r}, want {want!r}")

    k2 = load_chain([[0.75, 0.25], [0.25, 0.75]])
    for t in (0.0, 0.1, 0.5, 1.0, 2 * math.log(2), 3.0, 7.5):
        close(f"d_ct({t:.4g})", worst_tv(k2, t, continuous=True)[0],
              0.5 * math.exp(-t / 2))
    bisect_tol = 1e-3 * k2.spectrum.t_rel + 1e-12
    tmix_ct = mixing_time(k2, 0.25, continuous=True)
    want = 2 * math.log(2)
    if not want - 1e-9 <= tmix_ct <= want + bisect_tol:
        problems.append(f"t_mix_ct(1/4) = {tmix_ct!r}, want "
                        f"[{want:.6f}, {want:.6f} + {bisect_tol:.1e}]")
    hit = hit_time(k2, 0.5, 0.25, continuous=True)
    lo, hi = hit.bracket
    want = 4 * math.log(4)
    if not (lo - 1e-12 <= want <= hi + 1e-12 and hi - lo <= bisect_tol):
        problems.append(f"hit_ct bracket [{lo!r}, {hi!r}] misses {want!r}")
    checked, skipped, bad = _sweep(corpus, ["continuous-time"],
                                   dict(GRID_PARAMS))
    problems.extend(bad)
    if checked < len(corpus):
        problems.append(f"only {checked} suite checks ran")
    _conclude("criterion 8 (continuous-time analogs)", problems,
              time.perf_counter() - t0, 900.0,
              f"closed forms at tol {EXACT_TOL:g}; {checked} suite checks / "
              f"{skipped} skips, {len(bad)} violations")
