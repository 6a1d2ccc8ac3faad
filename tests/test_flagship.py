"""What the paper says must hold on its own families, pinned in the suite.

Each xfail test states a property of the cutoff characterization that the
library still gets wrong, with the open roadmap item that fixes it in its
reason; strict mode turns a fix into an XPASS that fails the run until the
marker is removed.  The plain tests pin values that once were wrong: the
spectral heat kernel misread continuized crossings from n = 120 on the
biased path and could not resolve a distance of 1e-22, and the per-start
spectral tail read Pr_0[T_{119} > 64] = 1 on biased_path(120) as 0.  Each
test takes under 2 s.
"""

import math

import numpy as np
import pytest

from cutofflab import (
    ChainSpec,
    KilledSystem,
    biased_path,
    chain_to_json,
    load_chain,
    mixing_time,
    plateau_chain,
    run_suite,
    run_suites,
    worst_tv,
)
from cutofflab.cli import main
from cutofflab.mixing import mixing_times

N1 = "N1: one subtraction-free elimination kernel for pi and every killed solve"
N2 = "N2: killed spectral gaps and tails to relative accuracy"
H1 = "H1: exact worst-set hitting beyond n = 14"


def _failures(reports) -> list[tuple[str, str]]:
    return [(r.suite, rec.inequality) for r in reports for rec in r.failures]


def _drift_chain(n: int):
    """The r = 2 drift chain: conductances c(i, i+k) = 2^i / k for k = 1, 2
    and holding 1/2, so pi(x) is proportional to c(x) = sum_y c(x, y)."""
    C = np.zeros((n, n))
    for i in range(n):
        for k in (1, 2):
            if i + k < n:
                C[i, i + k] = C[i + k, i] = 2.0 ** i / k
    c = C.sum(axis=1)
    return load_chain(ChainSpec(P=0.5 * C / c[:, None] + 0.5 * np.eye(n), pi=c / c.sum()))


@pytest.mark.xfail(strict=True, reason=f"{N1}; {N2}")
def test_biased_path_34_has_no_failing_row():
    # return-law-identity (4), return-mean-identity, slow-start-measure (3)
    # and stationary-mean-hitting fail today
    assert _failures(run_suites(biased_path(34), ["all"])) == []


@pytest.mark.xfail(strict=True, reason=N1)
def test_biased_path_40_runs_every_suite():
    # pi_A = 1 - pi_B rounds to 0 in escape: ZeroDivisionError today
    run_suites(biased_path(40), ["all"])


@pytest.mark.xfail(strict=True, reason=N1)
def test_plateau_chain_8_return_time_has_no_failing_row():
    assert _failures([run_suite(plateau_chain(8), "return-time")]) == []


@pytest.mark.xfail(strict=True, reason=N1)
def test_stationary_solve_of_biased_path_34_is_relatively_exact():
    # the dense solve is 0.109 off in relative terms at pi(0) = 3^-33 / 1.5
    chain = biased_path(34)
    solved = load_chain(ChainSpec(P=chain.P)).pi
    np.testing.assert_allclose(solved, chain.pi, rtol=1e-12, atol=0.0)


@pytest.mark.xfail(strict=True, reason=H1)
def test_biased_path_20_needs_no_exact_hitting_skip():
    # 7 suites skip today: n = 20 is past the enumeration threshold of 14
    skips = [rec for r in run_suites(biased_path(20), ["all"]) for rec in r.records
             if rec.kind == "skip" and "needs exact hitting profiles" in rec.note]
    assert skips == []


@pytest.mark.xfail(strict=True, reason=N1)
def test_banded_suite_holds_on_the_drift_chain():
    # interval-average-comparable and interval-comparable-hitting fail today
    assert _failures([run_suite(_drift_chain(60), "banded")]) == []


@pytest.mark.parametrize("n", [120, 121, 200])
def test_biased_path_ct_mixing_time_matches_the_poisson_mixture(n, d_ct):
    # the spectral heat kernel returned 509.57 at n = 120, where the crossing
    # is in (503.914, 503.922], and raised "failed to bracket" from n = 121
    chain = biased_path(n)
    [(lo, hi)] = mixing_times(chain, (0.25,), continuous=True)
    assert mixing_time(chain, 0.25, continuous=True) == hi
    d_lo, d_hi = d_ct(chain, [lo, hi])
    assert d_lo > 0.25 >= d_hi
    assert 0.0 < hi - lo <= 1e-3 * chain.spectrum.t_rel


def test_two_state_chain_at_a_distance_of_1e_22(two_state):
    # pi = (1, 2a) / (1 + 2a) with a = 1e-35: from state 1 the continuized
    # distance is pi(0) e^{-(a + 1/2) t}; the spectral kernel read 0.5 at t = 100
    chain, a = two_state
    pi0 = float(chain.pi[0])
    d, x = worst_tv(chain, 100, continuous=True)
    assert x == 1
    assert d == pytest.approx(pi0 * math.exp(-100.0 * (a + 0.5)), rel=1e-9, abs=0.0)
    [(lo, hi)] = mixing_times(chain, (0.25,), continuous=True)
    assert lo < math.log(4.0 * pi0) / (a + 0.5) <= hi
    assert hi - lo <= 1e-3 * chain.spectrum.t_rel
    report = run_suite(chain, "continuous-time")
    assert report.records and report.passed


@pytest.mark.parametrize("n", [50, 120])
def test_martingale_tail_has_no_failing_row_on_the_biased_path(n):
    # the spectral per-start tail read Pr_x[T_A > k] below lambda_2^k at
    # small k: 2 false rows at n = 50 and 6 at n = 120
    assert _failures([run_suite(biased_path(n), "martingale-tail")]) == []


def test_killed_tail_before_the_target_is_reachable():
    # 0 cannot reach 119 in 64 steps, so the tail is exactly 1
    assert KilledSystem.of(biased_path(120), [119]).scan(0).at(64) == 1.0


def test_simulate_prints_the_forward_tail(tmp_path, capsys):
    path = tmp_path / "chain.json"
    chain_to_json(biased_path(120), str(path))
    assert main(["simulate", "--chain", str(path), "--start", "0", "--set", "119",
                 "--t", "64", "--paths", "1000", "--seed", "1"]) == 0
    assert "exact    = 1\n" in capsys.readouterr().out
