import json
import math

import numpy as np
import pytest

from cutofflab import (
    SUITE_IDS,
    KilledSystem,
    biased_path,
    build_tree_chain,
    cutoff_scan,
    good_set,
    kac_quantities,
    load_chain,
    random_reversible,
    random_tree,
    run_suite,
    run_suites,
    two_cliques,
)
from cutofflab.hitting import _hit_ct_interval
from cutofflab.mixing import _ceiling, _mixing_time_ct_interval
from cutofflab.trees import window_check
from cutofflab.verify import ALPHA_GRID, EPS_GRID, _record_key


def test_suite_registry_is_complete():
    expected = {
        "relaxation", "tv-hit", "set-probability", "submultiplicativity",
        "hit-levels", "escape", "killed-spectrum", "maximal-function",
        "good-set", "martingale-tail", "return-time", "return-mgf",
        "mix-hit", "lazy-floor", "continuous-time", "tree-window",
        "crossing-tails", "banded", "block-moments",
    }
    assert set(SUITE_IDS) == expected


def test_unknown_suite_raises(k2):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(k2, ["relaxation", "nope"])


def test_all_suites_pass_on_k2(k2):
    reports = run_suites(k2, list(SUITE_IDS))
    for rep in reports:
        assert rep.passed, rep.summary() + "\n" + "\n".join(
            f"{r.inequality} {r.params} lhs={r.lhs} rhs={r.rhs}"
            for r in rep.failures)


IDENTITY_SUITES = ["escape", "good-set", "killed-spectrum", "return-time"]


def test_records_are_sorted_and_unique(k2, p3):
    # the set-sweeping suites build their records in key order instead of
    # sorting them; every suite must come out as a sort would leave it
    reports = (run_suites(k2, list(SUITE_IDS)) + run_suites(p3, list(SUITE_IDS))
               + run_suites(random_reversible(7, seed=1729), IDENTITY_SUITES,
                            {"sets": "all"}))
    for rep in reports:
        assert rep.records == sorted(rep.records, key=_record_key), rep.suite
        keys = [_record_key(r) for r in rep.records]
        assert len(keys) == len(set(keys)), rep.suite


def test_escape_slow_start_measure_is_exact_per_target():
    # the stacked suite must give each target's measure bit for bit as one
    # target's compressed sum does, with 8 survivors (summed pairwise by
    # numpy) and with 5
    chain = random_reversible(9, seed=3)
    rep = run_suite(chain, "escape", {"sets": "all"})
    recs = [r for r in rep.records if r.inequality == "slow-start-measure"
            and len(r.params["A"]) in (1, 4)]
    assert len(recs) == 6 * (9 + 126)
    for r in recs:
        ks = KilledSystem(chain, r.params["A"])
        t_w = math.ceil(chain.spectrum.t_rel * r.params["w"] / ks.pi_A)
        slow = ks.tail_rows(t_w) >= r.params["alpha"]
        assert r.lhs == float(chain.pi[ks.B[slow]].sum())


def test_block_moments_solves_each_system_once(monkeypatch):
    # both starts of a block (entry law and far end) read the moments of
    # the same destination system, so no linear system is solved twice
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append((np.asarray(a).tobytes(), np.asarray(b).tobytes()))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    rep = run_suite(biased_path(20), "block-moments")
    assert len(rep.records) == 95
    assert len(calls) == len(set(calls)) == 56
    # pi(0) = 3^-63 is below the resolution of the solve
    with pytest.raises(np.linalg.LinAlgError):
        run_suite(biased_path(64), "block-moments")


def test_return_mgf_builds_one_system_per_complement(monkeypatch):
    # one eigvals call per complement (four here): every generating function
    # of a target comes from its one shared system
    chain = biased_path(20)
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    rep = run_suite(chain, "return-mgf")
    assert len(calls) == 4
    monkeypatch.undo()
    assert len(rep.records) == 16
    # bit for bit what a fresh system per call gives
    t_rel = float(chain.spectrum.t_rel)
    for r in rep.records:
        mask = np.ones(chain.n, dtype=bool)
        mask[list(r.params["B"])] = False
        A = np.flatnonzero(mask)
        p_rate = 1.0 - float(chain.pi[mask].sum()) / t_rel
        z = 1.0 + r.params["theta"] * (1.0 - p_rate) / (2.0 * p_rate)
        kq = kac_quantities(chain, A, check_tol=math.inf)
        a = kq.mean_from_psi
        if r.inequality == "return-mgf-upper-deviation":
            lhs = math.log(KilledSystem(chain, A).mgf(kq.psi, z)) - a * math.log(z)
        else:
            lhs = a * math.log(z) + math.log(KilledSystem(chain, A).mgf(kq.psi, 1.0 / z))
        assert r.lhs == lhs


def test_k2_escape_equality_record(k2):
    # single-state target: the killed chain is 1x1 with survival 3/4, so the
    # geometric ceiling pi(B) * (1 - pi(A)/t_rel)^t is attained at every t
    rep = run_suite(k2, "escape")
    recs = [r for r in rep.records
            if r.inequality == "stationary-escape-tail"
            and len(r.params.get("A")) == 1]
    assert recs
    for r in recs:
        t = r.params["t"]
        assert r.lhs == pytest.approx(0.5 * 0.75 ** t, abs=1e-14)
        assert r.rhs == pytest.approx(r.lhs, abs=1e-14)


def test_good_set_suite_matches_direct_evaluation(small_corpus):
    # the suite batches membership spectrally; good_set() iterates — the
    # two routes must agree exactly on membership and measure
    chain = small_corpus[2]
    rep = run_suite(chain, "good-set")
    assert rep.passed
    for rec in rep.records:
        if rec.inequality != "good-set-measure":
            continue
        A = list(rec.params["A"])
        s = rec.params["s"]
        m = rec.params["m"]
        direct = good_set(chain, A, s=s, m=m)
        assert rec.lhs == pytest.approx(1.0 - 8.0 / m ** 2, abs=1e-12)
        assert rec.rhs == pytest.approx(direct.measure, abs=1e-9)


def test_tree_window_suite_matches_window_check():
    tc = build_tree_chain(random_tree(14, seed=21))
    rep = run_suite(tc.chain, "tree-window")
    assert rep.passed
    direct = {(
        r.inequality, r.params.get("eps")): r for r in window_check(tc, 0.25)
        if r.kind != "skip"}
    suite = {(r.inequality, r.params.get("eps")): r for r in rep.records}
    for key, rec in direct.items():
        if key in suite:
            assert suite[key].lhs == pytest.approx(rec.lhs, rel=1e-9, abs=1e-9)
            assert suite[key].rhs == pytest.approx(rec.rhs, rel=1e-9, abs=1e-9)


def test_tree_suites_skip_on_non_tree(small_corpus):
    dense = next(c for c in small_corpus if c.n >= 5)
    for sid in ("tree-window", "crossing-tails"):
        rep = run_suite(dense, sid)
        assert rep.passed
        assert all(r.kind == "skip" for r in rep.records)


def test_banded_suite_skips_on_non_banded(small_corpus):
    dense = next(c for c in small_corpus if c.n >= 5)
    rep = run_suite(dense, "banded")
    assert rep.passed
    assert all(r.kind == "skip" for r in rep.records)


def test_killed_system_matches_iteration(small_corpus):
    chain = small_corpus[0]
    mask = np.zeros(chain.n, dtype=bool)
    mask[[0, 1]] = True
    ks = KilledSystem(chain, np.flatnonzero(mask))
    # stationary-restricted tail vs direct substochastic iteration
    B = np.nonzero(~mask)[0]
    PB = chain.P[np.ix_(B, B)]
    muB = chain.pi[B] / chain.pi[B].sum()
    u = np.ones(B.size)
    for t in range(20):
        expected = float(muB @ u)
        got = float(ks.tail_stationary([t])[0])
        assert got == pytest.approx(expected, abs=1e-11)
        u = PB @ u


def test_report_json_round_trip(tmp_path, k2):
    rep = run_suite(k2, "relaxation")
    path = tmp_path / "report.json"
    rep.to_json(str(path))
    payload = json.loads(path.read_text())
    assert payload["suite"] == "relaxation"
    assert payload["passed"] is True
    assert len(payload["records"]) == len(rep.records)


def test_continuous_suite_passes_on_corpus(small_corpus):
    for chain in small_corpus[:3]:
        rep = run_suite(chain, "continuous-time")
        assert rep.passed, rep.failures[:3]


def _ct_bracket_records(chain) -> dict:
    """The continuized comparisons written out from the bracket searches:
    times on the left of a comparison read the lower bracket end, times on
    the right the upper one, and no ceiling is taken."""
    t_rel = float(chain.spectrum.t_rel)
    mixes, hits = {}, {}

    def mix(eps):
        if eps not in mixes:
            mixes[eps] = _mixing_time_ct_interval(chain, eps)
        return mixes[eps]

    def hit(alpha, eps):
        if (alpha, eps) not in hits:
            hits[alpha, eps] = _hit_ct_interval(chain, alpha, eps)[:2]
        return hits[alpha, eps]

    rows = []
    for eps in EPS_GRID:
        p = {"eps": eps}
        if eps < 0.5:
            rows.append(("relaxation-lower-ct", p,
                         t_rel * math.log(1.0 / (2.0 * eps)), mix(eps)[1]))
        rows.append(("relaxation-upper-ct", p, mix(eps)[0],
                     _ceiling(chain, eps, continuous=True)))
        if eps > 0.25:
            continue
        rows += [
            ("tv-hit-upper-half-sets-ct", p, mix(eps)[0],
             hit(0.5, eps / 2)[1] + t_rel * math.log(4.0 / eps)),
            ("tv-hit-lower-half-sets-ct", p,
             hit(0.5, 1.5 * eps)[0] - 2.0 * t_rel * abs(math.log(eps)), mix(eps)[1]),
            ("tv-hit-upper-near-one-ct", p, mix(1.0 - eps)[0],
             hit(0.5, 1.0 - 2.0 * eps)[1] + t_rel),
            ("tv-hit-lower-near-one-ct", p,
             hit(0.5, 1.0 - eps / 2)[0] - 2.0 * t_rel * abs(math.log(eps)),
             mix(1.0 - eps)[1]),
            ("tv-hit-lower-large-sets-ct", p, hit(1.0 - eps / 4, 1.25 * eps)[0], mix(eps)[1]),
            ("tv-hit-upper-large-sets-ct", p, mix(eps)[0],
             hit(1.0 - eps / 4, 0.75 * eps)[1] + 1.5 * t_rel * math.log(4.0 / eps)),
        ]
    for alpha in ALPHA_GRID:
        for beta in ALPHA_GRID:
            if alpha > beta:
                continue
            for delta in (0.25, 0.5):
                p = {"alpha": alpha, "beta": beta, "delta": delta}
                shift = t_rel / alpha * math.log((1.0 - alpha) / ((1.0 - beta) * (delta / 2)))
                rows += [
                    ("hit-mass-monotone-ct", p, hit(beta, delta)[0], hit(alpha, delta)[1]),
                    ("hit-mass-transfer-ct", p, hit(alpha, delta)[0],
                     hit(beta, delta / 2)[1] + shift),
                ]
    return {(name, tuple(sorted(p.items()))): (lhs, rhs) for name, p, lhs, rhs in rows}


def test_continuized_records_read_conservative_bracket_ends(k2, small_corpus):
    for chain in [k2, two_cliques(4), *small_corpus]:
        want = _ct_bracket_records(chain)
        got = {(r.inequality, tuple(sorted(r.params.items()))): (r.lhs, r.rhs)
               for r in run_suite(chain, "continuous-time").records
               if r.kind != "skip" and r.inequality.startswith(
                   ("relaxation-", "tv-hit-", "hit-mass-"))}
        assert got == {key: (float(lhs), float(rhs)) for key, (lhs, rhs) in want.items()}


def test_cutoff_scan_validates_input():
    with pytest.raises(ValueError):
        cutoff_scan("biased-path", [10, 10], eps_grid=(0.1,))
    with pytest.raises(ValueError):
        cutoff_scan("biased-path", [10, 20], eps_grid=(0.6,))
    with pytest.raises(ValueError):
        cutoff_scan("no-such-family", [10, 20])


def test_cutoff_scan_row_contents():
    scan = cutoff_scan("biased-path", [6, 10], eps_grid=(0.1, 0.25))
    rows = scan.row_dicts()
    assert len(rows) == 4  # two sizes x two levels
    for row in rows:
        assert row["window"] >= 0
        assert row["ratio"] >= 1.0 - 1e-12
        assert row["t_mix"] == row["t_mix_complement"] + row["window"]
        # small members get exact worst-set hitting values
        assert row["hit"] is not None


def test_run_suites_shares_fingerprint(k2):
    reports = run_suites(k2, ["relaxation", "escape"])
    assert reports[0].chain_fingerprint == reports[1].chain_fingerprint


def test_tv_hit_accepts_levels_from_one_half(k2):
    # mix-below-set-hit asks t_mix(min(2 eps, 1)), and t_mix(1) = 0
    rep = run_suite(k2, "tv-hit", {"eps_grid": (0.5, 0.75)})
    assert rep.passed
    mix = [r for r in rep.records if r.inequality == "mix-below-set-hit"]
    assert len(mix) == 6 and all(r.lhs == 0.0 for r in mix)
    assert {r.params["eps"] for r in rep.records if r.kind == "skip"} == {0.5, 0.75}


def test_relaxation_upper_bounds_are_the_certified_ceiling(k2, small_corpus):
    for chain in [k2, *small_corpus]:
        for suite, name, continuous in (("relaxation", "relaxation-upper", False),
                                        ("continuous-time", "relaxation-upper-ct", True)):
            recs = [r for r in run_suite(chain, suite).records if r.inequality == name]
            assert len(recs) == 3
            for r in recs:
                want = _ceiling(chain, r.params["eps"], continuous=continuous)
                assert r.rhs == pytest.approx(want, rel=1e-12, abs=0.0)
    # pi = (1, 1e-307): log(1 / (eps min pi)) overflows at eps = 0.01
    tiny = load_chain(np.array([[1.0, 5e-308], [0.5, 0.5]]), pi=np.array([1.0, 1e-307]))
    rep = run_suite(tiny, "relaxation", {"eps_grid": (0.01,)})
    upper = [r for r in rep.records if r.inequality == "relaxation-upper"]
    assert rep.passed and len(upper) == 1
    assert upper[0].rhs == pytest.approx(_ceiling(tiny, 0.01), rel=1e-12)
    assert math.isfinite(upper[0].rhs)
