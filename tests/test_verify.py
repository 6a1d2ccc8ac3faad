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
    load_chain,
    random_reversible,
    random_tree,
    run_suite,
    run_suites,
    two_cliques,
)
from cutofflab.hitting import _hit_ct_interval
from cutofflab.mixing import _ceiling, mixing_times
from cutofflab.verify import (
    ALPHA_GRID,
    EPS_GRID,
    SUITES,
    _all_targets,
    _Ctx,
    _record_key,
)


def test_suite_registry_is_complete():
    expected = {
        "relaxation", "tv-hit", "set-probability", "submultiplicativity",
        "hit-levels", "escape", "killed-spectrum", "maximal-function",
        "good-set", "martingale-tail", "return-time", "return-mgf",
        "mix-hit", "lazy-floor", "continuous-time", "tree-window",
        "crossing-tails", "banded", "block-moments",
    }
    assert set(SUITE_IDS) == expected


def test_all_sets_tables_are_built_once_per_size():
    # the exhaustive target table depends on n alone; two chains of one
    # size share it, read-only, and a sampled sweep never builds one
    a = _Ctx(random_reversible(9, seed=1), {})
    b = _Ctx(biased_path(9), {})
    table = a.targets("all")
    assert b.targets("all") is table and table is _all_targets(9)
    # one row per set, in record-key order
    assert len(table.masks) == len(table.members) == 2 ** 9 - 2
    assert [str(m) for m in table.members] == sorted(str(m) for m in table.members)
    assert [tuple(np.flatnonzero(mask)) for mask in table.masks] == list(table.members)
    assert not table.masks.flags.writeable and not table.members.flags.writeable
    with pytest.raises(ValueError):
        table.masks[0, 0] = True
    # the sweep plan rides on the table: every chain's stacks take its index
    # arrays as they are
    ctxs = [_Ctx(chain, {"sets": "all"}) for chain in (a.chain, b.chain)]
    for (idx, A, B), *stacks in zip(table.parts, *(ctx.stack for ctx in ctxs)):
        assert not (idx.flags.writeable or A.flags.writeable or B.flags.writeable)
        assert all(i is idx and ks.A is A and ks.B is B for i, ks in stacks)
    built = _all_targets.cache_info().currsize
    for n in (4, 13, 20):
        sampled = _Ctx(random_reversible(n, seed=n), {}).targets("sampled")
        assert 3 <= len(sampled.members) <= 11
    assert _all_targets.cache_info().currsize == built
    with pytest.raises(ValueError, match="n <= 14"):
        _Ctx(random_reversible(15, seed=1), {}).targets("all")
    assert _all_targets.cache_info().currsize == built


def test_unknown_suite_raises(k2):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(k2, ["relaxation", "nope"])


def test_all_names_every_suite_once(p3):
    want = run_suites(p3, SUITE_IDS)
    for suites in (["all"], ["all", "relaxation"], list(SUITE_IDS) + ["all"]):
        got = run_suites(p3, suites)
        assert [r.suite for r in got] == list(SUITE_IDS)
        assert [r.dumps() for r in got] == [r.dumps() for r in want]
    got = run_suites(p3, ["escape", "all", "escape"])
    assert [r.suite for r in got] == ["escape"] + [s for s in SUITE_IDS if s != "escape"]


def test_all_suites_pass_on_k2(k2):
    reports = run_suites(k2, list(SUITE_IDS))
    for rep in reports:
        assert rep.passed, rep.summary() + "\n" + "\n".join(
            f"{r.inequality} {r.params} lhs={r.lhs} rhs={r.rhs}"
            for r in rep.failures)


IDENTITY_SUITES = ["escape", "good-set", "killed-spectrum", "return-time"]


def test_records_are_sorted_and_unique(k2, p3):
    # the set-sweeping suites build their records in key order instead of
    # sorting them; every suite must come out as a sort would leave it.  A
    # random tree and a biased path run the tree and banded suites too.
    tree, banded = build_tree_chain(random_tree(12, seed=3)).chain, biased_path(10)
    reports = (run_suites(k2, list(SUITE_IDS)) + run_suites(p3, list(SUITE_IDS))
               + run_suites(random_reversible(7, seed=1729), IDENTITY_SUITES,
                            {"sets": "all"})
               + run_suites(tree, list(SUITE_IDS)) + run_suites(banded, list(SUITE_IDS)))
    for rep in reports:
        records = rep.records
        assert records == sorted(records, key=_record_key), rep.suite
        keys = [_record_key(r) for r in records]
        assert len(keys) == len(set(keys)), rep.suite
    ran = {rep.suite for rep in reports if any(r.kind != "skip" for r in rep.records)}
    assert ran == set(SUITE_IDS)


_K4 = (np.ones((4, 4)) - np.eye(4)) / 3  # the non-lazy walk on K_4
_LAZY_NOTE = "requires a lazy chain"
_DIAGONAL_NOTE = "requires a lazy chain (diagonal >= 1/2)"


@pytest.mark.parametrize("sid, chain_id, params, note", [
    ("relaxation", "k4", {}, _DIAGONAL_NOTE),
    ("tv-hit", "k4", {"exact_threshold": 3}, _DIAGONAL_NOTE),
    ("set-probability", "k4", {"exact_threshold": 3}, _LAZY_NOTE),
    ("good-set", "k4", {}, _LAZY_NOTE),
    ("mix-hit", "k4", {"exact_threshold": 3}, _LAZY_NOTE),
    ("lazy-floor", "k4", {"exact_threshold": 3}, _LAZY_NOTE),
    ("hit-levels", "k4", {"exact_threshold": 3}, "needs exact hitting profiles (n > 3)"),
    ("tv-hit", "lazy8", {"exact_threshold": 4}, "needs exact hitting profiles (n > 4)"),
    ("set-probability", "lazy8", {"exact_threshold": 4}, "needs exact hitting profiles (n > 4)"),
    ("hit-levels", "lazy8", {"exact_threshold": 4}, "needs exact hitting profiles (n > 4)"),
    ("mix-hit", "lazy8", {"exact_threshold": 4}, "needs exact hitting profiles (n > 4)"),
    ("lazy-floor", "lazy8", {"exact_threshold": 4}, "needs exact hitting profiles (n > 4)"),
    ("tree-window", "cliques", {},
     "not a tree walk: support has 15 undirected edges; a tree needs 9"),
    ("crossing-tails", "cliques", {},
     "not a tree walk: support has 15 undirected edges; a tree needs 9"),
    ("banded", "cliques", {}, "some nearest-neighbor transition has zero probability"),
    ("block-moments", "cliques", {}, "some nearest-neighbor transition has zero probability"),
])
def test_a_failed_gate_gives_the_suite_one_skip_row(sid, chain_id, params, note):
    # K_4 fails both the lazy and the exact gate at threshold 3, so its
    # lazy notes show that lazy is checked first
    chain = {"k4": lambda: load_chain(_K4), "lazy8": lambda: biased_path(8),
             "cliques": lambda: two_cliques(4)}[chain_id]()
    direct = [r for b in SUITES[sid](_Ctx(chain, params)) for r in b.records()]
    for records in (run_suite(chain, sid, params).records, direct):
        assert [(r.inequality, r.kind, r.note, r.params) for r in records] == [
            (sid, "skip", note, {})]


def test_escape_slow_start_measure_is_exact_per_target():
    # the stacked suite must give each target's measure as one target's
    # compressed sum does, to 1e-12, with 8 survivors and with 5
    chain = random_reversible(9, seed=3)
    rep = run_suite(chain, "escape", {"sets": "all"})
    recs = [r for r in rep.records if r.inequality == "slow-start-measure"
            and len(r.params["A"]) in (1, 4)]
    assert len(recs) == 6 * (9 + 126)
    for r in recs:
        ks = KilledSystem(chain, r.params["A"])
        t_w = math.ceil(chain.spectrum.t_rel * r.params["w"] / ks.pi_A)
        slow = ks.tail_rows(t_w) >= r.params["alpha"]
        assert r.lhs == pytest.approx(float(chain.pi[ks.B[slow]].sum()), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("build", [lambda: random_tree(6, seed=1),
                                   lambda: random_reversible(6, seed=1).P],
                         ids=["tree-spec", "ndarray"])
def test_run_suites_rejects_what_is_not_a_chain(build, monkeypatch):
    ran = []
    monkeypatch.setitem(SUITES, "escape", lambda ctx: ran.append(1))
    with pytest.raises(TypeError, match="load_chain.*build_tree_chain"):
        run_suites(build(), ["escape"])
    assert not ran


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
        kq = KilledSystem(chain, A).kac()
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


def test_good_set_suite_matches_direct_evaluation(small_corpus, good_set):
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


def test_seeded_functions_do_not_depend_on_the_suites_run(p3, small_corpus):
    # continuous-time reads the first 5 of the seeded functions that
    # maximal-function reads all of, so neither report changes with the other
    pair = ("maximal-function", "continuous-time")
    for chain in [p3, *small_corpus[:3]]:
        alone = {sid: run_suite(chain, sid, {"seed": 11}).dumps() for sid in pair}
        for order in (pair, pair[::-1]):
            together = run_suites(chain, list(order), {"seed": 11})
            assert [r.dumps() for r in together] == [alone[sid] for sid in order]


def test_continuous_suite_passes_on_corpus(small_corpus):
    for chain in small_corpus[:3]:
        rep = run_suite(chain, "continuous-time")
        assert rep.passed, rep.failures[:3]


def _ct_bracket_records(chain) -> dict:
    """The continuized comparisons written out from the bracket descents:
    times on the left of a comparison read the lower bracket end, times on
    the right the upper one, and no ceiling is taken."""
    t_rel = float(chain.spectrum.t_rel)
    mixes, hits = {}, {}

    def mix(eps):
        if eps not in mixes:
            mixes[eps] = mixing_times(chain, (eps,), continuous=True)[0]
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
    with pytest.raises(ValueError, match="at least one size"):
        cutoff_scan("biased-path", [])
    # above the exact threshold no member reads alpha, yet every row prints it
    with pytest.raises(ValueError, match="alpha must be in"):
        cutoff_scan("biased-path", [20, 30], alpha=math.nan)


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


def test_run_suites_shares_fingerprint(k2, monkeypatch):
    # P is hashed once per call, whatever the number of reports
    import cutofflab.verify as verify_mod

    calls = []
    monkeypatch.setattr(verify_mod, "fingerprint",
                        lambda P: calls.append(P) or "0123456789abcdef")
    reports = run_suites(k2, ["relaxation", "escape", "return-time"])
    assert [r.chain_fingerprint for r in reports] == ["0123456789abcdef"] * 3
    assert len(calls) == 1


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


@pytest.mark.parametrize("suite, params, message", [
    # eps is checked before alpha, and both before the set mode
    ("relaxation", {"eps_grid": (0.0,)}, r"eps_grid values must lie in \(0, 1\); got \[0.0\]"),
    ("relaxation", {"eps_grid": (0.5, 1)}, r"eps_grid values must lie in \(0, 1\); got \[1\]"),
    ("tv-hit", {"alpha_grid": (-0.25,)}, r"alpha_grid values must lie in \(0, 1\)"),
    ("tv-hit", {"alpha_grid": (1.0,)}, r"alpha_grid values must lie in \(0, 1\)"),
    ("tv-hit", {"alpha_grid": (2.0,), "eps_grid": (1.5,)}, "eps_grid values"),
    ("escape", {"alpha_grid": (0.0,), "sets": "bogus"}, "alpha_grid values"),
    ("escape", {"eps_grid": (1.0,), "sets": "bogus"}, "eps_grid values"),
    ("escape", {"sets": "bogus"}, "unknown set mode"),
    # an empty grid would leave its suites without a check
    ("relaxation", {"eps_grid": ()}, "eps_grid must hold at least one value"),
    ("tv-hit", {"alpha_grid": []}, "alpha_grid must hold at least one value"),
    ("tv-hit", {"alpha_grid": (), "eps_grid": ()}, "eps_grid must hold"),
    ("escape", {"alpha_grid": (), "sets": "bogus"}, "alpha_grid must hold"),
    # seed and exact_threshold are integers, never rounded or parsed; the
    # threshold is checked first, and both after the set mode
    ("escape", {"seed": 2.5}, r"seed must be an integer; got 2\.5"),
    ("escape", {"seed": "7"}, "seed must be an integer; got '7'"),
    ("escape", {"exact_threshold": "7"}, "exact_threshold must be an integer; got '7'"),
    ("escape", {"exact_threshold": 8.0}, r"exact_threshold must be an integer; got 8\.0"),
    ("escape", {"exact_threshold": 2.5, "seed": 2.5}, "exact_threshold must"),
    ("escape", {"seed": 2.5, "sets": "bogus"}, "unknown set mode"),
])
def test_run_suites_rejects_parameters_out_of_range(k2, monkeypatch, suite, params, message):
    ran = []
    monkeypatch.setitem(SUITES, suite, lambda ctx: ran.append(suite) or [])
    for chain in (k2, random_reversible(5, seed=3)):
        with pytest.raises(ValueError, match=message):
            run_suites(chain, [suite], params)
    assert ran == []


def test_integer_parameters_accept_numpy_integers(k2):
    params = {"seed": np.int64(7), "exact_threshold": np.int32(12)}
    got = run_suites(k2, ["escape", "tv-hit"], params)
    want = run_suites(k2, ["escape", "tv-hit"], {"seed": 7, "exact_threshold": 12})
    assert [r.dumps() for r in got] == [r.dumps() for r in want]
    assert all(r.params is not params and r.params == params for r in got)


def test_tree_window_sandwich_reads_the_suite_threshold():
    # the sandwich reads the suite's worst-set hitting times, exact at the
    # threshold the run was given
    for seed in range(1, 13):
        chain = build_tree_chain(random_tree(16, seed=seed)).chain
        rep = run_suite(chain, "tree-window", {"exact_threshold": 16})
        assert rep.failures == []
        sandwich = [r for r in rep.records
                    if r.inequality.startswith(("tau-below", "worst-set-hit"))]
        assert len(sandwich) == 6
    skips = [r for r in run_suite(chain, "tree-window").records if r.kind == "skip"]
    assert [(r.inequality, r.note, r.params) for r in skips] == [
        ("tau-hit-sandwich", "n = 16 exceeds exact threshold", {"eps": eps}) for eps in EPS_GRID]


def test_submultiplicativity_reads_tails_past_every_hit_level():
    rep = run_suite(two_cliques(3), "submultiplicativity")
    assert not [r for r in rep.records if r.kind == "skip"]
    rows = {(r.params["t"], r.params["s"]): r for r in rep.records
            if r.inequality == "tail-supermultiplicative" and r.params["alpha"] == 0.75}
    for key in ((15, 15), (15, 16), (16, 16)):
        assert rows[key].kind == "inequality" and rows[key].passed
