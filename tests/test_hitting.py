import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutofflab import (
    SUITE_IDS,
    KilledSystem,
    biased_path,
    birth_death,
    build_tree_chain,
    chain_to_json,
    hit_time,
    hitting_tail,
    kac_quantities,
    load_chain,
    random_reversible,
    random_tree,
    run_suites,
    two_cliques,
    worst_tail_profile,
)
from cutofflab import hitting, sbd
from cutofflab.cli import main as cli_main
from cutofflab.hitting import (
    DEFAULT_EXACT_THRESHOLD,
    _candidate_sets,
    _hit_ct_interval,
    _survival,
)
from cutofflab.reporting import Report
from cutofflab.verify import ALPHA_GRID, EPS_GRID, SUITES, _Ctx

# ---------------------------------------------------------------------------
# two-state chain: everything below is hand-derived.
#
# With holding 3/4, departures are geometric(1/4):
#   Pr_other[T_A > t] = (3/4)^t, E = 4, E[T^2] = 4 * (2*4 - 1) = 28,
#   E[z^T] = z / (4 - 3z), escape flow Phi({x}) = 1/4.


def test_k2_worst_tail_is_geometric(k2):
    prof = worst_tail_profile(k2, 0.5)
    prof.hit(1e-3)
    seq = np.array(prof.scan().values)
    expected = 0.75 ** np.arange(seq.size)
    assert np.allclose(seq, expected, atol=1e-12)
    assert prof.exact


def test_k2_hit_half_quarter_is_five(k2):
    res = hit_time(k2, 0.5, 0.25)
    assert res.exact
    assert res.value == 5  # (3/4)^5 = 0.2373 is the first tail <= 1/4


def test_k2_hit_continuous(k2):
    # killed rate 1/4 from the off-state: tail e^{-t/4} hits 1/4 at 4 ln 4.
    res = hit_time(k2, 0.5, 0.25, continuous=True)
    lo, hi = res.bracket
    assert lo <= 4.0 * math.log(4.0) <= hi
    assert hi - lo <= 1e-3 * k2.spectrum.t_rel + 1e-12


def test_k2_kac_identities(k2):
    q = kac_quantities(k2, [1])
    assert q.phi_A == pytest.approx(0.25, abs=1e-14)
    assert q.phi_B == pytest.approx(0.25, abs=1e-14)
    assert q.mean_from_psi == pytest.approx(4.0, abs=1e-12)
    assert q.second_from_psi == pytest.approx(28.0, abs=1e-12)
    assert q.mean_from_pi_B == pytest.approx(4.0, abs=1e-12)


def test_k2_mgf_closed_form(k2):
    ks = KilledSystem(k2, [0])
    z = 7.0 / 6.0
    assert ks.mgf(1, z) == pytest.approx(7.0 / 3.0, abs=1e-12)
    for z in (0.5, 1.0, 1.2):
        assert ks.mgf(1, z) == pytest.approx(z / (4.0 - 3.0 * z), abs=1e-12)


def test_k2_mgf_divergence_guard(k2):
    # z gamma_1 >= 1 has no finite expectation; gamma_1 = 3/4 here.
    with pytest.raises(ValueError):
        KilledSystem(k2, [0]).mgf(1, 4.0 / 3.0)


def test_k2_hitting_tail_closed_form(k2):
    prof = hitting_tail(k2, 1, [0], t_max=12)
    assert np.allclose(prof.tail, 0.75 ** np.arange(13), atol=1e-14)
    assert prof.mean == pytest.approx(4.0, abs=1e-12)
    assert prof.variance == pytest.approx(12.0, abs=1e-12)


def test_k2_qs_decomposition_equality_case(k2):
    qs = KilledSystem(k2, [0])
    # single surviving state: gamma_1 = holding = 3/4 = 1 - pi(A)/t_rel
    assert qs.gammas[0] == pytest.approx(0.75, abs=1e-14)
    assert qs.weights.sum() == pytest.approx(1.0, abs=1e-12)
    t_rel = k2.spectrum.t_rel
    assert qs.gammas[0] <= 1.0 - 0.5 / t_rel + 1e-14


def test_k2_good_set_extremes(k2, good_set):
    all_states = good_set(k2, [0], s=1, m=3.0)
    assert all_states.members.all()
    assert all_states.measure == pytest.approx(1.0, abs=1e-14)
    none = good_set(k2, [0], s=1, m=0.1)
    assert not none.members.any()
    assert none.measure == 0.0


# ---------------------------------------------------------------------------
# structural properties on random chains


def test_tails_match_step_iteration(small_corpus):
    chain = small_corpus[0]
    A = [0, 2]
    prof = hitting_tail(chain, chain.n - 1, A, t_max=30)
    # brute force: mask transitions into A as absorbing and iterate
    mask = np.ones(chain.n, dtype=bool)
    mask[A] = False
    PB = chain.P[np.ix_(mask, mask)]
    u = np.ones(mask.sum())
    start = np.nonzero(np.nonzero(mask)[0] == chain.n - 1)[0][0]
    for t in range(31):
        assert prof.tail[t] == pytest.approx(u[start], abs=1e-12)
        u = PB @ u
    # moments against the tail sums: E[T] = sum_{t>=0} Pr[T > t]
    long = hitting_tail(chain, chain.n - 1, A, t_max=4000)
    assert long.mean == pytest.approx(long.tail.sum(), abs=1e-6)


def _pi_b_vector(chain, A):
    v = chain.pi.copy()
    v[A] = 0.0
    return v / v.sum()


def test_qs_tail_reconstruction(small_corpus):
    # the eigenweight expansion sum_i a_i gamma_i^t must reproduce the
    # directly iterated tail from the stationarity-restricted start
    for chain in small_corpus[:3]:
        qs = KilledSystem(chain, [1])
        ts = np.arange(25)
        recon = qs.tail_stationary(ts)
        direct = hitting_tail(chain, _pi_b_vector(chain, [1]), [1],
                              t_max=24).tail
        assert np.allclose(recon, direct, atol=1e-10)
        assert qs.weights.min() >= -1e-12
        assert qs.weights.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("case", ["k2", "split"])
def test_killed_system_routes_agree(case, k2):
    # "split": the complement of the middle state of a 5-path is two
    # separate killed components, diagonalized together in one eigh
    if case == "k2":
        ks = KilledSystem(k2, [0])
    else:
        ks = KilledSystem(biased_path(5), [2])
        assert ks.B.tolist() == [0, 1, 3, 4]
    start = ks.chain.pi[ks.B] / ks.pi_B
    T = 4000
    iterated = np.array([start @ u for u in islice(ks.survival(), T)])
    eigen = ks.tail_stationary(np.arange(T))
    assert np.max(np.abs(eigen - iterated)) <= 1e-11
    # E[T_A] = sum_{t >= 0} Pr[T_A > t]
    assert eigen.sum() == pytest.approx(start @ ks.mean[ks.B], rel=1e-10)
    assert ks.weights.min() >= 0.0
    assert ks.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_worst_profile_exact_vs_greedy(small_corpus):
    # exhaustive enumeration and the greedy family agree on small chains
    chain = small_corpus[1]
    exact = worst_tail_profile(chain, 0.5, exact_threshold=chain.n)
    greedy = worst_tail_profile(chain, 0.5, exact_threshold=2)
    assert exact.exact and not greedy.exact
    exact.hit(0.05)
    greedy.hit(0.05)
    g = np.array(greedy.scan().values)
    e = np.array(exact.scan().values)
    m = min(g.size, e.size)
    # the greedy profile is a pointwise lower bound on the exact one
    assert np.all(g[:m] <= e[:m] + 1e-12)


def test_hit_time_monotone_in_eps(small_corpus):
    chain = small_corpus[4]
    values = [hit_time(chain, 0.5, eps).value
              for eps in (0.5, 0.25, 0.1, 0.04)]
    assert values == sorted(values)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 4_000), s=st.integers(0, 8))
def test_good_set_measure_floor(good_set, seed, s):
    chain = random_reversible(5, seed=seed)
    m = 3.0
    res = good_set(chain, [0], s=s, m=m)
    assert res.measure >= 1.0 - 8.0 / m ** 2 - 1e-9


def _non_lazy_k4():
    # simple random walk on K4: killed kernels have negative eigenvalues
    P = (np.ones((4, 4)) - np.eye(4)) / 3.0
    return load_chain(P)


@pytest.mark.parametrize("case, mode", [
    ("k2", "all"), ("p3", "all"), ("non-lazy", "all"), ("split", "all"),
    ("n7", "all"), ("n7", "sampled"),
])
def test_stacked_killed_systems_match_single_targets(case, mode, k2, p3):
    # every target's slice of a stack against a one-target system, an
    # independent P_B^t 1 iteration and a direct solve, within 1e-12
    chain = {"k2": k2, "p3": p3, "non-lazy": _non_lazy_k4(), "split": biased_path(5),
             "n7": random_reversible(7, seed=1729)}[case]
    ctx = _Ctx(chain, {"sets": mode})
    targets = ctx.targets(mode)
    sets = list(zip(targets.masks, targets.members))
    stacks = ctx.stack
    assert sorted(j for idx, _ in stacks for j in idx) == list(range(len(sets)))
    if case == "non-lazy":
        assert min(ks.gammas.min() for _, ks in stacks) < 0.0
    if case == "split":
        assert any(sets[j][1] == (2,) for idx, _ in stacks for j in idx)
    ts = np.arange(10)
    close = dict(rtol=1e-12, atol=1e-12)
    for idx, st in stacks:
        t_rows = np.arange(len(idx)) % 4 + 1
        stat, rows = st.tail_stationary(ts), st.tail_rows(t_rows)
        survival = [V for _, V in zip(ts, _survival(chain.P, ~targets.masks[idx].T))]
        kq = st.kac()
        for r, j in enumerate(idx):
            mask, members = sets[j]
            one = KilledSystem(chain, members)
            assert st.B[r].tolist() == one.B.tolist()
            np.testing.assert_allclose(st.gammas[r], one.gammas, **close)
            np.testing.assert_allclose(st.weights[r], one.weights, **close)
            np.testing.assert_allclose(stat[r], one.tail_stationary(ts), **close)
            np.testing.assert_allclose(rows[r], one.tail_rows(t_rows[r]), **close)
            np.testing.assert_allclose(st.mean[r], one.mean, **close)
            np.testing.assert_allclose(st.second_moment[r], one.second_moment, **close)
            one_kq = one.kac()
            for field in ("flow_AB", "flow_BA", "phi_A", "phi_B", "psi", "mean_from_psi",
                          "second_from_psi", "mean_from_pi_B"):
                np.testing.assert_allclose(getattr(kq, field)[r], getattr(one_kq, field), **close)
            # independent routes: iterate P_B by hand, solve (I - P_B) h = 1
            B = np.flatnonzero(~mask)
            PB = chain.P[np.ix_(B, B)]
            start = chain.pi[B] / chain.pi[B].sum()
            u = np.ones(B.size)
            for t in ts:
                np.testing.assert_allclose(survival[t][B, r], u, **close)
                assert not survival[t][mask, r].any()
                np.testing.assert_allclose(stat[r][t], start @ u, **close)
                if t == t_rows[r]:
                    np.testing.assert_allclose(rows[r], u, **close)
                u = PB @ u
            h = np.linalg.solve(np.eye(B.size) - PB, np.ones(B.size))
            m2 = np.linalg.solve(np.eye(B.size) - PB, 2.0 * h - 1.0)
            np.testing.assert_allclose(st.mean[r][B], h, **close)
            np.testing.assert_allclose(st.second_moment[r][B], m2, **close)
            np.testing.assert_allclose(st.mean[r][mask], 0.0, atol=0.0)


@pytest.mark.parametrize("chain", [random_reversible(7, seed=3), biased_path(8),
                                   two_cliques(4)], ids=["random7", "biased8", "cliques4"])
def test_masked_survival_matches_each_gathered_target(chain):
    # the masked n x k stepping against each target's own P_B^t 1 iteration,
    # the route single-target scans keep, for every target set
    n = chain.n
    bits = np.arange(1, (1 << n) - 1)
    masks = ((bits[:, None] >> np.arange(n)) & 1).astype(bool)
    steps = list(islice(_survival(chain.P, ~masks.T), 41))
    for j, mask in enumerate(masks):
        ks = KilledSystem(chain, np.flatnonzero(mask))
        for V, u in zip(steps, islice(ks.survival(), 41)):
            np.testing.assert_allclose(V[ks.B, j], u, rtol=1e-12, atol=0.0)
            assert not V[mask, j].any()


def _bisect(f, level, lo, hi, tol):
    """(lo, hi) with f(hi) <= level < f(lo) and hi - lo <= tol for a
    non-increasing f, from a doubling bracket and bisection."""
    if f(lo) <= level:
        return lo, lo
    while f(hi) > level:
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(mid) <= level else (mid, hi)
    return lo, hi


def _p_ct_per_set(chain, alpha):
    """Reference p_ct(t) = max_A max_x Pr_x[T_A > t] from one KilledSystem
    and one eigensystem per candidate target: the spectral sum over the
    killed eigenvalues, an oracle for n <= 14."""
    sets, exact = _candidate_sets(chain, alpha, DEFAULT_EXACT_THRESHOLD)
    systems = [KilledSystem(chain, np.flatnonzero(sel)) for sel in sets if not sel.all()]

    def p_ct(t):
        return max((float((ks.state_weights @ np.exp(-(1.0 - ks.gammas) * t)).max())
                    for ks in systems), default=0.0)

    return p_ct, exact


def _assert_hit_ct_bracket(chain, alpha, eps, got):
    # the bracket contract against the per-set spectral oracle:
    # p(lo) > eps >= p(hi) to 1e-12 and hi - lo <= 1e-3 t_rel, and the
    # oracle's own bisected bracket overlaps it
    p_ct, exact = _p_ct_per_set(chain, alpha)
    lo, hi, got_exact = got
    t_rel = chain.spectrum.t_rel
    assert got_exact is exact
    assert p_ct(hi) <= eps + 1e-12, (alpha, eps, lo, hi)
    assert p_ct(lo) > eps - 1e-12 or (lo, hi) == (0.0, 0.0), (alpha, eps, lo, hi)
    assert hi - lo <= 1e-3 * t_rel
    ref_lo, ref_hi = _bisect(p_ct, eps, 0.0, max(1.0, t_rel), 1e-3 * t_rel)
    assert lo <= ref_hi + 1e-12 and ref_lo <= hi + 1e-12


def test_stacked_ct_brackets_match_per_set_reference(k2, small_corpus):
    chains = [k2, two_cliques(4)] + [c for c in small_corpus if c.n <= 10]
    alphas = (0.25, 0.5, 0.75, 1.0 - 1.0 / 64)
    for chain in chains:
        ctx = _Ctx(chain, {})
        for alpha in alphas:
            for eps in (1.0 / 32, 0.25, 0.5, 31.0 / 32):
                got = _hit_ct_interval(chain, alpha, eps)
                _assert_hit_ct_bracket(chain, alpha, eps, got)
                assert ctx.hit_ct(alpha, eps) == got
                if alpha == 0.5:
                    res = hit_time(chain, alpha, eps, continuous=True)
                    assert (res.bracket, res.value) == (got[:2], got[1])


def test_continuous_suite_hitting_brackets_keep_the_contract(monkeypatch):
    # every (alpha, eps) the continuous-time suite reads keeps the contract;
    # the killed squares of each |B| stack serve every level, with no
    # killed eigh
    chain = two_cliques(4)
    ctx = _Ctx(chain, {})  # reads the chain's own eigensystem
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    assert Report("continuous-time", "", SUITES["continuous-time"](ctx), {}).passed
    assert calls == []
    monkeypatch.undo()
    alphas = {0.5, *(1.0 - eps / 4 for eps in EPS_GRID), *ALPHA_GRID}
    assert {alpha for alpha, _ in ctx._hit_ct} == {round(a, 12) for a in alphas}
    for (alpha, eps), got in ctx._hit_ct.items():
        _assert_hit_ct_bracket(chain, alpha, eps, got)


@pytest.mark.parametrize("states, message", [
    ([], "target set must be nonempty"),
    ([5], "target state out of range"),
    ([-1], "target state out of range"),
])
def test_killed_system_validates_target(states, message):
    with pytest.raises(ValueError, match=message):
        KilledSystem(biased_path(5), states)


def _ks6() -> KilledSystem:
    return KilledSystem.of(biased_path(6), [0])


@pytest.mark.parametrize("call", [
    lambda: hit_time(biased_path(6), 0.5, 0.25, x=-1),
    lambda: hit_time(biased_path(6), 0.5, 0.25, x=6),
    lambda: worst_tail_profile(biased_path(6), 0.5).scan(-1),
    lambda: hitting_tail(biased_path(6), -1, [0]),
    lambda: hitting_tail(biased_path(6), 6, [0]),
    lambda: _ks6().mgf(-1, 1.01),
    lambda: _ks6().mgf(6, 1.01),
    lambda: _ks6().position(7),
    lambda: _ks6().position(-1),
    lambda: _ks6().scan(6),
], ids=["hit-x-neg", "hit-x-n", "profile-scan-neg", "tail-neg", "tail-n", "mgf-neg",
        "mgf-n", "position-past-n", "position-neg", "killed-scan-n"])
def test_out_of_range_start_state_raises(call):
    # a negative start must not wrap to the last state, nor one past n
    # escape as a bare IndexError or pass for a member of the target
    with pytest.raises(ValueError, match="^start state out of range$"):
        call()


def test_killed_system_sorts_and_deduplicates_target():
    ks = KilledSystem(biased_path(5), [2, 0, 2])
    assert ks.A.tolist() == [0, 2]
    assert ks.B.tolist() == [1, 3, 4]


def test_killed_system_of_is_one_system_per_chain_and_target():
    chain = biased_path(5)
    ks = KilledSystem.of(chain, [2, 0, 2])
    assert KilledSystem.of(chain, np.array([0, 2])) is ks
    assert ks.A.tolist() == [0, 2]
    assert ks.B.tolist() == [1, 3, 4]
    assert list(chain.killed.values()) == [ks]
    assert KilledSystem.of(biased_path(5), [0, 2]) is not ks
    assert np.array_equal(ks.mean, KilledSystem(chain, [0, 2]).mean)
    with pytest.raises(ValueError, match="target state out of range"):
        KilledSystem.of(chain, [5])


def test_run_suites_builds_each_single_target_once(monkeypatch):
    # the single-target systems of martingale, return-mgf, the banded and
    # tree suites live on their chains, so no reader rebuilds one
    builds = []
    setup = KilledSystem._setup

    def counted(self, chain, A, B):
        if B.ndim == 1:
            builds.append((id(chain), A.tobytes()))
        setup(self, chain, A, B)

    monkeypatch.setattr(KilledSystem, "_setup", counted)
    run_suites(biased_path(20), ["all"])
    assert len(builds) == len(set(builds)) == 41


def test_continuized_killed_tails_match_the_matrix_exponential():
    # Pr_x[T_A > t] for the continuized walk is (exp(-t (I - P_B)) 1)(x)
    from scipy.linalg import expm

    chain = random_reversible(7, seed=3)
    ks = KilledSystem(chain, [2, 5])
    ts = [0.0, 0.7, 3.0, 11.5]
    gen = np.eye(ks.B.size) - ks.PB
    tails = np.array([expm(-t * gen) @ np.ones(ks.B.size) for t in ts])
    pos = ks.position(1)
    assert np.allclose(ks.tail_state(pos, ts, continuous=True), tails[:, pos],
                       rtol=0.0, atol=1e-14)
    pi_B = chain.pi[ks.B] / ks.pi_B
    assert np.allclose(ks.tail_stationary(ts, continuous=True), tails @ pi_B,
                       rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("case", ["biased-path", "birth-death"])
def test_exit_law_is_the_killed_series(case):
    # row x of the exit law is sum_t P_B^t P[B, A] from x, summed here by
    # doubling: S_2m = S_m + P_B^m S_m covers 2^64 terms
    if case == "biased-path":
        chain, width = biased_path(12), 3
    else:
        rng = np.random.default_rng(5)
        up, down = rng.uniform(0.1, 0.4, 9), rng.uniform(0.1, 0.4, 9)
        chain, width = birth_death(up, down, 1.0 - np.r_[up, 0.0] - np.r_[0.0, down]), 2
    for lo in range(0, chain.n, width):
        ks = KilledSystem(chain, range(lo, min(lo + width, chain.n)))
        series = chain.P[np.ix_(ks.B, ks.A)]
        power = ks.PB
        for _ in range(64):
            series = series + power @ series
            power = power @ power
        assert ks.exit_law.shape == (ks.B.size, ks.A.size)
        assert ks.exit_law.min() >= 0.0
        np.testing.assert_allclose(ks.exit_law.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(ks.exit_law, series, rtol=0.0, atol=1e-12)


def _eager_worst_tails(chain, alpha, stop_level, exact_threshold):
    # reference: the full scan of p_x(alpha, t) over every start, stepped
    # until the maximum over the starts falls to stop_level
    sets, exact = _candidate_sets(chain, alpha, exact_threshold)
    keep = ~np.stack(sets, axis=1)
    V = keep.astype(float)
    rows = [V.max(axis=1)]
    while rows[-1].max() > stop_level + 1e-12:
        V = chain.P @ V
        V *= keep
        rows.append(V.max(axis=1))
    return np.array(rows), exact


def test_profile_matches_eager_reference(k2, small_corpus):
    chains = [k2, two_cliques(3), two_cliques(4), biased_path(8),
              build_tree_chain(random_tree(12, seed=5)).chain, *small_corpus]
    levels = [0.9, *(2.0 ** -k for k in range(1, 10))]
    order = levels[1::2] + levels[::2]  # out of order: scans extend on demand
    for chain in chains:
        for alpha in (0.25, 0.5, 0.75, 15 / 16):
            for threshold in (DEFAULT_EXACT_THRESHOLD, 0):
                tails, exact = _eager_worst_tails(chain, alpha, 1 / 512, threshold)
                prof = worst_tail_profile(chain, alpha, exact_threshold=threshold)
                assert prof.exact == exact
                for x in (None, *range(chain.n)):
                    seq = tails.max(axis=1) if x is None else tails[:, x]
                    for eps in order:
                        want = int(np.nonzero(seq <= eps + 1e-12)[0][0])
                        assert prof.hit(eps, x) == want
                    values = prof.scan(x).values
                    assert values == seq[:len(values)].tolist()
                assert np.array_equal(prof.tails, tails[:len(prof.tails)])


def test_candidate_family_enumerated_once_per_alpha(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return _candidate_sets(*args, **kwargs)

    monkeypatch.setattr(hitting, "_candidate_sets", counting)
    monkeypatch.setattr(sbd, "_candidate_sets", counting)
    # six alphas: the grid, 1 - eps/4 over the eps grid; each serves the
    # discrete and the continuized suites
    tree_walk = build_tree_chain(random_tree(12, seed=5)).chain
    for chain in (two_cliques(4), tree_walk):
        calls.clear()
        run_suites(chain, SUITE_IDS)
        assert len(calls) == len(set(calls)) == 6
    path = tmp_path / "chain.json"
    chain_to_json(two_cliques(4), str(path))
    levels = ["--eps", "0.25", "--eps", "0.1", "--eps", "0.01"]
    for extra in (["-o", str(tmp_path / "tails.csv")], ["--continuous"]):
        calls.clear()
        assert cli_main(["hit", str(path), *levels, *extra]) == 0
        assert calls == [0.5]
