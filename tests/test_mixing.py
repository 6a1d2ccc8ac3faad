import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutofflab import (
    biased_path,
    load_chain,
    maximal_function,
    mixing_profile,
    mixing_time,
    random_reversible,
    run_suite,
    two_cliques,
    worst_tv,
)
from cutofflab import mixing
from cutofflab.families import plateau_chain, random_tree
from cutofflab.mixing import _ceiling, mixing_times
from cutofflab.trees import build_tree_chain
from cutofflab.verify import _Ctx


def test_k2_distance_is_closed_form(k2):
    # d(t) = (1/2)^{t+1}: the worst row is (1/2)(1 + 2^{-t}, 1 - 2^{-t}).
    prof = mixing_profile(k2, t_max=10)
    expected = 0.5 ** (np.arange(11) + 1)
    assert np.allclose(prof.d, expected, atol=1e-14)


def test_k2_mixing_time(k2):
    # d(t) = (1/2)^{t+1}: 1/4 at t=1, 1/8 at t=2, 1/16 at t=3
    assert mixing_time(k2, 0.25) == 1
    assert mixing_time(k2, 0.125) == 2
    assert mixing_time(k2, 0.12) == 3


def test_continuized_distance_rejects_negative_times():
    # exp(3 (I - P)) is no kernel: its rows gave "distances" above 1
    with pytest.raises(ValueError, match="t must be >= 0"):
        worst_tv(biased_path(6), -3, continuous=True)


@pytest.mark.parametrize("continuous", [False, True], ids=["discrete", "continuized"])
@pytest.mark.parametrize("t", [-3, -0.5, math.nan, math.inf, -math.inf])
def test_worst_tv_rejects_negative_and_non_finite_times(t, continuous):
    # nan and inf read (nan, 0) in continuized time and raised a bare
    # OverflowError in discrete time
    with pytest.raises(ValueError, match="t must be >= 0 and finite"):
        worst_tv(biased_path(6), t, continuous=continuous)


def test_distances_far_below_the_rounding_of_large_entries(two_state):
    # each row keeps the one-sided sum of |M - pi| with the smaller mass:
    # the sum over both sides read half of these values
    chain, a = two_state
    pi0 = float(chain.pi[0])
    assert worst_tv(chain, 60) == (pytest.approx(pi0 * (0.5 - a) ** 60, rel=1e-9, abs=0.0), 1)
    assert worst_tv(chain, 100, continuous=True) == (
        pytest.approx(pi0 * math.exp(-100.0 * (a + 0.5)), rel=1e-9, abs=0.0), 1)


def test_profile_rejects_a_negative_horizon(k2):
    with pytest.raises(ValueError, match="t_max must be >= 0"):
        mixing_profile(k2, t_max=-1)


def test_worst_tv_matches_profile(small_corpus):
    chain = small_corpus[2]
    prof = mixing_profile(chain, t_max=12)
    for t in (0, 3, 9):
        d, _ = worst_tv(chain, t)
        assert d == pytest.approx(prof.d[t], abs=1e-12)


def test_profile_is_monotone(small_corpus):
    for chain in small_corpus:
        prof = mixing_profile(chain, t_max=40)
        assert np.all(np.diff(prof.d) <= 1e-12)


def _cycle(n):
    """Non-lazy simple random walk on the n-cycle (aperiodic for odd n)."""
    P = np.zeros((n, n))
    for i in range(n):
        P[i, (i + 1) % n] += 0.5
        P[i, (i - 1) % n] += 0.5
    return load_chain(P)


def test_mixing_time_agrees_with_profile_scan(small_corpus):
    # the dense scan is the oracle for the descent over the squares;
    # biased_path(30) has min pi below 1e-12
    extra = [
        random_reversible(50, density=0.2, seed=3),
        build_tree_chain(random_tree(40, seed=2)).chain,
        two_cliques(10),
        random_reversible(12, seed=5, holding_range=(0.0, 0.2)),
        biased_path(30),
    ]
    for chain in [*small_corpus, *extra]:
        prof = mixing_profile(chain, eps_floor=1e-3)
        for eps in (0.25, 0.1, 0.02):
            assert mixing_time(chain, eps) == prof.hit_level(eps)


_LEVELS = (1 / 16, 1 / 8, 1 / 4, 3 / 4, 7 / 8, 15 / 16)


def _descent_chains():
    return [
        *(biased_path(n) for n in (12, 34, 50, 200)),
        *(plateau_chain(m) for m in range(2, 9)),
        two_cliques(4),
        two_cliques(10),
        *(build_tree_chain(random_tree(n, seed=1)).chain for n in (60, 120)),
    ]


def test_square_descent_matches_the_dense_scan(small_corpus):
    # every level of every chain, at any min pi, lands on the first time the
    # dense scan of d(t) reaches it; the squares are built once per chain
    for chain in [*_descent_chains(), *small_corpus]:
        want = [mixing_profile(chain, eps_floor=min(_LEVELS)).hit_level(e) for e in _LEVELS]
        assert mixing_times(chain, _LEVELS) == want
        kept = len(chain.squares)
        assert kept <= max(math.ceil(_ceiling(chain, e)) for e in _LEVELS).bit_length()
        ctx = _Ctx(chain, {})
        assert [ctx.tmix(e) for e in _LEVELS] == want
        assert len(chain.squares) == kept


def test_descent_raises_past_each_level_ceiling(monkeypatch, small_corpus):
    # the descent never reads past the certified ceiling, on either side of
    # min pi = 1e-12, and a ceiling at t_mix itself still finds it
    for chain in (biased_path(34), small_corpus[0]):
        t = mixing_time(chain, 0.25)
        monkeypatch.setattr(mixing, "_ceiling", lambda chain, eps, continuous=False: t - 1)
        with pytest.raises(RuntimeError, match="stayed above 0.25 through t"):
            mixing_times(chain, (0.25,))
        monkeypatch.setattr(mixing, "_ceiling", lambda chain, eps, continuous=False: t)
        assert mixing_times(chain, (0.25,)) == [t]
        monkeypatch.undo()
    assert biased_path(34).pi.min() < 1e-12 < small_corpus[0].pi.min()
    with pytest.raises(ValueError):
        mixing_times(small_corpus[0], (0.25, 0.0))


def test_worst_tv_holds_at_huge_times(k2):
    # P^t from the renormalized squares: repeated squarings of P itself
    # compound row-sum rounding and read d(2^62) near 1/2
    chain = biased_path(6)
    for t in (2**40, 2**62):
        assert worst_tv(chain, t)[0] < 1e-15
    # both states of k2 are worst starts; the tie goes to state 0
    for t in (0, 5, 13):
        assert worst_tv(k2, t) == (pytest.approx(0.5 ** (t + 1), abs=1e-15), 0)


@pytest.mark.parametrize("n", [9, 21, 41])
def test_non_lazy_odd_cycle_mixes_within_absolute_ceiling(n):
    # |lambda_min| is close to 1, so only the absolute relaxation time
    # bounds t_mix; a ceiling from lambda_2 alone is too low
    chain = _cycle(n)
    prof = mixing_profile(chain, eps_floor=0.01)
    for eps in (0.25, 0.1, 0.01):
        t = mixing_time(chain, eps)
        assert t == prof.hit_level(eps)
        assert t <= _ceiling(chain, eps)
    if n == 9:
        assert mixing_time(chain, 0.01) == 67
    if n == 21:
        assert (mixing_time(chain, 0.01), mixing_time(chain, 0.1)) == (370, 165)
        report = run_suite(chain, "submultiplicativity", {"eps_grid": (0.01,)})
        assert report.records


def test_ceiling_is_finite_for_subnormal_min_pi():
    chain = biased_path(650)
    assert 0.0 < chain.pi.min() < 1e-300
    assert np.isfinite(_ceiling(chain, 0.25))
    assert np.isfinite(_ceiling(chain, 0.25, continuous=True))
    # the heat kernel is built from nonnegative terms, so d resolves below
    # the level: a bracket of width h <= 1e-3 t_rel inside the ceiling
    [(lo, hi)] = mixing_times(chain, (0.25,), continuous=True)
    assert 0.0 < lo < hi <= _ceiling(chain, 0.25, continuous=True)
    assert hi - lo <= 1e-3 * chain.spectrum.t_rel
    assert worst_tv(chain, lo, continuous=True)[0] > 0.25 >= worst_tv(chain, hi, continuous=True)[0]


def test_mixing_time_rejects_bad_eps(k2):
    with pytest.raises(ValueError):
        mixing_time(k2, 0.0)
    with pytest.raises(ValueError):
        mixing_time(k2, 1.5)


def _assert_ct_bracket(chain, eps, bracket, d_ct):
    # the bracket contract against the oracle: d(lo) > eps >= d(hi) to
    # 1e-12, and hi - lo <= 1e-3 t_rel; (0, 0) when d(0) <= eps already
    lo, hi = bracket
    d_lo, d_hi = d_ct(chain, [lo, hi])
    assert d_hi <= eps + 1e-12, (lo, hi, d_hi)
    assert d_lo > eps - 1e-12 or (lo, hi) == (0.0, 0.0), (lo, hi, d_lo)
    assert 0.0 <= hi - lo <= 1e-3 * chain.spectrum.t_rel


def test_ct_interval_brackets_k2(k2, d_ct):
    # d_ct(t) = (1/2) e^{-t/2} crosses 1/4 at t = 2 ln 2.
    [(lo, hi)] = mixing_times(k2, (0.25,), continuous=True)
    assert lo <= 2.0 * np.log(2.0) <= hi
    _assert_ct_bracket(k2, 0.25, (lo, hi), d_ct)


def test_ct_brackets_match_the_spectral_oracle(small_corpus, d_ct):
    levels = (1.0 / 32, 0.25, 0.5, 31.0 / 32)
    for chain in [two_cliques(4), biased_path(8), *small_corpus]:
        for eps, bracket in zip(levels, mixing_times(chain, levels, continuous=True)):
            _assert_ct_bracket(chain, eps, bracket, d_ct)
            assert mixing_time(chain, eps, continuous=True) == bracket[1]


def _brute_even_maximum(chain, f, k_max):
    g = f.astype(float).copy()
    best = g.copy()
    P2 = chain.P @ chain.P
    for _ in range(k_max):
        g = P2 @ g
        best = np.maximum(best, g)
    return best


def test_maximal_function_matches_brute_force(small_corpus):
    chain = small_corpus[0]
    rng = np.random.default_rng(3)
    for _ in range(4):
        f = np.abs(rng.standard_normal(chain.n))
        res = maximal_function(chain, f)
        brute = _brute_even_maximum(chain, f, res.truncation_k)
        # beyond the truncation horizon the remaining fluctuation is below
        # the certified tail bound, so brute and exact agree to that bound
        assert np.all(res.values >= brute - 1e-12)
        assert np.all(res.values <= brute + res.tail_bound + 1e-12)


def test_maximal_function_dominates_every_even_power(small_corpus):
    chain = small_corpus[3]
    rng = np.random.default_rng(11)
    f = np.abs(rng.standard_normal(chain.n))
    res = maximal_function(chain, f)
    g = f.copy()
    P2 = chain.P @ chain.P
    for _ in range(30):
        assert np.all(res.values >= g - res.tail_bound - 1e-12)
        g = P2 @ g


def test_block_maximal_function_rows_match_single_calls(small_corpus):
    # a random walk on K5 is not lazy: lambda_min = -1/4
    non_lazy = load_chain((np.ones((5, 5)) - np.eye(5)) / 4.0)
    rng = np.random.default_rng(5)
    for chain in [*small_corpus, non_lazy]:
        # rows of very different size and a constant row leave the block at
        # different horizons, the constant one at k = 0
        F = rng.standard_normal((6, chain.n)) * np.array([[1.0], [1e-6], [1e3], [1.0], [1.0], [0.0]])
        F[5] += 2.0
        block = maximal_function(chain, F)
        assert block.values.shape == F.shape
        assert len(set(block.truncation_k.tolist())) > 1
        for i, f in enumerate(F):
            one = maximal_function(chain, f)
            assert isinstance(one.truncation_k, int) and isinstance(one.tail_bound, float)
            assert block.truncation_k[i] == one.truncation_k
            assert block.tail_bound[i] == one.tail_bound
            np.testing.assert_allclose(block.values[i], one.values, rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError, match="state function"):
        maximal_function(small_corpus[0], np.ones((2, small_corpus[0].n + 1)))


def _maximal_by_steps(chain, f):
    """The even-time maximal function as a per-step loop: before each even
    step the envelope of every live column is checked, finished columns
    leave the block, and the step is two products with P."""
    f = np.asarray(f, dtype=float)
    spectrum = chain.spectrum
    rate = max(spectrum.lambda_2, abs(spectrum.lambda_min))
    rate = min(max(rate, 0.0), 1.0 - 1e-15)
    P, pi = chain.P, chain.pi
    rows = f.reshape(-1, chain.n)
    norms = np.empty(rows.shape[0])
    for i, row in enumerate(rows):
        mean = float(pi @ row)
        norms[i] = math.sqrt(float(pi @ (row - mean) ** 2))
    scale = 1.0 / math.sqrt(float(pi.min()))
    values = np.empty_like(rows)
    truncation_k = np.zeros(rows.shape[0], dtype=int)
    tail_bound = np.empty(rows.shape[0])
    live = np.arange(rows.shape[0])
    G = rows.T.copy()
    run = np.abs(G)
    k = 0
    while True:
        tail = (rate ** (2 * k)) * norms[live] * scale
        done = tail <= 1e-12
        if done.any():
            ended = live[done]
            truncation_k[ended] = k
            tail_bound[ended] = tail[done]
            values[ended] = run[:, done].T
            keep = ~done
            live, G, run = live[keep], G[:, keep], run[:, keep]
        if not live.size:
            break
        G = P @ (P @ G)
        k += 1
        np.maximum(run, np.abs(G), out=run)
    return values, truncation_k, tail_bound, rate, norms, scale


def test_maximal_function_matches_the_step_loop(small_corpus):
    # horizons fixed before stepping are the loop's, bit for bit, and each
    # is the first k whose envelope is at most 1e-12; the values differ by
    # the rounding of P^2 against two products with P
    non_lazy = load_chain((np.ones((5, 5)) - np.eye(5)) / 4.0)
    flat = load_chain(np.full((2, 2), 0.5))
    assert flat.spectrum.lambda_2 == 0.0 == flat.spectrum.lambda_min
    rng = np.random.default_rng(8)
    for chain in [*small_corpus, non_lazy, flat, biased_path(34), two_cliques(10)]:
        F = rng.standard_normal((5, chain.n)) * np.array([[1.0], [1e-6], [1e3], [1e-12], [0.0]])
        F[4] += 2.0
        for f in (F, F[2], F[4], F[:0]):
            res = maximal_function(chain, f)
            values, truncation_k, tail_bound, rate, norms, scale = _maximal_by_steps(chain, f)
            np.testing.assert_array_equal(np.ravel(res.truncation_k), truncation_k)
            np.testing.assert_array_equal(np.ravel(res.tail_bound), tail_bound)
            np.testing.assert_allclose(np.reshape(res.values, values.shape), values,
                                       rtol=1e-12, atol=0.0)
            for k, norm in zip(truncation_k.tolist(), norms.tolist()):
                assert k == 0 or rate ** (2 * (k - 1)) * norm * scale > 1e-12
        assert res.values.shape == (0, chain.n) and res.truncation_k.shape == (0,)
        assert maximal_function(chain, F[4]).truncation_k == 0


def test_maximal_function_rejects_non_finite_functions():
    # NaN, inf, or a deviation whose square overflows leaves no envelope
    # to fix a horizon from
    chain = biased_path(6)
    for bad in (np.nan, np.inf, 1e308):
        f = np.zeros(chain.n)
        f[2] = bad
        for block in (f, np.stack([np.ones(chain.n), f])):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValueError, match="finite"):
                maximal_function(chain, block)


def test_uncertified_horizon_raises_before_any_step():
    # lambda_2 = 1 - 2e-9 puts the horizon near 7e9 even steps
    chain = load_chain(np.array([[1.0 - 1e-9, 1e-9], [1e-9, 1.0 - 1e-9]]))
    with pytest.raises(RuntimeError, match="2,000,000"):
        maximal_function(chain, np.array([0.0, 1.0]))
    assert not chain.squares


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5_000), t=st.integers(0, 6), s=st.integers(0, 6))
def test_tv_submultiplicative(seed, t, s):
    chain = random_reversible(6, seed=seed)
    dt, _ = worst_tv(chain, t)
    ds, _ = worst_tv(chain, s)
    dts, _ = worst_tv(chain, t + s)
    assert dts <= 2.0 * dt * ds + 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_mixing_time_monotone_in_eps(seed):
    chain = random_reversible(7, seed=seed)
    times = [mixing_time(chain, eps) for eps in (0.4, 0.25, 0.1, 0.05)]
    assert times == sorted(times)
