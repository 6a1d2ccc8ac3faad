import numpy as np
import pytest

from cutofflab import load_chain, simulate_hitting, simulate_tv_proxy
from cutofflab.oracle import _step_states, _step_table, uniform_block


def test_uniform_block_chunking_is_bit_for_bit():
    # reading the counter stream in pieces must reproduce one big read
    whole = uniform_block(123, 0, (40, 7))
    parts = np.vstack([uniform_block(123, 0, (15, 7)),
                       uniform_block(123, 15 * 7, (25, 7))])
    assert np.array_equal(whole, parts)


def test_uniform_block_seeds_differ():
    a = uniform_block(1, 0, (16,))
    b = uniform_block(2, 0, (16,))
    assert not np.array_equal(a, b)


def _gather_step(states, u, P):
    # the inverse-CDF step as a gather: count the row's cells at or below u;
    # the mass at or above the row's rounded total goes to the row's last
    # state of positive probability
    cum = np.cumsum(P, axis=1)
    last = P.shape[1] - 1 - np.argmax(P[:, ::-1] > 0, axis=1)
    return np.minimum((cum[states] <= u[:, None]).sum(axis=1), last[states])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_kernel_matches_the_gather_formula(seed):
    # zero-probability transitions give runs of tied cumulative values, and
    # u is drawn from the cumulative values themselves as well as at random
    rng = np.random.default_rng(seed)
    n = 9
    P = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    P[0] = 0.0
    P[0, 3] = 1.0
    P[1, :] = 0.0
    P[1, [0, n - 1]] = 0.5
    P[np.arange(n), np.arange(n)] += 1e-3
    P /= P.sum(axis=1, keepdims=True)
    chain = load_chain(P)
    cum = np.cumsum(chain.P, axis=1)
    states = rng.integers(0, n, size=4000)
    u = np.where(rng.random(4000) < 0.5, rng.random(4000),
                 cum[rng.integers(0, n, size=4000), rng.integers(0, n, size=4000)])
    u[:n * n] = cum.ravel()
    states[:n * n] = np.repeat(np.arange(n), n)
    u[n * n:n * n + n] = 0.0
    want = _gather_step(states, u, chain.P)
    assert np.array_equal(_step_states(states, u, _step_table(chain)), want)


# row 0 sums to 1 - 4e-13, inside load_chain's tolerance, and its last
# state has probability zero
_SHORT_ROW = [[0.6, 0.4 - 4e-13, 0.0], [0.3, 0.4, 0.3], [0.0, 0.5, 0.5]]
_TOP_U = 1.0 - 2.0 ** -53


def test_step_sends_the_leftover_mass_to_a_reachable_state():
    chain = load_chain(_SHORT_ROW)
    step = _step_states(np.array([0, 1, 2]), np.full(3, _TOP_U), _step_table(chain))
    assert step.tolist() == [1, 2, 2]


def test_walks_never_step_past_a_short_row(monkeypatch):
    # both path simulators step from state 0 to state 1 on the largest
    # uniform, never to state 2 (probability zero) or to state 3
    import cutofflab.oracle as oracle
    import cutofflab.sbd as sbd

    chain = load_chain(_SHORT_ROW)

    def top(seed, offset, shape):
        return np.full(shape, _TOP_U)

    monkeypatch.setattr(oracle, "uniform_block", top)
    monkeypatch.setattr(sbd, "uniform_block", top)
    assert simulate_hitting(chain, 0, [2], 1, paths=1_000, seed=0).value == 1.0
    times = sbd._staged_times(chain, 0, [np.array([False, True, False])],
                              paths=4, seed=0, t_cap=10)
    assert times.tolist() == [[1]] * 4


def test_simulate_hitting_is_reproducible(k2):
    a = simulate_hitting(k2, 0, [1], 3, paths=2_000, seed=5)
    b = simulate_hitting(k2, 0, [1], 3, paths=2_000, seed=5)
    assert a.value == b.value
    c = simulate_hitting(k2, 0, [1], 3, paths=2_000, seed=6)
    assert a.value != c.value or a.seed != c.seed


def test_simulate_hitting_matches_geometric_tail(k2):
    # Pr_0[T_{1} > 3] = (3/4)^3 = 27/64 exactly
    est = simulate_hitting(k2, 0, [1], 3, paths=50_000, seed=11)
    exact = 27.0 / 64.0
    assert abs(est.value - exact) <= 4.0 * est.standard_error
    assert est.standard_error < 0.01


def test_simulate_hitting_start_inside_target(k2):
    est = simulate_hitting(k2, 1, [1], 10, paths=1_000, seed=0)
    assert est.value == 0.0
    assert est.standard_error == 0.0


def test_simulate_hitting_rejects_tiny_runs(k2):
    with pytest.raises(ValueError):
        simulate_hitting(k2, 0, [1], 3, paths=10, seed=1)


def test_tv_proxy_at_time_zero(small_corpus):
    # at t = 0 the plug-in estimator sees the point mass at the start:
    # TV(delta_x, pi) = 1 - pi(x), and the plug-in bias vanishes
    chain = small_corpus[0]
    est = simulate_tv_proxy(chain, 0, 0, paths=5_000, seed=3)
    assert est.value == pytest.approx(1.0 - chain.pi[0], abs=1e-12)


def test_tv_proxy_upward_bias_documented(small_corpus):
    from cutofflab.mixing import worst_tv

    chain = small_corpus[0]
    t = 6
    est = simulate_tv_proxy(chain, 0, t, paths=40_000, seed=9)
    exact = np.abs(np.linalg.matrix_power(chain.P, t)[0] - chain.pi).sum() / 2
    # plug-in TV estimates sit above the truth (Jensen), modulo noise
    assert est.value >= exact - 4.0 * max(est.standard_error, 1e-3)
    d, _ = worst_tv(chain, t)
    assert exact <= d + 1e-12
