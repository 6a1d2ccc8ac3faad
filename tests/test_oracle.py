import numpy as np
import pytest

from cutofflab import load_chain, simulate_hitting
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


# row 0 sums to 1 - 4e-13, inside load_chain's tolerance, and its last
# state has probability zero
_SHORT_ROW = [[0.6, 0.4 - 4e-13, 0.0], [0.3, 0.4, 0.3], [0.0, 0.5, 0.5]]
_TOP_U = 1.0 - 2.0 ** -53


def _gather_step(states, u, P):
    # the inverse-CDF step as a gather: count the row's cells at or below u;
    # the mass at or above the row's rounded total goes to the row's last
    # state of positive probability
    cum = np.cumsum(P, axis=1)
    last = P.shape[1] - 1 - np.argmax(P[:, ::-1] > 0, axis=1)
    return np.minimum((cum[states] <= u[:, None]).sum(axis=1), last[states])


def _check_every_start(P, extra=(), pi=None):
    # the kernel against the gather formula from every state s, at each
    # cumulative cell of row s, each bucket edge b/m and the float
    # neighbours of all of these, at the extra uniforms, and at 0 and the
    # largest uniform
    chain = load_chain(P, pi=pi)
    table = _step_table(chain)
    m = table.guide.shape[1]
    cum = np.cumsum(chain.P, axis=1)
    for s in range(chain.n):
        edges = np.concatenate([cum[s], np.arange(m + 1) / m])
        u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
                            extra, [0.0, _TOP_U]])
        u = u[(u >= 0.0) & (u < 1.0)]
        states = np.full(u.size, s)
        assert np.array_equal(_step_states(states, u, table),
                              _gather_step(states, u, chain.P))


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
    _check_every_start(P, rng.random(500))


@pytest.mark.parametrize("n, density", [(2, 1.0), (7, 0.05), (33, 0.3), (120, 1.0), (300, 1.0)])
def test_step_kernel_is_exact_on_random_chains(n, density):
    from cutofflab.families import random_reversible

    _check_every_start(random_reversible(n, density=density, seed=n).P)


@pytest.mark.parametrize("n", [3, 64, 300])
def test_step_kernel_is_exact_on_biased_paths(n):
    from cutofflab.families import biased_path

    # pi goes with P: the dense solve rounds the smallest masses to zero or below
    chain = biased_path(n)
    _check_every_start(chain.P, pi=chain.pi)


def test_step_kernel_crosses_long_tie_runs():
    # each row has two positive entries at the ends and n - 2 zeros between
    # them: one run of n - 1 tied cells
    n = 40
    P = np.zeros((n, n))
    P[:, 0] = 0.25
    P[:, -1] = 0.75
    _check_every_start(P)


def test_step_kernel_keeps_an_absorbed_probability():
    # 1e-17 added to 0.5 rounds back to 0.5: state 1 has positive
    # probability but its cell ties with state 0's, so no uniform reaches it
    P = np.array([[0.5, 1e-17, 0.5 - 1e-17], [0.3, 0.3, 0.4], [0.5, 0.0, 0.5]])
    assert np.cumsum(P[0])[1] == 0.5
    # the dense solve rounds pi(1) = pi(0) 1e-17 / 0.7 to zero, so pi goes with P
    _check_every_start(P, [0.5, np.nextafter(0.5, 0.0)], pi=[0.5, 0.5e-17 / 0.7, 0.5])


def test_step_kernel_on_a_short_row():
    _check_every_start(_SHORT_ROW)




def test_step_sends_the_leftover_mass_to_a_reachable_state():
    chain = load_chain(_SHORT_ROW)
    step = _step_states(np.array([0, 1, 2]), np.full(3, _TOP_U), _step_table(chain))
    assert step.tolist() == [1, 2, 2]


def test_walks_never_step_past_a_short_row(monkeypatch):
    # the walker steps from state 0 to state 1 on the largest uniform,
    # never to state 2 (probability zero) or to state 3, in simulate_hitting
    # and in sbd's staged walks alike
    import cutofflab.oracle as oracle
    import cutofflab.sbd as sbd

    chain = load_chain(_SHORT_ROW)

    def top(seed, offset, shape):
        return np.full(shape, _TOP_U)

    monkeypatch.setattr(oracle, "uniform_block", top)
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


def test_monte_carlo_outputs_are_pinned():
    # recorded before the indexed-search step kernel replaced the binary
    # search and sbd's rounds went from 8,192 to 16,384 paths per chunk:
    # any change to the uniform -> state map or to the sample changes these
    import cutofflab.sbd as sbd
    from cutofflab.families import biased_path, two_cliques

    path, cliques = biased_path(12), two_cliques(6)
    assert simulate_hitting(path, 0, [11], 20, paths=20_000, seed=7).value == 19262 / 20_000
    assert simulate_hitting(cliques, 0, [13], 15, paths=20_000, seed=7).value == 16531 / 20_000
    masks = [np.arange(12) == 6, np.arange(12) == 11]
    times = sbd._staged_times(path, 0, masks, paths=20_000, seed=5, t_cap=10 ** 6)
    assert times.sum(axis=0).tolist() == [439860, 838282]
    assert int((times ** 2).sum()) == 52181216
    assert int((times[:, 0] * times[:, 1]).sum()) == 20781866


def test_uniform_blocks_are_bounded_by_the_horizon(monkeypatch):
    # a block of uniforms holds at most 2^20 doubles, so a long horizon
    # never asks for 1,000 x 100,000 doubles at once; chunking never
    # changes the sample
    import cutofflab.oracle as oracle
    from cutofflab.families import biased_path

    real = oracle.uniform_block

    def capped(seed, offset, shape):
        if np.prod(shape) > 1 << 20:
            raise MemoryError(f"block {shape} above the cap")
        return real(seed, offset, shape)

    monkeypatch.setattr(oracle, "uniform_block", capped)
    chain = biased_path(10)
    wide = simulate_hitting(chain, 0, [5], 100_000, paths=1_000, seed=3)
    monkeypatch.setattr(oracle, "_CHUNK_PATHS", 300)
    narrow = simulate_hitting(chain, 0, [5], 100_000, paths=1_000, seed=3)
    assert wide.value == narrow.value


def test_long_horizon_sample_is_pinned(monkeypatch):
    # recorded when walks past 64 steps moved to rounds of 64 uniforms per
    # path: any change to that layout changes this, and chunks of 3,000
    # paths (a chunk boundary inside every round) read the same sample
    import cutofflab.oracle as oracle
    from cutofflab.families import biased_path

    path = biased_path(12)
    assert simulate_hitting(path, 0, [11], 100, paths=20_000, seed=7).value == 116 / 20_000
    monkeypatch.setattr(oracle, "_CHUNK_PATHS", 3_000)
    assert simulate_hitting(path, 0, [11], 100, paths=20_000, seed=7).value == 116 / 20_000


def test_absorbed_chunks_draw_no_further_rounds(monkeypatch):
    # every path of biased_path(10) reaches state 5 within two rounds of 64
    # steps, so the 100,000-step horizon draws 2 x 1,000 x 64 doubles
    import cutofflab.oracle as oracle
    from cutofflab.families import biased_path

    real = oracle.uniform_block
    drawn = []

    def counting(seed, offset, shape):
        drawn.append(int(np.prod(shape)))
        return real(seed, offset, shape)

    monkeypatch.setattr(oracle, "uniform_block", counting)
    est = simulate_hitting(biased_path(10), 0, [5], 100_000, paths=1_000, seed=3)
    assert est.value == 0.0
    assert drawn == [1_000 * 64] * 2
