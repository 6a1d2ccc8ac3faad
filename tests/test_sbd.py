import numpy as np
import pytest

from cutofflab import (
    biased_path,
    blocks,
    central_block_hit,
    classify_sbd,
    comparable_start_bound,
    plateau_chain,
)
from cutofflab import oracle
from cutofflab.families import random_reversible, two_cliques
from cutofflab.hitting import hitting_tail
from cutofflab.oracle import _round_block, _step_states, _step_table
from cutofflab.sbd import _staged_times, block_correlation_mc


def test_biased_path_classification():
    cls = classify_sbd(biased_path(12))
    assert cls.is_sbd
    assert cls.r == 1
    assert cls.delta == pytest.approx(0.125, abs=1e-12)
    assert cls.alpha == pytest.approx(35.0 / 36.0, abs=1e-12)


def test_k2_is_banded(k2):
    cls = classify_sbd(k2)
    assert cls.is_sbd
    assert cls.r == 1
    assert cls.delta == pytest.approx(0.25, abs=1e-12)


def test_plateau_chain_is_not_banded():
    cls = classify_sbd(plateau_chain(8))
    assert not cls.is_sbd
    assert cls.reasons


def test_blocks_structure():
    chain = biased_path(10)
    cls = classify_sbd(chain)
    dec = blocks(chain, cls.r, cls.delta)
    assert dec.n_blocks == 10
    assert dec.central_mass <= dec.central_mass_bound + 1e-12
    # blocks tile the state line in order
    flat = np.concatenate(dec.blocks)
    assert np.array_equal(flat, np.arange(10))
    # parents step toward the central block
    j = 0
    hops = 0
    while j != dec.central_block:
        j = dec.parent(j)
        hops += 1
        assert hops <= dec.n_blocks


def test_blocks_rejects_degenerate_width():
    chain = biased_path(6)
    delta = classify_sbd(chain).delta
    with pytest.raises(ValueError):
        blocks(chain, 6, delta)
    with pytest.raises(ValueError):
        blocks(chain, 0, delta)
    for bad in (float("nan"), -0.1, 0.5):  # the floor is 0.125
        with pytest.raises(ValueError, match=r"must lie in \[0, 0.125\]"):
            blocks(chain, 2, bad)


def test_comparable_starts_against_direct_solves():
    # oracle: within a width-r interval, mean hitting times of a set on
    # one side differ by at most delta^{-r} — checked by explicit solves
    chain = biased_path(9)
    cls = classify_sbd(chain)
    interval = (3, 3 + cls.r - 1)
    target = [0]
    means = [hitting_tail(chain, x, target, t_max=4).mean
             for x in range(interval[0], interval[1] + 1)]
    assert max(means) <= (cls.delta ** -cls.r) * min(means) + 1e-9
    for rec in comparable_start_bound(chain, interval, target, cls.r, cls.delta):
        assert rec.passed, rec


def test_central_block_hit_matches_solve_oracle():
    chain = biased_path(11)
    cls = classify_sbd(chain)
    dec = blocks(chain, cls.r, cls.delta)
    cbh = central_block_hit(chain, dec)
    members = dec.blocks[dec.central_block]
    prof = hitting_tail(chain, cbh.x, list(members), t_max=8)
    assert cbh.mean == pytest.approx(prof.mean, rel=1e-9)
    assert cbh.variance == pytest.approx(prof.variance, rel=1e-9)
    for rec in cbh.records:
        assert rec.kind in ("report", "skip") or rec.passed, rec


def test_central_block_tau_profile_is_quantile():
    chain = biased_path(10)
    cls = classify_sbd(chain)
    dec = blocks(chain, cls.r, cls.delta)
    cbh = central_block_hit(chain, dec)
    members = list(dec.blocks[dec.central_block])
    for eps, t in cbh.tau_profile.items():
        worst_t = max(hitting_tail(chain, x, members, t_max=t).tail[t]
                      for x in range(chain.n))
        assert worst_t <= eps + 1e-12
        if t > 0:
            prev = max(hitting_tail(chain, x, members, t_max=t - 1).tail[t - 1]
                       for x in range(chain.n))
            assert prev > eps - 1e-12


def test_central_block_quantiles_read_levels_like_tau_root():
    # the first-passage scan counts a tail within 1e-12 above eps as
    # reached, as tau_root and the mixing scans do
    chain = biased_path(10)
    cls = classify_sbd(chain)
    dec = blocks(chain, cls.r, cls.delta)
    x = central_block_hit(chain, dec).x
    tail = hitting_tail(chain, x, list(dec.blocks[dec.central_block]), t_max=400).tail
    t = int(np.argmax(tail < 0.5))
    assert tail[t - 1] >= 0.5 > tail[t]
    eps = float(tail[t]) - 1e-13
    assert central_block_hit(chain, dec, x=x, eps_grid=(eps,)).tau_profile[eps] == t


def test_block_correlation_bound_holds():
    chain = biased_path(12)
    cls = classify_sbd(chain)
    dec = blocks(chain, cls.r, cls.delta)
    path = dec.path_to_central(0)
    mc = block_correlation_mc(chain, dec, 0, path[0], path[3],
                              paths=12_000, seed=99)
    assert mc.record.passed, mc.record
    assert mc.estimate.standard_error > 0
    assert mc.gap == 2


@pytest.mark.parametrize("paths", [1, 0, -3])
def test_block_correlation_needs_two_paths(paths, recwarn):
    chain = biased_path(9)
    cls = classify_sbd(chain)
    dec = blocks(chain, cls.r, cls.delta)
    with pytest.raises(ValueError, match="paths must be at least 2"):
        block_correlation_mc(chain, dec, 0, 0, 1, paths=paths, seed=1)
    assert len(recwarn) == 0


def test_block_correlation_requires_path_order():
    chain = biased_path(12)
    cls = classify_sbd(chain)
    dec = blocks(chain, cls.r, cls.delta)
    path = dec.path_to_central(0)
    with pytest.raises(ValueError):
        block_correlation_mc(chain, dec, 0, path[3], path[0],
                             paths=10_000, seed=1)


def test_staged_times_stop_at_the_step_cap():
    # the cap holds per step, not per round of 64 steps: from 0 most walks
    # need more than 5 steps to reach 3
    with pytest.raises(RuntimeError, match="simulation cap of 5 steps reached"):
        _staged_times(biased_path(4), 0, [np.arange(4) == 3], paths=1000, seed=1, t_cap=5)
    # a cap the walks stay within leaves the sample alone; one step less raises
    stages = [np.arange(6) == 2, np.arange(6) == 5]
    times = _staged_times(biased_path(6), 0, stages, paths=300, seed=4, t_cap=10 ** 6)
    last = int(times.max())
    assert np.array_equal(
        _staged_times(biased_path(6), 0, stages, paths=300, seed=4, t_cap=last), times)
    with pytest.raises(RuntimeError, match=f"simulation cap of {last - 1} steps reached"):
        _staged_times(biased_path(6), 0, stages, paths=300, seed=4, t_cap=last - 1)


def _staged_times_reference(chain, x, stage_masks, paths, seed, t_cap):
    # the staged walk as it stood before it went through oracle._walk: each
    # chunk of 16,384 paths steps its unfinished paths in place, masked,
    # round after round of 64 uniforms, until every path has passed its
    # last stage
    n_stages = len(stage_masks)
    table = _step_table(chain)
    out = np.empty((paths, n_stages), dtype=np.int64)

    def settle(states, ptr, times, t, sel_pool):
        moved = True
        while moved:
            moved = False
            for s in range(n_stages):
                sel = sel_pool & (ptr == s) & stage_masks[s][states]
                if sel.any():
                    times[sel, s] = t
                    ptr[sel] += 1
                    moved = True

    for lo in range(0, paths, 16_384):
        hi = min(lo + 16_384, paths)
        m = hi - lo
        states = np.full(m, x, dtype=int)
        ptr = np.zeros(m, dtype=np.int64)
        times = np.zeros((m, n_stages), dtype=np.int64)
        settle(states, ptr, times, 0, np.ones(m, dtype=bool))
        t = 0
        rnd = 0
        while (ptr < n_stages).any():
            u = _round_block(seed, paths, lo, hi, rnd, 64)
            for h in range(64):
                active = ptr < n_stages
                if not active.any():
                    break
                if t >= t_cap:
                    raise RuntimeError(f"simulation cap of {t_cap} steps reached")
                idx = np.nonzero(active)[0]
                states[idx] = _step_states(states[idx], u[idx, h], table)
                t += 1
                settle(states, ptr, times, t, active)
            rnd += 1
        out[lo:hi] = times
    return out


def _masks(n, *sets):
    return [np.isin(np.arange(n), s) for s in sets]


@pytest.mark.parametrize("chain, x, stages, paths, seed", [
    # the pinned walk of test_oracle.py::test_monte_carlo_outputs_are_pinned
    (biased_path(12), 0, _masks(12, [6], [11]), 20_000, 5),
    # two equal stages, and a first stage holding the start (fires at t = 0)
    (biased_path(12), 0, _masks(12, [6], [6], [11]), 3_000, 2),
    (biased_path(8), 3, _masks(8, [3], [4, 5], [7]), 2_000, 0),
    # multi-state stages on chains without a band, and two chunks
    (two_cliques(6), 0, _masks(14, [5, 6], [13], [0, 1]), 17_000, 9),
    (random_reversible(10, density=0.4, seed=3), 0, _masks(10, [4, 7], [9], [2]), 1_500, 11),
], ids=["pinned", "equal-stages", "start-stage", "two-cliques", "random"])
def test_staged_times_match_the_masked_reference(chain, x, stages, paths, seed):
    expected = _staged_times_reference(chain, x, stages, paths, seed, 10 ** 6)
    assert np.array_equal(_staged_times(chain, x, stages, paths, seed, 10 ** 6), expected)


def test_staged_times_do_not_depend_on_the_chunk_size(monkeypatch):
    # as test_oracle.py::test_long_horizon_sample_is_pinned checks for
    # simulate: 3,000-path chunks put a chunk boundary inside every round
    path, stages = biased_path(12), _masks(12, [6], [11])
    whole = _staged_times(path, 0, stages, paths=20_000, seed=5, t_cap=10 ** 6)
    monkeypatch.setattr(oracle, "_CHUNK_PATHS", 3_000)
    assert np.array_equal(_staged_times(path, 0, stages, paths=20_000, seed=5, t_cap=10 ** 6),
                          whole)


def test_equal_stages_fire_on_the_same_step():
    path = biased_path(12)
    once = _staged_times(path, 0, _masks(12, [6], [11]), paths=5_000, seed=3, t_cap=10 ** 6)
    twice = _staged_times(path, 0, _masks(12, [6], [6], [11], [11]), paths=5_000, seed=3,
                          t_cap=10 ** 6)
    assert np.array_equal(twice, once[:, [0, 0, 1, 1]])
