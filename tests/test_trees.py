import math

import numpy as np
import pytest

from cutofflab import (
    TreeSpec,
    build_tree_chain,
    crossing_time,
    path_variance,
    random_tree,
    tail_bound_check,
    tau_root,
    tau_sandwich_check,
    tree_from_chain,
    tree_from_json,
    tree_to_json,
)
from cutofflab import trees
from cutofflab.chain import ChainSpec, chain_to_json, load_chain
from cutofflab.cli import main
from cutofflab.families import biased_path
from cutofflab.hitting import KilledSystem, hit_time, hitting_tail
from cutofflab.mixing import mixing_time
from cutofflab.trees import window_rows
from cutofflab.verify import run_suites


def _p3_tree(p3):
    return tree_from_chain(p3)


def test_p3_reconstruction(p3):
    tc = _p3_tree(p3)
    assert tc.n == 3
    assert tc.root == 1  # central vertex of the 3-path
    assert tc.chain is p3


def test_p3_crossing_is_geometric(p3):
    # from an endpoint the step to the center succeeds w.p. 1/2 each turn:
    # E[T] = 2, E[T^2] = (2 - p)/p^2 = 6, Var = 2.
    tc = _p3_tree(p3)
    ct = crossing_time(tc, 0)
    assert ct.mean == pytest.approx(2.0, abs=1e-12)
    assert ct.second_moment == pytest.approx(6.0, abs=1e-12)
    assert ct.variance == pytest.approx(2.0, abs=1e-12)


def test_crossing_formula_matches_direct_solve():
    # independent oracle: absorb at the parent and solve the linear system
    spec = random_tree(24, seed=91)
    tc = build_tree_chain(spec)
    for u in (0, 5, 17):
        if u == tc.root:
            continue
        ct = crossing_time(tc, u)
        parent = int(tc.parent[u])
        prof = hitting_tail(tc.chain, u, [parent], t_max=8)
        assert ct.mean == pytest.approx(prof.mean, rel=1e-9)
        assert ct.second_moment == pytest.approx(prof.second_moment, rel=1e-9)


def test_crossing_second_moment_bound(p3):
    tc = _p3_tree(p3)
    ct = crossing_time(tc, 0)
    assert ct.second_moment <= 4.0 * ct.mean * tc.t_rel + 1e-9


def test_crossing_rejects_root(p3):
    tc = _p3_tree(p3)
    with pytest.raises(ValueError):
        crossing_time(tc, tc.root)


def test_tree_from_chain_rejects_non_tree(small_corpus):
    dense = next(c for c in small_corpus if c.n >= 5)
    with pytest.raises(ValueError):
        tree_from_chain(dense)


@pytest.mark.parametrize("n, seed", [(2, 0), (9, 1), (40, 2), (120, 3)])
def test_tree_from_chain_roots_the_chain_it_is_given(n, seed):
    tc = build_tree_chain(random_tree(n, seed=seed))
    assert tree_from_chain(tc.chain).chain is tc.chain
    # state x relabelled perm[x]: the rooting follows the labels
    perm = np.random.default_rng(seed).permutation(n)
    inv = np.argsort(perm)
    chain = load_chain(ChainSpec(P=tc.chain.P[np.ix_(inv, inv)], pi=tc.pi[inv]))
    rc = tree_from_chain(chain)
    assert rc.chain is chain
    assert rc.root == perm[tc.root]
    assert np.array_equal(rc.parent[perm], np.where(tc.parent < 0, -1, perm[tc.parent]))
    assert np.array_equal(rc.depth[perm], tc.depth)
    assert np.allclose(rc.subtree_mass[perm], tc.subtree_mass, rtol=1e-13, atol=0.0)
    assert np.array_equal(rc.mu[perm], tc.mu)
    assert [sorted(inv[rc.children[perm[v]]]) for v in range(n)] == [
        sorted(tc.children[v]) for v in range(n)]


@pytest.mark.parametrize("make", [lambda: biased_path(20),
                                  lambda: build_tree_chain(random_tree(30, seed=5)).chain],
                         ids=["biased-path-20", "random-tree-30"])
def test_tree_suites_share_the_chain_spectrum_and_killed_systems(monkeypatch, make):
    # the suites root the run's chain: no second eigh of P, and the
    # single-target systems they build stay on the caller's chain
    chain, shapes = make(), []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    reports = run_suites(chain, ["tree-window", "crossing-tails"])
    assert all(r.passed for r in reports)
    assert shapes == [(chain.n, chain.n)]
    targets = {tuple(np.flatnonzero(np.frombuffer(key, dtype=bool))) for key in chain.killed}
    ancestors = {(r.params["y"],) for rep in reports for r in rep.records if "y" in r.params}
    assert ancestors and ancestors <= targets


def test_path_variance_bound():
    spec = random_tree(40, seed=7)
    tc = build_tree_chain(spec)
    for x in (0, 11, 39):
        if x == tc.root:
            continue
        pv = path_variance(tc, x)
        assert pv.variance <= 4.0 * pv.mean * tc.t_rel + 1e-9
        for rec in pv.tail_records:
            assert rec.passed, rec


def _numpy_scalars(value):
    if isinstance(value, np.generic):
        yield value
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _numpy_scalars(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _numpy_scalars(v)


@pytest.mark.parametrize("make", [lambda: biased_path(20),
                                  lambda: build_tree_chain(random_tree(30, seed=2)).chain],
                         ids=["biased-path-20", "random-tree-30"])
def test_record_params_hold_no_numpy_scalars(make):
    # path_variance's Chebyshev thresholds came out as np.float64, which
    # verify printed as "'threshold': np.float64(43.08...)"
    found = {(report.suite, rec.inequality, key)
             for report in run_suites(make(), ["all"])
             for rec in report.records
             for key, value in rec.params.items()
             if any(True for _ in _numpy_scalars(value))}
    assert found == set()


def test_a_failing_chebyshev_tail_is_a_fail_row(monkeypatch, tmp_path):
    # an upper tail that reads 1.0 breaks the one-sided Chebyshev rows: the
    # suite records them as failures and verify exits 2 with no traceback
    tails = trees._two_sided_tails
    monkeypatch.setattr(trees, "_two_sided_tails", lambda *args: (1.0, tails(*args)[1]))
    chain = biased_path(8)
    (report,) = run_suites(chain, ["tree-window"])
    assert {r.inequality for r in report.failures} == {"one-sided-upper-tail"}
    path = tmp_path / "chain.json"
    chain_to_json(chain, str(path))
    assert main(["verify", "--chain", str(path), "--suite", "tree-window"]) == 2


def test_tau_root_matches_worst_tail():
    spec = random_tree(16, seed=3)
    tc = build_tree_chain(spec)
    for eps in (0.25, 0.1):
        t = tau_root(tc, eps)
        tails = np.array([hitting_tail(tc.chain, x, [tc.root], t_max=t).tail
                          for x in range(tc.n) if x != tc.root])
        assert tails[:, t].max() <= eps + 1e-12
        if t > 0:
            assert tails[:, t - 1].max() > eps - 1e-12


def test_tau_sandwich_records_pass():
    spec = random_tree(12, seed=12)
    tc = build_tree_chain(spec)
    for rec in tau_sandwich_check(tc, 0.25, lambda e: hit_time(tc.chain, 0.5, e).value):
        assert rec.passed, rec


def test_window_check_passes_on_random_trees():
    for seed in (1, 2, 8):
        tc = build_tree_chain(random_tree(20, seed=seed))
        recs = window_rows(tc, tc.t_rel, lambda e: mixing_time(tc.chain, e),
                           (1 / 16, 1 / 4, 0.3))
        assert [r.inequality for r in recs if r.kind != "skip"] == [
            "root-mean-below-4tmix"] + 2 * ["mixing-window-sqrt",
                                            "tau-lower-concentration",
                                            "tau-upper-concentration"]
        assert [r.params for r in recs if r.kind == "skip"] == [{"eps": 0.3}]
        for rec in recs:
            assert rec.passed, rec


def test_tree_suites_build_each_system_and_scan_each_tail_once(monkeypatch):
    tc = build_tree_chain(random_tree(40, seed=7))
    built, scans = [], []
    setup, survival = KilledSystem._setup, KilledSystem.survival

    def counting_setup(self, chain, A, B):
        built.append((A.shape, A.tobytes()))
        setup(self, chain, A, B)

    def counting_survival(self):
        scans.append(tuple(self.A))
        return survival(self)

    monkeypatch.setattr(KilledSystem, "_setup", counting_setup)
    monkeypatch.setattr(KilledSystem, "survival", counting_survival)
    reports = run_suites(tc.chain, ["tree-window", "crossing-tails"])
    assert all(r.passed for r in reports)
    assert len(built) == len(set(built))
    # one tail sequence per (start, ancestor) pair the tail records read,
    # plus the root's max-tail that every tau_root level reads
    pairs = {(r.params["x"], r.params["y"]) for rep in reports for r in rep.records
             if "y" in r.params}
    assert sorted(scans) == sorted([(y,) for _, y in pairs] + [(tc.root,)])


def test_tail_bound_records_pass():
    tc = build_tree_chain(random_tree(36, seed=44))
    leaf_like = [v for v in range(tc.n)
                 if v != tc.root and len(tc.path_to_root(v)) >= 3]
    x = leaf_like[0]
    recs = tail_bound_check(tc, x, c_grid=(0.5, 1.0, 1.5, 2.0))
    assert any(r.kind != "skip" for r in recs)
    for rec in recs:
        assert rec.kind == "skip" or rec.passed, rec


def test_tail_bound_rejects_nonpositive_c():
    tc = build_tree_chain(random_tree(36, seed=44))
    x = max(range(tc.n), key=lambda v: len(tc.path_to_root(v)))
    for c in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c must be positive and finite"):
            tail_bound_check(tc, x, c_grid=(0.5, c))


def test_root_start_has_no_proper_ancestor():
    tc = build_tree_chain(random_tree(8, seed=1))
    message = f"x = {tc.root} is the root and has no proper ancestor"
    with pytest.raises(ValueError, match=message):
        tail_bound_check(tc, tc.root)
    with pytest.raises(ValueError, match=message):
        path_variance(tc, tc.root)


def test_tail_bound_rejects_non_ancestor():
    tc = build_tree_chain(random_tree(12, seed=9))
    children = [v for v in range(tc.n)
                if v != tc.root and int(tc.parent[v]) == tc.root]
    if len(children) >= 2:
        with pytest.raises(ValueError):
            tail_bound_check(tc, children[0], children[1])


def test_tree_json_round_trip(tmp_path):
    spec = random_tree(15, seed=5)
    p1 = tmp_path / "t1.json"
    p2 = tmp_path / "t2.json"
    tree_to_json(spec, str(p1))
    loaded = tree_from_json(str(p1))
    tree_to_json(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    a = build_tree_chain(spec)
    b = build_tree_chain(loaded)
    assert np.array_equal(a.chain.P, b.chain.P)


def test_tree_spec_validation():
    with pytest.raises(ValueError):
        TreeSpec(n=3, edges=[(0, 1, 1.0)], holding=[0.6, 0.6, 0.6]).validate()
    with pytest.raises(ValueError):
        TreeSpec(n=3, edges=[(0, 1, 1.0), (0, 1, 2.0)],
                 holding=[0.6, 0.6, 0.6]).validate()
