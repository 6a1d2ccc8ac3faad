"""The set-sweeping suites against their former per-record loops.

escape, killed-spectrum, good-set and return-time build each inequality as
one columnar block.  The reference functions below are the loops they
replaced: one ``check_le``/``check_identity`` call per record, over Python
floats.  Both routes must give the same records, with every lhs, rhs and
margin equal to 1e-12 relative to max(1, |x|).
"""

import math
from collections import defaultdict
from itertools import islice

import numpy as np
import pytest

from cutofflab import biased_path, cli, load_chain, random_reversible, run_suite, run_suites
from cutofflab.hitting import KilledSystem, _survival
from cutofflab.reporting import Record, Report, check_identity, check_le, skip
from cutofflab.verify import (
    DEVIATION_GRID,
    SUITES,
    TAIL_T_GRID,
    WORK_GRID,
    _ceil,
    _Ctx,
    _str_order,
)


def _per_set(stacks, count: int, fn) -> list[list]:
    cols = None
    for idx, ks in stacks:
        vals = [np.asarray(v) for v in fn(ks)]
        if cols is None:
            cols = [np.empty((count,) + v.shape[1:]) for v in vals]
        for col, v in zip(cols, vals):
            col[idx] = v
    return [col.tolist() for col in cols]


def _by_inequality(by: dict[str, list[Record]]) -> list[Record]:
    return [r for name in sorted(by) for r in by[name]]


def _escape(ctx):
    t_rel = ctx.t_rel
    pi = ctx.chain.pi
    sets = ctx.targets(ctx.sets).members
    works = WORK_GRID
    alphas = (0.25, 0.5)

    def per_stack(ks: KilledSystem):
        slow = []
        for w in works:
            t_w = np.array([_ceil(t_rel * w / pa) for pa in ks.pi_A.tolist()], dtype=float)
            rows = ks.tail_rows(t_w)
            slow.append([[p[s].sum() for p, s in zip(pi[ks.B], rows >= alpha)]
                         for alpha in alphas])
        return (ks.pi_A, ks.pi_B, ks.tail_stationary(TAIL_T_GRID),
                ks.mean_stationary(), np.moveaxis(np.array(slow), -1, 0))

    pa, pb, tails, means, slow = _per_set(ctx.stack, len(sets), per_stack)
    t_order = _str_order(TAIL_T_GRID)
    slow_order = [(a, alpha, i, w) for a, alpha in _str_order(alphas)
                  for i, w in _str_order(works)]
    by = defaultdict(list)
    for j, members in enumerate(sets):
        base = 1.0 - pa[j] / t_rel
        for i, t in t_order:
            p = {"A": members, "t": t}
            by["stationary-escape-tail"].append(check_le(
                "stationary-escape-tail", pb[j] * tails[j][i], pb[j] * base ** t, p))
            if base >= 0.0:
                by["escape-tail-exponential"].append(check_le(
                    "escape-tail-exponential", pb[j] * base ** t,
                    pb[j] * math.exp(-t * pa[j] / t_rel), p))
            else:
                by["escape-tail-exponential"].append(skip(
                    "escape-tail-exponential",
                    "geometric base is negative (t_rel < pi(A))", p))
        by["stationary-mean-hitting"].append(check_le(
            "stationary-mean-hitting", pa[j] * pb[j] * means[j],
            t_rel * pb[j], {"A": members}))
        for a, alpha, i, w in slow_order:
            by["slow-start-measure"].append(check_le(
                "slow-start-measure", slow[j][i][a],
                pb[j] * math.exp(-w) / alpha,
                {"A": members, "w": w, "alpha": alpha}))
    return _by_inequality(by)


def _killed_spectrum(ctx):
    t_rel = ctx.t_rel
    pi = ctx.chain.pi
    targets = ctx.targets(ctx.sets)
    sets = targets.members
    marks = (1, 5, 20)

    def per_stack(ks: KilledSystem):
        return (ks.pi_A, ks.pi_B, ks.weights.min(axis=-1), ks.weights.sum(axis=-1),
                ks.gammas[:, 0], ks.gammas[:, -1], ks.tail_stationary(marks))

    pa, pb, w_min, w_sum, g_top, g_bottom, recon = _per_set(
        ctx.stack, len(sets), per_stack)
    # the direct tails step every target at once, as the suite does
    keep = ~targets.masks.T
    steps = list(islice(_survival(ctx.chain.P, keep), marks[-1] + 1))
    at = [(pi @ steps[t]).tolist() for t in marks]
    direct = [[at[i][j] / pb[j] for i in range(len(marks))] for j in range(len(sets))]
    mark_order = _str_order(marks)
    by = defaultdict(list)
    for j, members in enumerate(sets):
        p = {"A": members}
        by["killed-weights-nonnegative"].append(check_le(
            "killed-weights-nonnegative", 0.0, w_min[j], p))
        by["killed-weights-normalized"].append(check_identity(
            "killed-weights-normalized", w_sum[j], 1.0, p))
        by["killed-spectrum-ceiling"].append(check_le(
            "killed-spectrum-ceiling", g_top[j], 1.0 - pa[j] / t_rel, p))
        by["killed-spectrum-symmetric-floor"].append(check_le(
            "killed-spectrum-symmetric-floor", -g_top[j], g_bottom[j], p))
        for i, t in mark_order:
            by["killed-tail-reconstruction"].append(check_identity(
                "killed-tail-reconstruction", recon[j][i], direct[j][i],
                {"A": members, "t": t}))
    return _by_inequality(by)


def _good_set(ctx):
    if not ctx.lazy:
        return [skip("good-set", "requires a lazy chain")]
    records = []
    t_rel, pi = ctx.t_rel, ctx.chain.pi
    F = ctx.spectrum.eigenfunctions
    lam = ctx.spectrum.eigenvalues
    targets = ctx.targets(ctx.sets)
    ind = targets.masks.astype(float)
    pa = ind @ pi
    rho = np.sqrt(pa * (1.0 - pa))
    m_grid = DEVIATION_GRID
    s_grid = sorted({0, _ceil(t_rel), _ceil(3.0 * t_rel)})
    log_ratio = -math.log(min(m_grid)) - 0.5 * math.log(ctx.min_pi)
    extra = _ceil(t_rel * log_ratio) if log_ratio > 0.0 else 0
    K = max(s_grid) + extra + 1
    C = F.T @ (pi[:, None] * ind.T)
    running = np.zeros((ctx.chain.n, ind.shape[0]))
    snapshots = {}
    want = set(s_grid)
    for k in range(K, -1, -1):
        dev = np.abs((F * lam ** k) @ C - pa[None, :])
        np.maximum(running, dev, out=running)
        if k in want:
            snapshots[k] = running.copy()
    measures = {}
    for s in s_grid:
        worst = snapshots[s]
        decay = math.exp(-s / t_rel)
        for m in m_grid:
            member = (worst < m * decay * rho[None, :]).astype(float)
            measures[s, m] = (pi @ member).tolist()
    grid_order = [(m, s) for _, m in _str_order(m_grid) for _, s in _str_order(s_grid)]
    for j, members in enumerate(targets.members):
        for m, s in grid_order:
            records.append(check_le(
                "good-set-measure", 1.0 - 8.0 / m ** 2, measures[s, m][j],
                {"A": members, "s": s, "m": m}))
    return records


def _return_time(ctx):
    t_rel = ctx.t_rel
    sets = ctx.targets(ctx.sets).members
    t_marks = (1, 2, 5, 10)
    stat_ts = sorted({t - 1 for t in t_marks} | set(t_marks))

    def per_stack(ks: KilledSystem):
        kq = ks.kac()
        psi_B = np.take_along_axis(kq.psi, ks.B, axis=-1)
        return (kq.flow_AB, kq.flow_BA, kq.phi_B, kq.mean_from_psi,
                kq.second_from_psi, kq.mean_from_pi_B, ks.pi_A,
                ks.tail_stationary(stat_ts),
                ks.tail_dist(psi_B, [t - 1 for t in t_marks]))

    (flow_out, flow_in, phi_B, mean_psi, second_psi, mean_pi_B, pa, stat,
     entry) = _per_set(ctx.stack, len(sets), per_stack)
    mark_order = _str_order(t_marks)
    by = defaultdict(list)
    for j, members in enumerate(sets):
        p = {"A": members}
        by["interface-flow-symmetry"].append(check_identity(
            "interface-flow-symmetry", flow_out[j], flow_in[j], p))
        by["return-mean-identity"].append(check_identity(
            "return-mean-identity", mean_psi[j], 1.0 / phi_B[j], p))
        by["return-second-moment-identity"].append(check_identity(
            "return-second-moment-identity", second_psi[j],
            mean_psi[j] * (2.0 * mean_pi_B[j] - 1.0), p))
        by["return-second-moment-bound"].append(check_le(
            "return-second-moment-bound", second_psi[j],
            2.0 * mean_psi[j] * t_rel / pa[j], p))
        stat_at = dict(zip(stat_ts, stat[j]))
        for i, t in mark_order:
            by["return-law-identity"].append(check_identity(
                "return-law-identity",
                (stat_at[t - 1] - stat_at[t]) / phi_B[j], entry[j][i],
                {"A": members, "t": t}))
    return _by_inequality(by)


REFERENCE = {"escape": _escape, "killed-spectrum": _killed_spectrum,
             "good-set": _good_set, "return-time": _return_time}


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def _assert_same(got: list[Record], want: list[Record]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.inequality == b.inequality
        # repr tells Python ints and floats from numpy scalars, in tuples too
        assert repr(a.params) == repr(b.params), a.inequality
        assert [type(v) for v in a.params.values()] == [type(v) for v in b.params.values()]
        assert all(_close(getattr(a, f), getattr(b, f)) for f in ("lhs", "rhs", "margin")), (a, b)
        assert (a.kind, a.passed, a.note) == (b.kind, b.passed, b.note)
        assert type(a.lhs) is type(a.rhs) is type(a.margin) is float
        assert type(a.passed) is bool


def _complete_graph(n: int):
    """The non-lazy walk on K_n: t_rel = (n - 1) / n, so 1 - pi(A) / t_rel
    is zero or one rounding below it for the largest sets."""
    return load_chain((np.ones((n, n)) - np.eye(n)) / (n - 1))


def _check(ctx: _Ctx, params: dict) -> int:
    skips = 0
    for sid, reference in REFERENCE.items():
        want = reference(ctx)
        got = Report(sid, "fp", params=params, blocks=SUITES[sid](ctx)).records
        _assert_same(got, want)
        skips += sum(r.kind == "skip" for r in got)
    return skips


@pytest.mark.parametrize("chain_id", ["k2", "p3", "k4", "k3", "k6", "random7", "random9"])
@pytest.mark.parametrize("mode", ["sampled", "all"])
def test_sweeping_suites_match_per_record_reference(chain_id, mode, request):
    chain = {"k2": lambda: request.getfixturevalue("k2"),
             "p3": lambda: request.getfixturevalue("p3"),
             "k3": lambda: _complete_graph(3),
             "k4": lambda: _complete_graph(4),
             "k6": lambda: _complete_graph(6),
             "random7": lambda: random_reversible(7, seed=1729),
             "random9": lambda: random_reversible(9, seed=1729)}[chain_id]()
    params = {"sets": mode}
    _check(_Ctx(chain, params), params)


def test_escape_skip_rows_match_reference():
    # a relaxation time forced below pi(A) makes the geometric base negative
    # on the larger sets, so escape interleaves skip rows
    params = {"sets": "all"}
    ctx = _Ctx(random_reversible(6, seed=3), params)
    ctx.t_rel = 0.3
    assert _check(ctx, params) > 0


@pytest.mark.parametrize("mode", ["sampled", "all"])
def test_identity_suites_walk_each_stack_once(mode, monkeypatch):
    # one run of the four identity suites takes one eigensystem per stack
    # (plus the chain's spectrum) and solves I - P_B twice per stack
    chain = random_reversible(9, seed=5)
    calls = []

    def counting(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("eigh", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    reports = run_suites(chain, ["escape", "killed-spectrum", "return-time", "good-set"],
                         {"sets": mode})
    monkeypatch.undo()
    assert all(r.passed for r in reports)
    stacks = len(_Ctx(chain, {"sets": mode}).stack)
    assert stacks == (8 if mode == "all" else 5)
    assert calls.count("eigh") == stacks + 1
    assert calls.count("solve") == 2 * stacks


def test_zero_mass_target_still_raises_zero_division(tmp_path):
    # pi(A) = 1 - pi(B) rounds to 0 on biased_path(50); escape divides by
    # it, killed-spectrum still passes on the same stacks, and
    # return-time's solve is singular
    chain = biased_path(50)
    with pytest.raises(ZeroDivisionError):
        run_suite(chain, "escape")
    killed = run_suite(chain, "killed-spectrum")
    assert killed.passed and killed.counts()["identity"] + killed.counts()["inequality"] == 77
    with pytest.raises(np.linalg.LinAlgError):
        run_suite(chain, "return-time")
    with pytest.raises(ZeroDivisionError):
        run_suites(chain, ["killed-spectrum", "escape"])
    chain = tmp_path / "chain.json"
    assert cli.main(["gen", "--family", "biased-path", "--n", "50", "-o", str(chain)]) == 0
    with pytest.raises(ZeroDivisionError):
        cli.main(["verify", "--chain", str(chain), "--suite", "all",
                  "-o", str(tmp_path / "report.json")])
