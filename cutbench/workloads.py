"""Seeded workloads of the cutofflab benchmark.

A workload is a fixed list of ops built from ``--seed``.  An op is one
``run_suites`` call on one chain, one ``cutoff_scan``, or one in-process
``cutofflab.cli.main`` invocation.  ``Op.call`` is the timed part; its
``finish`` step runs afterwards, untimed: it decides whether the op failed,
counts the checks it certified, emits digest lines, and (in the check
sweep) compares the output with independent references from ``refs``.

Sizes are fixed by the workload and only the contents of the inputs come
from the seed, so the amount of work barely moves between seeds.

``LEDGER`` lists the ops that fail at the commit that added this benchmark, and
how they fail.  They stay in the workloads: a failing op that is not in the
ledger, or that fails another way, makes the run incorrect; a ledgered op
that starts to pass is reported, not punished.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import cutofflab as cl
from cutofflab import cli as cl_cli
from cutofflab.trees import TreeSpec

import refs

IDENTITY_SUITES = ("escape", "good-set", "killed-spectrum", "return-time")
GRID_SUITES = ("hit-levels", "martingale-tail", "maximal-function", "relaxation",
               "set-probability", "submultiplicativity", "tv-hit", "continuous-time")
EPS_GRID = (1 / 16, 1 / 8, 1 / 4)
GRID_PARAMS = {"eps_grid": EPS_GRID, "alpha_grid": (1 / 4, 1 / 2, 3 / 4),
               "p_grid": (1.5, 2.0, 3.0), "functions": 20}
SCAN_EPS = (0.1, 0.25)
SIM_PATHS = 20_000
SIM_T = 8
BASE_SEED = 1729        # corpus seed of the acceptance gate
JITTER = 0.01

# label -> how the op fails at the seed commit ("raises:<exception>",
# "records:<failing inequalities>" or "exit:<code>").
LEDGER = {
    "family-scale": {
        # singular solve in hitting._absorption_moments, reached through
        # sbd.comparable_start_bound and sbd._crossing_moments
        "suites banded+block-moments biased-path n=35": "raises:LinAlgError",
        "suites banded+block-moments biased-path n=64": "raises:LinAlgError",
    },
    "cli-roundtrip": {
        # false return-law/return-mean failures on exact-arithmetic families
        "verify biased-path n=20": "exit:2 records:return-law-identity,return-mean-identity",
        "verify biased-path n=34": "exit:2 records:return-law-identity,return-mean-identity,"
                                   "slow-start-measure,stationary-mean-hitting",
        "verify aldous n=3": "exit:2 records:return-law-identity",
        "verify aldous n=5": "exit:2 records:return-law-identity,return-mean-identity",
        # escape divides by pi(A) = 1 - pi(B) = 0
        "verify biased-path n=50": "raises:ZeroDivisionError",
    },
}


@dataclass
class Outcome:
    """What one op did, judged outside its timing."""

    failure: str | None = None      # None when the op succeeded
    checks: int = 0                 # identity + inequality records certified
    digest: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    stdout_bytes: int = 0
    exit_code: int = 0


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    finish: Callable[[object, BaseException | None, bool], Outcome]
    fast_hash: Callable[[object], bytes]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    percentile: float               # op_tail_ms percentile

    @property
    def min_sweeps(self) -> int:
        """Sweeps needed for at least 10 ops beyond the tail percentile."""
        beyond = len(self.ops) * (1.0 - self.percentile / 100.0)
        return max(2, math.ceil(10.0 / beyond))


# ---------------------------------------------------------------------------
# inputs


def _random_chain(rng: np.random.Generator, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Member k of size n of a random_corpus-style corpus, varied by the seed.

    The base member is drawn as ``random_corpus`` draws it, from the fixed
    ``BASE_SEED``.  The run's ``rng`` then relabels its states and scales
    each edge weight by a factor in [1 - JITTER, 1 + JITTER].  A fresh corpus
    per seed moved the cost of a search-grid sweep by about 15% between
    seeds, and a 10% weight jitter by as much (worst-set candidate counts
    and bisection lengths follow pi), which would hide the changes the
    end-to-end bounds are meant to catch.
    """
    base_rng = np.random.default_rng([BASE_SEED, n, k])
    density = float(base_rng.uniform(0.35, 0.9))
    base = cl.random_reversible(n, density=density, seed=int(base_rng.integers(0, 2 ** 62)))
    h = np.diag(base.P).copy()
    W = base.pi[:, None] * base.P
    np.fill_diagonal(W, 0.0)
    scale = np.triu(rng.uniform(1.0 - JITTER, 1.0 + JITTER, size=(n, n)), 1)
    W = 0.5 * (W + W.T) * (scale + scale.T)
    perm = rng.permutation(n)
    W, h = W[np.ix_(perm, perm)], h[perm]
    deg = W.sum(axis=1)
    P = (1.0 - h)[:, None] * (W / deg[:, None])
    np.fill_diagonal(P, 0.0)
    P += np.diag(1.0 - P.sum(axis=1))
    pi = deg / (1.0 - h)
    return P, pi / pi.sum()


def _tree_spec(rng: np.random.Generator, n: int, k: int) -> tuple[TreeSpec, int]:
    """Tree k of size n: a fixed random attachment tree with weights in
    [1, 2], relabelled and with weights jittered by the run's ``rng``.

    Tree shape sets t_rel and so the length of the killed iterations; a
    fresh shape per seed moves their cost by tens of percent.  Also returns
    the label of a leaf (the last vertex attached).
    """
    base_rng = np.random.default_rng([BASE_SEED, n, k, 1])
    parents = [int(base_rng.integers(0, v)) for v in range(1, n)]
    weights = base_rng.uniform(1.0, 2.0, size=n - 1)
    holding = base_rng.uniform(0.5, 0.75, size=n)
    perm = rng.permutation(n)
    jitter = rng.uniform(1.0 - JITTER, 1.0 + JITTER, size=n - 1)
    edges = [(int(perm[u]), int(perm[v]), float(w))
             for u, v, w in zip(parents, range(1, n), weights * jitter)]
    spec = TreeSpec(n=n, edges=edges, holding=holding[np.argsort(perm)])
    spec.validate()
    return spec, int(perm[n - 1])


def _load(P: np.ndarray, pi: np.ndarray):
    return cl.load_chain(cl.ChainSpec(P=P, pi=pi))


# ---------------------------------------------------------------------------
# run_suites ops


def _suites_hash(reports) -> bytes:
    h = hashlib.sha256()
    for rep in reports:
        h.update(rep.suite.encode())
        h.update(np.array([(r.lhs, r.rhs, r.margin) for r in rep.records], dtype=float).tobytes())
        h.update(bytes(r.passed for r in rep.records))
    return h.digest()


def _suites_finish(label: str, suites, extra_check=None):
    def finish(reports, exc, check_sweep: bool) -> Outcome:
        if exc is not None:
            return Outcome(failure=f"raises:{type(exc).__name__}")
        out = Outcome()
        failing = sorted({r.inequality for rep in reports for r in rep.records if not r.passed})
        if failing:
            out.failure = "records:" + ",".join(failing)
        out.checks = sum(1 for rep in reports for r in rep.records
                         if r.kind in ("identity", "inequality"))
        if [rep.suite for rep in reports] != list(suites):
            out.problems.append(f"{label}: reports {[r.suite for r in reports]} != {suites}")
        if check_sweep:
            for rep in reports:
                dicts = [r.to_dict() for r in rep.records]
                out.digest.extend(refs.record_line(rep.suite, d) for d in dicts)
                out.problems.extend(refs.margin_problems(f"{label} {rep.suite}", dicts))
            if extra_check is not None:
                out.problems.extend(extra_check(reports))
        return out
    return finish


def _suites_op(label: str, build, suites, params: dict, extra_check=None) -> Op:
    def call():
        return cl.run_suites(build(), list(suites), dict(params))
    return Op(label, call, _suites_finish(label, suites, extra_check), _suites_hash)


def _identity_check(label: str, P, pi):
    """Every target set is covered, and stationary mean hitting times agree
    with a direct solve on a few sets."""
    n = P.shape[0]

    def check(reports) -> list[str]:
        out = []
        escape = reports[IDENTITY_SUITES.index("escape")]
        mean_recs = {tuple(r.params["A"]): r for r in escape.records
                     if r.inequality == "stationary-mean-hitting"}
        if len(mean_recs) != (1 << n) - 2:
            out.append(f"{label}: {len(mean_recs)} target sets, want {(1 << n) - 2}")
        for members in ((int(np.argmin(pi)),), (int(np.argmax(pi)),), tuple(range(n // 2))):
            rec = mean_recs.get(members)
            if rec is None:
                out.append(f"{label}: no stationary-mean-hitting record for A={members}")
                continue
            mask = np.zeros(n, dtype=bool)
            mask[list(members)] = True
            pa = float(pi[mask].sum())
            want = pa * (1.0 - pa) * refs.stationary_mean_hit(P, pi, mask)
            if not math.isclose(rec.lhs, want, rel_tol=1e-7, abs_tol=1e-12):
                out.append(f"{label}: E_pi[T_A] A={members}: {rec.lhs!r} vs reference {want!r}")
        return out
    return check


def _tmix_check(label: str, P, pi):
    """relaxation-upper carries t_mix(eps); compare with iterated P^t."""
    def check(reports) -> list[str]:
        out = []
        relax = reports[GRID_SUITES.index("relaxation")]
        got = {r.params["eps"]: r.lhs for r in relax.records if r.inequality == "relaxation-upper"}
        for eps in EPS_GRID:
            want = refs.mixing_time(P, pi, eps)
            if got.get(eps) != float(want):
                out.append(f"{label}: t_mix({eps:g}) = {got.get(eps)!r}, reference {want}")
        return out
    return check


# ---------------------------------------------------------------------------
# cutoff_scan ops


def _scan_lines(scan) -> list[str]:
    return ["scan\t" + "\t".join(refs.canon(row[k]) for k in sorted(row))
            for row in scan.row_dicts()]


def _scan_op(label: str, family: str, sizes, reference) -> Op:
    def call():
        return cl.cutoff_scan(family, list(sizes), eps_grid=SCAN_EPS)

    def finish(scan, exc, check_sweep: bool) -> Outcome:
        if exc is not None:
            return Outcome(failure=f"raises:{type(exc).__name__}")
        out = Outcome()
        if check_sweep:
            out.digest = _scan_lines(scan)
            if [r.n for r in scan.rows] != list(sizes):
                out.problems.append(f"{label}: rows for sizes {[r.n for r in scan.rows]}")
            for i, row in enumerate(scan.rows):
                P, pi = reference(row.n)
                if row.states != P.shape[0]:
                    out.problems.append(f"{label}: n={row.n} has {row.states} states")
                    continue
                want = refs.t_rel(P, pi)
                if not math.isclose(row.t_rel, want, rel_tol=1e-8):
                    out.problems.append(f"{label}: n={row.n} t_rel {row.t_rel!r} vs {want!r}")
                if i == 0:
                    for eps in SCAN_EPS:
                        for level, got in ((eps, row.t_mix[eps]), (1 - eps, row.t_mix_high[eps])):
                            want = refs.mixing_time(P, pi, level)
                            if got != want:
                                out.problems.append(f"{label}: n={row.n} t_mix({level:g}) "
                                                    f"{got} vs reference {want}")
        return out

    def fast_hash(scan) -> bytes:
        return hashlib.sha256(repr(scan.row_dicts()).encode()).digest()

    return Op(label, call, finish, fast_hash)


def _plateau_reference(n: int):
    chain = cl.plateau_chain(n)
    return chain.P, chain.pi


# ---------------------------------------------------------------------------
# CLI ops


_RECORD_LINE = re.compile(r"^  (ok  |FAIL)  (\S+) ", re.M)


def _cli_call(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cl_cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(label: str, argv: list[str], workdir: str, check=None) -> Op:
    def call():
        return _cli_call(argv)

    def finish(res, exc, check_sweep: bool) -> Outcome:
        if exc is not None:
            return Outcome(failure=f"raises:{type(exc).__name__}", exit_code=1)
        code, stdout, stderr = res
        lines = _RECORD_LINE.findall(stdout)
        out = Outcome(checks=len(lines), stdout_bytes=len(stdout.encode()), exit_code=code)
        if code != 0:
            failing = sorted({name for status, name in lines if status == "FAIL"})
            out.failure = f"exit:{code}" + (" records:" + ",".join(failing) if failing else "")
        if check_sweep:
            text = stdout.replace(workdir, "<dir>")
            out.digest = [f"exit\t{code}"] + refs.round_text(text).splitlines()
            if check is not None:
                out.problems.extend(check(code, stdout))
        return out

    def fast_hash(res) -> bytes:
        code, stdout, _stderr = res     # stderr carries once-per-process warnings
        return hashlib.sha256(repr((code, stdout)).encode()).digest()

    return Op(label, call, finish, fast_hash)


def _read_chain(path: str):
    with open(path) as fh:
        payload = json.load(fh)
    return np.array(payload["P"], dtype=float), np.array(payload["pi"], dtype=float)


def _gen_check(label: str, path: str, n_states: int | None):
    def check(code, stdout) -> list[str]:
        P, pi = _read_chain(path)
        out = []
        if n_states is not None and P.shape[0] != n_states:
            out.append(f"{label}: {P.shape[0]} states, want {n_states}")
        if np.abs(P.sum(axis=1) - 1.0).max() > 1e-12 or np.abs(pi @ P - pi).max() > 1e-10:
            out.append(f"{label}: written chain is not stochastic with stationary pi")
        return out
    return check


def _analyze_check(label: str, path: str):
    def check(code, stdout) -> list[str]:
        P, pi = _read_chain(path)
        got = json.loads(stdout)
        out = []
        want = refs.t_rel(P, pi)
        if not math.isclose(got["t_rel"], want, rel_tol=1e-8):
            out.append(f"{label}: t_rel {got['t_rel']!r} vs reference {want!r}")
        want = refs.mixing_time(P, pi, got["eps"])
        if got["t_mix"] != want:
            out.append(f"{label}: t_mix {got['t_mix']} vs reference {want}")
        return out
    return check


def _verify_check(label: str, report_path: str):
    def check(code, stdout) -> list[str]:
        with open(report_path) as fh:
            payload = json.load(fh)
        reports = payload if isinstance(payload, list) else [payload]
        records = [r for rep in reports for r in rep["records"]]
        out = refs.margin_problems(label, records)
        if len(reports) != len(cl.SUITE_IDS):
            out.append(f"{label}: {len(reports)} suites in the report, want {len(cl.SUITE_IDS)}")
        certified = sum(1 for r in records if r["kind"] in ("identity", "inequality"))
        printed = len(_RECORD_LINE.findall(stdout))
        if certified != printed:
            out.append(f"{label}: report holds {certified} checks, stdout prints {printed}")
        failed = any(not r["passed"] for r in records)
        if failed != (code == 2):
            out.append(f"{label}: exit {code} but failing records={failed}")
        return out
    return check


_SIM = re.compile(r"estimate = (\S+) \+/- (\S+) .*\nexact    = (\S+)")


def _simulate_check(label: str, path: str, start: int, members, t: int):
    def check(code, stdout) -> list[str]:
        m = _SIM.search(stdout)
        if m is None:
            return [f"{label}: unreadable output {stdout[:80]!r}"]
        est, se, exact = (float(g) for g in m.groups())
        P, _pi = _read_chain(path)
        want = refs.killed_tail(P, start, members, t)
        out = []
        if not math.isclose(exact, want, rel_tol=1e-8, abs_tol=1e-12):
            out.append(f"{label}: exact tail {exact!r} vs reference {want!r}")
        spread = max(se, math.sqrt(want * (1.0 - want) / SIM_PATHS))
        if abs(est - want) > 5.0 * spread + 1.0 / SIM_PATHS:
            out.append(f"{label}: estimate {est} is {abs(est - want) / spread:.1f} SE off")
        return out
    return check


def _exit_zero_check(label: str, want_text: str | None = None):
    def check(code, stdout) -> list[str]:
        out = [] if code == 0 else [f"{label}: exit {code}"]
        if want_text is not None and want_text not in stdout:
            out.append(f"{label}: output lacks {want_text!r}")
        return out
    return check


def _scan_csv_check(label: str, path: str, sizes):
    def check(code, stdout) -> list[str]:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        out = []
        if len(rows) != len(sizes) * len(SCAN_EPS):
            out.append(f"{label}: {len(rows)} CSV rows")
        for row in rows:
            n, eps = int(row["n"]), float(row["eps"])
            P, pi = refs.biased_path(n)
            if not math.isclose(float(row["t_rel"]), refs.t_rel(P, pi), rel_tol=1e-8):
                out.append(f"{label}: n={n} t_rel {row['t_rel']}")
            if int(row["t_mix"]) != refs.mixing_time(P, pi, eps):
                out.append(f"{label}: n={n} t_mix({eps:g}) {row['t_mix']}")
        return out
    return check


# ---------------------------------------------------------------------------
# workloads


def _identity_allsets(rng, tiny: bool) -> Workload:
    # Every size from 3 to 12.  The op latency median falls among eight
    # n = 6 chains and the p75 among six n = 9 chains, so each quantile
    # rests on many ops of one cost; single ops vary by 20-40% between runs
    # on a shared machine.  n = 10..12 take about two thirds of the time.
    sizes = [3, 4, 5] if tiny else [3, 3, 4, 4, 5, 5, 5] + [6] * 8 + [7, 8] + [9] * 6 + [10, 11, 12]
    ops = []
    for i, n in enumerate(sizes):
        P, pi = _random_chain(rng, n, i)
        label = f"suites identity n={n} #{i}"
        ops.append(_suites_op(label, lambda P=P, pi=pi: _load(P, pi), IDENTITY_SUITES,
                              {"sets": "all", "seed": BASE_SEED},
                              _identity_check(label, P, pi)))
    return Workload("identity-allsets", ops, 75.0)


def _search_grid(rng, tiny: bool) -> Workload:
    # Every size from 3 to 12; the op latency median falls among eight
    # n = 7 chains and the p75 among six n = 10 chains (see identity-allsets).
    sizes = [3, 5] if tiny else [3, 4, 5, 6, 6] + [7] * 8 + [8, 9] + [10] * 6 + [11, 12]
    ops = []
    for i, n in enumerate(sizes):
        P, pi = _random_chain(rng, n, i)
        label = f"suites grid n={n} #{i}"
        params = dict(GRID_PARAMS, seed=BASE_SEED)
        ops.append(_suites_op(label, lambda P=P, pi=pi: _load(P, pi), GRID_SUITES, params,
                              _tmix_check(label, P, pi)))
    return Workload("search-grid", ops, 75.0)


def _family_scale(rng, tiny: bool) -> Workload:
    # Five biased-path members of similar cost hold the op latency median,
    # so that it does not rest on one op.
    path_sizes = (30, 35) if tiny else (30, 31, 32, 33, 34, 35, 64)
    plateau_sizes = (2, 4) if tiny else (4, 8, 16)
    scan_sizes = (10, 20) if tiny else (60, 120, 240)
    tree_sizes = (20,) if tiny else (200, 250, 300)
    ops = []
    for n in path_sizes:
        P, pi = refs.biased_path(n)
        ops.append(_suites_op(f"suites banded+block-moments biased-path n={n}",
                              lambda P=P, pi=pi: _load(P, pi), ("banded", "block-moments"), {}))
    ops.append(_scan_op(f"scan aldous {plateau_sizes}", "aldous", plateau_sizes,
                        _plateau_reference))
    ops.append(_scan_op(f"scan biased-path {scan_sizes}", "biased-path", scan_sizes,
                        refs.biased_path))
    for i, n in enumerate(tree_sizes):
        spec, _leaf = _tree_spec(rng, n, i)
        ops.append(_suites_op(f"suites tree-window+crossing-tails tree n={n} #{i}",
                              lambda spec=spec: cl.build_tree_chain(spec).chain,
                              ("tree-window", "crossing-tails"), {}))
    return Workload("family-scale", ops, 75.0)


def _cli_roundtrip(rng, tiny: bool, workdir: str) -> Workload:
    members = []
    # The random members are fixed: their chain sets the cost of analyze and
    # verify.  The seed varies the simulate targets and seeds and the trees.
    base_rng = np.random.default_rng([BASE_SEED, 2])
    for i, n in enumerate((15,) if tiny else (15, 50, 90, 140)):
        members.append(("random", n, f"random #{i}",
                        ["--seed", str(int(base_rng.integers(1, 2 ** 31))),
                         "--density", f"{base_rng.uniform(0.35, 0.9):.3f}"]))
    fixed = ((("biased-path", 20), ("biased-path", 50), ("aldous", 3)) if tiny else
             (("biased-path", 20), ("biased-path", 34), ("biased-path", 50),
              ("two-cliques", 4), ("two-cliques", 10), ("aldous", 3), ("aldous", 5)))
    members += [(fam, n, f"{fam} n={n}", []) for fam, n in fixed]

    ops = []
    for fam, n, tag, extra in members:
        path = os.path.join(workdir, tag.replace(" ", "").replace("#", "_").replace("=", "") + ".json")
        report = path[:-5] + ".report.json"
        n_states = n if fam in ("random", "biased-path") else None
        ops.append(_cli_op(f"gen {tag}",
                           ["gen", "--family", fam, "--n", str(n), *extra, "-o", path], workdir,
                           _gen_check(f"gen {tag}", path, n_states)))
        ops.append(_cli_op(f"analyze {tag}", ["analyze", path, "--json"], workdir,
                           _analyze_check(f"analyze {tag}", path)))
        ops.append(_cli_op(f"verify {tag}",
                           ["verify", "--chain", path, "--suite", "all", "-o", report], workdir,
                           _verify_check(f"verify {tag}", report)))
        t = SIM_T
        target = sorted(int(v) for v in rng.choice(np.arange(1, n), size=max(1, n // 4),
                                                   replace=False))
        sim_seed = int(rng.integers(1, 2 ** 31))
        ops.append(_cli_op(f"simulate {tag}",
                           ["simulate", "--chain", path, "--start", "0",
                            "--set", ",".join(map(str, target)), "--t", str(t),
                            "--paths", str(SIM_PATHS), "--seed", str(sim_seed)], workdir,
                           _simulate_check(f"simulate {tag}", path, 0, target, t)))
    for i, n in enumerate((30,) if tiny else (60, 120)):
        path = os.path.join(workdir, f"tree_{i}.json")
        spec, leaf = _tree_spec(rng, n, i)
        cl.tree_to_json(spec, path)
        tag = f"tree #{i}"
        ops.append(_cli_op(f"tree central {tag}", ["tree", "central", path], workdir,
                           _exit_zero_check(f"tree central {tag}", f"vertices = {n}")))
        ops.append(_cli_op(f"tree window-check {tag}", ["tree", "window-check", path], workdir,
                           _exit_zero_check(f"tree window-check {tag}")))
        ops.append(_cli_op(f"tree tails {tag}", ["tree", "tails", path, "--x", str(leaf)],
                           workdir, _exit_zero_check(f"tree tails {tag}")))
    sizes = (10, 20) if tiny else (25, 50, 100)
    scan_path = os.path.join(workdir, "scan.csv")
    ops.append(_cli_op("cutoff-scan biased-path",
                       ["cutoff-scan", "--family", "biased-path",
                        "--sizes", ",".join(map(str, sizes)),
                        *[a for e in SCAN_EPS for a in ("--eps", str(e))], "-o", scan_path],
                       workdir, _scan_csv_check("cutoff-scan biased-path", scan_path, sizes)))
    return Workload("cli-roundtrip", ops, 90.0)


NAMES = ("identity-allsets", "search-grid", "family-scale", "cli-roundtrip")


def build(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """The workload's ops, generated from ``seed``; ``workdir`` receives CLI files."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "identity-allsets":
        return _identity_allsets(rng, tiny)
    if name == "search-grid":
        return _search_grid(rng, tiny)
    if name == "family-scale":
        return _family_scale(rng, tiny)
    return _cli_roundtrip(rng, tiny, workdir)
