"""Layer tracing for the cutofflab benchmark, done from outside the library.

The tracer replaces selected callables -- library functions, methods,
suite table entries and ``numpy.linalg`` routines -- with wrappers that
record one span per call (name, start, end, parent span, op id).  Every
module of the ``cutofflab`` package that holds a reference to a wrapped
function is patched, so calls made through ``from .x import f`` bindings
are seen too.  Nothing in ``src/`` is edited; ``uninstall`` restores every
original.

Self time of a span is its duration minus the durations of its direct
child spans.  Spans are kept in memory (up to ``SPAN_CAP``) and written
out by the caller at exit; per-name totals are always complete.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

SPAN_CAP = 200_000

# (layer, module, qualified name).  The metric name is "<layer>.<qualname>".
SPAN_TARGETS = [
    ("chain", "cutofflab.chain", "spectral_decomposition"),
    ("chain", "cutofflab.chain", "Spectrum.transition_power"),
    ("chain", "cutofflab.chain", "Spectrum.heat_matrix"),
    ("chain", "cutofflab.chain", "chain_from_json"),
    ("chain", "cutofflab.chain", "chain_to_json"),
    ("mixing", "cutofflab.mixing", "mixing_time"),
    ("mixing", "cutofflab.mixing", "mixing_profile"),
    ("mixing", "cutofflab.mixing", "worst_tv"),
    ("mixing", "cutofflab.mixing", "maximal_function"),
    ("mixing", "cutofflab.mixing", "_mixing_time_ct_interval"),
    ("mixing", "cutofflab.mixing", "_d_spectral"),
    ("hitting", "cutofflab.hitting", "worst_tail_profile"),
    ("hitting", "cutofflab.hitting", "_hit_ct_interval"),
    ("hitting", "cutofflab.hitting", "hitting_tail"),
    ("hitting", "cutofflab.hitting", "kac_quantities"),
    ("hitting", "cutofflab.hitting", "mgf"),
    ("trees", "cutofflab.trees", "tree_from_chain"),
    ("trees", "cutofflab.trees", "crossing_time"),
    ("trees", "cutofflab.trees", "path_variance"),
    ("trees", "cutofflab.trees", "tail_bound_check"),
    ("trees", "cutofflab.trees", "tau_root"),
    ("trees", "cutofflab.trees", "tau_sandwich_check"),
    ("sbd", "cutofflab.sbd", "classify_sbd"),
    ("sbd", "cutofflab.sbd", "blocks"),
    ("sbd", "cutofflab.sbd", "central_block_hit"),
    ("sbd", "cutofflab.sbd", "comparable_start_bound"),
    ("verify", "cutofflab.verify", "run_suites"),
    ("verify", "cutofflab.verify", "_build_killed"),
    ("reporting", "cutofflab.reporting", "Report.to_json"),
    ("reporting", "cutofflab.reporting", "Report.dumps"),
    ("reporting", "cutofflab.reporting", "fingerprint"),
    ("oracle", "cutofflab.oracle", "simulate_hitting"),
    ("oracle", "cutofflab.oracle", "simulate_tv_proxy"),
    ("cli", "cutofflab.cli", "main"),
    ("linalg", "numpy.linalg", "eigh"),
    ("linalg", "numpy.linalg", "solve"),
    ("linalg", "numpy.linalg", "inv"),
    ("linalg", "numpy.linalg", "matrix_power"),
]

# Cache lookups on the suite context, each paired with the span its misses
# build: hit_frac = 1 - builds made inside the lookup / lookups.
CACHE_TARGETS = [
    ("verify.killed", "Ctx.killed", "verify._build_killed"),
    ("verify.hit_ct", "Ctx.hit_ct", "hitting._hit_ct_interval"),
    ("verify.profile", "Ctx.profile", "hitting.worst_tail_profile"),
]

SUITE_NAMES = (
    "relaxation", "tv-hit", "set-probability", "submultiplicativity",
    "hit-levels", "escape", "killed-spectrum", "maximal-function",
    "good-set", "martingale-tail", "return-time", "return-mgf", "mix-hit",
    "lazy-floor", "continuous-time", "tree-window", "crossing-tails",
    "banded", "block-moments",
)


def _matrix_work(a) -> int:
    """Sum of n^3 over the (possibly stacked) square matrices in ``a``."""
    shape = getattr(a, "shape", None)
    if not shape or len(shape) < 2:
        return 0
    stack = 1
    for s in shape[:-2]:
        stack *= int(s)
    return stack * int(shape[-1]) ** 3


def _count_hooks(tracer: "Tracer") -> dict:
    """Counters derived from a traced call's arguments or result."""
    c = tracer.counts

    def profile_steps(res, args, kwargs):
        c["mixing.mixing_profile.steps"] += len(res.times)

    def tail_steps(res, args, kwargs):
        c["hitting.worst_tail_profile.steps"] += int(res.tails.shape[0])
        c["hitting.routes"] += 1
        c["hitting.exact_routes"] += bool(res.exact)

    def hit_ct_route(res, args, kwargs):
        c["hitting.routes"] += 1
        c["hitting.exact_routes"] += bool(res[2])

    def tau_steps(res, args, kwargs):
        c["trees.tau_root.steps"] += int(res)

    def paths(res, args, kwargs):
        c["oracle.paths"] += int(kwargs["paths"] if "paths" in kwargs else args[4])

    def records(res, args, kwargs):
        c["reporting.records"] += sum(len(r.records) for r in res)
        c["reporting.failed_records"] += sum(len(r.failures) for r in res)

    def eigh_work(res, args, kwargs):
        c["linalg.eigh.n3"] += _matrix_work(args[0] if args else kwargs.get("a"))

    def solve_work(res, args, kwargs):
        c["linalg.solve.n3"] += _matrix_work(args[0] if args else kwargs.get("a"))

    return {
        "mixing.mixing_profile": profile_steps,
        "hitting.worst_tail_profile": tail_steps,
        "hitting._hit_ct_interval": hit_ct_route,
        "trees.tau_root": tau_steps,
        "oracle.simulate_hitting": paths,
        "oracle.simulate_tv_proxy": paths,
        "verify.run_suites": records,
        "linalg.eigh": eigh_work,
        "linalg.solve": solve_work,
    }


class Tracer:
    """Spans and counters at the boundaries between cutofflab's layers."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.missing: list[str] = []
        self.op_id = -1
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        calls, self_s, spans, stack = self.calls, self.self_s, self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0, len(spans)]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((name, frame[0], end, parent, self.op_id))
                else:
                    self.dropped_spans += 1
            if hook is not None:
                hook(res, args, kwargs)
            return res

        traced.__wrapped__ = fn
        return traced

    def _wrap_lookup(self, key: str, fn, builder: str):
        counts, calls = self.counts, self.calls

        def lookup(*args, **kwargs):
            before = calls[builder]
            try:
                return fn(*args, **kwargs)
            finally:
                counts[key + ".lookups"] += 1
                counts[key + ".builds"] += calls[builder] > before

        lookup.__wrapped__ = fn
        return lookup

    # -- installing ----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new) -> None:
        """Point every cutofflab module's reference to ``original`` at ``new``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cutofflab" or mod_name.startswith("cutofflab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, new)

    def _resolve(self, module: str, qualname: str):
        """(owner object, attribute name) for a dotted name, or None."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if attr not in getattr(owner, "__dict__", {}):
            return None
        return owner, attr

    def install(self) -> None:
        hooks = _count_hooks(self)
        for layer, module, qualname in SPAN_TARGETS:
            name = f"{layer}.{qualname}"
            found = self._resolve(module, qualname)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr = found
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, hooks.get(name))
            if isinstance(owner, type) or module == "numpy.linalg":
                self._replace(owner, attr, wrapped)
            else:
                self._replace_everywhere(original, wrapped)

        found = self._resolve("cutofflab.hitting", "_candidate_sets")
        if found is None:
            self.missing.append("hitting._candidate_sets")
        else:
            owner, attr = found
            original = owner.__dict__[attr]

            def candidate_sets(*args, **kwargs):
                res = original(*args, **kwargs)
                self.counts["hitting.candidate_sets"] += len(res[0])
                return res

            self._replace_everywhere(original, candidate_sets)

        verify = sys.modules.get("cutofflab.verify")
        table = getattr(verify, "SUITES", None)
        if isinstance(table, dict):
            for sid, fn in list(table.items()):
                self._undo.append((table, sid, fn))
                table[sid] = self._wrap(f"verify.suite.{sid}", fn)
        else:
            self.missing.append("verify.SUITES")

        ctx_cls = getattr(verify, "_Ctx", None)
        for key, method, builder in CACHE_TARGETS:
            attr = method.split(".")[1]
            if ctx_cls is None or attr not in ctx_cls.__dict__:
                self.missing.append(f"verify._{method}")
                continue
            self._replace(ctx_cls, attr,
                          self._wrap_lookup(key, ctx_cls.__dict__[attr], builder))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of every counter, for differencing around one sweep."""
        return {"calls": Counter(self.calls), "self_s": Counter(self.self_s),
                "counts": Counter(self.counts)}

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        out = {}
        for key in ("calls", "self_s", "counts"):
            diff = Counter(after[key])
            diff.subtract(before[key])
            out[key] = {k: v for k, v in diff.items() if v}
        return out


def layer_metrics(calls: dict, self_s: dict, counts: dict) -> dict:
    """Per-layer metric values (name -> (value, unit)) for one sweep."""
    m = {}
    for layer, _module, qualname in SPAN_TARGETS:
        name = f"{layer}.{qualname}"
        if name == "cli.main":
            m["cli.main.self_s"] = (float(self_s.get(name, 0.0)), "s")
            continue
        m[f"{name}.calls"] = (int(calls.get(name, 0)), "count")
        m[f"{name}.self_s"] = (float(self_s.get(name, 0.0)), "s")
    for sid in SUITE_NAMES:
        m[f"verify.suite.{sid}.self_s"] = (float(self_s.get(f"verify.suite.{sid}", 0.0)), "s")
    for key, _method, _builder in CACHE_TARGETS:
        lookups = counts.get(key + ".lookups", 0)
        builds = counts.get(key + ".builds", 0)
        m[f"{key}.hit_frac"] = (1.0 - builds / lookups if lookups else 0.0, "ratio")
    routes = counts.get("hitting.routes", 0)
    m["hitting.exact_frac"] = (counts.get("hitting.exact_routes", 0) / routes if routes else 0.0,
                               "ratio")
    for key in ("mixing.mixing_profile.steps", "hitting.worst_tail_profile.steps",
                "hitting.candidate_sets", "trees.tau_root.steps", "oracle.paths",
                "reporting.records", "reporting.failed_records", "cli.exit_nonzero",
                "linalg.eigh.n3", "linalg.solve.n3"):
        m[key] = (int(counts.get(key, 0)), "count")
    m["cli.stdout_bytes"] = (int(counts.get("cli.stdout_bytes", 0)), "bytes")
    return m
