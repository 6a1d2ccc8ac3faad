"""Package layout: lazy exports, what a run imports, where the killed-kernel
solves live and how killed systems are built, where the worst-set candidate
targets are enumerated and whether hitting is exact, where a run's
parameters are parsed, where first passages are searched and crossings
descended, where many
targets' killed tails are stepped, where even powers are taken and Monte
Carlo uniforms drawn, and where the command-line output is written."""

import ast
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cutofflab

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_importing_the_cli_loads_no_numpy():
    # --threads sets the BLAS thread caps in the environment, which numpy
    # reads once when it loads
    assert _fresh("import sys; from cutofflab import cli; print('numpy' in sys.modules)") == "False"


def test_no_library_or_command_path_loads_scipy(tmp_path):
    # irreducibility is decided in numpy, so a run loads neither scipy nor
    # the second BLAS it brings; scipy is a test dependency only.  Nor does
    # it load numpy.ma, which np.unique and the other set routines import
    # on first use at about 8 ms
    path, tree = str(tmp_path / "c.json"), str(tmp_path / "t.json")
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        import numpy as np
        import cutofflab
        from cutofflab import cli, load_chain, run_suites
        chain = load_chain(np.array([[0.75, 0.25, 0.0], [0.125, 0.75, 0.125],
                                     [0.0, 0.25, 0.75]]))
        assert chain.is_lazy and chain.is_irreducible
        run_suites(chain, ["all"])
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["gen", "--family", "biased-path", "--n", "5", "-o", {path!r}]),
                     cli.main(["analyze", {path!r}]),
                     cli.main(["verify", "--chain", {path!r}, "--suite", "all"]),
                     cli.main(["gen", "--family", "random-tree", "--n", "8", "--seed", "3",
                               "-o", {tree!r}]),
                     cli.main(["tree", "tails", {tree!r}, "--x", "7"])]
        print(codes, "scipy" in sys.modules, "numpy.ma" in sys.modules)
    """)
    assert _fresh(code) == "[0, 0, 0, 0, 0] False False"


def test_every_export_resolves():
    assert len(set(cutofflab.__all__)) == len(cutofflab.__all__)
    for name in cutofflab.__all__:
        assert getattr(cutofflab, name) is not None, name
        assert name in dir(cutofflab)
    namespace: dict = {}
    exec("from cutofflab import *", namespace)
    assert set(cutofflab.__all__) <= set(namespace)
    for gone in ("TargetSet", "mgf", "BlowUpSet", "GoodSet", "blow_up_set", "good_set",
                 "qs_decomposition", "simulate_tv_proxy"):
        assert gone not in cutofflab.__all__
        assert not hasattr(cutofflab, gone)


class _Sites(ast.NodeVisitor):
    """Collects (module, enclosing scope, line) of the nodes a subclass
    marks with ``_site``."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.sites: list[tuple[str, str, int]] = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def _site(self, node):
        self.sites.append((self.module, ".".join(self.scope), node.lineno))


def _sites(visitor_class) -> list[tuple[str, str, int]]:
    sites = []
    for path in sorted((SRC / "cutofflab").glob("*.py")):
        visitor = visitor_class(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        sites += visitor.sites
    return sites


class _SolveSites(_Sites):
    """Every ``*.linalg.solve`` call and every import of ``solve`` from a
    ``linalg`` module."""

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "solve"
                and isinstance(f.value, ast.Attribute) and f.value.attr == "linalg"):
            self._site(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if (node.module or "").endswith("linalg") and any(a.name == "solve" for a in node.names):
            self._site(node)


def test_linear_solves_live_in_killed_system():
    # every solve with I - P_B is a KilledSystem method, so a change of
    # solver for the killed kernel is a change to one class
    sites = _sites(_SolveSites)
    assert sites
    allowed = [s for s in sites
               if (s[0], s[1]) == ("chain", "_solve_stationary")
               or (s[0] == "hitting" and s[1].startswith("KilledSystem."))]
    assert sites == allowed


class _KilledBuildSites(_Sites):
    """Every call of ``KilledSystem`` itself or of one of its class
    methods, each with the name it calls."""

    def visit_Call(self, node):
        f = node.func
        if "KilledSystem" in (getattr(f, "id", None), getattr(f, "attr", None)):
            self.sites.append((self.module, "KilledSystem", node.lineno))
        elif isinstance(f, ast.Attribute) and "KilledSystem" in (
                getattr(f.value, "id", None), getattr(f.value, "attr", None)):
            self.sites.append((self.module, f.attr, node.lineno))
        self.generic_visit(node)


def test_killed_systems_are_built_once_per_chain_and_target():
    # outside hitting.py a single target's system comes from KilledSystem.of,
    # which keeps one per chain and target, and a batch from stack/stacks, so
    # no module holds a second copy of a target's solves
    uses = [s for s in _sites(_KilledBuildSites) if s[0] != "hitting"]
    names = {name for _, name, _ in uses}
    assert "of" in names
    assert names <= {"of", "stack", "stacks"}, uses


class _ScipyImportSites(_Sites):
    """Every import of scipy (or a scipy submodule) outside a function
    body, i.e. one that runs when its module loads."""

    def __init__(self, module: str):
        super().__init__(module)
        self.depth = 0

    def _function(self, node):
        self.depth += 1
        self._scoped(node)
        self.depth -= 1

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def visit_Import(self, node):
        if not self.depth and any(a.name.split(".")[0] == "scipy" for a in node.names):
            self._site(node)

    def visit_ImportFrom(self, node):
        if not self.depth and not node.level and (node.module or "").split(".")[0] == "scipy":
            self._site(node)


def test_no_module_imports_scipy_when_it_loads():
    # a kernel that needs scipy (say eigh_tridiagonal) imports it inside
    # the function that calls it, so loading the package never does
    assert _sites(_ScipyImportSites) == []


class _CandidateSites(_Sites):
    """Every call of ``_candidate_sets``, by name or as an attribute."""

    def visit_Call(self, node):
        f = node.func
        if "_candidate_sets" in (getattr(f, "id", None), getattr(f, "attr", None)):
            self._site(node)
        self.generic_visit(node)


def test_candidate_targets_are_enumerated_in_the_worst_set_object():
    # the worst sets of one alpha live in WorstTailProfile, so replacing the
    # candidate family is a change to one class; the banded central-block
    # statistics keep their own greedy starts
    sites = _sites(_CandidateSites)
    assert sorted((module, scope) for module, scope, _ in sites) == [
        ("hitting", "WorstTailProfile.__init__"), ("sbd", "central_block_hit")]


class _FirstBelowSites(_Sites):
    """Every definition of a function or method named ``first_below``."""

    def visit_FunctionDef(self, node):
        if node.name == "first_below":
            self._site(node)
        self._scoped(node)


def test_first_passages_are_searched_by_one_scan():
    # d(t), killed tails and worst-set tails are all non-increasing
    # sequences read by one on-demand scan, so a faster first-passage
    # search is a change to one class
    sites = _sites(_FirstBelowSites)
    assert [(module, scope) for module, scope, _ in sites] == [("mixing", "_TailScan")]


def _is_step(node) -> bool:
    """Whether ``node`` is a product ``P @ ...``, P a name or an attribute."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and "P" in (getattr(node.left, "id", None), getattr(node.left, "attr", None)))


class _MaskedStepSites(_Sites):
    """Every masked step: ``V = P @ V`` followed at once by ``V *= ...``,
    or a product ``(P @ V) * ...`` in one expression."""

    def generic_visit(self, node):
        for stmts in (getattr(node, "body", None), getattr(node, "orelse", None)):
            if isinstance(stmts, list):
                for a, b in zip(stmts, stmts[1:]):
                    if (isinstance(a, ast.Assign) and _is_step(a.value)
                            and isinstance(b, ast.AugAssign) and isinstance(b.op, ast.Mult)
                            and ast.dump(b.target) in map(ast.dump, a.targets)):
                        self._site(b)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and (_is_step(node.left) or _is_step(node.right))):
            self._site(node)
        super().generic_visit(node)


def test_killed_tails_of_many_targets_step_in_one_engine():
    # every killed tail read at given times steps P_B^t 1 as one masked
    # product: worst-set profiles and set sweeps as n x k columns, a single
    # target's scan as one; no per-start spectral reader or continuized
    # spectral tail is left on KilledSystem
    sites = _sites(_MaskedStepSites)
    assert [(module, scope) for module, scope, _ in sites] == [("hitting", "_survival")]
    tree = ast.parse((SRC / "cutofflab" / "hitting.py").read_text())
    killed = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "KilledSystem")
    methods = [n for n in killed.body if isinstance(n, ast.FunctionDef)]
    assert not {"survival", "tail_state", "state_weights"} & {m.name for m in methods}
    assert not [m.name for m in methods
                if "continuous" in [a.arg for a in m.args.args + m.args.kwonlyargs]]


class _SquareSites(_Sites):
    """Every product of a matrix with itself, ``X @ X``, and every two steps
    by one matrix in one expression, ``X @ (X @ Y)``."""

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            right = node.right
            if isinstance(right, ast.BinOp) and isinstance(right.op, ast.MatMult):
                right = right.left
            if ast.dump(node.left) == ast.dump(right):
                self._site(node)
        self.generic_visit(node)


def test_even_powers_read_the_kept_squares():
    # P^2 and every higher square are built once per chain by
    # mixing._square and kept in chain.squares, so an even step is one
    # product with the kept square, never two products with P
    sites = _sites(_SquareSites)
    assert [(module, scope) for module, scope, _ in sites] == [("mixing", "_square")]


def _call_scopes(name: str) -> list[tuple[str, str]]:
    """(module, enclosing scope) of every call of ``name``, by name or as
    an attribute."""

    class Calls(_Sites):
        def visit_Call(self, node):
            f = node.func
            if name in (getattr(f, "id", None), getattr(f, "attr", None)):
                self._site(node)
            self.generic_visit(node)

    return [(module, scope) for module, scope, _ in _sites(Calls)]


def test_monte_carlo_uniforms_are_drawn_in_one_layout():
    # one walker, oracle._walk, draws every round of uniforms and takes
    # every step, for simulate_hitting and sbd's staged walks alike, so no
    # second walker can read the stream in a layout of its own
    assert _call_scopes("uniform_block") == [("oracle", "_round_block")]
    assert _call_scopes("_round_block") == [("oracle", "_walk")]
    assert _call_scopes("_step_states") == [("oracle", "_walk")]


class _NameSites(_Sites):
    """Every definition, name, attribute or import of a name retired with
    the spectral heat kernel and the bisection."""

    GONE = {"heat_matrix", "_bisect_monotone", "ct_terms"}

    def visit_FunctionDef(self, node):
        if node.name in self.GONE:
            self._site(node)
        self._scoped(node)

    def visit_Name(self, node):
        if node.id in self.GONE:
            self._site(node)

    def visit_Attribute(self, node):
        if node.attr in self.GONE:
            self._site(node)
        self.generic_visit(node)

    def visit_alias(self, node):
        if node.name in self.GONE:
            self.sites.append((self.module, ".".join(self.scope), 0))


class _DescentSites(_Sites):
    """Every loop over the bits of a horizon from the top down,
    ``for j in reversed(range(t.bit_length()))``: a descent over squares."""

    def visit_For(self, node):
        it = node.iter
        if (isinstance(it, ast.Call) and getattr(it.func, "id", None) == "reversed"
                and any(isinstance(n, ast.Attribute) and n.attr == "bit_length"
                        for n in ast.walk(it))):
            self._site(node)
        self.generic_visit(node)


def test_every_crossing_descends_the_kept_squares_in_one_loop():
    # discrete and continuized mixing times, continuized worst-set hitting
    # and `hit --set` all take their crossing from mixing._descend, so no
    # second search (a bisection over a spectral sum) can come back
    assert _sites(_NameSites) == []
    assert [(module, scope) for module, scope, _ in _sites(_DescentSites)] == [
        ("mixing", "_descend")]
    assert _call_scopes("_descend") == [
        ("hitting", "_set_crossings"), ("hitting", "_hit_ct_interval"),
        ("mixing", "mixing_times")]
    assert _call_scopes("_set_crossings") == [("cli", "hit")]
    assert _call_scopes("mixing_times") == [
        ("mixing", "mixing_time"), ("verify", "_Ctx.tmix"), ("verify", "cutoff_scan")]


class _IndentedJsonSites(_Sites):
    """Every ``json.dump``/``json.dumps`` call (by attribute or by a name
    imported from ``json``) and every ``JSONEncoder`` built with an
    ``indent`` keyword."""

    def visit_Call(self, node):
        f = node.func
        name = getattr(f, "attr", None) or getattr(f, "id", None)
        if (name in ("dump", "dumps", "JSONEncoder")
                and any(k.arg == "indent" for k in node.keywords)):
            self._site(node)
        self.generic_visit(node)


def test_indented_json_is_written_by_one_emitter():
    # every JSON file and echo is chain.json_text; an indented json.dumps
    # elsewhere would be a second writer, on the pure-Python encoder
    assert _sites(_IndentedJsonSites) == []


class _EchoSites(_Sites):
    """Every ``click.echo``/``click.secho`` call."""

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in ("echo", "secho")
                and getattr(f.value, "id", None) == "click"):
            self._site(node)
        self.generic_visit(node)


def test_command_output_goes_through_one_uncached_stream():
    # a bare click.echo caches a wrapper per sys.stdout object, which keeps
    # every redirected stream of an in-process run alive; cli._echo looks
    # the stream up on each call
    sites = [s for s in _sites(_EchoSites) if s[0] == "cli"]
    assert sites
    assert [scope for _, scope, _ in sites] == ["_echo"] * len(sites)


class _RecordPathSites(_Sites):
    """Every use of ``from_records`` (an attribute) and ``_record_key`` (a
    name), and every ``Report(...)`` call, each with the name it uses."""

    def _use(self, name: str):
        self.sites.append((name, self.module, ".".join(self.scope)))

    def visit_Attribute(self, node):
        if node.attr == "from_records":
            self._use("from_records")
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == "_record_key":
            self._use("_record_key")

    def visit_Call(self, node):
        if "Report" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            self._use("Report")
        self.generic_visit(node)


def test_records_reach_a_report_by_one_path():
    # a suite's rows are ordered and grouped into blocks by its SUITES
    # entry alone, and the command line groups loose records for printing;
    # every report is built in run_suites
    driver = ("verify", "_Suite.__call__")
    assert sorted(set(_sites(_RecordPathSites))) == sorted([
        ("Report", "verify", "run_suites"),
        ("_record_key", *driver),
        ("from_records", "cli", "_emit_blocks"),
        ("from_records", *driver),
    ])


class _ParamsSites(_Sites):
    """Every name ``params``: read, bound, or a function's parameter."""

    def visit_Name(self, node):
        if node.id == "params":
            self._site(node)

    def visit_arg(self, node):
        if node.arg == "params":
            self._site(node)


def test_run_parameters_are_parsed_in_one_place():
    # a run's params dict is parsed once, by _Ctx, and run_suites echoes it
    # into each report (run_suite only hands it on), so every suite body
    # and row function reads the parsed context alone
    from cutofflab.verify import SUITES, _Suite

    sites = [s for s in _sites(_ParamsSites) if s[0] == "verify"]
    assert {scope for _, scope, _ in sites} == {"_Ctx.__init__", "run_suites", "run_suite"}
    assert list(inspect.signature(_Suite.__call__).parameters) == ["self", "ctx"]
    for sid, suite in SUITES.items():
        assert list(inspect.signature(suite.body).parameters) == ["ctx"], sid


class _ThresholdSites(_Sites):
    """Every comparison that reads a name or attribute ``exact_threshold``."""

    def visit_Compare(self, node):
        if "exact_threshold" in {getattr(n, "id", None) or getattr(n, "attr", None)
                                 for n in ast.walk(node)}:
            self._site(node)
        self.generic_visit(node)


def test_exact_hitting_is_decided_in_one_place():
    # the worst-set candidates, the suites' exact gate and cutoff-scan's hit
    # column all read one predicate, so a new exact route changes one function
    assert [(module, scope) for module, scope, _ in _sites(_ThresholdSites)] == [
        ("hitting", "_exact_hitting")]


def test_one_exact_threshold():
    from cutofflab import DEFAULT_EXACT_THRESHOLD, cli, hitting, verify

    assert hitting.DEFAULT_EXACT_THRESHOLD is DEFAULT_EXACT_THRESHOLD
    assert not hasattr(verify, "EXACT_THRESHOLD")
    defaults = {(cmd.name, p.name): p.default
                for cmd in (cli.hit, cli.verify_cmd, cli.cutoff_scan_cmd)
                for p in cmd.params if p.name == "exact_threshold"}
    assert defaults == {(name, "exact_threshold"): DEFAULT_EXACT_THRESHOLD
                        for name in ("hit", "verify", "cutoff-scan")}
