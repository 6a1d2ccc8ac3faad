"""Package layout: lazy exports and where the killed-kernel solves live."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cutofflab

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_loads_no_numpy():
    # --threads sets the BLAS thread caps in the environment, which numpy
    # reads once when it loads
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys; from cutofflab import cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_export_resolves():
    assert len(set(cutofflab.__all__)) == len(cutofflab.__all__)
    for name in cutofflab.__all__:
        assert getattr(cutofflab, name) is not None, name
        assert name in dir(cutofflab)
    namespace: dict = {}
    exec("from cutofflab import *", namespace)
    assert set(cutofflab.__all__) <= set(namespace)
    for gone in ("TargetSet", "mgf"):
        assert gone not in cutofflab.__all__
        assert not hasattr(cutofflab, gone)


class _SolveSites(ast.NodeVisitor):
    """(module, enclosing scope, line) of every ``*.linalg.solve`` call and
    of every import of ``solve`` from a ``linalg`` module."""

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
    sites = []
    for path in sorted((SRC / "cutofflab").glob("*.py")):
        visitor = _SolveSites(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        sites += visitor.sites
    assert sites
    allowed = [s for s in sites
               if (s[0], s[1]) == ("chain", "_solve_stationary")
               or (s[0] == "hitting" and s[1].startswith("KilledSystem."))]
    assert sites == allowed
