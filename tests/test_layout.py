"""Layering rules of the production modules, checked on their source with ``ast``.

* The simulation core (selection, engine, orchestrator, latency model and
  workload) works on Python ints and lists; numpy stays in the network's
  array views, the harness and the reference layer.
* No module imports networkx: the routes are plain Python in ``topology``,
  and networkx is a test-only reference.
* ``Network`` state, routes included, is read and written only in
  ``topology``: no other module touches an underscore attribute that
  ``Network`` defines, or any underscore attribute of a network object
  (a name ``net``, ``*_net`` or ``*.net``).

The README's Configuration section names every config key and no other.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

from optpipe import cli, topology

SRC = pathlib.Path(topology.__file__).parent
README = pathlib.Path(__file__).parent.parent / "README.md"
NUMPY_FREE = ("rsa.py", "engine.py", "cba.py", "latency.py", "workload.py")


def _tree(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=path.name)


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module


def _is_private(attr: str) -> bool:
    return attr.startswith("_") and not attr.startswith("__")


def _names_a_network(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name == "net" or name.endswith("_net")


def test_core_modules_import_no_numpy():
    hits = [
        f"{name} imports {module}"
        for name in NUMPY_FREE
        for module in _imported_modules(_tree(SRC / name))
        if module.split(".")[0] == "numpy"
    ]
    assert hits == []


def test_no_module_imports_networkx():
    hits = [
        f"{path.name} imports {module}"
        for path in sorted(SRC.glob("*.py"))
        for module in _imported_modules(_tree(path))
        if module.split(".")[0] == "networkx"
    ]
    assert hits == []


def test_cli_import_leaves_networkx_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, optpipe.cli; print(sorted(m for m in sys.modules if 'networkx' in m))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_network_internals_stay_in_topology():
    private = {n for n in (*vars(topology.load_nsfnet()), *vars(topology.Network))
               if _is_private(n)}
    assert {"_active", "_commit"} <= private
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "topology.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and _is_private(node.attr) and (
                node.attr in private or _names_a_network(node.value)
            ):
                hits.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert hits == []


def test_readme_config_table_lists_every_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    backticked = set(re.findall(r"`([^`]+)`", section))
    dotted = {name for name in backticked
              if re.fullmatch(r"[a-z_][a-z0-9_]*(\.[a-z_][a-z0-9_]*)+", name)}
    assert dotted == {key for key in cli.KEY_TABLE if "." in key}
    assert {key for key in cli.KEY_TABLE if "." not in key} <= backticked
