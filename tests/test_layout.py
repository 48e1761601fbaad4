"""Layering rules of the production modules, checked on their source with ``ast``.

* The simulation core (selection, engine, orchestrator, latency model and
  workload), the harness and the seeded draws work on Python ints and lists;
  numpy stays in the reference layer and in the network's array helpers,
  which import it on first use.  ``optpipe run`` and ``optpipe compare``
  never load numpy, and a serial ``compare`` never loads the process pool.
* No module imports networkx: the routes are plain Python in ``topology``,
  and networkx is a test-only reference.
* ``Network`` state, routes and the background stream included, is read
  and written only in ``topology``: no other module touches an underscore
  attribute that a network or an object it holds defines, or any
  underscore attribute of a network object (a name ``net``, ``*_net`` or
  ``*.net``), by attribute access, ``getattr`` and its kin, or ``vars``.
  Other modules ask a network through its public methods, such as
  ``has_background`` and ``active_owners``.

The README's Configuration section names every config key and no other.

Every hook that ``perfbench/tracer.py`` lists in ``HOOKS`` still resolves in
``optpipe``, and a small loaded cell reaches each one through the module
namespaces that the tracer patches.  A hot path that inlined a hook, or bound
it before the tracer could patch it, would turn that layer's metrics to null.
"""

from __future__ import annotations

import ast
import collections
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

from optpipe import cli, engine, topology

SRC = pathlib.Path(topology.__file__).parent
README = pathlib.Path(__file__).parent.parent / "README.md"
TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"
NUMPY_FREE = ("rsa.py", "engine.py", "cba.py", "latency.py", "workload.py", "cli.py", "rng.py")
# modules that neither importing the CLI nor a serial run may load
RUN_UNLOADED = ("numpy", "networkx", "concurrent.futures.process")


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


def _loaded_after(code: str) -> list[str]:
    """The ``RUN_UNLOADED`` modules in ``sys.modules`` after ``code`` runs in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    probe = (f"import sys\n{code}\nprint(sorted(m for m in sys.modules "
             f"if m.split('.')[0] in {RUN_UNLOADED!r} or m in {RUN_UNLOADED!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


def test_cli_import_leaves_networkx_unloaded():
    assert _loaded_after("import optpipe.cli") == []


def test_run_and_compare_never_load_numpy(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "bg.preset": "loaded", "bg.prewarm_s": 2.0, "cba.n_iterations": 2, "jobs": 1,
        "run.microbatches": 2, "run.seeds": [0, 2**40],
        "compare.models": ["llama3-8b-like"], "compare.schedules": ["1f1b"],
        "compare.microbatch_grid": [2], "compare.seeds": [3],
    }))
    for command in ("run", "compare"):
        code = ("from optpipe import cli\n"
                f"assert cli.main([{command!r}, '--config', {str(cfg)!r}, "
                f"'--out', {str(tmp_path)!r}]) == 0")
        assert _loaded_after(code) == []
    assert (tmp_path / "run.csv").exists() and (tmp_path / "compare.csv").exists()


def _network_private_names() -> set[str]:
    """Underscore attributes of a network with a background stream, and of
    every ``topology`` object it holds: the route catalog, the stream, the tape."""
    net = topology.load_nsfnet()
    net.attach_background(topology.loaded_background(0))
    names: set[str] = set()
    seen: set[int] = set()
    todo: list[object] = [net]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or type(obj).__module__ != topology.__name__:
            continue
        seen.add(id(obj))
        names |= {n for n in (*vars(obj), *vars(type(obj))) if _is_private(n)}
        todo.extend(vars(obj).values())
    return names


def test_network_internals_stay_in_topology():
    private = _network_private_names()
    assert {"_active", "_commit", "_stream", "_next_time", "_candidates"} <= private
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "topology.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and (
                (_is_private(node.attr) and (
                    node.attr in private or _names_a_network(node.value)))
                or (node.attr == "__dict__" and _names_a_network(node.value))
            ):
                hits.append(f"{path.name}:{node.lineno} .{node.attr}")
            # getattr(net, "_stream") and friends, vars(net)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args:
                target, names = node.args[0], node.args[1:2]
                if node.func.id == "vars" and _names_a_network(target):
                    hits.append(f"{path.name}:{node.lineno} vars()")
                if node.func.id in ("getattr", "setattr", "hasattr", "delattr") and any(
                    isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and _is_private(n.value)
                    and (n.value in private or _names_a_network(target))
                    for n in names
                ):
                    hits.append(f"{path.name}:{node.lineno} {node.func.id}()")
    assert hits == []


def test_readme_config_table_lists_every_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    backticked = set(re.findall(r"`([^`]+)`", section))
    dotted = {name for name in backticked
              if re.fullmatch(r"[a-z_][a-z0-9_]*(\.[a-z_][a-z0-9_]*)+", name)}
    assert dotted == {key for key in cli.KEY_TABLE if "." in key}
    assert {key for key in cli.KEY_TABLE if "." not in key} <= backticked


def _tracer_hooks() -> list[tuple[str, str, str]]:
    """``HOOKS`` of the benchmark's tracer, read from its source without importing it."""
    for node in _tree(TRACER).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "HOOKS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} assigns no HOOKS")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    for name in attr.split("."):
        owner = getattr(owner, name)
    return owner


def test_tracer_hooks_resolve():
    hooks = _tracer_hooks()
    assert len(hooks) >= 10
    missing = []
    for module, attr, span in hooks:
        try:
            target = _resolve(module, attr)
        except (ImportError, AttributeError):
            missing.append(span)
            continue
        if not callable(target):
            missing.append(span)
    assert missing == []


def test_tracer_hooks_are_reached(monkeypatch):
    # patch the way the tracer does: a method on its class, a function in
    # every optpipe namespace that holds it
    calls: collections.Counter[str] = collections.Counter()
    for module, attr, span in _tracer_hooks():
        original = _resolve(module, attr)

        def counted(*args, _fn=original, _span=span, **kwargs):
            calls[_span] += 1
            return _fn(*args, **kwargs)

        if "." in attr:
            cls_name, leaf = attr.split(".")
            monkeypatch.setattr(getattr(importlib.import_module(module), cls_name), leaf, counted)
            continue
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("optpipe"):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, name, counted)
    cfg = cli.RunConfig.from_flat({"bg.preset": "loaded", "cba.n_iterations": 2})
    for policy in engine.SELECTORS:
        cli.run_cell(cfg, [policy], "llama3-8b-like", "1f1b", 4, 0, collect_events=True)
    assert [span for *_, span in _tracer_hooks() if not calls[span]] == []
