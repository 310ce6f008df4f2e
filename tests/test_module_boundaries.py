"""No rxdid module imports another module's private (underscore) names;
dunders such as ``__version__`` are public. No rxdid module imports scipy,
which only the tests use. The generator draws through public
``random.Random`` methods only. Only claims_core's gc_paused switches the
cyclic garbage collector, and importing rxdid leaves it as it was. Only
claims_core, the one reader and writer of each file format, opens files."""
import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rxdid"


def _private_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "rxdid":
            continue
        found += [f"{path.name}:{node.lineno} imports {alias.name}"
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_module_imports_a_private_name_from_another():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [hit for path in files for hit in _private_imports(path)] == []


def _scipy_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        found += [f"{path.name}:{node.lineno} imports {m}"
                  for m in modules if m.split(".")[0] == "scipy"]
    return found


def test_no_module_imports_scipy():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [hit for path in files for hit in _scipy_imports(path)] == []


def _private_attributes(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno} uses {name}"
                  for name in names if name.startswith("_") and not name.endswith("__")]
    return found


def test_generator_draws_through_public_random_methods():
    # The generated data are the draws of random.Random's documented methods;
    # a private helper such as rng._randbelow ties them to one CPython's internals.
    assert _private_attributes(SRC / "synthgen.py") == []


def _exceptions_defined_in_rxdid():
    import importlib
    import inspect

    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"rxdid.{path.stem}" if path.stem != "__init__"
                                         else "rxdid")
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, Exception) and cls.__module__ == module.__name__]
    return found


def test_every_rxdid_exception_exits_1_or_2_with_one_line(tmp_path, monkeypatch, capsys):
    # Whatever a step raises of rxdid's own errors ends in exit 1 or 2 and
    # one line, never in a traceback.
    import rxdid.cli as cli

    classes = _exceptions_defined_in_rxdid()
    assert len(classes) > 20
    exits = {}
    for cls in classes:
        error = cls.__new__(cls)
        error.args = ("raised in a step",)

        def step(args, run, _error=error):
            raise _error
        monkeypatch.setitem(cli._STEP_FUNCS, "describe", step)
        try:
            exits[cls.__name__] = cli.main(["describe", "--out", str(tmp_path)])
        except Exception:
            exits[cls.__name__] = "uncaught"
        err = capsys.readouterr().err
        if exits[cls.__name__] in (1, 2):
            assert err.endswith(": raised in a step\n") and len(err.splitlines()) == 1
    assert {name: code for name, code in exits.items() if code not in (1, 2)} == {}


def _open_calls(path: pathlib.Path) -> list[str]:
    """``<file>:<function>`` for each call of ``open`` or of an ``.open``
    method, naming the innermost function around it."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "open"):
            found.append(f"{path.name}:{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_claims_core_opens_files():
    # cli hashes the finished files of a run and writes the --dump-fit text;
    # every file format is read and written in claims_core.
    assert _open_calls(SRC / "claims_core.py")
    assert [hit for path in sorted(SRC.glob("*.py")) if path.name != "claims_core.py"
            for hit in _open_calls(path)] == ["cli.py:_sha256", "cli.py:step_did"]


_GC_SWITCHES = {"disable", "enable", "freeze", "set_threshold"}


def _gc_switches(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in _GC_SWITCHES:
            hit = isinstance(node.value, ast.Name) and node.value.id == "gc"
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            hit = any(alias.name in _GC_SWITCHES for alias in node.names)
        else:
            continue
        if hit:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_gc_paused_switches_the_collector():
    hits = {path.name: _gc_switches(path) for path in sorted(SRC.glob("*.py"))}
    assert len(hits["claims_core.py"]) == 2  # gc_paused's disable and enable
    assert [hit for name, found in hits.items() if name != "claims_core.py"
            for hit in found] == []


def test_importing_rxdid_leaves_the_collector_as_it_was():
    modules = ", ".join(["rxdid"] + [f"rxdid.{path.stem}" for path in sorted(SRC.glob("*.py"))
                                     if path.stem != "__init__"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    for switch in ("gc.enable()", "gc.disable()"):
        code = (f"import gc; gc.set_threshold(555, 7, 3); {switch}; "
                "before = (gc.isenabled(), gc.get_threshold()); "
                f"import {modules}; print(before == (gc.isenabled(), gc.get_threshold()))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert run.stdout == "True\n"
