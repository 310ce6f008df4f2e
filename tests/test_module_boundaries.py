"""No rxdid module imports another module's private (underscore) names;
dunders such as ``__version__`` are public. No rxdid module imports scipy,
which only the tests use. The generator draws through public
``random.Random`` methods only."""
import ast
import pathlib

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
