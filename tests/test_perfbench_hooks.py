"""The benchmark's tracer wraps functions by module attribute; a rename
under src/ must fail here rather than in a `--trace 1` run."""
import importlib
import importlib.util
import os

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracer = _load_tracer()
    points = [(mod, attr) for mod, attr, *_ in tracer.SPANS + tracer.SUMMED]
    missing = [
        (mod, attr) for mod, attr in points
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert points and missing == []


def test_cli_hooks_resolve():
    import rxdid.cli as cli

    assert set(cli._STEP_FUNCS) == set(cli.STEPS)
    assert callable(cli._sha256)
