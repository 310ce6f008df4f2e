"""The benchmark's tracer wraps functions by module attribute; a rename
under src/ must fail here rather than in a `--trace 1` run."""
import importlib
import importlib.util
import os

import pytest

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


@pytest.fixture(scope="module")
def cohort():
    """A small simulated store and its cohort rows."""
    from conftest import simulated_pipeline
    from rxdid import synthgen

    run = simulated_pipeline(
        synthgen.SimConfig(seed=11, n_providers=30, patients_per_provider_quarter=1.0))
    return run.store, run.rows


def _analysis_table(store, rows):
    from rxdid import study_analysis, synthgen
    from rxdid.measures import ComorbidityMap

    return study_analysis.build_analysis_table(
        rows, store, ComorbidityMap.default(), frozenset(synthgen.ANTIDEPRESSANT_CODES))


def test_analysis_table_computes_each_row_once_through_the_traced_names(monkeypatch, cohort):
    # The tracer sums compute_outcomes and compute_covariates as looked up in
    # study_analysis; its per-row times are true only with one call per row.
    from rxdid import study_analysis

    store, rows = cohort
    seen = {"compute_outcomes": [], "compute_covariates": []}
    for name, calls in seen.items():
        def counted(row, *args, _fn=getattr(study_analysis, name), _calls=calls):
            _calls.append(row)
            return _fn(row, *args)
        monkeypatch.setattr(study_analysis, name, counted)
    table = _analysis_table(store, rows)

    assert rows and len(table["person_id"]) == len(rows)
    for calls in seen.values():
        assert len(calls) == len(rows)
        assert all(called is row for called, row in zip(calls, rows))


def test_each_model_fits_once_through_the_traced_name(monkeypatch, cohort):
    # sim_replicate keeps one fit per replicate by wrapping
    # study_analysis.fit_arrays, and the tracer counts fits through that name.
    from rxdid import study_analysis
    from rxdid.claims_core import StudyCalendar

    table = _analysis_table(*cohort)
    fits = []

    def kept(*args, _fn=study_analysis.fit_arrays, **kwargs):
        fits.append(_fn(*args, **kwargs))
        return fits[-1]
    monkeypatch.setattr(study_analysis, "fit_arrays", kept)
    for model in (
        lambda: study_analysis.run_did(table, "any_refill_30d"),
        lambda: study_analysis.run_pretrend(table, "any_refill_30d", StudyCalendar()),
    ):
        fits.clear()
        result = model()
        assert len(fits) == 1 and result.fit is fits[0]
