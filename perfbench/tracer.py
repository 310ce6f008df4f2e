"""Spans and counters recorded from outside the program.

The tracer wraps the public functions that one rxdid module calls in the
next (for example ``rxdid.cli.parse_inputs`` or
``rxdid.study_analysis.fit_arrays``) by replacing the module attribute
through which the caller looks the function up.  Nothing under ``src/``
is edited.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time covered by its direct
children.  Functions called once per table row are not given a span
each; their time and calls are summed, and their time still counts as
child time of the enclosing span.
"""
from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.summed: dict[str, list] = {}   # name -> [seconds, calls]
        self.counts: dict[str, float] = {}
        self.op = -1
        self._stack: list[dict] = []

    def _close(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1]["child"] += seconds

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name, "op": self.op,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "id": len(self.spans), "start": _now(), "child": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = _now()
            self._stack.pop()
            self._close(rec["end"] - rec["start"])

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None, summed: bool = False):
        """A stand-in for ``fn`` that records a span (or a summed call)."""
        if summed:
            acc = self.summed.setdefault(name, [0.0, 0])

            def timed(*args, **kwargs):
                t0 = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = _now() - t0
                    acc[0] += dt
                    acc[1] += 1
                    self._close(dt)
        else:
            def timed(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(self, result, args)
                return result
        timed.__wrapped__ = fn
        return timed

    def to_json(self) -> dict:
        return {"spans": self.spans, "summed": self.summed, "counts": self.counts}


# --- what is wrapped -------------------------------------------------------

def _persons(t, result, args):
    t.count("synthgen.persons", len(result[0].demographics))


def _parsed(t, result, args):
    t.count("claims_core.parse_inputs_calls")
    t.count("claims_core.rows_parsed", sum(result.parsed_counts.values()))


def _events(t, result, args):
    t.count("prescriber_profile.index_events", len(result))


def _cohort(t, result, args):
    t.count("cohort_builder.rows", len(result[0]))


def _table_read(t, result, args):
    t.count("study_analysis.read_analysis_table_calls")


def _fitted(t, result, args):
    n, p = result.X.shape
    t.count("glm_engine.fit_calls")
    t.count("glm_engine.irls_iterations", result.n_iterations)
    # Bytes of the n x p design that each IRLS step reads; computed from
    # the shapes, not measured.
    t.count("glm_engine.design_bytes_computed", n * p * 8 * result.n_iterations)


# (module that looks the name up, attribute, span name, result hook).
# The same function is wrapped once per module that imports it, so a
# call is recorded whichever caller makes it.
SPANS = [
    ("rxdid.synthgen", "generate", "synthgen.generate", _persons),
    ("rxdid.cli", "generate", "synthgen.generate", _persons),
    ("rxdid.synthgen", "store_from_records", "claims_core.store_from_records", None),
    ("rxdid.synthgen", "write_store", "claims_core.write_store", None),
    ("rxdid.cli", "parse_inputs", "claims_core.parse_inputs", _parsed),
    ("rxdid.prescriber_profile", "find_index_events",
     "prescriber_profile.find_index_events", _events),
    ("rxdid.cli", "find_index_events", "prescriber_profile.find_index_events", _events),
    ("rxdid.prescriber_profile", "classify_providers",
     "prescriber_profile.classify_providers", None),
    ("rxdid.cli", "classify_providers", "prescriber_profile.classify_providers", None),
    ("rxdid.cohort_builder", "build_cohort", "cohort_builder.build_cohort", _cohort),
    ("rxdid.cli", "build_cohort", "cohort_builder.build_cohort", _cohort),
    ("rxdid.study_analysis", "build_analysis_table",
     "study_analysis.build_analysis_table", None),
    ("rxdid.cli", "build_analysis_table", "study_analysis.build_analysis_table", None),
    ("rxdid.cli", "read_analysis_table", "study_analysis.read_analysis_table", _table_read),
    ("rxdid.study_analysis", "run_did", "study_analysis.run_did", None),
    ("rxdid.cli", "run_did", "study_analysis.run_did", None),
    ("rxdid.cli", "run_pretrend", "study_analysis.run_pretrend", None),
    ("rxdid.cli", "table_one", "study_analysis.table_one", None),
    ("rxdid.cli", "trend_series", "study_analysis.trend_series", None),
    ("rxdid.study_analysis", "fit_arrays", "glm_engine.fit_arrays", _fitted),
    ("rxdid.study_analysis", "wald_test", "glm_engine.wald_test", None),
    ("rxdid.study_analysis", "marginal_effect", "glm_engine.marginal_effect", None),
    ("rxdid.glm_engine", "cluster_robust_cov", "glm_engine.cluster_robust_cov", None),
]
# Called once per cohort row by build_analysis_table.
SUMMED = [
    ("rxdid.study_analysis", "compute_outcomes", "measures.compute_outcomes"),
    ("rxdid.study_analysis", "compute_covariates", "measures.compute_covariates"),
]


def install(tracer: Tracer) -> None:
    """Wrap every listed function in the rxdid modules already imported."""
    for mod_name, attr, name, hook in SPANS:
        mod = sys.modules.get(mod_name)
        if mod is not None:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), hook))
    for mod_name, attr, name in SUMMED:
        mod = sys.modules.get(mod_name)
        if mod is not None:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), summed=True))
    cli = sys.modules.get("rxdid.cli")
    if cli is not None:
        for step, fn in list(cli._STEP_FUNCS.items()):
            cli._STEP_FUNCS[step] = tracer.wrap(f"cli.{step}", fn)
        sha256 = cli._sha256

        def hashed(path):
            tracer.count("cli.bytes_hashed", os.path.getsize(path))
            return sha256(path)
        cli._sha256 = hashed


def run_cli_traced(trace_path: str, argv: list[str]) -> int:
    """Run ``rxdid <argv>`` under the tracer and write its spans as JSON."""
    import rxdid.cli as cli

    tracer = Tracer()
    tracer.op = 0
    install(tracer)
    with tracer.span("cli.main"):
        code = cli.main(argv)
    with open(trace_path, "w", encoding="utf-8") as f:
        json.dump(tracer.to_json(), f)
    return code


if __name__ == "__main__":
    # python3 perfbench/tracer.py TRACE.json <rxdid arguments...>
    sys.exit(run_cli_traced(sys.argv[1], sys.argv[2:]))
