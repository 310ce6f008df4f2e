"""Command-line front end: reproducible run directories with manifests."""
from __future__ import annotations

import os

# The fits are n x ~40: BLAS threads only add overhead. numpy reads this once, at import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import hashlib
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import __version__
from .claims_core import (
    ClaimsError,
    ClaimsStore,
    StudyCalendar,
    gc_paused,
    parse_inputs,
    write_json,
)
from .cohort_builder import (
    ExclusionReason,
    build_cohort,
    read_exclusions_csv,
    write_cohort_csv,
    write_exclusions_csv,
)
from .glm_engine import FitResult, GlmError
from .measures import (
    ComorbidityMap,
    MeasureError,
    read_antidepressants_csv,
    write_antidepressants_csv,
    write_comorbidity_map_csv,
)
from .prescriber_profile import (
    HIGH_SHARE,
    LOW_SHARE,
    MIN_CASES,
    InvalidThresholds,
    ProcedureCodeSet,
    ProfileError,
    ProviderProfile,
    check_thresholds,
    classify_providers,
    find_index_events,
    profile_summary,
    read_profiles_csv,
    write_procedures_csv,
    write_profiles_csv,
)
from .study_analysis import (
    OUTCOMES,
    AnalysisError,
    build_analysis_table,
    did_design,
    estimate_json,
    pretrend_design,
    read_analysis_table,
    read_pretrend_json,
    read_report_json,
    render_report_from_estimates,
    run_did,
    run_pretrend,
    table_one,
    trend_series,
    write_analysis_table,
    write_table_one_csv,
    write_trends_csv,
)
from .synthgen import (
    ANTIDEPRESSANT_CODES,
    GroundTruth,
    SimConfig,
    SynthError,
    generate,
    load_ground_truth,
    truth_check,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ANALYSIS = 2


class MissingInput(Exception):
    pass


# Each step's errors by family: what it was handed (exit 1), or what the
# analysis of valid inputs ran into (exit 2).
VALIDATION_ERRORS = (MissingInput, OSError, ClaimsError, MeasureError, ProfileError,
                     SynthError)
ANALYSIS_ERRORS = (AnalysisError, GlmError)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; validation errors are exit 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: str, command: str, argv, input_digests, outputs, started):
    manifest = {
        "command": command,
        "argv": list(argv),
        "tool_version": __version__,
        "input_digests": input_digests,
        "outputs": [os.path.basename(p) for p in outputs],
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    path = os.path.join(out_dir, f"manifest_{command}.json")
    write_json(path + ".tmp", manifest)
    os.replace(path + ".tmp", path)


def _inputs_dir(out_dir: str) -> str:
    d = os.path.join(out_dir, "inputs")
    if not os.path.isdir(d):
        raise MissingInput(f"no inputs/ directory under {out_dir}; run `simulate` first "
                           "or place the five input CSVs there")
    return d


def _thresholds(text: str | None) -> tuple[Fraction, Fraction, int]:
    """--thresholds low,high,min_cases, range-checked as classify_providers checks it."""
    if not text:
        return LOW_SHARE, HIGH_SHARE, MIN_CASES
    try:
        low, high, min_cases = text.split(",")
        return check_thresholds(Fraction(low), Fraction(high), int(min_cases))
    except InvalidThresholds as e:
        raise InvalidThresholds(f"--thresholds {text}: {e}") from None
    except (ValueError, ZeroDivisionError):
        raise InvalidThresholds("--thresholds expects low,high,min_cases as numbers, "
                                f"got {text!r}") from None


class _Run:
    """What the steps of one invocation share, each made or read at most once.

    The step that makes an artifact sets it here; a step run on its own
    reads it from the run directory instead, and gets an equal value.
    Steps only read what they are handed; none may change it in place.
    """

    def __init__(self, args):
        self.args = args
        self.thresholds = _thresholds(args.thresholds)

    def _read(self, name: str, read, made_by: str):
        path = os.path.join(self.args.out, name)
        if not os.path.exists(path):
            raise MissingInput(f"{path} not found; run `{made_by}` first")
        return read(path)

    def _reference(self, name: str, read, default):
        """``read`` inputs/<name> when the file is there, else the built-in default."""
        path = os.path.join(_inputs_dir(self.args.out), name)
        return read(path) if os.path.exists(path) else default

    def optional(self, name: str):
        """The artifact ``name``, or None if it was neither handed over nor written."""
        try:
            return getattr(self, name)
        except MissingInput:
            return None

    @cached_property
    def calendar(self) -> StudyCalendar:
        if self.args.calendar:
            return StudyCalendar.from_file(self.args.calendar)
        return StudyCalendar()

    @cached_property
    def store(self) -> ClaimsStore:
        return parse_inputs(_inputs_dir(self.args.out), self.calendar)

    @cached_property
    def input_digests(self) -> dict[str, str]:
        """sha256 of each file under inputs/, which no step after ``simulate`` changes."""
        inputs = os.path.join(self.args.out, "inputs")
        if not os.path.isdir(inputs):
            return {}
        return {n: _sha256(os.path.join(inputs, n)) for n in sorted(os.listdir(inputs))}

    @cached_property
    def codes(self) -> ProcedureCodeSet:
        return self._reference("procedures.csv", ProcedureCodeSet.from_file, ProcedureCodeSet())

    @cached_property
    def cmap(self) -> ComorbidityMap:
        return self._reference("comorbidity_map.csv", ComorbidityMap.from_file,
                               ComorbidityMap.default())

    @cached_property
    def antidepressants(self) -> frozenset[str]:
        return self._reference("antidepressants.csv", read_antidepressants_csv, frozenset())

    @cached_property
    def profiles(self) -> dict[str, ProviderProfile]:
        return self._read("profiles.csv", read_profiles_csv, "classify")

    @cached_property
    def audit(self) -> dict[ExclusionReason, int]:
        return self._read("exclusions.csv", read_exclusions_csv, "cohort")

    @cached_property
    def pretrend(self) -> dict:
        return self._read("pretrend.json", read_pretrend_json, "pretrend")

    @cached_property
    def truth(self) -> GroundTruth:
        return self._read("ground_truth.json", load_ground_truth, "simulate")

    @cached_property
    def report(self) -> dict:
        return self._read("report.json", read_report_json, "did")

    @cached_property
    def table(self) -> dict:
        return self._read("analysis_table.csv", read_analysis_table, "cohort")


def _run_id(run: _Run) -> str:
    truth = run.optional("truth")
    if truth is not None:
        return truth.run_id
    _inputs_dir(run.args.out)  # MissingInput without inputs/
    names_and_digests = "".join(name + digest for name, digest in run.input_digests.items())
    return hashlib.sha256(names_and_digests.encode()).hexdigest()[:16]


def step_simulate(args, run: _Run) -> list[str]:
    config = SimConfig.from_file(args.sim) if args.sim else SimConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    inputs = os.path.join(args.out, "inputs")
    # Equal to what parse_inputs reads back from the files generate writes.
    run.store, run.truth = generate(config, out_dir=inputs, calendar=run.calendar)
    os.replace(
        os.path.join(inputs, "ground_truth.json"),
        os.path.join(args.out, "ground_truth.json"),
    )
    # Reference configuration alongside the claims files.
    run.codes = ProcedureCodeSet()
    run.cmap = ComorbidityMap.default()
    run.antidepressants = ANTIDEPRESSANT_CODES
    write_procedures_csv(os.path.join(inputs, "procedures.csv"), run.codes)
    write_comorbidity_map_csv(os.path.join(inputs, "comorbidity_map.csv"), run.cmap)
    write_antidepressants_csv(os.path.join(inputs, "antidepressants.csv"), run.antidepressants)
    return [os.path.join(args.out, "ground_truth.json")] + [
        os.path.join(inputs, n) for n in sorted(os.listdir(inputs))
    ]


def step_classify(args, run: _Run) -> list[str]:
    calendar = run.calendar
    store = run.store
    low, high, min_cases = run.thresholds
    events = find_index_events(store, run.codes, calendar.profiling_start, calendar.profiling_end)
    run.profiles = classify_providers(events, store, min_cases=min_cases, low=low, high=high)
    path = os.path.join(args.out, "profiles.csv")
    write_profiles_csv(path, run.profiles)
    return [path]


def step_cohort(args, run: _Run) -> list[str]:
    profiles = run.profiles
    store = run.store
    rows, run.audit = build_cohort(store, profiles, run.calendar, run.codes)
    cohort_path = os.path.join(args.out, "cohort.csv")
    excl_path = os.path.join(args.out, "exclusions.csv")
    write_cohort_csv(cohort_path, rows)
    write_exclusions_csv(excl_path, run.audit)
    table = build_analysis_table(rows, store, run.cmap, run.antidepressants)
    table_path = os.path.join(args.out, "analysis_table.csv")
    write_analysis_table(table_path, table)
    # Equal bit for bit to what read_analysis_table gives back from the file.
    run.table = table
    return [cohort_path, excl_path, table_path]


def step_describe(args, run: _Run) -> list[str]:
    table = run.table
    path = os.path.join(args.out, "table_one.csv")
    write_table_one_csv(path, table_one(table))
    return [path]


def step_pretrend(args, run: _Run) -> list[str]:
    table = run.table
    design = pretrend_design(table, run.calendar)  # one design for the four outcomes
    # estimate_json at once, so that no two fits are alive together.
    run.pretrend = {
        name: estimate_json(run_pretrend(table, name, run.calendar, design=design))
        for name in OUTCOMES}
    path = os.path.join(args.out, "pretrend.json")
    write_json(path, run.pretrend)
    return [path]


def _fit_dump(outcome: str, fit: FitResult) -> str:
    # fit_arrays returns converged fits only
    coefs = "".join(
        f"coef {name} = {b!r}\n" for name, b in zip(fit.names, fit.coefficients.tolist()))
    return (f"== {outcome} ({fit.family}) ==\n"
            f"n_obs={fit.n_obs} n_clusters={fit.n_clusters} "
            f"iterations={fit.n_iterations} converged=True\n"
            f"deviance_trace={fit.deviance_trace!r}\n{coefs}"
            f"model_cov=\n{np.array2string(fit.model_cov, threshold=10**6)}\n"
            f"robust_cov=\n{np.array2string(fit.robust_cov, threshold=10**6)}\n")


def step_did(args, run: _Run) -> list[str]:
    table = run.table
    design = did_design(table)  # one design for the four outcomes
    did, dumps = {}, []
    for name in OUTCOMES:
        estimate = run_did(table, name, design=design)
        if args.dump_fit:
            dumps.append(_fit_dump(name, estimate.fit))
        did[name] = estimate_json(estimate)
        del estimate  # so that no two fits are alive together

    outputs = []
    if args.dump_fit:
        path = os.path.join(args.out, "fit_dump.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(dumps)
        outputs.append(path)

    report = {"run_id": _run_id(run), "did": did}
    audit = run.optional("audit")
    if audit is not None:
        report["exclusions"] = {reason.value: n for reason, n in audit.items()}
    profiles = run.optional("profiles")
    if profiles is not None:
        _, _, min_cases = run.thresholds
        if any(p.n_events >= min_cases for p in profiles.values()):
            report["profile_summary"] = profile_summary(profiles, min_cases=min_cases)
    pretrend = run.optional("pretrend")
    if pretrend is not None:
        report["pretrend"] = pretrend

    did_path = os.path.join(args.out, "did.json")
    write_json(did_path, did)
    report_path = os.path.join(args.out, "report.json")
    run.report = render_report_from_estimates(report)
    write_json(report_path, run.report)
    return outputs + [did_path, report_path]


def step_trends(args, run: _Run) -> list[str]:
    table = run.table
    outputs = []
    for outcome in OUTCOMES:
        series = trend_series(table, outcome, run.calendar)
        path = os.path.join(args.out, f"trends_{outcome}.csv")
        write_trends_csv(path, series)
        outputs.append(path)
    return outputs


def step_check(args, run: _Run) -> list[str]:
    verdicts = truth_check(run.truth, run.report)
    path = os.path.join(args.out, "check.json")
    write_json(path, verdicts)
    for outcome in sorted(verdicts):
        print(f"{outcome}: {verdicts[outcome]['status']}")
    return [path]


_STEP_FUNCS = {
    "simulate": step_simulate,
    "classify": step_classify,
    "cohort": step_cohort,
    "describe": step_describe,
    "pretrend": step_pretrend,
    "did": step_did,
    "trends": step_trends,
    "check": step_check,
}
STEPS = list(_STEP_FUNCS)


def build_parser() -> _Parser:
    parser = _Parser(prog="rxdid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STEPS + ["all"]:
        p = sub.add_parser(name)
        p.add_argument("--out", required=True, help="run directory")
        p.add_argument("--calendar", help="calendar override file (key=ISO-date lines)")
        p.add_argument("--thresholds", help="low,high,min_cases for provider classification")
        p.add_argument("--seed", type=int, help="simulation seed override")
        p.add_argument("--sim", help="simulation config file (key = value lines)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; results are independent of this value")
        p.add_argument("--dump-fit", action="store_true", dest="dump_fit")
    return parser


# The steps build records and arrays, never a cycle per record; the parsers
# and json's indenting encoder leave about 1,300 objects in cycles per run,
# freed by the first collection after main returns.
@gc_paused
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.threads < 1:
        sys.stderr.write("error: --threads must be >= 1\n")
        return EXIT_VALIDATION

    steps = STEPS if args.command == "all" else [args.command]
    try:
        run = _Run(args)
        os.makedirs(args.out, exist_ok=True)
        for step in steps:
            started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
            outputs = _STEP_FUNCS[step](args, run)
            _write_manifest(args.out, step, sys.argv[1:] if argv is None else argv,
                            {} if step == "simulate" else run.input_digests, outputs, started)
    except VALIDATION_ERRORS as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_VALIDATION
    except ANALYSIS_ERRORS as e:
        sys.stderr.write(f"analysis error: {e}\n")
        return EXIT_ANALYSIS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
