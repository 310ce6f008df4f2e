"""Command-line front end: reproducible run directories with manifests."""
from __future__ import annotations

import os

# The fits are n x ~40: BLAS threads only add overhead. numpy reads this once, at import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import __version__
from .claims_core import ClaimsError, ClaimsStore, StudyCalendar, parse_inputs
from .cohort_builder import (
    build_cohort,
    write_cohort_csv,
    write_exclusions_csv,
)
from .glm_engine import GlmError, build_design, fit_arrays
from .measures import (
    COVARIATE_COLUMNS,
    ComorbidityMap,
    read_antidepressants_csv,
    write_antidepressants_csv,
    write_comorbidity_map_csv,
)
from .prescriber_profile import (
    InvalidThresholds,
    ProcedureCodeSet,
    classify_providers,
    find_index_events,
    profile_summary,
    read_profiles_csv,
    write_procedures_csv,
    write_profiles_csv,
)
from .study_analysis import (
    OUTCOME_FAMILIES,
    OUTCOMES,
    AnalysisError,
    assemble_report,
    build_analysis_table,
    read_analysis_table,
    render_report_from_estimates,
    run_did,
    run_pretrend,
    table_one,
    trend_series,
    write_analysis_table,
    write_report_json,
    write_table_one_csv,
    write_trends_csv,
)
from .synthgen import (
    ANTIDEPRESSANT_CODES,
    InvalidConfig,
    RunMismatch,
    SimConfig,
    generate,
    load_ground_truth,
    truth_check,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ANALYSIS = 2

STEPS = [
    "simulate", "classify", "cohort", "describe", "pretrend", "did",
    "trends", "check",
]


class MissingInput(Exception):
    pass


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


def _write_manifest(out_dir: str, command: str, argv, inputs, outputs, started):
    manifest = {
        "command": command,
        "argv": list(argv),
        "tool_version": __version__,
        "input_digests": {os.path.basename(p): _sha256(p) for p in inputs if os.path.exists(p)},
        "outputs": [os.path.basename(p) for p in outputs],
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    path = os.path.join(out_dir, f"manifest_{command}.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def _inputs_dir(out_dir: str) -> str:
    d = os.path.join(out_dir, "inputs")
    if not os.path.isdir(d):
        raise MissingInput(f"no inputs/ directory under {out_dir}; run `simulate` first "
                           "or place the five input CSVs there")
    return d


def _thresholds(args) -> tuple[Fraction, Fraction, int]:
    if not args.thresholds:
        return Fraction(1, 4), Fraction(3, 4), 5
    parts = args.thresholds.split(",")
    if len(parts) != 3:
        raise MissingInput("--thresholds expects low,high,min_cases")
    return Fraction(parts[0]), Fraction(parts[1]), int(parts[2])


class _Run:
    """What the steps of one invocation share, each loaded at most once.

    ``store`` parses ``inputs/``; ``table`` reads ``analysis_table.csv``
    unless ``cohort`` has already handed over the table it built. Steps
    only read the table; none may change it in place.
    """

    def __init__(self, args):
        self.args = args

    @cached_property
    def calendar(self) -> StudyCalendar:
        if self.args.calendar:
            return StudyCalendar.from_file(self.args.calendar)
        return StudyCalendar()

    @cached_property
    def store(self) -> ClaimsStore:
        return parse_inputs(_inputs_dir(self.args.out), self.calendar)

    @cached_property
    def table(self) -> dict:
        path = os.path.join(self.args.out, "analysis_table.csv")
        if not os.path.exists(path):
            raise MissingInput(f"{path} not found; run `cohort` first")
        return read_analysis_table(path, self.calendar)


def _run_id(out_dir: str) -> str:
    gt = os.path.join(out_dir, "ground_truth.json")
    if os.path.exists(gt):
        return load_ground_truth(gt).run_id
    inputs = _inputs_dir(out_dir)
    h = hashlib.sha256()
    for name in sorted(os.listdir(inputs)):
        h.update(name.encode())
        h.update(_sha256(os.path.join(inputs, name)).encode())
    return h.hexdigest()[:16]


def step_simulate(args, run: _Run) -> list[str]:
    config = SimConfig.from_file(args.sim) if args.sim else SimConfig()
    if args.seed is not None:
        config = SimConfig(**{**config.__dict__, "seed": args.seed})
    inputs = os.path.join(args.out, "inputs")
    generate(config, out_dir=inputs, calendar=run.calendar)
    os.replace(
        os.path.join(inputs, "ground_truth.json"),
        os.path.join(args.out, "ground_truth.json"),
    )
    # Reference configuration alongside the claims files.
    write_procedures_csv(os.path.join(inputs, "procedures.csv"))
    write_comorbidity_map_csv(os.path.join(inputs, "comorbidity_map.csv"))
    write_antidepressants_csv(os.path.join(inputs, "antidepressants.csv"), ANTIDEPRESSANT_CODES)
    return [os.path.join(args.out, "ground_truth.json")] + [
        os.path.join(inputs, n) for n in sorted(os.listdir(inputs))
    ]


def step_classify(args, run: _Run) -> list[str]:
    calendar = run.calendar
    store = run.store
    codes = _reference(_inputs_dir(args.out), "procedures.csv",
                       ProcedureCodeSet.from_file, ProcedureCodeSet())
    low, high, min_cases = _thresholds(args)
    events = find_index_events(store, codes, calendar.profiling_start, calendar.profiling_end)
    profiles = classify_providers(events, store, min_cases=min_cases, low=low, high=high)
    path = os.path.join(args.out, "profiles.csv")
    write_profiles_csv(path, profiles)
    return [path]


def _reference(inputs: str, name: str, read, default):
    """``read`` inputs/<name> when the file is there, else the built-in default."""
    path = os.path.join(inputs, name)
    return read(path) if os.path.exists(path) else default


def step_cohort(args, run: _Run) -> list[str]:
    inputs = _inputs_dir(args.out)
    profiles_path = os.path.join(args.out, "profiles.csv")
    if not os.path.exists(profiles_path):
        raise MissingInput(f"{profiles_path} not found; run `classify` first")
    store = run.store
    codes = _reference(inputs, "procedures.csv", ProcedureCodeSet.from_file, ProcedureCodeSet())
    profiles = read_profiles_csv(profiles_path)
    rows, audit = build_cohort(store, profiles, run.calendar, codes)
    cohort_path = os.path.join(args.out, "cohort.csv")
    excl_path = os.path.join(args.out, "exclusions.csv")
    write_cohort_csv(cohort_path, rows)
    write_exclusions_csv(excl_path, audit)
    cmap = _reference(inputs, "comorbidity_map.csv", ComorbidityMap.from_file,
                      ComorbidityMap.default())
    antidepressants = _reference(inputs, "antidepressants.csv", read_antidepressants_csv,
                                 frozenset())
    table = build_analysis_table(rows, store, cmap, antidepressants)
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
    results = {name: run_pretrend(table, name) for name in OUTCOMES}
    path = os.path.join(args.out, "pretrend.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({k: asdict(v) for k, v in sorted(results.items())},
                  f, indent=2, sort_keys=True)
        f.write("\n")
    return [path]


def step_did(args, run: _Run) -> list[str]:
    table = run.table
    estimates = {name: run_did(table, name) for name in OUTCOMES}

    outputs = []
    if args.dump_fit:
        path = os.path.join(args.out, "fit_dump.txt")
        _dump_fits(path, table)
        outputs.append(path)

    audit = None
    excl_path = os.path.join(args.out, "exclusions.csv")
    if os.path.exists(excl_path):
        with open(excl_path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            next(reader)
            audit = {row[0]: int(row[1]) for row in reader if row}

    summary = None
    profiles_path = os.path.join(args.out, "profiles.csv")
    if os.path.exists(profiles_path):
        _, _, min_cases = _thresholds(args)
        profiles = read_profiles_csv(profiles_path)
        if any(p.n_events >= min_cases for p in profiles.values()):
            summary = profile_summary(profiles, min_cases=min_cases)

    report = assemble_report(
        run_id=_run_id(args.out),
        audit=audit,
        profile_summary=summary,
        did=estimates,
    )
    pretrend_path = os.path.join(args.out, "pretrend.json")
    if os.path.exists(pretrend_path):
        with open(pretrend_path, encoding="utf-8") as f:
            report["pretrend"] = json.load(f)
        report = render_report_from_estimates(report)

    did_path = os.path.join(args.out, "did.json")
    with open(did_path, "w", encoding="utf-8") as f:
        json.dump({k: asdict(v) for k, v in sorted(estimates.items())},
                  f, indent=2, sort_keys=True)
        f.write("\n")
    report_path = os.path.join(args.out, "report.json")
    write_report_json(report_path, report)
    return outputs + [did_path, report_path]


def _dump_fits(path: str, table) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for outcome in OUTCOMES:
            terms = ["exposed", "post", "exposed:post"] + COVARIATE_COLUMNS
            X, names = build_design(table, terms)
            fit = fit_arrays(
                X, table[outcome], OUTCOME_FAMILIES[outcome], names=names,
                cluster_ids=table["provider_id"], drop_collinear=True,
            )
            f.write(f"== {outcome} ({fit.family}) ==\n")
            f.write(f"n_obs={fit.n_obs} n_clusters={fit.n_clusters} "
                    f"iterations={fit.n_iterations} converged={fit.converged}\n")
            f.write(f"deviance_trace={fit.deviance_trace!r}\n")
            for name, b in zip(fit.names, fit.coefficients):
                f.write(f"coef {name} = {b!r}\n")
            f.write(f"model_cov=\n{np.array2string(fit.model_cov, threshold=10**6)}\n")
            f.write(f"robust_cov=\n{np.array2string(fit.robust_cov, threshold=10**6)}\n")


def step_trends(args, run: _Run) -> list[str]:
    table = run.table
    outputs = []
    for outcome in OUTCOMES:
        series = trend_series(table, outcome)
        path = os.path.join(args.out, f"trends_{outcome}.csv")
        write_trends_csv(path, series)
        outputs.append(path)
    return outputs


def step_check(args, run: _Run) -> list[str]:
    gt_path = os.path.join(args.out, "ground_truth.json")
    report_path = os.path.join(args.out, "report.json")
    for p in (gt_path, report_path):
        if not os.path.exists(p):
            raise RunMismatch(f"{p} not found")
    truth = load_ground_truth(gt_path)
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    verdicts = truth_check(truth, report)
    path = os.path.join(args.out, "check.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(verdicts, f, indent=2, sort_keys=True)
        f.write("\n")
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
    run = _Run(args)
    try:
        os.makedirs(args.out, exist_ok=True)
        for step in steps:
            started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
            inputs_for_manifest = []
            inputs_dir = os.path.join(args.out, "inputs")
            if os.path.isdir(inputs_dir) and step != "simulate":
                inputs_for_manifest = [
                    os.path.join(inputs_dir, n) for n in sorted(os.listdir(inputs_dir))
                ]
            outputs = _STEP_FUNCS[step](args, run)
            _write_manifest(args.out, step, sys.argv[1:] if argv is None else argv,
                            inputs_for_manifest, outputs, started)
    except (MissingInput, InvalidConfig, InvalidThresholds, ClaimsError,
            RunMismatch, FileNotFoundError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_VALIDATION
    except (AnalysisError, GlmError) as e:
        sys.stderr.write(f"analysis error: {e}\n")
        return EXIT_ANALYSIS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
