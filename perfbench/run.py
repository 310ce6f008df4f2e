"""Benchmark for rxdid: two closed-loop workloads, one operation at a time.

  python3 perfbench/run.py --workload {sim_replicate,cli_all} --seed N \
      --seconds S --trace {0,1}

Run it from a checkout of the repository; the program is imported from
``src/`` next to this directory and nothing needs installing.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (per operation) with ``--trace 1``.
See perfbench/README.md for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import selftest  # noqa: E402
from tracer import Tracer, install  # noqa: E402

SETUP_STARTS = 5            # timed fresh interpreters per run, after one untimed
IMPORTTIME_STARTS = 3       # `python -X importtime` runs per traced run
EFFECT_REFILL = 0.7         # injected odds ratio on any_refill_30d

# Criterion 4's replicate: 200 providers x 3 patients per quarter
# (10,200 persons, ~8.8k cohort rows).
SIM_CONFIG = dict(n_providers=200, patients_per_provider_quarter=3.0,
                  effect_refill=EFFECT_REFILL)
SIM_ROUND = 4               # replicates per round
SIM_MODULES = ["rxdid.synthgen", "rxdid.prescriber_profile", "rxdid.cohort_builder",
               "rxdid.measures", "rxdid.study_analysis"]

# `rxdid all` on criterion 4's study size (10,200 persons, ~8.8k analysis
# rows), twice the default: parsing, cohort and the eight fits outweigh
# the interpreter start, and a run still holds several operations.
CLI_CONFIG = ("n_providers = 200\npatients_per_provider_quarter = 3.0\n"
              f"effect_refill = {EFFECT_REFILL}\neffect_initial_mme = 0.8\n")
CLI_ROUND = 2               # two runs of one seed, compared byte for byte
CLI_MODULES = ["rxdid.cli"]
CLI_FILES = sorted([
    "analysis_table.csv", "check.json", "cohort.csv", "did.json", "exclusions.csv",
    "ground_truth.json", "pretrend.json", "profiles.csv", "report.json", "table_one.csv",
] + [f"manifest_{s}.json" for s in (
    "simulate", "classify", "cohort", "describe", "pretrend", "did", "trends", "check")]
  + [f"trends_{o}.csv" for o in (
    "any_refill_30d", "initial_mme_7d", "persistent_use_90_180", "total_mme_30d")]
  + [f"inputs/{n}.csv" for n in (
    "antidepressants", "comorbidity_map", "drug_catalog", "enrollment", "medical",
    "persons", "pharmacy", "procedures")])
# Manifest fields that legitimately differ between two runs of one seed.
MANIFEST_VOLATILE = ("argv", "started", "finished")
ID_COLUMNS = ["person_id", "provider_id", "late_anchor"]
FAMILIES = {
    "persistent_use_90_180": oracles.LOGIT, "initial_mme_7d": oracles.GAMMA_LOG,
    "any_refill_30d": oracles.LOGIT, "total_mme_30d": oracles.GAMMA_LOG,
}

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mib": "MiB"}
STEPS = ["simulate", "classify", "cohort", "describe", "pretrend", "did", "trends", "check"]
PER_LAYER = {
    "synthgen.generate_s": "s", "synthgen.persons": "count",
    "claims_core.store_from_records_s": "s", "claims_core.write_store_s": "s",
    "claims_core.parse_inputs_s": "s", "claims_core.parse_inputs_calls": "count",
    "claims_core.rows_parsed": "count",
    "prescriber_profile.find_index_events_s": "s",
    "prescriber_profile.classify_providers_s": "s",
    "prescriber_profile.index_events": "count",
    "cohort_builder.build_cohort_s": "s", "cohort_builder.rows": "count",
    "cohort_builder.rows_per_event": "ratio",
    "measures.compute_outcomes_s": "s", "measures.compute_covariates_s": "s",
    "study_analysis.build_analysis_table_s": "s",
    "study_analysis.read_analysis_table_s": "s",
    "study_analysis.read_analysis_table_calls": "count",
    "study_analysis.run_did_s": "s", "study_analysis.run_pretrend_s": "s",
    "study_analysis.table_one_s": "s", "study_analysis.trend_series_s": "s",
    "glm_engine.fit_arrays_s": "s", "glm_engine.cluster_robust_cov_s": "s",
    "glm_engine.wald_test_s": "s", "glm_engine.marginal_effect_s": "s",
    "glm_engine.fit_calls": "count", "glm_engine.irls_iterations": "count",
    "glm_engine.design_mib_computed": "MiB",
    **{f"cli.{s}_s": "s" for s in STEPS},
    "cli.self_s": "s", "cli.bytes_hashed": "count",
    "import.scipy_stats_s": "s", "import.rxdid_s": "s",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log_path: str) -> tuple[int, float, float]:
    """Run a child to completion: (exit code, wall seconds, peak RSS MiB)."""
    with open(log_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=out, stderr=out)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def setup_seconds(modules: list[str], tmp: str) -> float:
    """Median wall time of fresh interpreters importing ``modules``."""
    argv = [sys.executable, "-c", "import " + ", ".join(modules)]
    times = []
    for i in range(SETUP_STARTS + 1):
        code, elapsed, _ = run_child(argv, os.path.join(tmp, "setup.log"))
        if code != 0:
            with open(os.path.join(tmp, "setup.log"), encoding="utf-8") as f:
                raise RuntimeError(f"importing {modules} failed:\n{f.read()}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def _importtime(argv: list[str], path: str) -> dict[str, float]:
    """Cumulative seconds of each top-level import in `-X importtime` output."""
    run_child(argv, path)
    top = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            fields = line.split("|")
            # Level 0 is one space after the bar; deeper levels indent more.
            if len(fields) == 3 and fields[1].strip().isdigit() and fields[2][1] != " ":
                top[fields[2].strip()] = int(fields[1]) / 1e6
    return top


def import_seconds(modules: list[str], tmp: str) -> dict[str, float]:
    """Cold import of the workload's rxdid modules, and the part of it
    that scipy.stats adds once numpy and scipy.linalg are loaded.

    rxdid reaches scipy.stats through `from scipy import stats`, which
    goes through importlib and so gets no line of its own in the
    importtime tree; it is therefore timed in a second interpreter.
    """
    path = os.path.join(tmp, "importtime.log")
    cold = [sys.executable, "-X", "importtime", "-c", "import " + ", ".join(modules)]
    stats = [sys.executable, "-X", "importtime", "-c",
             "import numpy, scipy.linalg, scipy.stats"]
    rxdid, scipy_stats = [], []
    for _ in range(IMPORTTIME_STARTS):
        top = _importtime(cold, path)
        rxdid.append(sum(v for k, v in top.items() if k.split(".")[0] == "rxdid"))
        scipy_stats.append(_importtime(stats, path)["scipy.stats"])
    return {"import.scipy_stats_s": statistics.median(scipy_stats),
            "import.rxdid_s": statistics.median(rxdid)}


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS loaded in this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def layer_metrics(traces: list[dict], ops: int) -> dict[str, float]:
    """Per-operation per-layer metrics from tracer dumps."""
    total = {name: 0.0 for name in PER_LAYER}
    for trace in traces:
        for span in trace["spans"]:
            dur = span["end"] - span["start"]
            self_time = dur - span["child"]
            name = span["name"]
            if name == "cli.main":
                total["cli.self_s"] += self_time
            elif name.startswith("cli."):
                total[f"{name}_s"] += dur
                total["cli.self_s"] += self_time
            elif f"{name}_s" in total:
                total[f"{name}_s"] += self_time
        for name, (seconds, _calls) in trace["summed"].items():
            total[f"{name}_s"] += seconds
        for name, value in trace["counts"].items():
            if name == "glm_engine.design_bytes_computed":
                total["glm_engine.design_mib_computed"] += value / 2**20
            else:
                total[name] += value
    events = total["prescriber_profile.index_events"]
    out = {k: v / ops for k, v in total.items()}
    out["cohort_builder.rows_per_event"] = (
        total["cohort_builder.rows"] / events if events else 0.0)
    return out


def read_table_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = [r for r in reader if r]
    cols = {}
    for j, name in enumerate(header):
        vals = [r[j] for r in rows]
        cols[name] = np.array(vals, dtype=object if name in ID_COLUMNS else float)
    return cols


def fit_problems(label, family, table, outcome, names, dropped, coef, se,
                 coefficients=None) -> list[str]:
    """Check one reported DiD fit against the numpy oracles."""
    X = oracles.design(table, names)
    y = np.asarray(table[outcome], dtype=float)
    problems = oracles.rank_problems(
        label, X, oracles.design(table, list(dropped)) if dropped else None)
    try:
        problems += oracles.estimate_problems(
            label, family, X, y, table["provider_id"], names.index("exposed:post"), coef, se)
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        problems.append(f"{label}: the reference refit failed: {e}")
    if coefficients is not None:
        problems += oracles.score_problems(family, X, y, coefficients, names)
    return problems


def mean_effect_problems(estimates: list[tuple[float, float]]) -> list[str]:
    """Mean interaction within 3 standard errors of ln(EFFECT_REFILL)."""
    k = len(estimates)
    mean = sum(b for b, _ in estimates) / k
    se = math.sqrt(sum(s * s for _, s in estimates)) / k
    target = math.log(EFFECT_REFILL)
    log(f"mean interaction {mean:.4f} over {k} replicates, SE {se:.4f}, "
        f"target {target:.4f}")
    if abs(mean - target) > 3 * se:
        return [f"mean interaction {mean:.4f} is more than 3 SE ({se:.4f}) "
                f"from ln {EFFECT_REFILL} = {target:.4f}"]
    return []


class Result:
    def __init__(self):
        self.durations: list[float] = []   # operations that completed
        self.spent = 0.0                     # all operations, failed ones too
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss = 0.0
        self.traces: list[dict] = []


# --- sim_replicate ----------------------------------------------------------

def sim_replicate(args, res: Result, tracer: Tracer | None) -> None:
    from rxdid import cohort_builder, prescriber_profile, study_analysis, synthgen
    from rxdid.claims_core import StudyCalendar
    from rxdid.measures import ComorbidityMap

    calendar = StudyCalendar()
    fits = []
    fit_arrays = study_analysis.fit_arrays

    def keep_fit(*a, **kw):
        fits.append(fit_arrays(*a, **kw))
        return fits[-1]
    study_analysis.fit_arrays = keep_fit

    def replicate(seed: int):
        # Criterion 4's pipeline, step for step.
        config = synthgen.SimConfig(seed=seed, **SIM_CONFIG)
        store, _ = synthgen.generate(config)
        codes = prescriber_profile.ProcedureCodeSet()
        events = prescriber_profile.find_index_events(
            store, codes, calendar.profiling_start, calendar.profiling_end)
        profiles = prescriber_profile.classify_providers(events, store)
        rows, _ = cohort_builder.build_cohort(store, profiles, calendar, codes)
        table = study_analysis.build_analysis_table(
            rows, store, ComorbidityMap.default(),
            frozenset(synthgen.ANTIDEPRESSANT_CODES))
        return table, study_analysis.run_did(table, "any_refill_30d")

    base = args.seed * 1000
    try:
        replicate(base)                     # warm-up: first fit, lazy imports
    except Exception:
        log(f"warm-up replicate failed:\n{traceback.format_exc()}")
    fits.clear()
    if tracer is not None:
        install(tracer)
    estimates: dict[int, tuple[float, float]] = {}
    k = 0
    while res.spent < args.seconds:
        for _ in range(SIM_ROUND):
            # A traced run repeats one round so its counts repeat exactly.
            seed = base + (k % SIM_ROUND if tracer is not None else k)
            if tracer is not None:
                tracer.op = k
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("replicate"):
                        table, est = replicate(seed)
                else:
                    table, est = replicate(seed)
            except Exception:
                res.spent += time.perf_counter() - t0
                res.failed += 1
                log(f"replicate seed={seed} failed:\n{traceback.format_exc()}")
                fits.clear()
                k += 1
                continue
            res.durations.append(time.perf_counter() - t0)
            res.spent += res.durations[-1]
            k += 1
            fit = fits.pop()
            se = (est.ci_high - est.ci_low) / (2 * oracles.Z95)
            if seed in estimates and estimates[seed] != (est.interaction, se):
                res.problems.append(f"seed {seed}: repeated replicate gave another estimate")
            estimates[seed] = (est.interaction, se)
            if est.n_obs != len(table["any_refill_30d"]):
                res.problems.append(f"seed {seed}: n_obs {est.n_obs} != table rows")
            res.problems += fit_problems(
                f"seed {seed}/any_refill_30d", oracles.LOGIT, table, "any_refill_30d",
                fit.names, fit.dropped_columns, est.interaction, se, fit.coefficients)
            del table, est, fit
    res.peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if estimates:
        res.problems += mean_effect_problems(list(estimates.values()))
    if tracer is not None:
        res.traces.append(tracer.to_json())


# --- cli_all ----------------------------------------------------------------

def _manifest_view(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return {k: v for k, v in data.items() if k not in MANIFEST_VOLATILE}


def run_dir_problems(label: str, a: str, b: str) -> list[str]:
    """Expected files present in both runs, and the runs identical."""
    problems = []
    for name in CLI_FILES:
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if not (os.path.isfile(pa) and os.path.isfile(pb)):
            problems.append(f"{label}: {name} missing")
            continue
        if name.startswith("manifest_"):
            same = _manifest_view(pa) == _manifest_view(pb)
        else:
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                same = fa.read() == fb.read()
        if not same:
            problems.append(f"{label}: {name} differs between two runs of one seed")
    for d in (a, b):
        extra = {os.path.relpath(os.path.join(p, n), d)
                 for p, _, names in os.walk(d) for n in names} - set(CLI_FILES)
        if extra:
            problems.append(f"{label}: unexpected files {sorted(extra)}")
    return problems


def did_problems(label: str, run_dir: str) -> list[str]:
    """Each did.json estimate against a refit from analysis_table.csv."""
    with open(os.path.join(run_dir, "did.json"), encoding="utf-8") as f:
        did = json.load(f)
    table = read_table_csv(os.path.join(run_dir, "analysis_table.csv"))
    covariates = [c for c in table if c not in ID_COLUMNS + ["exposed", "post"]
                  and c not in FAMILIES]
    problems = []
    if sorted(did) != sorted(FAMILIES):
        return [f"{label}: did.json outcomes {sorted(did)}"]
    for outcome, family in FAMILIES.items():
        est = did[outcome]
        names = ["intercept", "exposed", "post", "exposed:post"] + [
            c for c in covariates if c not in est["dropped_columns"]]
        se = (est["ci_high"] - est["ci_low"]) / (2 * oracles.Z95)
        if est["n_obs"] != len(table[outcome]) or est["family"] != family:
            problems.append(f"{label}/{outcome}: n_obs or family disagrees with the table")
        problems += fit_problems(f"{label}/{outcome}", family, table, outcome, names,
                                 est["dropped_columns"], est["interaction"], se)
    return problems


def cli_all(args, res: Result, tmp: str) -> None:
    cfg = os.path.join(tmp, "sim.cfg")
    with open(cfg, "w", encoding="utf-8") as f:
        f.write(CLI_CONFIG)
    base = args.seed * 1000
    r = 0
    while res.spent < args.seconds:
        # A traced run repeats one seed so its counts repeat exactly.
        seed = base + (0 if args.trace else r)
        dirs = []
        for i in range(CLI_ROUND):
            out = os.path.join(tmp, f"run{r}_{i}")
            rxdid = ["all", "--out", out, "--sim", cfg, "--seed", str(seed)]
            if args.trace:
                trace_path = out + ".trace.json"
                argv = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path] + rxdid
            else:
                argv = [sys.executable, "-m", "rxdid.cli"] + rxdid
            code, elapsed, rss = run_child(argv, out + ".log")
            res.spent += elapsed
            if code != 0:
                res.failed += 1
                with open(out + ".log", encoding="utf-8", errors="replace") as f:
                    log(f"rxdid all seed={seed} exited {code}:\n{f.read()}")
                continue
            res.durations.append(elapsed)
            res.peak_rss = max(res.peak_rss, rss)
            if args.trace:
                with open(trace_path, encoding="utf-8") as f:
                    res.traces.append(json.load(f))
            dirs.append(out)
        if len(dirs) == CLI_ROUND:
            res.problems += run_dir_problems(f"seed {seed}", *dirs)
            res.problems += did_problems(f"seed {seed}", dirs[0])
        for i in range(CLI_ROUND):
            shutil.rmtree(os.path.join(tmp, f"run{r}_{i}"), ignore_errors=True)
        r += 1


# --- entry point ------------------------------------------------------------

WORKLOADS = {"sim_replicate": SIM_MODULES, "cli_all": CLI_MODULES}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rxdid", "__init__.py")):
        log(f"error: no rxdid sources under {SRC}")
        return 2
    sys.path.insert(0, SRC)
    import rxdid
    if os.path.dirname(os.path.dirname(os.path.abspath(rxdid.__file__))) != SRC:
        log(f"error: imported rxdid from {rxdid.__file__}, not from {SRC}")
        return 2

    modules = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    tmp = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        res = Result()
        res.problems += [f"oracle self-test: {p}" for p in selftest.run()]
        setup_s = setup_seconds(modules, tmp)
        if args.workload == "sim_replicate":
            sim_replicate(args, res, Tracer() if args.trace else None)
        else:
            cli_all(args, res, tmp)
        log(f"blas threads: {blas_threads()}")
        ops = len(res.durations)
        attempted = ops + res.failed
        if args.trace:
            metrics = layer_metrics(res.traces, max(ops, 1))
            metrics.update(import_seconds(modules, tmp))
            units = PER_LAYER
            trace_path = os.path.join(WORK, f"trace_{args.workload}_seed{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as f:
                json.dump(res.traces, f)
            log(f"spans in {trace_path}")
        else:
            metrics = {
                "setup_s": setup_s,
                "op_p50_s": statistics.median(res.durations) if ops else 0.0,
                "ops_per_s": ops / res.spent if ops else 0.0,
                "peak_rss_mib": res.peak_rss,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in res.problems:
        log(f"CHECK FAILED: {problem}")
    log(f"{ops} ops in {res.spent:.2f} s timed; durations "
        + " ".join(f"{d:.3f}" for d in res.durations))
    print(json.dumps({
        "correct": not res.problems and ops > 0,
        "attempted": attempted,
        "failed": res.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
