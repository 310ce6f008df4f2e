"""CLI exit codes, run-directory outputs, and byte-level reproducibility."""
import builtins
import collections
import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from datetime import timedelta

import numpy as np
import pytest

import rxdid.cli as cli
import rxdid.glm_engine as glm_engine
import rxdid.study_analysis as sa
from rxdid.cli import STEPS, main
from conftest import simulated_pipeline
from rxdid.glm_engine import fit_arrays
from rxdid.claims_core import ClaimsError, StudyCalendar
from rxdid.cohort_builder import Period
from rxdid.measures import compute_outcomes, mme_of_fill
from rxdid.study_analysis import (
    ANALYSIS_TABLE_COLUMNS,
    AnalysisError,
    read_analysis_table,
    write_analysis_table,
)
from rxdid.synthgen import DEFAULT_PROCEDURE_WEIGHTS, SimConfig

SIM_CFG = (
    "seed = 5\n"
    "n_providers = 50\n"
    "patients_per_provider_quarter = 1.5\n"
)


@pytest.fixture
def sim_file(tmp_path):
    p = tmp_path / "sim.cfg"
    p.write_text(SIM_CFG)
    return str(p)


def _tree_bytes(out_dir, skip_manifests=True):
    found = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            if skip_manifests and name.startswith("manifest_"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir)
            found[rel] = open(path, "rb").read()
    return found


def test_all_happy_path(tmp_path, sim_file, capsys):
    out = str(tmp_path / "run1")
    assert main(["all", "--out", out, "--sim", sim_file]) == 0
    for name in [
        "profiles.csv", "cohort.csv", "exclusions.csv", "analysis_table.csv",
        "table_one.csv", "pretrend.json", "did.json", "report.json",
        "check.json", "ground_truth.json",
        "trends_any_refill_30d.csv", "trends_initial_mme_7d.csv",
        "trends_persistent_use_90_180.csv", "trends_total_mme_30d.csv",
    ]:
        assert os.path.exists(os.path.join(out, name)), name
    for step in ["simulate", "classify", "cohort", "describe", "pretrend",
                 "did", "trends", "check"]:
        assert os.path.exists(os.path.join(out, f"manifest_{step}.json"))
    report = json.load(open(os.path.join(out, "report.json")))
    assert set(report["did"]) == {
        "any_refill_30d", "initial_mme_7d", "persistent_use_90_180",
        "total_mme_30d",
    }
    assert "pretrend" in report and "exclusions" in report
    # check step prints one verdict line per injected outcome
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3 and all(": null" in l for l in lines)


def test_same_seed_runs_byte_identical(tmp_path, sim_file):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["all", "--out", out1, "--sim", sim_file]) == 0
    assert main(["all", "--out", out2, "--sim", sim_file]) == 0
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_threads_do_not_change_outputs(tmp_path, sim_file):
    out1, out8 = str(tmp_path / "t1"), str(tmp_path / "t8")
    assert main(["all", "--out", out1, "--sim", sim_file, "--threads", "1"]) == 0
    assert main(["all", "--out", out8, "--sim", sim_file, "--threads", "8"]) == 0
    assert _tree_bytes(out1) == _tree_bytes(out8)


def test_chained_steps_match_all(tmp_path, sim_file):
    out_all, out_chain = str(tmp_path / "a"), str(tmp_path / "c")
    assert main(["all", "--out", out_all, "--sim", sim_file]) == 0
    for step in ["simulate", "classify", "cohort", "describe", "pretrend",
                 "did", "trends", "check"]:
        assert main([step, "--out", out_chain, "--sim", sim_file]) == 0, step
    assert _tree_bytes(out_all) == _tree_bytes(out_chain)


def test_manifest_excludes_nothing_but_time(tmp_path, sim_file):
    out = str(tmp_path / "m")
    assert main(["simulate", "--out", out, "--sim", sim_file]) == 0
    manifest = json.load(open(os.path.join(out, "manifest_simulate.json")))
    assert manifest["command"] == "simulate"
    assert "pharmacy.csv" in manifest["outputs"]
    assert manifest["tool_version"]


def test_did_without_cohort_is_validation_error(tmp_path, capsys):
    out = str(tmp_path / "empty")
    os.makedirs(out)
    assert main(["did", "--out", out]) == 1
    assert "error" in capsys.readouterr().err


def test_cohort_without_classify_is_validation_error(tmp_path, sim_file):
    out = str(tmp_path / "r")
    assert main(["simulate", "--out", out, "--sim", sim_file]) == 0
    assert main(["cohort", "--out", out]) == 1


def test_check_without_report_is_validation_error(tmp_path, sim_file):
    out = str(tmp_path / "r")
    assert main(["simulate", "--out", out, "--sim", sim_file]) == 0
    assert main(["check", "--out", out]) == 1


def test_unknown_flag(tmp_path, capsys):
    assert main(["all", "--out", str(tmp_path / "x"), "--frobnicate"]) == 1


def test_unknown_subcommand(capsys):
    assert main(["explode", "--out", "x"]) == 1


def test_missing_out_flag(capsys):
    assert main(["all"]) == 1


def test_threads_must_be_positive(tmp_path, capsys):
    assert main(["all", "--out", str(tmp_path / "x"), "--threads", "0"]) == 1


def test_bad_sim_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("warp_factor = 9\n")
    assert main(["simulate", "--out", str(tmp_path / "r"), "--sim", str(bad)]) == 1


def test_bad_thresholds(tmp_path, sim_file):
    out = str(tmp_path / "r")
    assert main(["simulate", "--out", out, "--sim", sim_file]) == 0
    assert main(["classify", "--out", out, "--thresholds", "0.25"]) == 1


@pytest.mark.parametrize("thresholds", ["a,b,5", "0.25,0.75,x", "1/0,0.75,5", "0.25,0.75"])
def test_unparsable_thresholds_are_one_line_validation_error(tmp_path, sim_file, capsys,
                                                             thresholds):
    out = str(tmp_path / "r")
    assert main(["simulate", "--out", out, "--sim", sim_file]) == 0
    capsys.readouterr()
    assert main(["classify", "--out", out, "--thresholds", thresholds]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --thresholds") and len(err.splitlines()) == 1


@pytest.mark.parametrize("thresholds", ["0.9,0.1,5", "0.25,0.75,0"])
def test_out_of_range_thresholds_are_one_line_validation_error(tmp_path, sim_file, capsys,
                                                               thresholds):
    # checked when the flag is parsed, also by a step that classifies nothing
    out = str(tmp_path / "r")
    for step in ["simulate", "classify", "cohort"]:
        assert main([step, "--out", out, "--sim", sim_file]) == 0
    capsys.readouterr()
    assert main(["did", "--out", out, "--thresholds", thresholds]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --thresholds {thresholds}: ") and len(err.splitlines()) == 1
    assert not os.path.exists(os.path.join(out, "did.json"))


@pytest.mark.parametrize("text, named", [
    ("pre_start=2011-08-22\nfoo=2012-01-01\n", ":2: unknown calendar key 'foo'"),
    ("# comment\n\npre_start\n", ":3: expected key=ISO-date"),
    ("profiling_start=2011-08-22\n", ":1: unknown calendar key 'profiling_start'"),
    ("pre_end=2014-10-06\npost_start=2014-10-06\n", ": a non-empty washout interval"),
    ("pre_start=2011-08-22\npre_start=2011-08-23\n", ":2: calendar key 'pre_start' given twice"),
    ("post_end = 2015-13-01\n", ":1: post_end: month must be in 1..12"),
    ("pre_start=2014-08-22\n", ": pre_start must be <= pre_end"),
    ("post_start=2015-10-06\n", ": post_start must be <= post_end"),
    ("pre_start = 2011-08-22 # d\xe9but\n", ":1: not UTF-8: invalid continuation byte"),
])
def test_bad_calendar_file_is_one_line_validation_error_naming_it(tmp_path, capsys,
                                                                  text, named):
    cal = tmp_path / "cal.txt"
    cal.write_text(text, encoding="latin-1")  # so "\xe9" is one byte that is not UTF-8
    assert main(["simulate", "--out", str(tmp_path / "r"), "--calendar", str(cal)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cal}{named}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("line, named", [
    ("n_providers = abc", "n_providers"),
    ("n_providers = 1.5", "n_providers"),
    ("refill_prob = often", "refill_prob"),
    ("proc_weight_knee_arthroscopy = x", "proc_weight_knee_arthroscopy"),
    ("initial_mme_mean = inf", "initial_mme_mean"),
    ("effect_refill = nan", "effect_refill"),
    ("refill_prob = 0", "refill_prob"),
    ("persistence_prob = 1", "persistence_prob"),
    ("share_mean_high = 1.0", "share_mean_high"),
    ("share_mean_low = 0.0", "share_mean_low"),
])
def test_bad_sim_config_value_is_one_line_validation_error(tmp_path, capsys, line, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["simulate", "--out", str(tmp_path / "r"), "--sim", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("text, named", [
    ("seed = 1\nn_providers = 50\nseed = 2\n", ":3: config key 'seed' given twice"),
    ("seed = 1\nn_provider = 50\n", ":2: unknown config key 'n_provider'"),
    ("# small\nn_providers = many\n", ":2: n_providers: invalid literal"),
    ("seed = 1\nn_providers = 50  # cinquante, pas cent\xe9\n", ":2: not UTF-8"),
])
def test_bad_sim_config_line_is_one_line_validation_error_naming_file_and_line(
        tmp_path, capsys, text, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="latin-1")  # so "\xe9" is one byte that is not UTF-8
    assert main(["simulate", "--out", str(tmp_path / "r"), "--sim", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}{named}") and len(err.splitlines()) == 1


def test_calendar_file_takes_trailing_comments(tmp_path, sim_file):
    cal = tmp_path / "cal.txt"
    cal.write_text("# the default study calendar\n"
                   "pre_start = 2011-08-22  # study start\n"
                   "pre_end = 2014-08-21    # last pre day\n"
                   "post_start=2014-10-06#first post day\n")
    out_cal, out_default = str(tmp_path / "cal"), str(tmp_path / "default")
    assert main(["simulate", "--out", out_cal, "--sim", sim_file, "--calendar", str(cal)]) == 0
    assert main(["simulate", "--out", out_default, "--sim", sim_file]) == 0
    assert _tree_bytes(out_cal) == _tree_bytes(out_default)


@pytest.mark.parametrize("seed_line", ["", "seed = 1\n"], ids=["no_seed_line", "seed_line"])
def test_seed_flag_sets_the_simulation_seed(tmp_path, seed_line):
    # SIM_CFG says seed = 5; --seed 5 on a config without that line, or
    # with another seed, must give the same run.
    assert SIM_CFG.startswith("seed = 5\n")
    stated, flagged = tmp_path / "stated.cfg", tmp_path / "flagged.cfg"
    stated.write_text(SIM_CFG)
    flagged.write_text(seed_line + SIM_CFG.removeprefix("seed = 5\n"))
    out_stated, out_flagged = str(tmp_path / "stated"), str(tmp_path / "flagged")
    assert main(["all", "--out", out_stated, "--sim", str(stated)]) == 0
    assert main(["all", "--out", out_flagged, "--sim", str(flagged), "--seed", "5"]) == 0
    assert _tree_bytes(out_flagged) == _tree_bytes(out_stated)
    assert json.load(open(os.path.join(out_flagged, "ground_truth.json")))["seed"] == 5


def test_classify_without_inputs_dir_names_it(tmp_path, capsys):
    out = str(tmp_path / "r")
    os.makedirs(out)
    assert main(["classify", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: no inputs/ directory under {out};")
    assert len(err.splitlines()) == 1


def test_classify_with_an_input_csv_missing_names_it(tmp_path, sim_file, capsys):
    out = str(tmp_path / "r")
    assert main(["simulate", "--out", out, "--sim", sim_file]) == 0
    path = os.path.join(out, "inputs", "medical.csv")
    os.remove(path)
    capsys.readouterr()
    assert main(["classify", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {path}\n"
    assert not os.path.exists(os.path.join(out, "profiles.csv"))


def test_all_zero_procedure_weights_are_one_line_validation_error(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("".join(f"proc_weight_{name} = 0\n" for name in DEFAULT_PROCEDURE_WEIGHTS))
    assert main(["simulate", "--out", str(tmp_path / "r"), "--sim", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "procedure weights" in err
    assert len(err.splitlines()) == 1


def _post_only_table(n=40):
    cal = StudyCalendar()
    table = {}
    rng = np.random.default_rng(1)
    for name in ANALYSIS_TABLE_COLUMNS:
        table[name] = np.zeros(n)
    table["person_id"] = np.array([f"p{i}" for i in range(n)], dtype=object)
    table["provider_id"] = np.array([f"dr{i % 6}" for i in range(n)], dtype=object)
    table["late_anchor"] = np.array([cal.post_start] * n, dtype=object)
    table["exposed"] = (np.arange(n) % 2).astype(float)
    table["post"] = np.ones(n)
    table["any_refill_30d"] = rng.integers(0, 2, n).astype(float)
    table["persistent_use_90_180"] = rng.integers(0, 2, n).astype(float)
    table["initial_mme_7d"] = rng.gamma(4.0, 50.0, n)
    table["total_mme_30d"] = rng.gamma(4.0, 60.0, n)
    table["age"] = rng.integers(30, 70, n).astype(float)
    return table


def test_pretrend_post_only_is_analysis_error(tmp_path, capsys):
    out = str(tmp_path / "r")
    os.makedirs(os.path.join(out, "inputs"))
    write_analysis_table(os.path.join(out, "analysis_table.csv"), _post_only_table())
    assert main(["pretrend", "--out", out]) == 2
    assert "analysis error" in capsys.readouterr().err


def _no_exposed_year3_table():
    """Pre-period rows in years 1-3, but no exposed row in year 3."""
    cal = StudyCalendar()
    table = _post_only_table(n=60)
    table["post"][:] = 0.0
    half = np.arange(60) // 2  # rows alternate unexposed, exposed
    year = np.where(table["exposed"] == 1.0, half % 2, half % 3)
    table["late_anchor"] = np.array(
        [cal.pre_start + timedelta(days=int(y * 365.25) + 100) for y in year], dtype=object)
    return table


def _no_exposed_post_table():
    """Both groups before, only the unexposed after."""
    table = _post_only_table(n=60)
    half = np.arange(60) // 2  # rows alternate unexposed, exposed
    table["post"] = np.where(table["exposed"] == 1.0, 0.0, half % 2)
    return table


def test_pretrend_empty_exposed_year3_cell_is_one_line_analysis_error(tmp_path, capsys):
    out = str(tmp_path / "r")
    os.makedirs(os.path.join(out, "inputs"))
    write_analysis_table(os.path.join(out, "analysis_table.csv"), _no_exposed_year3_table())
    assert main(["pretrend", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("analysis error: ") and len(err.splitlines()) == 1
    assert "empty exposure x period cell (exposed=1, year3=1)" in err
    assert not os.path.exists(os.path.join(out, "pretrend.json"))


@pytest.mark.parametrize("step, table, cell", [
    ("did", _no_exposed_post_table, "exposed=1, post=1"),
    ("pretrend", _no_exposed_year3_table, "exposed=1, year3=1"),
])
def test_empty_cell_is_the_first_outcomes_one_line_in_either_model(
        tmp_path, capsys, step, table, cell):
    # The cell rule runs once per model, and still names the outcome it stops.
    out = str(tmp_path / "r")
    os.makedirs(os.path.join(out, "inputs"))
    write_analysis_table(os.path.join(out, "analysis_table.csv"), table())
    assert main([step, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"analysis error: persistent_use_90_180: empty exposure x period cell ({cell})\n")
    assert sorted(os.listdir(out)) == ["analysis_table.csv", "inputs"]


def test_did_nonconvergence_is_analysis_error(tmp_path, sim_file, capsys, monkeypatch):
    out = str(tmp_path / "r")
    for step in ["simulate", "classify", "cohort"]:
        assert main([step, "--out", out, "--sim", sim_file]) == 0
    capsys.readouterr()
    monkeypatch.setattr(glm_engine, "MAX_ITERATIONS", 1)
    assert main(["did", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("analysis error: ") and "did not converge" in err
    assert len(err.splitlines()) == 1
    assert not os.path.exists(os.path.join(out, "did.json"))


@pytest.mark.parametrize("step", ["did", "pretrend"])
def test_fit_error_names_its_outcome(tmp_path, sim_file, capsys, step):
    out = str(tmp_path / "r")
    for s in ["simulate", "classify", "cohort"]:
        assert main([s, "--out", out, "--sim", sim_file]) == 0
    path = os.path.join(out, "analysis_table.csv")
    table = read_analysis_table(path)
    table["persistent_use_90_180"][:] = 0.0
    write_analysis_table(path, table)
    capsys.readouterr()
    assert main([step, "--out", out]) == 2
    assert capsys.readouterr().err == ("analysis error: persistent_use_90_180: "
                                       "constant binary response; the intercept diverges\n")


def test_dump_fit_written(tmp_path, sim_file):
    out = str(tmp_path / "r")
    assert main(["simulate", "--out", out, "--sim", sim_file]) == 0
    assert main(["classify", "--out", out]) == 0
    assert main(["cohort", "--out", out]) == 0
    assert main(["did", "--out", out, "--dump-fit"]) == 0
    dump = open(os.path.join(out, "fit_dump.txt")).read()
    assert "== any_refill_30d (binomial_logit) ==" in dump
    assert "converged=True" in dump


def _counted(monkeypatch, name):
    """Replace cli.<name> with a wrapper; the returned list holds one entry per call."""
    calls = []
    fn = getattr(cli, name)

    def counting(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append(result)
        return result
    monkeypatch.setattr(cli, name, counting)
    return calls


def _column_digests(table):
    return {
        k: hashlib.sha256(repr(v.tolist()).encode() if v.dtype == object else v.tobytes()).hexdigest()
        for k, v in table.items()
    }


def test_all_parses_once_and_reads_no_table(tmp_path, sim_file, monkeypatch):
    parsed = _counted(monkeypatch, "parse_inputs")
    read = _counted(monkeypatch, "read_analysis_table")
    assert main(["all", "--out", str(tmp_path / "a"), "--sim", sim_file]) == 0
    assert (len(parsed), len(read)) == (0, 0)


def test_all_reads_each_file_of_the_run_at_most_once(tmp_path, sim_file, monkeypatch):
    out = str(tmp_path / "a")
    reads = collections.Counter()
    real_open = builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode and isinstance(file, (str, os.PathLike)):
            reads[os.path.relpath(file, out)] += 1
        return real_open(file, mode, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["all", "--out", out, "--sim", sim_file]) == 0
    monkeypatch.undo()
    written = _tree_bytes(out)
    assert {"inputs/procedures.csv", "profiles.csv", "pretrend.json"} <= set(written)
    # The manifests hash each input file once; no step reads back what another made.
    assert {n: reads[n] for n in written if reads[n] > 1} == {}
    assert {n for n in written if reads[n]} == {n for n in written if n.startswith("inputs/")}


def _count_in_every_module(monkeypatch, fn):
    """Count calls of ``fn`` made through any rxdid module that imports it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("rxdid") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


def test_all_builds_one_design_per_model(tmp_path, sim_file, monkeypatch):
    # Each model's design is rank-checked once for its four outcomes, while
    # each outcome is still fitted once through the names the tracer wraps.
    checks = _count_in_every_module(monkeypatch, glm_engine._dependent_columns)
    fits = _count_in_every_module(monkeypatch, fit_arrays)
    dids = _count_in_every_module(monkeypatch, sa.run_did)
    pretrends = _count_in_every_module(monkeypatch, sa.run_pretrend)
    assert main(["all", "--out", str(tmp_path / "a"), "--sim", sim_file]) == 0
    assert (len(checks), len(fits), len(dids), len(pretrends)) == (2, 8, 4, 4)


def test_dump_fit_renders_the_fits_did_made(tmp_path, sim_file, monkeypatch):
    out = str(tmp_path / "r")
    for step in ["simulate", "classify", "cohort"]:
        assert main([step, "--out", out, "--sim", sim_file]) == 0
    fits = _count_in_every_module(monkeypatch, fit_arrays)
    assert main(["did", "--out", out, "--dump-fit"]) == 0
    assert len(fits) == 4
    did = json.load(open(os.path.join(out, "did.json")))
    dump = open(os.path.join(out, "fit_dump.txt")).read()
    for outcome, est in did.items():
        section = dump.split(f"== {outcome} ")[1].split("\n== ")[0]
        coef = re.search(r"^coef exposed:post = ([-+.\deE]+)$", section, re.M)
        assert coef is not None, section
        assert float(coef.group(1)) == est["interaction"]


def test_cohort_rows_carry_the_profiled_index_event(sim_file):
    run = simulated_pipeline(SimConfig.from_file(sim_file))
    store = run.store
    by_key = {(e.claim.person_id, e.late_anchor, e.claim.provider_id): e for e in run.events}
    pre = [r for r in run.rows if r.period is Period.PRE]
    assert pre
    for row in pre:
        event = row.index_event
        assert event == by_key[(row.person_id, event.late_anchor, event.claim.provider_id)]
        assert compute_outcomes(row, store).initial_mme_7d == sum(
            mme_of_fill(f, store.catalog[f.drug_code]) for f in event.first_opioid_fills)


def test_standalone_step_reads_table_once(tmp_path, sim_file, monkeypatch):
    out = str(tmp_path / "r")
    for step in ["simulate", "classify", "cohort"]:
        assert main([step, "--out", out, "--sim", sim_file]) == 0
    parsed = _counted(monkeypatch, "parse_inputs")
    read = _counted(monkeypatch, "read_analysis_table")
    assert main(["did", "--out", out]) == 0
    assert (len(parsed), len(read)) == (0, 1)


def _assert_same_table(back, table):
    for t in (back, table):
        # the table is its columns and nothing else
        assert list(t) == ANALYSIS_TABLE_COLUMNS
        assert all(isinstance(v, np.ndarray) for v in t.values())
    for name in ANALYSIS_TABLE_COLUMNS:
        assert back[name].dtype == table[name].dtype, name
        if table[name].dtype == object:
            assert back[name].tolist() == table[name].tolist(), name
        else:
            # bit for bit: equal values and equal signs of zero
            assert back[name].tobytes() == table[name].tobytes(), name


def test_table_read_back_equals_built_table(tmp_path, sim_file, monkeypatch):
    built = _counted(monkeypatch, "build_analysis_table")
    out = str(tmp_path / "r")
    for step in ["simulate", "classify", "cohort"]:
        assert main([step, "--out", out, "--sim", sim_file]) == 0
    (table,) = built
    path = os.path.join(out, "analysis_table.csv")
    _assert_same_table(read_analysis_table(path), table)
    # the simulated outcomes are short decimals; gamma draws use every digit
    table = _post_only_table()
    write_analysis_table(path, table)
    _assert_same_table(read_analysis_table(path), table)


def test_steps_leave_shared_table_unchanged(tmp_path, sim_file, monkeypatch):
    built = _counted(monkeypatch, "build_analysis_table")
    digests = []
    describe = cli._STEP_FUNCS["describe"]

    def digest_then_describe(args, run):
        assert run.table is built[0]
        digests.append(_column_digests(run.table))
        return describe(args, run)
    monkeypatch.setitem(cli._STEP_FUNCS, "describe", digest_then_describe)
    assert main(["all", "--out", str(tmp_path / "a"), "--sim", sim_file]) == 0
    (table,) = built
    assert digests == [_column_digests(table)]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raised, code", [
    (None, 0), (ClaimsError("bad input"), 1), (AnalysisError("no fit"), 2),
])
def test_main_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, capsys,
                                                   enabled, raised, code):
    seen = []

    def step(args, run):
        seen.append(gc.isenabled())
        if raised is not None:
            raise raised
        return []
    monkeypatch.setitem(cli._STEP_FUNCS, "simulate", step)
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["simulate", "--out", str(tmp_path / "run")]) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False]


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_import_sets_one_blas_thread_unless_preset(preset, expected):
    import rxdid
    src = os.path.dirname(os.path.dirname(rxdid.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, rxdid.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == expected


def test_unknown_drug_code_is_rejected_not_fatal(tmp_path, sim_file):
    out = str(tmp_path / "r")
    assert main(["simulate", "--out", out, "--sim", sim_file]) == 0
    path = os.path.join(out, "inputs", "pharmacy.csv")
    lines = open(path).read().splitlines(keepends=True)
    fills = [i for i, l in enumerate(lines) if l.startswith("p0000002,")]
    fields = lines[fills[1]].split(",")
    fields[2] = "ZZZ9"
    lines[fills[1]] = ",".join(fields)
    open(path, "w").write("".join(lines))
    for step in ["classify", "cohort", "did"]:
        assert main([step, "--out", out]) == 0, step


def _replace_header(text):
    return "bogus," + text.split("\n", 1)[1]


def _drop_header(text):
    return text.split("\n", 1)[1]


def _drop_condition(text):
    return "".join(l for l in text.splitlines(keepends=True)
                   if not l.startswith("congestive_heart_failure,"))


def _add_condition(text):
    return text + "gout,2740\n"


def _append(line):
    return lambda text: text + line + "\n"


def _replace_with(text):
    return lambda _: text


def _set_in_first_entry(key, value, under=None):
    """An edit of a JSON file that sets ``key`` of its first entry (of the
    object under ``under``, if given) to ``value``."""
    def edit(text):
        data = json.loads(text)
        next(iter((data if under is None else data[under]).values()))[key] = value
        return json.dumps(data)
    return edit


def _edit_line(number, edit):
    """An edit of line ``number`` of a file."""
    def apply(text):
        lines = text.splitlines(keepends=True)
        lines[number - 1] = edit(lines[number - 1])
        return "".join(lines)
    return apply


def _append_e_acute(line):
    # written as Latin-1, the byte 0xe9, which is not UTF-8 before a newline
    return line.rstrip("\n") + "\xe9\n"


def _open_quote(line):
    return line.replace(",", ',"', 1)


def _edit_first_row(column, value):
    def edit(text):
        lines = text.splitlines(keepends=True)
        fields = lines[1].rstrip("\r\n").split(",")
        fields[column] = value
        lines[1] = ",".join(fields) + "\n"
        return "".join(lines)
    return edit


@pytest.mark.parametrize("rel, edit, step, named", [
    ("inputs/comorbidity_map.csv", _replace_header, "cohort", "comorbidity_map.csv"),
    ("inputs/comorbidity_map.csv", _drop_condition, "cohort", "congestive_heart_failure"),
    ("inputs/comorbidity_map.csv", _add_condition, "cohort", "gout"),
    ("inputs/procedures.csv", _replace_header, "classify", "procedures.csv"),
    ("inputs/antidepressants.csv", _replace_header, "cohort", "antidepressants.csv"),
    ("profiles.csv", _drop_header, "cohort", "profiles.csv"),
    ("inputs/comorbidity_map.csv", _append("depression"), "cohort", "comorbidity_map.csv"),
    ("inputs/procedures.csv", _append("knee_arthroscopy"), "classify", "procedures.csv"),
    ("inputs/procedures.csv", _append("open_cholecystectomy,47562"), "classify", "47562"),
    ("inputs/antidepressants.csv", _append("AD001,extra"), "cohort", "antidepressants.csv"),
    ("profiles.csv", _edit_first_row(2, "x"), "cohort", "profiles.csv"),
    ("profiles.csv", _edit_first_row(4, "3/0"), "cohort", "profiles.csv"),
    ("profiles.csv", _edit_first_row(4, "2/1"), "cohort", "n_hydrocodone/n_events"),
    ("profiles.csv", _edit_first_row(3, "999"), "cohort", "n_hydrocodone <= n_events"),
    ("profiles.csv", _edit_first_row(2, "0"), "cohort", "n_events >= 1"),
    ("inputs/comorbidity_map.csv", _append("obesity,"), "cohort", "icd9_prefix"),
    ("inputs/procedures.csv", _append("knee_arthroscopy,"), "classify", "cpt"),
    ("exclusions.csv", _replace_with(""), "did", "exclusions.csv"),
    ("exclusions.csv", _edit_first_row(1, "x"), "did", "exclusions.csv"),
    ("exclusions.csv", _edit_first_row(0, "Bogus"), "did", "Bogus"),
    ("pretrend.json", _replace_with("{"), "did", "pretrend.json"),
    ("pretrend.json", _replace_with("[]\n"), "did", "pretrend.json"),
    ("analysis_table.csv", _replace_header, "did", "analysis_table.csv"),
    ("analysis_table.csv", _edit_first_row(3, "x"), "did", "analysis_table.csv"),
    ("analysis_table.csv", _edit_first_row(ANALYSIS_TABLE_COLUMNS.index("any_refill_30d"), "0.5"),
     "did", "any_refill_30d = 0.5, expected 0 or 1"),
    ("analysis_table.csv", _edit_first_row(ANALYSIS_TABLE_COLUMNS.index("age"), "nan"),
     "did", "age = nan, expected a finite number"),
    ("report.json", _replace_with("{"), "check", "report.json"),
    ("ground_truth.json", _replace_with("{"), "check", "ground_truth.json"),
    ("ground_truth.json", _replace_with('{"run_id": "x"}\n'), "did", "ground_truth.json"),
    ("report.json", _replace_with("[]\n"), "check", "report.json"),
    ("pretrend.json", _set_in_first_entry("n_obs", "x"), "did", "pretrend.json"),
    ("report.json", _set_in_first_entry("p_value", "x", under="did"), "check", "report.json"),
    ("inputs/pharmacy.csv", _edit_line(500, _append_e_acute), "classify",
     "pharmacy.csv:500: not UTF-8: invalid continuation byte"),
    ("pretrend.json", _edit_line(3, _append_e_acute), "did",
     "pretrend.json:3: not UTF-8: invalid continuation byte"),
    ("inputs/medical.csv", _edit_line(101, _open_quote), "classify",
     "medical.csv:101: field larger than field limit (131072)"),
    ("inputs/pharmacy.csv", _edit_line(101, _open_quote), "classify",
     "pharmacy.csv:101: unexpected end of data"),
    ("inputs/comorbidity_map.csv", _append("obesity,."), "cohort", "empty icd9_prefix"),
    ("inputs/procedures.csv", _append("spinal_fusion,22612"), "classify",
     "procedures.csv: unknown procedures ['spinal_fusion']"),
], ids=["comorbidity_map_header", "comorbidity_map_missing", "comorbidity_map_unknown",
        "procedures_header", "antidepressants_header", "profiles_header",
        "comorbidity_map_one_field", "procedures_one_field", "procedures_code_twice",
        "antidepressants_two_fields", "profiles_n_events", "profiles_zero_denominator",
        "profiles_share_disagrees", "profiles_more_hydrocodone_than_events",
        "profiles_no_events",
        "comorbidity_map_empty_prefix", "procedures_empty_cpt", "exclusions_empty",
        "exclusions_count", "exclusions_reason", "pretrend_not_json", "pretrend_not_object",
        "analysis_table_header", "analysis_table_value", "analysis_table_binary_outcome",
        "analysis_table_nan_age", "report_not_json",
        "ground_truth_not_json", "ground_truth_missing_keys", "report_not_object",
        "pretrend_str_n_obs", "report_str_p_value", "pharmacy_not_utf8", "pretrend_not_utf8",
        "medical_quote_past_field_limit", "pharmacy_quote_to_end_of_file",
        "comorbidity_map_dot_prefix", "procedures_unknown_name"])
def test_bad_reference_file_is_one_line_validation_error(
        tmp_path, sim_file, capsys, rel, edit, step, named):
    out = str(tmp_path / "r")
    # every step before ``step``, and at least simulate and classify
    for s in STEPS[:max(2, STEPS.index(step))]:
        assert main([s, "--out", out, "--sim", sim_file]) == 0
    path = os.path.join(out, rel)
    # Latin-1 reads and writes each byte as one character, so an edit may add a byte
    # that is not UTF-8.
    text = open(path, encoding="latin-1").read()
    open(path, "w", encoding="latin-1").write(edit(text))
    capsys.readouterr()
    assert main([step, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert len(err.splitlines()) == 1



def _sim_is_a_directory(tmp_path, sim_file):
    return ["simulate", "--out", str(tmp_path / "r"), "--sim", str(tmp_path)], str(tmp_path)


def _out_is_a_file(tmp_path, sim_file):
    path = tmp_path / "r"
    path.write_text("")
    return ["simulate", "--out", str(path), "--sim", sim_file], str(path)


def _directory_under_inputs(tmp_path, sim_file):
    out = str(tmp_path / "r")
    assert main(["simulate", "--out", out, "--sim", sim_file]) == 0
    path = os.path.join(out, "inputs", "notes")
    os.mkdir(path)
    return ["classify", "--out", out], path


@pytest.mark.parametrize("setup", [_sim_is_a_directory, _out_is_a_file, _directory_under_inputs],
                         ids=["sim_is_a_directory", "out_is_a_file", "directory_under_inputs"])
def test_filesystem_error_is_one_line_validation_error_naming_its_path(
        tmp_path, sim_file, capsys, setup):
    argv, path = setup(tmp_path, sim_file)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: \[Errno \d+\] [^\n]+: {re.escape(repr(path))}\n", err)


# The files classify through trends derive from the inputs.
DERIVED_FILES = [
    "profiles.csv", "cohort.csv", "exclusions.csv", "analysis_table.csv",
    "table_one.csv", "pretrend.json", "did.json",
] + [f"trends_{o}.csv" for o in (
    "any_refill_30d", "initial_mme_7d", "persistent_use_90_180", "total_mme_30d")]


@pytest.mark.parametrize("order", [
    lambda rows: rows[::-1],
    lambda rows: random.Random(20191).sample(rows, len(rows)),
], ids=["reversed", "shuffled"])
def test_input_row_order_changes_no_derived_file(tmp_path, sim_file, order):
    # The store sorts each person's records, the cohort is sorted by person
    # and the cluster codes come from np.unique, so no output may depend on
    # the order of the rows in any input CSV.
    runs = {name: str(tmp_path / name) for name in ("written", "permuted")}
    assert main(["simulate", "--out", runs["written"], "--sim", sim_file]) == 0
    inputs = os.path.join(runs["permuted"], "inputs")
    os.makedirs(inputs)
    for name in os.listdir(os.path.join(runs["written"], "inputs")):
        with open(os.path.join(runs["written"], "inputs", name), newline="") as f:
            header, *rows = f.readlines()
        permuted = order(rows)
        assert permuted != rows or len(rows) == 1, name   # some row is out of place
        with open(os.path.join(inputs, name), "w", newline="") as f:
            f.writelines([header, *permuted])
    for out in runs.values():
        for step in ["classify", "cohort", "describe", "pretrend", "did", "trends"]:
            assert main([step, "--out", out]) == 0, (out, step)
    tree = {name: _tree_bytes(out) for name, out in runs.items()}
    for rel in DERIVED_FILES:
        assert tree["permuted"][rel] == tree["written"][rel], rel


# sha256 of the run-directory files that no BLAS call touches, for SIM_CFG.
# They pin ingestion, profiling, the cohort rules, the outcome and
# covariate measures, the descriptive table and the trend series, and the
# format of each file: a change that moves any of them must say so.
GOLDEN_SHA256 = {
    "inputs/antidepressants.csv": "6062c282084d77867185936dd42d92ce11de85a6634b5b8e4ef1f18f785486db",
    "inputs/comorbidity_map.csv": "53149faac89610dccdefa45eef96b95b2f83a62a8ef80992c642940351ee86f9",
    "inputs/drug_catalog.csv": "2431070d27f20b4e3e99762e16055323aed6f164bd26c764793315735236ff0e",
    "inputs/enrollment.csv": "e04087f524dbc51aeff0ecb2c855f6efcccaa2f187f484a8cd3e6ce0650fe99e",
    "inputs/medical.csv": "e4242526b24c511fbdf70a556db762083ef4e79ea992370d9818708e71a59414",
    "inputs/persons.csv": "8db6d1a1de190a1efa20dcca59fbb858d29efafc69394db068fe7695692cd0ad",
    "inputs/pharmacy.csv": "959caad9ab33c88785d394f1dc678c8bd6cbec6d604fe160c08811a3e80d49d2",
    "inputs/procedures.csv": "2fa75452fd5f52882e31e6fd4dd539d5a4f496bbff9cbbc017a23c703074f0c8",
    "profiles.csv": "2a67f72e16b2e12862fd509af2d16bfee2829ff31350537dc74c5791d35966d4",
    "cohort.csv": "1457706063f0907aba3d0df66f8b538f4a4919bd486e343c157c3ee7de02afba",
    "exclusions.csv": "bc84562ef6a86360e909af761fa17e7217aec77779acefd70f11b8e073ecf17d",
    "analysis_table.csv": "527b56199613f90c21e2a6c25bef18795df81fadd8743cb3a546bc1a1fb75ded",
    "ground_truth.json": "688c24b5a424c7377f04eb47555da1f7d68be9aa55192dab5b289f0c0ed9bb93",
    "table_one.csv": "d6de9ba897b7fab0ebf9fdcb40d9cf9ccb1211e7e177835ddd070aac63dd53d8",
    "trends_any_refill_30d.csv": "9bd0cb79d429ab7bc899d6fd871519a8123817e7a9e868a664fe9ea0a8a627ae",
    "trends_initial_mme_7d.csv": "079e7bd3141a530cf42b05acbdc7894b59704f4f0b7d0dc8582886d2fce8e146",
    "trends_persistent_use_90_180.csv":
        "c9e209296b14d79ec94983f879ec8931e18ec23e14271f05d8d52a52363463d6",
    "trends_total_mme_30d.csv": "837b2c394684f0607e403b7453f381ff4479fbea549fa25ca96be1ef0b021c4b",
}


def test_sim_run_files_match_golden_digests(tmp_path, sim_file):
    out = str(tmp_path / "r")
    for step in ["simulate", "classify", "cohort", "describe", "trends"]:
        assert main([step, "--out", out, "--sim", sim_file]) == 0
    digests = {
        rel: hashlib.sha256(open(os.path.join(out, rel), "rb").read()).hexdigest()
        for rel in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
